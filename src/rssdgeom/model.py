"""Scenario definition, sensor geometry, and RSS measurement simulation.

A scenario fixes everything about a measurement campaign except the horizontal
angles of the sensors: the source location, per-sensor horizontal/vertical
distances, noise levels, the path-loss exponent, how many raw samples each
sensor averages per position, and the spread-angle bound the swarm must
respect.

Conventions used throughout the package:

* angles are radians in [0, 2*pi), measured so that tan(beta) = dx / dy
  relative to the source (beta = 0 points along +y);
* a placement angle beta maps to the unit direction [cos(beta), sin(beta)];
* all internal computation is in radians, config files carry degrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class Variant(str, Enum):
    """Measurement model flavor.

    RSSD: transmit power unknown, localization uses strength differences.
    RSS: transmit power known, absolute strengths are informative.
    """

    RSSD = "rssd"
    RSS = "rss"


class ScenarioError(ValueError):
    """Raised when a scenario violates its invariants."""


def _as_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ScenarioError(f"{name}: expected length-{n} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name}: contains non-finite entries")
    return arr


@dataclass
class SourceParams:
    """Emitter parameters: reference power (dB) and horizontal position (m)."""

    p0: float
    position: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(2)
        if not (np.isfinite(self.p0) and np.all(np.isfinite(self.position))):
            raise ScenarioError("source parameters must be finite")


@dataclass
class Scenario:
    """One full problem instance.

    Attributes:
        source: 3-vector source position, height fixed at zero (m).
        n_sensors: number of sensors N.
        gamma: path-loss exponent (dimensionless).
        horiz_dist: per-sensor horizontal distance to the source (m), > 0.
        vert_dist: per-sensor height above the source plane (m), >= 0.
        noise_std: per-sensor noise standard deviation (dB), > 0.
        samples_per_position: raw samples averaged into one measurement.
        beta_max: spread-angle bound in radians, 0 < beta_max <= 2*pi.
        variant: RSSD (default) or RSS.
    """

    source: np.ndarray
    n_sensors: int
    gamma: float
    horiz_dist: np.ndarray
    vert_dist: np.ndarray
    noise_std: np.ndarray
    samples_per_position: int = 10
    beta_max: float = TWO_PI
    variant: Variant = Variant.RSSD

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.source)):
            raise ScenarioError("source: contains non-finite entries")
        if self.source[2] != 0.0:
            raise ScenarioError("source: height must be zero")
        n = int(self.n_sensors)
        if n < 1:
            raise ScenarioError("n_sensors: must be positive")
        self.n_sensors = n
        self.horiz_dist = _as_vector(self.horiz_dist, n, "horiz_dist")
        self.vert_dist = _as_vector(self.vert_dist, n, "vert_dist")
        self.noise_std = _as_vector(self.noise_std, n, "noise_std")
        if np.any(self.horiz_dist <= 0):
            bad = int(np.argmax(self.horiz_dist <= 0))
            raise ScenarioError(f"horiz_dist[{bad}]: must be > 0")
        if np.any(self.vert_dist < 0):
            bad = int(np.argmax(self.vert_dist < 0))
            raise ScenarioError(f"vert_dist[{bad}]: must be >= 0")
        if np.any(self.noise_std <= 0):
            bad = int(np.argmax(self.noise_std <= 0))
            raise ScenarioError(f"noise_std[{bad}]: must be > 0")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ScenarioError("gamma: must be positive and finite")
        m = float(self.samples_per_position)
        if not (m.is_integer() and m >= 1):
            raise ScenarioError(
                "samples_per_position: must be a positive integer, "
                f"got {self.samples_per_position!r}"
            )
        self.samples_per_position = int(m)
        if not (0.0 < self.beta_max <= TWO_PI + 1e-12):
            raise ScenarioError("beta_max: must lie in (0, 2*pi]")
        self.beta_max = min(float(self.beta_max), TWO_PI)
        self.variant = Variant(self.variant)

    @property
    def effective_var(self) -> np.ndarray:
        """Noise variance of one averaged measurement, sigma_i^2 / m."""
        return self.noise_std**2 / self.samples_per_position

    def slant_distances(self) -> np.ndarray:
        """Per-sensor straight-line distance to the source."""
        return np.hypot(self.horiz_dist, self.vert_dist)

    def with_source(self, position_xy) -> "Scenario":
        """Copy of the scenario recentered on a new horizontal source position."""
        src = np.array([position_xy[0], position_xy[1], 0.0])
        return replace(self, source=src)


def wrap_angle(beta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    wrapped = math.fmod(beta, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped if wrapped < TWO_PI else 0.0


def wrap_angles(beta) -> np.ndarray:
    """Array form of wrap_angle, equal to it bit for bit on every entry."""
    beta = np.asarray(beta, dtype=float)
    if np.any(np.isinf(beta)):
        raise ValueError("angles must not be infinite")
    wrapped = np.fmod(beta, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    return np.where(wrapped < TWO_PI, wrapped, 0.0)


def angle_to_direction(beta: float) -> np.ndarray:
    """Unit direction [cos(beta), sin(beta)] for a horizontal angle."""
    return np.array([math.cos(beta), math.sin(beta)])


def direction_to_angle(g) -> float:
    """Inverse of angle_to_direction; the input must be unit-norm within 1e-9."""
    g = np.asarray(g, dtype=float).reshape(2)
    norm = math.hypot(g[0], g[1])
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit-norm, got |g| = {norm!r}")
    return wrap_angle(math.atan2(g[1], g[0]))


@dataclass
class Placement:
    """Horizontal angles of all sensors plus the equivalent direction matrix.

    angles[i] is normalized to [0, 2*pi); directions[i] = [cos, sin] of it,
    derived from the wrapped angles.
    """

    angles: np.ndarray
    directions: np.ndarray = field(init=False)

    def __post_init__(self):
        self.angles = wrap_angles(self.angles)
        self.directions = np.column_stack([np.cos(self.angles), np.sin(self.angles)])

    @classmethod
    def from_angles(cls, angles) -> "Placement":
        return cls(angles=np.asarray(angles, dtype=float))

    @classmethod
    def from_directions(cls, directions) -> "Placement":
        directions = np.asarray(directions, dtype=float)
        angles = np.array([direction_to_angle(row) for row in directions])
        return cls(angles=angles)

    @property
    def n_sensors(self) -> int:
        return len(self.angles)


def slant_distance(r: float, h: float) -> float:
    """Straight-line distance for horizontal range r > 0 and height h >= 0."""
    if r <= 0:
        raise ValueError(f"horizontal distance must be > 0, got {r!r}")
    if h < 0:
        raise ValueError(f"height must be >= 0, got {h!r}")
    return math.hypot(r, h)


def sensor_position(scenario: Scenario, i: int, beta: float) -> np.ndarray:
    """3-D position of sensor i at horizontal angle beta around the source.

    The (x, y) offset is r_i * (sin(beta), cos(beta)) so that
    tan(beta) = dx / dy; z equals the sensor height.
    """
    if not 0 <= i < scenario.n_sensors:
        raise IndexError(f"sensor index {i} out of range [0, {scenario.n_sensors})")
    r = scenario.horiz_dist[i]
    return np.array(
        [
            scenario.source[0] + r * math.sin(beta),
            scenario.source[1] + r * math.cos(beta),
            scenario.vert_dist[i],
        ]
    )


def sensor_positions(scenario: Scenario, placement: Placement) -> np.ndarray:
    """(N, 3) positions of the whole swarm for a placement."""
    return swarm_positions(scenario, placement, scenario.source[None, :2])[0]


def swarm_positions(scenario: Scenario, placement: Placement, centers) -> np.ndarray:
    """(T, N, 3) positions of the swarm placed around each of T horizontal centers.

    Row t equals bit for bit sensor_positions of the scenario recentered on
    centers[t].
    """
    if placement.n_sensors != scenario.n_sensors:
        raise ValueError("placement size does not match scenario")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    r = scenario.horiz_dist
    pos = np.empty((len(centers), scenario.n_sensors, 3))
    pos[:, :, 0] = centers[:, :1] + r * np.sin(placement.angles)
    pos[:, :, 1] = centers[:, 1:] + r * np.cos(placement.angles)
    pos[:, :, 2] = scenario.vert_dist
    return pos


def mean_rss(p0: float, gamma: float, d: float) -> float:
    """Noiseless received power p0 - 10*gamma*log10(d) in dB."""
    if d <= 0:
        raise ValueError(f"distance must be > 0, got {d!r}")
    return p0 - 10.0 * gamma * math.log10(d)


def simulate_measurements(
    scenario: Scenario, placement: Placement, truth: SourceParams, seed: int
) -> np.ndarray:
    """Averaged noisy RSS measurements for every sensor.

    Each sensor draws samples_per_position independent Gaussian samples around
    its noiseless value (distance taken to the true source) and reports their
    mean. Sensor i consumes its own RNG substream (seed, i), spawned as
    SeedSequence(seed).spawn(N)[i], so results are reproducible and
    per-sensor independent. This is the one-trial call of
    simulate_measurements_many, which adds a leading trial axis.
    """
    pos = sensor_positions(scenario, placement)
    return simulate_measurements_many(scenario, pos[None], truth, [seed])[0]


def simulate_measurements_many(
    scenario: Scenario, positions: np.ndarray, truth: SourceParams, seeds
) -> np.ndarray:
    """(T, N) averaged noisy RSS measurements of T trials at once.

    positions holds the (T, N, 3) sensor positions of each trial and seeds
    its T seeds. Sensor i of trial t draws its samples_per_position samples
    from SeedSequence(seeds[t]).spawn(N)[i], the substream (seeds[t], i) of
    simulate_measurements; all samples land in one (T, N, m) array, averaged
    along its last axis. Row t equals bit for bit simulate_measurements of
    that trial alone.
    """
    pos = np.asarray(positions, dtype=float)
    seeds = list(seeds)
    n = scenario.n_sensors
    if pos.shape != (len(seeds), n, 3):
        raise ValueError("positions must be (T, N, 3) with one seed per trial")
    dx = pos[:, :, 0] - truth.position[0]
    dy = pos[:, :, 1] - truth.position[1]
    d = np.sqrt(dx**2 + dy**2 + pos[:, :, 2] ** 2)
    if np.any(d <= 0):
        raise ValueError("a sensor coincides with the true source")
    clean = truth.p0 - 10.0 * scenario.gamma * np.log10(d)
    m = scenario.samples_per_position
    samples = np.empty((len(seeds), n, m))
    for t, seed in enumerate(seeds):
        for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
            rng = np.random.default_rng(stream)
            samples[t, i] = rng.normal(0.0, scenario.noise_std[i], size=m)
    return clean + np.add.reduce(samples, axis=2) / m


# -- serialization -----------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready dict; angles in degrees, sensors as {r, h, sigma} rows."""
    return {
        "source": [scenario.source[0], scenario.source[1], 0.0],
        "gamma": scenario.gamma,
        "sensors": [
            {"r": float(r), "h": float(h), "sigma": float(s)}
            for r, h, s in zip(scenario.horiz_dist, scenario.vert_dist, scenario.noise_std)
        ],
        "samples_per_position": scenario.samples_per_position,
        "beta_max_deg": math.degrees(scenario.beta_max),
        "variant": scenario.variant.value,
    }


def _as_number(name: str, value) -> float:
    """A JSON number as a float; booleans and strings are not numbers here."""
    if isinstance(value, (bool, str)):
        raise ScenarioError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name}: missing or malformed ({exc})") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Parse the dict form, reporting the offending field on failure."""
    try:
        source = [_as_number("source", c) for c in data["source"]]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"source: missing or malformed ({exc})") from exc
    if len(source) == 2:
        source = [source[0], source[1], 0.0]
    if len(source) != 3:
        raise ScenarioError("source: expected 2 or 3 coordinates")
    sensors = data.get("sensors")
    if not isinstance(sensors, list) or not sensors:
        raise ScenarioError("sensors: expected a non-empty array")
    r, h, sigma = [], [], []
    for idx, row in enumerate(sensors):
        try:
            r.append(_as_number(f"sensors[{idx}].r", row["r"]))
            h.append(_as_number(f"sensors[{idx}].h", row["h"]))
            sigma.append(_as_number(f"sensors[{idx}].sigma", row["sigma"]))
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"sensors[{idx}]: expected numeric r, h, sigma ({exc})") from exc
    beta_max_deg = _as_number("beta_max_deg", data.get("beta_max_deg"))
    if not 0.0 < beta_max_deg <= 360.0:
        raise ScenarioError(f"beta_max_deg: must lie in (0, 360], got {beta_max_deg}")
    variant = str(data.get("variant", "rssd")).lower()
    if variant not in (v.value for v in Variant):
        raise ScenarioError(f"variant: expected 'rssd' or 'rss', got {variant!r}")
    return Scenario(
        source=source,
        n_sensors=len(sensors),
        gamma=_as_number("gamma", data.get("gamma", 2.0)),
        horiz_dist=r,
        vert_dist=h,
        noise_std=sigma,
        samples_per_position=_as_number(
            "samples_per_position", data.get("samples_per_position", 10)
        ),
        beta_max=math.radians(beta_max_deg),
        variant=Variant(variant),
    )


def load_scenario(path) -> Scenario:
    """Load a scenario from a UTF-8 JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


# -- bundled benchmark scenarios ---------------------------------------------


def case_a(n_sensors: int = 8, beta_max: float = TWO_PI) -> Scenario:
    """Benchmark scenario with heterogeneous sensors.

    Half of the swarm measures with noise variance 8 dB^2, the other half with
    2 dB^2; distances are 1000 m horizontal / 100 m vertical for everyone.
    """
    if n_sensors % 2 != 0:
        raise ScenarioError("case_a: n_sensors must be even")
    half = n_sensors // 2
    var = np.array([8.0] * half + [2.0] * half)
    return Scenario(
        source=[0.0, 0.0, 0.0],
        n_sensors=n_sensors,
        gamma=2.0,
        horiz_dist=np.full(n_sensors, 1000.0),
        vert_dist=np.full(n_sensors, 100.0),
        noise_std=np.sqrt(var),
        samples_per_position=10,
        beta_max=beta_max,
    )


def case_b(n_sensors: int = 8, beta_max: float = TWO_PI) -> Scenario:
    """Benchmark scenario with identical sensors (noise variance 4 dB^2 each)."""
    return Scenario(
        source=[0.0, 0.0, 0.0],
        n_sensors=n_sensors,
        gamma=2.0,
        horiz_dist=np.full(n_sensors, 1000.0),
        vert_dist=np.full(n_sensors, 100.0),
        noise_std=np.full(n_sensors, 2.0),
        samples_per_position=10,
        beta_max=beta_max,
    )
