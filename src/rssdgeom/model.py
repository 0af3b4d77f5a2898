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
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class Variant(str, Enum):
    """The measurement model: RSSD, transmit power unknown and profiled out,
    so localization uses strength differences."""

    RSSD = "rssd"


class ScenarioError(ValueError):
    """Raised when a scenario violates its invariants, or when a value a caller
    supplies (a count, a seed, a real such as prior_std) breaks its rule."""


def as_count(value, name: str, minimum: int = 0) -> int:
    """The rule for every count or seed a caller supplies, returning an int.

    value must be a numbers.Integral other than bool and at least minimum;
    anything else is a ScenarioError that names the field.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ScenarioError(f"{name}: must be an integer >= {minimum}, got {value!r}")
    return int(value)


def as_real(value, name: str, minimum: float = -math.inf) -> float:
    """The rule for every real a caller supplies, returning a finite float.

    value must be a numbers.Real other than bool whose float() is finite and
    at least minimum, so an int too large for a float fails too; anything
    else is a ScenarioError that names the field.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if math.isfinite(x) and x >= minimum:
            return x
    bound = f" >= {minimum:g}" if minimum > -math.inf else ""
    raise ScenarioError(f"{name}: must be a finite number{bound}, got {value!r}")


def loss_slope(gamma: float) -> float:
    """Coefficient 10*gamma/ln(10) converting dB path loss to log-distance."""
    return 10.0 * gamma / math.log(10.0)


def spread_bound(beta_max) -> float:
    """The spread bound as a float in (0, 2*pi]; up to 1e-12 above 2*pi is clamped.

    beta_max follows the rule for reals (as_real); a value that breaks it or
    lies outside the range is a ScenarioError naming the range.
    """
    try:
        bound = as_real(beta_max, "beta_max")
    except ScenarioError:
        bound = math.nan
    if not 0.0 < bound <= TWO_PI + 1e-12:
        raise ScenarioError(f"beta_max: must lie in (0, 2*pi], got {beta_max!r}")
    return min(bound, TWO_PI)


def _as_vector(values, n: int, name: str, zero_ok: bool = False) -> np.ndarray:
    """The rule for a per-sensor vector: n finite floats, each > 0 (>= 0 if
    zero_ok); else a ScenarioError naming the field and the first bad entry."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ScenarioError(f"{name}: expected length-{n} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name}: contains non-finite entries")
    bad = arr < 0 if zero_ok else arr <= 0
    if bad.any():
        raise ScenarioError(f"{name}[{int(np.argmax(bad))}]: must be {'>=' if zero_ok else '>'} 0")
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

    Every weight and bound scales with m / sigma_i^2 (m =
    samples_per_position) and with loss_slope(gamma)^2 times their sum, so
    each must be a finite positive float, or a ScenarioError names
    noise_std[i] or gamma.

    variant is a read-only property, always Variant.RSSD: the one
    measurement model, named so that callers and the file form can say it.
    """

    source: np.ndarray
    n_sensors: int
    gamma: float
    horiz_dist: np.ndarray
    vert_dist: np.ndarray
    noise_std: np.ndarray
    samples_per_position: int = 10
    beta_max: float = TWO_PI

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.source)):
            raise ScenarioError("source: contains non-finite entries")
        if self.source[2] != 0.0:
            raise ScenarioError("source: height must be zero")
        n = self.n_sensors = as_count(self.n_sensors, "n_sensors", 1)
        self.horiz_dist = _as_vector(self.horiz_dist, n, "horiz_dist")
        self.vert_dist = _as_vector(self.vert_dist, n, "vert_dist", zero_ok=True)
        self.noise_std = _as_vector(self.noise_std, n, "noise_std")
        self.gamma = as_real(self.gamma, "gamma")
        if self.gamma <= 0:
            raise ScenarioError("gamma: must be positive and finite")
        m = as_real(self.samples_per_position, "samples_per_position", 1.0)
        if not m.is_integer():
            raise ScenarioError(f"samples_per_position: must be a whole number, got {m!r}")
        self.samples_per_position = int(m)
        self.beta_max = spread_bound(self.beta_max)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            inv_var = 1.0 / self.effective_var
            total = float(inv_var.sum())
        bad = ~((0.0 < inv_var) & (inv_var < math.inf))
        if bad.any() or total == math.inf:
            i = int(np.argmax(bad) if bad.any() else np.argmin(self.noise_std))
            raise ScenarioError(f"noise_std[{i}]: {self.noise_std[i]:g} puts the inverse "
                                "variances m / sigma^2 or their sum out of range")
        slope = loss_slope(self.gamma)  # a float: slope ** 2 could raise OverflowError
        if not 0.0 < slope * slope * total < math.inf:
            raise ScenarioError(f"gamma: {self.gamma:g} puts slope^2 sum m / sigma^2 out of range")

    @property
    def variant(self) -> Variant:
        return Variant.RSSD

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
    """One angle normalized to [0, 2*pi) as a float: wrap_angles on a scalar."""
    return float(wrap_angles(beta))


def wrap_angles(beta) -> np.ndarray:
    """Normalize every angle to [0, 2*pi); a NaN or infinite angle raises ValueError."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise ValueError("angles must be finite, not NaN or infinite")
    wrapped = np.fmod(beta, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    return np.where(wrapped < TWO_PI, wrapped, 0.0)


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

    @property
    def n_sensors(self) -> int:
        return len(self.angles)


def sensor_positions(scenario: Scenario, placement: Placement) -> np.ndarray:
    """(N, 3) positions of the whole swarm for a placement.

    Sensor i sits at source + r_i * (sin, cos)(beta_i), so that
    tan(beta_i) = dx / dy, at height h_i.
    """
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


def simulate_measurements(
    scenario: Scenario, placement: Placement, truth: SourceParams, seed: int
) -> np.ndarray:
    """Averaged noisy RSS measurements for every sensor.

    Each sensor draws samples_per_position independent Gaussian samples around
    its noiseless value (distance taken to the true source) and reports their
    mean. The seed starts one generator, np.random.default_rng(seed), which
    draws an (N, samples_per_position) block of standard normals in row
    order; row i, scaled by sensor i's noise std, is sensor i's samples. So
    sensor i's samples depend only on the seed, i and its own std, not on
    the other sensors' stds or on how many sensors follow it. This is the
    one-trial call of simulate_measurements_many, which adds a leading trial
    axis.
    """
    pos = sensor_positions(scenario, placement)
    return simulate_measurements_many(scenario, pos[None], truth, [seed])[0]


def simulate_measurements_many(
    scenario: Scenario, positions: np.ndarray, truth: SourceParams, seeds
) -> np.ndarray:
    """(T, N) averaged noisy RSS measurements of T trials at once.

    positions holds the (T, N, 3) sensor positions of each trial and seeds
    its T seeds. Trial t starts one generator, np.random.default_rng(seeds[t]),
    and fills its (N, m) block of one (T, N, m) array with standard normals,
    m = samples_per_position; row i of the block, scaled by sensor i's noise
    std, holds sensor i's samples, as in simulate_measurements. The samples
    are averaged along the last axis. Row t equals bit for bit
    simulate_measurements of that trial alone.
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
        np.random.default_rng(seed).standard_normal(out=samples[t])
    samples *= scenario.noise_std[:, None]
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


def scenario_from_dict(data: dict) -> Scenario:
    """Parse the dict form, reporting the offending field on failure."""
    try:
        source = [as_real(c, "source") for c in data["source"]]
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
            r.append(as_real(row["r"], f"sensors[{idx}].r"))
            h.append(as_real(row["h"], f"sensors[{idx}].h"))
            sigma.append(as_real(row["sigma"], f"sensors[{idx}].sigma"))
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"sensors[{idx}]: expected numeric r, h, sigma ({exc})") from exc
    beta_max_deg = as_real(data.get("beta_max_deg"), "beta_max_deg")
    if not 0.0 < beta_max_deg <= 360.0:
        raise ScenarioError(f"beta_max_deg: must lie in (0, 360], got {beta_max_deg}")
    variant = str(data.get("variant", "rssd")).lower()
    if variant != Variant.RSSD.value:
        raise ScenarioError(f"variant: expected 'rssd', the only model, got {variant!r}")
    return Scenario(
        source=source,
        n_sensors=len(sensors),
        gamma=data.get("gamma", 2.0),
        horiz_dist=r,
        vert_dist=h,
        noise_std=sigma,
        samples_per_position=data.get("samples_per_position", 10),
        beta_max=math.radians(beta_max_deg),
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


# -- bundled benchmark scenarios ---------------------------------------------


def _bundled(noise_std: np.ndarray, beta_max) -> Scenario:
    """The fields the bundled scenarios share; one sensor per noise_std entry."""
    n = len(noise_std)
    return Scenario(
        source=[0.0, 0.0, 0.0],
        n_sensors=n,
        gamma=2.0,
        horiz_dist=np.full(n, 1000.0),
        vert_dist=np.full(n, 100.0),
        noise_std=noise_std,
        samples_per_position=10,
        beta_max=beta_max,
    )


def case_a(n_sensors: int = 8, beta_max: float = TWO_PI) -> Scenario:
    """Benchmark scenario with heterogeneous sensors.

    Half of the swarm measures with noise variance 8 dB^2, the other half with
    2 dB^2; distances are 1000 m horizontal / 100 m vertical for everyone.
    n_sensors follows model.as_count with a minimum of 2, and must be even.
    """
    half = as_count(n_sensors, "n_sensors", 2) // 2
    if 2 * half != n_sensors:
        raise ScenarioError(f"n_sensors: case_a needs an even count, got {n_sensors!r}")
    return _bundled(np.sqrt([8.0] * half + [2.0] * half), beta_max)


def case_b(n_sensors: int = 8, beta_max: float = TWO_PI) -> Scenario:
    """Benchmark scenario with N >= 1 identical sensors (noise variance 4 dB^2 each)."""
    return _bundled(np.full(as_count(n_sensors, "n_sensors", 1), 2.0), beta_max)
