"""Geometry, measurement model, and scenario serialization tests."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rssdgeom.admm import uniform_init
from rssdgeom.experiments import scenario_hash
from rssdgeom.fim import g0_bound
from rssdgeom.model import (
    Placement,
    Scenario,
    ScenarioError,
    SourceParams,
    as_count,
    as_real,
    case_a,
    case_b,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sensor_positions,
    simulate_measurements,
    simulate_measurements_many,
    swarm_positions,
    wrap_angle,
    wrap_angles,
)

TWO_PI = 2.0 * math.pi


def small_scenario(n=4, sigma=None, m=1, beta_max=TWO_PI):
    sigma = np.full(n, 2.0) if sigma is None else np.asarray(sigma, dtype=float)
    return Scenario(
        source=[0.0, 0.0, 0.0],
        n_sensors=n,
        gamma=2.0,
        horiz_dist=np.full(n, 1000.0),
        vert_dist=np.full(n, 100.0),
        noise_std=sigma,
        samples_per_position=m,
        beta_max=beta_max,
    )


def one_sensor(r, h, sigma=1.0, source=(0.0, 0.0)):
    return Scenario(
        source=[source[0], source[1], 0.0],
        n_sensors=1,
        gamma=2.0,
        horiz_dist=[r],
        vert_dist=[h],
        noise_std=[sigma],
    )


class TestSlantDistance:
    def test_flat_equals_horizontal(self):
        assert one_sensor(100.0, 0.0).slant_distances()[0] == 100.0

    def test_pythagorean_triple(self):
        assert one_sensor(3.0, 4.0).slant_distances()[0] == pytest.approx(5.0, abs=1e-12)

    def test_benchmark_defaults(self):
        d = one_sensor(1000.0, 100.0).slant_distances()[0]
        assert d == pytest.approx(1004.987562112089, abs=1e-9)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            one_sensor(0.0, 10.0)
        with pytest.raises(ValueError):
            one_sensor(-3.0, 4.0)

    def test_dominates_both_legs(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1e-3, 1e4, 200)
        h = rng.uniform(0, 1e4, 200)
        sc = Scenario(
            source=[0.0, 0.0, 0.0],
            n_sensors=200,
            gamma=2.0,
            horiz_dist=r,
            vert_dist=h,
            noise_std=np.ones(200),
        )
        assert np.all(sc.slant_distances() >= np.maximum(r, h))


class TestSensorPosition:
    def test_zero_angle_points_north(self):
        pos = sensor_positions(small_scenario(), Placement.from_angles([0.0] * 4))
        np.testing.assert_allclose(pos[0], [0.0, 1000.0, 100.0], atol=1e-12)

    def test_quarter_turn_points_east(self):
        pos = sensor_positions(small_scenario(), Placement.from_angles([math.pi / 2] * 4))
        np.testing.assert_allclose(pos[0], [1000.0, 0.0, 100.0], atol=1e-9)

    def test_round_trip_recovers_angle(self):
        # position -> angle must invert angle -> position, including with an
        # offset source and mixed distances
        sc = Scenario(
            source=[5.0, 5.0, 0.0],
            n_sensors=2,
            gamma=2.0,
            horiz_dist=[3.0, 7.0],
            vert_dist=[4.0, 0.0],
            noise_std=[1.0, 1.0],
        )
        rng = np.random.default_rng(1)
        expected = np.hypot(sc.horiz_dist, sc.vert_dist)
        for _ in range(250):
            placement = Placement.from_angles(rng.uniform(0, TWO_PI, 2))
            for i, pos in enumerate(sensor_positions(sc, placement)):
                # tan(beta) = dx / dy relative to the source
                back = wrap_angle(math.atan2(pos[0] - sc.source[0], pos[1] - sc.source[1]))
                assert back == pytest.approx(placement.angles[i], abs=1e-12)
                d = np.linalg.norm(pos - sc.source)
                assert d == pytest.approx(expected[i], rel=1e-12)

    def test_swarm_positions_equal_per_sensor_positions_bitwise(self):
        rng = np.random.default_rng(3)
        n = 50
        sc = Scenario(
            source=[12.5, -40.0, 0.0],
            n_sensors=n,
            gamma=2.0,
            horiz_dist=rng.uniform(10.0, 2000.0, n),
            vert_dist=rng.uniform(0.0, 200.0, n),
            noise_std=np.ones(n),
        )
        placement = Placement.from_angles(rng.uniform(0.0, TWO_PI, n))
        r, h = sc.horiz_dist, sc.vert_dist
        want = np.array(
            [
                [sc.source[0] + r[i] * math.sin(b), sc.source[1] + r[i] * math.cos(b), h[i]]
                for i, b in enumerate(placement.angles.tolist())
            ]
        )
        assert sensor_positions(sc, placement).tobytes() == want.tobytes()

    def test_positions_around_many_centers_equal_recentered_swarms_bitwise(self):
        rng = np.random.default_rng(4)
        sc = case_b()
        placement = Placement.from_angles(rng.uniform(0.0, TWO_PI, sc.n_sensors))
        centers = rng.normal(0.0, 500.0, (7, 2))
        got = swarm_positions(sc, placement, centers)
        assert got.shape == (7, sc.n_sensors, 3)
        for t, center in enumerate(centers):
            want = sensor_positions(sc.with_source(center), placement)
            assert got[t].tobytes() == want.tobytes()

    def test_rejects_a_placement_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="^placement size does not match scenario"):
            swarm_positions(case_b(), uniform_init(7, TWO_PI), [[0.0, 0.0]])


def noiseless_rss(r, h, p0=0.0, at=(0.0, 0.0)):
    """simulate_measurements of one sensor at vanishing noise, truth at `at`."""
    sc = one_sensor(r, h, sigma=1e-12)
    truth = SourceParams(p0=p0, position=list(at))
    return simulate_measurements(sc, Placement.from_angles([0.0]), truth, seed=3)[0]


class TestMeanRss:
    def test_unit_distance_returns_reference(self):
        assert noiseless_rss(1.0, 0.0, p0=30.0) == pytest.approx(30.0, abs=1e-9)

    def test_one_decade_loss(self):
        assert noiseless_rss(10.0, 0.0, p0=30.0) == pytest.approx(10.0, abs=1e-9)

    def test_benchmark_distance(self):
        # frozen: -20*log10(1004.987562112089)
        assert noiseless_rss(1000.0, 100.0) == pytest.approx(-60.043213737826434, abs=1e-9)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            noiseless_rss(10.0, 0.0, at=(0.0, 10.0))


class TestAngleDirection:
    def test_cardinal_directions(self):
        g = Placement.from_angles([0.0, math.pi / 2]).directions
        np.testing.assert_allclose(g, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


class TestPlacement:
    def test_angles_normalized(self):
        p = Placement.from_angles([TWO_PI, -math.pi / 2, 3 * TWO_PI + 0.25])
        np.testing.assert_allclose(p.angles, [0.0, 1.5 * math.pi, 0.25], atol=1e-12)

    def test_array_wrap_equals_scalar_wrap_bitwise(self):
        rng = np.random.default_rng(4)
        edge = [0.0, -0.0, -1e-20, -1e-300, TWO_PI, -TWO_PI, TWO_PI - 1e-16, 3 * TWO_PI]
        beta = np.concatenate([rng.uniform(-30.0, 30.0, 500), edge])
        want = np.array([wrap_angle(b) for b in beta])
        assert wrap_angles(beta).tobytes() == want.tobytes()
        assert Placement.from_angles(beta).angles.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, bad):
        with pytest.raises(ValueError):
            wrap_angle(bad)
        with pytest.raises(ValueError):
            wrap_angles([0.5, bad])
        with pytest.raises(ValueError):
            Placement.from_angles([bad, 1.0])

    def test_directions_unit_rows(self):
        p = Placement.from_angles(np.linspace(0, 6, 13))
        np.testing.assert_allclose(np.linalg.norm(p.directions, axis=1), 1.0, atol=1e-12)


class TestSimulateMeasurements:
    def test_vanishing_noise_limit(self):
        sc = small_scenario(sigma=np.full(4, 1e-12), m=10)
        pl = Placement.from_angles([0.1, 0.9, 2.0, 4.0])
        truth = SourceParams(p0=25.0, position=[0.0, 0.0])
        got = simulate_measurements(sc, pl, truth, seed=7)
        expect = 25.0 - 20.0 * math.log10(math.hypot(1000.0, 100.0))
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_same_seed_bit_reproducible(self):
        sc = small_scenario(m=10)
        pl = Placement.from_angles([0.3, 1.2, 2.7, 5.5])
        truth = SourceParams(p0=10.0, position=[50.0, -20.0])
        a = simulate_measurements(sc, pl, truth, seed=123)
        b = simulate_measurements(sc, pl, truth, seed=123)
        assert np.array_equal(a, b)
        c = simulate_measurements(sc, pl, truth, seed=124)
        assert not np.array_equal(a, c)

    def test_variance_of_averaged_measurement(self):
        # law of large numbers: the averaged measurement must have variance
        # sigma^2/m = 4/10 within 5% over 1e5 independent repeats
        n_rep = 100_000
        sc = small_scenario(n=2, sigma=[2.0, 2.0], m=10)
        pl = Placement.from_angles([0.0, math.pi])
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        clean = simulate_measurements(
            Scenario(
                source=sc.source, n_sensors=2, gamma=2.0,
                horiz_dist=sc.horiz_dist, vert_dist=sc.vert_dist,
                noise_std=[1e-12, 1e-12], samples_per_position=10,
            ),
            pl, truth, seed=0,
        )
        acc = np.empty((n_rep, 2))
        for rep in range(n_rep):
            acc[rep] = simulate_measurements(sc, pl, truth, seed=rep)
        var = np.var(acc - clean, axis=0)
        np.testing.assert_allclose(var, 0.4, rtol=0.05)


def per_trial_measurements(scenario, placement, truth, seed):
    """simulate_measurements as one generator and one (N, m) block, the reference."""
    pos = sensor_positions(scenario, placement)
    dx = pos[:, 0] - truth.position[0]
    dy = pos[:, 1] - truth.position[1]
    d = np.sqrt(dx**2 + dy**2 + pos[:, 2] ** 2)
    clean = truth.p0 - 10.0 * scenario.gamma * np.log10(d)
    m = scenario.samples_per_position
    rng = np.random.default_rng(seed)
    block = rng.normal(0.0, scenario.noise_std[:, None], size=(scenario.n_sensors, m))
    return clean + block.mean(axis=1)


class TestSimulateMeasurementsMany:
    @pytest.mark.parametrize("make_scenario", [case_a, case_b])
    @pytest.mark.parametrize("trials", [1, 21])
    def test_rows_equal_one_trial_calls_bitwise(self, make_scenario, trials):
        rng = np.random.default_rng(trials)
        sc = make_scenario()
        placement = Placement.from_angles(rng.uniform(0.0, TWO_PI, sc.n_sensors))
        truth = SourceParams(p0=3.0, position=sc.source[:2])
        centers = truth.position + rng.normal(0.0, 120.0, (trials, 2))
        seeds = [int(s) for s in rng.integers(0, 2**32, trials)]
        got = simulate_measurements_many(
            sc, swarm_positions(sc, placement, centers), truth, seeds
        )
        assert got.shape == (trials, sc.n_sensors)
        for t, (center, seed) in enumerate(zip(centers, seeds)):
            moved = sc.with_source(center)
            one = simulate_measurements(moved, placement, truth, seed)
            assert got[t].tobytes() == one.tobytes()
            want = per_trial_measurements(moved, placement, truth, seed)
            assert one.tobytes() == want.tobytes()

    def test_one_sensors_noise_leaves_the_others_bits(self):
        sc = case_a()
        placement = Placement.from_angles(np.linspace(0.0, 5.0, sc.n_sensors))
        truth = SourceParams(p0=0.0, position=[30.0, -40.0])
        pos = swarm_positions(sc, placement, [[0.0, 0.0], [250.0, 80.0]])
        base = simulate_measurements_many(sc, pos, truth, [5, 6])
        for i in range(sc.n_sensors):
            sigma = sc.noise_std.copy()
            sigma[i] *= 3.0
            got = simulate_measurements_many(replace(sc, noise_std=sigma), pos, truth, [5, 6])
            others = np.arange(sc.n_sensors) != i
            assert got[:, others].tobytes() == base[:, others].tobytes()
            assert not np.any(got[:, i] == base[:, i])

    @pytest.mark.parametrize("n", [3, 8])
    def test_a_sensors_samples_do_not_depend_on_the_swarm_size(self, n):
        # sensor i's measurement is the same bits in swarms of n and n + 1
        sigma = np.linspace(0.5, 3.0, n + 1)
        wide = small_scenario(n=n + 1, sigma=sigma, m=10)
        narrow = small_scenario(n=n, sigma=sigma[:n], m=10)
        angles = np.linspace(0.2, 6.0, n + 1)
        truth = SourceParams(p0=-7.0, position=[12.0, 3.0])
        for seed in (0, 17, 2**40):
            big = simulate_measurements(wide, Placement.from_angles(angles), truth, seed)
            small = simulate_measurements(narrow, Placement.from_angles(angles[:n]), truth, seed)
            assert small.tobytes() == big[:n].tobytes()

    def test_rejects_mismatched_seeds(self):
        sc = small_scenario()
        pos = swarm_positions(sc, Placement.from_angles([0.1, 0.9, 2.0, 4.0]), [[0.0, 5.0]] * 3)
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        with pytest.raises(ValueError, match="one seed per trial"):
            simulate_measurements_many(sc, pos, truth, [1, 2])


class TestScenarioValidation:
    def test_rejects_zero_sigma(self):
        with pytest.raises(ScenarioError, match="noise_std"):
            small_scenario(sigma=[2.0, 2.0, 0.0, 2.0])

    def test_rejects_negative_range(self):
        with pytest.raises(ScenarioError, match="horiz_dist"):
            Scenario(
                source=[0, 0, 0], n_sensors=2, gamma=2.0,
                horiz_dist=[-1.0, 5.0], vert_dist=[0.0, 0.0], noise_std=[1.0, 1.0],
            )

    def test_rejects_bad_beta_max(self):
        with pytest.raises(ScenarioError, match="beta_max"):
            small_scenario(beta_max=7.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_sensors", 8.9),  # would run 8 sensors
            ("n_sensors", "8"),
            ("n_sensors", True),
            ("gamma", True),
            ("gamma", "2"),
            ("gamma", 0.0),
            ("gamma", -2.0),
            # slope^2 overflows to inf or underflows to 0
            ("gamma", 1e308),
            ("gamma", 1e160),
            ("gamma", 1e-200),
            ("source", [math.nan, 0.0, 0.0]),
            ("horiz_dist", np.ones(3)),  # case_a has 8 sensors
            ("vert_dist", np.full(8, math.inf)),
            ("noise_std", np.ones(9)),
            # sigma^2 / m underflows, so its inverse overflows to inf
            ("noise_std", np.array([1e-154] + [2.0] * 7)),
            # sigma^2 overflows, so its inverse is 0
            ("noise_std", np.full(8, 1e200)),
            # each inverse variance is finite, their sum overflows
            ("noise_std", np.full(8, 3e-154)),
            ("samples_per_position", True),
            ("samples_per_position", "10"),
            ("beta_max", True),  # would be a 1 rad arc
            ("beta_max", "1"),
            ("beta_max", None),
            ("beta_max", np.array([1.0, 2.0])),
        ],
    )
    def test_number_rules_name_the_field(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            replace(case_a(), **{field: value})

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("horiz_dist", -1.0, r"^horiz_dist\[2\]: must be > 0$"),
            ("horiz_dist", 0.0, r"^horiz_dist\[2\]: must be > 0$"),
            ("vert_dist", -0.5, r"^vert_dist\[2\]: must be >= 0$"),
            ("noise_std", 0.0, r"^noise_std\[2\]: must be > 0$"),
        ],
    )
    def test_sign_rule_names_the_first_bad_sensor(self, field, bad, message):
        values = getattr(case_b(4), field).copy()
        values[2:] = bad
        with pytest.raises(ScenarioError, match=message):
            replace(case_b(4), **{field: values})

    @pytest.mark.parametrize("gamma", [2, np.int64(2), np.float32(2.0), Fraction(2)])
    def test_gamma_is_kept_as_the_float_its_rule_returns(self, gamma):
        # the scenario holds the float of the rule, so it hashes and
        # serializes as the scenario with gamma = 2.0 does
        sc = replace(case_a(), gamma=gamma)
        assert type(sc.gamma) is float and sc.gamma == 2.0
        assert scenario_hash(sc) == scenario_hash(case_a())


class TestSourceParams:
    @pytest.mark.parametrize(
        "p0, position", [(math.nan, [0.0, 0.0]), (0.0, [math.inf, 0.0]), (0.0, [0.0, math.nan])]
    )
    def test_rejects_a_non_finite_value(self, p0, position):
        with pytest.raises(ScenarioError, match="^source parameters must be finite"):
            SourceParams(p0=p0, position=position)


class TestBundledBuilders:
    @pytest.mark.parametrize(
        "builder, value, message",
        [
            (case_a, 8.0, "^n_sensors: must be an integer >= 2"),
            (case_a, True, "^n_sensors: must be an integer >= 2"),  # not "must be even"
            (case_a, 7, "^n_sensors: case_a needs an even count"),
            (case_a, 0, "^n_sensors: must be an integer >= 2"),
            (case_b, 8.5, "^n_sensors: must be an integer >= 1"),
            (case_b, "8", "^n_sensors: must be an integer >= 1"),
            (case_b, 0, "^n_sensors: must be an integer >= 1"),
        ],
    )
    def test_count_rule_names_n_sensors(self, builder, value, message):
        with pytest.raises(ScenarioError, match=message):
            builder(value)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_shared_fields_and_noise_layouts(self, n):
        a, b = case_a(n), case_b(n)
        assert a.noise_std.tobytes() == np.sqrt([8.0] * (n // 2) + [2.0] * (n // 2)).tobytes()
        assert b.noise_std.tobytes() == np.full(n, 2.0).tobytes()
        for sc in (a, b):
            assert sc.n_sensors == n and sc.gamma == 2.0 and sc.samples_per_position == 10
            assert not sc.source.any()
            assert (sc.horiz_dist == 1000.0).all() and (sc.vert_dist == 100.0).all()


class TestNumberRules:
    def test_accepted_values_keep_their_bits(self):
        count = as_count(np.int64(5), "n")
        assert type(count) is int and count == 5
        for value in (np.float32(0.1), 10, np.int64(7), Fraction(1, 3), 1e308):
            got = as_real(value, "x")
            assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [-1, True, 2.0, "3", None, np.float64(4.0)])
    def test_count_rule_rejects(self, value):
        with pytest.raises(ScenarioError, match="^count: must be an integer >= 0"):
            as_count(value, "count")

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), math.nan, -math.inf, True, "1", None, np.float64(-1.0)]
    )
    def test_real_rule_rejects(self, value):
        with pytest.raises(ScenarioError, match="^x: must be a finite number >= -0.5"):
            as_real(value, "x", -0.5)


# Every site that takes a spread bound, each returning the bound it kept.
# uniform_init(2, b) places its first sensor at exactly b / 2.
SPREAD_BOUND_SITES = {
    "Scenario": lambda b: small_scenario(beta_max=b).beta_max,
    "uniform_init": lambda b: 2.0 * uniform_init(2, b).angles[0],
    "g0_bound": lambda b: g0_bound(b).beta_max,
}


class TestSpreadBound:
    @pytest.mark.parametrize("site", SPREAD_BOUND_SITES)
    @pytest.mark.parametrize(
        "beta_max, kept",
        [(1e-9, 1e-9), (math.pi, math.pi), (TWO_PI, TWO_PI), (TWO_PI + 1e-12, TWO_PI)],
    )
    def test_accepted_and_clamped(self, site, beta_max, kept):
        assert SPREAD_BOUND_SITES[site](beta_max) == kept

    @pytest.mark.parametrize("site", SPREAD_BOUND_SITES)
    @pytest.mark.parametrize(
        "beta_max",
        [0.0, -0.1, math.nan, math.inf, TWO_PI + 1e-9, True, "1", None, np.array([1.0, 2.0])],
    )
    def test_rejected_naming_beta_max(self, site, beta_max):
        with pytest.raises(ScenarioError, match=r"beta_max: must lie in \(0, 2\*pi\]"):
            SPREAD_BOUND_SITES[site](beta_max)

    def test_rejects_nonzero_source_height(self):
        with pytest.raises(ScenarioError, match="height"):
            Scenario(
                source=[0, 0, 5.0], n_sensors=2, gamma=2.0,
                horiz_dist=[1.0, 1.0], vert_dist=[0.0, 0.0], noise_std=[1.0, 1.0],
            )

    def test_effective_variance(self):
        sc = small_scenario(sigma=[2.0, 2.0, 1.0, 1.0], m=10)
        np.testing.assert_allclose(sc.effective_var, [0.4, 0.4, 0.1, 0.1], atol=1e-15)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        sc = case_a(beta_max=math.radians(200.0))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario_to_dict(sc), indent=2) + "\n")
        back = load_scenario(path)
        assert back.n_sensors == sc.n_sensors
        assert back.variant == "rssd"
        np.testing.assert_allclose(back.noise_std, sc.noise_std, rtol=1e-15)
        assert back.beta_max == pytest.approx(sc.beta_max, abs=1e-12)

    @pytest.mark.parametrize("variant", [None, "rssd", "RSSD"])
    def test_the_one_variant_loads_absent_or_named(self, variant):
        data = scenario_to_dict(case_b())
        assert data["variant"] == "rssd"
        if variant is None:
            del data["variant"]
        else:
            data["variant"] = variant
        sc = scenario_from_dict(data)
        assert sc.variant == "rssd"
        assert scenario_hash(sc) == scenario_hash(case_b())

    def test_degrees_in_config_radians_inside(self, tmp_path):
        data = scenario_to_dict(case_b())
        data["beta_max_deg"] = 90.0
        sc = scenario_from_dict(data)
        assert sc.beta_max == pytest.approx(math.pi / 2, abs=1e-12)

    def test_bad_beta_max_reports_field(self):
        data = scenario_to_dict(case_b())
        data["beta_max_deg"] = 400.0
        with pytest.raises(ScenarioError, match="beta_max_deg"):
            scenario_from_dict(data)

    def test_two_coordinate_source_gets_zero_height(self):
        data = scenario_to_dict(case_b())
        data["source"] = [3.0, -4.0]
        assert scenario_from_dict(data).source.tolist() == [3.0, -4.0, 0.0]

    def test_bad_sensor_entry_reports_index(self):
        data = scenario_to_dict(case_b())
        del data["sensors"][3]["sigma"]
        with pytest.raises(ScenarioError, match=r"sensors\[3\]"):
            scenario_from_dict(data)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"source": [0,0,0],\n  "gamma": oops}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_case_builders_match_shipped_files(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        for name, builder in [("caseA.json", case_a), ("caseB.json", case_b)]:
            shipped = json.loads((root / name).read_text())
            assert shipped == scenario_to_dict(builder())
