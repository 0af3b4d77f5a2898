"""Geometry, measurement model, and scenario serialization tests."""

import json
import math

import numpy as np
import pytest

from rssdgeom.model import (
    Placement,
    Scenario,
    ScenarioError,
    SourceParams,
    Variant,
    angle_to_direction,
    case_a,
    case_b,
    direction_to_angle,
    load_scenario,
    mean_rss,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sensor_position,
    sensor_positions,
    simulate_measurements,
    slant_distance,
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


class TestSlantDistance:
    def test_flat_equals_horizontal(self):
        assert slant_distance(100.0, 0.0) == 100.0

    def test_pythagorean_triple(self):
        assert slant_distance(3.0, 4.0) == pytest.approx(5.0, abs=1e-12)

    def test_benchmark_defaults(self):
        assert slant_distance(1000.0, 100.0) == pytest.approx(1004.987562112089, abs=1e-9)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            slant_distance(0.0, 10.0)
        with pytest.raises(ValueError):
            slant_distance(-3.0, 4.0)

    def test_dominates_both_legs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = rng.uniform(1e-3, 1e4)
            h = rng.uniform(0, 1e4)
            d = slant_distance(r, h)
            assert d >= max(r, h)


class TestSensorPosition:
    def test_zero_angle_points_north(self):
        sc = small_scenario()
        pos = sensor_position(sc, 0, 0.0)
        np.testing.assert_allclose(pos, [0.0, 1000.0, 100.0], atol=1e-12)

    def test_quarter_turn_points_east(self):
        sc = small_scenario()
        pos = sensor_position(sc, 0, math.pi / 2)
        np.testing.assert_allclose(pos, [1000.0, 0.0, 100.0], atol=1e-9)

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
        for _ in range(500):
            beta = rng.uniform(0, TWO_PI)
            i = int(rng.integers(0, 2))
            pos = sensor_position(sc, i, beta)
            # tan(beta) = dx / dy relative to the source
            back = wrap_angle(math.atan2(pos[0] - sc.source[0], pos[1] - sc.source[1]))
            assert back == pytest.approx(wrap_angle(beta), abs=1e-12)
            d = np.linalg.norm(pos - sc.source)
            expected = math.hypot(sc.horiz_dist[i], sc.vert_dist[i])
            assert d == pytest.approx(expected, rel=1e-12)

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
        want = np.stack([sensor_position(sc, i, b) for i, b in enumerate(placement.angles)])
        assert sensor_positions(sc, placement).tobytes() == want.tobytes()

    def test_index_out_of_range(self):
        sc = small_scenario()
        with pytest.raises(IndexError):
            sensor_position(sc, 4, 0.0)
        with pytest.raises(IndexError):
            sensor_position(sc, -1, 0.0)


class TestMeanRss:
    def test_unit_distance_returns_reference(self):
        assert mean_rss(30.0, 2.0, 1.0) == 30.0

    def test_one_decade_loss(self):
        assert mean_rss(30.0, 2.0, 10.0) == pytest.approx(10.0, abs=1e-12)

    def test_benchmark_distance(self):
        # frozen: -20*log10(1004.987562112089)
        assert mean_rss(0.0, 2.0, 1004.987562112089) == pytest.approx(
            -60.043213737826434, abs=1e-9
        )

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            mean_rss(0.0, 2.0, 0.0)


class TestAngleDirection:
    def test_cardinal_directions(self):
        np.testing.assert_allclose(angle_to_direction(0.0), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(angle_to_direction(math.pi / 2), [0.0, 1.0], atol=1e-15)

    def test_third_quadrant_wrap(self):
        g = np.array([-math.sqrt(2) / 2, -math.sqrt(2) / 2])
        assert direction_to_angle(g) == pytest.approx(5 * math.pi / 4, abs=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(2)
        for beta in rng.uniform(0, TWO_PI, 1000):
            back = direction_to_angle(angle_to_direction(beta))
            assert back == pytest.approx(beta, abs=1e-12)

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError):
            direction_to_angle([0.5, 0.5])


class TestPlacement:
    def test_angles_normalized(self):
        p = Placement.from_angles([TWO_PI, -math.pi / 2, 3 * TWO_PI + 0.25])
        np.testing.assert_allclose(p.angles, [0.0, 1.5 * math.pi, 0.25], atol=1e-12)

    def test_array_wrap_equals_scalar_wrap_bitwise(self):
        rng = np.random.default_rng(4)
        edge = [0.0, -0.0, -1e-20, -1e-300, TWO_PI, -TWO_PI, TWO_PI - 1e-16, 3 * TWO_PI, math.nan]
        beta = np.concatenate([rng.uniform(-30.0, 30.0, 500), edge])
        want = np.array([wrap_angle(b) for b in beta])
        assert wrap_angles(beta).tobytes() == want.tobytes()
        assert Placement.from_angles(beta).angles.tobytes() == want.tobytes()

    def test_directions_unit_rows(self):
        p = Placement.from_angles(np.linspace(0, 6, 13))
        np.testing.assert_allclose(np.linalg.norm(p.directions, axis=1), 1.0, atol=1e-12)


class TestSimulateMeasurements:
    def test_vanishing_noise_limit(self):
        sc = small_scenario(sigma=np.full(4, 1e-12), m=10)
        pl = Placement.from_angles([0.1, 0.9, 2.0, 4.0])
        truth = SourceParams(p0=25.0, position=[0.0, 0.0])
        got = simulate_measurements(sc, pl, truth, seed=7)
        d = math.hypot(1000.0, 100.0)
        expect = mean_rss(25.0, 2.0, d)
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
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.n_sensors == sc.n_sensors
        assert back.variant is Variant.RSSD
        np.testing.assert_allclose(back.noise_std, sc.noise_std, rtol=1e-15)
        assert back.beta_max == pytest.approx(sc.beta_max, abs=1e-12)

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
