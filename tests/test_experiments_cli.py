"""Experiment harness and CLI tests: CSV formats, audits, exit codes."""

import argparse
import hashlib
import json
import math
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from rssdgeom import admm, experiments
from rssdgeom.admm import AdmmOptions, AdmmTrace, optimize, optimize_many, uniform_init
from rssdgeom import cli
from rssdgeom.cli import main
from rssdgeom.estimator import mle_estimate
from rssdgeom.experiments import (
    HEADERS,
    resize_sensors,
    run_convergence,
    run_optimize,
    run_practical,
    run_sweep_angle,
    run_sweep_n,
    validate_scenario,
    write_csv,
)
from rssdgeom.fim import fim_full
from rssdgeom.model import (
    Placement,
    ScenarioError,
    SourceParams,
    case_a,
    case_b,
    load_scenario,
    scenario_to_dict,
)
from test_admm import collinear_uniform_swarm, reference_optimize

REPO = pathlib.Path(__file__).resolve().parents[1]
CASE_A = REPO / "scenarios" / "caseA.json"
CASE_B = REPO / "scenarios" / "caseB.json"


def placement_from_field(text):
    """The placement written in a placement_deg field."""
    return Placement.from_angles([math.radians(float(s)) for s in text.split(";")])


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rssdgeom.cli", *args],
        capture_output=True,
        text=True,
    )


class TestConvergenceMode:
    def test_rows_and_header(self, tmp_path):
        sc = case_a()
        result = run_convergence(sc, [math.radians(120.0)], seed=3)
        assert HEADERS[result.mode][:5] == [
            "beta_max_deg", "iter", "lb_rmse_m", "objective", "inner_iters",
        ]
        assert result.rows[0]["iter"] == 0
        assert result.converged_all
        path = tmp_path / "conv.csv"
        write_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(HEADERS[result.mode])
        assert len(lines) == len(result.rows) + 1

    def test_iteration_zero_is_uniform(self):
        sc = case_a()
        result = run_convergence(sc, [math.radians(200.0)])
        first = result.rows[0]
        placement = placement_from_field(first["placement_deg"])
        expect = 200.0 * np.arange(1, 9) / 8
        np.testing.assert_allclose(np.degrees(placement.angles), expect, atol=1e-6)
        summary = fim_full(sc, placement, SourceParams(0.0, sc.source[:2]))
        assert first["lb_rmse_m"] == summary.lb_rmse

    def test_round_trip_audit(self):
        # every row's placement must reproduce the row's LB-RMSE when scored
        # again (placement is quantized to 1e-6 degrees in the CSV)
        sc = case_b()
        result = run_convergence(sc, [math.radians(120.0), math.radians(280.0)])
        src = SourceParams(0.0, sc.source[:2])
        for row in result.rows:
            import dataclasses
            sc_row = dataclasses.replace(sc, beta_max=math.radians(row["beta_max_deg"]))
            placement = placement_from_field(row["placement_deg"])
            again = fim_full(sc_row, placement, src).lb_rmse
            assert again == pytest.approx(row["lb_rmse_m"], rel=1e-5)


class TestReportedScores:
    def test_rows_score_their_own_placement(self):
        # lb_rmse_opt_m (the practical aggregate row: lb_rmse_theoretical_m)
        # must be the score of the placement written in the same row; case B
        # at 60 degrees and case A with 8 sensors at 120 degrees pass through
        # iterates with a lower LB-RMSE than the returned det-T maximizer
        sc_a, sc_b60 = case_a(), case_b(beta_max=math.radians(60.0))
        src = SourceParams(0.0, sc_a.source[:2])
        arcs = [math.radians(120.0), math.radians(200.0)]
        checks = []
        for row in run_optimize(sc_b60).rows:
            checks.append((sc_b60, row["placement_deg"], row["lb_rmse_opt_m"]))
        for row in run_sweep_n(sc_a, [4, 8], arcs).rows:
            sc = replace(resize_sensors(sc_a, row["n"]), beta_max=math.radians(row["beta_max_deg"]))
            checks.append((sc, row["placement_deg"], row["lb_rmse_opt_m"]))
        for row in run_sweep_angle(case_b(), [math.radians(60.0), math.radians(105.0)]).rows:
            sc = case_b(beta_max=math.radians(row["beta_max_deg"]))
            checks.append((sc, row["placement_deg"], row["lb_rmse_opt_m"]))
        agg = run_practical(sc_b60, prior_std=50.0, trials=1, refine=False).rows[-1]
        assert agg["trial"] == -1
        checks.append((sc_b60, agg["placement_deg"], agg["lb_rmse_theoretical_m"]))
        for sc, field, reported in checks:
            again = fim_full(sc, placement_from_field(field), src).lb_rmse
            assert again == pytest.approx(reported, rel=1e-6), (sc.n_sensors, sc.beta_max)


def cli_arcs(text):
    """The spread bounds (radians) of a comma list of degrees, as the CLI parses them."""
    return [math.radians(float(d)) for d in text.split(",")]


class TestScenarioHash:
    """Every row hashes the design it describes: the input scenario with its arc."""

    @pytest.mark.parametrize(
        "run, template, arcs",
        [
            (run_sweep_angle, case_b(), cli.DEFAULT_ANGLE_GRID_DEG),
            (run_convergence, case_a(), cli.DEFAULT_ANGLES_DEG),
        ],
        ids=["sweep-angle", "convergence"],
    )
    def test_rows_hash_their_own_arc(self, run, template, arcs):
        rows = run(template, cli_arcs(arcs)).rows
        for row in rows:
            design = replace(template, beta_max=math.radians(row["beta_max_deg"]))
            assert row["scenario_hash"] == experiments.scenario_hash(design)
        full = [row["scenario_hash"] for row in rows if row["beta_max_deg"] == 360.0]
        assert full and set(full) == {experiments.scenario_hash(template)}
        assert len({row["scenario_hash"] for row in rows}) == len(arcs.split(","))

    def test_convergence_hashes_each_design_once(self, monkeypatch):
        scenario_hash = experiments.scenario_hash
        hashed = []

        def counting_hash(scenario):
            hashed.append(scenario.beta_max)
            return scenario_hash(scenario)

        monkeypatch.setattr(experiments, "scenario_hash", counting_hash)
        arcs = cli_arcs(cli.DEFAULT_ANGLES_DEG)
        result = run_convergence(case_a(), arcs)
        assert hashed == arcs
        assert len(result.rows) > 4 * len(arcs)

    @pytest.mark.parametrize(
        "scenario, expected",
        [
            (load_scenario(CASE_A), "fa19f2860532"),
            (load_scenario(CASE_B), "451c83de8b4a"),
            (resize_sensors(case_a(), 5), None),
            (replace(case_b(), beta_max=math.radians(75.0)), None),
            (replace(case_b(), gamma=2), None),
        ],
        ids=["caseA", "caseB", "resized", "beta", "int-gamma"],
    )
    def test_digest_is_hashlib_sha256_of_the_canonical_json(self, scenario, expected):
        canon = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
        assert experiments.scenario_hash(scenario) == digest
        assert expected is None or digest == expected


def loads_openssl(code):
    """Whether a fresh interpreter has OpenSSL's _hashlib loaded after running code."""
    check = code + "\nimport sys\nprint('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


class TestFootprint:
    """The design modes never load OpenSSL: scenario_hash takes CPython's own SHA-256."""

    def test_design_modes_never_load_openssl(self, tmp_path):
        if loads_openssl("import numpy"):
            pytest.skip("importing numpy alone loads _hashlib (NumPy 1.x imports numpy.random)")
        out = tmp_path / "out.csv"
        runs = [  # (argv, exit code): the capped optimize run exits 3
            (["validate", "--scenario", CASE_A], 0),
            (["validate", "--scenario", CASE_B], 0),
            (["optimize", "--scenario", CASE_A, "--max-outer", "2", "--out", out], 3),
            (["convergence", "--scenario", CASE_B, "--out", out], 0),
            (["sweep-n", "--scenario", CASE_A, "--out", out], 0),
            (["sweep-angle", "--scenario", CASE_B, "--out", out], 0),
        ]
        code = f"""
import sys
from rssdgeom import cli
for argv, want in {[([str(a) for a in argv], want) for argv, want in runs]!r}:
    assert cli.main(argv) == want, argv[0]
    assert "_hashlib" not in sys.modules, argv[0]
"""
        assert not loads_openssl(code)


def serial_optimize_many(designs, options=None):
    """optimize_many built from the serial reference optimize, one design at a time."""
    results = []
    for sc in designs:
        placement, records, converged, outer_iters, mean_inner, best, reason = reference_optimize(
            sc, options
        )
        trace = AdmmTrace(records, best, records[0].lb_rmse + 1e-9, reason)
        assert trace.converged == converged
        assert trace.outer_iters == outer_iters
        assert trace.mean_inner == mean_inner
        results.append((placement, trace))
    return results


class TestLockstepCsvs:
    @pytest.mark.parametrize(
        "mode, scenario", [("convergence", CASE_A), ("sweep-n", CASE_A), ("sweep-angle", CASE_B)]
    )
    def test_same_bytes_as_serial_reference(self, tmp_path, monkeypatch, mode, scenario):
        # compared in one process: NumPy builds may differ in the last bit,
        # so stored digests would not carry across machines
        lockstep, serial = tmp_path / "lockstep.csv", tmp_path / "serial.csv"
        assert main([mode, "--scenario", str(scenario), "--out", str(lockstep)]) == 0
        monkeypatch.setattr(experiments, "optimize_many", serial_optimize_many)
        assert main([mode, "--scenario", str(scenario), "--out", str(serial)]) == 0
        assert lockstep.read_bytes() == serial.read_bytes()


def replay_best(trace):
    """The record the best-record rule picks from trace.records under trace.lb_budget."""
    best = trace.records[0]
    for rec in trace.records[1:]:
        if rec.det_t > best.det_t and rec.lb_rmse <= trace.lb_budget:
            best = rec
    return best


class TestBestRecordRule:
    @pytest.mark.parametrize("mode", ["optimize", "convergence", "sweep-n", "sweep-angle"])
    @pytest.mark.parametrize("scenario", [CASE_A, CASE_B])
    def test_best_is_the_largest_det_t_within_the_budget(
        self, tmp_path, monkeypatch, mode, scenario
    ):
        traces = []

        def capture(designs, options=None):
            results = optimize_many(designs, options)
            traces.extend(trace for _, trace in results)
            return results

        # optimize reaches optimize_many through admm's own name
        monkeypatch.setattr(admm, "optimize_many", capture)
        monkeypatch.setattr(experiments, "optimize_many", capture)
        assert main([mode, "--scenario", str(scenario), "--out", str(tmp_path / "out.csv")]) == 0
        assert traces
        for trace in traces:
            assert trace.lb_budget == trace.records[0].lb_rmse + 1e-9
            assert trace.best.lb_rmse <= trace.lb_budget
            # the best record carries its certified re-score, which may move
            # det T in the last bits against the other records' scores
            picked = replay_best(trace)
            assert picked is trace.best or picked.det_t == pytest.approx(
                trace.best.det_t, rel=1e-12
            )


class TestSweepNOneBatch:
    # one sweep-n call pads every size to one lockstep group; a call per
    # size runs each unpadded, and the written rows agree byte for byte
    @pytest.mark.parametrize(
        "n_list, arcs", [(cli.DEFAULT_N_LIST, cli.DEFAULT_ANGLES_DEG), ("3,5,16", "90,250")]
    )
    def test_same_rows_as_one_call_per_size(self, tmp_path, n_list, arcs):
        def rows(sizes, out):
            argv = ["sweep-n", "--scenario", str(CASE_A), "--n-list", sizes,
                    "--beta-max-deg", arcs, "--out", str(out)]
            assert main(argv) == 0
            return out.read_text().splitlines()

        together = rows(n_list, tmp_path / "together.csv")
        header, per_size = together[0], []
        for n in n_list.split(","):
            alone = rows(n, tmp_path / f"n{n}.csv")
            assert alone[0] == header
            per_size += alone[1:]
        assert together[1:] == per_size


def one_at_a_time_mle_many(measurements, positions, sigma_eff, gamma, inits, prior_std):
    """mle_estimate_many as one mle_estimate call per problem."""
    return [
        mle_estimate(m, p, sigma_eff, gamma, init, prior_std=prior_std)
        for m, p, init in zip(measurements, positions, inits)
    ]


class TestPracticalLockstepCsvs:
    # 342 trials of 3 starts span two blocks of at most 1024 start rows
    @pytest.mark.parametrize("scenario", [CASE_A, CASE_B])
    @pytest.mark.parametrize("trials", [1, 21, 342])
    @pytest.mark.parametrize("prior_std", ["0", "111.80339887498948"])
    def test_same_bytes_as_one_trial_at_a_time(
        self, tmp_path, monkeypatch, scenario, trials, prior_std
    ):
        argv = ["practical", "--scenario", str(scenario), "--trials", str(trials),
                "--seed", "7", "--prior-std", prior_std]
        lockstep, serial = tmp_path / "lockstep.csv", tmp_path / "serial.csv"
        assert main([*argv, "--out", str(lockstep)]) == 0
        monkeypatch.setattr(experiments, "mle_estimate_many", one_at_a_time_mle_many)
        assert main([*argv, "--out", str(serial)]) == 0
        assert lockstep.read_bytes() == serial.read_bytes()


class TestSweepN:
    def test_resize_preserves_two_level_noise(self):
        bigger = resize_sensors(case_a(), 12)
        var = bigger.noise_std**2
        np.testing.assert_allclose(var, [8.0] * 6 + [2.0] * 6, rtol=1e-12)

    @pytest.mark.parametrize(
        "n, variances",
        [(3, [8.0] * 2 + [2.0]), (5, [8.0] * 3 + [2.0] * 2), (9, [8.0] * 5 + [2.0] * 4)],
    )
    def test_odd_sizes_keep_each_noise_class_share(self, n, variances):
        # sensor i takes template sensor i * 8 // n: each class keeps as near
        # half of the swarm as n allows, the noisier class first
        resized = resize_sensors(case_a(), n)
        np.testing.assert_allclose(resized.noise_std**2, variances, rtol=1e-12)

    def test_three_level_template_keeps_its_order_and_shares(self):
        template = replace(
            case_a(),
            n_sensors=3,
            horiz_dist=np.array([900.0, 1000.0, 1100.0]),
            vert_dist=np.array([50.0, 100.0, 150.0]),
            noise_std=np.array([1.0, 2.0, 3.0]),
        )
        resized = resize_sensors(template, 6)
        assert resized.noise_std.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert resized.horiz_dist.tolist() == [900.0, 900.0, 1000.0, 1000.0, 1100.0, 1100.0]
        assert resized.vert_dist.tolist() == [50.0, 50.0, 100.0, 100.0, 150.0, 150.0]

    @pytest.mark.parametrize("make_scenario", [case_a, case_b])
    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 64])
    def test_even_sizes_split_the_template_in_half(self, make_scenario, n):
        # an even size of a two-level template, or of a constant one, gets
        # the first half's value on its first half and the second's on the rest
        template = make_scenario()
        resized = resize_sensors(template, n)
        for field in ("horiz_dist", "vert_dist", "noise_std"):
            vec = getattr(template, field)
            want = np.array([vec[0]] * (n // 2) + [vec[len(vec) // 2]] * (n // 2))
            assert getattr(resized, field).tobytes() == want.tobytes(), field

    def test_optimized_beats_uniform_and_decreases_with_n(self):
        result = run_sweep_n(case_a(), [4, 8, 12], [math.radians(120.0)])
        rows = result.rows
        for row in rows:
            assert row["lb_rmse_opt_m"] <= row["lb_rmse_uniform_m"] + 1e-9
        for prev, cur in zip(rows, rows[1:]):
            assert cur["lb_rmse_uniform_m"] < prev["lb_rmse_uniform_m"]
            assert cur["lb_rmse_opt_m"] < prev["lb_rmse_opt_m"]

    def test_rejects_tiny_n(self):
        with pytest.raises(ScenarioError, match="at least 3"):
            run_sweep_n(case_a(), [2], [math.radians(120.0)])

    def test_rejects_non_integral_n(self):
        # int(4.7) would silently run N = 4
        with pytest.raises(ScenarioError, match="integer"):
            run_sweep_n(case_a(), [4.7], [math.radians(120.0)])

    def test_no_improvement_against_an_infinite_uniform_bound(self, tmp_path):
        # on 90 degrees the uniform points of this swarm are collinear, so
        # the uniform start has an infinite bound; a finite design is no
        # 100 % gain over it
        result = run_sweep_n(collinear_uniform_swarm(), [3], [math.radians(d) for d in (90, 120)])
        full, arc = result.rows
        assert full["lb_rmse_uniform_m"] == math.inf
        assert math.isfinite(full["lb_rmse_opt_m"])
        assert math.isnan(full["improvement_pct"])
        assert math.isfinite(arc["lb_rmse_uniform_m"])
        want = 100.0 * (1.0 - arc["lb_rmse_opt_m"] / arc["lb_rmse_uniform_m"])
        assert arc["improvement_pct"] == want
        out = tmp_path / "sweep.csv"
        write_csv(result, out)
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("improvement_pct")
        assert lines[1].split(",")[column] == "nan"


class TestSweepAngle:
    def test_optimized_never_worse(self):
        grid = [math.radians(d) for d in (90.0, 180.0, 270.0, 360.0)]
        result = run_sweep_angle(case_b(), grid)
        for row in result.rows:
            assert row["lb_rmse_opt_m"] <= row["lb_rmse_uniform_m"] + 1e-9
            assert row["improvement_pct"] >= -1e-9


class TestDeterminism:
    """Identical calls return equal results: a RunResult holds only what the run computed."""

    def test_sweep_angle_results_equal(self):
        grid = [math.radians(b) for b in (90.0, 200.0, 360.0)]
        assert run_sweep_angle(case_a(), grid, seed=4) == run_sweep_angle(case_a(), grid, seed=4)

    @pytest.mark.parametrize("refine", [True, False])
    def test_practical_results_equal(self, refine):
        def run():
            return run_practical(case_a(), prior_std=50.0, trials=4, seed=11, refine=refine)

        first, second = run(), run()
        assert first == second
        assert math.isfinite(first.rows[-1]["empirical_rmse_m"]) == refine


class TestPractical:
    def test_zero_prior_error_matches_theoretical(self):
        result = run_practical(case_a(), prior_std=0.0, trials=3, refine=False)
        for row in result.rows[:-1]:
            assert row["lb_rmse_practical_m"] == pytest.approx(
                row["lb_rmse_theoretical_m"], rel=1e-12
            )

    def test_aggregate_row_and_determinism(self):
        res1 = run_practical(case_a(), prior_std=math.sqrt(12500.0), trials=5, seed=9)
        res2 = run_practical(case_a(), prior_std=math.sqrt(12500.0), trials=5, seed=9)
        assert res1.rows[-1]["trial"] == -1
        for a, b in zip(res1.rows, res2.rows):
            assert a == b

    def test_designs_once_for_every_prior(self, monkeypatch):
        optimize = experiments.optimize
        calls = []

        def counting_optimize(*args, **kwargs):
            calls.append(args)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(experiments, "optimize", counting_optimize)
        result = run_practical(case_a(), prior_std=50.0, trials=5)
        assert len(calls) == 1
        aggregate = result.rows[-1]["placement_deg"]
        assert [row["placement_deg"] for row in result.rows[:-1]] == [aggregate] * 5

    @pytest.mark.parametrize(
        "prior_std, trials, named",
        [
            (math.nan, 2, "prior_std"),
            (math.inf, 2, "prior_std"),
            (50.0, 2.5, "trials"),
            (50.0, 2.0, "trials"),
            (50.0, True, "trials"),
            (True, 2, "prior_std"),
            ("50", 2, "prior_std"),
            (50.0, 2, "seed"),  # with seed -1
        ],
    )
    def test_rejects_bad_arguments(self, prior_std, trials, named):
        seed = -1 if named == "seed" else 0
        with pytest.raises(ScenarioError, match=named):
            run_practical(case_a(), prior_std, trials=trials, seed=seed, refine=False)

    @pytest.mark.parametrize("make_scenario", [case_a, case_b])
    @pytest.mark.parametrize("trials", [1, 21, 45])
    @pytest.mark.parametrize("prior_std", [0.0, 111.8, 20000.0])
    def test_one_scoring_pass_equals_fim_full_per_trial(self, make_scenario, trials, prior_std):
        sc = make_scenario()
        result = run_practical(sc, prior_std, trials=trials, seed=5, refine=False)
        placement, _ = optimize(sc)  # the design run_practical flies
        truth = SourceParams(0.0, sc.source[:2])
        for row in result.rows[:-1]:
            moved = sc.with_source([row["prior_x_m"], row["prior_y_m"]])
            assert row["lb_rmse_practical_m"] == fim_full(moved, placement, truth).lb_rmse

    def test_practical_lb_close_to_theoretical(self):
        result = run_practical(
            case_a(), prior_std=math.sqrt(12500.0), trials=20, seed=1, refine=False
        )
        agg = result.rows[-1]
        assert agg["lb_rmse_practical_m"] == pytest.approx(
            agg["lb_rmse_theoretical_m"], rel=0.10
        )

    def test_rssd_refinement_reaches_its_bound(self):
        # the estimator and the bound share the unknown-power model, so on
        # caseA at 200 degrees, priors exact, 100 trials and seeds 0-2, the
        # bound holds within 25 %
        sc = case_a(beta_max=math.radians(200.0))
        for seed in (0, 1, 2):
            agg = run_practical(sc, 0.0, 100, seed=seed).rows[-1]
            assert agg["empirical_rmse_m"] <= 1.25 * agg["lb_rmse_practical_m"]

    @pytest.mark.parametrize("prior_std", [10**400, -(10**400)])
    def test_rejects_a_prior_std_beyond_float_range(self, prior_std):
        with pytest.raises(ScenarioError, match="prior_std"):
            run_practical(case_a(), prior_std, 2, refine=False)


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, True, 2.0, "0"])
    def test_optimize_rejects_a_seed_that_is_not_a_count(self, seed):
        with pytest.raises(ScenarioError, match="seed"):
            run_optimize(case_a(), seed=seed)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_optimize(case_a(), seed=-1),
            lambda: run_convergence(case_a(), [math.radians(120.0)], seed=-1),
            lambda: run_sweep_n(case_a(), [4, 8], [math.radians(120.0)], seed=-1),
            lambda: run_sweep_angle(case_b(), [math.radians(d) for d in (60, 120)], seed=-1),
            lambda: run_practical(case_a(), 50.0, 2, seed=-1, refine=False),
        ],
        ids=["optimize", "convergence", "sweep-n", "sweep-angle", "practical"],
    )
    def test_seed_is_checked_before_any_design(self, monkeypatch, run):
        # a bad seed stops the mode before any design work
        calls = []

        def counted(inner):
            def wrapper(*args, **kwargs):
                calls.append(inner.__name__)
                return inner(*args, **kwargs)

            return wrapper

        for name in ("optimize", "optimize_many"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        with pytest.raises(ScenarioError, match="^seed: must be an integer >= 0"):
            run()
        assert calls == []

    @pytest.mark.parametrize("mode", ["optimize", "convergence", "sweep-angle", "sweep-n"])
    def test_every_design_mode_rejects_a_negative_seed(self, tmp_path, capsys, mode):
        out = tmp_path / "x.csv"
        argv = [mode, "--scenario", str(CASE_A), "--seed", "-1", "--max-outer", "5"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_benchmark_a_derived_quantities(self):
        report = validate_scenario(CASE_A)
        assert report.ok
        np.testing.assert_allclose(report.details["weights"], [0.05] * 4 + [0.2] * 4, atol=1e-12)
        assert report.details["mean_inv_var"] == pytest.approx(3.125, rel=1e-12)
        assert report.details["coupling_rank"] == 7
        np.testing.assert_allclose(report.details["g0"], [-1.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize(
        "beta_max_deg, degenerate", [(360.0, False), (1.0, False), (1e-5, True), (1e-6, True)]
    )
    def test_t_condition_at_the_uniform_placement(self, tmp_path, beta_max_deg, degenerate):
        path = tmp_path / "scenario.json"
        path.write_bytes(case_a_with(beta_max_deg=beta_max_deg))
        report = validate_scenario(path)
        sc = replace(case_a(), beta_max=math.radians(beta_max_deg))
        summary = fim_full(sc, uniform_init(8, sc.beta_max), SourceParams(0.0, sc.source[:2]))
        assert summary.degenerate == degenerate
        if degenerate:
            assert report.details["t_condition"] == math.inf
        else:
            lam = np.linalg.eigvalsh(summary.t)
            assert report.details["t_condition"] == pytest.approx(lam[1] / lam[0], rel=1e-6)
            assert report.details["t_condition"] >= 1.0

    def test_t_condition_is_printed(self, capsys):
        assert main(["validate", "--scenario", str(CASE_A)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "T condition" in l)
        assert float(line.split()[2]) == pytest.approx(
            validate_scenario(CASE_A).details["t_condition"], rel=1e-5
        )

    def test_rejects_zero_sigma(self, tmp_path):
        import json
        data = json.loads(CASE_A.read_text())
        data["sensors"][2]["sigma"] = 0.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        report = validate_scenario(bad)
        assert not report.ok
        assert "noise_std[2]" in report.message

    def test_rejects_out_of_range_angle(self, tmp_path):
        import json
        data = json.loads(CASE_A.read_text())
        data["beta_max_deg"] = 400.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        report = validate_scenario(bad)
        assert not report.ok
        assert "beta_max_deg" in report.message


def case_a_with(**fields) -> bytes:
    data = json.loads(CASE_A.read_text())
    data.update(fields)
    return json.dumps(data).encode()


class TestCli:
    @pytest.mark.parametrize(
        "raw, mode, extra, named",
        [
            pytest.param(b'{"gamma": "\xff"}', "validate", [], "cannot read", id="non-utf8"),
            pytest.param(case_a_with(gamma="abc"), "validate", [], "gamma", id="gamma-text"),
            pytest.param(case_a_with(gamma=None), "validate", [], "gamma", id="gamma-null"),
            pytest.param(
                case_a_with(gamma=None), "optimize", [], "gamma", id="gamma-null-optimize",
            ),
            pytest.param(
                case_a_with(samples_per_position="x"), "validate", [], "samples_per_position",
                id="samples-text",
            ),
            pytest.param(
                case_a_with(samples_per_position=2.5), "validate", [], "samples_per_position",
                id="samples-fraction",
            ),
            pytest.param(
                case_a_with(source=[math.inf, 0.0]), "validate", [], "source", id="source-inf",
            ),
            pytest.param(
                case_a_with(sensors=[{"r": 10**400, "h": 100.0, "sigma": 2.0}] * 8),
                "validate", [], "sensors[0]", id="sensor-overflow",
            ),
            pytest.param(
                case_a_with(), "sweep-n", ["--n-list", "4.7", "--beta-max-deg", "120"], "integer",
                id="n-list-fraction",
            ),
            pytest.param(
                case_a_with(), "sweep-n", ["--n-list", ","], "--n-list: expected at least one",
                id="n-list-empty",
            ),
            pytest.param(
                case_a_with(), "sweep-angle", ["--beta-grid-deg", " , "],
                "--beta-grid-deg: expected at least one", id="beta-grid-empty",
            ),
            pytest.param(case_a_with(gamma=0.0), "validate", [], "gamma", id="gamma-zero"),
            pytest.param(case_a_with(gamma=True), "validate", [], "gamma", id="gamma-bool"),
            pytest.param(
                case_a_with(samples_per_position="10"), "validate", [], "samples_per_position",
                id="samples-numeric-text",
            ),
            pytest.param(
                case_a_with(samples_per_position=True), "optimize", [], "samples_per_position",
                id="samples-bool-optimize",
            ),
            pytest.param(
                case_a_with(beta_max_deg="120"), "validate", [], "beta_max_deg",
                id="beta-numeric-text",
            ),
            pytest.param(
                case_a_with(source=[True, "5"]), "validate", [], "source", id="source-bool-text",
            ),
            pytest.param(
                case_a_with(source=[3.0]), "validate", [], "source: expected 2 or 3",
                id="source-one",
            ),
            pytest.param(
                case_a_with(source=[3.0, -4.0, 0.0, 1.0]), "validate", [],
                "source: expected 2 or 3", id="source-four",
            ),
            pytest.param(
                case_a_with(sensors=[]), "optimize", [], "sensors: expected a non-empty",
                id="sensors-empty",
            ),
            pytest.param(
                case_a_with(variant="toa"), "validate", [], "variant", id="variant-unknown",
            ),
            # the known-power RSS model is not one the package designs for
            *[
                pytest.param(
                    case_a_with(variant="rss"), mode, [], "variant", id=f"variant-rss-{mode}"
                )
                for mode in (
                    "validate", "optimize", "convergence", "sweep-n", "sweep-angle", "practical"
                )
            ],
            # an information scale out of float range: sigma^2 / m underflows
            # or slope^2 overflows
            *[
                pytest.param(
                    case_a_with(sensors=[{"r": 1000.0, "h": 100.0, "sigma": 1e-154}]
                                + [{"r": 1000.0, "h": 100.0, "sigma": 2.0}] * 7),
                    mode, [], "noise_std[0]", id=f"sigma-tiny-{mode}",
                )
                for mode in ("validate", "optimize")
            ],
            *[
                pytest.param(case_a_with(gamma=1e308), mode, [], "gamma", id=f"gamma-huge-{mode}")
                for mode in ("validate", "optimize")
            ],
            pytest.param(
                case_a_with(sensors=[{"r": "1000", "h": 100.0, "sigma": 2.0}] * 8),
                "validate", [], "sensors[0].r", id="sensor-r-text",
            ),
            pytest.param(
                case_a_with(sensors=[{"r": 1000.0, "h": "100", "sigma": 2.0}] * 8),
                "validate", [], "sensors[0].h", id="sensor-h-text",
            ),
            pytest.param(
                case_a_with(sensors=[{"r": 1000.0, "h": 100.0, "sigma": True}] * 8),
                "sweep-angle", [], "sensors[0].sigma", id="sensor-sigma-bool",
            ),
            pytest.param(
                case_a_with(), "practical", ["--prior-std", "nan"], "prior_std",
                id="prior-std-nan",
            ),
            pytest.param(
                case_a_with(), "practical", ["--prior-std", "inf"], "prior_std",
                id="prior-std-inf",
            ),
            pytest.param(
                case_a_with(), "practical", ["--seed", "-1"], "seed", id="practical-seed-negative",
            ),
            pytest.param(
                case_a_with(), "practical", ["--prior-std", "1e200", "--trials", "3"],
                "prior_std 1e+200", id="prior-std-overflow",
            ),
            pytest.param(
                case_a_with(), "sweep-n", ["--n-list", "2", "--beta-max-deg", "120"],
                "at least 3", id="sweep-n-rssd-two",
            ),
            pytest.param(
                case_a_with(), "sweep-angle", ["--beta-grid-deg", "0"], "beta_max",
                id="sweep-angle-zero",
            ),
            pytest.param(
                case_a_with(), "sweep-angle", ["--beta-grid-deg", "120,400"], "beta_max",
                id="sweep-angle-400",
            ),
            # every placement on the arc has a singular T: nothing to optimize
            pytest.param(
                case_a_with(), "sweep-angle", ["--beta-grid-deg", "120,1e-6"],
                "beta_max 1e-06 deg is too narrow for 8 sensors", id="sweep-angle-tiny",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_input_exits_2(self, tmp_path, capsys, raw, mode, extra, named):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        argv = [mode, "--scenario", str(path), *extra]
        if mode != "validate":
            argv += ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert named in out.out + out.err

    def test_failed_csv_write_exits_2(self, tmp_path, capsys, monkeypatch):
        def failing(result, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", failing)
        out = tmp_path / "x.csv"
        argv = ["optimize", "--scenario", str(CASE_A), "--max-outer", "5", "--out", str(out)]
        assert main(argv) == 2
        assert "error: --out: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_narrowest_tested_arc_is_accepted(self, tmp_path):
        # 0.001 degrees still has a finite bound, so it runs and is written
        out = tmp_path / "narrow.csv"
        assert main(["sweep-angle", "--scenario", str(CASE_A), "--beta-grid-deg", "0.001",
                     "--out", str(out)]) == 0
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert math.isfinite(float(row["lb_rmse_uniform_m"]))
        assert math.isfinite(float(row["lb_rmse_opt_m"]))

    def test_validate_exit_codes(self, tmp_path):
        ok = run_cli("validate", "--scenario", str(CASE_A))
        assert ok.returncode == 0
        assert "weights" in ok.stdout
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        err = run_cli("validate", "--scenario", str(bad))
        assert err.returncode == 2

    def test_optimize_writes_csv(self, tmp_path):
        out = tmp_path / "opt.csv"
        proc = run_cli("optimize", "--scenario", str(CASE_A), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("beta_max_deg,lb_rmse_uniform_m,lb_rmse_opt_m")
        assert len(lines) == 2

    def test_summary_line_reports_the_run_time(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--scenario", str(CASE_A), "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        pattern = rf"optimize: 1 rows -> {re.escape(str(out))} \(\d+\.\d\ds, converged=yes\)"
        assert re.fullmatch(pattern, line), line

    @pytest.mark.parametrize(
        "mode, extra, want",
        [
            ("optimize", [], {"lb_stall": 1}),
            ("convergence", [], {"lb_stall": 4}),
            ("sweep-n", [], {"lb_stall": 16}),
            ("sweep-angle", [], {"lb_stall": 12, "patience": 2}),
            ("practical", ["--trials", "2"], {"lb_stall": 1}),
        ],
    )
    def test_summary_counts_the_stop_reasons(self, tmp_path, capsys, mode, extra, want):
        # every design mode prints how many of its designs stopped on each
        # rule, on stdout only
        out = tmp_path / "x.csv"
        assert main([mode, "--scenario", str(CASE_B), "--out", str(out), *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"  stop_reasons: {want}"
        assert "stop_reason" not in out.read_text()

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "opt.csv"
        proc = run_cli(
            "optimize", "--scenario", str(CASE_A), "--out", str(out), "--max-outer", "1"
        )
        assert proc.returncode == 3
        assert out.exists()  # results still written
        assert "--max-outer 1;" in proc.stderr
        assert f"the rows were written to {out}" in proc.stderr

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["optimize", "--scenario", str(CASE_A), "--out", str(out)]) == 2
        assert "error: --out:" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [".", "missing/x.csv"])
    def test_bad_out_is_rejected_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        calls = []

        def counting_run_practical(*args, **kwargs):
            calls.append(args)
            return experiments.run_practical(*args, **kwargs)

        monkeypatch.setattr(cli, "run_practical", counting_run_practical)
        argv = ["practical", "--scenario", str(CASE_A), "--trials", "40"]
        assert main([*argv, "--out", str(tmp_path / out)]) == 2
        assert "error: --out:" in capsys.readouterr().err
        assert calls == []
        # the same wrapper sees the run when --out is writable
        assert main([*argv, "--trials", "1", "--out", str(tmp_path / "x.csv")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("flag", ["--rho", "--admm-tol", "--mm-tol"])
    def test_solver_constants_are_not_flags(self, tmp_path, flag):
        argv = ["optimize", "--scenario", str(CASE_A), "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1"])
        assert exc.value.code == 2

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "rssdgeom":
                built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["validate", "--scenario", str(CASE_A)]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "mode, extra, name, lists",
        [
            ("optimize", [], "run_optimize", []),
            ("convergence", ["--beta-max-deg", "90,180"], "run_convergence",
             [[math.pi / 2, math.pi]]),
            ("sweep-n", ["--n-list", "4,6", "--beta-max-deg", "360"], "run_sweep_n",
             [[4, 6], [2 * math.pi]]),
            ("sweep-angle", ["--beta-grid-deg", "45"], "run_sweep_angle", [[math.pi / 4]]),
            ("practical", ["--trials", "3", "--no-refine"], "run_practical", []),
        ],
    )
    def test_each_mode_calls_the_current_run_function(
        self, tmp_path, monkeypatch, mode, extra, name, lists
    ):
        # perfbench/spans.py times a mode by replacing cli.run_*, so main must
        # look the name up when it runs: build the parser first, then replace
        main(["validate", "--scenario", str(CASE_A)])
        calls = []
        for other in ("run_optimize", "run_convergence", "run_sweep_n", "run_sweep_angle",
                      "run_practical"):
            real = getattr(cli, other)

            def recording(*args, _name=other, _real=real, **kwargs):
                calls.append((_name, args, kwargs))
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, other, recording)
        argv = [mode, "--scenario", str(CASE_A), "--seed", "5", *extra]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
        assert [c[0] for c in calls] == [name]
        _, args, kwargs = calls[0]
        assert args[0].n_sensors == 8 and list(args[1:]) == lists
        assert kwargs["seed"] == 5 and kwargs["options"].max_outer == AdmmOptions.max_outer

    def test_config_error_exit_code(self, tmp_path):
        proc = run_cli(
            "convergence", "--scenario", str(CASE_A),
            "--out", str(tmp_path / "x.csv"), "--beta-max-deg", "banana",
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_too_small_swarm_is_a_config_error(self, tmp_path, capsys):
        import json
        data = json.loads(CASE_A.read_text())
        for n in (2, 1):
            data["sensors"] = data["sensors"][:n]
            path = tmp_path / f"n{n}.json"
            path.write_text(json.dumps(data))
            for mode in ("optimize", "practical"):
                code = main([mode, "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
                assert code == 2, (mode, n)
                assert "at least 3 sensors" in capsys.readouterr().err
            report = validate_scenario(path)
            assert not report.ok and "at least 3 sensors" in report.message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_priors_just_inside_the_distance_guard_run(self, tmp_path):
        # priors about 1e154 m off keep the squared sensor distances finite;
        # the refinement and the aggregate RMSE of errors near 1e154 m must
        # then run without an overflow
        out = tmp_path / "far.csv"
        argv = ["practical", "--scenario", str(CASE_A), "--prior-std", "1e154", "--trials", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        col = header.index("empirical_rmse_m")
        errors = [float(row[col]) for row in rows]
        assert all(1e153 < e < 1e155 for e in errors), errors
        assert errors[-1] == pytest.approx(math.hypot(*errors[:-1]) / math.sqrt(3), rel=1e-9)

    def test_seeded_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            proc = run_cli(
                "practical", "--scenario", str(CASE_B), "--out", str(out),
                "--trials", "4", "--seed", "42",
            )
            assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_convergence_defaults(self, tmp_path):
        out = tmp_path / "conv.csv"
        proc = run_cli(
            "convergence", "--scenario", str(CASE_B), "--out", str(out),
            "--beta-max-deg", "120,360",
        )
        assert proc.returncode == 0, proc.stderr
        header = out.read_text().split("\n", 1)[0].split(",")
        assert header[:5] == ["beta_max_deg", "iter", "lb_rmse_m", "objective", "inner_iters"]
