import argparse
import ctypes
import inspect
import json
import logging
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zograd import _lanes, _lanes_build, _lanes_probe, adversarial, core
from zograd.adversarial import AdversarialOracle, HardInstance
from zograd.core import EUCLIDEAN, Box, Norm, OracleEnvelope, RngStream, interval
from zograd.estimators import (RDSA, SF, SPSA, ControlledNoise, EstimatorOracle, ExactGradientOracle,
                               PerturbationScheme, UncontrolledNoise)
from zograd.harness import checks, experiments
from zograd.harness.config import (FIELDS, FUNCTIONS, MAX_REPLIES, MAX_STEPS, REP_BITS, SPEC_KINDS, ConfigError,
                                   ExperimentConfig, read_config_file)
from zograd.harness.experiments import (
    build_estimator,
    build_function,
    lower_bound_experiment,
    parse_oracle_spec,
    probe_experiment,
    rate_experiment,
    regret_experiment,
    write_rows,
)
from zograd.harness.fitting import fit_rate
from zograd.harness.probes import ProbeResult, probe_bias_variance
from zograd.harness.cli import _load_config, build_parser, main
from zograd.harness.verdicts import RELATIONS, require, verdict
from zograd.solver import NonFiniteIterate, manual_schedule, run, schedule_opt_convex
from zograd.testbed import ObjectiveFunction, quadratic

from instruments import MomentsOff, NoTables, WrongSeeding, read_rows

SMALL_HORIZONS = (300, 1000, 3000, 10000)
CHECK_STDOUT = """\
[PASS] projection: nonexpansive and idempotent on 2000 random pairs
[PASS] finite-differences: all testbeds match central differences (worst 6.4e-11)
[PASS] estimator-envelopes: bias/variance inside declared envelopes for 5 cells x 2 deltas
[PASS] adversarial-grid: closed-form bias and gap identities exact on the 401x25 grid
[PASS] separable-arithmetic: envelope arithmetic exact for the d=4 composition
[PASS] prox-inequality: step optimality inequality holds at every iteration (worst gap 4.4e-14)
[PASS] schedule-constants: schedule constants and closed forms self-consistent
[PASS] determinism: equal RNG streams reproduce runs bitwise
"""


class TestFitRate:
    def test_exact_cube_root_law(self):
        pts = [(n, 2.0 * n ** (-1 / 3)) for n in (1000, 10_000, 100_000)]
        fit = fit_rate(pts)
        assert fit.exponent == pytest.approx(1 / 3, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(2.0)

    def test_exact_square_root_law(self):
        pts = [(n, 0.7 * n**-0.5) for n in (100, 1000, 10_000, 100_000)]
        assert fit_rate(pts).exponent == pytest.approx(0.5, abs=1e-12)

    def test_single_outlier_barely_moves_fit(self):
        pts = [(n, n**-0.5) for n in (1000, 3000, 10_000, 30_000, 100_000)]
        pts[2] = (pts[2][0], pts[2][1] * 1.1)
        assert abs(fit_rate(pts).exponent - 0.5) <= 0.03

    def test_rejects_bad_input(self):
        with pytest.raises(Exception):
            fit_rate([(100, 1.0), (200, 0.5)])
        with pytest.raises(Exception):
            fit_rate([(100, 1.0), (200, 0.5), (300, -0.1)])
        with pytest.raises(Exception):
            fit_rate([(100, 1.0), (100, 0.5), (300, 0.1)])


class TestProbe:
    def test_exact_oracle_probe_is_zero(self):
        oracle = ExactGradientOracle(quadratic([1.0]))
        res = probe_bias_variance(oracle, np.array([0.3]), 0.2, 4096, RngStream(1, 0).generator())
        assert res.bias_est <= 1e-14
        assert res.var_est <= 1e-14

    def test_adversarial_sc_bias_converges_to_shift(self):
        env = OracleEnvelope(c1=1.0, p=1.0, c2=1.0, q=2.0)
        inst = HardInstance("strongly_convex", +1, 0.2, env)
        delta = 0.1
        res = probe_bias_variance(
            AdversarialOracle(inst), np.array([0.4]), delta, 100_000, RngStream(1, 1).generator()
        )
        assert res.bias_est == pytest.approx(min(0.2, delta), abs=5 * res.bias_se)

    def test_gaussian_noise_variance_tight(self):
        env = OracleEnvelope(c1=1.0, p=1.0, c2=2.0, q=2.0)
        inst = HardInstance("strongly_convex", +1, 0.2, env)
        delta = 0.25
        res = probe_bias_variance(
            AdversarialOracle(inst), np.array([0.1]), delta, 1_000_000, RngStream(1, 2).generator()
        )
        assert res.var_est == pytest.approx(env.c2_value(delta), rel=0.05)

    def test_rejects_tiny_reps(self):
        with pytest.raises(Exception):
            probe_bias_variance(
                ExactGradientOracle(quadratic([1.0])), np.array([0.0]), 0.1, 8,
                RngStream(1, 3).generator(),
            )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("scheme", [SF, SPSA, RDSA], ids=lambda s: s.kind)
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_batch_statistics_equal_a_loop_over_the_batches(self, d, scheme, antithetic):
        # reps not a multiple of 32: the last reps % 32 draws join no batch
        oracle = EstimatorOracle(quadratic([1.0, 2.0, 0.5][:d], [0.3, -0.2, 0.1][:d]), scheme, UncontrolledNoise(1.0),
                                 "one_point")
        x, reps = np.full(d, 0.2), 32 * 97 + 13
        got = probe_bias_variance(oracle, x, 0.3, reps, RngStream(7, d).generator(), antithetic)
        want = _probe_batch_by_batch(oracle, x, 0.3, reps, RngStream(7, d).generator(), antithetic)
        assert got.replications == want.replications == reps
        got, want = (np.array(r, dtype=float) for r in (got, want))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("reps", [33, 50_000, 99_999, 100_000])
    @pytest.mark.parametrize("kind", ["one-point", "adversarial", "d2"])
    def test_statistics_in_one_scratch_equal_fresh_temporaries(self, kind, reps):
        # centring and squaring in place keeps all five floats of the
        # formula that builds g - mean_g and batches - means afresh
        oracle = EstimatorOracle(quadratic([1.0]), SPSA, UncontrolledNoise(1.0), "one_point")
        if kind == "adversarial":
            oracle = AdversarialOracle(HardInstance("convex_smooth", +1, 0.1, OracleEnvelope(1.0, 2.0, 1.0, 2.0)))
        elif kind == "d2":
            oracle = EstimatorOracle(quadratic([1.0, 2.0]), SF, UncontrolledNoise(1.0), "one_point")
        x = np.full(oracle.dim, 0.3)
        got = probe_bias_variance(oracle, x, 0.2, reps, RngStream(8, reps).generator())
        want = _probe_with_fresh_temporaries(oracle, x, 0.2, reps, RngStream(8, reps).generator())
        got, want = (np.array(r, dtype=float) for r in (got, want))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _probe_with_fresh_temporaries(oracle, x, delta, reps, rng):
    """``probe_bias_variance``'s five floats from new arrays of g - mean_g and
    of batches - means."""
    g = oracle.sample_gradients(x, delta, reps, rng)
    grad = oracle.target.gradient_at(x)

    def norm_sq(rows):
        return rows[..., 0] ** 2 if rows.shape[-1] == 1 else np.sum(rows * rows, axis=-1)

    mean_g = g.mean(axis=0)
    batches = g[:32 * (reps // 32)].reshape(32, reps // 32, -1)
    means = batches.mean(axis=1)
    variances = norm_sq(batches - means[:, None]).mean(axis=1)
    return ProbeResult(float(delta), float(EUCLIDEAN.value(mean_g - grad)),
                       float(EUCLIDEAN.rows(means - grad).std(ddof=1) / np.sqrt(32)),
                       float(np.mean(norm_sq(g - mean_g))), float(variances.std(ddof=1) / np.sqrt(32)), reps)


def _rebuilt(f: ObjectiveFunction, **changes) -> ObjectiveFunction:
    """f built again with ``changes`` to its arguments (its dim, x* and f*
    follow from its domain and argmin, and are no arguments)."""
    return ObjectiveFunction(**{**{k: v for k, v in vars(f).items() if k not in ("dim", "x_star", "f_star")},
                                **changes})


def _probe_batch_by_batch(oracle, x, delta, reps, rng, antithetic):
    """``probe_bias_variance`` with each of its 32 batches taken on its own,
    in a loop."""
    g = oracle.sample_gradients(x, delta, reps, rng, antithetic=antithetic)
    grad = oracle.target.gradient_at(x)

    def norm_sq(rows):
        return rows[:, 0] ** 2 if rows.shape[1] == 1 else np.sum(rows * rows, axis=1)

    per, biases, variances = reps // 32, np.empty(32), np.empty(32)
    for b in range(32):
        batch = g[b * per:(b + 1) * per]
        biases[b] = EUCLIDEAN.value(batch.mean(axis=0) - grad)
        variances[b] = float(np.mean(norm_sq(batch - batch.mean(axis=0))))
    mean_g = g.mean(axis=0)
    return ProbeResult(float(delta), float(EUCLIDEAN.value(mean_g - grad)),
                       float(biases.std(ddof=1) / np.sqrt(32)), float(np.mean(norm_sq(g - mean_g))),
                       float(variances.std(ddof=1) / np.sqrt(32)), reps)


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="rate", problem_class="sc", estimator="one-point", sigma=2.5,
            horizons=(100, 1000, 10000), replications=4, master_seed=99, out="x.csv",
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = ExperimentConfig.from_dict(read_config_file(path))
        assert again == cfg

    def test_unknown_field_names_path(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_invalid_values_name_field(self):
        with pytest.raises(ConfigError, match="replications"):
            ExperimentConfig(replications=0).validate()
        with pytest.raises(ConfigError, match="c1: must be positive"):
            ExperimentConfig(c1=0.0).validate()
        with pytest.raises(ConfigError, match="c2: must be positive"):
            ExperimentConfig(c2=-1.0).validate()
        with pytest.raises(ConfigError, match="horizons"):
            ExperimentConfig(horizons=(100, 100)).validate()
        with pytest.raises(ConfigError, match="problem_class"):
            ExperimentConfig(problem_class="saddle").validate()
        with pytest.raises(ConfigError, match="delta_grid"):
            ExperimentConfig(delta_grid=(0.5, 1.5)).validate()

    def test_replications_stop_where_stream_ids_would_collide(self, capsys):
        # ids pack (tag << 20) | rep: one more replication and the last one of
        # horizon 0 would draw the stream of replication 0 of horizon 1
        assert ExperimentConfig(replications=2**20).validate().replications == 2**20
        with pytest.raises(ConfigError, match="replications: at most 1048576"):
            ExperimentConfig(replications=2**20 + 1).validate()
        assert main(["rate", "--reps", str(2**20 + 1), "--horizons", "100 200"]) == 2
        assert capsys.readouterr().err.startswith("config error: replications")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_a_seed_that_is_no_nonnegative_int_is_refused(self, seed):
        fault = "nonnegative" if seed == -1 else "an integer"
        with pytest.raises(ConfigError, match=f"^master_seed: must be {fault}, got {re.escape(repr(seed))}$"):
            ExperimentConfig(master_seed=seed).validate()

    @pytest.mark.parametrize("field, value", [
        ("replications", 2.5), ("replications", True), ("workers", True), ("workers", 1.0), ("n", 1e4),
        ("n", False), ("probe_reps", 64.5), ("probe_reps", "64"),
    ])
    def test_a_count_that_is_no_int_is_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer, got {value!r}$"):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("horizons", [(100, 200.5, 400), (100.0, 200, 400), (True, 200, 400), ("100", 200)])
    def test_a_horizon_that_is_no_int_is_refused(self, horizons):
        index, value = next((i, h) for i, h in enumerate(horizons) if type(h) is not int)
        message = f"^horizons\\[{index}\\]: must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(horizons=horizons).validate()
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"horizons": list(horizons)})

    @pytest.mark.parametrize("seed", [0, 2**32, 2**200])
    def test_any_nonnegative_int_is_a_seed(self, seed):
        assert ExperimentConfig(master_seed=seed).validate().master_seed == seed

    def test_probe_reps_leave_replications_alone(self):
        # probes draw on streams of their own, so --reps sets probe_reps only
        args = build_parser().parse_args(["probe", "--reps", str(2**20 + 1)])
        cfg = _load_config(args, "probe").validate()
        assert (cfg.probe_reps, cfg.replications) == (2**20 + 1, ExperimentConfig().replications)

    def test_overrides_win(self):
        cfg = ExperimentConfig().with_overrides(sigma=9.0, replications=3)
        assert cfg.sigma == 9.0 and cfg.replications == 3

    def test_auto_function_resolution(self):
        convex = build_function({"name": "auto"}, "convex")
        assert convex.x_star[0] == 1.0 and convex.f_star == pytest.approx(0.0)
        sc = build_function({"name": "auto"}, "sc")
        assert sc.strong_convexity == 1.0 and sc.smoothness == 1.0

    def test_estimator_mapping(self):
        cfg = ExperimentConfig(estimator="smoothing")
        f = build_function(cfg.function, "convex")
        o = build_estimator(cfg, f)
        assert o.scheme.kind == "surface" and o.feedback == "one_point"
        cfg = ExperimentConfig(estimator="sf")
        o = build_estimator(cfg, f)
        assert o.scheme.kind == "sf" and o.feedback == "two_point"
        for one_arm in ("smoothing", "exact"):
            with pytest.raises(ConfigError, match="controlled"):
                build_estimator(ExperimentConfig(estimator=one_arm, noise="controlled"), f)


class TestOracleSpec:
    def test_estimator_spec(self):
        oracle, x = parse_oracle_spec("one-point,fn=quadratic,sigma=0.5,x=0.1")
        assert oracle.feedback == "one_point" and oracle.scheme.kind == "spsa"
        assert oracle.noise.sigma == 0.5
        assert x[0] == 0.1

    def test_adversarial_spec(self):
        oracle, _ = parse_oracle_spec("adversarial-sc,v=-1,eps=0.2,c1=1,p=1,c2=2,q=2")
        assert oracle.instance.v == -1
        assert oracle.envelope.c2 == 2.0

    def test_bad_specs(self):
        for bad in ("", "mystery-oracle", "one-point,sigma"):
            with pytest.raises(ConfigError):
                parse_oracle_spec(bad)

    @pytest.mark.parametrize("spec, key", [
        ("adversarial-sc,v=1.5", "v"), ("adversarial-sc,v=abc", "v"), ("one-point,x=abc", "x"),
        ("one-point,x=nan", "x"), ("exact,x=inf", "x"), ("adversarial-convex,eps=nan", "eps"),
        ("adversarial-sc,c2=inf", "c2"), ("one-point,sigma=nan", "sigma"), ("two-point,a=-inf", "a"),
    ])
    def test_bad_spec_numbers_exit_2(self, spec, key, tmp_path, capsys):
        code = main(["probe", "--oracle", spec, "--delta-grid", "0.5", "--reps", "100",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: oracle_spec.{key}: must be")
        assert not (tmp_path / "p.csv").exists()


class TestCsvPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        header = ("experiment_id", "n", "replication", "error", "regret", "delta", "seed")
        rows = [("exp", 100, 0, 0.12345678901234567, None, 0.5, 42)]
        write_rows(path, header, rows)
        back = read_rows(path)
        assert back[0]["error"] == repr(0.12345678901234567)
        assert float(back[0]["error"]) == 0.12345678901234567
        assert back[0]["regret"] == ""

    def test_identical_bytes_across_runs(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="rate", horizons=SMALL_HORIZONS, replications=3,
            master_seed=5, out=str(tmp_path / "a.csv"), tolerance=5.0,
        )
        rate_experiment(cfg)
        first = Path(cfg.out).read_bytes()
        rate_experiment(cfg)
        assert Path(cfg.out).read_bytes() == first


class TestExperiments:
    def test_rate_experiment_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="rate", horizons=SMALL_HORIZONS, replications=4,
            master_seed=3, out=str(tmp_path / "rate.csv"), tolerance=5.0,
        )
        report = rate_experiment(cfg)
        assert report.passed
        rows = read_rows(report.csv_path)
        assert len(rows) == len(SMALL_HORIZONS) * 4
        summary = json.loads(Path(report.json_path).read_text())
        assert summary["config"]["master_seed"] == 3
        assert summary["exponent"] == pytest.approx(report.fit.exponent)

    def test_regret_requires_matching_cell(self):
        cfg = ExperimentConfig(experiment="regret", p=1.0, q=2.0, estimator="smoothing",
                               horizons=SMALL_HORIZONS, replications=2)
        with pytest.raises(ConfigError, match="p:"):
            regret_experiment(cfg)

    @pytest.mark.parametrize("named_by", ["flag", "file"])
    def test_explicit_regret_estimator_wins_over_p_q(self, named_by, tmp_path, capsys):
        # spsa's cell has p = 1, so asking for p = q = 2 with it is bad input,
        # whether the flag or the config file names it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"estimator": "spsa"}))
        named = ["--estimator", "spsa"] if named_by == "flag" else ["--config", str(path)]
        assert main(["regret", "--p", "2", "--q", "2", "--horizons", "100 200 400", "--reps", "2"] + named) == 2
        assert capsys.readouterr().err == "config error: p: estimator cell has p=1.0, config asked for 2.0\n"

    def test_lower_bound_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="lowerbound", problem_class="sc", p=1.0, q=2.0, c1=1.0, c2=1.0,
            n=2000, replications=8, master_seed=3, out=str(tmp_path / "lb.csv"),
        )
        report = lower_bound_experiment(cfg)
        assert report.passed
        assert report.details["mean_plus_3se"] >= report.details["floor"]
        assert report.details["exact_oracle_error"] < report.details["floor"]

    def test_lower_bound_rejects_small_n_for_convex(self):
        cfg = ExperimentConfig(experiment="lowerbound", problem_class="convex",
                               p=2.0, q=2.0, c1=1.0, c2=1.0, n=2, replications=2)
        with pytest.raises(ConfigError, match="n:"):
            lower_bound_experiment(cfg)

    def test_probe_experiment_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="probe", oracle_spec="two-point,fn=quadratic,sigma=1.0",
            delta_grid=(0.5, 0.1), probe_reps=20_000, master_seed=3,
            out=str(tmp_path / "probe.csv"),
        )
        report = probe_experiment(cfg)
        assert report.passed
        assert len(read_rows(report.csv_path)) == 2

    @pytest.mark.parametrize("library", [True, False], ids=["library", "no-library"])
    def test_probe_experiment_seeds_each_delta_as_its_rng_stream(self, library, monkeypatch):
        # one generators call for the delta grid, as a run seeds its lanes:
        # delta i's generator has the state of RngStream(seed, (40 << REP_BITS) | i)
        states, real = [], experiments.probe_bias_variance
        monkeypatch.setattr(experiments, "probe_bias_variance",
                            lambda oracle, x, delta, reps, rng: states.append(rng.bit_generator.state)
                            or real(oracle, x, delta, reps, rng))
        if not library:
            monkeypatch.setattr(_lanes, "_loaded", [None])
        probe_experiment(ExperimentConfig(experiment="probe", oracle_spec="one-point,fn=quadratic",
                                          delta_grid=(0.5, 0.2, 0.1), probe_reps=64, master_seed=11))
        assert states == [RngStream(11, (40 << REP_BITS) | i).generator().bit_generator.state for i in range(3)]


class TestCli:
    def test_rate_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        code = main([
            "rate", "--class", "convex", "--estimator", "smoothing",
            "--horizons", "300 1000 3000 10000", "--reps", "3", "--seed", "11",
            "--out", str(out), "--tol", "5.0",
        ])
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()
        assert "exponent" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["rate", "--class", "sc", "--estimator", "exact", "--horizons", "300 1000 3000", "--reps", "2"],
        ["rate", "--class", "sc", "--estimator", "spsa", "--noise", "controlled", "--horizons", "300 1000 3000",
         "--reps", "2"],
        ["lowerbound", "--class", "sc", "--q", "0", "--n", "2000", "--reps", "4"],
    ], ids=["exact", "controlled-spsa", "lowerbound-q0"])
    def test_strongly_convex_cells_at_q_zero_print_a_verdict(self, argv, tmp_path, capsys):
        # the exact oracle's and controlled noise's envelopes have q = 0, which
        # the strongly convex schedule takes as the convex and regret ones do
        code = main(argv + ["--seed", "3", "--out", str(tmp_path / "sc.csv")])
        out = capsys.readouterr()
        assert code in (0, 1) and out.err == ""
        assert re.fullmatch(r"\S+: .* -> (PASS|FAIL)\n", out.out)

    def test_probe_cli_smoke(self, tmp_path, capsys):
        code = main([
            "probe", "--oracle", "exact,fn=quadratic", "--delta-grid", "0.5 0.1",
            "--reps", "2000", "--seed", "1", "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 0

    def test_check_cli(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 8

    @pytest.mark.parametrize("path", ["kernel", "numpy loop"])
    def test_check_prints_its_eight_lines_byte_for_byte(self, path, capsys, monkeypatch):
        # the worst finite-difference error and prox gap pin every float of both array passes
        if path == "kernel" and _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        if path == "numpy loop":
            monkeypatch.setattr(_lanes, "kernel", lambda: None)
        assert main(["check"]) == 0
        assert capsys.readouterr().out == CHECK_STDOUT

    @pytest.mark.parametrize("path", ["compiled lane kernel", "numpy loop"])
    def test_the_check_suites_debug_lines_name_the_recorded_runs_path(self, path, caplog, monkeypatch):
        if path == "compiled lane kernel" and _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        if path == "numpy loop":
            monkeypatch.setattr(_lanes, "kernel", lambda: None)
        with caplog.at_level(logging.DEBUG, logger="zograd.solver"):
            assert checks.run_checks(verbose=False) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "zograd.solver"] == [
            f"run: 1 lanes, 499 steps, recorded, on the {path}"] + [f"run: 1 lanes, 1999 steps on the {path}"] * 2

    def test_check_logs_each_checks_wall_time_at_info(self, capsys):
        assert main(["check", "--log-level", "INFO"]) == 0
        out = capsys.readouterr()
        assert out.out == CHECK_STDOUT
        logged = [re.fullmatch(r"INFO:zograd\.harness\.checks:(\S+): PASS in \d+\.\d ms", line)
                  for line in out.err.splitlines()]
        assert [m and m[1] for m in logged] == [name for name, _ in checks.ALL_CHECKS]
        assert main(["check"]) == 0 and capsys.readouterr().err == ""

    def test_a_failed_check_is_logged_as_failed(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("off by one")

        monkeypatch.setattr(checks, "ALL_CHECKS", [("broken", broken)])
        assert main(["check", "--log-level", "INFO"]) == 1
        out = capsys.readouterr()
        assert out.out == "[FAIL] broken: off by one\n"
        assert re.fullmatch(r"INFO:zograd\.harness\.checks:broken: FAIL in \d+\.\d ms\n", out.err)

    @pytest.mark.parametrize("check, name", [
        ("finite-differences", "exp_one_d"),  # the last testbed, with a gradient that is NaN everywhere
        ("prox-inequality", "prox_inequality_gap"),
        ("adversarial-grid", "bias_excess_on_grid"),  # the minus arm's, the second of the two compared
        ("adversarial-grid", "gap_deviation_on_grid"),
        ("projection", "Box"),  # the box of the check, whose projection is NaN
        ("estimator-envelopes", "probe_bias_variance:bias"),
        ("estimator-envelopes", "probe_bias_variance:variance"),
        ("separable-arithmetic", "scaled_hard_coordinates:envelope"),
        ("separable-arithmetic", "scaled_hard_coordinates:bias"),
        ("schedule-constants", "worst_case_tolerance"),
        ("determinism", "run"),  # the runs that are not recorded: the prox check records its run
    ])
    def test_a_nan_fails_its_check(self, check, name, capsys, monkeypatch):
        # a NaN in the measured value of each verdict of the suite in turn
        name, _, case = name.partition(":")
        real = getattr(checks, name)

        def separable(*a):
            oracle = real(*a)
            if case == "envelope":
                oracle.envelope = OracleEnvelope(**{**vars(oracle.envelope), "c1": math.nan})
            else:
                oracle.mean_response = lambda x, delta: np.full(np.shape(x), np.nan)
            return oracle

        nan = {
            "exp_one_d": lambda: _rebuilt(real(), gradient=lambda x: np.full(np.shape(x), np.nan)),
            "prox_inequality_gap": lambda *a: math.nan,
            "bias_excess_on_grid": lambda inst: math.nan if inst.v == -1 else real(inst),
            "gap_deviation_on_grid": lambda *a: (math.nan, 0.0),
            "Box": lambda *a: type("NanBox", (real,), {"project": lambda body, x: np.full(np.shape(x), np.nan)})(*a),
            "probe_bias_variance": lambda *a: real(*a)._replace(
                **{"bias_est" if case == "bias" else "var_est": math.nan}),
            "scaled_hard_coordinates": separable,
            "worst_case_tolerance": lambda *a: math.nan,
            "run": lambda *a, **k: real(*a, **k) if k.get("record") else real(*a, **k)._replace(error=math.nan),
        }[name]
        monkeypatch.setattr(checks, name, nan)
        assert main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(checks.ALL_CHECKS)
        failed = [line for line in lines if not line.startswith("[PASS]")]
        assert [line.split(":")[0] for line in failed] == [f"[FAIL] {check}"]
        # it names the quantity, its value, the relation and the bound
        assert re.fullmatch(rf"\[FAIL\] {check}: \S.* = nan, not <= \S+", failed[0])

    def test_a_probe_point_outside_the_domain_exits_2(self, tmp_path, capsys):
        # the quadratic's domain is [-1, 1]
        argv = ["probe", "--oracle", "one-point,x=5", "--reps", "64", "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "domain error: probe point [5.] escapes the domain\n"
        assert not (tmp_path / "p.csv").exists()

    def test_probe_logs_each_deltas_wall_time_at_info(self, tmp_path, capsys):
        argv = ["probe", "--oracle", "two-point,fn=exp,class=c3,sigma=1.0,x=0.0", "--delta-grid", "0.5 0.1",
                "--reps", "2000", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "quiet.csv")]) == 0
        quiet = capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "loud.csv"), "--log-level", "INFO"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.err == ""
        logged = [re.fullmatch(r"INFO:zograd\.harness\.experiments:probe-two-point delta=(\S+): PASS in \d+\.\d ms",
                               line) for line in loud.err.splitlines()]
        assert [m and m[1] for m in logged] == ["0.5", "0.1"]

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = ExperimentConfig(
            experiment="rate", horizons=SMALL_HORIZONS, replications=2,
            master_seed=5, tolerance=5.0,
        )
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "r.csv"
        code = main(["rate", "--config", str(cfg_path), "--reps", "3", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == len(SMALL_HORIZONS) * 3  # CLI override beat the file

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{"], ids=["not-json", "not-utf-8"])
    def test_config_error_exit_code(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["rate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config file: invalid JSON (") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_a_config_file_that_cannot_be_read_exits_2(self, name, tmp_path, capsys):
        path = tmp_path / name
        assert main(["rate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {path}: cannot be read (") and err.count("\n") == 1
        with pytest.raises(ConfigError, match="cannot be read"):
            read_config_file(path)

    @pytest.mark.parametrize("flag, value, message", [
        ("--c1", "0", "config error: c1: must be positive"),
        ("--p", "0", "domain error: need positive p"),
    ])
    def test_bad_input_exits_2_with_one_line(self, flag, value, message, capsys):
        # a value the config accepts but the hard pair cannot use (p = 0)
        # raises DomainError, which must not escape as a traceback
        argv = ["lowerbound", "--class", "convex", "--p", "2", "--q", "2", "--c1", "1", "--c2", "1",
                "--n", "2000", "--reps", "2"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("c1", ["30", "1e200"])
    def test_strongly_convex_minimizer_off_the_domain_exits_2(self, c1, tmp_path, capsys):
        # the optimal separation is eps = 1.377 at c1 = 30 and 2.5e99 at
        # c1 = 1e200, so the arm's minimizer v*eps leaves [-1, 1], and the
        # floor, taken from the arms' minimizers +-eps, would not hold
        argv = ["lowerbound", "--class", "sc", "--p", "1", "--c1", c1, "--n", "1000", "--reps", "4",
                "--out", str(tmp_path / "lb.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: the minimizer v*eps") and err.count("\n") == 1
        assert not (tmp_path / "lb.csv").exists()

    def test_errors_are_taken_from_the_minimum_over_the_domain(self, tmp_path):
        # exp(x) - x on [1, 2] is least at 1, where it is e - 1, not at its
        # unconstrained minimizer 0: measured from 1, every error would
        # carry the offset e - 2 = 0.718 and barely fall
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"function": {"name": "exp", "lower": [1.0], "upper": [2.0]},
                                    "horizons": [1000, 3000, 10000], "replications": 4}))
        out = tmp_path / "exp.csv"
        # the verdict on the exponent is not what this checks
        assert main(["rate", "--estimator", "one-point", "--sigma", "1", "--config", str(path),
                     "--out", str(out)]) in (0, 1)
        errors = [h["mean_error"] for h in json.loads(out.with_suffix(".json").read_text())["details"]["per_horizon"]]
        assert 0.1 > errors[0] > errors[1] > errors[2] > 0


    SHORT_RATE = ["--horizons", "100 200 400", "--reps", "2"]
    LB = ["lowerbound", "--class", "convex", "--p", "2", "--q", "2", "--c1", "1", "--c2", "1", "--n", "500", "--reps", "2"]

    @pytest.mark.parametrize("argv, message", [
        (["rate", "--estimator", "one-point", "--sigma", "nan", *SHORT_RATE], "sigma: must be finite"),
        (["rate", "--estimator", "spsa", "--noise", "controlled", "--sigma", "inf", *SHORT_RATE],
         "sigma: must be finite"),
        (["rate", "--estimator", "spsa", "--tol", "nan", *SHORT_RATE], "tolerance: must be finite"),
        (["regret", "--estimator", "spsa", "--tol", "inf", *SHORT_RATE], "tolerance: must be finite"),
        (["rate", "--config", "CONFIG", *SHORT_RATE], "noise_slope: must be finite"),
        ([*LB[:3], "--p", "nan", *LB[5:]], "p: must be finite"),
        ([*LB[:5], "--q", "inf", *LB[7:]], "q: must be finite"),
        ([*LB[:7], "--c1", "nan", *LB[9:]], "c1: must be finite"),
        ([*LB[:9], "--c2", "inf", *LB[11:]], "c2: must be finite"),
        (["probe", "--oracle", "exact,fn=quadratic", "--delta-grid", "0.5 nan", "--reps", "64"],
         "delta_grid[1]: must be finite, got nan"),
    ])
    def test_non_finite_inputs_exit_2_with_one_line(self, argv, message, tmp_path, capsys):
        # NaN passes a test written as x < 0; the input is refused by name
        # before any run, not reported later as a non-finite iterate or a FAIL
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"estimator": "spsa", "noise": "controlled", "noise_slope": math.nan}))
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("route, seed, shown", [("flag", "-1", "nonnegative, got -1"),
                                                    ("config", -1, "nonnegative, got -1"),
                                                    ("config", 2.0, "an integer, got 2.0"),
                                                    ("config", False, "an integer, got False")])
    @pytest.mark.parametrize("command", [SHORT_RATE, LB])
    def test_a_bad_seed_exits_2_naming_master_seed(self, command, route, seed, shown, tmp_path, capsys):
        # numpy refuses a negative seed inside the run; exit 1 would read as a failed verdict
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"master_seed": seed}))
        argv = ["rate", *command] if command is self.SHORT_RATE else list(command)
        argv += ["--seed", seed] if route == "flag" else ["--config", str(config)]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: master_seed: must be {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["rate", "--horizons", "100 200 400"], {"replications": 2.5}, "replications: must be an integer, got 2.5"),
        (["rate", "--horizons", "100 200 400"], {"replications": True}, "replications: must be an integer, got True"),
        (["rate", *SHORT_RATE], {"workers": True}, "workers: must be an integer, got True"),
        (["rate", *SHORT_RATE], {"workers": 2.0}, "workers: must be an integer, got 2.0"),
        (LB[:11] + ["--reps", "2"], {"n": 500.5}, "n: must be an integer, got 500.5"),
        (["probe", "--oracle", "exact,fn=quadratic"], {"probe_reps": 64.5}, "probe_reps: must be an integer, got 64.5"),
        (["rate", "--reps", "2"], {"horizons": [100, 200.5, 400]}, "horizons[1]: must be an integer, got 200.5"),
        (["rate", "--reps", "2"], {"horizons": [100, True, 400]}, "horizons[1]: must be an integer, got True"),
    ], ids=["reps-2.5", "reps-true", "workers-true", "workers-2.0", "n-500.5", "probe_reps-64.5", "horizon-200.5",
            "horizon-true"])
    def test_a_count_in_a_config_file_that_is_no_int_exits_2(self, argv, config, message, tmp_path, capsys):
        # refused by name before any run: exit 1 would read as a failed verdict, and true is no count
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert main(argv + ["--tol", "5"] * (argv[0] == "rate") + ["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["rate", "--horizons", "100 200 400", "--reps", "2.5"], "--reps"),
        (["rate", "--horizons", "100 200 400", "--reps", "true"], "--reps"),
        (["rate", *SHORT_RATE, "--workers", "true"], "--workers"),
        (LB + ["--n", "500.5"], "--n"),
        (["rate", "--horizons", "100 200.5 400", "--reps", "2"], "--horizons"),
    ], ids=["reps-2.5", "reps-true", "workers-true", "n-500.5", "horizon-200.5"])
    def test_a_count_flag_that_is_no_int_exits_2(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", ["kernel", "numpy loop"])
    def test_numpys_generators_and_twins_write_the_same_rows(self, path, monkeypatch, tmp_path, capsys, caplog,
                                                             request):
        # the way numpy's own SeedSequence and jumped() take where the
        # library's seeding and the twin fail their checks
        argv = ["rate", "--estimator", "smoothing", *self.SHORT_RATE, "--tol", "5.0", "--seed", "5", "--out"]
        if path == "numpy loop":
            monkeypatch.setattr(_lanes, "kernel", lambda: None)
        assert main(argv + [str(tmp_path / "fast.csv")]) == 0
        library = _lanes._library() is not None
        if library:  # a library of the test's own, which seeds the next master seed's words
            request.getfixturevalue("unchecked_library")
            monkeypatch.setattr(_lanes, "_Library", WrongSeeding)
        monkeypatch.setattr(_lanes, "_twin_holds", lambda: False)
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            assert main(argv + [str(tmp_path / "numpy.csv")]) == 0
        assert caplog.text.count("refused: its seeding differs from numpy's") == library
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_the_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        # every flag defaults to None, so a flag of one call does not carry
        # over into the next
        assert build_parser() is build_parser()
        given = build_parser().parse_args(["probe", "--seed", "5", "--reps", "64"])
        assert (given.master_seed, given.probe_reps) == (5, 64)
        assert vars(build_parser().parse_args(["probe"])) == {
            "command": "probe", "log_level": None, "config": None, "master_seed": None, "out": None,
            "workers": None, "probe_reps": None, "oracle_spec": None, "delta_grid": None}

    LOWERBOUND = ["lowerbound", "--class", "sc", "--p", "1", "--q", "2", "--c1", "1", "--c2", "1",
                  "--n", "2000", "--reps", "4", "--seed", "3"]

    def test_log_level_sends_the_path_to_stderr(self, tmp_path, capsys):
        assert main(self.LOWERBOUND + ["--out", str(tmp_path / "quiet.csv")]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == "" and quiet.out.count("\n") == 1
        assert main(self.LOWERBOUND + ["--out", str(tmp_path / "loud.csv"), "--log-level", "debug"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        path = "compiled lane kernel" if _lanes.kernel() is not None else "numpy loop"
        # each arm's adversarial run over its 4 lanes, then each arm's one exact-gradient sanity run
        assert loud.err == (f"DEBUG:zograd.solver:run: 4 lanes, 1999 steps on the {path}\n" * 2
                            + f"DEBUG:zograd.solver:run: 1 lanes, 1999 steps on the {path}\n" * 2)
        assert logging.getLogger("zograd").handlers == []  # nothing left behind

    def test_a_probe_the_library_refuses_asks_it_once_and_logs_one_line(self, tmp_path, capsys, monkeypatch):
        # the one-point estimator of softabs has no C formula: numpy makes
        # the replies and their moments, and the probe says so once
        asked, real = [], _lanes_probe.probe_replies
        monkeypatch.setattr(_lanes_probe, "probe_replies", lambda *args: asked.append(1) or real(*args))
        argv = ["probe", "--oracle", "one-point,fn=softabs,v=1,eps=0.1", "--reps", "64", "--delta-grid", "0.5",
                "--log-level", "debug", "--out", str(tmp_path / "probe.csv")]
        assert main(argv) == 0
        assert asked == [1]
        assert [line for line in capsys.readouterr().err.splitlines() if "replies" in line] == [
            "DEBUG:zograd.harness.probes:probe_bias_variance: moments of 64 replies from numpy "
            "(no C formula: no replies, d > 1, another target, or a redefined draw or estimate)"]

    @pytest.mark.parametrize("argv, message", [
        (["probe", "--reps", "0"], "config error: probe_reps: must be at least 32"),
        (["probe", "--delta-grid", ""], "config error: delta_grid: must be a nonempty list, got []"),
        (["probe", "--config", "CONFIG"], "config error: delta_grid: must be a nonempty list, got []"),
        (["rate", "--horizons", "", "--reps", "1"], "config error: horizons: must be a nonempty list, got []"),
    ])
    def test_zero_and_empty_lists_are_values(self, argv, message, tmp_path, capsys):
        # a flag given as 0 or as an empty list, or a file's empty list, is
        # checked like any other value, not taken for "not given"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"delta_grid": [], "probe_reps": 2000}))
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        if argv[0] == "probe":
            argv += ["--oracle", "exact,fn=quadratic"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["rate", "--estimator", "exact", "--noise", "controlled", "--horizons", "300 1000 3000", "--reps", "2",
          "--tol", "5"], "config error: noise: controlled noise requires a two-point estimator"),
        (["probe", "--workers", "4"], "config error: workers: a probe runs on one thread, so must be 1"),
        (["probe", "--config", "CONFIG"], "config error: workers: a probe runs on one thread, so must be 1"),
    ], ids=["exact-controlled", "probe-workers-flag", "probe-workers-file"])
    def test_unsupported_settings_exit_2_with_one_line(self, argv, message, tmp_path, capsys):
        # a setting the run would drop (controlled noise on exact gradients,
        # workers for a probe, which runs on one thread) is refused, not ignored
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"workers": 4}))
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        if argv[0] == "probe":
            argv += ["--oracle", "exact,fn=quadratic", "--reps", "2000", "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["rate", "--horizons", "100000 300000"], ["regret", "--horizons", "100"]])
    def test_too_few_horizons_exit_2_before_any_run(self, argv, capsys, monkeypatch):
        # a rate is fitted through at least 3 horizons: fewer are refused
        # before any replication runs
        from zograd.harness import experiments

        monkeypatch.setattr(experiments, "run", lambda *args, **kwargs: pytest.fail("a run started"))
        assert main(argv + ["--reps", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: horizons: ") and err.count("\n") == 1

    def test_every_flag_names_a_config_field(self):
        # _load_config reads each flag's dest as the config field it sets, and
        # the flag takes that field's type and choices from its kind
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        actions = [action for p in (parser, *commands.values()) for action in p._actions]
        dests = {action.dest for action in actions} - {"help"}
        assert dests - FIELDS.keys() == {"command", "config", "log_level"}
        for action in (action for action in actions if action.dest in FIELDS):
            kind = FIELDS[action.dest][0]
            assert action.choices == (kind.names or None)
            assert action.type.__name__ == kind.read.__name__, action.dest

    def test_bad_log_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--log-level", "LOUD"])
        assert info.value.code == 2
        assert "--log-level" in capsys.readouterr().err


# JSON values of every sort: wrong types, NaN, +-inf, bools, null, nested
# lists, objects with a function spec's keys, and names the tables hold; no
# "/" in a string, so a fuzzed out path stays in the test's directory
_WORDS = ["quadratic", "softabs", "sc_pair", "kinked", "exp", "auto", "exact", "spsa", "smoothing", "one-point",
          "controlled", "sc", "convex", "probe"]
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 300) | st.floats() | st.floats(1e-3, 1.0) | st.sampled_from(_WORDS)
    | st.text(st.characters(blacklist_characters="/\\"), max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "a", "b", "offset", "v", "eps", "a_neg", "a_pos", "lower", "upper", "c"]), inner,
        max_size=3),
    max_leaves=4)
_SPEC_WORDS = st.sampled_from(["nan", "inf", "-inf", "1e308", "1.5", "0", "-1", "1", "2", "0.1", "", "x", *_WORDS,
                               "surface", "rdsa", "c3", "convex_smooth"]) | st.floats(-2, 2).map(repr)


@st.composite
def _specs(draw) -> str:
    """An oracle spec of mostly the kind's own keys, each half the time with
    a value of that key's kind, so that many specs run."""
    kind = draw(st.sampled_from([*SPEC_KINDS, "mystery", ""]))
    words = []
    for key in draw(st.lists(st.sampled_from([*SPEC_KINDS.get(kind, ()), "sigm"]), max_size=3, unique=True)):
        own = SPEC_KINDS.get(kind, {}).get(key)
        if own is None or draw(st.booleans()):
            words.append(f"{key}={draw(_SPEC_WORDS)}")
        elif own.names:
            words.append(f"{key}={draw(st.sampled_from(own.names))}")
        else:
            words.append(f"{key}={draw(st.integers(-1, 1) if own.cast is int else st.floats(-1, 1))!r}")
    return ",".join([kind, *words])


def _valid(kind, top: int) -> st.SearchStrategy:
    """Values of ``kind`` up to ``top`` as a JSON config file holds them: an
    int where a float is asked for stays an int."""
    if kind.many and kind.cast is int:
        values = st.lists(st.integers(1, top), min_size=3, max_size=6, unique=True).map(sorted)
    elif kind.many:
        values = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4)
    elif kind.names or kind.cast is str:
        values = st.sampled_from(kind.names) if kind.names else st.text(max_size=8)
    else:
        low = kind.lo if kind.lo is not None else -top
        ints = st.integers(math.floor(low) + 1 if kind.strict else math.ceil(low), top)
        values = ints if kind.cast is int else ints | st.floats(low, top, exclude_min=kind.strict)
    return st.none() | values if kind.null else values


@st.composite
def _fuzzed_field(draw) -> tuple:
    """A config field and any JSON value, or a valid one small enough to run at once."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    return name, draw(_VALUES if name == "function" else _VALUES | _valid(FIELDS[name][0], 300))


class TestInputs:
    """Each input is checked against its one declaration in ``config``: a bad
    one exits 2 before any run, with one stderr line that names it."""

    # the smallest runs of each command, to which a test adds one field
    TINY = {
        "rate": {"horizons": [100, 200, 300], "replications": 2, "tolerance": 5.0},
        "regret": {"horizons": [100, 200, 300], "replications": 2, "tolerance": 5.0},
        "lowerbound": {"n": 500, "replications": 2},
        "probe": {"oracle_spec": "exact", "probe_reps": 64, "delta_grid": [0.5]},
    }

    def _main(self, command: str, config: dict, tmp_path: Path, capsys, *flags: str):
        """Exit code, stdout and stderr of a run of ``command`` on the tiny
        config plus ``config``, from a config file."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.TINY[command], **config}))
        code = main([command, "--config", str(path), *flags])
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("command, config, path", [
        ("rate", {"horizons": 5}, "horizons"),
        ("rate", {"sigma": "1.0"}, "sigma"),
        ("lowerbound", {"p": "2"}, "p"),
        ("rate", {"noise_slope": None}, "noise_slope"),
        ("rate", {"out": 5}, "out"),
        ("probe", {"delta_grid": ["x"]}, "delta_grid[0]"),
        ("probe", {"delta_grid": "0.5"}, "delta_grid"),
        ("rate", {"function": {"name": "quadratic", "a": "x"}}, "function.a"),
        ("rate", {"function": {"name": "quadratic", "lower": [0.0]}}, "function"),
        ("rate", {"function": {"name": "auto", "lower": [0.0], "upper": [1.0]}}, "function.lower"),
        ("rate", {"sigma": True}, "sigma"),
        ("probe", {"oracle_spec": "one-point,fn=quadratic,sigm=5"}, "oracle_spec.sigm"),
        ("probe", {"oracle_spec": "one-point,noise=foo"}, "oracle_spec.noise"),
        ("probe", {"oracle_spec": "one-point,sigma=1,sigma=5"}, "oracle_spec.sigma"),
        ("probe", {"oracle_spec": "exact,fn=exp,a=2"}, "oracle_spec.a"),
        ("regret", {"estimator": "exact"}, "estimator"),
        ("rate", {"out": ""}, "out"),
    ])
    def test_a_bad_input_exits_2_naming_it(self, command, config, path, tmp_path, capsys):
        # each of these once ended in a traceback, or ran other inputs than the ones given
        code, out, err = self._main(command, config, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["rate", "lowerbound", "probe"])
    @pytest.mark.parametrize("out", ["", "a directory"])
    def test_an_out_path_that_names_no_file_is_refused_before_the_run(self, command, out, tmp_path, capsys,
                                                                         monkeypatch):
        # _report writes the CSV only after the run, which such a path would throw away
        calls = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(experiments, "probe_bias_variance", lambda *a: calls.append(a))
        code, stdout, err = self._main(command, {"out": out and str(tmp_path)}, tmp_path, capsys)
        assert (code, stdout, calls) == (2, "", [])
        assert err == f"config error: out: must name a file, not a directory, got {out and str(tmp_path)!r}\n"

    @pytest.mark.parametrize("command, config, fields", [
        ("rate", {"sigma": 1e200}, "sigma"),
        ("rate", {"estimator": "spsa", "noise": "controlled", "noise_slope": 1e200}, "sigma, noise_slope"),
        ("regret", {"sigma": 1e200}, "sigma"),
        ("lowerbound", {"c1": 1e308}, "p, q, c1, c2, n"),
        ("lowerbound", {"p": 1e200}, "p, q, c1, c2, n"),
        ("lowerbound", {"p": 1e308}, "p, q, c1, c2, n"),  # a NaN separation
        ("lowerbound", {"c1": 5e-324}, "p, q, c1, c2, n"),  # a separation that underflows to 0
    ])
    def test_a_closed_form_out_of_float_range_names_the_fields_it_reads(self, command, config, fields, tmp_path,
                                                                          capsys):
        code, out, err = self._main(command, config, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"domain error: {fields}: the ") and "closed form leaves float range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flags, field, cap", [
        ("lowerbound", ["--n", "10000000000000000000000"], "n", MAX_STEPS),
        ("rate", ["--horizons", "100 200 10000000000000000000000"], "horizons[2]", MAX_STEPS),
        ("probe", ["--reps", "10000000000000000000000"], "probe_reps", MAX_REPLIES),
    ])
    def test_a_count_beyond_its_cap_is_refused_before_the_run(self, command, flags, field, cap, tmp_path, capsys,
                                                               monkeypatch):
        # 10^22 is past numpy's largest array too: a value between the cap and that would allocate, so none is tried
        calls = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(experiments, "probe_bias_variance", lambda *a: calls.append(a))
        code, out, err = self._main(command, {}, tmp_path, capsys, *flags)
        assert (code, out, calls) == (2, "", [])
        assert err == f"config error: {field}: must be at most {cap:g}, got 10000000000000000000000\n"

    @pytest.mark.parametrize("name", ["softabs", "sc_pair", "kinked", "exp"])
    def test_a_1d_function_on_a_box_of_2_coordinates_is_refused(self, name, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        spec = {"name": name, "lower": [-1, -1], "upper": [1, 1]}
        code, stdout, err = self._main("rate", {"function": spec, "out": str(out)}, tmp_path, capsys)
        assert (code, stdout) == (2, "")
        assert err == f"domain error: function: {name}: a 1-d function needs an interval, got a box of dimension 2\n"
        assert not out.exists()

    def test_regret_refuses_exact_gradients_by_flag_too(self, capsys):
        # --estimator shares the config's estimator names, so exact parses
        assert main(["regret", "--estimator", "exact", "--horizons", "100 200 300", "--reps", "2"]) == 2
        assert capsys.readouterr().err.startswith("config error: estimator: exact gradients have no regret schedule")
        with pytest.raises(ConfigError, match="^estimator: "):
            regret_experiment(ExperimentConfig(experiment="regret", estimator="exact", horizons=(100, 200, 300)))

    def test_every_function_key_is_a_parameter_of_its_builder(self):
        for name, (builder, keys) in FUNCTIONS.items():
            params = inspect.signature(builder).parameters
            assert set(params) == {*keys, "domain"}, name
            for key, (_, default) in keys.items():
                assert params[key].default in (inspect.Parameter.empty, default), (name, key)

    def _assert_contract(self, code: int, out: str, err: str) -> None:
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.count("\n") == 1
            head, _, rest = err.partition(": ")
            # a config error names the field (or the oracle spec) it refuses
            assert head == "domain error" or re.split(r"[.\[: ]", rest)[0] in FIELDS, err
        else:
            verdict = out.splitlines()[0]
            assert ("PASS" in verdict or "OK" in verdict) if code == 0 else ("FAIL" in verdict or "VIOLATED" in verdict)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(command=st.sampled_from(sorted(TINY)), field=_fuzzed_field())
    def test_fuzzed_config_fields_exit_0_1_or_2_and_say_why(self, command, field, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a fuzzed relative out path writes
        self._assert_contract(*self._main(command, dict([field]), tmp_path, capsys))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(spec=_specs())
    def test_fuzzed_oracle_specs_exit_0_1_or_2_and_say_why(self, spec, tmp_path, capsys):
        self._assert_contract(*self._main("probe", {}, tmp_path, capsys, "--oracle", spec))

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_a_valid_config_echoes_unchanged(self, data):
        given = {name: data.draw(_valid(kind, 1 << 20)) for name, (kind, _) in FIELDS.items() if name != "function"}
        given["function"] = data.draw(st.sampled_from([
            {"name": "auto"}, {"name": "quadratic", "a": [2, 1.5], "offset": 3},
            {"name": "exp", "lower": [-1], "upper": [2]}, {"name": "softabs", "v": -1, "eps": 0.2}]))
        if given["experiment"] == "probe":
            given["workers"] = 1
        # out names a file that is no directory, or validate refuses it
        given["out"] = data.draw(st.none() | st.text(min_size=1, max_size=8).filter(
            lambda text: Path(text).name and not os.path.isdir(text)))
        cfg = ExperimentConfig.from_dict(given)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        # the echo writes each value as the file gave it: 3 stays 3 and 2.0 stays 2.0
        echo = json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
        assert json.loads(echo) == given and echo == json.dumps(given, indent=2, sort_keys=True)

    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "results").glob("*.json")),
                             ids=lambda path: path.stem)
    def test_each_committed_config_echoes_unchanged(self, path):
        config = json.loads(path.read_text())["config"]
        echo = ExperimentConfig.from_dict(config).to_dict()
        assert json.dumps(echo, indent=2, sort_keys=True) == json.dumps(config, indent=2, sort_keys=True)


def _cosh_argmin(body):
    """The minimizer 0 of cosh, clipped into ``body``."""
    return body.project(np.zeros(1))


# cosh on [-1, 1], from callables that pickle by name (a testbed builder's closures do not)
_COSH = ObjectiveFunction("cosh", interval(-1.0, 1.0), math.cosh(1.0), 1.0, np.cosh, np.sinh, _cosh_argmin)
# zograd's records: a plain class, or a NamedTuple where the record is a value with no check
RECORDS = {
    "Norm": lambda: Norm("max"),
    "Box": lambda: Box([0.0, -1.0], [1.0, 2.0]),
    "OracleEnvelope": lambda: OracleEnvelope(1.0, 2.0, 3.0, 2.0, "type_II"),
    "RngStream": lambda: RngStream(20260810, 7),
    "PerturbationScheme": lambda: PerturbationScheme("rdsa"),
    "UncontrolledNoise": lambda: UncontrolledNoise(0.5),
    "ControlledNoise": lambda: ControlledNoise(1.0, 0.25),
    "EstimatorOracle": lambda: EstimatorOracle(_COSH, SPSA, UncontrolledNoise(1.0), "one_point"),
    "ExactGradientOracle": lambda: ExactGradientOracle(_COSH),
    "Schedule": lambda: schedule_opt_convex(2.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1000),
    "RunTrace": lambda: run(ExactGradientOracle(_COSH), manual_schedule(0.5, ("const", 0.1)), 20, record=True),
    "HardInstance": lambda: HardInstance("convex_smooth", -1, 0.1, OracleEnvelope(1.0, 2.0, 1.0, 2.0)),
    "ObjectiveFunction": lambda: _COSH,
    "ExperimentConfig": lambda: ExperimentConfig(experiment="lowerbound", c1=2.0, out="lb.csv").validate(),
    "_Group": lambda: experiments._Group("optimization", 100, 1, 2, manual_schedule(0.5, ("const", 0.1))),
    "ExperimentReport": lambda: experiments.ExperimentReport(
        "rate-x", fit_rate([(100, 1.0), (200, 0.6), (400, 0.3)]), 0.5, (verdict("gap", 0.5, "<=", 1.0),),
        {"floor": 0.25}, "x.csv", "x.json"),
    "RateFit": lambda: fit_rate([(100, 1.0), (200, 0.6), (400, 0.3)]),
    "ProbeResult": lambda: ProbeResult(0.1, 0.02, 0.001, 1.5, 0.1, 64),
    "Verdict": lambda: verdict("gap", 0.5, "<=", 1.0),
}
# records whose equality is by value, not by identity
VALUE_RECORDS = {"Norm", "OracleEnvelope", "RngStream", "PerturbationScheme", "UncontrolledNoise", "ControlledNoise",
                 "Schedule", "ExperimentConfig", "_Group", "ExperimentReport", "RateFit", "ProbeResult", "Verdict"}


def _same(a, b) -> bool:
    """a and b hold equal values: arrays element by element, zograd's
    records field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if type(a).__module__.startswith("zograd."):
        a, b = (r._asdict() if isinstance(r, tuple) else vars(r) for r in (a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class TestRecords:
    def test_every_record_is_listed(self):
        assert len(RECORDS) == 19 and VALUE_RECORDS < RECORDS.keys()
        assert all(type(make()).__name__ == name for name, make in RECORDS.items())

    @pytest.mark.parametrize("name", RECORDS)
    def test_a_record_survives_pickling(self, name):
        # a traced pass ships configs, groups and schedules to a process pool
        record = RECORDS[name]()
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and _same(back, record)
        if name in VALUE_RECORDS:
            assert back == record


class TestVerdicts:
    FLOATS = [0.5, 1.0, 2.0, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("relation", sorted(RELATIONS))
    @pytest.mark.parametrize("value", FLOATS)
    @pytest.mark.parametrize("bound", [1.0, math.inf, -math.inf, math.nan])
    def test_every_relation_on_finite_infinite_and_nan_floats(self, relation, value, bound):
        v = verdict("x", np.float64(value), relation, bound)
        assert type(v.value) is type(v.bound) is float and (v.what, v.relation) == ("x", relation)
        holds = {"<=": value <= bound, "<": value < bound, ">=": value >= bound}[relation]
        assert v.passed is (math.isfinite(value) and math.isfinite(bound) and holds)
        # the margin is positive inside the bound, zero on it, negative outside,
        # and NaN where the two have no difference
        if math.isnan(value) or math.isnan(bound) or (math.isinf(value) and value == bound):
            assert math.isnan(v.margin)
        else:
            inside = value < bound if relation != ">=" else value > bound
            assert (v.margin > 0, v.margin == 0, v.margin < 0) == (inside, value == bound, not inside and value != bound)
            if math.isfinite(value) and math.isfinite(bound):
                assert abs(v.margin) == abs(value - bound)

    def test_require_raises_what_fails_and_returns_what_passes(self):
        assert require("gap", 0.5, "<=", 1.0) == verdict("gap", 0.5, "<=", 1.0)
        with pytest.raises(AssertionError, match=r"^gap = 1\.5, not < 1$"):
            require("gap", 1.5, "<", 1.0)
        with pytest.raises(AssertionError, match=r"^gap = 0\.5, not <= nan$"):
            require("gap", 0.5, "<=", math.nan)

    def test_a_report_passes_iff_every_verdict_does_and_records_them(self, tmp_path):
        cfg = ExperimentConfig(experiment="lowerbound", problem_class="convex", p=2.0, q=2.0, c1=1.0, c2=1.0,
                               n=500, replications=2, out=str(tmp_path / "lb.csv"))
        report = lower_bound_experiment(cfg)
        assert report.passed and [v.relation for v in report.verdicts] == [">=", "<"]
        recorded = json.loads((tmp_path / "lb.json").read_text())["details"]["verdicts"]
        assert recorded == report.details["verdicts"] == [v._asdict() for v in report.verdicts]
        assert recorded[0]["value"] == report.details["mean_plus_3se"]
        assert recorded[0]["margin"] == report.details["mean_plus_3se"] - report.details["floor"]
        failed = report._replace(verdicts=(*report.verdicts, verdict("x", 1.0, "<", 1.0)))
        assert not failed.passed

    PROBE = ["probe", "--oracle", "one-point,fn=quadratic", "--delta-grid", "0.5 0.1", "--reps", "2000"]

    @pytest.mark.parametrize("argv, name, line", [
        (["rate", "--estimator", "spsa", *TestCli.SHORT_RATE], "fit_rate", "exponent nan"),
        (["regret", "--estimator", "spsa", *TestCli.SHORT_RATE], "fit_rate", "exponent nan"),
        (TestCli.LB, "_fan_out", "mean nan + 3se nan"),
        (TestCli.LB, "run", "exact-oracle sanity nan"),
        (TestCli.LB, "minimax_lower_bound:nan", "floor nan"),
        (TestCli.LB, "minimax_lower_bound:inf", "floor inf"),
        (PROBE, "probe_bias_variance:bias", "bias=nan"),
        (PROBE, "probe_bias_variance:variance", "var=nan"),
    ])
    def test_a_nan_or_an_infinite_bound_fails_the_experiment(self, argv, name, line, tmp_path, capsys, monkeypatch):
        # a NaN in the measured value of each experiment's verdicts in turn,
        # and a floor (the lower bound's bound) that is NaN or infinite; the
        # experiment imports the floor's closed form from its module at each call
        name, _, case = name.partition(":")
        owner = adversarial if name == "minimax_lower_bound" else experiments
        real = getattr(owner, name)
        nan = {
            "fit_rate": lambda points: real(points)._replace(exponent=math.nan),
            "_fan_out": lambda cfg, groups: [(np.full_like(err, math.nan), reg) for err, reg in real(cfg, groups)],
            "run": lambda oracle, *a, **k: (real(oracle, *a, **k)._replace(error=math.nan)
                                            if isinstance(oracle, ExactGradientOracle) else real(oracle, *a, **k)),
            "minimax_lower_bound": lambda *a: float(case),
            "probe_bias_variance": lambda *a: real(*a)._replace(
                **{"bias_est" if case == "bias" else "var_est": math.nan}),
        }[name]
        monkeypatch.setattr(owner, name, nan)
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        out = capsys.readouterr()
        first = out.out.splitlines()[0]
        assert out.err == "" and line in out.out
        assert first.endswith("-> FAIL") or first.endswith(": envelopes VIOLATED")
        assert json.loads((tmp_path / "out.json").read_text())["passed"] is False


class TestCliCells:
    """Every cell the CLI writes parses: numbers as floats, text columns as text."""

    TEXT = {"experiment_id", "oracle"}

    @pytest.mark.parametrize("argv", [
        ["rate", "--class", "convex", "--estimator", "one-point", "--horizons", "300 1000 3000",
         "--reps", "3", "--tol", "5.0"],
        ["regret", "--class", "convex", "--estimator", "spsa", "--horizons", "300 1000 3000",
         "--reps", "3", "--tol", "5.0"],
        ["lowerbound", "--class", "sc", "--p", "1", "--q", "2", "--c1", "1", "--c2", "1",
         "--n", "2000", "--reps", "4"],
        ["probe", "--oracle", "one-point,fn=quadratic,sigma=1.0", "--delta-grid", "0.5 0.1",
         "--reps", "2000"],
    ])
    def test_every_cell_parses(self, tmp_path, argv, capsys):
        out = tmp_path / "cells.csv"
        assert main(argv + ["--seed", "3", "--out", str(out)]) in (0, 1)
        rows = read_rows(out)
        assert rows
        for row in rows:
            for column, cell in row.items():
                if column not in self.TEXT and cell != "":
                    assert math.isfinite(float(cell)), (column, cell)
        json.loads(out.with_suffix(".json").read_text(), parse_constant=pytest.fail)


class TestLanes:
    # Per-replication errors at n = 3000 of two acceptance rate cells, as
    # the numpy loop computes them where no C compiler runs, each lane's
    # noise read from the jumped twin of its generator; the compiled kernel
    # gives the same values.
    PINNED = {
        ("smoothing", "uncontrolled"): [0.011466332371282917, 0.013439742938575527,
                                        0.010105426681896512, 0.0118396399684495],
        ("spsa", "controlled"): [0.012790907545222385, 0.016007477687052907,
                                 0.018809120715076233, 0.01343410940618961],
    }

    @pytest.mark.parametrize("estimator, noise", sorted(PINNED))
    def test_rate_cells_match_recorded_errors(self, tmp_path, estimator, noise):
        cfg = ExperimentConfig(
            experiment="rate", problem_class="convex", estimator=estimator, noise=noise,
            sigma=3.0, horizons=(1000, 3000, 10000), replications=4, master_seed=20260810,
            tolerance=5.0, out=str(tmp_path / "pin.csv"),
        )
        rate_experiment(cfg)
        errors = [float(r["error"]) for r in read_rows(cfg.out) if r["n"] == "3000"]
        np.testing.assert_allclose(errors, self.PINNED[(estimator, noise)], rtol=1e-9, atol=0)

    def test_negative_errors_are_counted(self, tmp_path, monkeypatch):
        # an x* at the far end of [0, 1], where f is largest, makes every error negative
        from zograd.harness import experiments

        build = experiments.build_function
        monkeypatch.setattr(
            experiments, "build_function",
            lambda spec, cls="convex": _rebuilt(build(spec, cls), argmin=lambda body: body.lower),
        )
        cfg = ExperimentConfig(experiment="rate", horizons=(300, 1000, 3000), replications=3,
                               master_seed=5, tolerance=5.0, out=str(tmp_path / "neg.csv"))
        report = rate_experiment(cfg)
        assert [h["negative_errors"] for h in report.details["per_horizon"]] == [3, 3, 3]
        assert all(float(r["error"]) < 0 for r in read_rows(cfg.out))

    def test_non_finite_run_names_the_replication(self, monkeypatch):
        from zograd.harness import experiments

        def poisoned(*args, **kwargs):
            raise NonFiniteIterate(1, 1, 1024)

        monkeypatch.setattr(experiments, "run", poisoned)
        cfg = ExperimentConfig(experiment="rate", horizons=(300, 1000, 3000), replications=6,
                               master_seed=5, workers=1)
        group = experiments._Group("optimization", 300, 0, 6, manual_schedule(0.1, ("const", 0.01)))
        with pytest.raises(NonFiniteIterate, match="replication 4"):
            experiments._run_shard(cfg, [(group, rep) for rep in range(3, 6)])


class TestRowsReplay:
    """Every CSV row is its replication: one run on the row's stream, under
    the schedule whose delta the row records, gives its error and regret."""

    @pytest.mark.parametrize("experiment", ["rate", "regret", "lowerbound"])
    def test_each_row_replays_alone(self, tmp_path, experiment):
        from zograd.adversarial import AdversarialOracle
        from zograd.harness import experiments

        cfg = ExperimentConfig(
            experiment=experiment, problem_class="sc" if experiment == "lowerbound" else "convex",
            horizons=(300, 600, 1000), replications=3, master_seed=7, tolerance=5.0, workers=2,
            p=1.0 if experiment == "lowerbound" else None, n=2000, out=str(tmp_path / "rows.csv"),
        )
        {"rate": rate_experiment, "regret": regret_experiment, "lowerbound": lower_bound_experiment}[experiment](cfg)
        mode = "regret" if experiment == "regret" else "optimization"
        for row in read_rows(cfg.out):
            if experiment == "lowerbound":
                inst = experiments._lowerbound_pair(cfg)[0 if row["experiment_id"].endswith("+") else 1]
                oracle = AdversarialOracle(inst)
                env = inst.envelope
            else:
                oracle = build_estimator(cfg, build_function(cfg.function, cfg.problem_class))
                env = oracle.envelope
            f, n = oracle.target, int(row["n"])
            schedule = experiments.schedule_for(cfg.problem_class, env, f, n, mode)
            assert schedule.delta == float(row["delta"])
            trace = run(oracle, schedule, n, mode=mode,
                        rng=RngStream(cfg.master_seed, int(row["seed"])).generator())
            assert trace.error == float(row["error"]), row
            if experiment == "regret":
                assert trace.regret == float(row["regret"]), row
            else:
                assert row["regret"] == ""


class TestCommittedResults:
    RESULTS = Path(__file__).resolve().parent.parent / "results"

    @pytest.mark.parametrize("name", ["lowerbound_convex", "lowerbound_sc"])
    def test_acceptance_lowerbound_reproduces_its_files(self, script_cell, name, capsys):
        self._reproduces(*script_cell("run_acceptance", name))

    # the acceptance criteria check these same runs (conftest.acceptance_cell)
    @pytest.mark.parametrize("name", ["rate_convex_smoothing", "rate_convex_onepoint", "rate_sc_smoothing",
                                      "rate_controlled_spsa", "regret_convex"])
    def test_acceptance_rate_and_regret_reproduce_their_files(self, acceptance_cell, name, capsys):
        self._reproduces(*acceptance_cell(name)[:2])

    @pytest.mark.parametrize("name", [f"probe_{i}" for i in range(7)])
    def test_probe_envelopes_reproduces_its_files(self, script_cell, name, capsys):
        self._reproduces(*script_cell("probe_envelopes", name))

    @pytest.mark.parametrize("name", [f"probe_{i}" for i in range(7)])
    def test_probe_envelopes_reproduces_its_files_with_numpy_draws(self, script_cell, name, capsys, monkeypatch):
        # the test above makes the replies in the library where it can be built
        monkeypatch.setattr(_lanes, "kernel", lambda: None)
        self._reproduces(*script_cell("probe_envelopes", name))

    @pytest.mark.parametrize("name", ["probe_2", "probe_3"])
    def test_exp_probes_reproduce_their_files_with_the_exp_loop_refused(self, script_cell, name, capsys,
                                                                         monkeypatch, caplog):
        # the probes of exp on numpy's draws and estimate where the library
        # holds no checked exp loop
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        monkeypatch.setattr(_lanes, "_loaded", [])
        real = _lanes_build.loop_mismatch
        monkeypatch.setattr(_lanes_build, "loop_mismatch",
                            lambda apply, name: "it differs from np.exp" if name == "exp" else real(apply, name))
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            self._reproduces(*script_cell("probe_envelopes", name))
        assert caplog.text.count("replies from numpy (exp loop not bound)") == 4
        assert not _lanes.loop_bound("exp")

    def _reproduces(self, code: int, out: Path) -> None:
        # a run of the script's own argument vector, written elsewhere
        assert code == 0
        assert out.read_bytes() == (self.RESULTS / out.name).read_bytes()
        fresh = json.loads(out.with_suffix(".json").read_text())
        committed = json.loads((self.RESULTS / out.with_suffix(".json").name).read_text())
        assert fresh["config"].pop("out") == str(out)
        committed["config"].pop("out")
        assert fresh == committed


class TestScaleRelation:
    """The scale relation, a metamorphic one, on the oracles of the rate and
    regret acceptance cells 01, 02, 03, 04 and 08, and of the two-point
    uncontrolled SPSA cell at sigma 3: f -> lam*f and sigma -> lam*sigma
    leave delta and every iterate and evaluation point unchanged, and
    multiply every error and regret by lam, in both modes.

    Why it holds.  Every envelope constant is homogeneous in (f, sigma): c1
    is L times a moment of the scheme, so it scales by lam; c2 sums sigma**2,
    sup|f|**2, span**2, sup|f'|**2 and L**2 terms, so it scales by lam**2
    (the controlled cell's slope multiplies the point, not f, and stays).
    Then:

    - convex optimization (``schedule_opt_convex``, type I and II): a ~
      c1**(q/(2p+q)) * c2**(p/(2p+q)) scales by lam and delta ~
      c1**(-2/(2p+q)) * c2**(1/(2p+q)) stays, so eta = alpha/(a t**r + L),
      alpha = 1, scales by 1/lam;
    - convex regret (``schedule_regret``): c1_hat (C1, r_sup*C1 for type I,
      plus L/4 at p = 2; r_sup is the domain's) scales by lam, delta ~
      (c2/c1_hat**2)**(1/(2p+q)) stays and the constant eta ~
      c2**(-p/(2p+q)) * c1_hat**(-q/(2p+q)) scales by 1/lam; at q = 0 (cell
      04) delta is the floor 1e-9, which stays too;
    - strongly convex (cell 03): ``sc_alpha`` = max(4, 3L/mu) reads f only
      through L/mu, which stays, so alpha is fixed (4 here, where L = mu =
      1), and with it ``schedule_opt_sc``'s log factor log n + 1 +
      alpha*mu/(alpha*mu - 2L); its delta ~ (c2/(mu*c1))**(1/(p+q)) and
      the strongly convex regret delta ~ (c2/(alpha*mu*c1_hat))**(1/(p+q))
      stay, and eta_t = 2/(mu t) scales by 1/lam.

    On the same draws every reply G = (f(y) + sigma*xi)*w then scales by
    lam, so every step eta*G and every iterate stay, and f(x) - f* and the
    regret scale by lam.

    Only rounding is allowed.  lam = 2 and 4 round nowhere but in the
    schedules' powers; lam = 3 rounds f, sigma and all that follows.  A
    reply carries a relative rounding of about eps*|f|/(delta*|f'|) through
    the difference of f over 2 delta, and n steps add it up, so each
    quantity is held to n*eps/delta relative (2.2e-13/delta at n = 1000;
    measured at most 78 eps/delta)."""

    CELLS = {"01": "rate_convex_smoothing", "02": "rate_convex_onepoint", "03": "rate_sc_smoothing",
             "04": "rate_controlled_spsa", "08": "regret_convex", "spsa-uncontrolled": None}
    N, LANES = 1000, 4

    def _config(self, cell: str) -> ExperimentConfig:
        """The cell's config: the acceptance script's invocation, or for the
        two-point uncontrolled cell, which no acceptance cell runs, a rate
        config at the defaults."""
        from conftest import _invocation

        if self.CELLS[cell] is None:
            return ExperimentConfig(experiment="rate", problem_class="convex", estimator="spsa",
                                    noise="uncontrolled", sigma=3.0)
        argv = _invocation("run_acceptance", self.CELLS[cell])
        return _load_config(build_parser(argv[0]).parse_args(argv), argv[0])

    def _run(self, cfg: ExperimentConfig, lam: float, mode: str):
        spec = experiments.default_function_spec(cfg.problem_class)
        scaled = {**spec, "a": [lam * a for a in spec["a"]], "b": [lam * b for b in spec["b"]],
                  "offset": lam * spec["offset"]}
        f = build_function(scaled, cfg.problem_class)
        oracle = build_estimator(cfg.with_overrides(sigma=lam * cfg.sigma), f)
        schedule = experiments.schedule_for(cfg.problem_class, oracle.envelope, f, self.N, mode)
        rngs = core.generators(cfg.master_seed, range(self.LANES))
        return f, schedule.delta, run(oracle, schedule, self.N, rng=rngs, mode=mode, record=True)

    @pytest.mark.parametrize("path", ["kernel", "numpy loop"])
    @pytest.mark.parametrize("mode", ["optimization", "regret"])
    @pytest.mark.parametrize("cell", list(CELLS))
    def test_scaling_f_and_sigma_scales_errors_and_regret(self, cell, mode, path, monkeypatch):
        cfg = self._config(cell)
        assert cfg.function == {"name": "auto"}  # the default quadratic, which _run scales
        if path == "kernel" and _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        if path == "numpy loop":
            monkeypatch.setattr(_lanes, "kernel", lambda: None)
        f, delta, base = self._run(cfg, 1.0, mode)
        tol = self.N * np.finfo(float).eps / delta
        for lam in (2.0, 3.0, 4.0):
            _, scaled_delta, got = self._run(cfg, lam, mode)
            assert scaled_delta == pytest.approx(delta, rel=8 * np.finfo(float).eps, abs=0)
            for name in ("xs", "ys"):
                np.testing.assert_allclose(getattr(got, name), getattr(base, name), rtol=0, atol=tol, err_msg=name)
            # f(x) - f* is a difference of values of the size of f on the domain
            np.testing.assert_allclose(got.error / lam, base.error, rtol=0, atol=tol * f.sup_abs())
            if mode == "regret":
                np.testing.assert_allclose(got.regret / lam, base.regret, rtol=tol)
            else:
                assert got.regret is None


class TestWorkerDeterminism:
    def test_bytes_identical_across_worker_counts(self, tmp_path):
        # 5 horizons x 3 replications: two workers cut the 15 lanes 8/7 and
        # three cut them 5/5/5, both within a horizon, so every run holds
        # lanes of several horizons, some ending within a chunk
        base = dict(horizons=(200, 400, 800, 1600, 3200), replications=3, master_seed=17, tolerance=5.0)
        for experiment, run_experiment in (("rate", rate_experiment), ("regret", regret_experiment)):
            outs = []
            for workers in (1, 2, 3):
                cfg = ExperimentConfig(experiment=experiment, workers=workers,
                                       out=str(tmp_path / f"{experiment}{workers}.csv"), **base)
                run_experiment(cfg)
                outs.append(Path(cfg.out).read_bytes())
            assert outs[0] == outs[1] == outs[2], experiment

    def test_lowerbound_bytes_identical_across_worker_counts(self, tmp_path):
        # three workers cut the 2 x 10 replications into shards of 7/7/6,
        # so an arm is split across workers, for both classes of hard pair
        for problem_class in ("convex", "sc"):
            outs = []
            for workers in (1, 2, 3):
                cfg = ExperimentConfig(
                    experiment="lowerbound", problem_class=problem_class, p=2.0, q=2.0, c1=1.0, c2=1.0,
                    n=3000, replications=10, master_seed=5, workers=workers,
                    out=str(tmp_path / f"lb-{problem_class}{workers}.csv"),
                )
                lower_bound_experiment(cfg)
                outs.append(Path(cfg.out).read_bytes())
            assert outs[0] == outs[1] == outs[2], problem_class


class TestThreadedFanOut:
    """Workers are threads of this process: a pool with one thread per
    shard, errors raised as at one worker, and no process pool imported."""

    LOWERBOUND = dict(experiment="lowerbound", problem_class="convex", p=2.0, q=2.0, c1=1.0, c2=1.0, n=3000,
                      replications=3, master_seed=5)

    def test_pool_has_one_thread_per_shard(self, tmp_path, monkeypatch):
        # 8 workers on 3 lanes: shards of one lane each, a pool of 3 threads
        from zograd.harness import experiments

        asked = []

        class Recording(experiments.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
        outs = []
        for workers in (1, 8):
            cfg = ExperimentConfig(experiment="rate", horizons=(300, 1000, 3000), replications=1, master_seed=5,
                                   tolerance=5.0, workers=workers, out=str(tmp_path / f"rate{workers}.csv"))
            rate_experiment(cfg)
            outs.append(Path(cfg.out).read_bytes())
        assert outs[0] == outs[1]
        assert asked == [3]

    def test_non_finite_shard_raises_as_at_one_worker(self, tmp_path, monkeypatch):
        # c2 = inf on the second arm only: at 2 workers the second shard,
        # a worker thread, raises while the first completes; each worker
        # imports the oracle class from its module when it builds an arm's oracle
        real = adversarial.AdversarialOracle

        def poisoned(inst):
            if inst.v < 0:
                envelope = OracleEnvelope(**{**vars(inst.envelope), "c2": math.inf})
                inst = HardInstance(**{**vars(inst), "envelope": envelope})
            return real(inst)

        monkeypatch.setattr(adversarial, "AdversarialOracle", poisoned)
        raised = []
        for workers in (1, 2):
            cfg = ExperimentConfig(workers=workers, out=str(tmp_path / f"lb{workers}.csv"), **self.LOWERBOUND)
            with pytest.raises(NonFiniteIterate, match="replication 0") as info:
                lower_bound_experiment(cfg)
            raised.append((info.value.lane, info.value.first, info.value.last, str(info.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("cause", ["headers", "accessor", "check"])
    def test_unbound_tanh_runs_softabs_on_the_numpy_loop(self, cause, tmp_path, monkeypatch, caplog):
        # without numpy's tanh loop, the softabs runs of a 2-worker
        # lower-bound experiment take the numpy loop, with the same bytes
        if _lanes.kernel() is None or not _lanes.loop_bound("tanh"):
            pytest.skip("the lane kernel cannot be built with numpy's tanh loop here")
        if cause == "headers" and shutil.which(_lanes.CC) is None:  # it builds into an empty cache
            pytest.skip("no C compiler here, and a cached library loads without one")
        cfg = lambda name: ExperimentConfig(workers=2, out=str(tmp_path / name), **self.LOWERBOUND)
        lower_bound_experiment(cfg("bound.csv"))
        monkeypatch.setattr(_lanes, "_loaded", [])
        if cause == "headers":
            monkeypatch.setattr(_lanes, "PYTHON_H", tmp_path / "no-such-file")
            monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
        elif cause == "accessor":  # np.tanh's loop 1 is f->f, which the library refuses to bind
            monkeypatch.setattr(_lanes_build, "LOOP_SIGNATURE", "f->f")
        else:
            monkeypatch.setattr(_lanes_build, "loop_mismatch", lambda apply, name: "it differs from np.tanh")
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            lower_bound_experiment(cfg("unbound.csv"))
        assert _lanes.kernel() is not None and not _lanes.loop_bound("tanh")
        assert Path(cfg("unbound.csv").out).read_bytes() == Path(cfg("bound.csv").out).read_bytes()
        assert caplog.text.count("without numpy's tanh loop (softabs runs and probes take numpy)") == 1
        assert caplog.text.count("lane kernel loaded") == 1
        # each arm's adversarial run, then each arm's exact-gradient sanity run
        assert caplog.text.count("steps on the numpy loop") == 4
        assert "compiled lane kernel" not in caplog.text

    @pytest.mark.parametrize("library, reason", [
        (NoTables, "numpy's random_standard_normal gave no ziggurat tables"),
        (WrongSeeding, "its seeding differs from numpy's"),
        (MomentsOff, "its moments differ from numpy's"),
    ], ids=["normals", "seeding", "moments"])
    def test_a_library_that_fails_a_premise_is_not_used(self, library, reason, tmp_path, unchecked_library,
                                                        monkeypatch, caplog):
        # checked when a library of the test's own first loads, and then
        # read from the stored verdict: no kernel, one DEBUG line each load,
        # one check in all, and the bytes of the library's runs and probes
        rate = lambda name: ExperimentConfig(experiment="rate", horizons=(300, 1000, 3000), replications=2,
                                             master_seed=5, tolerance=5.0, out=str(tmp_path / name))
        lower = lambda name: ExperimentConfig(workers=2, out=str(tmp_path / name), **self.LOWERBOUND)
        probe = lambda name: ExperimentConfig(experiment="probe", oracle_spec="one-point,fn=quadratic,x=0.25",
                                              delta_grid=(0.5, 0.1), probe_reps=999, out=str(tmp_path / name))
        runs = {"rate": (rate_experiment, rate), "lb": (lower_bound_experiment, lower),
                "probe": (probe_experiment, probe)}
        for name, (experiment, cfg) in runs.items():
            experiment(cfg(f"{name}-used.csv"))
        assert _lanes.kernel() is not None
        unchecked_library.with_suffix(".verdict").unlink()  # the copy's premises are checked again as it loads
        monkeypatch.setattr(_lanes, "_Library", library)
        checks, check = [], _lanes_build.check_premises
        monkeypatch.setattr(_lanes_build, "check_premises", lambda *args: checks.append(1) or check(*args))
        line = f"lane kernel unavailable, the numpy loop runs: {unchecked_library} refused: {reason}"
        for stored in ("checked", "stored"):
            monkeypatch.setattr(_lanes, "_loaded", [])
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="zograd"):
                for name, (experiment, cfg) in runs.items():
                    experiment(cfg(f"{name}-{stored}.csv"))
            assert _lanes.kernel() is None
            assert [r.getMessage() for r in caplog.records if r.name == "zograd._lanes"] == [line]
            assert caplog.text.count("steps on the numpy loop") == caplog.text.count("steps on the ") > 0
            assert caplog.text.count("replies from numpy (no lane kernel)") == 2
            for name in runs:
                got, want = tmp_path / f"{name}-{stored}.csv", tmp_path / f"{name}-used.csv"
                assert got.read_bytes() == want.read_bytes()
        assert checks == [1]
        assert unchecked_library.with_suffix(".verdict").read_text() == f"refused: {reason}\n"

    def test_kernel_load_reads_numpys_normal_tables(self, monkeypatch, caplog):
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        monkeypatch.setattr(_lanes, "_loaded", [])
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            assert _lanes.kernel() is not None
        assert any((ctypes.c_uint64 * 256).in_dll(_lanes._library().lib, "zg_ki"))
        assert caplog.text.count("lane kernel loaded from") == 1

    def test_import_leaves_out_numpy_random(self):
        # it costs about 9 ms of start-up; the first run imports it with the lane library, for its generators
        assert _setup_modules("m.startswith('numpy.random')") == []

    def test_import_leaves_out_process_pools(self):
        # nor the compiled path and the cache key's hash, which each run imports on first use
        assert _setup_modules("m.partition('.')[0] == 'multiprocessing' "
                              "or m in ('concurrent.futures.process', 'zograd._lanes', 'hashlib')") == []

    def test_import_leaves_out_dataclasses(self):
        # its records generated their methods as source text and compiled it, about 9 ms of start-up
        assert _setup_modules("m == 'dataclasses'") == []

    # _streams, which seeded the lanes before the library did, stays out by name
    LAZY_MODULES = ("m in ('zograd.adversarial', 'zograd.harness.checks', 'zograd._streams', 'zograd._lanes_build',"
                    " 'zograd._lanes_probe', 'subprocess', 'numpy.ctypeslib')")

    def test_import_leaves_out_the_adversarial_module_and_the_check_suite(self):
        # only the lower bound, the adversarial probe specs and the check
        # suite run the first two; a build, a check of the library's
        # premises or a bind of numpy's loop the build code; a probe the
        # probe code; and no command numpy.ctypeslib
        assert _setup_modules(self.LAZY_MODULES) == []

    @pytest.mark.parametrize("argvs, imported, loop", [
        ([["rate", "--horizons", "300 1000 3000", "--reps", "2", "--tol", "5"],
          ["regret", "--estimator", "spsa", "--horizons", "300 1000 3000", "--reps", "2", "--tol", "5"]], [], None),
        ([["lowerbound", "--class", "sc", "--p", "1", "--n", "2000", "--reps", "4"]], ["zograd.adversarial"], None),
        ([["lowerbound", "--class", "convex", "--p", "2", "--n", "2000", "--reps", "4"]], ["zograd.adversarial"],
         "tanh"),
        ([["probe", "--oracle", "smoothing,fn=exp,sigma=1.0,x=0.0", "--delta-grid", "0.5", "--reps", "64"]],
         ["zograd._lanes_probe"], "exp"),
        ([["probe", "--oracle", "one-point,fn=quadratic,sigma=1.0,x=0.25", "--delta-grid", "0.5", "--reps", "64"]],
         ["zograd._lanes_probe"], None),
    ], ids=["rate-and-regret", "lowerbound-sc", "lowerbound-convex", "probe-exp", "probe-quadratic"])
    def test_a_command_imports_only_what_it_runs(self, argvs, imported, loop):
        # with the library and its verdict cached (this process loads it
        # first), only a run that binds one of numpy's loops imports the
        # build and check code (_lanes_build), and only a build imports
        # subprocess; without a library, each process tries a build.  Only
        # a probe imports the probe code, and nothing numpy.ctypeslib
        library = _lanes._library()
        if library is None:
            imported = imported + ["subprocess", "zograd._lanes_build"]
        elif loop is not None:
            imported = imported + ["zograd._lanes_build"]
        assert _setup_modules(self.LAZY_MODULES, *argvs) == sorted(imported)

    # whether the process bound numpy's exp loop in the lane kernel, which
    # only the probes of exp need: its bind and check run in the first one
    EXP_BOUND = ("(lambda lanes: bool(lanes and lanes._loaded and lanes._loaded[0]"
                 " and 'exp' in lanes._loaded[0].loops))(sys.modules.get('zograd._lanes'))")

    @pytest.mark.parametrize("argv", [
        ["rate", "--horizons", "300 1000 3000", "--reps", "2", "--tol", "5"],
        ["regret", "--estimator", "spsa", "--horizons", "300 1000 3000", "--reps", "2", "--tol", "5"],
        ["lowerbound", "--class", "convex", "--p", "2", "--n", "2000", "--reps", "4"],
    ], ids=["rate", "regret", "lowerbound"])
    def test_a_run_leaves_numpys_exp_loop_unbound(self, argv):
        assert _in_fresh_process(self.EXP_BOUND, argv) is False

    def test_a_probe_of_exp_binds_numpys_exp_loop(self):
        if _lanes.kernel() is None or not _lanes.loop_bound("exp"):
            pytest.skip("the lane kernel cannot bind numpy's exp loop here")
        argv = ["probe", "--oracle", "smoothing,fn=exp,sigma=1.0,x=0.0", "--delta-grid", "0.5", "--reps", "64"]
        assert _in_fresh_process(self.EXP_BOUND, argv) is True

    # how many times the process checked the library's premises, and whether it loaded the library
    PREMISES_CHECKED = "[len(checks), bool(sys.modules['zograd._lanes']._loaded[0])]"
    COUNT_CHECKS = ("import zograd._lanes_build as build; checks = []; real = build.check_premises; "
                    "build.check_premises = lambda *args: checks.append(1) or real(*args)")

    @pytest.mark.parametrize("argvs", [
        [["rate", "--horizons", "300 1000 3000", "--reps", "2", "--tol", "5"]],
        [["regret", "--estimator", "spsa", "--horizons", "300 1000 3000", "--reps", "2", "--tol", "5"]],
        [["lowerbound", "--class", "convex", "--p", "2", "--n", "2000", "--reps", "4"]],
        [["probe", "--oracle", "one-point,fn=quadratic,sigma=1.0,x=0.25", "--delta-grid", "0.5 0.1", "--reps", "64"],
         ["probe", "--oracle", "adversarial-sc,v=-1,eps=0.2,x=0.4", "--reps", "64"]],
    ], ids=["rate", "regret", "lowerbound", "probe"])
    def test_a_stored_verdict_leaves_the_premises_unchecked(self, argvs):
        # this process loaded the library first, so its verdict is stored
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        assert _in_fresh_process(self.PREMISES_CHECKED, *argvs, setup=self.COUNT_CHECKS) == [0, True]


class TestBenchmarkTracer:
    """The benchmark's tracer (``perfbench/tracing.py``) wraps zograd's layer
    entry points by name and binds their parameters; its traced passes read
    the spans.  This runs them in tier-1, which leaves out ``perfbench/``."""

    def test_a_traced_rate_and_check_pass_and_their_runs_carry_a_cell(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        code = "\n".join([
            "import json, sys",
            f"sys.path.insert(0, {str(root / 'perfbench')!r})",
            "import tracing",
            "from zograd.harness import cli",
            f"tracer = tracing.Tracer({str(tmp_path)!r})",
            "tracing.install(tracer)",
            # the benchmark's smoothing rate cell at its horizons, which passes, and the check suite
            "rate = ['rate', '--sigma', '3.0', '--reps', '16', '--horizons', '1000 3000 10000']",
            "codes = [cli.main(rate), cli.main(['check'])]",
            "runs = [s['attrs'] for s in tracer.spans if s['name'] == 'solver.run']",
            "print(json.dumps({'codes': codes, 'cells': [r['cell'] for r in runs],"
            " 'steps': [r['steps'] for r in runs]}))",
        ])
        src = str(root / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        traced = json.loads(done.stdout.splitlines()[-1])
        assert traced["codes"] == [0, 0]
        # the rate's one run of all its lanes, then the check's recorded prox run and its two determinism runs
        assert traced["cells"] == ["smoothing", "spsa-2pt-recorded", "smoothing", "smoothing"]
        assert traced["steps"] == [9999, 499, 1999, 1999]


def _setup_modules(select: str, *argvs: list[str]) -> list[str]:
    """The modules ``m`` for which the expression ``select`` holds, sorted, in a
    fresh interpreter that imported zograd, its CLI and its experiments, and
    then ran ``cli.main(argv)`` for each of ``argvs``, each exiting 0."""
    return _in_fresh_process(f"sorted(m for m in sys.modules if {select})", *argvs)


def _in_fresh_process(expression: str, *argvs: list[str], setup: str = "pass"):
    """The value of ``expression``, through JSON, in a fresh interpreter that
    imported zograd, its CLI and its experiments, ran the statements
    ``setup``, and then ran ``cli.main(argv)`` for each of ``argvs``, each
    exiting 0."""
    run = "".join(f"assert zograd.harness.cli.main({argv!r}) == 0; " for argv in argvs)
    code = ("import json, sys, zograd, zograd.harness.cli, zograd.harness.experiments; "
            f"{setup}; {run}print(json.dumps({expression}))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
