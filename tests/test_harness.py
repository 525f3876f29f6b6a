import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zograd import _lanes
from zograd.adversarial import HardInstance
from zograd.core import OracleEnvelope, RngStream
from zograd.estimators import ExactGradientOracle
from zograd.harness.config import ConfigError, ExperimentConfig
from zograd.harness.experiments import (
    build_estimator,
    build_function,
    lower_bound_experiment,
    parse_oracle_spec,
    probe_experiment,
    rate_experiment,
    read_rows,
    regret_experiment,
    write_rows,
)
from zograd.harness.fitting import fit_rate
from zograd.harness.probes import probe_bias_variance
from zograd.harness.cli import main
from zograd.solver import NonFiniteIterate, Regularizer, manual_schedule, run
from zograd.testbed import quadratic

SMALL_HORIZONS = (300, 1000, 3000, 10000)


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
            inst.oracle(), np.array([0.4]), delta, 100_000, RngStream(1, 1).generator()
        )
        assert res.bias_est == pytest.approx(min(0.2, delta), abs=5 * res.bias_se)

    def test_gaussian_noise_variance_tight(self):
        env = OracleEnvelope(c1=1.0, p=1.0, c2=2.0, q=2.0)
        inst = HardInstance("strongly_convex", +1, 0.2, env)
        delta = 0.25
        res = probe_bias_variance(
            inst.oracle(), np.array([0.1]), delta, 1_000_000, RngStream(1, 2).generator()
        )
        assert res.var_est == pytest.approx(env.c2_value(delta), rel=0.05)

    def test_rejects_tiny_reps(self):
        with pytest.raises(Exception):
            probe_bias_variance(
                ExactGradientOracle(quadratic([1.0])), np.array([0.0]), 0.1, 8,
                RngStream(1, 3).generator(),
            )


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="rate", problem_class="sc", estimator="one-point", sigma=2.5,
            horizons=(100, 1000), replications=4, master_seed=99, out="x.csv",
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        again = ExperimentConfig.from_json_file(path)
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
        with pytest.raises(ConfigError, match="controlled"):
            build_estimator(ExperimentConfig(estimator="smoothing", noise="controlled"), f)


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

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = ExperimentConfig(
            experiment="rate", horizons=SMALL_HORIZONS, replications=2,
            master_seed=5, tolerance=5.0,
        )
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "r.csv"
        code = main(["rate", "--config", str(cfg_path), "--reps", "3", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == len(SMALL_HORIZONS) * 3  # CLI override beat the file

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

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
        draws = "in C" if _lanes.lane_draws() is not None else "from the numpy steppers"
        # each arm's adversarial run over its 4 lanes, then each arm's one exact-gradient sanity run
        assert loud.err == (f"DEBUG:zograd.solver:run: 4 lanes, 1999 steps on the {path}, draws {draws}\n" * 2
                            + f"DEBUG:zograd.solver:run: 1 lanes, 1999 steps on the {path}, draws {draws}\n" * 2)
        assert logging.getLogger("zograd").handlers == []  # nothing left behind

    def test_bad_log_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--log-level", "LOUD"])
        assert info.value.code == 2
        assert "--log-level" in capsys.readouterr().err


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
    # the per-replication scalar loop computed them before runs became lanes.
    PINNED = {
        ("smoothing", "uncontrolled"): [0.015527499914076648, 0.01187801284457124,
                                        0.008975403110628388, 0.017267981779142128],
        ("spsa", "controlled"): [0.017936809067281567, 0.018347160374527327,
                                 0.013014713173771675, 0.012077275051557201],
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
        # an f_star above the true minimum makes every error negative
        from zograd.harness import experiments

        build = experiments.build_function
        monkeypatch.setattr(
            experiments, "build_function",
            lambda spec, cls="convex": dataclasses.replace(build(spec, cls), f_star=1.0),
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
            experiments._run_shard(cfg, [(group, range(3, 6))])


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
            schedule = experiments.schedule_for(cfg.problem_class, env, f, n, mode, Regularizer())
            assert schedule.delta == float(row["delta"])
            trace = run(oracle, schedule, n, f.domain, Regularizer(), mode=mode,
                        rng=RngStream(cfg.master_seed, int(row["seed"])).generator())
            assert trace.error == float(row["error"]), row
            if experiment == "regret":
                assert trace.regret == float(row["regret"]), row
            else:
                assert row["regret"] == ""


class TestCommittedResults:
    RESULTS = Path(__file__).resolve().parent.parent / "results"

    @pytest.mark.parametrize("name", ["lowerbound_convex", "lowerbound_sc"])
    def test_acceptance_lowerbound_reproduces_its_files(self, tmp_path, name, capsys):
        # the argument vector the acceptance script runs, writing to tmp_path
        argv = next(a for a in _acceptance_invocations() if a[-1].endswith(f"{name}.csv"))
        out = tmp_path / f"{name}.csv"
        assert main(argv[:-1] + [str(out)]) == 0
        assert out.read_bytes() == (self.RESULTS / f"{name}.csv").read_bytes()
        fresh = json.loads(out.with_suffix(".json").read_text())
        committed = json.loads((self.RESULTS / f"{name}.json").read_text())
        assert fresh["config"].pop("out") == str(out)
        committed["config"].pop("out")
        assert fresh == committed


def _acceptance_invocations() -> list[list[str]]:
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "scripts" / "run_acceptance.py"
    spec = importlib.util.spec_from_file_location("run_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INVOCATIONS


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
        # a worker thread, raises while the first completes
        from zograd.harness import experiments

        real = experiments.AdversarialOracle

        def poisoned(inst):
            if inst.v < 0:
                inst = dataclasses.replace(inst, envelope=dataclasses.replace(inst.envelope, c2=math.inf))
            return real(inst)

        monkeypatch.setattr(experiments, "AdversarialOracle", poisoned)
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
        if _lanes.kernel() is None or not _lanes.tanh_bound():
            pytest.skip("the lane kernel cannot be built with numpy's tanh loop here")
        cfg = lambda name: ExperimentConfig(workers=2, out=str(tmp_path / name), **self.LOWERBOUND)
        lower_bound_experiment(cfg("bound.csv"))
        monkeypatch.setattr(_lanes, "_loaded", [])
        if cause == "headers":
            monkeypatch.setattr(_lanes, "PYTHON_H", tmp_path / "no-such-file")
            monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
        elif cause == "accessor":  # np.tanh's loop 1 is f->f, which the library refuses to bind
            monkeypatch.setattr(_lanes, "TANH_SIGNATURE", "f->f")
        else:
            monkeypatch.setattr(_lanes, "_tanh_mismatch", lambda apply: "it differs from np.tanh")
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            lower_bound_experiment(cfg("unbound.csv"))
        assert _lanes.kernel() is not None and not _lanes.tanh_bound()
        assert Path(cfg("unbound.csv").out).read_bytes() == Path(cfg("bound.csv").out).read_bytes()
        assert caplog.text.count("without numpy's tanh loop (softabs runs take the numpy loop)") == 1
        assert caplog.text.count("lane kernel loaded") == 1
        # each arm's adversarial run, then each arm's exact-gradient sanity run
        assert caplog.text.count("steps on the numpy loop") == 4
        assert "compiled lane kernel" not in caplog.text

    def test_import_leaves_out_process_pools(self):
        code = ("import sys, zograd, zograd.harness.cli, zograd.harness.experiments; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing' "
                "or m == 'concurrent.futures.process'))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
