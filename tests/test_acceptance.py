"""Acceptance suite: one test per criterion, at full scale and the stated
tolerances.  Each prints a PASS line with the measured quantities (visible
with `pytest -s` or in the verbose test listing)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from zograd.adversarial import (
    bias_excess_on_grid,
    gap_deviation_on_grid,
    hard_pair,
    minimax_lower_bound,
    optimal_separation,
)
from zograd.core import RngStream, interval
from zograd.estimators import EstimatorOracle, SF, SPSA, SURFACE, UncontrolledNoise
from zograd.harness.checks import run_checks
from zograd.harness.cli import main as cli_main
from zograd.harness.config import ExperimentConfig
from zograd.harness.experiments import lower_bound_experiment
from zograd.solver import divergence_diameter, prox_inequality_gap, run, schedule_opt_sc
from zograd.testbed import (
    exp_one_d,
    finite_diff_check,
    kinked_quadratic,
    quadratic,
    separable,
    softabs,
    strongly_convex_pair,
)

from instruments import bias_slope, variance_slope

FULL_HORIZONS = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000)
SEED = 20260810
TOL_EXPONENT = 0.08
R2_MIN = 0.97
RESULTS = Path(__file__).resolve().parent.parent / "results"


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:02d}] PASS - {detail}")


def _cell(acceptance_cell, name, problem_class, estimator, noise, sigma):
    """The JSON summary and wall time of the run of scripts/run_acceptance.py
    that writes results/<name>.csv (``conftest.acceptance_cell``), once it is
    checked that the run had the criterion's inputs, at 16 replications over
    the full horizons, and wrote the rows that results/ holds byte for byte."""
    _, out, elapsed = acceptance_cell(name)
    summary = json.loads(out.with_suffix(".json").read_text())
    cfg = summary["config"]
    assert (cfg["problem_class"], cfg["estimator"], cfg["noise"], cfg["sigma"]) == (
        problem_class, estimator, noise, sigma)
    assert (tuple(cfg["horizons"]), cfg["replications"], cfg["master_seed"], cfg["tolerance"]) == (
        FULL_HORIZONS, 16, SEED, TOL_EXPONENT)
    assert out.read_bytes() == (RESULTS / out.name).read_bytes()
    return summary, elapsed


def test_criterion_01_rate_convex_smoothing(acceptance_cell):
    summary, elapsed = _cell(acceptance_cell, "rate_convex_smoothing", "convex", "smoothing", "uncontrolled", 3.0)
    assert abs(summary["exponent"] - 1 / 3) <= TOL_EXPONENT
    assert summary["r_squared"] >= R2_MIN
    assert elapsed <= 300.0
    _report(1, f"smoothing convex exponent {summary['exponent']:.4f} (target 1/3), "
               f"r2 {summary['r_squared']:.4f}, {elapsed:.0f}s")


def test_criterion_02_rate_convex_one_point(acceptance_cell):
    summary, _ = _cell(acceptance_cell, "rate_convex_onepoint", "convex", "one-point", "uncontrolled", 3.0)
    assert abs(summary["exponent"] - 1 / 4) <= TOL_EXPONENT
    assert summary["r_squared"] >= R2_MIN
    _report(2, f"one-point convex exponent {summary['exponent']:.4f} (target 1/4), "
               f"r2 {summary['r_squared']:.4f}")


def test_criterion_03_rate_strongly_convex(acceptance_cell):
    # the schedule must be eta_t = 2/(mu t)
    from zograd.harness.experiments import build_estimator, build_function, schedule_for

    cfg = ExperimentConfig(experiment="rate", problem_class="sc", estimator="smoothing",
                           sigma=0.3, horizons=FULL_HORIZONS, replications=16,
                           master_seed=SEED)
    f = build_function(cfg.function, "sc")
    oracle = build_estimator(cfg, f)
    sched = schedule_for("sc", oracle.envelope, f, 10_000, "optimization")
    assert sched.eta_form == ("inv_t", f.strong_convexity)
    assert (oracle.envelope.p, oracle.envelope.q) == (2.0, 2.0)

    summary, _ = _cell(acceptance_cell, "rate_sc_smoothing", "sc", "smoothing", "uncontrolled", 0.3)
    assert abs(summary["exponent"] - 1 / 2) <= TOL_EXPONENT
    _report(3, f"strongly convex exponent {summary['exponent']:.4f} (target 1/2), "
               f"r2 {summary['r_squared']:.4f}")


def test_criterion_04_rate_controlled_two_point(acceptance_cell):
    summary, _ = _cell(acceptance_cell, "rate_controlled_spsa", "convex", "spsa", "controlled", 3.0)
    assert summary["details"]["envelope"]["q"] == 0.0
    assert summary["details"]["envelope"]["p"] == 1.0
    assert abs(summary["exponent"] - 1 / 2) <= TOL_EXPONENT
    _report(4, f"controlled two-point exponent {summary['exponent']:.4f} (target 1/2), "
               f"r2 {summary['r_squared']:.4f}")


def test_criterion_05_estimator_slopes():
    deltas = (0.5, 0.2, 0.1, 0.05)
    fk = kinked_quadratic()
    fe = exp_one_d()
    bias_cells = [
        ("one-point/strictly-convex-smooth", EstimatorOracle(fk, SF, UncontrolledNoise(0.0), "one_point"), 1.0, 200_000),
        ("spsa-two-point/C3", EstimatorOracle(fe, SPSA, UncontrolledNoise(0.0), "two_point", function_class="c3"), 2.0, 10_000),
        ("smoothing/smooth", EstimatorOracle(fe, SURFACE, UncontrolledNoise(0.0), "one_point"), 2.0, 10_000),
    ]
    measured = []
    for idx, (name, oracle, p, reps) in enumerate(bias_cells):
        slope, _ = bias_slope(oracle, np.array([0.0]), deltas, reps, RngStream(SEED, 900 + idx).generator())
        assert abs(slope - p) <= 0.2, (name, slope)
        measured.append(f"{name}: {slope:.3f}")
    var_cells = [
        EstimatorOracle(fk, SF, UncontrolledNoise(1.0), "one_point"),
        EstimatorOracle(fe, SPSA, UncontrolledNoise(1.0), "two_point", function_class="c3"),
        EstimatorOracle(fe, SURFACE, UncontrolledNoise(1.0), "one_point"),
    ]
    for idx, oracle in enumerate(var_cells):
        slope, _ = variance_slope(oracle, np.array([0.0]), deltas, 100_000, RngStream(SEED, 910 + idx).generator())
        assert abs(slope + 2.0) <= 0.2, slope
        measured.append(f"var{idx}: {slope:.3f}")
    _report(5, "; ".join(measured))


def test_criterion_06_adversarial_exactness():
    worst_bias = -math.inf
    worst_defect = 0.0
    eps_star = optimal_separation("convex_smooth", 2.0, 2.0, 1.0, 1.0, 10_000)
    cases = [
        ("convex_smooth", 2.0, 2.0, eps_star),
        ("convex_smooth", 1.0, 2.0, 0.1),
        ("strongly_convex", 1.0, 2.0, 0.1414),
        ("strongly_convex", 2.0, 2.0, 0.2),
    ]
    for problem, p, q, eps in cases:
        plus, minus = hard_pair(problem, p, q, 1.0, 1.0, eps)
        for inst in (plus, minus):
            worst_bias = max(worst_bias, bias_excess_on_grid(inst))
        excess, defect = gap_deviation_on_grid(plus, minus)
        assert excess <= 1e-12
        if problem == "strongly_convex":
            worst_defect = max(worst_defect, defect)
    assert worst_bias <= 1e-12  # zero violations up to float roundoff
    assert worst_defect <= 1e-12
    _report(6, f"bias excess {worst_bias:.2e} <= 0, sc gap identity defect {worst_defect:.2e}")


def test_criterion_07_lower_bound_floors():
    results = []
    for problem_class, p, q in (("convex", 2.0, 2.0), ("sc", 1.0, 2.0)):
        cfg = ExperimentConfig(
            experiment="lowerbound", problem_class=problem_class, p=p, q=q,
            c1=1.0, c2=1.0, n=10_000, replications=64, master_seed=SEED,
        )
        report = lower_bound_experiment(cfg)
        d = report.details
        if problem_class == "convex":
            assert d["floor"] == pytest.approx(9 / 20 * (1 / 25) ** (1 / 3) * 10_000 ** (-1 / 3))
        else:
            assert d["floor"] == pytest.approx(0.5 * 10_000**-0.5)
        assert d["mean_error"] + 3.0 * d["se"] >= d["floor"]
        assert d["exact_oracle_error"] < d["floor"]
        results.append(f"{problem_class}: mean+3se {d['mean_plus_3se']:.4g} >= floor {d['floor']:.4g}")
    _report(7, "; ".join(results))


def test_criterion_08_regret_rate(acceptance_cell):
    # the script names (p, q) = (2, 2), whose estimator cell is smoothing
    summary, _ = _cell(acceptance_cell, "regret_convex", "convex", "smoothing", "uncontrolled", 3.0)
    growth = summary["details"]["regret_growth_exponent"]
    assert abs(growth - 2 / 3) <= TOL_EXPONENT
    _report(8, f"regret growth exponent {growth:.4f} (target 2/3), "
               f"r2 {summary['r_squared']:.4f}")


def test_criterion_09_property_suites():
    # per-step prox inequality on a recorded run
    f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
    oracle = EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point")
    env = oracle.envelope
    sched = schedule_opt_sc(env.p, env.q, env.c1, env.c2, divergence_diameter(f.domain),
                            4.0, 1.0, 1.0, 1000, env.oracle_type)
    trace = run(oracle, sched, 1000, rng=RngStream(SEED, 77).generator(), record=True)
    probes = RngStream(SEED, 78).generator().uniform(0.0, 1.0, size=(100, 1))
    worst = max(
        prox_inequality_gap(trace.xs[t], trace.gs[t], trace.etas[t], trace.xs[t + 1], probes)
        for t in range(trace.n - 1)
    )
    assert worst <= 1e-8

    # finite differences across every testbed family
    rng = RngStream(SEED, 79).generator()
    worst_fd = max(
        finite_diff_check(fn, 100, rng)
        for fn in (
            quadratic([1.0]), quadratic([2.0, 0.5], [0.3, -0.1]), softabs(+1, 0.1),
            softabs(-1, 0.05), strongly_convex_pair(+1, 0.2), kinked_quadratic(),
            exp_one_d(), separable([softabs(+1, 0.1), strongly_convex_pair(-1, 0.3)]),
        )
    )
    assert worst_fd <= 1e-4

    # the check subcommand runs the full property suite and exits 0
    assert run_checks(verbose=False) == 0
    _report(9, f"prox gap {worst:.1e} <= 1e-8, fd error {worst_fd:.1e} <= 1e-4, check exit 0")


def test_criterion_10_reproducibility(tmp_path):
    base_args = [
        "rate", "--class", "convex", "--estimator", "smoothing",
        "--horizons", "1000 3000 10000", "--reps", "4", "--seed", str(SEED),
        "--tol", "5.0",
    ]
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli_main(base_args + ["--out", str(out_a)]) == 0
    assert cli_main(base_args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert cli_main(base_args + ["--out", str(out_c), "--workers", "2"]) == 0
    assert out_a.read_bytes() == out_c.read_bytes()
    # fitted summaries carry the same numbers (the config echo differs in
    # its output path and worker count only)
    sum_a = json.loads(Path(str(out_a)).with_suffix(".json").read_text())
    sum_c = json.loads(Path(str(out_c)).with_suffix(".json").read_text())
    assert sum_a["exponent"] == sum_c["exponent"]
    assert sum_a["details"] == sum_c["details"]
    _report(10, "identical CSV bytes across reruns and worker counts")
