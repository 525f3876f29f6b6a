"""Rate, regret, lower-bound, and probe experiments.

Every replication owns a counter-derived RNG stream keyed by
``(master_seed, horizon_index, replication)``, so results are bitwise
reproducible regardless of the worker count; aggregation always walks
replications in index order.  Each experiment builds its groups, one per
horizon or lower-bound arm, and settles there, once, the group's schedule
(``schedule_for``) and its replications' streams (``_Group.stream``); the
workers and the CSV rows read both from the group.  The replications of
all horizons of one experiment (or of one lower-bound arm) are the lanes
of one solver run, each lane to its own horizon; with several workers each
worker, a thread of this process, runs a contiguous shard of those lanes.
The compiled lane kernel holds no interpreter lock while it runs, so the
shards of kernel runs run in parallel; numpy-loop runs mostly hold it.
The lower-bound experiment and the adversarial probe specs import
``zograd.adversarial`` where they use it, so a rate, regret or estimator
probe run never compiles that module.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from ..core import Box, DomainError, OracleEnvelope, generators
from ..estimators import ControlledNoise, EstimatorOracle, ExactGradientOracle, UncontrolledNoise
from ..solver import (
    NonFiniteIterate,
    Schedule,
    divergence_diameter,
    optimization_rate_exponent,
    regret_rate_exponent,
    run,
    schedule_opt_convex,
    schedule_opt_sc,
    schedule_regret,
)
from ..testbed import ObjectiveFunction
from .config import (ESTIMATORS, FUNCTIONS, PROBLEM_CLASSES, REP_BITS, SCHEMES, ConfigError, ExperimentConfig,
                     read_oracle_spec)
from .fitting import RateFit, fit_rate
from .probes import envelope_verdicts, probe_bias_variance
from .verdicts import Verdict, verdict

if TYPE_CHECKING:
    from ..adversarial import HardInstance

_log = logging.getLogger(__name__)

_SC_ALPHA_FLOOR = 4.0
# The pool _fan_out builds, looked up here at each call: perfbench/tracing.py
# puts its traced process pool in under this name, because its tracer keeps
# one span stack per process, which the threads would interleave.
ProcessPoolExecutor = ThreadPoolExecutor


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def default_function_spec(problem_class: str) -> dict:
    """The testbed where the predicted rates bind: a unit-curvature quadratic
    whose constrained minimizer sits on the boundary with a nonzero gradient,
    so the error is carried by the schedule's step/variance tradeoff rather
    than averaged away (an interior optimum makes averaging beat the convex
    rate).  The constant offset zeroes f at the optimum, which keeps
    single-evaluation noise symmetric at every tolerance."""
    return {"name": "quadratic", "a": [1.0], "b": [-2.0], "offset": 1.5,
            "lower": [0.0], "upper": [1.0]}


def build_function(spec: dict, problem_class: str = "convex", path: str = "function") -> ObjectiveFunction:
    """The testbed function of a checked ``function`` spec: its builder
    (``config.FUNCTIONS``) on the spec's keys, each key the spec leaves out
    at its default; "auto" is ``default_function_spec``.  A spec the
    builder refuses is a DomainError that names the spec by its ``path``."""
    if spec["name"] == "auto":
        spec = default_function_spec(problem_class)
    builder, keys = FUNCTIONS[spec["name"]]
    try:
        domain = None if "lower" not in spec else Box(np.asarray(spec["lower"], dtype=float),
                                                      np.asarray(spec["upper"], dtype=float))
        return builder(domain=domain, **{key: spec.get(key, default) for key, (_, default) in keys.items()})
    except DomainError as exc:
        raise DomainError(f"{path}: {spec['name']}: {exc}") from None


def _estimator_cell(f: ObjectiveFunction, feedback: str, scheme, noise: str, sigma: float, slope: float,
                    function_class: str = "convex_smooth") -> EstimatorOracle:
    """The estimator oracle of one (feedback, scheme, noise) cell on f, with
    noise level sigma; only controlled noise has a slope."""
    model = ControlledNoise(sigma, slope) if noise == "controlled" else UncontrolledNoise(sigma)
    return EstimatorOracle(target=f, scheme=scheme, noise=model, feedback=feedback, function_class=function_class)


def build_estimator(cfg: ExperimentConfig, f: ObjectiveFunction):
    """The config's estimator cell on f (``config.ESTIMATORS``): one-point
    -> one-point SPSA probes, smoothing -> surface sampling, spsa/rdsa/sf ->
    two-point with that perturbation law, exact -> true gradients.
    Controlled noise needs a two-point estimator."""
    feedback, scheme = ESTIMATORS[cfg.estimator]
    if cfg.noise == "controlled" and feedback != "two_point":
        raise ConfigError("noise: controlled noise requires a two-point estimator")
    if feedback is None:
        return ExactGradientOracle(f)
    return _estimator_cell(f, feedback, scheme, cfg.noise, cfg.sigma, cfg.noise_slope)


@contextmanager
def _closed_form(fields: str, what: str):
    """A DomainError that names the config's ``fields`` where their values
    take the closed form of ``what``, computed in the block, out of float range."""
    try:
        yield
    except ArithmeticError as exc:
        raise DomainError(f"{fields}: the {what}'s closed form leaves float range at these values ({exc})") from None


def _envelope(cfg: ExperimentConfig, f: ObjectiveFunction) -> OracleEnvelope:
    """The envelope of the config's estimator cell on f, which reads sigma,
    and noise_slope under controlled noise."""
    with _closed_form("sigma, noise_slope" if cfg.noise == "controlled" else "sigma", "envelope"):
        return build_estimator(cfg, f).envelope


def sc_alpha(f: ObjectiveFunction) -> float:
    """Schedule bookkeeping scale for the strongly convex regime; must exceed
    2L/mu for the step-size accounting to be valid from t = 1."""
    return max(_SC_ALPHA_FLOOR, 3.0 * f.smoothness / f.strong_convexity)


def schedule_for(problem_class: str, env: OracleEnvelope, f: ObjectiveFunction, n: int, mode: str) -> Schedule:
    """The tuned schedule of the regime (problem class, mode) for f's
    domain and an oracle of envelope ``env``, at horizon n."""
    D = divergence_diameter(f.domain)
    if mode == "optimization":
        if problem_class == "convex":
            return schedule_opt_convex(
                env.p, env.q, env.c1, env.c2, D, 1.0, f.smoothness, n, env.oracle_type
            )
        return schedule_opt_sc(
            env.p, env.q, env.c1, env.c2, D, sc_alpha(f), f.strong_convexity, f.smoothness,
            n, env.oracle_type,
        )
    r_sup = f.domain.sup_norm()
    return schedule_regret(
        env.p, env.q, env.c1, env.c2, D, 1.0 if problem_class == "convex" else sc_alpha(f),
        f.smoothness, f.strong_convexity, n, env.oracle_type, r_sup,
        strongly_convex=(problem_class == "sc"),
    )


# ---------------------------------------------------------------------------
# Replication fan-out
# ---------------------------------------------------------------------------


class _Group(NamedTuple):
    """The replications of one horizon or one lower-bound arm: lanes
    ``0..reps-1`` run under ``schedule``, which the experiment derives once
    with ``schedule_for``, each on the stream ``stream(rep)``.  ``kind`` is the
    run mode ("optimization", "regret") of an estimator run, or
    "adversarial" for an arm.  Groups of one kind and arm share an oracle,
    so their lanes run together, each lane to its own horizon."""

    kind: str
    n: int
    tag: int
    reps: int
    schedule: Schedule
    arm: int = 0

    def stream(self, rep: int) -> int:
        """The RNG stream id of replication ``rep``."""
        return (self.tag << REP_BITS) | rep


def _run_shard(
    cfg: ExperimentConfig, lanes: Sequence[tuple[_Group, int]]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Worker body: one run per stretch of lanes ``(group, rep)`` that share
    a kind and arm, returning every lane's error and regret in lane order."""
    errors, regrets = [], []
    for (kind, arm), stretch in groupby(lanes, key=lambda lane: (lane[0].kind, lane[0].arm)):
        stretch = list(stretch)
        if kind == "adversarial":
            from ..adversarial import AdversarialOracle

            oracle, mode = AdversarialOracle(_lowerbound_pair(cfg)[arm]), "optimization"
        else:
            oracle, mode = build_estimator(cfg, build_function(cfg.function, cfg.problem_class)), kind
        rngs = generators(cfg.master_seed, [group.stream(rep) for group, rep in stretch])
        try:
            trace = run(oracle, [g.schedule for g, _ in stretch], max(g.n for g, _ in stretch), rng=rngs, mode=mode,
                        horizons=[g.n for g, _ in stretch])
        except NonFiniteIterate as exc:
            raise NonFiniteIterate(stretch[exc.lane][1], exc.first, exc.last) from None
        errors.append(trace.error)
        regrets.append(trace.regret)
    return np.concatenate(errors), None if regrets[0] is None else np.concatenate(regrets)


def _fan_out(cfg: ExperimentConfig, groups: Sequence[_Group]) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Errors and regrets of every group, replications in index order.

    The replications of all groups, laid end to end as (group, rep) lanes,
    are cut into one contiguous shard per worker (``cfg.workers``, at most
    one per replication), and a worker makes one run for each oracle its
    shard touches: one for all horizons of a rate or regret experiment, one
    per lower-bound arm.  The shards' results, end to end again, are split
    by each group's replications.  Several workers are threads of a pool
    with one thread per shard; one worker runs everything in the calling
    thread.  The error of the first shard that raises is raised here once
    every shard ended.
    """
    lanes = [(group, rep) for group in groups for rep in range(group.reps)]
    size = -(-len(lanes) // cfg.workers)
    shards = [lanes[i:i + size] for i in range(0, len(lanes), size)]
    if len(shards) == 1:
        results = [_run_shard(cfg, shards[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            results = list(pool.map(_run_shard, [cfg] * len(shards), shards))
    cuts = np.cumsum([group.reps for group in groups])[:-1]
    errors = np.split(np.concatenate([err for err, _ in results]), cuts)
    if results[0][1] is None:
        return [(err, None) for err in errors]
    return list(zip(errors, np.split(np.concatenate([reg for _, reg in results]), cuts)))


# ---------------------------------------------------------------------------
# Reports and persistence
# ---------------------------------------------------------------------------


class ExperimentReport(NamedTuple):
    experiment_id: str
    fit: Optional[RateFit]
    target_exponent: Optional[float]
    verdicts: tuple[Verdict, ...]
    details: dict
    csv_path: Optional[str]
    json_path: Optional[str]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _fmt(value) -> str:
    if isinstance(value, float):  # numpy float64 included
        return repr(float(value))
    return "" if value is None else str(value)


def write_rows(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_summary(path: str | Path, payload: dict) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_RUN_HEADER = ("experiment_id", "n", "replication", "error", "regret", "delta", "seed")


def _run_rows(label: str, group: _Group, errors: np.ndarray, regrets: Optional[np.ndarray] = None) -> list[tuple]:
    """One CSV row per replication of a group, in replication order."""
    return [
        (label, group.n, rep, err, None if regrets is None else regrets[rep], group.schedule.delta,
         group.stream(rep))
        for rep, err in enumerate(errors)
    ]


def _report(cfg: ExperimentConfig, experiment_id: str, header: Sequence[str], rows: Sequence[Sequence],
            fit: Optional[RateFit], target: Optional[float], verdicts: Sequence[Verdict],
            details: dict) -> ExperimentReport:
    """Write the CSV at ``cfg.out`` and the JSON summary next to it (nothing
    when ``cfg.out`` is None) and return the report, which passed iff every
    verdict did; the verdicts go in ``details["verdicts"]``."""
    details["verdicts"] = [v._asdict() for v in verdicts]
    report = ExperimentReport(experiment_id, fit, target, tuple(verdicts), details, None, None)
    if cfg.out is None:
        return report
    try:
        report = report._replace(csv_path=str(Path(cfg.out)), json_path=str(Path(cfg.out).with_suffix(".json")))
        write_rows(report.csv_path, header, rows)
        write_summary(report.json_path, {
            "experiment_id": experiment_id,
            "exponent": fit.exponent if fit else None,
            "intercept": fit.intercept if fit else None,
            "r_squared": fit.r_squared if fit else None,
            "target_exponent": target,
            "tolerance": cfg.tolerance,
            "passed": report.passed,
            "config": cfg.to_dict(),
            "details": details,
        })
    except (OSError, ValueError) as exc:  # a path with no file name, a directory, one that cannot be written
        raise ConfigError(f"out: cannot be written ({exc})") from None
    return report


# ---------------------------------------------------------------------------
# Rate and regret experiments
# ---------------------------------------------------------------------------


def _horizon_groups(cfg: ExperimentConfig, mode: str, env: OracleEnvelope, f: ObjectiveFunction) -> list[_Group]:
    return [
        _Group(mode, n, h_idx, cfg.replications, schedule_for(cfg.problem_class, env, f, n, mode))
        for h_idx, n in enumerate(cfg.horizons)
    ]


def rate_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit the optimization-error exponent over the horizon grid and compare
    it with the envelope's predicted rate."""
    cfg.validate()
    f = build_function(cfg.function, cfg.problem_class)
    env = _envelope(cfg, f)
    experiment_id = f"rate-{cfg.problem_class}-{cfg.estimator}-{cfg.noise}"
    rows: list[tuple] = []
    means: list[float] = []
    ses: list[float] = []
    negatives: list[int] = []
    groups = _horizon_groups(cfg, "optimization", env, f)
    for group, (raw, _) in zip(groups, _fan_out(cfg, groups)):
        # a negative error means f_star is wrong: count it, and keep it out of the fit
        negatives.append(int(np.sum(raw < 0.0)))
        errors = np.maximum(raw, 0.0)
        means.append(float(errors.mean()))
        ses.append(float(errors.std(ddof=1) / math.sqrt(len(errors))) if len(errors) > 1 else 0.0)
        rows += _run_rows(experiment_id, group, raw)
    fit = fit_rate([(n, max(m, 1e-15)) for n, m in zip(cfg.horizons, means)])
    target = optimization_rate_exponent(PROBLEM_CLASSES[cfg.problem_class], env.p, env.q)
    details = {
        "envelope": {"c1": env.c1, "p": env.p, "c2": env.c2, "q": env.q, "type": env.oracle_type},
        "per_horizon": [
            {"n": int(n), "mean_error": m, "se": s, "negative_errors": neg}
            for n, m, s, neg in zip(cfg.horizons, means, ses, negatives)
        ],
        "r_squared": fit.r_squared,
    }
    verdicts = [verdict("|exponent - target|", abs(fit.exponent - target), "<=", cfg.tolerance)]
    return _report(cfg, experiment_id, _RUN_HEADER, rows, fit, target, verdicts, details)


def regret_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit the per-round regret decay over the horizon grid; the cumulative
    regret growth exponent is 1 minus the fitted decay."""
    cfg.validate()
    if cfg.estimator == "exact":
        raise ConfigError("estimator: exact gradients have no regret schedule; name a zeroth-order estimator")
    f = build_function(cfg.function, cfg.problem_class)
    env = _envelope(cfg, f)
    if cfg.p is not None and cfg.p != env.p:
        raise ConfigError(f"p: estimator cell has p={env.p}, config asked for {cfg.p}")
    if cfg.q is not None and cfg.q != env.q:
        raise ConfigError(f"q: estimator cell has q={env.q}, config asked for {cfg.q}")
    experiment_id = f"regret-{cfg.problem_class}-{cfg.estimator}-{cfg.noise}"
    rows: list[tuple] = []
    means: list[float] = []
    groups = _horizon_groups(cfg, "regret", env, f)
    for group, (errs, regrets) in zip(groups, _fan_out(cfg, groups)):
        means.append(float((regrets / max(group.n - 1, 1)).mean()))
        rows += _run_rows(experiment_id, group, errs, regrets)
    fit = fit_rate([(n, max(m, 1e-15)) for n, m in zip(cfg.horizons, means)])
    target_decay = regret_rate_exponent(PROBLEM_CLASSES[cfg.problem_class], env.p, env.q)
    details = {
        "envelope": {"c1": env.c1, "p": env.p, "c2": env.c2, "q": env.q, "type": env.oracle_type},
        "per_horizon": [{"n": int(n), "mean_regret_per_round": m} for n, m in zip(cfg.horizons, means)],
        "regret_growth_exponent": 1.0 - fit.exponent,
        "target_growth_exponent": 1.0 - target_decay,
        "r_squared": fit.r_squared,
    }
    verdicts = [verdict("|decay exponent - target|", abs(fit.exponent - target_decay), "<=", cfg.tolerance)]
    return _report(cfg, experiment_id, _RUN_HEADER, rows, fit, target_decay, verdicts, details)


# ---------------------------------------------------------------------------
# Lower-bound floor experiment
# ---------------------------------------------------------------------------


def _lowerbound_pair(cfg: ExperimentConfig) -> tuple[HardInstance, HardInstance]:
    """The hard pair at the optimal separation for ``cfg.n``; its envelope
    holds the config's (p, q, c1, c2), 2, 2, 1 and 1 where unset.  A
    separation that overflowed, underflowed to 0 or went NaN is an
    ArithmeticError, which ``_closed_form`` reports with the inputs' names."""
    from ..adversarial import EPS_CAP_CONVEX, hard_pair, optimal_separation

    problem = PROBLEM_CLASSES[cfg.problem_class]
    p = cfg.p if cfg.p is not None else 2.0
    q = cfg.q if cfg.q is not None else 2.0
    c1 = cfg.c1 if cfg.c1 is not None else 1.0
    c2 = cfg.c2 if cfg.c2 is not None else 1.0
    eps = optimal_separation(problem, p, q, c1, c2, cfg.n)
    if not 0.0 < eps < math.inf:
        raise ArithmeticError(f"separation {eps!r}")
    if problem == "convex_smooth" and eps >= EPS_CAP_CONVEX:
        raise ConfigError(
            f"n: optimal separation {eps:.4f} exceeds the convex cap {EPS_CAP_CONVEX:.4f}; increase n"
        )
    return hard_pair(problem, p, q, c1, c2, eps)


def lower_bound_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run mirror descent against both arms of the hard pair at the optimal
    separation and check the closed-form floor from below."""
    from ..adversarial import minimax_lower_bound

    cfg.validate()
    with _closed_form("p, q, c1, c2, n", "separation and floor"):
        pair = _lowerbound_pair(cfg)
        env = pair[0].envelope
        floor = minimax_lower_bound(pair[0].problem_class, env.p, env.q, env.c1, env.c2, cfg.n)
    experiment_id = f"lowerbound-{cfg.problem_class}-p{env.p}-q{env.q}"

    targets = [inst.objective() for inst in pair]
    arms = [
        _Group("adversarial", cfg.n, 2 + v_idx, cfg.replications,
               schedule_for(cfg.problem_class, inst.envelope, f, cfg.n, "optimization"), v_idx)
        for v_idx, (inst, f) in enumerate(zip(pair, targets))
    ]
    per_arm = [errs for errs, _ in _fan_out(cfg, arms)]
    arr = np.concatenate(per_arm)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size))
    # exact-gradient sanity, one deterministic run per arm: the floor is
    # oracle-induced, not solver-induced
    sanity = float(np.mean([run(ExactGradientOracle(f), arm.schedule, cfg.n).error for arm, f in zip(arms, targets)]))
    rows = []
    for arm, errs in zip(arms, per_arm):
        rows += _run_rows(f"{experiment_id}-v{'+' if arm.arm == 0 else '-'}", arm, errs)
    details = {
        "floor": floor,
        "mean_error": mean,
        "se": se,
        "mean_plus_3se": mean + 3.0 * se,
        "separation": pair[0].eps,
        "exact_oracle_error": sanity,
    }
    verdicts = [verdict("mean error + 3se", mean + 3.0 * se, ">=", floor),
                verdict("exact-oracle error", sanity, "<", floor)]
    return _report(cfg, experiment_id, _RUN_HEADER, rows, None, None, verdicts, details)


# ---------------------------------------------------------------------------
# Probe experiment
# ---------------------------------------------------------------------------


def parse_oracle_spec(spec: str):
    """Build an oracle plus its probe point (key x) from a compact spec
    string, ``kind[,key=value]...``, whose kinds and keys are
    ``config.SPEC_KINDS``; a key the spec leaves out takes its default."""
    kind, kv = read_oracle_spec(spec)
    probe_x = np.array([kv.get("x", 0.25)])
    if kind.startswith("adversarial-"):
        from ..adversarial import AdversarialOracle, HardInstance

        env = OracleEnvelope(c1=kv.get("c1", 1.0), p=kv.get("p", 2.0), c2=kv.get("c2", 1.0), q=kv.get("q", 2.0))
        inst = HardInstance(PROBLEM_CLASSES[kind.removeprefix("adversarial-")], kv.get("v", 1), kv.get("eps", 0.1), env)
        return AdversarialOracle(inst), probe_x
    fn_keys = {k: [kv[k]] if k == "a" else kv[k] for k in kv.keys() & {"v", "eps", "a"}}
    f = build_function({"name": kv.get("fn", "quadratic"), **fn_keys}, path="oracle_spec")
    if kind == "exact":
        return ExactGradientOracle(f), probe_x
    feedback = "two_point" if kind == "two-point" else "one_point"
    scheme = SCHEMES[kv.get("scheme", "surface" if kind == "smoothing" else "spsa")]
    # the spec's controlled model has slope 0: the two-point difference cancels it
    oracle = _estimator_cell(f, feedback, scheme, kv.get("noise", "uncontrolled"), kv.get("sigma", 1.0),
                             0.0, kv.get("class", "convex_smooth"))
    return oracle, probe_x


def probe_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Probe an oracle's bias/variance over the delta grid and compare with
    its declared envelope under ``probes.envelope_verdicts``; each delta's
    verdict and wall time are logged at INFO."""
    cfg.validate()
    if cfg.oracle_spec is None:
        raise ConfigError("oracle_spec: required for probe runs")
    oracle, x = parse_oracle_spec(cfg.oracle_spec)
    env = oracle.envelope
    experiment_id = f"probe-{cfg.oracle_spec.split(',')[0]}"
    rows, verdicts = [], []
    rngs = generators(cfg.master_seed, [(40 << REP_BITS) | i for i in range(len(cfg.delta_grid))])
    for delta, rng in zip(cfg.delta_grid, rngs):
        start = time.perf_counter()
        res = probe_bias_variance(oracle, x, delta, cfg.probe_reps, rng)
        bias, var = envelope_verdicts(res, env)
        _log.info("%s delta=%g: %s in %.1f ms", experiment_id, delta, "PASS" if bias.passed and var.passed else "FAIL",
                  1e3 * (time.perf_counter() - start))
        verdicts += [bias, var]
        rows.append(
            (cfg.oracle_spec, delta, res.bias_est, res.bias_se, res.var_est, res.var_se,
             res.replications, env.c1_value(delta), env.c2_value(delta), int(bias.passed), int(var.passed))
        )
    header = ("oracle", "delta", "bias", "bias_se", "var", "var_se", "reps",
              "c1_bound", "c2_bound", "bias_ok", "var_ok")
    details = {"rows": [dict(zip(header, r)) for r in rows]}
    return _report(cfg, experiment_id, header, rows, None, None, verdicts, details)
