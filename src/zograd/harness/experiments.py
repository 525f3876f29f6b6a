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
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..adversarial import (
    EPS_CAP_CONVEX,
    AdversarialOracle,
    HardInstance,
    hard_pair,
    minimax_lower_bound,
    optimal_separation,
)
from ..core import OracleEnvelope, RngStream
from ..estimators import (
    EstimatorOracle,
    ExactGradientOracle,
    RDSA,
    SF,
    SPSA,
    SURFACE,
    UncontrolledNoise,
    additive_controlled,
)
from ..solver import (
    NonFiniteIterate,
    Regularizer,
    Schedule,
    optimization_rate_exponent,
    regret_rate_exponent,
    run,
    schedule_opt_convex,
    schedule_opt_sc,
    schedule_regret,
)
from ..testbed import (
    ObjectiveFunction,
    exp_one_d,
    kinked_quadratic,
    quadratic,
    softabs,
    strongly_convex_pair,
)
from .config import REP_BITS, ConfigError, ExperimentConfig
from .fitting import RateFit, fit_rate
from .probes import envelope_verdict, probe_bias_variance

_SC_ALPHA_FLOOR = 4.0
# The pool _fan_out builds, looked up here at each call: perfbench/tracing.py
# puts its traced process pool in under this name, because its tracer keeps
# one span stack per process, which the threads would interleave.
ProcessPoolExecutor = ThreadPoolExecutor
_SCHEMES = {"spsa": SPSA, "rdsa": RDSA, "sf": SF, "surface": SURFACE}


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


def build_function(spec: dict, problem_class: str = "convex") -> ObjectiveFunction:
    name = spec.get("name")
    if name == "auto":
        spec = default_function_spec(problem_class)
        name = spec["name"]
    domain = None
    if "lower" in spec or "upper" in spec:
        from ..core import Box

        domain = Box(np.asarray(spec["lower"], dtype=float), np.asarray(spec["upper"], dtype=float))
    if name == "quadratic":
        return quadratic(spec.get("a", [1.0]), spec.get("b"), domain, float(spec.get("offset", 0.0)))
    if name == "softabs":
        return softabs(int(spec.get("v", 1)), float(spec.get("eps", 0.1)), domain)
    if name == "sc_pair":
        return strongly_convex_pair(int(spec.get("v", 1)), float(spec.get("eps", 0.1)), domain)
    if name == "kinked":
        return kinked_quadratic(float(spec.get("a_neg", 0.5)), float(spec.get("a_pos", 1.5)), domain)
    if name == "exp":
        return exp_one_d(domain)
    raise ConfigError(f"function.name: unknown function {name!r}")


def build_estimator(cfg: ExperimentConfig, f: ObjectiveFunction):
    """Map the CLI estimator names onto (feedback, scheme) pairs:
    one-point -> one-point SPSA probes, smoothing -> surface sampling,
    spsa/rdsa/sf -> two-point with that perturbation law."""
    if cfg.estimator == "exact":
        return ExactGradientOracle(f)
    if cfg.estimator == "one-point":
        feedback, scheme = "one_point", SPSA
    elif cfg.estimator == "smoothing":
        feedback, scheme = "one_point", SURFACE
    else:
        feedback, scheme = "two_point", _SCHEMES[cfg.estimator]
    if cfg.noise == "controlled":
        if feedback != "two_point":
            raise ConfigError("noise: controlled noise requires a two-point estimator")
        noise = additive_controlled(f, cfg.sigma, slope=cfg.noise_slope)
    else:
        noise = UncontrolledNoise(cfg.sigma)
    return EstimatorOracle(target=f, scheme=scheme, noise=noise, feedback=feedback)


def sc_alpha(f: ObjectiveFunction) -> float:
    """Schedule bookkeeping scale for the strongly convex regime; must exceed
    2L/mu for the step-size accounting to be valid from t = 1."""
    return max(_SC_ALPHA_FLOOR, 3.0 * f.smoothness / f.strong_convexity)


def schedule_for(
    problem_class: str,
    env: OracleEnvelope,
    f: ObjectiveFunction,
    n: int,
    mode: str,
    reg: Regularizer,
) -> Schedule:
    D = reg.diameter(f.domain)
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


@dataclass(frozen=True)
class _Group:
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
    cfg: ExperimentConfig, pieces: Sequence[tuple[_Group, Sequence[int]]]
) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Worker body: one run per stretch of a shard's group pieces
    ``(group, reps)`` that share a kind and arm, returning each piece's
    errors and regrets in replication order."""
    out = []
    for (kind, arm), stretch in groupby(pieces, key=lambda piece: (piece[0].kind, piece[0].arm)):
        stretch = list(stretch)
        if kind == "adversarial":
            oracle, mode = AdversarialOracle(_lowerbound_pair(cfg)[arm]), "optimization"
        else:
            oracle, mode = build_estimator(cfg, build_function(cfg.function, cfg.problem_class)), kind
        lanes = [(group, rep) for group, reps in stretch for rep in reps]
        rngs = [RngStream(cfg.master_seed, group.stream(rep)).generator() for group, rep in lanes]
        try:
            trace = run(oracle, [g.schedule for g, _ in lanes], max(g.n for g, _ in lanes), oracle.target.domain,
                        Regularizer(), rng=rngs, mode=mode, horizons=[g.n for g, _ in lanes])
        except NonFiniteIterate as exc:
            raise NonFiniteIterate(lanes[exc.lane][1], exc.first, exc.last) from None
        start = 0
        for _, reps in stretch:
            done = slice(start, start + len(reps))
            out.append((trace.error[done], None if trace.regret is None else trace.regret[done]))
            start = done.stop
    return out


def _fan_out(cfg: ExperimentConfig, groups: Sequence[_Group]) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Errors and regrets of every group, replications in index order.

    The replications of all groups, laid end to end, are cut into one
    contiguous shard per worker (``cfg.workers``, at most one per
    replication), and a worker makes one run for each oracle its shard
    touches: one for all horizons of a rate or regret experiment, one per
    lower-bound arm.  Several workers are threads of a pool with one thread
    per shard; one worker runs everything in the calling thread.  The error
    of the first shard that raises is raised here once every shard ended.
    """
    lanes = [(gi, rep) for gi, group in enumerate(groups) for rep in range(group.reps)]
    size = -(-len(lanes) // cfg.workers)
    shards = [
        [(gi, [rep for _, rep in piece]) for gi, piece in groupby(lanes[i:i + size], key=itemgetter(0))]
        for i in range(0, len(lanes), size)
    ]
    pieces = [[(groups[gi], reps) for gi, reps in shard] for shard in shards]
    workers = min(cfg.workers, len(pieces))
    if workers <= 1:
        results = [_run_shard(cfg, shard) for shard in pieces]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_shard, [cfg] * len(pieces), pieces))
    errors, regrets = [[] for _ in groups], [[] for _ in groups]
    for shard, shard_results in zip(shards, results):
        for (gi, _), (err, reg) in zip(shard, shard_results):
            errors[gi].append(err)
            regrets[gi].append(reg)
    return [
        (np.concatenate(e), None if r[0] is None else np.concatenate(r))
        for e, r in zip(errors, regrets)
    ]


# ---------------------------------------------------------------------------
# Reports and persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    experiment_id: str
    fit: Optional[RateFit]
    target_exponent: Optional[float]
    tolerance: float
    passed: bool
    details: dict
    csv_path: Optional[str]
    json_path: Optional[str]


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


def read_rows(path: str | Path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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
            fit: Optional[RateFit], target: Optional[float], passed: bool, details: dict) -> ExperimentReport:
    """Write the CSV at ``cfg.out`` and the JSON summary next to it (nothing
    when ``cfg.out`` is None) and return the report."""
    csv_path = json_path = None
    if cfg.out is not None:
        csv_path, json_path = str(Path(cfg.out)), str(Path(cfg.out).with_suffix(".json"))
        write_rows(csv_path, header, rows)
        write_summary(json_path, {
            "experiment_id": experiment_id,
            "exponent": fit.exponent if fit else None,
            "intercept": fit.intercept if fit else None,
            "r_squared": fit.r_squared if fit else None,
            "target_exponent": target,
            "tolerance": cfg.tolerance,
            "passed": bool(passed),
            "config": cfg.to_dict(),
            "details": details,
        })
    return ExperimentReport(experiment_id, fit, target, cfg.tolerance, passed, details, csv_path, json_path)


# ---------------------------------------------------------------------------
# Rate and regret experiments
# ---------------------------------------------------------------------------


def _horizon_groups(cfg: ExperimentConfig, mode: str, env: OracleEnvelope, f: ObjectiveFunction) -> list[_Group]:
    reg = Regularizer()
    return [
        _Group(mode, n, h_idx, cfg.replications, schedule_for(cfg.problem_class, env, f, n, mode, reg))
        for h_idx, n in enumerate(cfg.horizons)
    ]


def rate_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit the optimization-error exponent over the horizon grid and compare
    it with the envelope's predicted rate."""
    cfg.validate()
    f = build_function(cfg.function, cfg.problem_class)
    env = build_estimator(cfg, f).envelope
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
    problem = "convex_smooth" if cfg.problem_class == "convex" else "strongly_convex"
    target = optimization_rate_exponent(problem, env.p, env.q)
    details = {
        "envelope": {"c1": env.c1, "p": env.p, "c2": env.c2, "q": env.q, "type": env.oracle_type},
        "per_horizon": [
            {"n": int(n), "mean_error": m, "se": s, "negative_errors": neg}
            for n, m, s, neg in zip(cfg.horizons, means, ses, negatives)
        ],
        "r_squared": fit.r_squared,
    }
    return _report(cfg, experiment_id, _RUN_HEADER, rows, fit, target,
                   abs(fit.exponent - target) <= cfg.tolerance, details)


def regret_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit the per-round regret decay over the horizon grid; the cumulative
    regret growth exponent is 1 minus the fitted decay."""
    cfg.validate()
    f = build_function(cfg.function, cfg.problem_class)
    oracle = build_estimator(cfg, f)
    if not getattr(oracle, "unbiased", False):
        raise ConfigError("estimator: regret mode requires an unbiased oracle (E[Y] = x)")
    env = oracle.envelope
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
    problem = "convex_smooth" if cfg.problem_class == "convex" else "strongly_convex"
    target_decay = regret_rate_exponent(problem, env.p, env.q)
    details = {
        "envelope": {"c1": env.c1, "p": env.p, "c2": env.c2, "q": env.q, "type": env.oracle_type},
        "per_horizon": [{"n": int(n), "mean_regret_per_round": m} for n, m in zip(cfg.horizons, means)],
        "regret_growth_exponent": 1.0 - fit.exponent,
        "target_growth_exponent": 1.0 - target_decay,
        "r_squared": fit.r_squared,
    }
    return _report(cfg, experiment_id, _RUN_HEADER, rows, fit, target_decay,
                   abs(fit.exponent - target_decay) <= cfg.tolerance, details)


# ---------------------------------------------------------------------------
# Lower-bound floor experiment
# ---------------------------------------------------------------------------


def _lowerbound_pair(cfg: ExperimentConfig) -> tuple[HardInstance, HardInstance]:
    problem = "convex_smooth" if cfg.problem_class == "convex" else "strongly_convex"
    p, q, c1, c2 = _envelope_params(cfg)
    eps = optimal_separation(problem, p, q, c1, c2, cfg.n)
    if problem == "convex_smooth" and eps >= EPS_CAP_CONVEX:
        raise ConfigError(
            f"n: optimal separation {eps:.4f} exceeds the convex cap {EPS_CAP_CONVEX:.4f}; increase n"
        )
    return hard_pair(problem, p, q, c1, c2, eps)


def _envelope_params(cfg: ExperimentConfig) -> tuple[float, float, float, float]:
    p = cfg.p if cfg.p is not None else 2.0
    q = cfg.q if cfg.q is not None else 2.0
    c1 = cfg.c1 if cfg.c1 is not None else 1.0
    c2 = cfg.c2 if cfg.c2 is not None else 1.0
    return p, q, c1, c2


def lower_bound_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run mirror descent against both arms of the hard pair at the optimal
    separation and check the closed-form floor from below."""
    cfg.validate()
    problem = "convex_smooth" if cfg.problem_class == "convex" else "strongly_convex"
    p, q, c1, c2 = _envelope_params(cfg)
    pair = _lowerbound_pair(cfg)
    floor = minimax_lower_bound(problem, p, q, c1, c2, cfg.n)
    experiment_id = f"lowerbound-{cfg.problem_class}-p{p}-q{q}"

    reg = Regularizer()
    targets = [inst.objective() for inst in pair]
    arms = [
        _Group("adversarial", cfg.n, 2 + v_idx, cfg.replications,
               schedule_for(cfg.problem_class, inst.envelope, f, cfg.n, "optimization", reg), v_idx)
        for v_idx, (inst, f) in enumerate(zip(pair, targets))
    ]
    per_arm = [errs for errs, _ in _fan_out(cfg, arms)]
    arr = np.concatenate(per_arm)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size))
    # exact-gradient sanity, one deterministic run per arm: the floor is
    # oracle-induced, not solver-induced
    sanity = float(np.mean([
        run(ExactGradientOracle(f), arm.schedule, cfg.n, f.domain, reg).error for arm, f in zip(arms, targets)
    ]))
    passed = (mean + 3.0 * se >= floor) and (sanity < floor)
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
    return _report(cfg, experiment_id, _RUN_HEADER, rows, None, None, passed, details)


# ---------------------------------------------------------------------------
# Probe experiment
# ---------------------------------------------------------------------------


def parse_oracle_spec(spec: str):
    """Build an oracle plus its probe point from a compact spec string.

    Grammar: ``kind[,key=value]...`` with kinds one-point, two-point,
    smoothing, exact, adversarial-convex, adversarial-sc.  Keys: fn, scheme,
    noise, sigma, v, eps, c1, p, c2, q, class, x.
    """
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise ConfigError("oracle_spec: empty")
    kind = parts[0]
    kv: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"oracle_spec: expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    probe_x = np.array([float(kv.get("x", 0.25))])

    if kind in ("adversarial-convex", "adversarial-sc"):
        problem = "convex_smooth" if kind.endswith("convex") else "strongly_convex"
        env = OracleEnvelope(
            c1=float(kv.get("c1", 1.0)), p=float(kv.get("p", 2.0)),
            c2=float(kv.get("c2", 1.0)), q=float(kv.get("q", 2.0)),
        )
        inst = HardInstance(problem, int(kv.get("v", 1)), float(kv.get("eps", 0.1)), env)
        return AdversarialOracle(inst), probe_x

    f = build_function(
        {"name": kv.get("fn", "quadratic"), "v": kv.get("v", 1), "eps": kv.get("eps", 0.1),
         "a": [float(kv.get("a", 1.0))]}
    )
    if kind == "exact":
        return ExactGradientOracle(f), probe_x
    if kind == "smoothing":
        feedback, default_scheme = "one_point", "surface"
    elif kind == "one-point":
        feedback, default_scheme = "one_point", "spsa"
    elif kind == "two-point":
        feedback, default_scheme = "two_point", "spsa"
    else:
        raise ConfigError(f"oracle_spec: unknown oracle kind {kind!r}")
    scheme = _SCHEMES.get(kv.get("scheme", default_scheme))
    if scheme is None:
        raise ConfigError(f"oracle_spec: unknown scheme {kv.get('scheme')!r}")
    sigma = float(kv.get("sigma", 1.0))
    if kv.get("noise", "uncontrolled") == "controlled":
        noise = additive_controlled(f, sigma)
    else:
        noise = UncontrolledNoise(sigma)
    oracle = EstimatorOracle(
        target=f, scheme=scheme, noise=noise, feedback=feedback,
        function_class=kv.get("class", "convex_smooth"),
    )
    return oracle, probe_x


def probe_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Probe an oracle's bias/variance over the delta grid and compare with
    its declared envelope under ``probes.envelope_verdict``."""
    cfg.validate()
    if cfg.oracle_spec is None:
        raise ConfigError("oracle_spec: required for probe runs")
    oracle, x = parse_oracle_spec(cfg.oracle_spec)
    env = oracle.envelope
    experiment_id = f"probe-{cfg.oracle_spec.split(',')[0]}"
    rows = []
    all_ok = True
    for i, delta in enumerate(cfg.delta_grid):
        rng = RngStream(cfg.master_seed, (40 << REP_BITS) | i).generator()
        res = probe_bias_variance(oracle, x, delta, cfg.probe_reps, rng)
        bias_ok, var_ok = envelope_verdict(res, env)
        all_ok = all_ok and bias_ok and var_ok
        rows.append(
            (cfg.oracle_spec, delta, res.bias_est, res.bias_se, res.var_est, res.var_se,
             res.replications, env.c1_value(delta), env.c2_value(delta), int(bias_ok), int(var_ok))
        )
    header = ("oracle", "delta", "bias", "bias_se", "var", "var_se", "reps",
              "c1_bound", "c2_bound", "bias_ok", "var_ok")
    details = {"rows": [dict(zip(header, r)) for r in rows]}
    return _report(cfg, experiment_id, header, rows, None, None, all_ok, details)
