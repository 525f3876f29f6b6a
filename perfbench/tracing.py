"""Span tracing of zograd's layers, installed at run time from outside the
package.

``install`` wraps the layer entry points (solver loop, oracle steppers,
envelope construction, testbed sup searches, RNG streams, the process pool,
CSV/JSON writers, the rate fit, probes and each check).  Every wrapped call
records a span: name, start, end, parent span, experiment id, process id and
a few attributes.  Spans stay in memory.  Pool workers record their own
spans and write them to a file when they exit; the pool wrapper reads those
files back after the pool has shut down.  ``layer_metrics`` turns the spans
into the per-layer numbers.  A layer's self time is its spans' duration
minus the part covered by child spans of the same process.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

# Solver cells reported as solver.loop.ns_per_step.<cell>.
CELLS = (
    "one-point", "smoothing", "spsa-2pt", "spsa-controlled", "smoothing-regret",
    "spsa-2pt-regret", "adversarial-convex", "adversarial-sc", "exact",
)
CHECK_NAMES = (
    "projection", "finite-differences", "estimator-envelopes", "adversarial-grid",
    "separable-arithmetic", "prox-inequality", "schedule-constants", "determinism",
)
_FLOAT_BYTES = 8


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.reset(root_parent=None, experiment=None)

    def reset(self, root_parent, experiment) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.root_parent = root_parent
        self.experiment = experiment
        self._next = 0

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "id": f"{self.pid}.{self._next}",
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self.stack[-1]["id"] if self.stack else self.root_parent,
            "experiment": self.experiment,
            "pid": self.pid,
            "attrs": attrs,
        }
        self._next += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.begin(name, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def absorb_worker_files(self) -> None:
        """Append the spans that exited pool workers wrote, then drop the files."""
        for path in sorted(self.span_dir.glob("worker-spans-*.json")):
            self.spans.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()


_active: Tracer | None = None


def _wrap(tracer: Tracer, name: str, fn, attrs=None, after=None):
    """Wrap ``fn`` in a span.  ``attrs(bound)`` gives attributes known before
    the call, ``after(bound, result)`` those known after it."""
    sig = inspect.signature(fn) if (attrs or after) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
        s = tracer.begin(name, **(attrs(bound.arguments) if attrs else {}))
        try:
            result = fn(*args, **kwargs)
            if after:
                s["attrs"].update(after(bound.arguments, result))
            return result
        finally:
            tracer.end(s)

    return wrapper


def solver_cell(oracle, mode: str, record: bool) -> str:
    """The solver cell a run belongs to, from its oracle and mode."""
    kind = type(oracle).__name__
    if kind == "AdversarialOracle":
        cell = "adversarial-convex" if oracle.instance.problem_class == "convex_smooth" else "adversarial-sc"
    elif kind == "ExactGradientOracle":
        cell = "exact"
    elif kind == "EstimatorOracle":
        scheme = oracle.scheme.kind
        if oracle.feedback == "one_point":
            cell = "smoothing" if scheme == "surface" else ("one-point" if scheme == "spsa" else f"one-point-{scheme}")
        elif oracle.noise.kind == "controlled":
            cell = f"{scheme}-controlled"
        else:
            cell = f"{scheme}-2pt"
    else:
        cell = kind
    if mode == "regret":
        cell += "-regret"
    if record:
        cell += "-recorded"
    return cell


def _run_attrs(a) -> dict:
    return {"cell": solver_cell(a["oracle"], a["mode"], a["record"]), "steps": max(int(a["n"]) - 1, 0)}


def _estimator_draws(a) -> dict:
    """Float64 values one estimator stepper draws up front: U and V per step,
    plus the noise it needs.  Computed from n and the cell, not measured."""
    oracle, n = a["self"], int(a["n"])
    if type(oracle).__name__ != "EstimatorOracle":
        return {"mb_drawn": 0.0}
    per_step = 2 * oracle.dim
    if oracle.noise.kind == "controlled":
        per_step += 1
    elif oracle.noise.sigma > 0:
        per_step += 1 if oracle.feedback == "one_point" else 2
    return {"mb_drawn": per_step * n * _FLOAT_BYTES / 1e6}


def install(tracer: Tracer) -> None:
    """Wrap zograd's layer entry points so that calls record spans."""
    global _active
    from zograd import adversarial, core, estimators, testbed
    from zograd.harness import checks, experiments

    _active = tracer
    t = tracer

    def patch(owner, attr, name, attrs=None, after=None):
        setattr(owner, attr, _wrap(t, name, getattr(owner, attr), attrs, after))

    for module in (experiments, checks):
        patch(module, "run", "solver.run", attrs=_run_attrs)
        patch(module, "probe_bias_variance", "probes.probe_bias_variance")
    patch(estimators.EstimatorOracle, "make_stepper", "estimators.make_stepper", attrs=_estimator_draws)
    patch(estimators.ExactGradientOracle, "make_stepper", "estimators.make_stepper", attrs=_estimator_draws)
    patch(adversarial.AdversarialOracle, "make_stepper", "adversarial.make_stepper")
    cache = estimators._moment_cache
    patch(estimators, "scheme_moments", "estimators.scheme_moments",
          attrs=lambda a: {"hit": (a["scheme"].kind, a["d"], a["norm"].kind) in cache})
    patch(estimators, "envelope_for", "estimators.envelope_for")
    for cls in (estimators.EstimatorOracle, estimators.ExactGradientOracle):
        patch(cls, "sample_gradients", "estimators.sample_gradients", attrs=lambda a: {"estimates": int(a["m"])})
    patch(adversarial.AdversarialOracle, "sample_gradients", "adversarial.sample_gradients")
    for attr in ("sup_abs", "span", "sup_gradient_dual"):
        patch(testbed.ObjectiveFunction, attr, "testbed.sup_search", attrs=lambda a, attr=attr: {"search": attr})
    for attr in ("bias_excess_on_grid", "gap_deviation_on_grid"):
        patch(checks, attr, "adversarial.grid")
    patch(core.RngStream, "generator", "core.rng_stream")
    patch(experiments, "write_rows", "experiments.write_rows",
          after=lambda a, _: {"bytes": Path(a["path"]).stat().st_size})
    patch(experiments, "write_summary", "experiments.write_summary")
    patch(experiments, "fit_rate", "fitting.fit_rate")
    checks.ALL_CHECKS[:] = [(name, _wrap(t, f"checks.{name}", fn)) for name, fn in checks.ALL_CHECKS]
    experiments.ProcessPoolExecutor = _traced_pool(t)


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """The experiments' pool, with a span over its life in the parent and
        span recording in every worker."""

        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            self._span = tracer.begin("experiments.fanout", workers=max_workers)
            super().__init__(
                max_workers, mp_context, initializer=_worker_init,
                initargs=(str(tracer.span_dir), self._span["id"], tracer.experiment), **kwargs,
            )

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)
                tracer.absorb_worker_files()

    return TracedPool


def _worker_init(span_dir: str, parent_id: str, experiment: str) -> None:
    """Pool worker start-up: record this worker's spans under the parent's
    fan-out span and write them out when the worker exits."""
    if _active is None:  # a start method that re-imports instead of forking
        install(Tracer(Path(span_dir)))
    _active.reset(root_parent=parent_id, experiment=experiment)
    path = Path(span_dir) / f"worker-spans-{os.getpid()}.json"
    multiprocessing.util.Finalize(None, _active.dump, args=(path,), exitpriority=100)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the duration of its same-process children (ns)."""
    by_id = {s["id"]: s for s in spans}
    covered: dict[str, int] = defaultdict(int)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            covered[parent["id"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_metrics(spans: list[dict], verdict_ns: int, pass_pid: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts as counts)."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    cell_steps: dict[str, int] = defaultdict(int)
    cell_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s["name"]
        self_s[name] += own[s["id"]] / 1e9
        calls[name] += 1
        for key, value in s["attrs"].items():
            if isinstance(value, (int, float)):
                attr_sum[(name, key)] += float(value)
        if name == "solver.run":
            cell_steps[s["attrs"]["cell"]] += s["attrs"]["steps"]
            cell_ns[s["attrs"]["cell"]] += own[s["id"]]

    def dur(s):
        return s["end"] - s["start"]

    fanouts = [s for s in spans if s["name"] == "experiments.fanout"]
    fanout_ns = sum(dur(s) for s in fanouts)
    pool_capacity_ns = sum(dur(s) * (s["attrs"]["workers"] or 1) for s in fanouts)
    child_run_ns = sum(dur(s) for s in spans if s["name"] == "solver.run" and s["pid"] != pass_pid)
    ops_ns = sum(dur(s) for s in spans if s["name"].startswith("op."))
    moments = calls["estimators.scheme_moments"]

    m = {
        "solver.steps": attr_sum[("solver.run", "steps")],
        "solver.run.calls": calls["solver.run"],
        "solver.loop.s": self_s["solver.run"],
    }
    for cell in CELLS:
        steps = cell_steps[cell]
        m[f"solver.loop.ns_per_step.{cell}"] = cell_ns[cell] / steps if steps else 0.0
    m.update({
        "estimators.make_stepper.s": self_s["estimators.make_stepper"],
        "estimators.make_stepper.calls": calls["estimators.make_stepper"],
        "estimators.make_stepper.mb_drawn": attr_sum[("estimators.make_stepper", "mb_drawn")],
        "estimators.scheme_moments.s": self_s["estimators.scheme_moments"],
        "estimators.scheme_moments.calls": moments,
        "estimators.scheme_moments.cache_hit_ratio":
            attr_sum[("estimators.scheme_moments", "hit")] / moments if moments else 0.0,
        "estimators.envelope_for.s": self_s["estimators.envelope_for"],
        "estimators.envelope_for.calls": calls["estimators.envelope_for"],
        "estimators.sample_gradients.s": self_s["estimators.sample_gradients"],
        "estimators.sample_gradients.estimates": attr_sum[("estimators.sample_gradients", "estimates")],
        "testbed.sup_search.s": self_s["testbed.sup_search"],
        "testbed.sup_search.calls": calls["testbed.sup_search"],
        "adversarial.make_stepper.s": self_s["adversarial.make_stepper"],
        "adversarial.make_stepper.calls": calls["adversarial.make_stepper"],
        "adversarial.sample_gradients.s": self_s["adversarial.sample_gradients"],
        "adversarial.grid.s": self_s["adversarial.grid"],
        "core.rng_stream.s": self_s["core.rng_stream"],
        "core.rng_stream.calls": calls["core.rng_stream"],
        "experiments.fanout.s": fanout_ns / 1e9,
        "experiments.fanout.efficiency": child_run_ns / pool_capacity_ns if pool_capacity_ns else 0.0,
        "experiments.write_rows.s": self_s["experiments.write_rows"],
        "experiments.write_rows.bytes": attr_sum[("experiments.write_rows", "bytes")],
        "experiments.write_summary.s": self_s["experiments.write_summary"],
        "experiments.driver.s": sum(v for k, v in self_s.items() if k.startswith("op.")),
        "fitting.fit_rate.s": self_s["fitting.fit_rate"],
        "probes.probe_bias_variance.s": self_s["probes.probe_bias_variance"],
        "trace.coverage": ops_ns / verdict_ns if verdict_ns else 0.0,
    })
    for name in CHECK_NAMES:
        m[f"checks.{name}.s"] = self_s[f"checks.{name}"]
    return m
