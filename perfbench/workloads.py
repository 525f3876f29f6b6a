"""The benchmark's workloads: which zograd CLI invocations one pass makes.

A pass is one fresh interpreter that runs every operation of its workload
in order.  One operation is one call of ``zograd.harness.cli.main``.  The
workload seed is the master seed of every operation, so the same seed gives
the same inputs and the same output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260810
WORKLOADS = ("rate", "regret", "lowerbound-2w", "probe-check")

# (label, class, estimator, noise, sigma): the four acceptance rate cells
# plus the uncontrolled two-point SPSA cell.
RATE_CELLS = (
    ("rate-convex-smoothing", "convex", "smoothing", "uncontrolled", "3.0"),
    ("rate-convex-onepoint", "convex", "one-point", "uncontrolled", "3.0"),
    ("rate-sc-smoothing", "sc", "smoothing", "uncontrolled", "0.3"),
    ("rate-controlled-spsa", "convex", "spsa", "controlled", "3.0"),
    ("rate-uncontrolled-spsa", "convex", "spsa", "uncontrolled", "3.0"),
)

# The seven probe specs of scripts/probe_envelopes.py.
PROBE_SPECS = (
    "one-point,fn=quadratic,sigma=1.0,x=0.25",
    "one-point,fn=kinked,scheme=sf,sigma=1.0,x=0.0",
    "smoothing,fn=exp,sigma=1.0,x=0.0",
    "two-point,fn=exp,class=c3,sigma=1.0,x=0.0",
    "two-point,fn=quadratic,noise=controlled,sigma=1.0,x=0.25",
    "adversarial-convex,v=1,eps=0.1,c1=1,p=2,c2=1,q=2,x=0.4",
    "adversarial-sc,v=-1,eps=0.2,c1=1,p=1,c2=1,q=2,x=0.4",
)
PROBE_DELTAS = "0.5 0.2 0.1 0.05"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its outputs must look like."""

    label: str
    kind: str  # rate | regret | lowerbound | probe | check
    argv: tuple[str, ...]
    csv: Path | None  # where the CSV lands (its JSON summary sits next to it)
    rows: int  # data rows the CSV must hold
    gated: bool  # a failed verdict makes the run incorrect


@dataclass(frozen=True)
class Sizes:
    horizons: tuple[int, ...]
    reps: int
    lb_reps: int
    probe_reps: int


FULL = Sizes(horizons=(1_000, 3_000, 10_000), reps=16, lb_reps=64, probe_reps=100_000)
# Smoke-test size: every layer is still reached, in well under a second.
TINY = Sizes(horizons=(100, 300, 1_000), reps=2, lb_reps=4, probe_reps=3_200)


def workers(workload: str) -> int:
    return 2 if workload == "lowerbound-2w" else 1


def ops(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Op]:
    """The operations of one pass, writing their outputs under ``out_dir``."""
    size = TINY if tiny else FULL
    seed_s = str(seed)
    horizons = " ".join(str(h) for h in size.horizons)
    fit_rows = len(size.horizons) * size.reps
    # Verdicts are gated only where the acceptance inputs run unchanged.
    gated = not tiny

    def op(label, kind, args, rows, is_gated=False):
        csv = out_dir / f"{label}.csv"
        argv = (kind, *args, "--seed", seed_s, "--out", str(csv))
        return Op(label, kind, argv, csv, rows, is_gated)

    if workload == "rate":
        return [
            op(label, "rate",
               ("--class", cls, "--estimator", est, "--noise", noise, "--sigma", sigma,
                "--horizons", horizons, "--reps", str(size.reps)), fit_rows)
            for label, cls, est, noise, sigma in RATE_CELLS
        ]
    if workload == "regret":
        common = ("--sigma", "3.0", "--horizons", horizons, "--reps", str(size.reps))
        return [
            op("regret-convex-smoothing", "regret",
               ("--class", "convex", "--p", "2", "--q", "2", *common), fit_rows),
            op("regret-convex-spsa", "regret",
               ("--class", "convex", "--estimator", "spsa", *common), fit_rows),
        ]
    if workload == "lowerbound-2w":
        return [
            op(f"lowerbound-{cls}", "lowerbound",
               ("--class", cls, "--p", p, "--q", "2", "--c1", "1", "--c2", "1",
                "--n", "10000", "--reps", str(size.lb_reps), "--workers", str(workers(workload))),
               2 * size.lb_reps, gated)
            for cls, p in (("convex", "2"), ("sc", "1"))
        ]
    if workload == "probe-check":
        probes = [
            op(f"probe-{i}", "probe",
               ("--oracle", spec, "--delta-grid", PROBE_DELTAS, "--reps", str(size.probe_reps)),
               len(PROBE_DELTAS.split()), gated)
            for i, spec in enumerate(PROBE_SPECS)
        ]
        # The check suite has fixed inputs at every size, so it is always gated.
        return probes + [Op("check", "check", ("check",), None, 0, True)]
    raise ValueError(f"unknown workload {workload!r}")
