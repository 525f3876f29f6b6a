#!/usr/bin/env python3
"""Run every acceptance-scale experiment as a CLI invocation.

Writes CSV/JSON artifacts under results/ and prints one line per
experiment.  Exit code 0 iff all experiments pass their assertions.
It takes about 2.5 s on a shared 2-vCPU x86_64 machine with the compiled
lane kernel cached (3 s on a fresh checkout, with the build), and 50-60 s
where the kernel cannot be built and the solver runs its numpy loop.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from zograd.harness.cli import main

# relative to the working directory, so the config echo in each JSON summary
# names the file the same way in every checkout
RESULTS = Path(os.path.relpath(Path(__file__).resolve().parent.parent / "results"))
SEED = "20260810"

INVOCATIONS = [
    # rate experiments: convex (delta^2, delta^-2), (delta, delta^-2),
    # strongly convex (delta^2, delta^-2), controlled (delta, const)
    ["rate", "--class", "convex", "--estimator", "smoothing", "--noise", "uncontrolled",
     "--sigma", "3.0", "--reps", "16", "--seed", SEED,
     "--out", str(RESULTS / "rate_convex_smoothing.csv")],
    ["rate", "--class", "convex", "--estimator", "one-point", "--noise", "uncontrolled",
     "--sigma", "3.0", "--reps", "16", "--seed", SEED,
     "--out", str(RESULTS / "rate_convex_onepoint.csv")],
    ["rate", "--class", "sc", "--estimator", "smoothing", "--noise", "uncontrolled",
     "--sigma", "0.3", "--reps", "16", "--seed", SEED,
     "--out", str(RESULTS / "rate_sc_smoothing.csv")],
    ["rate", "--class", "convex", "--estimator", "spsa", "--noise", "controlled",
     "--sigma", "3.0", "--reps", "16", "--seed", SEED,
     "--out", str(RESULTS / "rate_controlled_spsa.csv")],
    # minimax floors
    ["lowerbound", "--class", "convex", "--p", "2", "--q", "2", "--c1", "1", "--c2", "1",
     "--n", "10000", "--reps", "64", "--seed", SEED,
     "--out", str(RESULTS / "lowerbound_convex.csv")],
    ["lowerbound", "--class", "sc", "--p", "1", "--q", "2", "--c1", "1", "--c2", "1",
     "--n", "10000", "--reps", "64", "--seed", SEED,
     "--out", str(RESULTS / "lowerbound_sc.csv")],
    # regret
    ["regret", "--class", "convex", "--p", "2", "--q", "2", "--sigma", "3.0",
     "--reps", "16", "--seed", SEED,
     "--out", str(RESULTS / "regret_convex.csv")],
    # property suite
    ["check"],
]


def run() -> int:
    failures = 0
    for argv in INVOCATIONS:
        print(f"$ zograd {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            failures += 1
            print(f"  -> exit {code}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
