#!/usr/bin/env python3
"""Probe each estimator cell over the delta grid and print the measured
bias/variance against the declared envelope."""

from __future__ import annotations

import os
import sys
from pathlib import Path

from zograd.harness.cli import main

# relative to the working directory, so the config echo in each JSON summary
# names the file the same way in every checkout
RESULTS = Path(os.path.relpath(Path(__file__).resolve().parent.parent / "results"))

ORACLES = [
    "one-point,fn=quadratic,sigma=1.0,x=0.25",
    "one-point,fn=kinked,scheme=sf,sigma=1.0,x=0.0",
    "smoothing,fn=exp,sigma=1.0,x=0.0",
    "two-point,fn=exp,class=c3,sigma=1.0,x=0.0",
    "two-point,fn=quadratic,noise=controlled,sigma=1.0,x=0.25",
    "adversarial-convex,v=1,eps=0.1,c1=1,p=2,c2=1,q=2,x=0.4",
    "adversarial-sc,v=-1,eps=0.2,c1=1,p=1,c2=1,q=2,x=0.4",
]

INVOCATIONS = [
    ["probe", "--oracle", spec, "--delta-grid", "0.5 0.2 0.1 0.05", "--reps", "100000",
     "--seed", "20260810", "--out", str(RESULTS / f"probe_{i}.csv")]
    for i, spec in enumerate(ORACLES)
]


def run() -> int:
    failures = 0
    for argv in INVOCATIONS:
        print(f"$ zograd {' '.join(argv[:3])} ...")
        if main(argv) != 0:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
