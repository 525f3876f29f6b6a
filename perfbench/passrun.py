"""One pass of a workload, in a fresh interpreter.

Usage (perfbench/run.py starts it this way, with ``src`` on PYTHONPATH):

    python3 perfbench/passrun.py --workload rate --seed 20260810 \
        --out-dir perfbench/.work/<run>/pass-0 [--trace] [--tiny]

Runs the workload's operations through ``zograd.harness.cli.main`` in
order, times the verdict window (first operation call to last verdict),
then reads back every CSV and JSON the operations wrote and checks them.
Writes ``result.json`` (and, when traced, ``spans.json``) into --out-dir.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads

TEXT_COLUMNS = {"experiment_id", "oracle"}
ERROR_FLOOR = -1e-12
CALIB_EDGE = 2


def _run_op(cli_main, op: workloads.Op) -> dict:
    out = io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad flags with exit 2
        code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return {"label": op.label, "kind": op.kind, "gated": op.gated, "exit": code,
            "error": error, "stdout": out.getvalue()}


def _read_csv(op: workloads.Op, res: dict, digest) -> None:
    """Count unparseable cells, check row count and replication errors."""
    raw = op.csv.read_bytes()
    digest.update(raw)
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    bad_cells, bad_columns, bad_errors = 0, set(), 0
    for row in body:
        if len(row) != len(header):
            res["problems"].append(f"{op.csv.name}: row of {len(row)} cells under {len(header)} columns")
            continue
        for column, cell in zip(header, row):
            if column in TEXT_COLUMNS or cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                bad_cells += 1
                bad_columns.add(column)
                continue
            if column == "error" and not (math.isfinite(value) and value >= ERROR_FLOOR):
                bad_errors += 1
    if len(body) != op.rows:
        res["problems"].append(f"{op.csv.name}: {len(body)} rows, expected {op.rows}")
    res["bad_cells"] += bad_cells
    res["bad_columns"] = sorted(set(res["bad_columns"]) | bad_columns)
    res["bad_errors"] = bad_errors


def _read_json(op: workloads.Op, res: dict) -> None:
    path = op.csv.with_suffix(".json")
    nonfinite = []
    try:
        summary = json.loads(path.read_text(encoding="utf-8"), parse_constant=nonfinite.append)
    except json.JSONDecodeError:
        res["bad_cells"] += 1
        res["bad_columns"] = sorted(set(res["bad_columns"]) | {path.name})
        return
    res["bad_cells"] += len(nonfinite)
    if op.kind == "rate":
        res["fit"] = (summary["exponent"], summary["target_exponent"])
    elif op.kind == "regret":
        d = summary["details"]
        res["fit"] = (d["regret_growth_exponent"], d["target_growth_exponent"])


def _read_back(op: workloads.Op, res: dict, digest) -> None:
    if op.kind == "check":
        lines = [ln for ln in res["stdout"].splitlines() if ln.startswith("[")]
        passed = sum(ln.startswith("[PASS]") for ln in lines)
        if passed != len(lines) or passed == 0:
            res["problems"].append(f"check: {passed} of {len(lines)} checks pass")
        return
    if not op.csv.exists() or not op.csv.with_suffix(".json").exists():
        res["problems"].append(f"{op.label}: no CSV/JSON written")
        return
    _read_csv(op, res, digest)
    _read_json(op, res)


def _failed(res: dict) -> bool:
    """Raised, exited 2, or wrote a non-finite or negative replication error."""
    return res["error"] is not None or res["exit"] not in (0, 1) or res["bad_errors"] > 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    from zograd.harness import cli

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"zograd imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    out_dir = args.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.ops(args.workload, args.seed, out_dir, tiny=args.tiny)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(out_dir)
        tracing.install(tracer)

    # The machine's speed (calibrate.py) is sampled before the first
    # operation and after each one, so it tracks the speed during the pass.
    # The verdict window is the operations' own time, without those samples.
    calib = calibrate.samples(CALIB_EDGE)
    results = []
    verdict_ns = 0
    for op in ops:
        t0 = time.perf_counter_ns()
        if tracer is None:
            results.append(_run_op(cli.main, op))
        else:
            tracer.experiment = op.label
            with tracer.span(f"op.{op.kind}"):
                results.append(_run_op(cli.main, op))
        verdict_ns += time.perf_counter_ns() - t0
        calib += calibrate.samples(1)
    calib += calibrate.samples(CALIB_EDGE - 1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    digest = hashlib.sha256()
    for op, res in zip(ops, results):
        res.update(problems=[], bad_cells=0, bad_columns=[], bad_errors=0, fit=None)
        if res["error"] is None:
            _read_back(op, res, digest)
        res["failed"] = _failed(res)
        del res["stdout"]

    result = {
        "verdict_s": verdict_ns / 1e9,
        "calib_s": calib,
        # The kernel keeps only the largest peak among exited workers, so each
        # concurrent worker is charged that peak.
        "peak_rss_mb": (peak_kb + workloads.workers(args.workload) * worker_kb) / 1024.0,
        "csv_digest": digest.hexdigest(),
        "ops": results,
    }
    if tracer is not None:
        spans = tracer.spans
        (out_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        result["layers"] = tracing.layer_metrics(spans, verdict_ns, os.getpid())
        result["layers"]["experiments.csv_bad_cells"] = sum(r["bad_cells"] for r in results)
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
