#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload once at tiny sizes.

    python3 bench/selfcheck.py

Runs each workload untraced and traced with --tiny --seconds 1 and pins
the output schema: the last stdout line has exactly the result keys, its
metrics are exactly BENCHMARK.json's end-to-end (or per-layer) names with
their units, every value is a finite number, and the report line carries
the run metadata and sample counts. It also checks that a directory with
the benchmark but no mecode sources makes the benchmark fail without a
result. Takes about half a minute; exits 1 on the first broken promise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META_KEYS = {"workload", "seed", "seconds", "trace", "tiny", "python", "nproc", "cpu", "git_sha",
             "unsolved", "errors"}


def fail(message: str) -> None:
    print(f"selfcheck: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec() -> None:
    if set(SPEC) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys are {sorted(SPEC)}")
    names = [w["name"] for w in SPEC["workloads"]]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end lacks setup_s in seconds, lower is better")
    if any(m["bound"] > setup[0]["bound"] or m["bound"] > 0.25 for m in SPEC["end_to_end"]):
        fail("setup_s must have the largest bound, and no bound may exceed 0.25")
    from workloads import WORKLOADS

    if names != list(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != benchmark workloads {list(WORKLOADS)}")


def run(workload: str, trace: int) -> None:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report_line, last_line = proc.stdout.strip().splitlines()
    result, report = json.loads(last_line), json.loads(report_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != spec:
        fail(f"{label}: metrics {got} != BENCHMARK.json {spec}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{label}: metric {name} is {m}")
    if not META_KEYS <= set(report["report"]):
        fail(f"{label}: report metadata lacks {sorted(META_KEYS - set(report['report']))}")
    for name, m in report["metrics"].items():
        if not isinstance(m.get("n"), int) or m["n"] < 1:
            fail(f"{label}: report metric {name} has no sample count")
    if not trace and "percentile" not in report["metrics"]["op_tail_s"]:
        fail(f"{label}: op_tail_s does not name its percentile")
    print(f"ok  {label:30} attempted={result['attempted']}")


def run_without_sources() -> None:
    """The benchmark alone, with no src/, must fail and print no result."""
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reproduce", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"benchmark without sources exited {proc.returncode} with output {proc.stdout[-300:]!r}")
    print("ok  no sources: exit", proc.returncode)


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    check_spec()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            run(workload, trace)
    run_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
