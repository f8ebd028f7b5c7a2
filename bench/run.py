#!/usr/bin/env python3
"""mecode benchmark: closed-loop workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload stream --seed 3 --seconds 22 --trace 0
    python3 bench/run.py                 # every workload in turn, then a summary

One client runs one op at a time, for as many whole cycles of the
workload's op mix as take --seconds on the reference machine (with
--trace 1, half as many cycles, each instance run untraced and traced).
Each op's outputs are checked outside the timed span. The last stdout
line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. The line before it is a fuller report: run metadata,
sample counts, the op_tail_s percentile, fail_ratio and, for `stream`,
encode/decode throughput. The program is run from ./src of the checkout
the benchmark sits in; nothing is installed. Exit status is 1 when any op
fails its output check, 2 when the checkout has no mecode sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CheckFailure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_out"
SETUP_PROBE_S = 1.5
SETUP_CODE = "import mecode.cli; mecode.cli.build_parser()"


def spawn(argv: list[str], out: Path, err: Path) -> tuple[int, float, int]:
    """Run a Python child to completion; return its exit code, wall time and peak RSS (KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), perf_counter() - start, usage.ru_maxrss


def cold_start(work: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    rc, wall, _ = spawn(["-c", SETUP_CODE], work / "setup.out", work / "setup.err")
    if rc != 0:
        raise SystemExit(f"set-up probe failed: {(work / 'setup.err').read_text()}")
    return wall


def run_step(step, opdir: Path, in_process: bool, tracer) -> None:
    """Run one CLI command, in this process or a fresh one, filling in its results."""
    if in_process:
        import mecode.cli

        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.spans, tracer.counts, tracer.active = [], {}, True
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    step.rc = mecode.cli.main(step.argv)
                except Exception:  # an op fails on any exception; keep the loop running
                    step.rc = -1
                    traceback.print_exc()
                step.latency_s = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.active = False
                step.spans, step.counts = tracer.spans, tracer.counts
        step.stdout, step.stderr = out.getvalue(), err.getvalue()
        return
    stem = opdir / f"{step.argv[0]}"
    if tracer is None:
        argv = ["-m", "mecode", *step.argv]
    else:
        argv = [str(BENCH / "tracer.py"), f"{stem}.spans.json", "--", *step.argv]
    step.rc, step.latency_s, step.rss_kib = spawn(argv, Path(f"{stem}.stdout"), Path(f"{stem}.stderr"))
    step.stdout = Path(f"{stem}.stdout").read_text()
    step.stderr = Path(f"{stem}.stderr").read_text()
    if tracer is not None and Path(f"{stem}.spans.json").exists():
        doc = json.loads(Path(f"{stem}.spans.json").read_text())
        step.spans, step.counts = doc["spans"], doc["counts"]


TAIL_PERCENTILE = 80


def tail(latencies: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile latency, by nearest rank.

    The percentile is fixed, so a longer run or a faster program measures
    the same point of the distribution. A rank counted from the top, such
    as the 11th largest, moves further out as n grows, until it measures
    only the few seconds in which a shared host was slow.
    """
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(TAIL_PERCENTILE * len(ordered) / 100) - 1)]


def highest_tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (the 11th largest), for the report."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(args) -> int:
    reference = json.loads((BENCH / "reference.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, args.tiny, reference)
    WORK.mkdir(exist_ok=True)
    ops_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = None
        if not args.trace:
            cold_start(ops_root)  # warms the bytecode and page caches; not counted
            setup = [cold_start(ops_root)]
        workload.setup(ops_root)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        ops = loop(workload, ops_root, args, tracer, setup)
    finally:
        shutil.rmtree(ops_root, ignore_errors=True)
    return report(args, workload, setup, ops)


def loop(workload, ops_root: Path, args, tracer, setup: list[float] | None) -> list[dict]:
    """Closed loop: one op at a time over a fixed number of whole cycles.

    Untraced, it also times a cold start between ops every SETUP_PROBE_S
    seconds into `setup`, so that setup_s is a median over the whole run
    rather than over one moment of it.
    """
    # The cycle count comes from --seconds and the workload's nominal cycle
    # time, not from the clock, so a slow spell on a shared host cannot drop
    # a cycle: that would change n and the op mix the percentiles are taken over.
    cycles = max(1, round(args.seconds / workload.CYCLE_S))
    if args.trace:  # every instance runs twice, so half the cycles fill the run
        cycles = max(1, round(cycles / 2))
    ops: list[dict] = []
    index = 0
    probed = perf_counter()
    for cycle in itertools.islice(workload.instances(), cycles):
        for inst in cycle:
            ops += run_op(workload, ops_root, index, inst, args.trace, tracer)
            index += 1
            if setup is not None and perf_counter() - probed >= SETUP_PROBE_S:
                setup.append(cold_start(ops_root))
                probed = perf_counter()
    return ops


def run_op(workload, ops_root: Path, index: int, inst: dict, trace: int, tracer) -> list[dict]:
    """Run and check one instance; with tracing, untraced and traced, alternating which goes first."""
    variants = (False,) if not trace else ((False, True) if index % 2 == 0 else (True, False))
    ops = []
    for traced in variants:
        opdir = Path(tempfile.mkdtemp(prefix="op-", dir=ops_root))
        try:
            steps = workload.steps(inst, opdir)
            for step in steps:
                run_step(step, opdir, workload.in_process, tracer if traced else None)
            try:
                outcome, error = workload.check(index, inst, opdir, steps), None
            except CheckFailure as exc:
                outcome, error = "failed", str(exc)
            except Exception:  # malformed program output is a failed op, not a crash
                outcome, error = "failed", traceback.format_exc(limit=-2)
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        op = {
            "index": index,
            "traced": traced,
            "outcome": outcome,
            "error": error,
            "latency_s": sum(s.latency_s for s in steps),
            "steps": [(s.argv[0], s.latency_s, s.rss_kib) for s in steps],
            "spans": _merge_spans(steps),
            "counts": _merge_counts(steps),
        }
        if workload.name == "stream":
            op["bits"] = workload.bit_counts(inst)[0]
        ops.append(op)
        if error is not None:
            print(f"op {index} failed its check: {error}", file=sys.stderr)
    return ops


def _merge_spans(steps) -> list[list]:
    """Concatenate the steps' span lists, shifting parent indices."""
    merged: list[list] = []
    for step in steps:
        base = len(merged)
        merged += [[*span[:3], span[3] + base if span[3] >= 0 else -1, span[4]] for span in step.spans]
    return merged


def _merge_counts(steps) -> dict:
    counts: dict = {}
    for step in steps:
        for name, value in step.counts.items():
            counts[name] = counts.get(name, 0) + value
    return counts


def metadata(args) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
    }


def end_to_end(workload, setup: list[float], ops: list[dict]) -> tuple[dict, dict]:
    """The result line's end-to-end metrics, and the report-only extras."""
    latencies = [op["latency_s"] for op in ops]
    n = len(ops)
    solved = sum(op["outcome"] == "ok" for op in ops)
    if workload.in_process:
        rss_kib, rss_n = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1
    else:
        rss = [kib for op in ops for _, _, kib in op["steps"]]
        rss_kib, rss_n = max(rss), len(rss)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s", "n": n},
        "op_tail_s": {"value": tail(latencies), "unit": "s", "n": n, "percentile": TAIL_PERCENTILE},
        "ops_per_s": {"value": n / sum(latencies), "unit": "1/s", "n": n},
        "success_ratio": {"value": solved / n, "unit": "ratio", "n": n},
        "peak_rss_mib": {"value": rss_kib / 1024, "unit": "MiB", "n": rss_n},
    }
    top_s, top_pct = highest_tail(latencies)
    extra = {
        "fail_ratio": {"value": (n - solved) / n, "unit": "ratio", "n": n},
        "op_tail_highest_s": {"value": top_s, "unit": "s", "n": n, "percentile": round(top_pct, 2)},
    }
    if workload.name == "stream":
        bits = sum(op["bits"] for op in ops)
        for kind in ("encode", "decode"):
            wall = sum(lat for op in ops for name, lat, _ in op["steps"] if name == kind)
            extra[f"{kind}_mbit_s"] = {"value": bits / wall / 1e6, "unit": "Mbit/s", "n": n}
    return metrics, extra


def per_layer(ops: list[dict]) -> dict:
    from mecode.varopt import DEFAULT_NODE_BUDGET
    from tracer import layer_metrics

    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    values = layer_metrics(traced, DEFAULT_NODE_BUDGET)
    values["trace.overhead_ratio"] = (
        statistics.median(op["latency_s"] for op in traced)
        / statistics.median(op["latency_s"] for op in plain) - 1.0
    )
    spec = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    return {name: {"value": values[name], "unit": spec[name], "n": len(traced)} for name in spec}


def write_trace(workload_name: str, ops: list[dict]) -> Path:
    path = WORK / f"trace_{workload_name}.jsonl"
    with open(path, "w") as fh:
        for op_id, op in enumerate(ops):
            if op["traced"]:
                for span in op["spans"]:
                    fh.write(json.dumps([op_id, *span]) + "\n")
    return path


def report(args, workload, setup: list[float] | None, ops: list[dict]) -> int:
    failed = sum(op["outcome"] == "failed" for op in ops)
    meta = metadata(args)
    if args.trace:
        metrics = per_layer(ops)
        meta["trace_file"] = str(write_trace(workload.name, ops).relative_to(ROOT))
        extra = {}
    else:
        metrics, extra = end_to_end(workload, setup, ops)
    meta["unsolved"] = sum(op["outcome"] == "unsolved" for op in ops)
    meta["errors"] = [op["error"] for op in ops if op["error"]][:5]
    print(json.dumps({"report": meta, "metrics": metrics, "extra": extra}))
    line = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(lines[-2])
        doc, result = json.loads(lines[-2]), json.loads(lines[-1])
        for metric, m in {**doc["metrics"], **doc["extra"]}.items():
            note = f" (p{m['percentile']})" if "percentile" in m else ""
            rows.append(f"{name:15} {metric:34} {m['value']:14.6g} {m['unit']:9} n={m['n']}{note}")
        rows.append(f"{name:15} {'attempted / failed':34} {result['attempted']:>14} / {result['failed']}")
    print("\n".join(rows))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and no pinned budget cases, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "mecode" / "cli.py").is_file():
        print(f"error: no mecode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mecode

    if Path(mecode.__file__).resolve().parent != SRC / "mecode":
        print(f"error: imported mecode from {mecode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
