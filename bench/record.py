#!/usr/bin/env python3
"""Record bench/reference.json from the current sources.

    python3 bench/record.py

The reference holds the SHA-256 of every `reproduce --target all` output
file, and for the default seed (0) the outcome, average cost and codebook
JSON hash of the leading design_uniform and design_general ops. Record it
only at a commit whose outputs are known good: every later run is checked
against it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, design_cost, key, sha256

SEED = 0
UNIFORM_OPS = 120
GENERAL_OPS = 600


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        rc, _, _ = run.spawn(["-m", "mecode", "reproduce", "--target", "all", "--out-dir", str(tmp / "out")],
                             tmp / "stdout", tmp / "stderr")
        if rc != 0:
            raise SystemExit((tmp / "stderr").read_text())
        reference = {"seed": SEED,
                     "reproduce": {p.name: sha256(p) for p in sorted((tmp / "out").iterdir())}}
        empty = {"seed": SEED, "design_uniform": [], "design_general": []}
        for name, count in (("design_uniform", UNIFORM_OPS), ("design_general", GENERAL_OPS)):
            workload = WORKLOADS[name](SEED, False, empty)
            records = []
            for index, inst in zip(range(count), itertools.chain.from_iterable(workload.instances())):
                opdir = Path(tempfile.mkdtemp(prefix="op-", dir=tmp))
                (step,) = workload.steps(inst, opdir)
                run.run_step(step, opdir, True, None)
                outcome = workload.check(index, inst, opdir, [step])
                record = {"key": key(inst), "outcome": outcome}
                if outcome == "ok":
                    text = (opdir / "codebook.json").read_text()
                    record["cost"] = design_cost(inst, json.loads(text)["entries"])
                    if name == "design_uniform":
                        record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
                records.append(record)
                shutil.rmtree(opdir)
            reference[name] = records
            print(f"{name}: {len(records)} ops recorded", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [f' "seed": {SEED},', f' "reproduce": {json.dumps(reference["reproduce"], indent=2)},']
    for name in ("design_uniform", "design_general"):
        rows = ",\n".join("  " + json.dumps(r) for r in reference[name])
        lines.append(f' "{name}": [\n{rows}\n ],')
    lines[-1] = lines[-1].rstrip(",")
    (run.BENCH / "reference.json").write_text("{\n" + "\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
