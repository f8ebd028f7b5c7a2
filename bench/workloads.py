"""The four benchmark workloads: seeded inputs, op steps and output checks.

Every op runs mecode exactly as a user would: `reproduce` and `stream` start
a fresh `python -m mecode` process per command, and the two `design_*`
workloads call `mecode.cli.main` in process, the way sweeps and scripts
call the optimizer many times. Inputs are written, and outputs checked,
outside the timed span; each op gets a fresh directory, so no command ever
rewrites an existing file (see README.md for why that matters).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

GAMMAS = (1.0, 2.0, 5.0, 20.0, 100.0, math.inf)
UNIFORM_GAMMAS = (1.5, 2.0, 5.0, 20.0, 100.0, math.inf)
REL_TOL = 1e-12
STREAM_SYMBOLS = 200_000
# Each workload's CYCLE_S is the time one cycle of its ops takes on the
# reference machine (2-vCPU AMD EPYC, Python 3.11): a run measures
# round(--seconds / CYCLE_S) cycles, the same number on any machine.


class CheckFailure(Exception):
    """An op's output disagrees with what the benchmark expects."""


@dataclass
class Step:
    """One mecode CLI command of an op, and what it produced."""

    argv: list[str]
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    latency_s: float = 0.0
    rss_kib: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def beta_args(gamma: float) -> list[str]:
    if math.isinf(gamma):
        return ["--beta0", "0", "--beta1", "1"]
    return ["--beta0", "1", "--beta1", repr(gamma)]


def betas(gamma: float) -> tuple[float, float]:
    return (0.0, 1.0) if math.isinf(gamma) else (1.0, gamma)


def flat_probs(rng: random.Random, m: int) -> list[float]:
    """Same family as the CLI selftest's random source."""
    raw = [rng.random() + 0.05 for _ in range(m)]
    total = sum(raw)
    return [v / total for v in raw]


def zipf_probs(rng: random.Random, m: int) -> list[float]:
    """Skewed source: p_k ~ 1/k^1.2 with a 10% jitter, in shuffled symbol order."""
    raw = [rng.uniform(0.9, 1.1) / (k + 1) ** 1.2 for k in range(m)]
    rng.shuffle(raw)
    total = sum(raw)
    return [v / total for v in raw]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class Reproduce:
    """`mecode reproduce --target all` into a new directory, in a fresh interpreter."""

    name = "reproduce"
    CYCLE_S = 0.3
    in_process = False

    def __init__(self, seed: int, tiny: bool, reference: dict):
        self.manifest = reference["reproduce"]

    def setup(self, work: Path) -> None:
        pass

    def instances(self):
        # The inputs are fixed by the paper, so the seed is unused.
        while True:
            yield [{}]

    def steps(self, inst: dict, opdir: Path) -> list[Step]:
        (opdir / "out").mkdir()
        return [Step(["reproduce", "--target", "all", "--out-dir", str(opdir / "out")])]

    def check(self, index: int, inst: dict, opdir: Path, steps: list[Step]) -> str:
        (step,) = steps
        if step.rc != 0:
            raise CheckFailure(f"reproduce exited {step.rc}: {step.stderr.strip()[-300:]}")
        got = {p.name: sha256(p) for p in (opdir / "out").iterdir()}
        if got != self.manifest:
            bad = sorted(k for k in set(got) | set(self.manifest) if got.get(k) != self.manifest.get(k))
            raise CheckFailure(f"reproduce output differs from the manifest: {bad}")
        return "ok"


# ---------------------------------------------------------------------------
# design_uniform and design_general
# ---------------------------------------------------------------------------


def best_fixed_cost(probs: list[float], b0: float, b1: float, n_lo: int, n_hi: int) -> float:
    """Cheapest fixed-length code with n in [n_lo, n_hi], cheap words to probable symbols."""
    desc = sorted(probs, reverse=True)
    best = math.inf
    for n in range(n_lo, n_hi + 1):
        cost, i, w = 0.0, 0, 0
        while i < len(desc):
            for _ in range(min(math.comb(n, w), len(desc) - i)):
                cost += desc[i] * (n * b0 + w * (b1 - b0))
                i += 1
            w += 1
        best = min(best, cost)
    return best


class Design:
    """In-process `mecode optimize`; subclasses supply the seeded instances."""

    in_process = True

    def __init__(self, seed: int, tiny: bool, reference: dict):
        self.seed = seed
        self.tiny = tiny
        # Reference outcomes exist for the default seed's leading ops only.
        self.reference = reference[self.name] if seed == reference["seed"] and not tiny else []

    def setup(self, work: Path) -> None:
        pass

    def steps(self, inst: dict, opdir: Path) -> list[Step]:
        argv = ["optimize", "--kind", inst["kind"], "--m", str(inst["m"]), *beta_args(inst["gamma"])]
        if inst["probs"] is not None:
            (opdir / "probs.json").write_text(json.dumps({"probs": inst["probs"]}))
            argv += ["--probs", str(opdir / "probs.json")]
        if inst["dp"] is not None:
            argv += ["--dp", str(inst["dp"])]
        if inst["eta_max"] is not None:
            argv += ["--eta-max", repr(inst["eta_max"])]
        argv += ["-o", str(opdir / "codebook.json"), "--json"]
        return [Step(argv)]

    def check(self, index: int, inst: dict, opdir: Path, steps: list[Step]) -> str:
        (step,) = steps
        ref = self.reference[index] if index < len(self.reference) else None
        if ref is not None and ref["key"] != key(inst):
            raise CheckFailure(f"op {index}: instance {key(inst)} is not the recorded {ref['key']}")
        out = opdir / "codebook.json"
        if step.rc != 0:
            if "node budget" in step.stderr and inst["kind"] == "prefix" and not out.exists():
                return "unsolved"
            raise CheckFailure(f"optimize exited {step.rc}: {step.stderr.strip()[-300:]}")
        doc = json.loads(step.stdout)
        text = out.read_text()
        cb = json.loads(text)
        words = cb["entries"]
        m = inst["m"]
        if cb["kind"] != inst["kind"] or len(words) != m or len(set(words)) != m:
            raise CheckFailure(f"codebook is not {m} distinct {inst['kind']} words")
        if any(not w or set(w) - {"0", "1"} for w in words):
            raise CheckFailure("codebook has a word that is not a non-empty bit string")
        probs = inst["probs"] or [1.0 / m] * m
        b0, b1 = betas(inst["gamma"])
        word_cost = [b0 * w.count("0") + b1 * w.count("1") for w in words]
        cost = design_cost(inst, words)
        if not close(cost, doc["beta_code"]):
            raise CheckFailure(f"reported cost {doc['beta_code']!r} != recomputed {cost!r}")
        ranked = sorted(range(m), key=lambda i: -probs[i])
        if any(word_cost[a] > word_cost[b] * (1 + REL_TOL) and probs[a] > probs[b]
               for a, b in zip(ranked, ranked[1:])):
            raise CheckFailure("a more probable symbol got a costlier codeword")
        n_min = (m - 1).bit_length()
        if inst["kind"] == "fixed":
            if len({len(w) for w in words}) != 1:
                raise CheckFailure("fixed codebook has words of different lengths")
            if not close(cost, best_fixed_cost(probs, b0, b1, n_min, m - 1)):
                raise CheckFailure(f"fixed cost {cost!r} is not the closed-form optimum")
        else:
            dp = inst["dp"] if inst["dp"] is not None else min(m - 1, 24)
            ws = sorted(words)
            if any(b.startswith(a) for a, b in zip(ws, ws[1:])):
                raise CheckFailure("prefix codebook is not prefix-free")
            if max(map(len, words)) > dp:
                raise CheckFailure(f"prefix codebook has a word longer than dp={dp}")
            if inst["eta_max"] is None:
                bound = best_fixed_cost(probs, b0, b1, n_min, dp)
                if cost > bound * (1 + REL_TOL):
                    raise CheckFailure(f"prefix cost {cost!r} exceeds a fixed code's {bound!r}")
            else:
                entropy = -sum(p * math.log2(p) for p in probs if p > 0)
                eta = sum(p * len(w) for p, w in zip(probs, words)) / entropy
                if eta > inst["eta_max"] * (1 + REL_TOL):
                    raise CheckFailure(f"eta {eta!r} exceeds eta_max {inst['eta_max']!r}")
        if ref is not None and ref["outcome"] == "ok":
            if not close(cost, ref["cost"]):
                raise CheckFailure(f"cost {cost!r} != reference {ref['cost']!r}")
            if "sha256" in ref and hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
                raise CheckFailure("codebook JSON is not byte-identical to the reference")
        return "ok"


def design_cost(inst: dict, words: list[str]) -> float:
    """Average cost of a codebook's words (in symbol order) under the instance's source."""
    probs = inst["probs"] or [1.0 / inst["m"]] * inst["m"]
    b0, b1 = betas(inst["gamma"])
    return sum(p * (b0 * w.count("0") + b1 * w.count("1")) for p, w in zip(probs, words))


def key(inst: dict) -> list:
    """JSON-stable identity of a design instance."""
    return [inst["kind"], inst["m"], repr(inst["gamma"]), inst["dp"], repr(inst["eta_max"]),
            hashlib.sha256(repr(inst["probs"]).encode()).hexdigest()[:16]]


def design(kind, m, gamma, dp=None, probs=None, eta_max=None) -> dict:
    return {"kind": kind, "m": m, "gamma": gamma, "dp": dp, "probs": probs, "eta_max": eta_max}


class DesignUniform(Design):
    """Equiprobable sources: the uniform subtree DP, and fixed codes at the same m.

    A cycle holds one prefix op per m stratum with the default depth, one
    with an explicit depth, and a fixed op after every third, then a sweep
    of default-depth prefix ops over every other m from 33 to 63. The sweep
    costs a fifth of the cycle's time but holds half its ops, so the median
    op falls among many ops of nearly equal cost rather than between two
    strata, where one noisy op would move it. Gamma and the explicit depth
    rotate with the cycle; the seed moves each m by about 1.5%, which keeps
    every instance new while runs with different seeds do the same amount
    of work.
    """

    name = "design_uniform"
    CYCLE_S = 8.2
    M_STRATA = (128, 32, 256, 64, 181, 45, 90)
    M_SWEEP = tuple(range(33, 64, 2))

    def instances(self):
        rng = random.Random(self.seed)
        strata = (8, 12, 16) if self.tiny else self.M_STRATA
        slots = []
        for i, base in enumerate(strata * 2):
            slots.append(("prefix", base, i >= len(strata)))
            if i % 3 == 2:
                slots.append(("fixed", base, False))
        slots += [("prefix", base, False) for base in ((9, 11, 13) if self.tiny else self.M_SWEEP)]
        seen = set()
        for c in itertools.count():
            cycle = []
            for j, (kind, base, explicit) in enumerate(slots):
                gamma = UNIFORM_GAMMAS[(j + c) % len(UNIFORM_GAMMAS)]
                spread = 0.015
                while True:
                    m = max(min(strata), round(base * rng.uniform(1 - spread, 1 + spread)))
                    dp = max((4 if self.tiny else 12) + (j + c) % 3, (m - 1).bit_length()) if explicit else None
                    inst = design(kind, m, gamma, dp)
                    if tuple(key(inst)) not in seen:
                        break
                    spread += 0.01
                seen.add(tuple(key(inst)))
                cycle.append(inst)
            yield cycle


# The two budget cases pinned in ROADMAP.md: the 10-symbol CLI default
# (dp = m - 1 = 9, gamma = 5) and gamma = 1, m = 8, dp = 7. Both use the
# selftest's random-source family with Random(1); neither depends on --seed.
PINNED = (
    design("prefix", 10, 5.0, None, flat_probs(random.Random(1), 10)),
    design("prefix", 8, 1.0, 7, flat_probs(random.Random(1), 8)),
)


def general_pool() -> list[dict]:
    """Base instances of design_general: flat and Zipf-like sources at m 8-16 and
    dp 4-5 with gamma rotating over GAMMAS, and uniform sources under eta_max.

    dp = 5 with gamma <= 2 and m >= 12 is left out: those instances exhaust
    the node budget after seconds each, a case the pinned instances cover.
    """
    pool, k = [], 0
    for shift, fam in enumerate((flat_probs, zipf_probs)):
        for m in range(8, 17):
            for dp in (4, 5):
                # Gamma turns with m + dp, so each depth meets every gamma. The
                # Zipf offset puts its dp = 5, gamma <= 2 cases at m 9-10, where
                # they take about a second rather than several.
                gamma = GAMMAS[(m + dp + 4 * shift) % len(GAMMAS)]
                k += 1
                if not (dp == 5 and gamma <= 2 and m >= 12):
                    pool.append(design("prefix", m, gamma, dp, fam(random.Random(k), m)))
    for m in (8, 10, 12, 14, 16):
        for dp in (5, 6) if m <= 12 else (5,):
            for eta in (1.1, 1.3, 1.5):
                pool.append(design("prefix", m, 5.0, dp, None, eta))
    return pool


class DesignGeneral(Design):
    """Instances that take the branch-and-bound engine.

    A cycle runs both pinned budget cases and three passes over the pool,
    about one run's worth at the default length, so every run measures the
    same mix. Each pass scales every probability of a pool source by up to
    2% (then renormalizes), and moves each eta_max by up to 1% within
    [1.1, 1.5]: the instance is new, but its search costs about the same on
    every seed, which B&B's seconds-wide spread over fresh random sources
    would not allow. No pool instance repeats within a run.
    """

    name = "design_general"
    CYCLE_S = 21.0
    POOL_PASSES = 3

    def instances(self):
        rng = random.Random(self.seed)
        pool = [inst for inst in general_pool() if not self.tiny or inst["dp"] == 4]
        seen = set()

        def jittered(inst):
            while True:
                new = dict(inst)
                if inst["probs"] is not None:
                    raw = [p * rng.uniform(0.98, 1.02) for p in inst["probs"]]
                    new["probs"] = [p / sum(raw) for p in raw]
                if inst["eta_max"] is not None:
                    eta = inst["eta_max"]
                    new["eta_max"] = rng.uniform(max(1.1, eta * 0.99), min(1.5, eta * 1.01))
                if tuple(key(new)) not in seen:
                    seen.add(tuple(key(new)))
                    return new

        while True:
            cycle = [] if self.tiny else list(PINNED)
            for _ in range(1 if self.tiny else self.POOL_PASSES):
                cycle += map(jittered, pool)
            yield cycle


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


class Stream:
    """A fresh `mecode encode`, then a fresh `mecode decode`, of a new symbol file.

    Ops rotate across three codebooks built once at set-up: the paper's
    Table 4 prefix code (m = 8, gamma = 5), the fixed code for the same
    instance, and a prefix code for a skewed m = 16 source used with a
    swapped cost model (beta0 > beta1), so the codec inverts channel bits.
    """

    name = "stream"
    CYCLE_S = 0.9
    in_process = False

    def __init__(self, seed: int, tiny: bool, reference: dict):
        self.seed = seed
        self.count = 2_000 if tiny else STREAM_SYMBOLS

    def setup(self, work: Path) -> None:
        from mecode import (CostModel, codebook_to_json, cost_model_to_json, optimize_fixed,
                            optimize_prefix, symbol_source, uniform_source)

        table4 = CostModel(1.0, 5.0, 1.0, 1.0)
        skew = [1.0 / (k + 1) for k in range(16)]
        skew = [p / sum(skew) for p in skew]
        swapped = CostModel(5.0, 1.0, 1.0, 1.0)
        books = (
            ("table4_prefix", optimize_prefix(uniform_source(8), table4, dp=7), table4, [1 / 8] * 8),
            ("table4_fixed", optimize_fixed(uniform_source(8), table4)[0], table4, [1 / 8] * 8),
            ("skew16_swapped", optimize_prefix(symbol_source(skew), swapped, dp=5), swapped, skew),
        )
        self.books = []
        for name, cb, cm, probs in books:
            cb_path, cm_path = work / f"{name}.codebook.json", work / f"{name}.costmodel.json"
            cb_path.write_text(codebook_to_json(cb) + "\n")
            cm_path.write_text(cost_model_to_json(cm) + "\n")
            self.books.append((name, cb, cm, probs, cb_path, cm_path))

    def instances(self):
        rng = random.Random(self.seed)
        while True:
            yield [{"book": index, "symbols": rng.choices(range(len(book[3])), book[3], k=self.count)}
                   for index, book in enumerate(self.books)]

    def steps(self, inst: dict, opdir: Path) -> list[Step]:
        _, _, _, _, cb_path, cm_path = self.books[inst["book"]]
        (opdir / "symbols.txt").write_text(" ".join(map(str, inst["symbols"])) + "\n")
        common = ["-c", str(cb_path), "--costmodel", str(cm_path), "--json"]
        return [
            Step(["encode", "-i", str(opdir / "symbols.txt"), "-o", str(opdir / "stream.bin"), *common]),
            Step(["decode", "-i", str(opdir / "stream.bin"), "-o", str(opdir / "decoded.txt"), *common]),
        ]

    def check(self, index: int, inst: dict, opdir: Path, steps: list[Step]) -> str:
        from mecode import stream_cost

        for step in steps:
            if step.rc != 0:
                raise CheckFailure(f"{step.argv[0]} exited {step.rc}: {step.stderr.strip()[-300:]}")
        _, cb, cm, _, _, _ = self.books[inst["book"]]
        bits, ones = self.bit_counts(inst)
        if json.loads(steps[0].stdout)["bits"] != bits:
            raise CheckFailure(f"encode reported {steps[0].stdout.strip()}, expected {bits} bits")
        data = (opdir / "stream.bin").read_bytes()
        if int.from_bytes(data[:8], "little") != bits:
            raise CheckFailure("stream header does not hold the sum of codeword lengths")
        channel_ones = int.from_bytes(data[8:], "big").bit_count()
        if (bits - channel_ones if cm.swapped else channel_ones) != ones:
            raise CheckFailure("stream bits do not match the codewords of the input symbols")
        if (opdir / "decoded.txt").read_bytes() != (opdir / "symbols.txt").read_bytes():
            raise CheckFailure("decoded symbols differ from the input")
        cost = cm.beta0 * (bits - ones) + cm.beta1 * ones
        if not close(stream_cost(inst["symbols"], cb, cm), cost):
            raise CheckFailure(f"stream_cost disagrees with the coded bits' cost {cost!r}")
        return "ok"

    def bit_counts(self, inst: dict) -> tuple[int, int]:
        """Coded bits of an op's symbols, and how many of them are ones (before channel inversion)."""
        words = [e.bits for e in self.books[inst["book"]][1].entries]
        counts = Counter(inst["symbols"])
        return (sum(n * len(words[s]) for s, n in counts.items()),
                sum(n * words[s].count("1") for s, n in counts.items()))


WORKLOADS = {w.name: w for w in (Reproduce, DesignUniform, DesignGeneral, Stream)}
