"""Spans around mecode's public functions, installed from outside the package.

`Tracer.install()` rebinds each traced function in its defining module and
everywhere a mecode module imported it by name (`mecode.cli` holds its own
`optimize_prefix` and `encode`, `mecode.metrics` its own `codeword_cost`),
and `uninstall()` puts the originals back. Spans stay in memory as
[name, start, end, parent, note] lists until the run writes them out.
The hot cost-model helpers (hundreds of thousands of calls per op) are
counted, not spanned.

Run as a script, it traces one CLI command in a child process:

    python3 bench/tracer.py SPANS.json -- encode -c cb.json -i in.txt -o out.bin
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
from time import perf_counter

_INHERITED = object()


def _engine(args, kwargs) -> str:
    """Name an optimize_prefix span after the engine its arguments select."""
    from mecode.costmodel import as_source

    source = args[0] if args else kwargs["source"]
    eta_max = args[3] if len(args) > 3 else kwargs.get("eta_max")
    return "varopt.dp" if eta_max is None and as_source(source).is_uniform else "varopt.bnb"


# (module, attribute, span name or namer, note taken from (args, kwargs, result))
SPANNED = (
    ("mecode.cli", "main", "cli.main", None),
    ("mecode.codebook", "codebook_to_json", "codebook.json", None),
    ("mecode.codebook", "codebook_from_json", "codebook.json", None),
    ("mecode.fixedopt", "optimize_fixed", "fixedopt.optimize_fixed", None),
    ("mecode.fixedopt", "cheapest_words", "fixedopt.cheapest_words", lambda a, k, r: len(r)),
    ("mecode.varopt", "optimize_prefix", _engine, None),
    ("mecode.codec", "encode", "codec.encode", lambda a, k, r: len(r)),
    ("mecode.codec", "decode", "codec.decode", lambda a, k, r: len(a[0])),
    ("mecode.metrics", "evaluate", "metrics.evaluate", None),
    ("mecode.metrics", "sweep", "metrics.sweep", lambda a, k, r: len(r)),
    ("mecode.metrics", "sweep_to_csv", "metrics.csv", None),
)
COUNTED = (
    ("mecode.costmodel", "codeword_cost", "costmodel.codeword_cost_calls"),
    ("mecode.costmodel", "codeword_duration", "costmodel.codeword_duration_calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.active = False  # inside an op: count file I/O
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            record = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = perf_counter()
                record[4] = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
            record[2] = perf_counter()
            if note is not None:
                record[4] = note(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _io(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if tracer.active:
                tracer.count(name, path.stat().st_size)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` in every mecode module that binds it by name."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mecode" or modname.startswith("mecode.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import mecode.cli  # noqa: F401  (imports every traced module)
        from mecode.codebook import Codebook
        from mecode.codec import BitStream

        for modname, attr, name, note in SPANNED:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._span(name, original, note))
        for modname, attr, name in COUNTED:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._counter(name, original))
        self._patch(Codebook, "__post_init__",
                    self._span("codebook.build", Codebook.__post_init__, None))
        self._patch(BitStream, "to_bytes", self._span("codec.to_bytes", BitStream.to_bytes, None))
        from_bytes = BitStream.__dict__["from_bytes"].__func__
        self._patch(BitStream, "from_bytes",
                    classmethod(self._span("codec.from_bytes", from_bytes, None)))
        # File I/O is part of the CLI layer: count its bytes, time it as cli self time.
        for attr, name in (("read_text", "cli.bytes_read"), ("read_bytes", "cli.bytes_read"),
                           ("write_text", "cli.bytes_written"), ("write_bytes", "cli.bytes_written")):
            self._patch(pathlib.Path, attr, self._io(name, getattr(pathlib.Path, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(ops: list[dict], node_budget: int) -> dict[str, float]:
    """Per-layer metrics from traced ops.

    Each op dict holds `latency_s`, `spans` (parents index into the same
    op's list) and `counts`. Times and counts are per traced op.
    """
    n = max(1, len(ops))
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    notes: dict[str, float] = {}
    budget_times: list[float] = []
    bnb_solved = 0
    counts: dict[str, int] = {}
    for op in ops:
        for name, value in op["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for span, own in zip(op["spans"], self_times(op["spans"])):
            name = span[0]
            total[name] = total.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + span[2] - span[1]
            if isinstance(span[4], int):
                notes[name] = notes.get(name, 0) + span[4]
            if name == "varopt.bnb":
                if span[4] == "SearchBudgetError":
                    budget_times.append(span[2] - span[1])
                elif span[4] is None:
                    bnb_solved += 1
    op_time = sum(op["latency_s"] for op in ops)

    def rate(name):
        return notes.get(name, 0) / inclusive[name] / 1e6 if inclusive.get(name) else 0.0

    return {
        "cli.self_s": total.get("cli.main", 0.0) / n,
        "cli.bytes_read": counts.get("cli.bytes_read", 0) / n,
        "cli.bytes_written": counts.get("cli.bytes_written", 0) / n,
        "costmodel.codeword_cost_calls": counts.get("costmodel.codeword_cost_calls", 0) / n,
        "costmodel.codeword_duration_calls": counts.get("costmodel.codeword_duration_calls", 0) / n,
        "codebook.build_s": total.get("codebook.build", 0.0) / n,
        "codebook.builds": calls.get("codebook.build", 0) / n,
        "codebook.json_s": total.get("codebook.json", 0.0) / n,
        "fixedopt.optimize_fixed_s": total.get("fixedopt.optimize_fixed", 0.0) / n,
        "fixedopt.optimize_fixed_calls": calls.get("fixedopt.optimize_fixed", 0) / n,
        "fixedopt.cheapest_words_s": total.get("fixedopt.cheapest_words", 0.0) / n,
        "fixedopt.words_emitted": notes.get("fixedopt.cheapest_words", 0) / n,
        "varopt.dp_s": total.get("varopt.dp", 0.0) / n,
        "varopt.dp_calls": calls.get("varopt.dp", 0) / n,
        "varopt.bnb_s": total.get("varopt.bnb", 0.0) / n,
        "varopt.bnb_calls": calls.get("varopt.bnb", 0) / n,
        "varopt.bnb_solved_ratio": bnb_solved / calls["varopt.bnb"] if calls.get("varopt.bnb") else 0.0,
        "varopt.bnb_budget_errors": len(budget_times) / n,
        "varopt.bnb_budget_nodes_per_s":
            node_budget * len(budget_times) / sum(budget_times) if budget_times else 0.0,
        "codec.encode_s": total.get("codec.encode", 0.0) / n,
        "codec.decode_s": total.get("codec.decode", 0.0) / n,
        "codec.to_bytes_s": total.get("codec.to_bytes", 0.0) / n,
        "codec.from_bytes_s": total.get("codec.from_bytes", 0.0) / n,
        "codec.bits": (notes.get("codec.encode", 0) + notes.get("codec.decode", 0)) / n,
        "codec.encode_mbit_s": rate("codec.encode"),
        "codec.decode_mbit_s": rate("codec.decode"),
        "metrics.evaluate_s": total.get("metrics.evaluate", 0.0) / n,
        "metrics.evaluate_calls": calls.get("metrics.evaluate", 0) / n,
        "metrics.sweep_s": total.get("metrics.sweep", 0.0) / n,
        "metrics.sweep_rows": notes.get("metrics.sweep", 0) / n,
        "metrics.csv_s": total.get("metrics.csv", 0.0) / n,
        "trace.coverage": sum(total.values()) / op_time if op_time else 0.0,
    }


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <mecode arguments>")
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    import mecode.cli

    try:
        return mecode.cli.main(cli_args)
    finally:
        tracer.active = False
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
