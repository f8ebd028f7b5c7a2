"""Command-line interface: parses arguments, dispatches to the library and
prints the result.

Subcommands: optimize, encode, decode, sweep, rfid-gamma, reproduce and
selftest. Flag values take precedence over MECODE_* environment variables,
which in turn override built-in defaults. Every subcommand accepts --json
for a machine-readable result document on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import metrics, rfid
from .codebook import codebook_from_json, codebook_to_json
from .codec import BitStream, decode, encode
from .costmodel import CostModel, cost_model_from_json, cost_model_to_json, source_from_json, uniform_source
from .errors import MecodeError, ValidationError
from .fixedopt import scan_to_csv_rows
from .reproduce import REPRODUCE_TARGETS, reproduce
from .selftest import run_selftest
from .varopt import DEFAULT_DEPTH_CAP


def _env(name: str, default, parse=int):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        noun = "an integer" if parse is int else "a number"
        raise ValidationError(f"{name}: must be {noun}, got {raw!r}") from exc


def _parse_list(text: str, what: str, parse=float) -> tuple:
    """Comma list of numbers; float() also reads 'inf'."""
    try:
        return tuple(parse(v) for v in text.split(","))
    except ValueError as exc:
        noun = "integers" if parse is int else "numbers"
        raise ValidationError(f"{what}: expected a comma list of {noun}, got {text!r}") from exc


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:logN', 'start:stop:linN' or 'v1,v2,...'."""
    if ":" not in text:
        return _parse_list(text, "grid")
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid: expected start:stop:kindN, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        kind, count = parts[2][:3], int(parts[2][3:])
    except ValueError as exc:
        raise ValidationError(f"grid: cannot parse {text!r}") from exc
    if kind == "log":
        return metrics.log_grid(start, stop, count)
    if kind == "lin":
        return metrics.lin_grid(start, stop, count)
    raise ValidationError(f"grid: third field must be logN or linN, got {parts[2]!r}")


def _load_source(m: int, probs_path: str | None):
    if probs_path is None:
        return uniform_source(m)
    src = source_from_json(Path(probs_path).read_text())
    if src.m != m:
        raise ValidationError(f"--probs: file has {src.m} probabilities, --m is {m}")
    return src


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_optimize(args) -> int:
    if args.kind == "prefix" and args.scan:
        raise ValidationError("--scan: applies to --kind fixed only")
    src = _load_source(args.m, args.probs)
    cm = CostModel(args.beta0, args.beta1, args.t0, args.t1)
    cb, n_or_dp, scan = metrics.optimize_codebook(
        args.kind, src, cm, n_max=args.n_max, dp=args.dp, eta_max=args.eta_max
    )
    if args.scan:
        Path(args.scan).write_text("\n".join(scan_to_csv_rows(scan)) + "\n")
    report = metrics.evaluate(src, cb, cm)
    Path(args.output).write_text(codebook_to_json(cb) + "\n")
    doc = {
        "kind": args.kind,
        "m": src.m,
        "n_or_dp": n_or_dp,
        "beta_code": report.beta_code,
        "eta": report.eta,
        "epsilon": report.epsilon,
        "output": args.output,
    }
    _emit(
        doc,
        args.json,
        [
            f"kind={args.kind} m={src.m} n_or_dp={n_or_dp}",
            f"average cost : {report.beta_code:.6g}",
            f"rate factor  : {report.eta:.6g}",
            f"energy saving: {report.epsilon:.6g}",
            f"codebook     : {args.output}",
        ],
    )
    return 0


def cmd_encode(args) -> int:
    cb = codebook_from_json(Path(args.codebook).read_text())
    cm = cost_model_from_json(Path(args.costmodel).read_text()) if args.costmodel else None
    tokens = Path(args.input).read_text().split()
    try:
        symbols = [int(tok) for tok in tokens]
    except ValueError:
        for pos, tok in enumerate(tokens):
            try:
                int(tok)
            except ValueError:
                raise ValidationError(f"symbols[{pos}]: must be an integer, got {tok!r}") from None
    bs = encode(symbols, cb, cm)
    Path(args.output).write_bytes(bs.to_bytes())
    doc = {"symbols": len(symbols), "bits": len(bs), "output": args.output}
    _emit(doc, args.json, [f"encoded {len(symbols)} symbols into {len(bs)} bits: {args.output}"])
    return 0


def cmd_decode(args) -> int:
    cb = codebook_from_json(Path(args.codebook).read_text())
    cm = cost_model_from_json(Path(args.costmodel).read_text()) if args.costmodel else None
    bs = BitStream.from_bytes(Path(args.input).read_bytes())
    symbols = decode(bs, cb, cm)
    Path(args.output).write_text(" ".join(str(s) for s in symbols) + "\n")
    doc = {"bits": len(bs), "symbols": len(symbols), "output": args.output}
    _emit(doc, args.json, [f"decoded {len(bs)} bits into {len(symbols)} symbols: {args.output}"])
    return 0


def cmd_sweep(args) -> int:
    spec = metrics.SweepSpec(
        var=args.var,
        grid=_parse_grid(args.grid),
        m=_parse_list(args.m, "--m", int),
        gammas=_parse_list(args.gamma, "--gamma"),
        kinds=tuple(args.kinds.split(",")),
        t0=args.t0,
        t1=args.t1,
        n_max=args.n_max,
        dp=args.dp,
    )
    rows = metrics.sweep(spec)
    Path(args.output).write_text(metrics.sweep_to_csv(rows))
    doc = {"rows": len(rows), "columns": list(metrics.SWEEP_COLUMNS), "output": args.output}
    _emit(doc, args.json, [f"wrote {len(rows)} sweep rows: {args.output}"])
    return 0


def cmd_rfid_gamma(args) -> int:
    if (args.freq is None) == (args.wavelength is None):
        raise ValidationError("exactly one of --freq / --wavelength is required")
    if args.wavelength is None:
        args.wavelength = rfid.wavelength_from_frequency(args.freq)
    link = rfid.RfidLink(**{f.name: getattr(args, f.name) for f in dataclasses.fields(rfid.RfidLink)})
    summary = rfid.link_summary(link)
    lines = [
        f"P_in     : {summary['p_in_w']:.6g} W",
        f"V_ant    : {summary['v_ant_v']:.6g} V",
        f"V_DC     : {summary['v_dc_v']:.6g} V",
        f"P_in,DC  : {summary['p_in_dc_w']:.6g} W",
        f"beta0    : {summary['beta0_j']:.6g} J",
        f"beta1    : {summary['beta1_j']:.6g} J",
        f"gamma    : {summary['gamma']:.6g}",
        f"regime   : {summary['regime']}",
    ]
    doc = dict(summary)
    if math.isinf(doc["gamma"]):
        doc["gamma"] = "inf"
    if args.emit_costmodel:
        cm = rfid.cost_model_from_link(link, scale=args.scale)
        Path(args.emit_costmodel).write_text(cost_model_to_json(cm) + "\n")
        doc["costmodel"] = args.emit_costmodel
        lines.append(f"costmodel: {args.emit_costmodel}")
    _emit(doc, args.json, lines)
    return 0


def cmd_reproduce(args) -> int:
    doc = reproduce(args.target, Path(args.out_dir))
    _emit(doc, args.json, [f"wrote {p}" for p in doc["files"]])
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(args.seed, args.inject_fault)
    lines = [f"PASS {name}" if verdict == "pass" else f"FAIL {name}: {verdict.removeprefix('fail: ')}"
             for name, verdict in results.items()]
    passed = list(results.values()).count("pass")
    lines.append(f"{passed}/{len(results)} properties passed")
    ok = passed == len(results)
    _emit({"ok": ok, "seed": args.seed, "properties": results}, args.json, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecode",
        description=(
            "Minimum-energy source codebooks for binary channels with "
            "asymmetric per-bit transmission costs."
        ),
        epilog=(
            "Environment defaults: MECODE_SEED, MECODE_N_MAX, MECODE_DP, "
            "MECODE_SCALE. Flags always win."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON result document")

    p = sub.add_parser("optimize", help="construct a minimum-energy codebook")
    p.add_argument("--kind", choices=("fixed", "prefix"), required=True)
    p.add_argument("--m", type=int, required=True, help="number of source symbols")
    p.add_argument("--probs", help="JSON file with symbol probabilities")
    p.add_argument("--beta0", type=float, required=True, help="energy of a zero bit")
    p.add_argument("--beta1", type=float, required=True, help="energy of a one bit")
    p.add_argument("--t0", type=float, default=1.0, help="duration of a zero bit")
    p.add_argument("--t1", type=float, default=1.0, help="duration of a one bit")
    p.add_argument("--n-max", type=int, default=_env("MECODE_N_MAX", None),
                   help="fixed: largest block length to scan (default m-1)")
    p.add_argument("--dp", type=int, default=_env("MECODE_DP", None),
                   help=f"prefix: candidate tree depth (default min(m-1, {DEFAULT_DEPTH_CAP}))")
    p.add_argument("--eta-max", type=float, default=None,
                   help="prefix: optional bound on the rate-reduction factor")
    p.add_argument("--scan", help="fixed: also write the n scan as CSV")
    p.add_argument("-o", "--output", required=True, help="codebook JSON path")
    add_json(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("encode", help="encode whitespace-separated symbol indices")
    p.add_argument("-c", "--codebook", required=True)
    p.add_argument("-i", "--input", required=True, help="symbols text file")
    p.add_argument("-o", "--output", required=True, help="stream binary file")
    p.add_argument("--costmodel", help="cost model JSON (applies channel inversion if swapped)")
    add_json(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream back to symbol indices")
    p.add_argument("-c", "--codebook", required=True)
    p.add_argument("-i", "--input", required=True, help="stream binary file")
    p.add_argument("-o", "--output", required=True, help="symbols text file")
    p.add_argument("--costmodel", help="cost model JSON (applies channel inversion if swapped)")
    add_json(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="evaluate a parameter sweep to CSV")
    p.add_argument("--var", choices=("n", "gamma", "m", "dp"), required=True)
    p.add_argument("--grid", required=True, help="start:stop:logN, start:stop:linN or v1,v2,...")
    p.add_argument("--m", default="8", help="comma list of symbol counts")
    p.add_argument("--gamma", default="5", help="comma list of cost ratios (inf allowed)")
    p.add_argument("--kinds", default="fixed", help="comma list: fixed,prefix")
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=_env("MECODE_N_MAX", None))
    p.add_argument("--dp", type=int, default=_env("MECODE_DP", None))
    p.add_argument("-o", "--output", required=True, help="CSV path")
    add_json(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rfid-gamma", help="derive bit costs from backscatter link parameters")
    p.add_argument("--pt", dest="p_t", type=float, required=True, help="reader carrier power, W")
    p.add_argument("--gt", dest="g_t", type=float, default=1.0, help="reader antenna gain, linear")
    p.add_argument("--gr", dest="g_r", type=float, default=1.0, help="tag antenna gain, linear")
    p.add_argument("--freq", type=float, help="carrier frequency, Hz")
    p.add_argument("--wavelength", type=float, help="carrier wavelength, m")
    p.add_argument("--r", type=float, required=True, help="reader-tag distance, m")
    p.add_argument("--lp", dest="l_p", type=float, default=1.0, help="polarization loss, linear")
    p.add_argument("--rant", dest="r_ant", type=float, default=50.0, help="antenna resistance, ohm")
    p.add_argument("--nstages", dest="n_stages", type=int, default=1, help="rectifier stages")
    p.add_argument("--vt", dest="v_t", type=float, default=0.0, help="diode threshold voltage, V")
    p.add_argument("--ptag", dest="p_tag", type=float, required=True, help="tag power draw, W")
    p.add_argument("--t0", type=float, required=True, help="zero-bit duration, s")
    p.add_argument("--t1", type=float, required=True, help="one-bit duration, s")
    p.add_argument("--lmatch", dest="l_match", type=float, default=1.0, help="mismatch loss, linear")
    p.add_argument("--scale", type=float, default=_env("MECODE_SCALE", rfid.DEFAULT_ENERGY_SCALE, float),
                   help="joules per dimensionless cost unit")
    p.add_argument("--emit-costmodel", help="write a cost model JSON for the optimizer")
    add_json(p)
    p.set_defaults(func=cmd_rfid_gamma)

    p = sub.add_parser("reproduce", help="regenerate the reference tables and figure data")
    p.add_argument("--target", choices=REPRODUCE_TARGETS, required=True)
    p.add_argument("--out-dir", default=".", help="output directory")
    add_json(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("selftest", help="run the built-in property checks")
    p.add_argument("--seed", type=int, default=_env("MECODE_SEED", 0))
    p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    add_json(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except MecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
