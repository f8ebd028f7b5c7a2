"""Command-line interface: optimize, encode, decode, sweep, rfid-gamma,
reproduce and selftest subcommands.

Flag values take precedence over MECODE_* environment variables, which in
turn override built-in defaults. Every subcommand accepts --json for a
machine-readable result document on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from . import metrics, rfid
from .codebook import codebook_from_json, codebook_to_json
from .codec import BitStream, decode, encode
from .costmodel import (
    CostModel,
    cost_model_from_json,
    cost_model_to_json,
    model_from_gamma,
    source_from_json,
    uniform_source,
)
from .errors import MecodeError, ValidationError
from .fixedopt import fixed_cost, optimize_fixed, scan_to_csv_rows
from .varopt import DEFAULT_DEPTH_CAP, default_depth, oracle_prefix, optimize_prefix, parent_child_pairs

REPRODUCE_TARGETS = ("table1", "table2", "table4", "fig2", "fig3", "fig4", "fig5", "all")


def _env_int(name: str, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name}: must be an integer, got {raw!r}") from exc


def _env_float(name: str, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"{name}: must be a number, got {raw!r}") from exc


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:logN', 'start:stop:linN' or 'v1,v2,...'."""
    if ":" in text:
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
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"grid: not a comma list of numbers: {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(math.inf if v.strip() == "inf" else float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected a comma list of numbers, got {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected a comma list of integers, got {text!r}") from exc


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
    src = _load_source(args.m, args.probs)
    cm = CostModel(args.beta0, args.beta1, args.t0, args.t1)
    if args.kind == "fixed":
        cb, scan = optimize_fixed(src, cm, n_max=args.n_max)
        n_or_dp = scan.n_opt
        if args.scan:
            Path(args.scan).write_text("\n".join(scan_to_csv_rows(scan)) + "\n")
    else:
        dp = args.dp if args.dp is not None else default_depth(src.m)
        cb = optimize_prefix(src, cm, dp=dp, eta_max=args.eta_max)
        n_or_dp = dp
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
    symbols = [int(tok) for tok in Path(args.input).read_text().split()]
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
        m=_parse_int_list(args.m),
        gammas=_parse_float_list(args.gamma),
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
    wavelength = args.wavelength if args.wavelength is not None else rfid.wavelength_from_frequency(args.freq)
    link = rfid.RfidLink(
        p_t=args.pt,
        g_t=args.gt,
        g_r=args.gr,
        wavelength=wavelength,
        r=args.r,
        l_p=args.lp,
        r_ant=args.rant,
        n_stages=args.nstages,
        v_t=args.vt,
        p_tag=args.ptag,
        t0=args.t0,
        t1=args.t1,
        l_match=args.lmatch,
    )
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


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _reproduce_table1(out_dir: Path) -> tuple[list[str], dict]:
    files, values = [], {}
    for k in (2, 3):
        m = 2**k
        cm = CostModel(0.0, 1.0, 1.0, 1.0)
        cb, scan = optimize_fixed(uniform_source(m), cm, n_max=m - 1)
        path = out_dir / f"table1_k{k}_codebook.json"
        path.write_text(codebook_to_json(cb) + "\n")
        files.append(str(path))
        values[f"k{k}"] = {
            "n_opt": scan.n_opt,
            "entries": [e.bits for e in cb.entries],
        }
    return files, values


def _reproduce_table2(out_dir: Path) -> tuple[list[str], dict]:
    files, values = [], {}
    for k in (2, 3):
        m = 2**k
        cm = CostModel(0.0, 1.0, 1.0, 1.0)
        src = uniform_source(m)
        cb = optimize_prefix(src, cm, dp=m - 1)
        path = out_dir / f"table2_k{k}_codebook.json"
        path.write_text(codebook_to_json(cb) + "\n")
        files.append(str(path))
        values[f"k{k}"] = {
            "entries": [e.bits for e in cb.entries],
            "average_length": metrics.average_length(src, cb),
        }
    return files, values


def _reproduce_table4(out_dir: Path) -> tuple[list[str], dict]:
    src = uniform_source(8)
    cm = CostModel(1.0, 5.0, 1.0, 1.0)
    fixed_cb, scan = optimize_fixed(src, cm)
    prefix_cb = optimize_prefix(src, cm, dp=7)
    files = []
    for name, cb in (("fixed", fixed_cb), ("prefix", prefix_cb)):
        path = out_dir / f"table4_{name}_codebook.json"
        path.write_text(codebook_to_json(cb) + "\n")
        files.append(str(path))
    values = {
        "fixed": {
            "n_opt": scan.n_opt,
            "average_cost": metrics.average_cost(src, fixed_cb, cm),
        },
        "prefix": {
            "average_cost": metrics.average_cost(src, prefix_cb, cm),
        },
    }
    return files, values


def _reproduce_csv(out_dir: Path, name: str, spec: metrics.SweepSpec) -> tuple[list[str], dict]:
    rows = metrics.sweep(spec)
    path = out_dir / f"{name}.csv"
    path.write_text(metrics.sweep_to_csv(rows))
    return [str(path)], {"rows": len(rows)}


def _fig_specs() -> dict[str, metrics.SweepSpec]:
    gamma_wide = metrics.log_grid(1.0, 1e4, 25)
    gamma_narrow = metrics.log_grid(1.0, 100.0, 25)
    return {
        "fig2": metrics.SweepSpec(
            var="n",
            grid=tuple(float(n) for n in range(3, 128)),
            m=(128,),
            gammas=(1.0, 2.0, 5.0, 10.0, 100.0),
        ),
        "fig3": metrics.SweepSpec(var="gamma", grid=gamma_wide, m=(8, 16, 32, 128), kinds=("fixed",)),
        "fig4": metrics.SweepSpec(var="gamma", grid=gamma_wide, m=(8, 16, 32, 128), kinds=("fixed",)),
        "fig5": metrics.SweepSpec(var="gamma", grid=gamma_narrow, m=(8,), kinds=("fixed", "prefix")),
    }


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = REPRODUCE_TARGETS[:-1] if args.target == "all" else (args.target,)
    all_files: list[str] = []
    all_values: dict = {}
    fig_specs = _fig_specs()
    for target in targets:
        if target == "table1":
            files, values = _reproduce_table1(out_dir)
        elif target == "table2":
            files, values = _reproduce_table2(out_dir)
        elif target == "table4":
            files, values = _reproduce_table4(out_dir)
        else:
            files, values = _reproduce_csv(out_dir, target, fig_specs[target])
        all_files.extend(files)
        all_values[target] = values
    doc = {"targets": list(targets), "files": all_files, "values": all_values}
    _emit(doc, args.json, [f"wrote {p}" for p in all_files])
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _random_source(rng: random.Random, m: int):
    from .costmodel import symbol_source

    raw = [rng.random() + 0.05 for _ in range(m)]
    total = sum(raw)
    return symbol_source([v / total for v in raw])


def _prop_fixed_closed_form(fault: bool) -> None:
    nudge = 1e-3 if fault else 0.0
    for gamma in (1.0, 2.5, 7.0):
        cm = model_from_gamma(gamma)
        for n in range(1, 7):
            for m in (2, 5, 16):
                if 2**n < m:
                    continue
                weights = sorted(bin(v).count("1") for v in range(2**n))
                expected = cm.beta0 * n + cm.delta_beta * sum(weights[:m]) / m
                got = fixed_cost(n, m, cm) + nudge
                assert got == expected, f"fixed_cost({n},{m},gamma={gamma}): {got} != {expected}"


def _prop_prefix_oracle(fault: bool) -> None:
    rng = random.Random(20240)
    nudge = 1e-3 if fault else 0.0
    for m, dp in ((3, 3), (4, 3), (5, 4)):
        sources = [uniform_source(m), _random_source(rng, m), _random_source(rng, m)]
        for gamma in (1.0, 5.0):
            cm = model_from_gamma(gamma)
            for src in sources:
                got = metrics.average_cost(src, optimize_prefix(src, cm, dp=dp), cm) + nudge
                want = metrics.average_cost(src, oracle_prefix(src, cm, dp), cm)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (
                    f"prefix optimum {got} != oracle {want} (m={m}, dp={dp}, gamma={gamma})"
                )


def _prop_pair_matrix(fault: bool) -> None:
    from .varopt import iter_node_bits

    expected_dense = [
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 1],
    ]
    dense = parent_child_pairs(2).dense()
    if fault:
        dense = [row[::-1] for row in dense]
    assert dense == expected_dense, "dp=2 parent-child matrix does not match the fixture"
    for dp in (3, 4):
        nodes = list(iter_node_bits(dp))
        brute = [
            (i, j)
            for i in range(len(nodes))
            for j in range(len(nodes))
            if i != j and nodes[j].startswith(nodes[i])
        ]
        assert list(parent_child_pairs(dp).pairs) == brute, f"pair list mismatch at dp={dp}"


def _prop_codec_roundtrip(fault: bool) -> None:
    rng = random.Random(_selftest_seed())
    src = uniform_source(8)
    cm = CostModel(1.0, 5.0, 1.0, 1.0)
    fixed_cb, _ = optimize_fixed(src, cm)
    prefix_cb = optimize_prefix(src, cm, dp=7)
    symbols = [rng.randrange(8) for _ in range(2000)]
    for cb in (fixed_cb, prefix_cb):
        got = decode(encode(symbols, cb), cb)
        if fault:
            got = got[:-1]
        assert got == symbols, f"codec round-trip failed for {cb.kind} codebook"


def _prop_prefix_dominance(fault: bool) -> None:
    nudge = -1e-3 if fault else 0.0
    for m in (4, 8):
        src = uniform_source(m)
        for gamma in (1.0, 5.0, 100.0):
            cm = model_from_gamma(gamma)
            _, scan = optimize_fixed(src, cm)
            prefix_cb = optimize_prefix(src, cm, dp=m - 1)
            fixed_best = scan.best_cost() + nudge
            prefix_best = metrics.average_cost(src, prefix_cb, cm)
            assert prefix_best <= fixed_best * (1 + 1e-12), (
                f"prefix {prefix_best} worse than fixed {fixed_best} (m={m}, gamma={gamma})"
            )


def _prop_epsilon_scale(fault: bool) -> None:
    src = uniform_source(8)
    saved = []
    for scale in (1.0, 3.7e-11):
        cm = CostModel(1.0 * scale, 5.0 * scale, 1.0, 1.0)
        cb = optimize_prefix(src, cm, dp=7)
        saved.append(metrics.energy_saving(src, cb, cm))
    if fault:
        saved[1] += 1e-3
    assert abs(saved[0] - saved[1]) <= 1e-12, f"epsilon not scale invariant: {saved}"


SELFTEST_PROPERTIES = {
    "fixed-closed-form": _prop_fixed_closed_form,
    "prefix-oracle": _prop_prefix_oracle,
    "pair-matrix": _prop_pair_matrix,
    "codec-roundtrip": _prop_codec_roundtrip,
    "prefix-dominance": _prop_prefix_dominance,
    "epsilon-scale-invariance": _prop_epsilon_scale,
}

_SELFTEST_SEED = 0


def _selftest_seed() -> int:
    return _SELFTEST_SEED


def cmd_selftest(args) -> int:
    global _SELFTEST_SEED
    _SELFTEST_SEED = args.seed
    if args.inject_fault is not None and args.inject_fault not in SELFTEST_PROPERTIES:
        raise ValidationError(
            f"--inject-fault: unknown property {args.inject_fault!r}; "
            f"choose from {sorted(SELFTEST_PROPERTIES)}"
        )
    results: dict[str, str] = {}
    failures = 0
    lines = []
    for name, prop in SELFTEST_PROPERTIES.items():
        try:
            prop(fault=(name == args.inject_fault))
            results[name] = "pass"
            lines.append(f"PASS {name}")
        except AssertionError as exc:
            results[name] = f"fail: {exc}"
            failures += 1
            lines.append(f"FAIL {name}: {exc}")
    ok = failures == 0
    lines.append(f"{len(results) - failures}/{len(results)} properties passed")
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
    p.add_argument("--n-max", type=int, default=_env_int("MECODE_N_MAX", None),
                   help="fixed: largest block length to scan (default m-1)")
    p.add_argument("--dp", type=int, default=_env_int("MECODE_DP", None),
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
    p.add_argument("--n-max", type=int, default=_env_int("MECODE_N_MAX", None))
    p.add_argument("--dp", type=int, default=_env_int("MECODE_DP", None))
    p.add_argument("-o", "--output", required=True, help="CSV path")
    add_json(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rfid-gamma", help="derive bit costs from backscatter link parameters")
    p.add_argument("--pt", type=float, required=True, help="reader carrier power, W")
    p.add_argument("--gt", type=float, default=1.0, help="reader antenna gain, linear")
    p.add_argument("--gr", type=float, default=1.0, help="tag antenna gain, linear")
    p.add_argument("--freq", type=float, help="carrier frequency, Hz")
    p.add_argument("--wavelength", type=float, help="carrier wavelength, m")
    p.add_argument("--r", type=float, required=True, help="reader-tag distance, m")
    p.add_argument("--lp", type=float, default=1.0, help="polarization loss, linear")
    p.add_argument("--rant", type=float, default=50.0, help="antenna resistance, ohm")
    p.add_argument("--nstages", type=int, default=1, help="rectifier stages")
    p.add_argument("--vt", type=float, default=0.0, help="diode threshold voltage, V")
    p.add_argument("--ptag", type=float, required=True, help="tag power draw, W")
    p.add_argument("--t0", type=float, required=True, help="zero-bit duration, s")
    p.add_argument("--t1", type=float, required=True, help="one-bit duration, s")
    p.add_argument("--lmatch", type=float, default=1.0, help="mismatch loss, linear")
    p.add_argument("--scale", type=float, default=_env_float("MECODE_SCALE", rfid.DEFAULT_ENERGY_SCALE),
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
    p.add_argument("--seed", type=int, default=_env_int("MECODE_SEED", 0))
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
