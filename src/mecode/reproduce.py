"""The paper's targets: the codebooks of Tables 1, 2 and 4 and the data of Figs. 2-5.

Every target writes deterministic files (codebook JSON or sweep CSV) into an
output directory and reports the values a reader checks against the paper.
"""

from __future__ import annotations

from pathlib import Path

from . import metrics
from .codebook import Codebook, codebook_to_json
from .costmodel import CostModel, uniform_source

REPRODUCE_TARGETS = ("table1", "table2", "table4", "fig2", "fig3", "fig4", "fig5", "all")


def _write_codebook(out_dir: Path, stem: str, cb: Codebook) -> str:
    path = out_dir / f"{stem}_codebook.json"
    path.write_text(codebook_to_json(cb) + "\n")
    return str(path)


def _unit_table(out_dir: Path, target: str) -> tuple[list[str], dict]:
    """Tables 1 (fixed) and 2 (prefix): free zero bits, m = 4 and 8, no length bound."""
    kind = "fixed" if target == "table1" else "prefix"
    cm = CostModel(0.0, 1.0, 1.0, 1.0)
    files, values = [], {}
    for k in (2, 3):
        src = uniform_source(2**k)
        cb, n_or_dp, _ = metrics.optimize_codebook(kind, src, cm, n_max=src.m - 1, dp=src.m - 1)
        files.append(_write_codebook(out_dir, f"{target}_k{k}", cb))
        values[f"k{k}"] = {"entries": [e.bits for e in cb.entries]}
        if kind == "fixed":
            values[f"k{k}"]["n_opt"] = n_or_dp
        else:
            values[f"k{k}"]["average_length"] = metrics.average_length(src, cb)
    return files, values


def _table4(out_dir: Path, target: str) -> tuple[list[str], dict]:
    """Table 4: m = 8 at gamma = 5, the fixed and the prefix optimum."""
    src = uniform_source(8)
    cm = CostModel(1.0, 5.0, 1.0, 1.0)
    files, values = [], {}
    for kind in ("fixed", "prefix"):
        cb, n_or_dp, _ = metrics.optimize_codebook(kind, src, cm, dp=7)
        files.append(_write_codebook(out_dir, f"{target}_{kind}", cb))
        values[kind] = {"average_cost": metrics.average_cost(src, cb, cm)}
        if kind == "fixed":
            values[kind]["n_opt"] = n_or_dp
    return files, values


_TABLES = {"table1": _unit_table, "table2": _unit_table, "table4": _table4}


def _fig_specs() -> dict[str, metrics.SweepSpec]:
    gamma_wide = metrics.log_grid(1.0, 1e4, 25)
    gamma_narrow = metrics.log_grid(1.0, 100.0, 25)
    fig34 = metrics.SweepSpec(var="gamma", grid=gamma_wide, m=(8, 16, 32, 128), kinds=("fixed",))
    return {
        "fig2": metrics.SweepSpec(
            var="n",
            grid=tuple(float(n) for n in range(3, 128)),
            m=(128,),
            gammas=(1.0, 2.0, 5.0, 10.0, 100.0),
        ),
        "fig3": fig34,
        "fig4": fig34,
        "fig5": metrics.SweepSpec(var="gamma", grid=gamma_narrow, m=(8,), kinds=("fixed", "prefix")),
    }


def reproduce(target: str, out_dir: Path) -> dict:
    """Write one target's files, or every target's for "all", into out_dir.

    Returns {"targets", "files", "values"}: the targets run, the paths
    written and each target's reported values. Figures that share a sweep
    (Figs. 3 and 4) evaluate it once.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = REPRODUCE_TARGETS[:-1] if target == "all" else (target,)
    fig_specs = _fig_specs()
    rows_by_spec: dict[metrics.SweepSpec, list[dict]] = {}
    files: list[str] = []
    values: dict = {}
    for name in targets:
        if name in fig_specs:
            spec = fig_specs[name]
            if spec not in rows_by_spec:
                rows_by_spec[spec] = metrics.sweep(spec)
            path = out_dir / f"{name}.csv"
            path.write_text(metrics.sweep_to_csv(rows_by_spec[spec]))
            files.append(str(path))
            values[name] = {"rows": len(rows_by_spec[spec])}
        else:
            new_files, values[name] = _TABLES[name](out_dir, name)
            files.extend(new_files)
    return {"targets": list(targets), "files": files, "values": values}
