"""Figures of merit: entropy, rates, average cost, energy saving, sweeps.

Conventions fixed here (and relied on by the tests):

* averages over the source are plain expectations sum(p_i * x_i); no extra
  1/M factor is applied on top of the probability weights, so argmins and
  the reported table values line up;
* the rate-reduction factor eta is the ratio of uncoded to coded symbol
  rate, i.e. average coded duration over average uncoded symbol duration,
  so an uncoded codebook scores exactly 1;
* the uncoded energy baseline assumes half ones and half zeros across the
  log2(M) source bits for uniform sources; for non-uniform sources it
  costs the natural fixed-width binary indexing of the symbols.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

from .codebook import Codebook
from .costmodel import (
    CostModel,
    SymbolSource,
    as_source,
    codeword_cost,
    codeword_duration,
    model_from_gamma,
)
from .errors import ValidationError

SWEEP_COLUMNS = ("kind", "m", "gamma", "n_or_dp", "l_src", "eta", "beta_code", "epsilon")


def _total(terms: Iterable[float]) -> float:
    """Left-to-right float sum; the builtin sum() compensates since Python 3.12."""
    total = 0.0
    for term in terms:
        total += term
    return total


def source_entropy(source: SymbolSource | int) -> float:
    """Entropy of the source in bits; 0*log(0) counts as 0."""
    src = as_source(source)
    return -_total(p * math.log2(p) for p in src.probs if p > 0.0)


def average_length(source: SymbolSource | int, cb: Codebook) -> float:
    src = as_source(source)
    probs = src.probs_by_symbol()
    return _total(p * len(e) for p, e in zip(probs, cb.entries))


def average_cost(source: SymbolSource | int, cb: Codebook, cm: CostModel) -> float:
    """Expected per-symbol transmission energy of the codebook."""
    src = as_source(source)
    probs = src.probs_by_symbol()
    return _total(p * codeword_cost(e, cm) for p, e in zip(probs, cb.entries))


def average_duration(source: SymbolSource | int, cb: Codebook, cm: CostModel) -> float:
    src = as_source(source)
    probs = src.probs_by_symbol()
    return _total(p * codeword_duration(e, cm) for p, e in zip(probs, cb.entries))


def source_symbol_duration(source: SymbolSource | int, cm: CostModel) -> float:
    """Average on-air time of one uncoded symbol: entropy bits at mean bit time."""
    l_src = source_entropy(source)
    if l_src == 0.0:
        raise ValidationError("source entropy is zero; rate quantities are undefined")
    return (cm.t0 + cm.t1) / 2.0 * l_src


def rate_reduction(source: SymbolSource | int, cb: Codebook, cm: CostModel) -> float:
    """Uncoded over coded symbol rate; > 1 means the code spends bandwidth."""
    return average_duration(source, cb, cm) / source_symbol_duration(source, cm)


def uncoded_cost(source: SymbolSource | int, cm: CostModel) -> float:
    """Energy per symbol without coding.

    Uniform sources pay (beta0 + beta1)/2 per bit across log2(M) bits.
    Non-uniform sources are costed through the natural ceil(log2 M)-bit
    binary indexing of the symbols.
    """
    src = as_source(source)
    if src.is_uniform:
        return 0.5 * (cm.beta0 + cm.beta1) * math.log2(src.m)
    width = (src.m - 1).bit_length()
    probs = src.probs_by_symbol()
    total = 0.0
    for symbol, p in enumerate(probs):
        ones = bin(symbol).count("1")
        total += p * (cm.beta0 * (width - ones) + cm.beta1 * ones)
    return total


def energy_saving(source: SymbolSource | int, cb: Codebook, cm: CostModel) -> float:
    """Fractional energy saved versus the uncoded baseline; may be negative."""
    return 1.0 - average_cost(source, cb, cm) / uncoded_cost(source, cm)


def epsilon_max_fixed(m: int) -> float:
    """Limit of the fixed-length energy saving as the cost ratio grows."""
    if m < 2:
        raise ValidationError(f"m: must be >= 2, got {m}")
    return 1.0 - 2.0 * (m - 1) / (m * math.log2(m))


def epsilon_max_variable(m: int) -> float:
    """Limit of the prefix-code energy saving; coincides with the fixed one."""
    return epsilon_max_fixed(m)


def epsilon_max_asymptote(m: int) -> float:
    """Large-M approximation 1 - 2/log2(M), good for m > 4."""
    if m < 2:
        raise ValidationError(f"m: must be >= 2, got {m}")
    return 1.0 - 2.0 / math.log2(m)


@dataclass(frozen=True)
class CodebookMetrics:
    """All per-codebook figures of merit in one record."""

    l_src: float
    t_src: float
    r_src: float
    r_code: float
    eta: float
    avg_length: float
    beta_code: float
    epsilon: float


def evaluate(source: SymbolSource | int, cb: Codebook, cm: CostModel) -> CodebookMetrics:
    src = as_source(source)
    l_src = source_entropy(src)
    t_src = source_symbol_duration(src, cm)
    t_code = average_duration(src, cb, cm)
    return CodebookMetrics(
        l_src=l_src,
        t_src=t_src,
        r_src=1.0 / t_src,
        r_code=1.0 / t_code,
        eta=t_code / t_src,
        avg_length=average_length(src, cb),
        beta_code=average_cost(src, cb, cm),
        epsilon=energy_saving(src, cb, cm),
    )


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable plus the fixed parameters of a sweep.

    ``var`` is one of "n", "gamma", "m", "dp". Grids for "n", "m" and "dp"
    must be integers, and "n" and "dp" sweeps take exactly one m. All
    sweeps use uniform sources; gamma = inf rows use the explicit
    free-zero-bit model.
    """

    var: str
    grid: tuple[float, ...]
    m: tuple[int, ...] = (8,)
    gammas: tuple[float, ...] = (5.0,)
    kinds: tuple[str, ...] = ("fixed",)
    t0: float = 1.0
    t1: float = 1.0
    n_max: int | None = None
    dp: int | None = None

    def __post_init__(self) -> None:
        if self.var not in ("n", "gamma", "m", "dp"):
            raise ValidationError(f"var: must be one of n|gamma|m|dp, got {self.var!r}")
        if not self.grid:
            raise ValidationError("grid: must not be empty")
        if self.var in ("n", "m", "dp") and any(v != int(v) for v in self.grid):
            raise ValidationError(f"grid: {self.var} grid must be integers")
        if self.var in ("n", "dp") and len(self.m) != 1:
            raise ValidationError(f"m: {self.var!r} sweeps take one symbol count, got {len(self.m)}")
        for kind in self.kinds:
            if kind not in ("fixed", "prefix"):
                raise ValidationError(f"kinds: must be fixed|prefix, got {kind!r}")


def _row(kind: str, m: int, gamma: float, n_or_dp: int, metrics: CodebookMetrics) -> dict:
    return {
        "kind": kind,
        "m": m,
        "gamma": gamma,
        "n_or_dp": n_or_dp,
        "l_src": metrics.l_src,
        "eta": metrics.eta,
        "beta_code": metrics.beta_code,
        "epsilon": metrics.epsilon,
    }


def optimize_codebook(
    kind: str,
    source: SymbolSource | int,
    cm: CostModel,
    *,
    n_max: int | None = None,
    dp: int | None = None,
    eta_max: float | None = None,
):
    """Optimal codebook of `kind` ("fixed" or "prefix") for the source.

    Returns (codebook, n_or_dp, scan): the chosen block length and the
    `FixedScan` for fixed codes; the candidate tree depth, by default
    `default_depth(m)`, and None for prefix codes. `n_max` applies to fixed
    codes only, `dp` and `eta_max` to prefix codes only.
    """
    from .fixedopt import optimize_fixed
    from .varopt import default_depth, optimize_prefix

    src = as_source(source)
    if kind == "fixed":
        if eta_max is not None:
            raise ValidationError("eta_max: applies to prefix codes only")
        cb, scan = optimize_fixed(src, cm, n_max=n_max)
        return cb, scan.n_opt, scan
    dp = dp if dp is not None else default_depth(src.m)
    return optimize_prefix(src, cm, dp=dp, eta_max=eta_max), dp, None


def _optimized_row(kind: str, m: int, gamma: float, spec: SweepSpec, dp: int | None = None) -> dict:
    src = as_source(m)
    cm = model_from_gamma(gamma, spec.t0, spec.t1)
    dp = spec.dp if dp is None else dp
    cb, n_or_dp, _ = optimize_codebook(kind, src, cm, n_max=spec.n_max, dp=dp)
    return _row(kind, m, gamma, n_or_dp, evaluate(src, cb, cm))


def sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep grid; one dict per row with SWEEP_COLUMNS keys.

    For var="n" the codebook at each listed block length is evaluated
    as-is (no optimization), skipping lengths below the feasible minimum;
    the other sweeps run the optimizer at every grid point.
    """
    from .fixedopt import cheapest_words

    rows: list[dict] = []
    if spec.var == "n":
        m = spec.m[0]
        src = as_source(m)
        n_min = (m - 1).bit_length()
        for gamma in spec.gammas:
            cm = model_from_gamma(gamma, spec.t0, spec.t1)
            for n in spec.grid:
                n = int(n)
                if n < n_min:
                    continue
                cb = Codebook(kind="fixed", entries=tuple(cheapest_words(n, m)), n=n)
                rows.append(_row("fixed", m, gamma, n, evaluate(src, cb, cm)))
    elif spec.var == "gamma":
        for m in spec.m:
            for kind in spec.kinds:
                for gamma in spec.grid:
                    rows.append(_optimized_row(kind, m, gamma, spec))
    elif spec.var == "m":
        for gamma in spec.gammas:
            for kind in spec.kinds:
                for m in spec.grid:
                    rows.append(_optimized_row(kind, int(m), gamma, spec))
    else:  # var == "dp"
        for gamma in spec.gammas:
            for dp in spec.grid:
                rows.append(_optimized_row("prefix", spec.m[0], gamma, spec, int(dp)))
    return rows


def sweep_to_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format_cell(row[k]) for k in SWEEP_COLUMNS})
    return buf.getvalue()


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def log_grid(start: float, stop: float, count: int) -> tuple[float, ...]:
    """Geometric grid with the exact endpoints included."""
    if count < 2 or start <= 0 or stop <= start:
        raise ValidationError("log grid needs count >= 2 and 0 < start < stop")
    ratio = (stop / start) ** (1.0 / (count - 1))
    values = [start * ratio**i for i in range(count)]
    values[-1] = stop
    return tuple(values)


def lin_grid(start: float, stop: float, count: int) -> tuple[float, ...]:
    if count < 2 or stop <= start:
        raise ValidationError("linear grid needs count >= 2 and start < stop")
    step = (stop - start) / (count - 1)
    values = [start + step * i for i in range(count)]
    values[-1] = stop
    return tuple(values)
