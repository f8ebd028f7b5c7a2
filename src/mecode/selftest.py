"""Built-in property checks behind `mecode selftest`.

Each property takes (fault, seed): `fault` perturbs its result so that the
check must fail, which shows the check can fail at all; `seed` drives the
random inputs that may vary between runs without changing the verdict.
"""

from __future__ import annotations

import random

from . import metrics
from .codec import decode, encode
from .costmodel import CostModel, model_from_gamma, symbol_source, uniform_source
from .errors import ValidationError
from .fixedopt import fixed_cost, optimize_fixed
from .varopt import iter_node_bits, optimize_prefix, oracle_prefix, parent_child_pairs


def _random_source(rng: random.Random, m: int):
    raw = [rng.random() + 0.05 for _ in range(m)]
    total = sum(raw)
    return symbol_source([v / total for v in raw])


def _prop_fixed_closed_form(fault: bool, seed: int) -> None:
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


def _prop_prefix_oracle(fault: bool, seed: int) -> None:
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


def _prop_pair_matrix(fault: bool, seed: int) -> None:
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


def _prop_codec_roundtrip(fault: bool, seed: int) -> None:
    rng = random.Random(seed)
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


def _prop_prefix_dominance(fault: bool, seed: int) -> None:
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


def _prop_epsilon_scale(fault: bool, seed: int) -> None:
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


def run_selftest(seed: int = 0, inject_fault: str | None = None) -> dict[str, str]:
    """Run every property in order; map its name to "pass" or "fail: <reason>"."""
    if inject_fault is not None and inject_fault not in SELFTEST_PROPERTIES:
        raise ValidationError(
            f"--inject-fault: unknown property {inject_fault!r}; "
            f"choose from {sorted(SELFTEST_PROPERTIES)}"
        )
    results: dict[str, str] = {}
    for name, prop in SELFTEST_PROPERTIES.items():
        try:
            prop(name == inject_fault, seed)
            results[name] = "pass"
        except AssertionError as exc:
            results[name] = f"fail: {exc}"
    return results
