"""Reference equiprobable subtree DP on exact rationals.

This is the ``Fraction`` implementation that ``mecode.varopt`` used before
its costs were scaled to exact integers, kept unchanged as an independent
reference for the tie-break: both must return the identical word list.
"""

from __future__ import annotations

from fractions import Fraction

from mecode.costmodel import CostModel
from mecode.errors import InfeasibleError


def _uniform_optimal_words(cm: CostModel, dp: int, m: int) -> list[str]:
    """Minimum-total-cost prefix code with m words of length <= dp.

    ``cost[d][k]`` is the cheapest total cost of k prefix-free extensions
    within a subtree that has d levels below its root, the root itself
    counting as the zero-cost extension. A subtree holds one codeword by
    contributing its root, or k >= 2 by splitting the quota between its
    '0' child (each word gaining beta0) and '1' child (gaining beta1).
    Exact rationals make tie detection reliable; ties reconstruct to the
    lexicographically smallest sorted codeword list.
    """
    b0, b1 = Fraction(cm.beta0), Fraction(cm.beta1)
    cost: list[list[Fraction | None]] = [[None] * (m + 1) for _ in range(dp + 1)]
    for d in range(dp + 1):
        cost[d][0] = Fraction(0)
        if m >= 1:
            cost[d][1] = Fraction(0)
    for d in range(1, dp + 1):
        child_cap = min(2 ** (d - 1), m)
        for k in range(2, min(2**d, m) + 1):
            best: Fraction | None = None
            for k0 in range(max(0, k - child_cap), min(k, child_cap) + 1):
                k1 = k - k0
                left, right = cost[d - 1][k0], cost[d - 1][k1]
                if left is None or right is None:
                    continue
                total = k0 * b0 + left + k1 * b1 + right
                if best is None or total < best:
                    best = total
            cost[d][k] = best
    if cost[dp][m] is None:
        raise InfeasibleError(f"no prefix code with {m} words fits in depth {dp}")

    memo: dict[tuple[int, int], tuple[str, ...]] = {}

    def reconstruct(d: int, k: int) -> tuple[str, ...]:
        if k == 0:
            return ()
        if k == 1:
            return ("",)
        key = (d, k)
        if key in memo:
            return memo[key]
        target = cost[d][k]
        child_cap = min(2 ** (d - 1), m)
        best_words: tuple[str, ...] | None = None
        for k0 in range(max(0, k - child_cap), min(k, child_cap) + 1):
            k1 = k - k0
            left, right = cost[d - 1][k0], cost[d - 1][k1]
            if left is None or right is None:
                continue
            if k0 * b0 + left + k1 * b1 + right != target:
                continue
            candidate = tuple("0" + w for w in reconstruct(d - 1, k0)) + tuple(
                "1" + w for w in reconstruct(d - 1, k1)
            )
            if best_words is None or candidate < best_words:
                best_words = candidate
        assert best_words is not None
        memo[key] = best_words
        return best_words

    return list(reconstruct(dp, m))
