"""Optimal variable-length (prefix) minimum-energy codebooks.

Candidate codewords are the nodes of a binary tree of depth dp, numbered
depth-first with the '0' branch before the '1' branch. Choosing a codebook
means selecting m nodes no two of which lie on one root-to-leaf path; the
sparse parent-child pair list expresses that exclusion constraint.

Two exact engines solve the selection problem:

* equiprobable sources: a dynamic program over subtree shapes (a subtree
  either contributes its root as a codeword or splits the quota between
  its children), on exact integer costs (beta0 and beta1 scaled by their
  common power-of-two denominator) so ties resolve to the
  lexicographically smallest sorted codeword list;
* general sources: depth-first branch and bound over the node ordering,
  decision per node = take it as a codeword or descend past it, bounded
  by an optimistic completion with the cheapest still-reachable costs.

A brute-force oracle over tiny trees validates both engines.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .codebook import Codebook
from .costmodel import CostModel, SymbolSource, as_source, assign_to_symbols
from .errors import InfeasibleError, SearchBudgetError, ValidationError
from .metrics import source_entropy

MAX_TREE_DEPTH = 30
MAX_PAIRS_DEPTH = 12
MAX_ORACLE_NODES = 30
MAX_OPTIMIZER_DEPTH = 128  # optimizers never materialize the tree
DEFAULT_DEPTH_CAP = 24
DEFAULT_NODE_BUDGET = 2_000_000

_REL_TOL = 1e-12


def default_depth(m: int) -> int:
    """Candidate tree depth used when the caller gives none: min(m - 1, DEFAULT_DEPTH_CAP)."""
    return min(m - 1, DEFAULT_DEPTH_CAP)


def _check_depth(dp: int, cap: int = MAX_TREE_DEPTH) -> None:
    if not isinstance(dp, int) or isinstance(dp, bool):
        raise ValidationError(f"dp: must be an integer, got {dp!r}")
    if not 1 <= dp <= cap:
        raise ValidationError(f"dp: must be in [1, {cap}], got {dp}")


def node_count(dp: int) -> int:
    """Total candidate codewords in a depth-dp tree: 2**(dp+1) - 2."""
    return 2 ** (dp + 1) - 2


def iter_node_bits(dp: int) -> Iterator[str]:
    """Yield all codewords of length 1..dp in depth-first order, '0' first."""
    _check_depth(dp)
    stack = ["1", "0"]
    while stack:
        bits = stack.pop()
        yield bits
        if len(bits) < dp:
            stack.append(bits + "1")
            stack.append(bits + "0")


def node_index(bits: str, dp: int) -> int:
    """Depth-first index of a codeword within the depth-dp tree."""
    _check_depth(dp)
    if not 1 <= len(bits) <= dp:
        raise ValidationError(f"bits: length must be in [1, {dp}], got {bits!r}")
    i, depth = -1, 0
    for b in bits:
        i = i + 1 if b == "0" else i + 2 ** (dp - depth)
        depth += 1
    return i


@dataclass(frozen=True)
class PrefixTree:
    """Materialized candidate tree: node bit strings and their costs."""

    dp: int
    nodes: tuple[str, ...]
    costs: tuple[float, ...]

    @property
    def q(self) -> int:
        return len(self.nodes)


def build_tree(dp: int, cm: CostModel, max_dp: int = MAX_TREE_DEPTH) -> PrefixTree:
    """Materialize all 2**(dp+1) - 2 nodes with their transmission costs.

    Memory grows exponentially with dp; the optimizers below never call
    this, it exists for inspection, fixtures and the oracle.
    """
    _check_depth(dp, cap=max_dp)
    nodes = tuple(iter_node_bits(dp))
    costs = tuple(cm.beta0 * b.count("0") + cm.beta1 * b.count("1") for b in nodes)
    return PrefixTree(dp=dp, nodes=nodes, costs=costs)


@dataclass(frozen=True)
class ParentChildMatrix:
    """Sparse ancestor-descendant pair list of the depth-dp tree.

    Each pair (i, j) says node i is on the path from the root to node j,
    so a codebook may select at most one of the two. Densified, every pair
    is one row with ones in columns i and j.
    """

    dp: int
    pairs: tuple[tuple[int, int], ...]

    def dense(self) -> list[list[int]]:
        q = node_count(self.dp)
        if q > 64:
            raise ValidationError(f"dense form limited to 64 nodes, tree has {q}")
        rows = []
        for i, j in self.pairs:
            row = [0] * q
            row[i] = 1
            row[j] = 1
            rows.append(row)
        return rows


def parent_child_pairs(dp: int) -> ParentChildMatrix:
    """All (ancestor index, descendant index) pairs, in ascending order.

    The list length is Theta(dp * 2**dp), hence the materialization cap;
    the optimizers rely on index arithmetic instead of this list.
    """
    _check_depth(dp, cap=MAX_PAIRS_DEPTH)
    pairs: list[tuple[int, int]] = []

    def walk(i: int, depth: int) -> None:
        span = 2 ** (dp - depth + 1) - 2
        pairs.extend((i, j) for j in range(i + 1, i + 1 + span))
        if depth < dp:
            walk(i + 1, depth + 1)
            walk(i + 2 ** (dp - depth), depth + 1)

    walk(0, 1)
    walk(2**dp - 1, 1)
    return ParentChildMatrix(dp=dp, pairs=tuple(pairs))


@dataclass(frozen=True)
class SelectionVector:
    """Binary indicator over tree nodes; a[i] = 1 iff node i is a codeword."""

    dp: int
    a: tuple[int, ...]

    @classmethod
    def from_codebook(cls, cb: Codebook, dp: int) -> "SelectionVector":
        a = [0] * node_count(dp)
        for entry in cb.entries:
            a[node_index(entry.bits, dp)] = 1
        return cls(dp=dp, a=tuple(a))

    def is_valid(self, m: int) -> bool:
        """m codewords selected and no selected node is an ancestor of another."""
        if sum(self.a) != m:
            return False
        matrix = parent_child_pairs(self.dp)
        return all(self.a[i] + self.a[j] <= 1 for i, j in matrix.pairs)


# ---------------------------------------------------------------------------
# objective helpers
# ---------------------------------------------------------------------------


def _word_cost(bits: str, cm: CostModel) -> float:
    return cm.beta0 * bits.count("0") + cm.beta1 * bits.count("1")


def _word_duration(bits: str, cm: CostModel) -> float:
    return cm.t0 * bits.count("0") + cm.t1 * bits.count("1")


def _paired(probs_desc: Sequence[float], values_asc: Sequence[float]) -> float:
    """Expected value with the smallest entries on the largest probabilities."""
    return sum(p * v for p, v in zip(probs_desc, values_asc))


def _words_cheapest_first(words: Sequence[str], cm: CostModel) -> list[str]:
    return sorted(words, key=lambda w: (_word_cost(w, cm), w))


def _evaluate_words(words: Sequence[str], probs_desc: Sequence[float], cm: CostModel) -> float:
    ordered = _words_cheapest_first(words, cm)
    return _paired(probs_desc, [_word_cost(w, cm) for w in ordered])


def _evaluate_duration(words: Sequence[str], probs_desc: Sequence[float], cm: CostModel) -> float:
    """Average duration under the same cheapest-cost-first assignment."""
    ordered = _words_cheapest_first(words, cm)
    return sum(p * _word_duration(w, cm) for p, w in zip(probs_desc, ordered))


def _duration_budget(src: SymbolSource, cm: CostModel, eta_max: float) -> float:
    """Largest average codeword duration allowed: eta_max times the
    uncoded symbol duration (t0 + t1) / 2 * H."""
    t_src = (cm.t0 + cm.t1) / 2.0 * source_entropy(src)
    return eta_max * t_src


# ---------------------------------------------------------------------------
# exact engine for equiprobable sources
# ---------------------------------------------------------------------------


def _exact_integers(*values: float) -> tuple[int, ...]:
    """Finite floats as exact integers on one common scale.

    Every finite float is a dyadic rational n / 2**e, so multiplying all of
    them by their common power-of-two denominator gives integers whose sums
    and comparisons order exactly as the rational values do.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*(den for _, den in ratios))
    return tuple(num * (scale // den) for num, den in ratios)


def _uniform_optimal_words(cm: CostModel, dp: int, m: int) -> list[str]:
    """Minimum-total-cost prefix code with m words of length <= dp.

    ``cost[d][k]`` is the cheapest total cost of k prefix-free extensions
    within a subtree that has d levels below its root, the root itself
    counting as the zero-cost extension; row d holds k = 0..min(2**d, m).
    A subtree holds one codeword by contributing its root, or k >= 2 by
    splitting the quota between its '0' child (each word gaining beta0)
    and '1' child (gaining beta1). Costs are exact integers (beta0 and
    beta1 scaled by their common power-of-two denominator), so ties are
    detected exactly and reconstruct to the lexicographically smallest
    sorted codeword list.
    """
    if m > 2**dp:
        raise InfeasibleError(f"no prefix code with {m} words fits in depth {dp}")
    b0, b1 = _exact_integers(cm.beta0, cm.beta1)
    cost: list[list[int]] = [[0] * min(2, m + 1)]
    for _ in range(dp):
        prev = cost[-1]
        cap = len(prev) - 1
        # a split of k words into k0 under '0' and k1 = k - k0 under '1'
        # costs via0[k0] + via1[k1]
        via0 = [c + k * b0 for k, c in enumerate(prev)]
        via1 = [c + k * b1 for k, c in enumerate(prev)]
        row = prev[:2]
        for k in range(2, min(2 * cap, m) + 1):
            lo, hi = max(0, k - cap), min(k, cap)
            splits = map(operator.add, via0[lo : hi + 1], reversed(via1[k - hi : k - lo + 1]))
            row.append(min(splits))
        cost.append(row)
    return list(_smallest_optimal_words(cost, b0, b1, dp, m, {}))


def _smallest_optimal_words(
    cost: list[list[int]],
    b0: int,
    b1: int,
    d: int,
    k: int,
    memo: dict[tuple[int, int], tuple[str, ...]],
) -> tuple[str, ...]:
    """Lexicographically smallest sorted word list among the optimal
    k-word codes of a depth-d subtree, memoized in ``memo``.

    The words of a split are its '0' child's words behind "0", then its
    '1' child's behind "1", so splits compare by their '0' lists alone: a
    list that extends another wins, as it puts a "0" word where the other
    puts a "1" word. Appending "2", which sorts after every bit string,
    makes plain tuple comparison say so.

    A plain function rather than a closure over ``memo``: a recursive
    closure would sit in a reference cycle with the memo, keeping it
    alive until the cyclic garbage collector happens to run.
    """
    if k <= 1:
        return ("",) * k
    words = memo.get((d, k))
    if words is not None:
        return words
    child = cost[d - 1]
    cap = len(child) - 1
    target = cost[d][k]
    best_key: tuple[str, ...] | None = None
    best_k0 = 0
    for k0 in range(max(0, k - cap), min(k, cap) + 1):
        k1 = k - k0
        if k0 * b0 + child[k0] + k1 * b1 + child[k1] != target:
            continue
        key = _smallest_optimal_words(cost, b0, b1, d - 1, k0, memo) + ("2",)
        if best_key is None or key < best_key:
            best_key, best_k0 = key, k0
    assert best_key is not None
    ones = _smallest_optimal_words(cost, b0, b1, d - 1, k - best_k0, memo)
    words = tuple("0" + w for w in best_key[:-1]) + tuple("1" + w for w in ones)
    memo[(d, k)] = words
    return words


# ---------------------------------------------------------------------------
# branch and bound for general sources
# ---------------------------------------------------------------------------


def _minimax_antichain_table(dp: int, m: int, w0: float, w1: float) -> list[list[float]]:
    """g[d][j]: smallest possible maximum extension value over any j
    mutually prefix-free extensions within a subtree d levels deep.

    The j-th cheapest codeword that any conflict-free completion can take
    from such a subtree therefore values at least g[d][j] beyond the
    subtree root, which is what makes the search bound conflict-aware:
    nested words (for example the all-zeros spine) stop counting as if
    they were simultaneously available.
    """
    inf = math.inf
    g = [[inf] * (m + 1) for _ in range(dp + 1)]
    for d in range(dp + 1):
        g[d][0] = 0.0
        if m >= 1:
            g[d][1] = 0.0
    for d in range(1, dp + 1):
        cap = min(2 ** (d - 1), m)
        for j in range(2, min(2**d, m) + 1):
            best = inf
            for j0 in range(max(0, j - cap), min(j, cap) + 1):
                j1 = j - j0
                left = w0 + g[d - 1][j0] if j0 else None
                right = w1 + g[d - 1][j1] if j1 else None
                if left is None:
                    value = right
                elif right is None:
                    value = left
                else:
                    value = max(left, right)
                assert value is not None
                if value < best:
                    best = value
            g[d][j] = best
    return g


def _branch_and_bound(
    cm: CostModel,
    dp: int,
    probs_desc: tuple[float, ...],
    seed_words: list[str] | None,
    duration_budget: float | None,
    node_budget: int,
) -> list[str]:
    """Exact depth-first search over the candidate tree.

    Frames pop pending subtrees in depth-first node order; each node is
    either selected as a codeword (skipping its whole subtree) or passed
    over in favour of its children. A frame is pruned when even the most
    optimistic conflict-aware completion cannot beat the incumbent.
    """
    m = len(probs_desc)
    g_cost = _minimax_antichain_table(dp, m, cm.beta0, cm.beta1)
    g_dur: list[list[float]] | None = None
    if duration_budget is not None:
        g_dur = _minimax_antichain_table(dp, m, cm.t0, cm.t1)

    best_words: list[str] | None = None
    best_cost = math.inf
    if seed_words is not None:
        best_words = list(seed_words)
        best_cost = _evaluate_words(seed_words, probs_desc, cm)

    def tol(value: float) -> float:
        return _REL_TOL * max(1.0, abs(value))

    root = (("0", cm.beta0, dp - 1), ("1", cm.beta1, dp - 1))
    stack: list[tuple[tuple, tuple[float, ...], tuple[str, ...]]] = [(root, (), ())]
    visited = 0
    while stack:
        pending, sel_costs, sel_words = stack.pop()
        visited += 1
        if visited > node_budget:
            incumbent = None
            if best_words is not None:
                incumbent = list(best_words)
            raise SearchBudgetError(
                f"prefix optimizer exceeded its node budget of {node_budget}", incumbent
            )
        k = m - len(sel_costs)
        if k == 0:
            if duration_budget is not None:
                dur = _evaluate_duration(sel_words, probs_desc, cm)
                if dur > duration_budget * (1.0 + _REL_TOL):
                    continue
            cost = _paired(probs_desc, sel_costs)
            if best_words is None or cost < best_cost - tol(best_cost):
                best_cost = cost
                best_words = list(sel_words)
            continue
        if not pending:
            continue
        if sum(min(1 << d, k) for _, _, d in pending) < k:
            continue

        candidates: list[float] = []
        for _, base, d in pending:
            for j in range(1, min(1 << d, k) + 1):
                candidates.append(base + g_cost[d][j])
        candidates.sort()
        completion = candidates[:k]
        if len(completion) < k:
            continue
        merged = sorted(sel_costs + tuple(completion))
        if best_words is not None and _paired(probs_desc, merged) >= best_cost - tol(best_cost):
            continue
        if g_dur is not None:
            assert duration_budget is not None
            base_durs = [_word_duration(w, cm) for w in sel_words]
            durs: list[float] = []
            for bits, _, d in pending:
                root_dur = _word_duration(bits, cm)
                for j in range(1, min(1 << d, k) + 1):
                    durs.append(root_dur + g_dur[d][j])
            durs.sort()
            merged_durs = sorted(base_durs + durs[:k])
            if _paired(probs_desc, merged_durs) > duration_budget * (1.0 + _REL_TOL):
                continue

        (bits, base, d), rest = pending[0], pending[1:]
        # pushed second so the "select this node" branch is explored first
        if d >= 1:
            children = ((bits + "0", base + cm.beta0, d - 1), (bits + "1", base + cm.beta1, d - 1))
            stack.append((children + rest, sel_costs, sel_words))
        else:
            stack.append((rest, sel_costs, sel_words))
        stack.append((rest, tuple(sorted(sel_costs + (base,))), sel_words + (bits,)))

    if best_words is None:
        raise InfeasibleError("no feasible prefix codebook under the given constraints")
    return best_words


# ---------------------------------------------------------------------------
# public optimizers
# ---------------------------------------------------------------------------


def optimize_prefix(
    source: SymbolSource | int,
    cm: CostModel,
    dp: int | None = None,
    eta_max: float | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Codebook:
    """Exact minimum-cost prefix codebook with codewords of length <= dp.

    The objective is the expected transmission cost with the cheapest
    selected codewords assigned to the most probable symbols. ``eta_max``
    optionally bounds the rate-reduction factor (average codeword duration
    over average uncoded symbol duration); by default no rate constraint
    applies. Default depth is ``default_depth(m)``; depths up to m - 1 only pay
    off as the cost ratio grows very large, and are accepted up to 128
    since the search never materializes the tree.
    """
    src = as_source(source)
    m = src.m
    if dp is None:
        dp = default_depth(m)
    _check_depth(dp, cap=MAX_OPTIMIZER_DEPTH)
    if 2**dp < m:
        raise InfeasibleError(f"depth {dp} admits at most {2**dp} codewords, need {m}")

    probs_desc = tuple(reversed(src.probs))
    if eta_max is None and src.is_uniform:
        words = _uniform_optimal_words(cm, dp, m)
    else:
        duration_budget = None
        if eta_max is not None:
            if not (isinstance(eta_max, (int, float)) and math.isfinite(eta_max) and eta_max > 0):
                raise ValidationError(f"eta_max: must be a finite positive number, got {eta_max!r}")
            duration_budget = _duration_budget(src, cm, eta_max)
        seed = _best_seed(cm, dp, m, probs_desc, duration_budget)
        words = _branch_and_bound(cm, dp, probs_desc, seed, duration_budget, node_budget)

    entries = assign_to_symbols(_words_cheapest_first(words, cm), src)
    return Codebook(kind="prefix", entries=entries)


def _best_seed(
    cm: CostModel,
    dp: int,
    m: int,
    probs_desc: tuple[float, ...],
    duration_budget: float | None,
) -> list[str] | None:
    """Cheapest feasible warm start among easy constructions.

    Candidates: the equiprobable-optimal codebook and every fixed-length
    codebook of the m cheapest n-bit words for n in the feasible range.
    """
    from .fixedopt import cheapest_words

    candidates: list[list[str]] = []
    candidates.append(_uniform_optimal_words(cm, dp, m))
    for n in range((m - 1).bit_length(), dp + 1):
        candidates.append(cheapest_words(n, m))
    best: list[str] | None = None
    best_cost = math.inf
    for words in candidates:
        if duration_budget is not None:
            dur = _evaluate_duration(words, probs_desc, cm)
            if dur > duration_budget * (1.0 + _REL_TOL):
                continue
        cost = _evaluate_words(words, probs_desc, cm)
        if cost < best_cost:
            best_cost = cost
            best = words
    return best


def oracle_prefix(
    source: SymbolSource | int,
    cm: CostModel,
    dp: int,
    eta_max: float | None = None,
) -> Codebook:
    """Brute-force optimum over tiny trees, for validating the optimizers.

    Exhaustively enumerates every m-subset of tree nodes that is free of
    ancestor conflicts and keeps the cheapest under the same objective as
    optimize_prefix; cost ties resolve to the lexicographically smallest
    sorted codeword list.
    """
    src = as_source(source)
    m = src.m
    _check_depth(dp)
    q = node_count(dp)
    if q > MAX_ORACLE_NODES:
        raise ValidationError(f"oracle limited to {MAX_ORACLE_NODES} nodes, depth {dp} has {q}")
    if 2**dp < m:
        raise InfeasibleError(f"depth {dp} admits at most {2**dp} codewords, need {m}")

    nodes = list(iter_node_bits(dp))
    conflict = [0] * q
    for i in range(q):
        for j in range(q):
            if i != j and (nodes[j].startswith(nodes[i]) or nodes[i].startswith(nodes[j])):
                conflict[i] |= 1 << j

    probs_desc = tuple(reversed(src.probs))
    duration_budget = None
    if eta_max is not None:
        duration_budget = _duration_budget(src, cm, eta_max)

    best_cost = math.inf
    best_key: tuple[str, ...] | None = None

    def evaluate(chosen: list[int]) -> None:
        nonlocal best_cost, best_key
        words = [nodes[i] for i in chosen]
        cost = _evaluate_words(words, probs_desc, cm)
        if duration_budget is not None:
            if _evaluate_duration(words, probs_desc, cm) > duration_budget * (1.0 + _REL_TOL):
                return
        key = tuple(sorted(words))
        if best_key is None:
            best_cost, best_key = cost, key
            return
        margin = _REL_TOL * max(1.0, abs(best_cost))
        if cost < best_cost - margin:
            best_cost, best_key = cost, key
        elif abs(cost - best_cost) <= margin and key < best_key:
            best_key = key

    def recurse(start: int, chosen: list[int], banned: int) -> None:
        if len(chosen) == m:
            evaluate(chosen)
            return
        if q - start < m - len(chosen):
            return
        for i in range(start, q):
            if not (banned >> i) & 1:
                chosen.append(i)
                recurse(i + 1, chosen, banned | conflict[i])
                chosen.pop()

    recurse(0, [], 0)
    if best_key is None:
        raise InfeasibleError("no feasible prefix codebook under the given constraints")
    entries = assign_to_symbols(_words_cheapest_first(list(best_key), cm), src)
    return Codebook(kind="prefix", entries=entries)
