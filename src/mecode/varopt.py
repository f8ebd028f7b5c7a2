"""Optimal variable-length (prefix) minimum-energy codebooks.

Candidate codewords are the nodes of a binary tree of depth dp, numbered
depth-first with the '0' branch before the '1' branch. Choosing a codebook
means selecting m nodes no two of which lie on one root-to-leaf path; the
sparse parent-child pair list expresses that exclusion constraint.

Two exact engines solve the selection problem, on exact integer costs
(beta0, beta1, and where needed t0, t1 and the probabilities, scaled by
their common power-of-two denominator):

* equiprobable sources without a rate bound: a table over subtree
  shapes (a subtree either contributes its root as a codeword or splits
  the quota between its children). Each row of the cost table is convex,
  so it is a running sum of its children's merged marginal costs, an
  O(dp * m) table; a linear walk from the root that takes each subtree's
  smallest optimal split resolves ties to the lexicographically smallest
  sorted codeword list;
* every other call, general sources and any ``eta_max``: a top-down
  search by cost level over memoized states of (symbols assigned,
  pending nodes), with Pareto frontiers of (cost, duration) under a
  duration budget, and a depth-first walk that resolves ties the same
  way.

A brute-force oracle over tiny trees validates both engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, pairwise, product
from operator import itemgetter
from typing import Iterator, Sequence

from .codebook import Codebook
from .costmodel import CostModel, SymbolSource, as_source, assign_to_symbols
from .errors import InfeasibleError, SearchBudgetError, ValidationError
from .metrics import source_symbol_duration

MAX_TREE_DEPTH = 30
MAX_PAIRS_DEPTH = 12
MAX_ORACLE_NODES = 30
MAX_OPTIMIZER_DEPTH = 128  # optimizers never materialize the tree
DEFAULT_DEPTH_CAP = 24
DEFAULT_NODE_BUDGET = 2_000_000


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


def _words_cheapest_first(words: Sequence[str], cm: CostModel) -> list[str]:
    return sorted(words, key=lambda w: (_word_cost(w, cm), w))


def _evaluate_words(words: Sequence[str], probs_desc: Sequence[float], cm: CostModel) -> float:
    """Expected cost with the cheapest words on the most probable symbols."""
    ordered = _words_cheapest_first(words, cm)
    return sum(p * _word_cost(w, cm) for p, w in zip(probs_desc, ordered))


def _duration_budget(src: SymbolSource, cm: CostModel, eta_max: float) -> float:
    """Largest average codeword duration allowed: eta_max times the
    uncoded symbol duration."""
    if not (isinstance(eta_max, (int, float)) and math.isfinite(eta_max) and eta_max > 0):
        raise ValidationError(f"eta_max: must be a finite positive number, got {eta_max!r}")
    return eta_max * source_symbol_duration(src, cm)


def _exact_integers(*values: float) -> tuple[int, ...]:
    """Finite floats as exact integers on one common scale.

    Every finite float is a dyadic rational n / 2**e, so multiplying all of
    them by their common power-of-two denominator gives integers whose sums
    and comparisons order exactly as the rational values do.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*(den for _, den in ratios))
    return tuple(num * (scale // den) for num, den in ratios)


@dataclass(frozen=True)
class _ExactObjective:
    """The prefix objective on exact integers, shared by the level engine,
    the warm-start seeds and the oracle.

    beta0, beta1, t0, t1, the probabilities (most probable first) and the
    duration budget are scaled onto one common integer scale, so expected
    costs and durations (probability x word value) compare exactly, and
    the budget is compared in the same units. Codewords go to symbols
    cheapest first; under a duration budget, equal-cost words go shortest
    duration first, which changes no cost and gives the smallest duration.
    """

    b0: int
    b1: int
    t0: int
    t1: int
    probs: tuple[int, ...]
    limit: int | None

    @classmethod
    def of(
        cls, cm: CostModel, probs_desc: Sequence[float], duration_budget: float | None
    ) -> "_ExactObjective":
        budget = () if duration_budget is None else (duration_budget,)
        scale, b0, b1, t0, t1, *ints = _exact_integers(
            1.0, cm.beta0, cm.beta1, cm.t0, cm.t1, *probs_desc, *budget
        )
        m = len(probs_desc)
        limit = ints[m] * scale if budget else None
        return cls(b0, b1, t0, t1, tuple(ints[:m]), limit)

    def word(self, bits: str) -> tuple[int, int]:
        """Exact (cost, duration) of one codeword."""
        n1 = bits.count("1")
        n0 = len(bits) - n1
        return self.b0 * n0 + self.b1 * n1, self.t0 * n0 + self.t1 * n1

    def ordered(self, words: Sequence[str]) -> list[str]:
        """Words in the order they go to symbols, most probable first."""
        if self.limit is None:
            return sorted(words, key=lambda w: (self.word(w)[0], w))
        return sorted(words, key=lambda w: (self.word(w), w))

    def totals(self, words: Sequence[str]) -> tuple[int, int]:
        """Expected (cost, duration) of a word list, on the common scale."""
        pairs = [self.word(w) for w in self.ordered(words)]
        return (
            sum(p * c for p, (c, _) in zip(self.probs, pairs)),
            sum(p * d for p, (_, d) in zip(self.probs, pairs)),
        )

    def within_budget(self, duration: int) -> bool:
        return self.limit is None or duration <= self.limit


# ---------------------------------------------------------------------------
# exact engine for equiprobable sources
# ---------------------------------------------------------------------------


def _uniform_optimal_words(cm: CostModel, dp: int, m: int) -> list[str]:
    """Minimum-total-cost prefix code with m words of length <= dp.

    ``cost[d][k]`` is the cheapest total cost of k prefix-free extensions
    within a subtree that has d levels below its root, the root itself
    counting as the zero-cost extension; row d holds k = 0..min(2**d, m).
    A subtree holds one codeword by contributing its root, or k >= 2 by
    splitting the quota into k0 words under its '0' child (each gaining
    beta0) and k1 = k - k0 under its '1' child (each gaining beta1). Costs
    are exact integers (beta0 and beta1 scaled by their common
    power-of-two denominator), so ties are detected exactly. Of the tied
    optima the code returned is the lexicographically smallest sorted
    word list, found without comparing any lists:

    1. By induction on d, ``cost[d][.]`` is convex. For k >= 2 a row is
       the (min, +) convolution of the convex sequences
       ``j*b0 + cost[d-1][j]`` and ``j*b1 + cost[d-1][j]``, which is the
       sum of the k smallest merged marginal costs: b0, and b1, plus each
       difference ``cost[d-1][j] - cost[d-1][j-1]``. Resetting k = 1 to
       the root's 0 keeps the row convex, because the third merged
       marginal, ``2*b0 + b1``, is at least ``cost[d][2] = b0 + b1``.
    2. For k >= 2 the split k0 = 0 costs at least b1 more than k0 = 1,
       and by convexity k0 = k is never cheaper than k0 = k - 1, so the
       smallest tied k0 lies in [1, k - 1].
    3. With convex children, the smallest optimal split is non-decreasing
       in k, by the exchange argument on convex sequences.
    4. Hence, by induction on d, for 1 <= a < b the smallest-split word
       list for a sorts before the list for b, and first differs from it
       at an index below a. A split lists its '0' child's words behind
       "0", then its '1' child's behind "1", so among a parent's tied
       splits the smallest k0 yields the lexicographically smallest
       sorted word list.

    So each row is one merge of two sorted runs and one running sum,
    O(m), and the words come from one walk down from the root that takes
    the smallest optimal split of every subtree.
    """
    if m > 2**dp:
        raise InfeasibleError(f"no prefix code with {m} words fits in depth {dp}")
    b0, b1 = _exact_integers(cm.beta0, cm.beta1)
    cost: list[list[int]] = [[0, 0]]
    for _ in range(dp):
        marginals = [hi - lo for lo, hi in pairwise(cost[-1])]
        # two sorted runs, which sorted() merges in linear time
        merged = sorted([b0 + x for x in marginals] + [b1 + x for x in marginals])
        cost.append([0, 0] + list(accumulate(merged[:m]))[1:])

    words: list[str] = []
    stack = [("", dp, m)]
    while stack:
        prefix, d, k = stack.pop()
        if k == 1:
            words.append(prefix)
            continue
        child = cost[d - 1]
        cap = len(child) - 1
        k0 = next(
            j
            for j in range(max(1, k - cap), min(k - 1, cap) + 1)
            if j * b0 + child[j] + (k - j) * b1 + child[k - j] == cost[d][k]
        )
        stack.append((prefix + "1", d - 1, k - k0))
        stack.append((prefix + "0", d - 1, k0))
    return words


# ---------------------------------------------------------------------------
# exact level engine for general sources and duration budgets
# ---------------------------------------------------------------------------


def _level_words(
    cm: CostModel,
    dp: int,
    probs_desc: tuple[float, ...],
    duration_budget: float | None,
    node_budget: int,
) -> list[str]:
    """Minimum expected cost prefix code with words of length <= dp, under
    an optional budget on the expected duration, built top-down by cost
    level (Golin & Rote, IEEE Trans. IT 1998) on ``_ExactObjective``'s
    exact integers. Returns the words in the order they go to symbols.

    * Full trees suffice. Contracting a node that has one child lowers the
      cost, duration and length of every word below it, so without a
      budget, or with one over equal probabilities, some optimum is a full
      tree and every pending node ends as a codeword or is expanded. With
      a budget over unequal probabilities a cheaper word can move to a
      more probable symbol and raise the expected duration, so there a
      pending node may also be left empty.
    * Codewords go to symbols in order of cost, so the expected cost is
      the sum over level steps of (mass not yet assigned) x (step). A
      state is k, the symbols assigned so far, and the pending nodes as a
      sorted tuple of (cost offset, duration offset, room), both offsets
      from the state's cheapest node, so the cost to go depends on the
      state alone. A full subtree holding j leaves is at most j - 1 deep,
      so full-tree rooms are clamped at m - k - (pending count).
    * At the cheapest level the only choice is how many nodes of each
      duration to expand, taking those with the most room; (if allowed)
      how many to leave empty; the rest become the next codewords,
      shortest duration first. With beta0 = 0 a '0' child joins its
      parent's level, so under a budget the level's codewords wait in the
      state, with no room, until the level closes. Each state's value is
      its Pareto frontier of (cost to go, duration to go), a single point
      without a budget, memoized in a dict local to the call.
    * Tie-break. A sorted word list follows the tree's leaves depth-first,
      '0' first, so of two codes that agree up to some node, the one that
      keeps that node as a leaf sorts first, then the one that expands it,
      then the one that leaves it empty. The words therefore come from one
      depth-first walk that keeps each node as a leaf, else expands it,
      else leaves it empty, whichever first still admits a completion at
      the optimum; a decided leaf stays in the cut with no room. This is
      the lexicographically smallest sorted optimal list, the oracle's,
      whenever every probability is positive (a zero-probability symbol
      can make a tree that is not full tie with the optimum).

    ``node_budget`` caps the states expanded; past it, SearchBudgetError
    carries the best warm-start code as its incumbent.
    """
    m = len(probs_desc)
    obj = _ExactObjective.of(cm, probs_desc, duration_budget)
    rated = obj.limit is not None
    b0, b1 = obj.b0, obj.b1
    t0, t1 = (obj.t0, obj.t1) if rated else (0, 0)
    loose = rated and len(set(obj.probs)) > 1  # pending nodes may be left empty
    pinned = -1 if loose else 0  # room of a decided leaf: never expanded nor left empty
    carry = rated and b0 == 0
    mass = list(accumulate(reversed(obj.probs), initial=0))[::-1]  # mass[k] = sum(probs[k:])
    memo: dict[tuple, list[tuple[int, int]]] = {}
    expanded = 0

    def normalize(k: int, nodes: list[tuple[int, int, int]]) -> tuple[int, int, tuple]:
        base = min(nodes)[0]
        dbase = min(map(itemgetter(1), nodes)) if rated else 0
        cap = dp if loose else m - k - len(nodes)
        items = sorted((c - base, d - dbase, r if r < cap else cap) for c, d, r in nodes)
        # one flat tuple per state, not one per node, keeps the memo small
        return base, dbase, (k, *chain.from_iterable(items))

    def moves(state: tuple) -> list[tuple]:
        k, flat = state[0], state[1:]
        items = list(zip(flat[::3], flat[1::3], flat[2::3]))
        n = 0
        while n < len(items) and items[n][0] == 0:
            n += 1
        groups = [list(g) for _, g in groupby(items[:n], key=itemgetter(1))]
        options = []
        for g in groups:
            expandable = sum(r >= 1 for _, _, r in g)
            emptiable = sum(r >= 0 for _, _, r in g) if loose else 0
            options.append([(e, x) for e in range(expandable + 1) for x in range(max(emptiable - e, 0) + 1)])
        out = []
        for choice in product(*options):
            counts = [len(g) - e - x for g, (e, x) in zip(groups, choice)]
            j = k + sum(counts)
            if j > m:
                continue
            new = list(items[n:])
            for g, (e, _) in zip(groups, choice):
                for _, d, r in g[len(g) - e:]:
                    new.append((b0, d + t0, r - 1))
                    new.append((b1, d + t1, r - 1))
            spent, i = 0, k
            if carry and len(new) > len(items) - n:
                # '0' children stay on this level: its codewords wait, so
                # that all of them go to symbols in order of duration
                new += [(0, g[0][1], pinned) for g, c in zip(groups, counts) for _ in range(c)]
                j = k
            else:
                for g, c in zip(groups, counts):
                    spent += g[0][1] * (mass[i] - mass[i + c])
                    i += c
            if j == m:
                # leftover nodes stay empty: only in loose mode, never a decided leaf
                if not new or (loose and min(r for _, _, r in new) >= 0):
                    out.append((spent, 0, 0, None))
            elif new and (loose or len(new) <= m - j <= sum(1 << r for _, _, r in new)):
                step, dstep, child = normalize(j, new)
                out.append((spent, mass[j] * step, mass[j] * dstep, child))
        return out

    def frontier(state_moves: list[tuple]) -> list[tuple[int, int]]:
        candidates = sorted(
            (dc + c, spent + dd + d)
            for spent, dc, dd, child in state_moves
            for c, d in (((0, 0),) if child is None else memo[child])
        )
        front: list[tuple[int, int]] = []
        for c, d in candidates:
            if not front or d < front[-1][1]:
                front.append((c, d))
        return front

    def solve(state: tuple) -> list[tuple[int, int]]:
        nonlocal expanded
        # an explicit stack: one path holds up to 2m levels, past the recursion limit
        stack, open_moves = [state], {}
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            state_moves = open_moves.get(top)
            if state_moves is None:
                expanded += 1
                if expanded > node_budget:
                    raise SearchBudgetError(
                        f"prefix optimizer exceeded its node budget of {node_budget}",
                        _best_seed(cm, dp, obj),
                    )
                state_moves = open_moves[top] = moves(top)
                missing = [s for *_, s in state_moves if s is not None and s not in memo]
                if missing:
                    stack += missing
                    continue
            stack.pop()
            del open_moves[top]
            memo[top] = frontier(state_moves)
        return memo[state]

    def completions(cut: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
        base, dbase, state = normalize(0, cut)
        return [(mass[0] * base + c, mass[0] * dbase + d) for c, d in solve(state)]

    def node(bits: str) -> tuple[str, int, int, int]:
        cost, dur = obj.word(bits)
        return bits, cost, dur if rated else 0, dp - len(bits)

    todo = [node("1"), node("0")]
    opt = min(
        (c for c, d in completions([n[1:] for n in todo]) if obj.within_budget(d)), default=None
    )
    if opt is None:
        raise InfeasibleError("no feasible prefix codebook under the given constraints")

    def attains(cut: list[tuple[int, int, int]]) -> bool:
        return any(c == opt and obj.within_budget(d) for c, d in completions(cut))

    words: list[str] = []
    leaves: list[tuple[int, int, int]] = []
    while todo:
        bits, cost, dur, room = todo.pop()
        cut = leaves + [n[1:] for n in todo]
        leaf = (cost, dur, pinned)
        if (room < 1 and not loose) or attains(cut + [leaf]):
            leaves.append(leaf)
            words.append(bits)
        elif room >= 1:
            children = [node(bits + "1"), node(bits + "0")]
            if not loose or attains(cut + [n[1:] for n in children]):
                todo += children
    return obj.ordered(words)


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
    since neither engine materializes the tree.

    Equiprobable sources without ``eta_max`` take the uniform subtree
    table; every other call takes the level engine, which raises
    SearchBudgetError once it has expanded ``node_budget`` states. Both
    return the lexicographically smallest sorted word list among the
    exact optima.
    """
    src = as_source(source)
    m = src.m
    if dp is None:
        dp = default_depth(m)
    _check_depth(dp, cap=MAX_OPTIMIZER_DEPTH)
    if 2**dp < m:
        raise InfeasibleError(f"depth {dp} admits at most {2**dp} codewords, need {m}")

    if eta_max is None and src.is_uniform:
        words = _words_cheapest_first(_uniform_optimal_words(cm, dp, m), cm)
    else:
        duration_budget = None
        if eta_max is not None:
            duration_budget = _duration_budget(src, cm, eta_max)
        words = _level_words(cm, dp, tuple(reversed(src.probs)), duration_budget, node_budget)
    return Codebook(kind="prefix", entries=assign_to_symbols(words, src))


def _best_seed(cm: CostModel, dp: int, obj: _ExactObjective) -> list[str] | None:
    """Cheapest code within the duration budget among easy constructions:
    the equiprobable optimum and the m cheapest n-bit words for every
    feasible n. None if none of them fits the budget."""
    from .fixedopt import cheapest_words

    m = len(obj.probs)
    candidates = [_uniform_optimal_words(cm, dp, m)]
    candidates += [cheapest_words(n, m) for n in range((m - 1).bit_length(), dp + 1)]
    feasible = [
        (cost, words) for words in candidates for cost, dur in [obj.totals(words)] if obj.within_budget(dur)
    ]
    return min(feasible, key=itemgetter(0))[1] if feasible else None


def oracle_prefix(
    source: SymbolSource | int,
    cm: CostModel,
    dp: int,
    eta_max: float | None = None,
) -> Codebook:
    """Brute-force optimum over tiny trees, for validating the optimizers.

    Exhaustively enumerates every m-subset of tree nodes that is free of
    ancestor conflicts and keeps the cheapest under the same objective as
    optimize_prefix, compared on the same exact integers; cost ties
    resolve to the lexicographically smallest sorted codeword list.
    """
    src = as_source(source)
    m = src.m
    _check_depth(dp)
    q = node_count(dp)
    if q > MAX_ORACLE_NODES:
        raise ValidationError(f"oracle limited to {MAX_ORACLE_NODES} nodes, depth {dp} has {q}")
    if 2**dp < m:
        raise InfeasibleError(f"depth {dp} admits at most {2**dp} codewords, need {m}")

    # depth-first order is lexicographic order, so increasing index tuples
    # compare as the sorted word lists do
    nodes = list(iter_node_bits(dp))
    conflict = [0] * q
    for i in range(q):
        for j in range(q):
            if i != j and (nodes[j].startswith(nodes[i]) or nodes[i].startswith(nodes[j])):
                conflict[i] |= 1 << j

    duration_budget = None
    if eta_max is not None:
        duration_budget = _duration_budget(src, cm, eta_max)
    obj = _ExactObjective.of(cm, tuple(reversed(src.probs)), duration_budget)
    values = [obj.word(bits) for bits in nodes]
    best: tuple[int, tuple[int, ...]] | None = None

    def evaluate(chosen: list[int]) -> None:
        nonlocal best
        pairs = sorted(values[i] for i in chosen)
        cost = sum(p * c for p, (c, _) in zip(obj.probs, pairs))
        if best is not None and cost > best[0]:
            return
        if not obj.within_budget(sum(p * d for p, (_, d) in zip(obj.probs, pairs))):
            return
        key = (cost, tuple(chosen))
        if best is None or key < best:
            best = key

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
    if best is None:
        raise InfeasibleError("no feasible prefix codebook under the given constraints")
    words = obj.ordered([nodes[i] for i in best[1]])
    return Codebook(kind="prefix", entries=assign_to_symbols(words, src))
