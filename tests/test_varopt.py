import gc
import heapq
import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mecode as mc
from mecode.costmodel import assign_to_symbols
from mecode.errors import InfeasibleError, SearchBudgetError, ValidationError
from mecode.metrics import log_grid
from mecode.varopt import (
    DEFAULT_DEPTH_CAP,
    _duration_budget,
    _evaluate_words,
    _level_words,
    _uniform_optimal_words,
    default_depth,
    iter_node_bits,
    node_count,
)

from _fraction_dp import _uniform_optimal_words as fraction_uniform_optimal_words
from conftest import random_source


def brute_force_pairs(dp: int) -> list[tuple[int, int]]:
    nodes = list(iter_node_bits(dp))
    return [
        (i, j)
        for i in range(len(nodes))
        for j in range(len(nodes))
        if i != j and nodes[j].startswith(nodes[i])
    ]


class TestTree:
    def test_depth_one(self):
        tree = mc.build_tree(1, mc.CostModel(1, 5, 1, 1))
        assert tree.nodes == ("0", "1")
        assert tree.q == 2

    def test_depth_two_order_and_costs(self, gamma5):
        tree = mc.build_tree(2, gamma5)
        assert tree.nodes == ("0", "00", "01", "1", "10", "11")
        assert tree.costs == (1.0, 2.0, 6.0, 5.0, 6.0, 10.0)

    def test_node_count(self):
        for dp in range(1, 10):
            assert node_count(dp) == 2 ** (dp + 1) - 2
            assert len(list(iter_node_bits(dp))) == node_count(dp)

    def test_depth_validation(self, gamma5):
        with pytest.raises(ValidationError):
            mc.build_tree(0, gamma5)
        with pytest.raises(ValidationError):
            mc.build_tree(31, gamma5)

    def test_node_index_matches_enumeration(self):
        for dp in (1, 2, 3, 5):
            for i, bits in enumerate(iter_node_bits(dp)):
                assert mc.node_index(bits, dp) == i


class TestParentChildPairs:
    def test_depth_one_empty(self):
        assert mc.parent_child_pairs(1).pairs == ()

    def test_depth_two_fixture(self):
        matrix = mc.parent_child_pairs(2)
        assert matrix.pairs == ((0, 1), (0, 2), (3, 4), (3, 5))
        assert matrix.dense() == [
            [1, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 0],
            [0, 0, 0, 1, 0, 1],
        ]

    @pytest.mark.parametrize("dp", [3, 4, 5])
    def test_matches_brute_force(self, dp):
        assert list(mc.parent_child_pairs(dp).pairs) == brute_force_pairs(dp)

    def test_row_count_recursion(self):
        # rows(n+1) = 2 * (q + rows(n)) with q the node count at depth n
        rows = {1: len(mc.parent_child_pairs(1).pairs)}
        for dp in range(2, 7):
            rows[dp] = len(mc.parent_child_pairs(dp).pairs)
            assert rows[dp] == 2 * (node_count(dp - 1) + rows[dp - 1])

    def test_materialization_cap(self):
        with pytest.raises(ValidationError):
            mc.parent_child_pairs(13)


class TestSelectionVector:
    def test_from_codebook_valid(self, table4_prefix):
        vec = mc.SelectionVector.from_codebook(table4_prefix, dp=7)
        assert sum(vec.a) == 8
        assert vec.is_valid(8)

    def test_detects_violation(self):
        vec = mc.SelectionVector(dp=2, a=(1, 1, 0, 0, 0, 0))
        assert not vec.is_valid(2)
        # selecting two leaves of different parents is fine
        assert mc.SelectionVector(dp=2, a=(0, 1, 0, 0, 0, 1)).is_valid(2)


class TestOptimizePrefix:
    def test_reference_instance(self, gamma5):
        src = mc.uniform_source(8)
        cb = mc.optimize_prefix(src, gamma5, dp=7)
        assert mc.is_prefix_free(cb)
        assert mc.average_cost(src, cb, gamma5) == 7.75
        # cost-equivalent to the published codebook: same sorted cost multiset
        published = mc.Codebook(kind="prefix", entries=("11", "10", "01", "001", "0001", "00001", "000001", "000000"))
        assert sorted(mc.codeword_cost(e, gamma5) for e in cb.entries) == sorted(
            mc.codeword_cost(e, gamma5) for e in published.entries
        )

    def test_two_symbols(self):
        for gamma in (1.0, 5.0, 1000.0):
            cm = mc.model_from_gamma(gamma)
            src = mc.uniform_source(2)
            cb = mc.optimize_prefix(src, cm, dp=1)
            assert sorted(e.bits for e in cb.entries) == ["0", "1"]
            assert mc.average_cost(src, cb, cm) == (cm.beta0 + cm.beta1) / 2

    def test_infinite_gamma_unary_structure(self):
        cm = mc.CostModel(0, 1, 1, 1)
        src = mc.uniform_source(4)
        cb = mc.optimize_prefix(src, cm, dp=3)
        assert sorted(e.bits for e in cb.entries) == ["000", "001", "01", "1"]
        assert mc.average_cost(src, cb, cm) == 0.75

    def test_default_depth_cap(self):
        src = mc.uniform_source(8)
        cb = mc.optimize_prefix(src, mc.CostModel(1, 2, 1, 1))
        assert cb.max_length() <= 7

    def test_infeasible_depth(self, gamma5):
        with pytest.raises(InfeasibleError):
            mc.optimize_prefix(8, gamma5, dp=2)

    def test_deeper_never_costlier(self, gamma5):
        src = mc.uniform_source(6)
        costs = []
        for dp in range(3, 9):
            cb = mc.optimize_prefix(src, gamma5, dp=dp)
            costs.append(mc.average_cost(src, cb, gamma5))
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_symmetric_model_recovers_min_length(self):
        beta = 3.0
        cm = mc.CostModel(beta, beta, 1, 1)
        for m in (4, 8, 16):
            src = mc.uniform_source(m)
            cb = mc.optimize_prefix(src, cm, dp=m - 1)
            assert mc.average_cost(src, cb, cm) == pytest.approx(
                beta * math.log2(m), rel=1e-12
            )

    def test_dominates_fixed(self):
        for m in (4, 8):
            src = mc.uniform_source(m)
            for gamma in (1.0, 2.0, 5.0, 20.0, 100.0):
                cm = mc.model_from_gamma(gamma)
                _, scan = mc.optimize_fixed(src, cm)
                cb = mc.optimize_prefix(src, cm, dp=m - 1)
                assert mc.average_cost(src, cb, cm) <= scan.best_cost() * (1 + 1e-12)


BETAS = (
    (0.0, 5e-324, 0.1, 1.0, 1.5, 1e300, 2.0, 3.0, 4.0, 5.0, 6.0)
    + log_grid(1.0, 1000.0, 7)
    + log_grid(1e-3, 0.9, 5)
)


@st.composite
def uniform_instances(draw):
    m = draw(st.integers(2, 64))
    lo = (m - 1).bit_length()
    dp = draw(st.integers(lo, max(lo, min(m - 1, 12))))
    beta0, beta1 = sorted((draw(st.sampled_from(BETAS)), draw(st.sampled_from(BETAS))))
    if beta1 == 0.0:
        beta1 = 1.0
    return mc.CostModel(beta0, beta1, 1.0, 1.0), dp, m


@st.composite
def oracle_instances(draw):
    m = draw(st.integers(2, 8))
    dp = draw(st.integers(max(1, (m - 1).bit_length()), 4))
    beta0, beta1 = sorted((draw(st.sampled_from(BETAS)), draw(st.sampled_from(BETAS))))
    if beta1 == 0.0:
        beta1 = 1.0
    t0, t1 = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    if draw(st.booleans()):
        src = mc.uniform_source(m)
    else:
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        src = mc.symbol_source([v / sum(raw) for v in raw])
    eta_max = draw(st.none() | st.floats(1.0, 2.5))
    return mc.CostModel(beta0, beta1, t0, t1), dp, src, eta_max


class TestUniformEngine:
    @settings(max_examples=150, deadline=None)
    @given(uniform_instances())
    @example((mc.CostModel(1.0, 1.0, 1.0, 1.0), 5, 20))  # gamma = 1
    @example((mc.CostModel(0.0, 1.0, 1.0, 1.0), 12, 40))  # beta0 = 0
    @example((mc.CostModel(5e-324, 1e300, 1.0, 1.0), 7, 33))
    def test_matches_fraction_reference(self, instance):
        # exact integers must tie exactly where exact rationals tie, so the
        # tie-break lands on the identical word list
        cm, dp, m = instance
        assert _uniform_optimal_words(cm, dp, m) == fraction_uniform_optimal_words(cm, dp, m)

    def test_matches_cheapest_leaf_splitting(self):
        # at dp = m - 1 the depth bound cannot bind, and splitting the
        # cheapest leaf m - 1 times is optimal (Varn 1971; Perl, Garey and
        # Even 1975): an independent oracle far beyond the reference's reach
        for b0 in range(6):
            for b1 in range(max(1, b0), 8):
                cm = mc.CostModel(b0, b1, 1, 1)
                for m in (2, 3, 17, 64, 100, 129):
                    leaves = [0]
                    for _ in range(m - 1):
                        cost = heapq.heappop(leaves)
                        heapq.heappush(leaves, cost + b0)
                        heapq.heappush(leaves, cost + b1)
                    words = _uniform_optimal_words(cm, m - 1, m)
                    got = sum(b0 * w.count("0") + b1 * w.count("1") for w in words)
                    assert got == sum(leaves), (b0, b1, m)

    def test_leaves_no_cyclic_garbage(self):
        # the engine's table and walk stack must be freed by reference
        # counting on return, leaving nothing for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            mc.optimize_prefix(mc.uniform_source(64), mc.model_from_gamma(math.inf))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_default_depth(self):
        assert default_depth(8) == 7
        assert default_depth(DEFAULT_DEPTH_CAP + 1) == DEFAULT_DEPTH_CAP
        assert default_depth(256) == DEFAULT_DEPTH_CAP


class TestOracle:
    def test_two_symbols(self, gamma5):
        cb = mc.oracle_prefix(2, gamma5, dp=1)
        assert sorted(e.bits for e in cb.entries) == ["0", "1"]

    def test_three_symbols_depth_two(self, gamma5):
        src = mc.uniform_source(3)
        cb = mc.oracle_prefix(src, gamma5, dp=2)
        assert mc.average_cost(src, cb, gamma5) == pytest.approx(13 / 3, rel=1e-12)
        assert sorted(e.bits for e in cb.entries) == ["00", "01", "1"]

    def test_size_cap(self, gamma5):
        with pytest.raises(ValidationError):
            mc.oracle_prefix(4, gamma5, dp=5)

    def test_agrees_with_optimizer(self, gamma5):
        rng = random.Random(99)
        for m, dp in ((3, 2), (4, 3), (5, 4), (6, 3)):
            for src in (mc.uniform_source(m), random_source(rng, m)):
                for gamma in (1.0, 5.0, 100.0, math.inf):
                    cm = mc.model_from_gamma(gamma)
                    want = mc.average_cost(src, mc.oracle_prefix(src, cm, dp), cm)
                    got = mc.average_cost(src, mc.optimize_prefix(src, cm, dp=dp), cm)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestLevelEngine:
    def test_matches_uniform_dp_engine(self):
        # the subtree dynamic program answers equiprobable instances; the
        # level engine must reach the same optimum when handed equal weights
        for m, dp in ((4, 3), (5, 4), (8, 5), (8, 7)):
            probs_desc = tuple([1.0 / m] * m)
            for gamma in (1.0, 3.0, 40.0, math.inf):
                cm = mc.model_from_gamma(gamma)
                src = mc.uniform_source(m)
                dp_cb = mc.optimize_prefix(src, cm, dp=dp)
                want = mc.average_cost(src, dp_cb, cm)
                words = _level_words(cm, dp, probs_desc, None, 10**6)
                got = _evaluate_words(words, probs_desc, cm)
                assert got == pytest.approx(want, rel=1e-12)

    def test_budget_error_carries_incumbent(self):
        src = mc.symbol_source([0.4, 0.3, 0.2, 0.1])
        cm = mc.CostModel(1, 5, 1, 1)
        with pytest.raises(SearchBudgetError) as err:
            mc.optimize_prefix(src, cm, dp=3, node_budget=2)
        assert err.value.incumbent is not None

    def test_non_uniform_beats_uniform_codebook(self):
        # a very skewed source should pull the optimum away from the
        # uniform-optimal codebook
        src = mc.symbol_source([0.85, 0.05, 0.05, 0.05])
        cm = mc.CostModel(1, 20, 1, 1)
        cb = mc.optimize_prefix(src, cm, dp=3)
        uniform_cb = mc.optimize_prefix(mc.uniform_source(4), cm, dp=3)
        skewed = mc.average_cost(src, cb, cm)
        from_uniform = min(
            sum(p * c for p, c in zip(
                sorted(src.probs_by_symbol(), reverse=True),
                sorted(mc.codeword_cost(e, cm) for e in uniform_cb.entries),
            ))
            for _ in (0,)
        )
        assert skewed <= from_uniform + 1e-12

    @pytest.mark.parametrize(
        "m, gamma, dp",
        [(10, 5.0, None), (8, 1.0, 7)]
        + [(16, gamma, 15) for gamma in (1.0, 2.0, 5.0, 100.0, math.inf)],
    )
    def test_former_budget_instances_solve(self, m, gamma, dp):
        # the first two exhausted the old branch and bound's default node
        # budget: the 10-symbol CLI default and plain Huffman coding
        src = random_source(random.Random(1), m)
        cm = mc.model_from_gamma(gamma)
        cb = mc.optimize_prefix(src, cm, dp=dp)
        assert cb.max_length() <= (dp or default_depth(m))
        _, scan = mc.optimize_fixed(src, cm)
        assert mc.average_cost(src, cb, cm) <= scan.best_cost() * (1 + 1e-12)

    def test_uniform_source_under_eta_max_solves(self):
        src = mc.uniform_source(16)
        cm = mc.model_from_gamma(5.0)
        free = mc.optimize_prefix(src, cm, dp=15)
        cb = mc.optimize_prefix(src, cm, dp=15, eta_max=1.1)
        assert mc.rate_reduction(src, cb, cm) <= 1.1
        assert mc.average_cost(src, cb, cm) >= mc.average_cost(src, free, cm)

    def test_stream_codebook_is_pinned(self):
        # the lexicographically smallest of the 9 exact optima among all
        # full trees of depth <= 5 with 16 leaves
        skew = [1.0 / k for k in range(1, 17)]
        src = mc.symbol_source([p / sum(skew) for p in skew])
        cb = mc.optimize_prefix(src, mc.CostModel(5, 1, 1, 1), dp=5)
        assert [e.bits for e in cb.entries] == [
            "0000", "001", "00010", "01000", "10000", "011", "0101", "1001",
            "1010", "1100", "00011", "01001", "10001", "111", "1011", "1101",
        ]

    @settings(max_examples=40, deadline=None)
    @given(oracle_instances())
    @example((mc.CostModel(0.0, 1.0, 2.0, 0.5), 3, mc.symbol_source([0.6, 0.25, 0.15]), None))
    @example((mc.CostModel(1.0, 1.0, 0.5, 2.0), 4, mc.symbol_source([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]), None))
    @example((  # the optimum within the budget, ['01', '1'], is not a full tree
        mc.CostModel(5.0, 1e300, 2.0, 0.5), 2, mc.symbol_source([0.79, 0.21]), 1.2
    ))
    @example((mc.CostModel(1.0, 5.0, 1.0, 1.0), 4, mc.uniform_source(6), 1.2))
    @example((  # beta0 = 0: expanding a node puts its '0' child on the same cost level
        mc.CostModel(0.0, 31.6, 1.0, 1.0), 4, mc.symbol_source([0.27, 0.17, 0.17, 0.16, 0.12, 0.11]), 1.2
    ))
    def test_matches_oracle_word_for_word(self, instance):
        # the oracle's tie-break is the engine's: the lexicographically
        # smallest sorted word list among exact optima, also where the
        # rate bound makes a code that is not a full tree the optimum
        cm, dp, src, eta_max = instance
        probs_desc = tuple(reversed(src.probs))
        budget = None if eta_max is None else _duration_budget(src, cm, eta_max)
        try:
            want = mc.oracle_prefix(src, cm, dp, eta_max=eta_max)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                _level_words(cm, dp, probs_desc, budget, 10**6)
            return
        words = _level_words(cm, dp, probs_desc, budget, 10**6)
        assert assign_to_symbols(words, src) == tuple(e.bits for e in want.entries)

    def test_leaves_no_cyclic_garbage(self):
        # the memo is local to the call and freed by reference counting
        src = random_source(random.Random(3), 12)
        gc.collect()
        gc.disable()
        try:
            mc.optimize_prefix(src, mc.model_from_gamma(5.0), dp=5)
            mc.optimize_prefix(mc.uniform_source(12), mc.model_from_gamma(5.0), dp=5, eta_max=1.3)
            assert gc.collect() == 0
        finally:
            gc.enable()


def package_merge_lengths(weights, max_len):
    """Optimal codeword lengths <= max_len minimizing sum(w * l) (package
    merge, Larmore and Hirschberg 1990): every symbol puts one coin of its
    weight on each level, pairs of the cheapest items on a level are
    packaged onto the level above, and the 2n - 2 cheapest items on the
    top level are spent; a symbol's length is its number of spent coins."""
    coins = sorted((w, (i,)) for i, w in enumerate(weights))
    items = coins
    for _ in range(max_len - 1):
        packages = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(items[::2], items[1::2])]
        items = sorted(coins + packages)
    lengths = [0] * len(weights)
    for _, symbols in items[: 2 * len(weights) - 2]:
        for i in symbols:
            lengths[i] += 1
    return lengths


def entropy_bound(src, cm):
    """Krause's lower bound H(P) / c on any prefix code's expected cost,
    c the positive root of 2**(-beta0*c) + 2**(-beta1*c) = 1, by float
    bisection to the last bit. Without a positive root (beta0 = 0) it is 0."""
    def excess(c):
        return 2.0 ** (-cm.beta0 * c) + 2.0 ** (-cm.beta1 * c) - 1.0

    if cm.beta0 == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0 / cm.beta0  # excess(hi) <= 0 as beta1 >= beta0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return mc.metrics.source_entropy(src) / hi


class TestIndependentOracles:
    def test_matches_package_merge_at_gamma_one(self):
        # gamma = 1 makes the cost the expected length, and dp < m - 1 a
        # binding length limit: length-limited Huffman coding
        rng = random.Random(1990)
        cm = mc.CostModel(1, 1, 1, 1)
        for m in (5, 8, 13, 21, 32, 64):
            src = random_source(rng, m)
            weights = [Fraction(p) for p in src.probs_by_symbol()]
            lo = (m - 1).bit_length()
            for dp in sorted({lo, min(lo + 2, m - 2)}):
                want = sum(w * n for w, n in zip(weights, package_merge_lengths(weights, dp)))
                cb = mc.optimize_prefix(src, cm, dp=dp)
                got = sum(w * len(e) for w, e in zip(weights, cb.entries))
                assert got == want, (m, dp)

    def test_table4_entropy_bound(self, gamma5):
        src = mc.uniform_source(8)
        assert round(entropy_bound(src, gamma5), 3) == 7.395
        assert mc.average_cost(src, mc.optimize_prefix(src, gamma5, dp=7), gamma5) == 7.75
        assert entropy_bound(src, mc.CostModel(0, 1, 1, 1)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 16), st.sampled_from(BETAS), st.sampled_from(BETAS),
        st.booleans(), st.integers(0, 2**32), st.integers(0, 3),
    )
    @example(200, 1.0, 5.0, True, 0, 3)
    def test_no_engine_beats_the_entropy_bound(self, m, x, y, uniform, seed, slack):
        # a certificate only: every engine's cost stays at or above H(P)/c
        beta0, beta1 = sorted((x, y))
        # beta0 = 0 has no positive root; a vast ratio puts it below float resolution
        assume(beta0 > 0.0 and beta1 / beta0 <= 1e6)
        cm = mc.CostModel(beta0, beta1, 1, 1)
        src = mc.uniform_source(m) if uniform else random_source(random.Random(seed), m)
        dp = min(m - 1, (m - 1).bit_length() + slack)
        bound = entropy_bound(src, cm) * (1 - 1e-12)
        assert mc.average_cost(src, mc.optimize_prefix(src, cm, dp=dp), cm) >= bound
        if node_count(dp) <= 30 and m <= 6:
            assert mc.average_cost(src, mc.oracle_prefix(src, cm, dp), cm) >= bound


class TestEtaConstraint:
    def test_bounds_the_rate_factor(self):
        src = mc.uniform_source(4)
        cm = mc.CostModel(1, 100, 1, 1)
        free_cb = mc.optimize_prefix(src, cm, dp=3)
        assert mc.rate_reduction(src, free_cb, cm) > 1.0
        tight_cb = mc.optimize_prefix(src, cm, dp=3, eta_max=1.0)
        assert mc.rate_reduction(src, tight_cb, cm) <= 1.0 + 1e-9
        assert mc.average_cost(src, tight_cb, cm) >= mc.average_cost(src, free_cb, cm)

    def test_matches_constrained_oracle(self):
        rng = random.Random(5)
        cm = mc.CostModel(1, 30, 1, 1)
        feasible_seen = 0
        for m, dp in ((3, 3), (4, 3)):
            for src in (mc.uniform_source(m), random_source(rng, m)):
                for eta_max in (1.1, 2.0):
                    try:
                        want = mc.average_cost(src, mc.oracle_prefix(src, cm, dp, eta_max=eta_max), cm)
                    except InfeasibleError:
                        with pytest.raises(InfeasibleError):
                            mc.optimize_prefix(src, cm, dp=dp, eta_max=eta_max)
                        continue
                    got = mc.average_cost(
                        src, mc.optimize_prefix(src, cm, dp=dp, eta_max=eta_max), cm
                    )
                    assert got == pytest.approx(want, rel=1e-12)
                    feasible_seen += 1
        assert feasible_seen >= 4

    def test_infeasible_eta_raised_by_both(self):
        # three uniform symbols need total length >= 5, so eta = 1 is out of reach
        src = mc.uniform_source(3)
        cm = mc.CostModel(1, 5, 1, 1)
        with pytest.raises(InfeasibleError):
            mc.optimize_prefix(src, cm, dp=3, eta_max=1.0)
        with pytest.raises(InfeasibleError):
            mc.oracle_prefix(src, cm, 3, eta_max=1.0)
        with pytest.raises(InfeasibleError):
            mc.optimize_prefix(mc.uniform_source(4), cm, dp=3, eta_max=0.1)


    def test_invalid_eta_max_rejected_by_both(self):
        src = mc.symbol_source([0.5, 0.3, 0.2])
        cm = mc.CostModel(1, 5, 1, 1)
        for eta_max in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValidationError):
                mc.optimize_prefix(src, cm, dp=2, eta_max=eta_max)
            with pytest.raises(ValidationError):
                mc.oracle_prefix(src, cm, 2, eta_max=eta_max)

    def test_zero_entropy_source_rejected_by_both(self):
        # the rate factor is undefined when the uncoded duration is zero
        src = mc.symbol_source([1.0, 0.0])
        cm = mc.CostModel(1, 5, 1, 1)
        with pytest.raises(ValidationError):
            mc.optimize_prefix(src, cm, dp=1, eta_max=1.5)
        with pytest.raises(ValidationError):
            mc.oracle_prefix(src, cm, 1, eta_max=1.5)


class TestStress:
    def test_cross_engine_agreement_random_gammas(self):
        # the uniform DP and the level engine are independent code paths;
        # drive both across random cost ratios and depths
        rng = random.Random(2718)
        for _ in range(40):
            m = rng.randint(3, 10)
            dp = rng.randint((m - 1).bit_length(), 7)
            gamma = math.exp(rng.uniform(0.0, 8.0))
            cm = mc.model_from_gamma(gamma)
            src = mc.uniform_source(m)
            want = mc.average_cost(src, mc.optimize_prefix(src, cm, dp=dp), cm)
            probs_desc = tuple([1.0 / m] * m)
            words = _level_words(cm, dp, probs_desc, None, 10**6)
            got = _evaluate_words(words, probs_desc, cm)
            assert got == pytest.approx(want, rel=1e-12), (m, dp, gamma)

    def test_oracle_agreement_random_sources_and_durations(self):
        rng = random.Random(31415)
        for _ in range(30):
            m = rng.randint(3, 8)
            dp = rng.randint((m - 1).bit_length(), 4)
            if 2**dp < m:
                continue
            cm = mc.CostModel(
                rng.uniform(0.0, 2.0), rng.uniform(2.0, 40.0),
                rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
            )
            src = random_source(rng, m)
            want = mc.average_cost(src, mc.oracle_prefix(src, cm, dp), cm)
            got = mc.average_cost(src, mc.optimize_prefix(src, cm, dp=dp), cm)
            assert got == pytest.approx(want, rel=1e-12), (m, dp, cm)

    def test_uniform_optimum_is_a_full_tree(self):
        # a non-full optimum could always shorten some codeword, so the
        # lexicographic tie-break must land on a Kraft-complete codebook
        from fractions import Fraction

        for m in (2, 3, 4, 6, 8, 16):
            for gamma in (1.0, 2.0, 5.0, 50.0, math.inf):
                cm = mc.model_from_gamma(gamma)
                dp = m - 1 if m > 2 else 1
                cb = mc.optimize_prefix(mc.uniform_source(m), cm, dp=dp)
                assert mc.kraft_sum(cb) == Fraction(1), (m, gamma)

    def test_selection_vectors_of_emitted_codebooks_are_valid(self):
        for m, dp in ((4, 3), (8, 5)):
            for gamma in (1.0, 5.0, math.inf):
                cb = mc.optimize_prefix(mc.uniform_source(m), mc.model_from_gamma(gamma), dp=dp)
                vec = mc.SelectionVector.from_codebook(cb, dp)
                assert vec.is_valid(m)

    def test_tree_costs_match_codeword_cost(self, gamma5):
        for dp in (1, 3, 5):
            tree = mc.build_tree(dp, gamma5)
            for bits, cost in zip(tree.nodes, tree.costs):
                assert cost == mc.codeword_cost(bits, gamma5)

    def test_depth_beyond_materialization_cap(self):
        # the optimizer accepts depths the inspection structures refuse,
        # and at huge cost ratios the extra depth is what restores
        # dominance over the fixed-length optimum
        src = mc.uniform_source(32)
        cm = mc.model_from_gamma(1e6)
        _, scan = mc.optimize_fixed(src, cm)
        assert scan.n_opt == 31
        cb = mc.optimize_prefix(src, cm, dp=31)
        assert cb.max_length() == 31
        assert mc.average_cost(src, cb, cm) <= scan.best_cost() * (1 + 1e-12)
        with pytest.raises(ValidationError):
            mc.build_tree(31, cm)


class TestConcurrency:
    def test_parallel_optimizations_are_deterministic(self):
        jobs = [(m, g) for m in (4, 8) for g in (1.0, 5.0, 30.0)] * 3
        def run(job):
            m, g = job
            cb = mc.optimize_prefix(mc.uniform_source(m), mc.model_from_gamma(g), dp=m - 1)
            return tuple(e.bits for e in cb.entries)
        with ThreadPoolExecutor(max_workers=6) as pool:
            first = list(pool.map(run, jobs))
            second = list(pool.map(run, jobs))
        assert first == second
