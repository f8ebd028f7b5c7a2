import gc
import heapq
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mecode as mc
from mecode.errors import InfeasibleError, SearchBudgetError, ValidationError
from mecode.metrics import log_grid
from mecode.varopt import (
    DEFAULT_DEPTH_CAP,
    _branch_and_bound,
    _evaluate_words,
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


class TestBranchAndBoundEngine:
    def test_matches_uniform_dp_engine(self):
        # the subtree dynamic program answers equiprobable instances; the
        # search engine must reach the same optimum when handed equal weights
        for m, dp in ((4, 3), (5, 4), (8, 5), (8, 7)):
            probs_desc = tuple([1.0 / m] * m)
            for gamma in (1.0, 3.0, 40.0, math.inf):
                cm = mc.model_from_gamma(gamma)
                src = mc.uniform_source(m)
                dp_cb = mc.optimize_prefix(src, cm, dp=dp)
                want = mc.average_cost(src, dp_cb, cm)
                words = _branch_and_bound(cm, dp, probs_desc, None, None, 10**6)
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
        # the uniform DP and the search engine are independent code paths;
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
            words = _branch_and_bound(cm, dp, probs_desc, None, None, 10**6)
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
