import csv
import io
import math

import pytest

import mecode as mc
from mecode.errors import ValidationError
from mecode.metrics import SWEEP_COLUMNS, lin_grid, log_grid


def uncoded_codebook(m: int) -> mc.Codebook:
    width = (m - 1).bit_length()
    return mc.Codebook(kind="fixed", entries=tuple(format(i, f"0{width}b") for i in range(m)))


class TestEntropy:
    def test_uniform(self):
        assert mc.source_entropy(8) == pytest.approx(3.0)
        assert mc.source_entropy(128) == pytest.approx(7.0)
        assert mc.source_entropy(mc.symbol_source([0.5, 0.5])) == pytest.approx(1.0)

    def test_zero_probability_contributes_nothing(self):
        src = mc.symbol_source([0.5, 0.5, 0.0])
        assert mc.source_entropy(src) == pytest.approx(1.0)

    def test_degenerate_source_rejected_for_rates(self):
        src = mc.symbol_source([1.0, 0.0])
        cb = mc.Codebook(kind="fixed", entries=("0", "1"))
        with pytest.raises(ValidationError, match="entropy"):
            mc.rate_reduction(src, cb, mc.CostModel(1, 5, 1, 1))


class TestAverages:
    def test_reference_costs(self, gamma5, table4_fixed, table4_prefix):
        src = mc.uniform_source(8)
        assert mc.average_cost(src, table4_fixed, gamma5) == 9.0
        assert mc.average_cost(src, table4_prefix, gamma5) == 7.75

    def test_symmetric_cost_equals_length(self, table4_prefix):
        src = mc.uniform_source(8)
        cm = mc.CostModel(1, 1, 1, 1)
        assert mc.average_cost(src, table4_prefix, cm) == mc.average_length(src, table4_prefix)

    def test_average_length(self, table4_prefix):
        src = mc.uniform_source(8)
        assert mc.average_length(src, table4_prefix) == pytest.approx(30 / 8)


class TestRateReduction:
    def test_uncoded_is_one(self):
        for m in (4, 8, 16):
            src = mc.uniform_source(m)
            cm = mc.CostModel(1, 5, 1, 1)
            assert mc.rate_reduction(src, uncoded_codebook(m), cm) == pytest.approx(1.0)

    def test_one_hot_code(self):
        # 7-bit one-hot words against 3-bit symbols
        src = mc.uniform_source(8)
        cm = mc.CostModel(0, 1, 1, 1)
        cb, _ = mc.optimize_fixed(src, cm)
        assert mc.rate_reduction(src, cb, cm) == pytest.approx(7 / 3)

    def test_reference_prefix_code(self, gamma5, table4_prefix):
        src = mc.uniform_source(8)
        assert mc.rate_reduction(src, table4_prefix, gamma5) == pytest.approx(3.75 / 3)

    def test_unequal_bit_durations(self, table4_prefix):
        cm = mc.CostModel(1, 5, 1.0, 2.0)
        src = mc.uniform_source(8)
        # per-symbol duration: N0*t0 + N1*t1 averaged, over 1.5 * 3 source time
        durations = [e.n0() * 1.0 + e.n1() * 2.0 for e in table4_prefix.entries]
        expected = (sum(durations) / 8) / (1.5 * 3)
        assert mc.rate_reduction(src, table4_prefix, cm) == pytest.approx(expected)


class TestEnergySaving:
    def test_reference_values(self, gamma5, table4_fixed, table4_prefix):
        src = mc.uniform_source(8)
        assert mc.energy_saving(src, table4_prefix, gamma5) == pytest.approx(1 - 15.5 / 18)
        assert mc.energy_saving(src, table4_fixed, gamma5) == pytest.approx(0.0)

    def test_uncoded_is_zero(self):
        for m in (4, 8, 16):
            for gamma in (1.0, 5.0, 42.0):
                src = mc.uniform_source(m)
                cm = mc.model_from_gamma(gamma)
                assert mc.energy_saving(src, uncoded_codebook(m), cm) == pytest.approx(0.0)

    def test_depends_only_on_gamma(self):
        src = mc.uniform_source(8)
        values = []
        for scale in (1.0, 7.3e-11, 250.0):
            cm = mc.CostModel(scale, 5 * scale, 1, 1)
            cb = mc.optimize_prefix(src, cm, dp=7)
            values.append(mc.energy_saving(src, cb, cm))
        assert abs(values[0] - values[1]) <= 1e-12
        assert abs(values[0] - values[2]) <= 1e-12

    def test_monotone_in_gamma_both_kinds(self):
        src = mc.uniform_source(8)
        for kind in ("fixed", "prefix"):
            last = -math.inf
            for gamma in (1.0, 2.0, 5.0, 10.0, 100.0):
                cm = mc.model_from_gamma(gamma)
                if kind == "fixed":
                    cb, _ = mc.optimize_fixed(src, cm)
                else:
                    cb = mc.optimize_prefix(src, cm, dp=7)
                eps = mc.energy_saving(src, cb, cm)
                assert eps >= last - 1e-12
                last = eps

    def test_both_kinds_share_the_gamma_limit(self):
        src = mc.uniform_source(8)
        cm = mc.model_from_gamma(1e6)
        limit = mc.epsilon_max_fixed(8)
        fixed_cb, _ = mc.optimize_fixed(src, cm)
        prefix_cb = mc.optimize_prefix(src, cm, dp=7)
        assert abs(mc.energy_saving(src, fixed_cb, cm) - limit) < 1e-3
        assert abs(mc.energy_saving(src, prefix_cb, cm) - limit) < 1e-3

    def test_non_uniform_baseline_uses_binary_indexing(self):
        src = mc.symbol_source([0.7, 0.1, 0.1, 0.1])
        cm = mc.CostModel(1, 5, 1, 1)
        # ones count of 2-bit indices 00,01,10,11 weighted by p
        expected = sum(
            p * (cm.beta0 * (2 - bin(i).count("1")) + cm.beta1 * bin(i).count("1"))
            for i, p in enumerate(src.probs_by_symbol())
        )
        assert mc.uncoded_cost(src, cm) == pytest.approx(expected)


class TestEpsilonMax:
    def test_closed_form_values(self):
        assert mc.epsilon_max_fixed(128) == pytest.approx(1 - 254 / 896)
        assert mc.epsilon_max_fixed(4) == pytest.approx(0.25)
        assert mc.epsilon_max_variable(128) == mc.epsilon_max_fixed(128)

    def test_asymptote_gap_small_for_large_m(self):
        m = 2**16
        exact = mc.epsilon_max_fixed(m)
        approx = mc.epsilon_max_asymptote(m)
        assert abs(exact - approx) / exact < 0.02

    def test_validation(self):
        with pytest.raises(ValidationError):
            mc.epsilon_max_fixed(1)


class TestEvaluate:
    def test_record_consistency(self, gamma5, table4_prefix):
        src = mc.uniform_source(8)
        rec = mc.evaluate(src, table4_prefix, gamma5)
        assert rec.l_src == pytest.approx(3.0)
        assert rec.eta == pytest.approx(rec.r_src / rec.r_code)
        assert rec.beta_code == 7.75
        assert rec.epsilon == pytest.approx(1 - 15.5 / 18)
        assert rec.avg_length == pytest.approx(3.75)


class TestSweep:
    def test_length_sweep_minimum_at_n_opt(self):
        spec = mc.SweepSpec(var="n", grid=tuple(range(3, 31)), m=(16,), gammas=(1.0, 5.0, 50.0))
        rows = mc.sweep(spec)
        for gamma in (1.0, 5.0, 50.0):
            sub = [r for r in rows if r["gamma"] == gamma]
            assert [r["n_or_dp"] for r in sub] == list(range(4, 31))
            best_row = min(sub, key=lambda r: r["beta_code"])
            _, scan = mc.optimize_fixed(16, mc.model_from_gamma(gamma), n_max=30)
            assert best_row["n_or_dp"] == scan.n_opt
            assert best_row["beta_code"] == pytest.approx(scan.best_cost(), rel=1e-12)
        # over-long blocks at small gamma cost more than no coding at all
        assert any(r["epsilon"] < 0 for r in rows if r["gamma"] == 1.0)

    def test_gamma_sweep_matches_optimizers(self):
        spec = mc.SweepSpec(var="gamma", grid=(1.0, 5.0, 20.0), m=(8,), kinds=("fixed", "prefix"))
        rows = mc.sweep(spec)
        assert len(rows) == 6
        for row in rows:
            src = mc.uniform_source(8)
            cm = mc.model_from_gamma(row["gamma"])
            if row["kind"] == "fixed":
                _, scan = mc.optimize_fixed(src, cm)
                assert row["beta_code"] == pytest.approx(scan.best_cost(), rel=1e-12)
            else:
                cb = mc.optimize_prefix(src, cm, dp=7)
                assert row["beta_code"] == pytest.approx(mc.average_cost(src, cb, cm), rel=1e-12)

    def test_prefix_dominates_fixed_pointwise(self):
        spec = mc.SweepSpec(var="gamma", grid=log_grid(1.0, 100.0, 13), m=(8,), kinds=("fixed", "prefix"))
        rows = mc.sweep(spec)
        by_gamma: dict = {}
        for row in rows:
            by_gamma.setdefault(row["gamma"], {})[row["kind"]] = row["epsilon"]
        gaps = [v["prefix"] - v["fixed"] for v in by_gamma.values()]
        assert all(g >= -1e-12 for g in gaps)
        assert max(gaps) >= 0.10

    def test_dp_sweep_non_increasing_cost(self):
        spec = mc.SweepSpec(var="dp", grid=(3, 4, 5, 6, 7), m=(8,), gammas=(5.0,))
        rows = mc.sweep(spec)
        costs = [r["beta_code"] for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_m_sweep_and_infinite_gamma(self):
        spec = mc.SweepSpec(var="m", grid=(4, 8), gammas=(math.inf,), kinds=("fixed",))
        rows = mc.sweep(spec)
        assert [r["epsilon"] for r in rows] == [
            pytest.approx(mc.epsilon_max_fixed(4)),
            pytest.approx(mc.epsilon_max_fixed(8)),
        ]

    def test_csv_output_shape(self):
        spec = mc.SweepSpec(var="gamma", grid=(1.0, 5.0), m=(4,), kinds=("fixed",))
        text = mc.sweep_to_csv(mc.sweep(spec))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(SWEEP_COLUMNS)
        assert len(parsed) == 3
        assert float(parsed[1][2]) == 1.0

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            mc.SweepSpec(var="bogus", grid=(1.0,))
        with pytest.raises(ValidationError):
            mc.SweepSpec(var="n", grid=(1.5,))
        with pytest.raises(ValidationError):
            mc.SweepSpec(var="gamma", grid=())
        with pytest.raises(ValidationError):
            mc.SweepSpec(var="gamma", grid=(1.0,), kinds=("huffman",))

    def test_single_m_sweeps_refuse_several_m(self):
        # "n" and "dp" sweeps run at one symbol count; extra ones would be
        # dropped without a word
        for var in ("n", "dp"):
            with pytest.raises(ValidationError):
                mc.SweepSpec(var=var, grid=(3, 4), m=(8, 16))
        assert mc.SweepSpec(var="gamma", grid=(1.0,), m=(8, 16)).m == (8, 16)


class TestGrids:
    def test_log_grid_endpoints_and_growth(self):
        grid = log_grid(1.0, 100.0, 25)
        assert grid[0] == 1.0
        assert grid[-1] == 100.0
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_lin_grid(self):
        assert lin_grid(0.0, 1.0, 5) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            log_grid(0.0, 10.0, 5)
        with pytest.raises(ValidationError):
            lin_grid(1.0, 1.0, 5)
