import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from hwip.errors import CapabilityError, CapacityError
from hwip.experiments import (
    InequalityConstants,
    _first_passage_exceed_probability,
    _ks_distance_to_normal,
    _ks_distance_two_sample,
    _m_statistics,
    certify_dyadic_lemma,
    certify_martingale_inequality,
    certify_mw_inequality,
    estimate_variance_constant,
    fdd_convergence_test,
    holder_norm_distribution_ks,
    holder_tightness_diagnostic,
    nontightness_event_probability,
    nontightness_experiment,
    renewal_identity_check,
    wilson_interval,
)
from hwip.models import (
    coboundary_model,
    gaussian_contrast_model,
    iid_model,
    mds_model,
    renewal_model,
    renewal_variance_constant,
    sample_renewal_path,
)


class TestConstants:
    def test_K_p_formula(self):
        c = InequalityConstants(p=3.0, K_of_PT=2.0)
        assert c.K_p == pytest.approx(2.0 ** (1 / 3 - 0.5) + math.sqrt(2.0) * 4.0, rel=1e-14)
        assert c.C_p_mode == "unknown_ratio_report"

    def test_validation(self):
        with pytest.raises(ValueError):
            InequalityConstants(p=2.0)
        with pytest.raises(ValueError):
            InequalityConstants(p=3.0, K_of_PT=0.5)


class TestWilson:
    def test_interval_contains_phat(self):
        lo, hi = wilson_interval(80, 100)
        assert lo < 0.8 < hi
        assert 0.71 < lo < 0.73 and 0.86 < hi < 0.88

    def test_edge_cases(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0


class TestDyadicLemmaCertificate:
    def test_mixed_models_pass(self):
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]
        rep = certify_dyadic_lemma(models, paths_per_model=60, n_max=128, p=2.5, seed=7)
        assert rep.passed
        assert rep.stats["violations"] == 0
        assert rep.stats["worst_slack"] > 0.0

    def test_zero_model_has_zero_slack(self):
        rep = certify_dyadic_lemma([iid_model("normal", scale=0.0)], 3, 8, 3.0, seed=1)
        assert rep.passed
        assert rep.stats["worst_slack"] == 0.0

    def test_budget_guard(self):
        with pytest.raises(CapacityError):
            certify_dyadic_lemma([iid_model("normal")], 1, 8192, 3.0, seed=1)

    def test_report_is_deterministic(self):
        models = [mds_model("rademacher")]
        a = certify_dyadic_lemma(models, 20, 64, 3.0, seed=3).to_json()
        b = certify_dyadic_lemma(models, 20, 64, 3.0, seed=3).to_json()
        assert a == b


class TestMartingaleInequality:
    def test_rejects_non_mds(self):
        model = coboundary_model([0.5], "rademacher", mds_part=1.0)
        with pytest.raises(CapabilityError):
            certify_martingale_inequality(model, 4.0, [16, 32], 10, seed=1)

    def test_zero_increment_degenerates(self):
        rep = certify_martingale_inequality(
            iid_model("normal", scale=0.0), 4.0, [16, 32], 20, seed=1
        )
        assert rep.passed
        assert all(pp["ratio"] == 0.0 for pp in rep.per_point)

    def test_gaussian_vs_rademacher_same_order(self):
        grid = [64, 256]
        a = certify_martingale_inequality(mds_model("rademacher"), 4.0, grid, 300, seed=5)
        b = certify_martingale_inequality(iid_model("normal"), 4.0, grid, 300, seed=5)
        for pa, pb in zip(a.per_point, b.per_point):
            assert 0.5 < pa["ratio"] / pb["ratio"] < 2.0

    def test_replicate_csv_rows(self):
        rep = certify_martingale_inequality(mds_model("rademacher"), 4.0, [16], 5, seed=2)
        assert rep.replicate_columns == ("n", "replicate", "holder_max")
        assert len(rep.replicate_rows) == 5


class TestMwInequality:
    def test_mds_bracket_collapses(self):
        p = 4.0
        rep = certify_mw_inequality(mds_model("rademacher"), "adapted", p, [64, 256], 200, seed=9)
        c = InequalityConstants(p=p)
        for pp in rep.per_point:
            r = math.ceil(math.log2(pp["n"] + 1))
            expected = 1.0 + c.K_p * sum(2.0 ** (-0.5 * j) for j in range(r))
            assert pp["bracket"] == pytest.approx(expected, rel=1e-12)
        assert rep.passed

    def test_collapse_consistency_with_martingale_run(self):
        # same model, seed and grid: identical left-hand statistics
        model = mds_model("rademacher")
        grid = [32, 64]
        a = certify_martingale_inequality(model, 4.0, grid, 50, seed=33)
        b = certify_mw_inequality(model, "adapted", 4.0, grid, 50, seed=33)
        for pa, pb in zip(a.per_point, b.per_point):
            assert pa["weak_lp_root"] == pb["weak_lp_root"]

    def test_renewal_adapted_bounded(self):
        rep = certify_mw_inequality(renewal_model(3.0, 4), "adapted", 3.0, [64, 256, 1024], 200, seed=11)
        assert rep.passed
        assert rep.stats["max_ratio"] <= 1.0

    def test_coboundary_ratio_decays(self):
        # telescoping keeps M(n) bounded, so the ratio falls like n^(-1/p)
        model = coboundary_model([0.8, -0.3], "rademacher", mds_part=None, direction="backward")
        rep = certify_mw_inequality(model, "adapted", 3.0, [64, 256, 1024], 200, seed=13)
        ratios = [pp["ratio"] for pp in rep.per_point]
        assert ratios[-1] < ratios[0]
        assert rep.stats["slope"] < -0.15

    def test_chain_nonadapted_capability_error(self):
        with pytest.raises(CapabilityError):
            certify_mw_inequality(renewal_model(3.0, 4), "nonadapted", 3.0, [16], 5, seed=1)


class TestVarianceConstant:
    def test_iid_unit_variance(self):
        eta, se = estimate_variance_constant(iid_model("normal"), 2048, 600, seed=15)
        assert abs(eta - 1.0) <= 3 * se

    def test_coboundary_only_vanishes(self):
        model = coboundary_model([0.7], "rademacher", mds_part=None)
        eta_small, _ = estimate_variance_constant(model, 64, 400, seed=16)
        eta_big, _ = estimate_variance_constant(model, 1024, 400, seed=16)
        # telescoping: Var(S_n) bounded, so the estimate decays like 1/n
        assert eta_big < eta_small
        assert eta_big <= 4.0 * (2 * 0.7) ** 2 / 1024

    def test_renewal_matches_regeneration_formula(self, chain_spec):
        eta, se = estimate_variance_constant(renewal_model(3.0, 4), 8192, 600, seed=17)
        exact = renewal_variance_constant(chain_spec)
        assert abs(eta - exact) <= 5 * se + 0.02 * exact  # small-n bias allowance


def _sample(rng, kind: str, n: int) -> np.ndarray:
    if kind == "integer":  # forces ties, within and across samples
        return rng.integers(-3, 4, size=n).astype(float)
    if kind == "constant":
        return np.full(n, float(rng.integers(-1, 2)))
    return rng.standard_normal(n) * float(rng.uniform(0.1, 10.0))


kind_st = st.sampled_from(["integer", "constant", "gaussian"])
size_st = st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=3000))
seed_st = st.integers(min_value=0, max_value=2**32 - 1)


class TestKsStatistics:
    """Both KS helpers equal scipy's statistics bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(kind_st, size_st, st.floats(min_value=0.05, max_value=20.0), seed_st)
    @example("gaussian", 1, 1.0, 0)
    @example("integer", 1, 0.5, 1)
    def test_one_sample_matches_kstest(self, kind, n, scale, seed):
        values = _sample(np.random.default_rng(seed), kind, n)
        expected = sstats.kstest(values, "norm", args=(0.0, scale)).statistic
        assert _ks_distance_to_normal(values, scale) == float(expected)

    @pytest.mark.filterwarnings("ignore:ks_2samp")  # scipy's p-value, not its statistic
    @settings(max_examples=200, deadline=None)
    @given(kind_st, kind_st, size_st, size_st, seed_st)
    @example("gaussian", "gaussian", 1, 1, 0)
    @example("integer", "integer", 1, 3000, 1)
    @example("integer", "gaussian", 2999, 3000, 2)
    def test_two_sample_matches_ks_2samp(self, kind1, kind2, n1, n2, seed):
        rng = np.random.default_rng(seed)
        a, b = _sample(rng, kind1, n1), _sample(rng, kind2, n2)
        expected = sstats.ks_2samp(a, b).statistic
        assert _ks_distance_two_sample(a, b) == float(expected)

    def test_two_sample_is_exact_rational(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.5, 1.0, 1.0, 3.0, 4.0, 5.0, 6.0])
        # largest ECDF gap at x = 2: 1 - 3/7 = 12/21 in units of 1/lcm(3, 7)
        assert _ks_distance_two_sample(a, b) == 12 / 21
        assert _ks_distance_two_sample(b, b.copy()) == 0.0


class TestFddConvergence:
    def test_iid_normal_exact_gaussian(self):
        rep = fdd_convergence_test(iid_model("normal"), 256, 1500, [0.25, 0.5, 1.0], seed=19)
        assert all(ks < 0.05 for _, ks in rep.fdd)
        assert abs(rep.eta_hat - 1.0) <= 3 * rep.eta_stderr

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fdd_convergence_test(iid_model("normal"), 16, 10, [0.0, 0.5], seed=1)

    def test_holder_ks_between_sizes_small(self):
        ks = holder_norm_distribution_ks(mds_model("rademacher"), 4.0, 256, 512, 400, seed=20)
        assert 0.0 <= ks <= 0.15

    def test_report_json_fields(self):
        rep = fdd_convergence_test(iid_model("normal"), 64, 50, [1.0], seed=21)
        doc = json.loads(rep.to_json())
        assert {"model", "n", "replicates", "eta_hat", "fdd", "seed"} <= set(doc)


class TestTightnessDiagnostic:
    def test_zero_process_all_zero(self):
        rep = holder_tightness_diagnostic(
            iid_model("normal", scale=0.0), 4.0, [64, 128], 50, [0.5, 0.25, 0.125], 0.1, seed=23
        )
        assert all(pp["probability"] == 0.0 for pp in rep.per_point)

    def test_gaussian_is_tightness_consistent(self, chain_spec):
        model = gaussian_contrast_model(chain_spec)
        eps = chain_spec.pi0 / (2.0 * 2.0 ** (1.0 / 3.0))
        rep = holder_tightness_diagnostic(
            model, 3.0, [2048, 4096], 200, [0.25, 0.03125, 0.00390625, 0.00048828125], eps, seed=24
        )
        assert rep.verdict == "tightness-consistent"
        sups = rep.stats["sup_probability_by_delta"]
        assert sups["0.00048828125"] < sups["0.25"]

    def test_renewal_chain_non_tight_at_excursion_scale(self, chain_spec):
        model = renewal_model(3.0, 4)
        eps = chain_spec.pi0 / (2.0 * 2.0 ** (1.0 / 3.0))
        rep = holder_tightness_diagnostic(
            model, 3.0, [129], 300, [0.2, 0.1, 0.06], eps, seed=25
        )
        assert rep.verdict == "non-tight evidence"
        assert min(rep.stats["sup_probability_by_delta"].values()) >= 0.2

    def test_delta_grid_validation(self):
        with pytest.raises(ValueError):
            holder_tightness_diagnostic(iid_model("normal"), 3.0, [16], 5, [0.1, 0.5], 0.1, seed=1)

    def test_exceedance_monotone_in_delta_per_run(self):
        # nested events on common paths: probabilities exactly nonincreasing
        # as delta shrinks for each fixed n
        rep = holder_tightness_diagnostic(
            iid_model("normal"), 3.0, [256, 512], 150, [0.5, 0.25, 0.125, 0.0625], 0.55, seed=26
        )
        for n in (256, 512):
            probs = [pp["probability"] for pp in rep.per_point if pp["n"] == n]
            assert all(a >= b for a, b in zip(probs, probs[1:]))
            assert 0.0 < probs[0] <= 1.0


class TestFirstPassage:
    def test_exact_convolution_small(self, chain_spec):
        # P(T_n > K n) by direct enumeration for tiny n
        out = _first_passage_exceed_probability(chain_spec, 2, 2)
        probs = chain_spec.return_probs
        exact = 0.0
        for v1, q1 in probs.items():
            for v2, q2 in probs.items():
                if v1 + v2 > 4:
                    exact += q1 * q2
        assert out["method"] == "exact_convolution"
        assert out["value"] == pytest.approx(exact, rel=1e-12)

    def test_chebyshev_kicks_in_for_large_n(self, chain_spec):
        out = _first_passage_exceed_probability(chain_spec, 1 << 13, 2)
        assert out["method"] == "chebyshev_bound"
        var_tau = chain_spec.tau_moment(2.0) - chain_spec.mean_tau ** 2
        assert out["value"] == pytest.approx(var_tau / ((1 << 13) * (2 - chain_spec.mean_tau) ** 2))

    def test_event_probability_depth4(self, chain_spec):
        # at the top excursion level only tau = 131 triggers the event
        n = math.floor(131 ** 2.5)
        mu = nontightness_event_probability(chain_spec, n, 2, 1e-3)
        assert mu == pytest.approx(chain_spec.return_probs[131], rel=1e-14)


class TestNontightness:
    def test_toy_level_reproduces_bound(self, chain_spec):
        rep = nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.1, replicates=150, seed=5)
        assert rep.passed
        assert rep.stats["n"] == 129
        assert rep.stats["theoretical_lower_bound"] == pytest.approx(0.886, abs=0.01)
        assert rep.stats["empirical_probability"] >= 0.8
        lo, hi = rep.stats["wilson_ci"]
        assert lo <= rep.stats["empirical_probability"] <= hi

    def test_gaussian_contrast_plumbing(self, chain_spec):
        # the <= 0.1 contrast statement is a full-scale (j = depth, small
        # delta) property checked in the acceptance suite; at toy scale the
        # window fraction is too coarse for any process to sit below the
        # threshold, so only the mechanics are asserted here
        rep = nontightness_experiment(
            chain_spec, K=2, j_level=3, delta=0.1, replicates=40, seed=5, process="gaussian"
        )
        sigma = math.sqrt(renewal_variance_constant(chain_spec))
        assert rep.stats["sigma_contrast"] == pytest.approx(sigma, rel=1e-14)
        assert "theoretical_lower_bound" not in rep.stats
        assert rep.verdict == "contrast run"

    def test_K_must_exceed_mean_return(self, chain_spec):
        with pytest.raises(ValueError, match="K must exceed"):
            nontightness_experiment(chain_spec, K=1, j_level=3, delta=0.1, replicates=5, seed=1)

    def test_delta_floor(self, chain_spec):
        with pytest.raises(ValueError, match="delta too small"):
            nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.01, replicates=5, seed=1)

    def test_step_budget(self, chain_spec):
        with pytest.raises(CapacityError, match="simulated steps"):
            nontightness_experiment(chain_spec, K=2, j_level=4, delta=1e-3, replicates=10 ** 7, seed=1)

    def test_report_reproducible(self, chain_spec):
        a = nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.1, replicates=40, seed=6)
        b = nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.1, replicates=40, seed=6)
        assert a.to_json() == b.to_json()


class TestRenewalIdentity:
    def test_sampled_paths_pass(self, chain_spec):
        for seed in range(5):
            states, inc = sample_renewal_path(chain_spec, 5000, seed)
            out = renewal_identity_check(states, inc, chain_spec.pi0)
            assert out["passed"], out

    def test_first_return_from_zero(self, chain_spec):
        states, inc = sample_renewal_path(chain_spec, 400, 3, start_state=0)
        t1 = int(np.nonzero(states[1:] == 0)[0][0]) + 1
        s_t1 = float(np.sum(inc[:t1]))
        assert s_t1 == pytest.approx(1 - chain_spec.pi0 * t1, abs=1e-10)

    def test_requires_regeneration(self, chain_spec):
        states = np.array([130, 129, 128])
        inc = chain_spec.g(states[1:])
        with pytest.raises(ValueError):
            renewal_identity_check(states, inc, chain_spec.pi0)


class TestSharedStatistics:
    def test_m_statistics_prefix_consistency(self):
        # statistics at smaller n are computed on prefixes of the same paths
        model = mds_model("rademacher")
        both = _m_statistics(model, 4.0, [16, 64], 30, seed=29)
        only_small = _m_statistics(model, 4.0, [16], 30, seed=29)
        np.testing.assert_array_equal(both[16], only_small[16])
