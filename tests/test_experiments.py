import contextlib
import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

import hwip.experiments as experiments
from hwip.config import ConfigError
from hwip.experiments import (
    _K_p,
    _bracket_first_term,
    _first_passage_exceed_probability,
    _ks_distance_to_normal,
    _ks_distance_two_sample,
    _m_statistics,
    certify_dyadic_lemma,
    certify_martingale_inequality,
    certify_mw_inequality,
    fdd_convergence_test,
    holder_norm_distribution_ks,
    holder_tightness_diagnostic,
    nontightness_event_probability,
    nontightness_experiment,
    renewal_identity_check,
    wilson_interval,
)
from hwip.holder import windowed_max_batch, windowed_maxima
from hwip.models import (
    build_renewal_chain,
    chain_transition,
    coboundary_model,
    gaussian_contrast_model,
    iid_model,
    mds_model,
    renewal_model,
    renewal_variance_constant,
    sample_renewal_path,
)
from hwip.rng import substream

from conftest import lemma_per_point, per_row_batch, stepped_renewal_path


class TestConstants:
    def test_K_p_formula(self):
        # K(P_T) = 2
        assert _K_p(3.0) == pytest.approx(2.0 ** (1 / 3 - 0.5) + math.sqrt(2.0) * 4.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="p must exceed 2"):
            _K_p(2.0)
        with pytest.raises(ValueError, match="p must exceed 2"):
            certify_mw_inequality(mds_model("rademacher"), "adapted", 2.0, [16, 32], 5, seed=1)


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

    def test_empty_grid_is_rejected(self):
        # n_max = 1 leaves no dyadic n >= 2 to check: no vacuous pass
        with pytest.raises(ValueError, match="n_max"):
            certify_dyadic_lemma([iid_model("normal")], 2, 1, 3.0, seed=1)

    def test_budget_guard(self):
        with pytest.raises(ConfigError, match="^n_max:"):
            certify_dyadic_lemma([iid_model("normal")], 1, 8192, 3.0, seed=1)

    @pytest.mark.parametrize("seed", [7, 2**63 + 5])
    def test_stacked_models_equal_separate_runs(self, seed):
        # The models' paths are swept as one batch; each model's points and
        # the stats must be those of its own run at seed + its index.
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]
        rep = certify_dyadic_lemma(models, 40, 300, 3.0, seed=seed)
        alone = [certify_dyadic_lemma([m], 40, 300, 3.0, seed=seed + k) for k, m in enumerate(models)]
        assert json.dumps(rep.per_point) == json.dumps([q for r in alone for q in r.per_point])
        stats = {
            "worst_slack": min(r.stats["worst_slack"] for r in alone),
            "worst_relative_slack": min(r.stats["worst_relative_slack"] for r in alone),
            "violations": sum(r.stats["violations"] for r in alone),
        }
        assert json.dumps(rep.stats) == json.dumps(stats)

    # Both sides of the lemma at every n are sweeps of prefixes of one
    # chunk's sums; the oracle draws each model's rows alone and sums each
    # prefix afresh.  n_max odd (a trailing increment the pairwise sums
    # drop) and even; chunks of one row (budget 1, and 300 at n_max 257 or
    # 300), of three rows that may span models (1000 at 257 or 300), and
    # of all rows (the default).
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([2, 3, 257, 300]),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 300, 1000, None]),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(300, 5, 1000, 2**64 - 2)
    @example(3, 4, 300, 7)
    def test_per_point_is_the_prefix_oracle(self, n_max, paths, budget, seed):
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(experiments, "_CHUNK_SUMS", budget)
            rep = certify_dyadic_lemma(models, paths, n_max, 3.0, seed)
        expected = lemma_per_point(models, paths, n_max, 3.0, seed)
        assert json.dumps(rep.per_point) == json.dumps(expected)

    def test_no_models_is_rejected(self):
        with pytest.raises(ValueError, match="models"):
            certify_dyadic_lemma([], 2, 8, 3.0, seed=1)

    def test_no_paths_is_rejected(self):
        # Zero paths would pass with infinite slack.
        with pytest.raises(ValueError, match="paths_per_model"):
            certify_dyadic_lemma([iid_model("normal")], 0, 8, 3.0, seed=1)

    def test_chunked_sweeps_equal_one_batch(self, monkeypatch):
        # At 1000 partial sums per chunk, the 120 rows of 200 steps are
        # drawn in 30 chunks of 4 rows, each swept at the 7 n of the grid;
        # the report is the one of a single batch.
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]
        whole = certify_dyadic_lemma(models, 40, 200, 3.0, seed=7).to_json()
        sizes = []

        def sweep(partial_sums, alpha, max_lag):
            sizes.append(partial_sums.size)
            return windowed_max_batch(partial_sums, alpha, max_lag)

        monkeypatch.setattr(experiments, "_CHUNK_SUMS", 1000)
        monkeypatch.setattr(experiments, "windowed_max_batch", sweep)
        assert certify_dyadic_lemma(models, 40, 200, 3.0, seed=7).to_json() == whole
        chunks = len(range(0, 120, 1000 // 201))
        assert len(sizes) == 2 * 7 * chunks and max(sizes) <= 1000

    @pytest.mark.parametrize("budget", [1, 300, 50 * 65])
    def test_chunk_ends_do_not_matter(self, monkeypatch, budget):
        # 3 x 37 rows of 64 steps in chunks of 1, 4 and 50 rows: at 4 and
        # 50 rows, chunks hold the end of one model's rows and the start
        # of the next's.
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]
        whole = certify_dyadic_lemma(models, 37, 64, 3.0, seed=11).to_json()
        monkeypatch.setattr(experiments, "_CHUNK_SUMS", budget)
        assert certify_dyadic_lemma(models, 37, 64, 3.0, seed=11).to_json() == whole

    def test_default_run_is_one_chunk(self, monkeypatch):
        # certify --suite dyadic-lemma's 3 x 200 paths of 256 steps: both
        # sides at each of the 8 n of the grid, one sweep each.
        calls = []

        def sweep(partial_sums, alpha, max_lag):
            calls.append(len(partial_sums))
            return windowed_max_batch(partial_sums, alpha, max_lag)

        monkeypatch.setattr(experiments, "windowed_max_batch", sweep)
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]
        certify_dyadic_lemma(models, 200, 256, 3.0, seed=7)
        assert calls == [600] * 16

    def test_memory_holds_a_chunk_not_the_paths(self, monkeypatch):
        # At 2^14 sums a chunk (128 KB, 252 rows of 64 steps), 3 x 2000
        # paths (2.9 MB of increments, all held at once before the chunks)
        # peak less than two chunks above 3 x 500 paths: the chunk, its
        # sweeps and the samplers' blocks do not grow with the paths.
        monkeypatch.setattr(experiments, "_CHUNK_SUMS", 1 << 14)
        models = [iid_model("normal"), mds_model("rademacher", 0.5), renewal_model(3.0, 4)]

        def peak(paths):
            tracemalloc.start()
            try:
                certify_dyadic_lemma(models, paths, 64, 3.0, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) - peak(500) < 2 * 8 * (1 << 14)

    def test_report_is_deterministic(self):
        models = [mds_model("rademacher")]
        a = certify_dyadic_lemma(models, 20, 64, 3.0, seed=3).to_json()
        b = certify_dyadic_lemma(models, 20, 64, 3.0, seed=3).to_json()
        assert a == b


class TestMartingaleInequality:
    def test_rejects_non_mds(self):
        model = coboundary_model([0.5], "rademacher", mds_part=1.0)
        with pytest.raises(ConfigError, match="^model:"):
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
        rep = certify_martingale_inequality(mds_model("rademacher"), 4.0, [16, 32], 5, seed=2)
        assert rep.replicate_columns == ("n", "replicate", "holder_max")
        assert len(rep.replicate_rows) == 10

    @pytest.mark.parametrize("grid", [[64], [64, 64], [256, 64, 64]])
    def test_slope_grid_needs_two_distinct_n(self, grid):
        model = mds_model("rademacher")
        with pytest.raises(ValueError, match="n_grid"):
            certify_martingale_inequality(model, 4.0, grid, 5, seed=2)
        with pytest.raises(ValueError, match="n_grid"):
            certify_mw_inequality(model, "adapted", 4.0, grid, 5, seed=2)


class TestMwInequality:
    def test_mds_bracket_collapses(self):
        p = 4.0
        rep = certify_mw_inequality(mds_model("rademacher"), "adapted", p, [64, 256], 200, seed=9)
        assert rep.stats["K_p"] == _K_p(p)
        for pp in rep.per_point:
            r = math.ceil(math.log2(pp["n"] + 1))
            expected = 1.0 + _K_p(p) * sum(2.0 ** (-0.5 * j) for j in range(r))
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
        with pytest.raises(ConfigError, match="^variant:"):
            certify_mw_inequality(renewal_model(3.0, 4), "nonadapted", 3.0, [16], 5, seed=1)

    @pytest.mark.parametrize(
        "model", [renewal_model(3.0, 4), iid_model("rademacher")], ids=["chain", "uncentered"]
    )
    def test_variant_refused_before_sampling(self, monkeypatch, model):
        def spy(*args, **kwargs):
            raise AssertionError("sampled before the variant was checked")

        monkeypatch.setattr(experiments, "_m_statistics", spy)
        with pytest.raises(ConfigError, match="^variant:"):
            certify_mw_inequality(model, "nonadapted", 3.0, [16, 32], 5, seed=1)

    def test_n_grid_refused_before_sampling(self, monkeypatch):
        # n = 2^23 takes the bracket's norm terms to level 23, a DP table
        # of 2^23 - 1 entries, above the budget of 2^22
        def spy(*args, **kwargs):
            raise AssertionError("sampled before n_grid was checked")

        monkeypatch.setattr(experiments, "_m_statistics", spy)
        with pytest.raises(ConfigError, match="^n_grid:"):
            certify_mw_inequality(renewal_model(3.0, 4), "adapted", 3.0, [64, 1 << 23], 1, seed=1)

    def test_n_grid_at_the_dp_budget_is_taken(self, monkeypatch):
        # n = 2^23 - 1 takes the norm terms to level 22, 2^22 - 1 entries
        class Reached(Exception):
            pass

        def spy(model, variant, p, J):
            raise Reached(J)

        monkeypatch.setattr(experiments, "mw_norm", spy)
        with pytest.raises(Reached, match="^22$"):
            certify_mw_inequality(renewal_model(3.0, 4), "adapted", 3.0, [64, (1 << 23) - 1], 1, seed=1)

    @pytest.mark.parametrize(
        "p, depth",
        # depth 5 at p = 4 has 10^9 states, past the chain's budget
        [(p, depth) for p in (2.5, 3.0, 4.0) for depth in (2, 3, 4, 5) if (p, depth) != (4.0, 5)],
    )
    def test_chain_bracket_is_the_per_state_sum(self, p, depth):
        # The sum over every state the bracket's first term once took: a
        # state m >= 1 adds pi(m) |g(m - 1) - (P g)(m)|^p = 0.0, which leaves
        # the float as it is.
        spec = build_renewal_chain(p, depth)
        g = spec.g_vector()
        pg = chain_transition(spec, g)
        total = 0.0
        for m_prev in range(spec.n_states):
            w = spec.pi[m_prev]
            if w == 0.0:
                continue
            if m_prev >= 1:
                total += w * abs(g[m_prev - 1] - pg[m_prev]) ** p
            else:
                for u_j, q in zip(spec.u, spec.tau_probs):
                    total += w * q * abs(g[u_j - 1] - pg[0]) ** p
        want = float(total ** (1.0 / p))
        got = _bracket_first_term(renewal_model(p, depth), "adapted", p)
        assert got.hex() == want.hex()


def _eta(model, n, replicates, seed):
    """Var(S_n) / n and its normal-theory standard error, as the fdd run
    estimates them."""
    rep = fdd_convergence_test(model, n, replicates, [1.0], seed)
    return rep["eta_hat"], rep["eta_stderr"]


class TestVarianceConstant:
    def test_iid_unit_variance(self):
        eta, se = _eta(iid_model("normal"), 2048, 600, seed=15)
        assert abs(eta - 1.0) <= 3 * se

    def test_coboundary_only_vanishes(self):
        model = coboundary_model([0.7], "rademacher", mds_part=None)
        eta_small, _ = _eta(model, 64, 400, seed=16)
        eta_big, _ = _eta(model, 1024, 400, seed=16)
        # telescoping: Var(S_n) bounded, so the estimate decays like 1/n
        assert eta_big < eta_small
        assert eta_big <= 4.0 * (2 * 0.7) ** 2 / 1024

    def test_renewal_matches_regeneration_formula(self, chain_spec):
        eta, se = _eta(renewal_model(3.0, 4), 8192, 600, seed=17)
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
        assert all(ks < 0.05 for _, ks in rep["fdd"])
        assert abs(rep["eta_hat"] - 1.0) <= 3 * rep["eta_stderr"]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fdd_convergence_test(iid_model("normal"), 16, 10, [0.0, 0.5], seed=1)

    def test_holder_ks_between_sizes_small(self):
        ks = holder_norm_distribution_ks(mds_model("rademacher"), 4.0, 256, 512, 400, seed=20)
        assert 0.0 <= ks <= 0.15

    def test_report_json_fields(self):
        rep = fdd_convergence_test(iid_model("normal"), 64, 50, [1.0], seed=21)
        doc = json.loads(json.dumps(rep))
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
        (rep,) = nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.1, replicates=150, seed=5)
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
        chain, rep = nontightness_experiment(
            chain_spec, K=2, j_level=3, delta=0.1, replicates=40, seed=5, contrast=True
        )
        assert chain.config["process"] == "renewal" and rep.config["process"] == "gaussian"
        sigma = math.sqrt(renewal_variance_constant(chain_spec))
        assert rep.stats["sigma_contrast"] == pytest.approx(sigma, rel=1e-14)
        assert "theoretical_lower_bound" not in rep.stats
        assert rep.verdict == "contrast run"

    def test_K_must_exceed_mean_return(self, chain_spec):
        with pytest.raises(ConfigError, match="^K: got 1, but K must exceed"):
            nontightness_experiment(chain_spec, K=1, j_level=3, delta=0.1, replicates=5, seed=1)

    def test_delta_floor(self, chain_spec):
        with pytest.raises(ConfigError, match="^delta: too small at j = 3"):
            nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.01, replicates=5, seed=1)

    def test_step_budget(self, chain_spec):
        with pytest.raises(ConfigError, match="^replicates:.*simulated steps"):
            nontightness_experiment(chain_spec, K=2, j_level=4, delta=1e-3, replicates=10 ** 7, seed=1)

    @pytest.mark.parametrize("process", ["renewal", "gaussian"])
    @pytest.mark.parametrize("seed", [5, 2**63 + 1])
    def test_replicates_match_per_replicate_oracle(self, chain_spec, process, seed):
        # 11 replicates, each on the next free worker: a stream skipped or
        # reused between replicates moves a value.
        _assert_matches_oracle(chain_spec, process, seed)

    @pytest.mark.parametrize("process", ["renewal", "gaussian"])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_values_do_not_depend_on_cpus(self, chain_spec, monkeypatch, process, cpus):
        # One worker, and three workers for 11 replicates (more threads than
        # the host may have cores, switching often), give the oracle's bits:
        # two workers sharing a buffer or a walk would not.  So do rows of
        # 258 steps at window 12 walked in spans of 48 steps (_ROW_SPAN 1
        # gives 4 windows), 64, whose last span of 2 steps is shorter than
        # the window carried over, 197, or one span (1000).
        _on_cpus(monkeypatch, cpus)
        with _switching_often():
            for span in (1, 64, 197, 1000):
                _assert_matches_oracle(chain_spec, process, 5, span)

    def test_long_rows_on_three_workers(self, chain_spec, monkeypatch):
        # Headline-length chain rows (392832 steps, about 18 blocks each, in
        # 3 spans), three at a time: each worker walks its blocks and spans
        # in its own arrays.  The reference is one sample_model call per
        # row, whose rows are the stepped chain's bit for bit
        # (test_models.py), drawn on one thread.
        _on_cpus(monkeypatch, 3)
        (rep,) = nontightness_experiment(
            chain_spec, K=2, j_level=4, delta=1e-3, replicates=6, seed=5
        )
        length, window = rep.stats["path_length"], rep.stats["window"]
        s = np.zeros((6, length + 1))
        s[:, 1:] = np.cumsum(per_row_batch(renewal_model(3.0, 4), length, 6, 5), axis=1)
        values = float(length) ** (-1.0 / 3.0) * windowed_max_batch(s, 0.5 - 1.0 / 3.0, window)
        assert [v for _, v, _ in rep.replicate_rows] == values.tolist()

    def test_workers_call_no_public_function(self, chain_spec, monkeypatch):
        # Each replicate is drawn and swept on a worker thread, through the
        # private windowed_maxima on its one row: the public windowed_max_batch,
        # which tracing wraps, is never called.
        batches, sweeps, draws = [], [], []

        def batch(*args):
            batches.append(threading.get_ident())
            return windowed_max_batch(*args)

        def sweep(partial_sums, *args):
            sweeps.append((threading.get_ident(), partial_sums.shape[0]))
            return windowed_maxima(partial_sums, *args)

        def stream(seed, r):
            draws.append(threading.get_ident())
            return substream(seed, r)

        _on_cpus(monkeypatch, 3)
        monkeypatch.setattr(experiments, "windowed_max_batch", batch)
        monkeypatch.setattr(experiments, "windowed_maxima", sweep)
        monkeypatch.setattr(experiments, "substream", stream)
        nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.1, replicates=11, seed=5)
        caller = threading.get_ident()
        assert batches == []
        assert len(sweeps) == 11 and all(rows == 1 and ident != caller for ident, rows in sweeps)
        assert len(draws) == 11 and caller not in draws

    def test_memory_holds_a_few_rows(self, chain_spec, monkeypatch):
        # Headline-shape chain rows (392833 partial sums, 3.1 MB) on two
        # workers: each holds one span of 2^17 sums and a window, and its
        # sweep's temporaries are bounded by a column span, so the traced
        # peak stays below 2.25 rows (3.0-3.2 when each worker held a whole
        # row), and 16 replicates peak at most one row above 8.  The peak
        # moves with how the two workers' sweeps overlap, so 8 replicates
        # are run three times and read at their highest.
        _on_cpus(monkeypatch, 2)
        row = 8 * 392833

        eight = max(_traced_peak(chain_spec, 2, 8) for _ in range(3))
        assert eight < 2.25 * row
        assert _traced_peak(chain_spec, 2, 16) < eight + row

    def test_memory_does_not_grow_with_the_row(self, chain_spec, monkeypatch):
        # Rows of 1571328 steps (K = 8) hold the same spans and window as
        # rows of 392832 (K = 2): two replicates peak less than a quarter
        # higher, where a worker holding its whole row peaked 4 times higher
        # (33.7 MB against 8.6 MB).
        _on_cpus(monkeypatch, 2)
        assert _traced_peak(chain_spec, 8, 2) < 1.25 * _traced_peak(chain_spec, 2, 2)

    @pytest.mark.parametrize("process", ["renewal", "gaussian"])
    def test_row_error_propagates(self, chain_spec, monkeypatch, process):
        # Every row from replicate 4 on raises on a worker, inside the
        # chain's walk or, with the contrast, the Gaussian fill too: the run
        # ends with the exception, and nothing waits forever.
        class Broken:
            def random(self, *args, **kwargs):
                raise OverflowError("row")

            standard_normal = random

        _on_cpus(monkeypatch, 2)
        monkeypatch.setattr(
            experiments, "substream", lambda seed, r: Broken() if r >= 4 else substream(seed, r)
        )
        caught = []

        def run():
            try:
                nontightness_experiment(
                    chain_spec, K=2, j_level=3, delta=0.1, replicates=11, seed=5,
                    contrast=process == "gaussian",
                )
            except OverflowError as exc:
                caught.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [str(exc) for exc in caught] == ["row"]

    def test_counts_below_one_rejected(self, chain_spec):
        # replicates=0 used to fail deep inside the loop.
        with pytest.raises(ValueError, match="^replicates must be >= 1"):
            nontightness_experiment(chain_spec, K=2, j_level=3, delta=0.1, replicates=0, seed=1)

    def test_report_reproducible(self, chain_spec):
        run = dict(K=2, j_level=3, delta=0.1, replicates=40, seed=6, contrast=True)
        a, b = nontightness_experiment(chain_spec, **run), nontightness_experiment(chain_spec, **run)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]


def _on_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@contextlib.contextmanager
def _switching_often():
    """Threads switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _traced_peak(spec, K, replicates):
    """The traced peak of a headline-shape run at path length 196416 K."""
    tracemalloc.start()
    try:
        nontightness_experiment(spec, K=K, j_level=4, delta=1e-3, replicates=replicates, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_matches_oracle(spec, process, seed, span=experiments._ROW_SPAN):
    """nontightness_experiment at 11 replicates, rows walked in spans of
    ``span`` steps, against each replicate drawn on its own, the chain by
    stepping it, and scanned alone.  ``process`` "gaussian" reads the
    contrast's report."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_ROW_SPAN", span)
        reports = nontightness_experiment(
            spec, K=2, j_level=3, delta=0.1, replicates=11, seed=seed,
            contrast=process == "gaussian",
        )
    rep = reports[-1]
    assert rep.config["process"] == process
    length, window, threshold = (rep.stats[k] for k in ("path_length", "window", "threshold"))
    alpha = 0.5 - 1.0 / spec.p
    scale = float(length) ** (-1.0 / spec.p)
    sigma = math.sqrt(renewal_variance_constant(spec))
    expected = []
    for r in range(11):
        if process == "renewal":
            _, inc = stepped_renewal_path(spec, length, seed, index=r)
        else:
            inc = sigma * substream(seed, r).standard_normal(length)
        s = np.concatenate([[0.0], np.cumsum(inc)])
        value = scale * windowed_max_batch(s[None, :], alpha, window)[0]
        expected.append((r, float(value), bool(value >= threshold)))
    assert rep.replicate_rows == expected
    assert [v.hex() for _, v, _ in rep.replicate_rows] == [v.hex() for _, v, _ in expected]


class TestRenewalIdentity:
    def test_sampled_paths_pass(self, chain_spec):
        for seed in range(5):
            states, inc = sample_renewal_path(chain_spec, 5000, seed)
            out = renewal_identity_check(states, inc, chain_spec.pi0)
            assert out["passed"], out
            assert out["tol"] == 1e-10

    def test_first_return_from_zero(self, chain_spec):
        # Y_0 = 0 with probability pi_0 = 0.7355; seed 4 starts there.
        states, inc = sample_renewal_path(chain_spec, 400, 4)
        assert states[0] == 0
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


class TestPartialSumChunks:
    """The sampled suites and the dyadic lemma draw their paths through one
    bounded buffer of ``_CHUNK_SUMS`` partial sums; where its chunks end
    must not show."""

    # 37 replicates of 65 sums: 4 rows a chunk at 300 sums (the last chunk
    # holds one row), one row a chunk at 1.
    RUNS = {
        "fdd": lambda: fdd_convergence_test(mds_model("rademacher"), 64, 37, [0.25, 0.5, 1.0], seed=3),
        "martingale": lambda: certify_martingale_inequality(
            mds_model("rademacher"), 4.0, [16, 64], 37, seed=3
        ).to_json(),
        "mw": lambda: certify_mw_inequality(
            renewal_model(3.0, 4), "adapted", 3.0, [16, 64], 37, seed=3
        ).to_json(),
        "tightness": lambda: holder_tightness_diagnostic(
            iid_model("normal"), 3.0, [32, 64], 37, [0.5, 0.25], 0.55, seed=3
        ).to_json(),
    }

    @pytest.mark.parametrize("budget", [300, 1])
    @pytest.mark.parametrize("suite", RUNS)
    def test_chunk_boundaries_do_not_matter(self, monkeypatch, suite, budget):
        whole = self.RUNS[suite]()
        monkeypatch.setattr(experiments, "_CHUNK_SUMS", budget)
        assert self.RUNS[suite]() == whole

    @pytest.mark.parametrize("model", [mds_model("rademacher"), renewal_model(3.0, 4)], ids=lambda m: m.label)
    def test_chunks_sum_the_rows(self, monkeypatch, model):
        monkeypatch.setattr(experiments, "_CHUNK_SUMS", 300)
        expected = np.cumsum(per_row_batch(model, 64, 37, 3), axis=1)
        starts = []
        for start, s in experiments._summed_chunks(model, 64, 37, 3):
            starts.append(start)
            assert not s[:, 0].any()
            np.testing.assert_array_equal(s[:, 1:], expected[start : start + len(s)])
        assert starts == list(range(0, 37, 4))

    def test_fdd_memory_holds_a_few_chunks(self):
        # At n = 2048 a chunk holds 511 rows (8.4 MB).  The increments and
        # partial sums of 4000 whole paths took 131 MB; streamed, the run
        # stays below three chunks, and 4000 replicates peak less than a
        # chunk above 1000.
        chunk = 8 * (experiments._CHUNK_SUMS // 2049) * 2049

        def peak(replicates):
            tracemalloc.start()
            try:
                fdd_convergence_test(mds_model("rademacher"), 2048, replicates, [0.25, 0.5, 1.0], seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        most = peak(4000)
        assert most < 3 * chunk
        assert most < peak(1000) + chunk
