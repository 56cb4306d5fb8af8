import json
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats as sstats

from hwip.config import ConfigError
from hwip.models import (
    NORMAL,
    RADEMACHER,
    ChainOracle,
    LinearFunction,
    ProcessModel,
    TableFunction,
    apply_PT,
    build_renewal_chain,
    build_u_sequence,
    chain_lp_norm,
    chain_transition,
    coboundary_model,
    conditional_sum_oracle,
    gaussian_abs_moment,
    gaussian_contrast_model,
    iid_model,
    linear_process_model,
    mds_model,
    model_from_dict,
    renewal_model,
    renewal_variance_constant,
    sample_batch,
    sample_model,
    sample_renewal_path,
    semigroup_partial_sums,
)
from hwip.models import _BLOCK, _RenewalSampler, _RenewalWalk, _cdf_index, _choice_cdf
from hwip.rng import substream

from conftest import brute_force_partial_sum, mc_conditional_sums, stepped_renewal_path


def test_gaussian_abs_moment_matches_quadrature():
    for p in (2.5, 3.0, 4.0):
        num = integrate.quad(lambda x: abs(x) ** p * sstats.norm.pdf(x), -np.inf, np.inf)[0]
        assert gaussian_abs_moment(p) == pytest.approx(num ** (1 / p), rel=1e-9)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_gaussian_abs_moment_is_scipy_gammaln_bit_for_bit(p):
    from scipy.special import gammaln

    log_m = 0.5 * p * math.log(2.0) + gammaln(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    assert gaussian_abs_moment(p) == math.exp(log_m / p)


def test_rademacher_table_span_is_checked_before_allocating():
    # Two nonzero coefficients 23 innovations apart span a 2^23-entry table.
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^innovation: a rademacher window 23 wide"):
            LinearFunction((-11, 11), (1.0, 1.0)).to_table()
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


class TestUSequence:
    def test_known_values(self):
        assert build_u_sequence(3.0, 2) == (1, 2)
        assert build_u_sequence(3.0, 4) == (1, 2, 7, 131)
        assert build_u_sequence(4.0, 3) == (1, 2, 10)

    def test_growth_invariant_strict(self):
        u = build_u_sequence(2.5, 6)
        for k in range(1, len(u) - 1):
            assert u[k] ** (2.5 / 2 + 1) + 1 < u[k + 1]

    def test_capacity_error_names_level(self):
        with pytest.raises(ConfigError, match="^depth: u_7"):
            build_u_sequence(3.0, 7)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_u_sequence(2.0, 3)
        with pytest.raises(ValueError):
            build_u_sequence(3.0, 1)


class TestRenewalChainSpec:
    def test_constants_depth4(self, chain_spec):
        # frozen against an independent high-precision normalization script
        assert chain_spec.c == pytest.approx(0.7263670466212371, rel=1e-12)
        assert chain_spec.mean_tau == pytest.approx(1.3595843139358748, rel=1e-12)
        assert chain_spec.pi0 == pytest.approx(0.7355189301243772, rel=1e-12)

    @pytest.mark.parametrize(
        "p, depth, reason",
        [(3.0, 6, "u_6 = 17098310972037 states"), (4.0, 5, "u_5 = 1006012010 states"), (4.0, 6, "u_6 exceeds")],
    )
    def test_too_many_states_raise_before_allocating(self, p, depth, reason):
        # p = 3 at depth 6 used to ask NumPy for 124 TiB of per-state arrays.
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^depth: .*{reason}"):
                build_renewal_chain(p, depth)
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()

    def test_constants_depth2(self):
        spec = build_renewal_chain(3.0, 2)
        assert spec.c == pytest.approx(1.0 / (1.0 + 2.0 * 2.0 ** -2.5), rel=1e-14)

    def test_normalization_identities(self, chain_spec):
        assert sum(chain_spec.return_probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert chain_spec.pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert chain_spec.mean_tau == pytest.approx(
            sum(v * q for v, q in chain_spec.return_probs.items()), rel=1e-14
        )

    def test_stationary_tail_formula(self, chain_spec):
        # pi_m = pi_0 * P(tau > m) for m >= 1
        for m in (1, 3, 6, 7, 100, 130):
            tail = sum(q for v, q in chain_spec.return_probs.items() if v > m)
            assert chain_spec.pi[m] == pytest.approx(chain_spec.pi0 * tail, rel=1e-14)

    def test_serialization_carries_derived_constants(self, chain_spec):
        doc = chain_spec.to_dict()
        assert {"c", "pi0", "mean_tau", "u", "return_probs"} <= set(doc)
        assert "pi" not in doc
        rebuilt = build_renewal_chain(doc["p"], doc["depth"])
        assert rebuilt.c == chain_spec.c
        np.testing.assert_array_equal(rebuilt.pi, chain_spec.pi)


class TestRenewalPath:
    def test_deterministic_descent_and_range(self, chain_spec):
        states, inc = sample_renewal_path(chain_spec, 5000, 123)
        assert states.min() >= 0 and states.max() < chain_spec.n_states
        nonzero = states[:-1] >= 1
        np.testing.assert_array_equal(states[1:][nonzero], states[:-1][nonzero] - 1)

    def test_increments_two_point(self, chain_spec):
        _, inc = sample_renewal_path(chain_spec, 2000, 5)
        assert set(np.round(np.unique(inc), 12)) <= {
            round(-chain_spec.pi0, 12),
            round(1 - chain_spec.pi0, 12),
        }

    def test_increments_follow_states(self, chain_spec):
        states, inc = sample_renewal_path(chain_spec, 300, 17)
        np.testing.assert_allclose(inc, (states[1:] == 0) - chain_spec.pi0)

    def test_reproducible_and_start_state(self, chain_spec):
        s1, i1 = sample_renewal_path(chain_spec, 100, 9)
        s2, i2 = sample_renewal_path(chain_spec, 100, 9)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(i1, i2)
        # Y_0 = 0 with probability pi_0 = 0.7355; seed 9 starts there.
        assert s1[0] == 0

    def test_empirical_mean_near_zero(self, chain_spec):
        _, inc = sample_renewal_path(chain_spec, 10 ** 6, 31)
        se = inc.std() / math.sqrt(inc.size)
        assert abs(inc.mean()) <= 3 * se

    def test_length_validation(self, chain_spec):
        with pytest.raises(ValueError):
            sample_renewal_path(chain_spec, 0, 1)


class _FirstUniform(np.random.Generator):
    """``substream(seed)`` whose first ``random()`` returns ``u`` and leaves
    the stream untouched.  The sampler draws Y_0 by that one call, so a
    chosen u starts its chain in a chosen state, and the stream's uniforms
    go to the return times, as the stepped oracle's do when it is given
    that state."""

    def __init__(self, seed, u):
        super().__init__(substream(seed).bit_generator)
        self.first = u

    def random(self, *args, **kwargs):
        if self.first is None:
            return super().random(*args, **kwargs)
        u, self.first = self.first, None
        return u


def _starting_in(spec, start, seed):
    """A generator from which the sampler's chain starts in state ``start``:
    the smallest u that the stationary CDF maps to it."""
    cdf = _choice_cdf(spec.pi / spec.pi.sum())
    return _FirstUniform(seed, float(cdf[start - 1]) if start else 0.0)


def _assert_matches_stepping(spec, length, seed, start_state):
    rng = substream(seed) if start_state is None else _starting_in(spec, start_state, seed)
    states, inc = sample_renewal_path(spec, length, rng)
    ref_states, ref_inc = stepped_renewal_path(spec, length, seed, start_state)
    assert states.dtype == np.int64 and inc.dtype == ref_inc.dtype
    np.testing.assert_array_equal(states, ref_states)
    np.testing.assert_array_equal(inc, ref_inc)
    return ref_states


#: (p, depth) of one chain at each depth from 2 to 6.
_CHAINS_BY_DEPTH = [(4.0, 2), (2.5, 3), (3.0, 4), (2.5, 5), (2.01, 6)]


class TestCdfIndex:
    """The return times are looked up by counting the CDF edges <= u; that
    must be the index ``cdf.searchsorted(u, side="right")`` gives."""

    @staticmethod
    def _count(cdf, u):
        counts = np.empty(u.shape, dtype=np.min_scalar_type(cdf.size))
        return _cdf_index(cdf, u, counts, np.empty(u.shape, dtype=bool))

    # Probability vectors with zero entries, so the CDF has tied edges (and a
    # first edge of 0.0 when p_0 = 0); u is drawn from the edges themselves,
    # their neighbours, 0.0 and arbitrary points of [0, 1).
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.1, 0.25, 0.5, 1.0, 3.0]),
                 min_size=1, max_size=9).filter(any),
        st.data(),
    )
    @example([0.0, 1.0, 0.0], None)
    @example([1.0], None)
    def test_matches_searchsorted(self, probs, data):
        cdf = _choice_cdf(np.array(probs))
        points = [0.0, *cdf, *np.nextafter(cdf, 0.0), *np.nextafter(cdf, 1.0)]
        if data is not None:
            points += data.draw(st.lists(
                st.one_of(st.sampled_from(points), st.floats(0.0, 1.0, exclude_max=True)),
                max_size=20,
            ))
        u = np.array(points)
        np.testing.assert_array_equal(self._count(cdf, u), cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("p, depth", _CHAINS_BY_DEPTH)
    def test_return_time_cdf(self, p, depth):
        cdf = _choice_cdf(build_renewal_chain(p, depth).tau_probs)
        u = np.concatenate([[0.0], cdf, substream(3).random(10000)])
        np.testing.assert_array_equal(self._count(cdf, u), cdf.searchsorted(u, side="right"))


class TestRenewalPathMatchesStepping:
    """sample_renewal_path rebuilds the path from its return gaps; the
    oracle steps the chain one time at a time from the same draws."""

    # (p, depth, length, start, seed); start is None (stationary) or a
    # state, -1 meaning n_states - 1.
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2.5, 3.0, 4.0]),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=2500),
        st.one_of(st.none(), st.integers(min_value=-1, max_value=1200)),
        st.integers(min_value=0, max_value=2**32),
    )
    @example(3.0, 4, 1, None, 0)  # length 1
    @example(3.0, 4, 1, 0, 0)  # length 1 from a return
    @example(3.0, 4, 130, -1, 1)  # ends on the first return; the taus go unused
    @example(3.0, 4, 129, -1, 2)  # n_states - 1 > length: no tau is drawn
    @example(4.0, 3, 9, -1, 2)  # n_states - 1 == length
    @example(3.0, 4, 500, 0, 3)  # starts at 0
    @example(3.0, 2, 300, None, 4)  # depth 2: tau = 1 keeps the chain at 0
    @example(2.5, 2, 1, 1, 5)
    def test_matches_stepping(self, p, depth, length, start, seed):
        spec = build_renewal_chain(p, depth)
        if start is not None:
            start = spec.n_states - 1 if start == -1 else start % spec.n_states
        _assert_matches_stepping(spec, length, seed, start)

    # One chain per depth 2-6; a depth-6 chain needs p near 2 to stay
    # within 2.3M states.  Starts: stationary, 0, the top state of the
    # second-longest excursion (u_{depth-1} - 1) and the top state.
    @pytest.mark.parametrize("p, depth", _CHAINS_BY_DEPTH)
    def test_depths_2_to_6(self, p, depth):
        spec = build_renewal_chain(p, depth)
        for length, start, seed in (
            (1, None, 0), (700, None, 1), (2500, 0, 2),
            (3000, spec.u[-2] - 1, 3), (50, spec.n_states - 1, 4),
        ):
            _assert_matches_stepping(spec, length, seed, start)

    @pytest.mark.parametrize("start", [None, 0, 1, 130, 60001])
    def test_several_blocks(self, start):
        # 60000 steps need about 44000 return times: three blocks of the
        # sampler, one batch of the oracle's.  60001 starts past the end.
        spec = build_renewal_chain(3.0, 5)
        assert _RenewalSampler(spec, 60000).block == _BLOCK < 60000 / spec.mean_tau / 2.5
        _assert_matches_stepping(spec, 60000, 7, start)

    def test_blocks_allocate_nothing(self):
        # Three blocks walked in the walk's arrays allocate no temporaries;
        # one index array per block would take 128 KiB.
        sampler = _RenewalSampler(build_renewal_chain(3.0, 5), 60000)
        out, walk = np.empty(60000), _RenewalWalk(sampler)
        sampler.row(substream(7), out, walk)
        tracemalloc.start()
        try:
            sampler.row(substream(8), out, walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 10

    # Rows filled span after span against the row in one span: spans of a
    # drawn size, or cut just after or just before one of the row's
    # returns, so that it lands on a span's last or first step; blocks of
    # 1 and 7 return times too, so blocks end inside spans and spans
    # inside blocks.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([1, 7, None]),
        st.data(),
    )
    @example(1, 0, None, None)
    @example(2000, 3, 1, None)
    def test_spans_are_the_row(self, chain_spec, length, seed, block, data):
        sampler = _RenewalSampler(chain_spec, length)
        sampler.block = block or sampler.block
        whole, rng = np.empty(length), substream(seed)
        y0, after = sampler.row(rng, whole, _RenewalWalk(sampler))
        following = rng.random()
        returns = np.flatnonzero(whole > 0).tolist()
        cut = data.draw(st.sampled_from(["any", "last", "first"])) if data else "last"
        if not returns:
            span = length
        elif cut == "any":
            span = data.draw(st.integers(min_value=1, max_value=length))
        else:  # the return at step t + 1 is a span's last step, or the next span's first
            t = data.draw(st.sampled_from(returns)) if data else returns[0]
            span = t + 1 if cut == "last" else max(t, 1)
        walk, rng, spans = _RenewalWalk(sampler), substream(seed), np.empty(length)
        assert walk.start(rng) == y0
        for start in range(0, length, span):
            nxt = start + walk.fill(spans[start : start + span])
        assert spans.tobytes() == whole.tobytes()
        assert nxt == after
        assert rng.random() == following

    def test_every_length_up_to_400(self, chain_spec):
        # Every length, so some paths end exactly on a later return too.
        ends_on_return = 0
        for length in range(1, 401):
            states = _assert_matches_stepping(chain_spec, length, 11, None)
            ends_on_return += bool(states[-1] == 0 and length > states[0])
        assert ends_on_return > 0


class TestConditionalSumOracle:
    def test_one_step_values(self, chain_spec):
        table = conditional_sum_oracle(chain_spec, 1)
        assert table[1] == pytest.approx(1 - chain_spec.pi0, rel=1e-14)
        for m in (2, 5, 100):
            assert table[m] == pytest.approx(-chain_spec.pi0, rel=1e-14)

    def test_stationary_average_vanishes(self, chain_spec):
        for n in (1, 3, 16, 64, 257):
            table = conditional_sum_oracle(chain_spec, n)
            assert abs(float(np.dot(chain_spec.pi, table))) < 1e-12 * n

    def test_matches_direct_chain_stepping(self, chain_spec):
        rng = substream(2024, 0)
        n = 16
        for m in (0, 1, 5, 7):
            mc, se = mc_conditional_sums(chain_spec, m, n, 60000, rng)
            table_last = np.array([conditional_sum_oracle(chain_spec, k)[m] for k in range(1, n + 1)])
            # 1e-11 cushion absorbs fp accumulation noise in the deterministic phase
            assert np.all(np.abs(mc - table_last) <= 4 * se + 1e-11)

    def test_budget_error(self, chain_spec):
        with pytest.raises(ConfigError, match="^n:"):
            conditional_sum_oracle(chain_spec, (1 << 22) + 1)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_zero_start_is_the_recurrence_bit_for_bit(self, depth):
        # The class docstring's recurrence, evaluated as written and summed
        # over j in order, against a table extended lazily and one built at once.
        spec = build_renewal_chain(3.0, depth)
        pi0 = spec.pi0
        direct = [0.0]
        for k in range(1, 301):
            direct.append(sum(
                q * ((k >= u) - pi0 * min(u, k) + (k >= u) * direct[k - u if k >= u else 0])
                for u, q in zip(spec.u, spec.tau_probs)
            ))
        lazy = ChainOracle(spec)
        assert lazy.zero_start(10).tobytes() == np.array(direct[:11]).tobytes()
        assert lazy.zero_start(300).tobytes() == np.array(direct).tobytes()
        assert ChainOracle(spec).zero_start(300).tobytes() == np.array(direct).tobytes()


class TestChainOperator:
    def test_transition_of_g(self, chain_spec):
        g = chain_spec.g_vector()
        pg = chain_transition(chain_spec, g)
        assert pg[1] == pytest.approx(1 - chain_spec.pi0, rel=1e-14)
        p1 = chain_spec.return_probs[1]
        assert pg[0] == pytest.approx(p1 - chain_spec.pi0, rel=1e-12)
        # cross-check against the conditional-sum table at n = 1
        np.testing.assert_allclose(pg, conditional_sum_oracle(chain_spec, 1), rtol=1e-13)

    def test_power_bound_contraction(self, chain_spec):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = rng.standard_normal(chain_spec.n_states)
            base = chain_lp_norm(chain_spec, h, 3.0)
            out = h
            for _ in range(8):
                out = chain_transition(chain_spec, out)
                assert chain_lp_norm(chain_spec, out, 3.0) <= base * (1 + 1e-12)

    def test_semigroup_partial_sum_matches_dp(self, chain_spec):
        # V_n g by chain stepping against the regeneration dynamic program
        sums = semigroup_partial_sums(renewal_model(3.0, 4), "adapted", chain_spec.g_vector())
        oracle = ChainOracle(chain_spec)
        for n, direct in enumerate(islice(sums, 33), start=1):
            np.testing.assert_allclose(oracle.v_sum(n), direct, rtol=1e-11, atol=1e-13)


def _bits(h):
    """A window function as comparable exact values."""
    if isinstance(h, TableFunction):
        return ("table", h.lo, h.table.shape, h.table.tobytes())
    return ("linear", h.offsets, h.coeffs)


def _two_sided(coeffs, lo: int, table: bool) -> ProcessModel:
    """Increments sum_i c_i eps_{t+lo+i}: a window reaching into the future
    when lo + len(c) > 1, which only the nonadapted semigroup acts on."""
    fn = LinearFunction(tuple(range(lo, lo + len(coeffs))), coeffs)
    return ProcessModel(
        kind="linear_process",
        label="two_sided",
        innovation=RADEMACHER if table else NORMAL,
        increment_fn=fn.to_table() if table else fn,
    )


_COEFFS = st.lists(
    st.just(0.0) | st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)
_WINDOW_MODELS = st.one_of(
    st.builds(linear_process_model, _COEFFS, st.sampled_from(["normal", "rademacher"])),
    st.builds(mds_model, st.just("rademacher"), st.floats(-0.9, 0.9, allow_nan=False)),
    st.builds(
        coboundary_model,
        _COEFFS,
        st.just("rademacher"),
        st.sampled_from([None, 0.5, 1.0]),
        st.sampled_from(["backward", "forward"]),
    ),
    st.builds(_two_sided, _COEFFS, st.integers(-3, 3), st.booleans()),
)

#: Generator terms checked per model and variant; every window function here
#: is annihilated well before.
_TERMS = 40


class TestSemigroupPartialSums:
    @settings(max_examples=80, deadline=None)
    @given(model=_WINDOW_MODELS)
    def test_matches_brute_force_and_ends_at_nilpotency(self, model):
        f = model.increment_fn
        variants = (["adapted"] if model.has_PT_adapted else []) + ["nonadapted"]
        for variant in variants:
            sums = list(islice(semigroup_partial_sums(model, variant, f), _TERMS))
            # the first n with P^n f = 0, applying P once at a time
            term, ends = f, _TERMS
            for n in range(1, _TERMS + 1):
                term = apply_PT(model, variant, term)
                if term.is_zero:
                    ends = n
                    break
            assert len(sums) == ends  # V_1 .. V_n with n the first P^n f = 0
            for n, v in enumerate(sums, start=1):
                assert _bits(v) == _bits(brute_force_partial_sum(model, variant, f, n))


class TestWindowFunctions:
    def test_table_condexp_and_expectation(self):
        # f = eps_0 * eps_1 -> E[f | <=0] = 0, E[f] = 0
        f = TableFunction(0, np.outer([-1.0, 1.0], [-1.0, 1.0]))
        assert f.condexp_past().is_zero
        # conditioning on no innovation at all gives the constant E[f]
        e = f.shift(1).condexp_past().shift(-1)
        assert e.width == 0 and float(e.table) == 0.0

    def test_table_alignment_add(self):
        f = LinearFunction((0,), (1.0,)).to_table()
        g = LinearFunction((-1,), (2.0,)).to_table()
        h = f + g
        assert (h.lo, h.hi) == (-1, 0)
        # evaluate on all four sign patterns, given as sign bits
        bits = np.array([0, 1, 0, 1, 1])
        eps = 2.0 * bits - 1.0
        vals = h.eval_windows(bits, 4)
        expected = 2.0 * eps[:4] + eps[1:5]
        np.testing.assert_allclose(vals, expected)

    def test_linear_norms(self):
        f = LinearFunction((0, -2), (3.0, 4.0))
        assert f.lp_norm(2.0 + 1e-12, NORMAL) == pytest.approx(
            gaussian_abs_moment(2.0 + 1e-12) * 5.0, rel=1e-9
        )
        # rademacher: exact enumeration through the table route
        t = f.lp_norm(4.0, RADEMACHER)
        patterns = [3 * a + 4 * b for a in (-1, 1) for b in (-1, 1)]
        assert t == pytest.approx((np.mean(np.abs(patterns) ** 4.0)) ** 0.25, rel=1e-13)

    def test_linear_condexp_drops_future(self):
        f = LinearFunction((-1, 0, 1, 2), (1.0, 2.0, 3.0, 4.0))
        past = f.condexp_past()
        assert past.offsets == (-1, 0) and past.coeffs == (1.0, 2.0)


class TestApplyPT:
    def test_mds_killed_by_adapted_semigroup(self):
        for model in (mds_model("rademacher"), mds_model("rademacher", 0.5), iid_model("normal")):
            assert apply_PT(model, "adapted", model.increment_fn).is_zero

    def test_adapted_requires_past_measurable(self):
        model = iid_model("rademacher")
        future = LinearFunction((1,), (1.0,)).to_table()
        with pytest.raises(ConfigError, match="^variant:"):
            apply_PT(model, "adapted", future)

    def test_nonadapted_annihilates_past_measurable(self):
        model = iid_model("rademacher")
        past = LinearFunction((0, -1), (1.0, 0.5)).to_table()
        assert apply_PT(model, "nonadapted", past).is_zero

    def test_nonadapted_nilpotent_and_power_bounded(self):
        model = iid_model("rademacher")
        h = LinearFunction((1, 2, 3), (1.0, -2.0, 0.5)).to_table()
        base = h.lp_norm(3.0, RADEMACHER)
        out = h
        for k in range(1, 4):
            out = apply_PT(model, "nonadapted", out)
            if out.is_zero:
                break
            assert out.lp_norm(3.0, RADEMACHER) <= 2.0 * base * (1 + 1e-9)
        cubed = h
        for _ in range(3):
            cubed = apply_PT(model, "nonadapted", cubed)
        assert cubed.is_zero

    def test_semigroup_law(self):
        # P^2 h = E[h o T^2 | past]: the tower property
        model = iid_model("rademacher")
        h = LinearFunction((-2, -1, 0), (1.0, 2.0, -1.0)).to_table()
        one_by_one = h
        for _ in range(2):
            one_by_one = apply_PT(model, "adapted", one_by_one)
        at_once = h.shift(2).condexp_past()
        assert (one_by_one - at_once).lp_norm(3.0, RADEMACHER) < 1e-14

    def test_power_bound_battery(self):
        # condition item 2: ||P^k h||_p <= 2 ||h||_p on every tested (h, k)
        model = iid_model("rademacher")
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(15):
            past = TableFunction(-2, rng.standard_normal((2, 2, 2)))
            fut = TableFunction(-1, rng.standard_normal((2, 2, 2)))
            fut = fut - fut.condexp_past()
            for variant, h in (("adapted", past), ("nonadapted", fut)):
                base = h.lp_norm(3.0, RADEMACHER)
                if base == 0.0:
                    continue
                out = h
                for _ in range(4):
                    out = apply_PT(model, variant, out)
                    if out.is_zero:
                        break
                    worst = max(worst, out.lp_norm(3.0, RADEMACHER) / base)
        assert worst <= 2.0 + 1e-9

    def test_nonadapted_kills_adapted_part(self):
        model = iid_model("rademacher")
        f = TableFunction(-1, np.arange(16, dtype=float).reshape(2, 2, 2, 2))  # coords -1..2
        assert apply_PT(model, "nonadapted", f.condexp_past()).is_zero

    def test_chain_nonadapted_unsupported(self):
        model = renewal_model(3.0, 4)
        with pytest.raises(ConfigError, match="^variant:"):
            apply_PT(model, "nonadapted", model.chain.g_vector())

    def test_unknown_variant_rejected(self):
        model = iid_model("rademacher")
        with pytest.raises(ConfigError, match=r"^variant: must be one of \('adapted', 'nonadapted'\)"):
            apply_PT(model, "sideways", model.increment_fn)


class TestSampleModel:
    def test_iid_reproducible(self):
        model = iid_model("normal")
        x1 = sample_model(model, 4, 99)
        x2 = sample_model(model, 4, 99)
        np.testing.assert_array_equal(x1, x2)
        assert x1.shape == (4,)

    def test_coboundary_telescopes(self):
        model = coboundary_model([0.7, -0.4], "rademacher", mds_part=None)
        g_sup = 0.7 + 0.4
        inc = sample_model(model, 4096, 12)
        sums = np.cumsum(inc)
        assert np.max(np.abs(sums)) <= 2 * g_sup + 1e-12

    def test_rademacher_mds_fourth_moment(self):
        model = mds_model("rademacher")
        n, reps = 4096, 10000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = sample_model(model, n, substream(77, r)).sum() / math.sqrt(n)
        m4 = np.mean(vals ** 4)
        assert m4 <= 3.0 + 0.3  # Burkholder regime: exact value 3 - 2/n

    def test_linear_process_window(self):
        model = linear_process_model([1.0, 0.5, 0.25], "normal")
        rng = substream(5, 0)
        eps = model.innovation.draw(rng, 10 + 2)
        manual = np.array([eps[t + 2] + 0.5 * eps[t + 1] + 0.25 * eps[t] for t in range(10)])
        np.testing.assert_allclose(sample_model(model, 10, substream(5, 0)), manual, rtol=1e-14)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            linear_process_model([1.0, np.nan])
        with pytest.raises(ValueError):
            coboundary_model([], "rademacher")
        with pytest.raises(ValueError):
            mds_model("rademacher", modulation=1.5)

    @pytest.mark.parametrize(
        "model",
        [
            iid_model("normal"),
            iid_model("uniform"),
            mds_model("rademacher", 0.5),
            coboundary_model([0.6, -0.2], "rademacher"),
            linear_process_model([1.0, -0.5, 0.25], "normal"),
            renewal_model(3.0, 4),
        ],
        ids=lambda m: m.label,
    )
    def test_stationarity_first_vs_later_marginal(self, model):
        reps, k = 10000, 3
        x0 = np.empty(reps)
        xk = np.empty(reps)
        for r in range(reps):
            path = sample_model(model, k + 1, substream(404, r))
            x0[r], xk[r] = path[0], path[k]
        assert sstats.ks_2samp(x0, xk).pvalue > 0.01


_COEFFS = st.lists(st.sampled_from([1.0, -0.5, 0.25, 0.7, -1.3]), min_size=1, max_size=4)
_LAWS = st.sampled_from(["rademacher", "normal", "uniform"])

#: A model document of every kind in MODEL_KINDS: tables of width 1 to 5
#: (rademacher coboundaries and linear processes), linear functions of
#: normal and uniform innovations, and the renewal chain.
_MODEL_DOCS = st.one_of(
    st.builds(
        lambda law, scale: {"kind": "iid", "innovation": law, "scale": scale},
        _LAWS, st.sampled_from([1.0, 0.5, 0.0]),
    ),
    st.builds(
        lambda b: {"kind": "martingale_difference", "modulation": b},
        st.sampled_from([0.0, 0.5, -0.3]),
    ),
    st.builds(
        lambda law: {"kind": "martingale_difference", "innovation": law}, _LAWS
    ),
    st.builds(
        lambda g, law, m, d: {
            "kind": "martingale_plus_coboundary", "g_coeffs": g, "innovation": law,
            "mds_part": m, "direction": d,
        },
        _COEFFS, _LAWS, st.sampled_from([1.0, 0.5, None]), st.sampled_from(["forward", "backward"]),
    ),
    st.builds(
        lambda a, law: {"kind": "linear_process", "coeffs": a, "innovation": law}, _COEFFS, _LAWS
    ),
    st.builds(
        lambda p, depth: {"kind": "renewal_chain", "p": p, "depth": depth},
        st.sampled_from([2.5, 3.0, 4.0]), st.integers(min_value=2, max_value=4),
    ),
)
_SEEDS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 7, 8, 9, 2**63 + 5, 2**64 - 1, -1]),
)


class TestSampleBatch:
    """sample_batch draws every row from one re-keyed Philox; row r must be
    sample_model(model, n, substream(seed, r)) bit for bit."""

    # n from 1 up: the draw counts n + width - 1 take both parities, so a
    # rademacher row may end on half of a 64-bit draw.
    @settings(max_examples=200, deadline=None)
    @given(_MODEL_DOCS, st.integers(min_value=1, max_value=300), st.integers(1, 6), _SEEDS)
    @example({"kind": "iid", "innovation": "rademacher"}, 1, 3, 2**63 + 5)
    @example({"kind": "iid", "innovation": "rademacher"}, 7, 4, 8)
    @example({"kind": "martingale_difference", "modulation": 0.5}, 1, 3, -5)
    @example({"kind": "linear_process", "coeffs": [1.0, 0.5], "innovation": "uniform"}, 1, 3, 9)
    @example({"kind": "renewal_chain"}, 1, 4, 0)
    def test_rows_match_sample_model(self, doc, n, replicates, seed):
        model = model_from_dict(doc)
        batch = sample_batch(model, n, replicates, seed)
        assert batch.shape == (replicates, n) and batch.dtype == np.float64
        for r in range(replicates):
            row = sample_model(model, n, substream(seed, r))
            assert batch[r].tobytes() == row.tobytes(), (doc, n, seed, r)

    @pytest.mark.parametrize("p, depth", _CHAINS_BY_DEPTH)
    def test_renewal_rows_match_stepping(self, p, depth):
        # The oracle draws through Generator.choice; sample_batch looks up
        # the CDFs it computes once.
        spec = build_renewal_chain(p, depth)
        for n, seed in ((1, 3), (129, 2**63 + 1), (1000, -4)):
            batch = sample_batch(renewal_model(p, depth), n, 5, seed)
            for r in range(5):
                _, ref = stepped_renewal_path(spec, n, seed, index=r)
                assert batch[r].tobytes() == ref.tobytes()

    def test_renewal_rows_span_several_blocks(self):
        spec = build_renewal_chain(3.0, 5)
        batch = sample_batch(renewal_model(3.0, 5), 60000, 3, 2**63 + 1)
        for r in range(3):
            _, ref = stepped_renewal_path(spec, 60000, 2**63 + 1, index=r)
            assert batch[r].tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_MODEL_DOCS, st.integers(min_value=1, max_value=400), st.data(), _SEEDS)
    def test_prefix_of_a_longer_batch(self, doc, n, data, seed):
        # A path of length k is the first k steps of the path of length n.
        k = data.draw(st.integers(min_value=1, max_value=n))
        model = model_from_dict(doc)
        np.testing.assert_array_equal(sample_batch(model, n, 3, seed)[:, :k],
                                      sample_batch(model, k, 3, seed))

    def test_rows_cross_chunks(self, monkeypatch):
        # Several chunks of rows, the last one short.
        import hwip.models as models

        monkeypatch.setattr(models, "_CHUNK", 50)
        model = mds_model("rademacher", 0.5)
        batch = sample_batch(model, 17, 11, 4)
        for r in range(11):
            assert batch[r].tobytes() == sample_model(model, 17, substream(4, r)).tobytes()


class TestVarianceConstant:
    def test_renewal_formula_value(self, chain_spec):
        # pi0 * E[(1 - pi0 tau)^2] with exact moments
        second = sum(v * v * q for v, q in chain_spec.return_probs.items())
        expected = chain_spec.pi0 * (
            1 - 2 * chain_spec.pi0 * chain_spec.mean_tau + chain_spec.pi0 ** 2 * second
        )
        assert renewal_variance_constant(chain_spec) == pytest.approx(expected, rel=1e-14)

    def test_contrast_model_matches_eta(self, chain_spec):
        model = gaussian_contrast_model(chain_spec)
        sigma = math.sqrt(renewal_variance_constant(chain_spec))
        assert model.params["scale"] == pytest.approx(sigma, rel=1e-14)
        x = sample_model(model, 200000, 3)
        assert np.std(x) == pytest.approx(sigma, rel=0.02)


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            iid_model("normal", scale=2.0),
            mds_model("rademacher", 0.25),
            coboundary_model([0.5, 0.1], "rademacher", mds_part=0.5),
            linear_process_model([1.0, 0.3], "normal"),
            renewal_model(3.0, 4),
        ],
        ids=lambda m: m.kind,
    )
    def test_roundtrip_preserves_sampling(self, model):
        clone = model_from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(sample_model(model, 50, 8), sample_model(clone, 50, 8))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "bogus"})
