import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hwip.holder as holder
from hwip.holder import (
    _BASE,
    PolygonalPath,
    _block_bounds,
    _block_size,
    _extrema_pyramid,
    _lag_segments,
    dyadic_lower,
    dyadic_upper,
    holder_max_exact,
    holder_max_windowed,
    holder_norm_of_path,
    pairwise_coarsen,
    windowed_max_batch,
    windowed_maxima,
)

from conftest import (
    brute_force_dyadic_lower,
    brute_force_pair_max,
    dense_windowed_maxima,
    grid_modulus,
)

increments_st = arrays(
    np.float64,
    st.integers(min_value=1, max_value=48),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
)
alpha_st = st.floats(min_value=0.05, max_value=0.45)


@st.composite
def sums_batch_st(draw, max_rows=3, max_n=40):
    """Partial sums (rows, n + 1) from +-1 or integer increments (which force
    ties), float increments or a constant increment (a linear or constant
    path)."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["sign", "integer", "float", "constant"]))
    if kind == "sign":
        elements = st.sampled_from([-1.0, 1.0])
    elif kind == "integer":
        elements = st.integers(min_value=-2, max_value=2).map(float)
    elif kind == "float":
        elements = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)
    else:
        elements = st.just(float(draw(st.integers(min_value=-1, max_value=1))))
    h = draw(arrays(np.float64, (rows, n), elements=elements))
    return np.concatenate([np.zeros((rows, 1)), np.cumsum(h, axis=1)], axis=1)


@st.composite
def long_sums_st(draw, max_rows=3, max_n=600):
    """Partial sums (rows, n + 1) of up to ``max_n`` steps, generated from a
    drawn seed: +-1, integer, Gaussian, constant, or sparse large jumps on a
    small drift (the shape of renewal paths)."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["sign", "integer", "gaussian", "constant", "jumps"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "sign":
        h = rng.choice([-1.0, 1.0], size=(rows, n))
    elif kind == "integer":
        h = rng.integers(-3, 4, size=(rows, n)).astype(float)
    elif kind == "gaussian":
        h = rng.standard_normal((rows, n))
    elif kind == "constant":
        h = np.full((rows, n), float(rng.integers(-1, 2)))
    else:
        h = np.where(rng.random((rows, n)) < 0.02, 40.0 * rng.standard_normal((rows, n)), -0.1)
    return np.concatenate([np.zeros((rows, 1)), np.cumsum(h, axis=1)], axis=1)


#: Windows at, below and above the powers of two: the lag-class edges and
#: block sizes of the sweep.
edge_window_st = st.sampled_from(sorted({2**k + e for k in range(11) for e in (-1, 0, 1)} - {0}))


def windows_st(n):
    return st.lists(
        st.one_of(st.integers(min_value=1, max_value=n + 2), edge_window_st), min_size=1, max_size=3
    )


def path_of(*sums):
    return PolygonalPath(np.asarray(sums, dtype=float))


class TestPolygonalPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolygonalPath(np.array([1.0, 2.0]))  # S_0 != 0
        with pytest.raises(ValueError):
            PolygonalPath(np.array([0.0]))  # n = 0
        with pytest.raises(ValueError):
            PolygonalPath(np.array([0.0, np.nan]))

    def test_from_increments(self):
        p = PolygonalPath.from_increments([1.0, -2.0, 0.5])
        assert p.n == 3
        np.testing.assert_allclose(p.partial_sums, [0.0, 1.0, -1.0, -0.5])
        np.testing.assert_allclose(p.increments, [1.0, -2.0, 0.5])


class TestExactMax:
    def test_constant_path_is_zero(self):
        assert holder_max_exact(path_of(0, 0, 0), 0.3) == 0.0

    def test_single_increment(self):
        assert holder_max_exact(path_of(0.0, 1.0), 0.25) == 1.0

    def test_zigzag(self):
        # candidates: 1 at (0,1), 2 at (1,2), 1/2^0.25 at (0,2)
        assert holder_max_exact(path_of(0.0, 1.0, -1.0), 0.25) == 2.0

    def test_one_path_functions_return_python_floats(self):
        path = path_of(0.0, 1.0, -1.0, 0.5)
        for value in (
            holder_max_exact(path, 0.25),
            holder_max_windowed(path, 0.25, 2),
            dyadic_upper(path.increments, 0.25),
            dyadic_lower(path, 0.25),
        ):
            assert type(value) is float

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            holder_max_exact(path_of(0, 1), 1.0)

    @settings(max_examples=150, deadline=None)
    @given(increments_st, alpha_st)
    def test_matches_brute_force(self, h, alpha):
        p = PolygonalPath.from_increments(h)
        assert holder_max_exact(p, alpha) == pytest.approx(
            brute_force_pair_max(p.partial_sums, alpha), rel=1e-13, abs=1e-13
        )

    @settings(max_examples=60, deadline=None)
    @given(increments_st, alpha_st, st.integers(min_value=0, max_value=10))
    def test_scale_equivariance_exact_for_pow2(self, h, alpha, k):
        lam = 2.0 ** (k - 5)
        v1 = holder_max_exact(PolygonalPath.from_increments(h), alpha)
        # power-of-two scaling commutes with IEEE ops in the normal range;
        # subnormal underflow is the one genuine exception
        assume(v1 == 0.0 or v1 >= 1e-280)
        v2 = holder_max_exact(PolygonalPath.from_increments(lam * h), alpha)
        assert v2 == lam * v1


class TestWindowed:
    def test_full_window_equals_exact(self):
        rng = np.random.default_rng(1)
        p = PolygonalPath.from_increments(rng.standard_normal(65))
        a = 0.2
        assert holder_max_windowed(p, a, p.n) == holder_max_exact(p, a)

    def test_lag_one_zigzag(self):
        assert holder_max_windowed(path_of(0.0, 1.0, -1.0), 0.25, 1) == 2.0

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            holder_max_windowed(path_of(0, 1), 0.25, 0)

    @settings(max_examples=80, deadline=None)
    @given(increments_st, alpha_st, st.data())
    def test_matches_brute_force_and_monotone(self, h, alpha, data):
        p = PolygonalPath.from_increments(h)
        lag = data.draw(st.integers(min_value=1, max_value=p.n))
        v = holder_max_windowed(p, alpha, lag)
        assert v == pytest.approx(brute_force_pair_max(p.partial_sums, alpha, lag), rel=1e-13)
        if lag < p.n:
            assert v <= holder_max_windowed(p, alpha, lag + 1) + 1e-15

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((7, 33))
        s = np.concatenate([np.zeros((7, 1)), np.cumsum(h, axis=1)], axis=1)
        batch = windowed_max_batch(s, 0.3, 12)
        for r in range(7):
            assert batch[r] == pytest.approx(
                holder_max_windowed(PolygonalPath(s[r]), 0.3, 12), rel=1e-14
            )


class TestLagProfile:
    """The one lag sweep, ``windowed_maxima``, against the brute-force and
    dense per-lag oracles."""

    @settings(max_examples=120, deadline=None)
    @given(sums_batch_st(), alpha_st, st.data())
    def test_running_max_reads_every_window(self, s, alpha, data):
        windows = data.draw(windows_st(s.shape[1] - 1))
        maxima = windowed_maxima(s, alpha, windows)
        np.testing.assert_array_equal(maxima, dense_windowed_maxima(s, alpha, windows))
        for w, row in zip(windows, maxima):
            np.testing.assert_array_equal(row, windowed_max_batch(s, alpha, w))
            for r in range(s.shape[0]):
                assert row[r] == brute_force_pair_max(s[r], alpha, w)

    @settings(max_examples=60, deadline=None)
    @given(long_sums_st(), alpha_st, st.data())
    def test_long_paths_match_dense_sweep(self, s, alpha, data):
        windows = data.draw(windows_st(s.shape[1] - 1))
        np.testing.assert_array_equal(
            windowed_maxima(s, alpha, windows), dense_windowed_maxima(s, alpha, windows)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(sums_batch_st(max_rows=1), long_sums_st(max_rows=1, max_n=300)),
        alpha_st,
        st.data(),
    )
    def test_single_path_is_one_sweep(self, s, alpha, data):
        # One path's maxima are one windowed_maxima call, which builds one
        # extrema pyramid, at windows below n and at n or above.
        lag = data.draw(st.one_of(st.integers(min_value=1, max_value=s.shape[1]), edge_window_st))
        path = PolygonalPath(s[0])
        want = windowed_max_batch(s, alpha, lag)[0]
        want_exact = windowed_max_batch(s, alpha, path.n)[0]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("windowed_maxima", "_extrema_pyramid"):

                def spy(*args, fn=getattr(holder, name), name=name):
                    calls.append(name)
                    return fn(*args)

                mp.setattr(holder, name, spy)
            stat = holder_max_windowed(path, alpha, lag)
            assert sorted(calls) == ["_extrema_pyramid", "windowed_maxima"]
            calls.clear()
            exact = holder_max_exact(path, alpha)
            assert sorted(calls) == ["_extrema_pyramid", "windowed_maxima"]
        assert stat.hex() == want.hex()
        assert stat == brute_force_pair_max(s[0], alpha, lag)
        assert exact.hex() == want_exact.hex()

    @settings(max_examples=40, deadline=None)
    @given(long_sums_st(max_n=400), alpha_st, st.sampled_from([16, 48, 100, 1 << 16]))
    def test_block_bounds_cover_their_pairs(self, s, alpha, span):
        # The pruning premise: in every lag segment, a start block's bound
        # is at least the quotient of each of its pairs, whatever the
        # column spans the pyramid was built in.
        n = s.shape[1] - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holder, "_SPAN", span)
            pyramid = _extrema_pyramid(s, _block_size(n))
        for lo, hi, level in _lag_segments(1, n):
            size = _BASE << level
            bound = _block_bounds(pyramid, level, lo, n, alpha)
            for d in range(lo, hi + 1):
                q = np.abs(s[:, d:] - s[:, :-d]) / d ** alpha
                blocks = -(-q.shape[1] // size)
                padded = np.zeros((s.shape[0], blocks * size))
                padded[:, : q.shape[1]] = q
                exact = padded.reshape(s.shape[0], blocks, size).max(axis=2)
                assert np.all(bound[:, :blocks] >= exact)

    def test_ties_at_the_bound_are_kept(self):
        # On a zigzag every block bound at lag 1 equals the maximum 1; a
        # bound equal to the maximum must be scanned.
        s = np.tile([0.0, 1.0], 50)[None, :]
        assert windowed_maxima(s, 0.25, [99])[0, 0] == 1.0
        assert holder_max_windowed(PolygonalPath(s[0]), 0.25, 99) == 1.0

    @pytest.mark.parametrize("process", ["renewal", "gaussian"])
    def test_large_paths_bit_identical(self, process, chain_spec):
        from hwip.models import sample_renewal_path
        from hwip.rng import substream

        s = np.zeros((3, 20001))
        for r in range(3):
            rng = substream(11, r)
            if process == "renewal":
                h = sample_renewal_path(chain_spec, 20000, rng)[1]
            else:
                h = rng.standard_normal(20000)
            s[r, 1:] = np.cumsum(h)
        np.testing.assert_array_equal(
            windowed_maxima(s, 1 / 6, [196]), dense_windowed_maxima(s, 1 / 6, [196])
        )

    @pytest.mark.parametrize("alpha", [1 / 6, 0.25, 0.2, 0.3])
    def test_scales_nondecreasing(self, alpha):
        # The premise of the pruning: a bound divided by lo**alpha is at
        # least every quotient at a lag d >= lo.
        scales = np.array([d ** alpha for d in range(1, 392833)])
        assert np.all(np.diff(scales) >= 0)

    def test_profile_stops_at_envelope(self):
        # One jump of 1 at the first step: lag 1 attains 1, and from lag 2
        # on the envelope 1 / d**alpha is below it in the only row.
        s = np.array([[0.0, 1.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(windowed_maxima(s, 0.25, [4, 1, 2]), [[1.0], [1.0], [1.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            windowed_maxima(np.zeros(5), 0.25, [2])
        with pytest.raises(ValueError):
            windowed_maxima(np.zeros((2, 1)), 0.25, [1])
        with pytest.raises(ValueError):
            windowed_maxima(np.zeros((2, 3)), 0.25, [0])
        with pytest.raises(ValueError):
            windowed_maxima(np.zeros((2, 3)), 0.25, [])
        with pytest.raises(ValueError):
            windowed_maxima(np.array([[0.0, np.nan, 1.0]]), 0.25, [1])
        with pytest.raises(ValueError):
            windowed_max_batch(np.array([[0.0, 1.0, np.inf]]), 0.25, 2)


@st.composite
def floor_sums_st(draw, max_rows=4, max_n=300):
    """Partial sums (rows, n + 1), n = 1 and odd lengths included, each row
    of its own kind: a walk turned so that its first maximum comes before
    its first minimum, a constant row (argmin = argmax = 0), a walk of
    steps in {-1, 0, 1} (tied minima and maxima), a Gaussian walk, or a
    rise then fall whose plateaus tie the maximum."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 5, 17, 33, 255]), st.integers(1, max_n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = np.arange(n + 1)
    s = np.zeros((rows, n + 1))
    for r in range(rows):
        kind = draw(st.sampled_from(["max_first", "constant", "ties", "gaussian", "plateau"]))
        if kind in ("max_first", "gaussian"):
            s[r, 1:] = np.cumsum(rng.standard_normal(n))
            if kind == "max_first" and s[r].argmax() > s[r].argmin():
                s[r] = -s[r]
        elif kind == "ties":
            s[r, 1:] = np.cumsum(rng.integers(-1, 2, size=n))
        elif kind == "plateau":
            top, fall = sorted(rng.integers(0, n + 1, size=2))
            s[r] = np.minimum(t, top) - np.maximum(t - fall, 0)
    return s


class TestRangeFloor:
    """A window that covers the whole path starts from the quotient of the
    range pair (argmin S, argmax S), which the sweep then only raises."""

    @settings(max_examples=150, deadline=None)
    @given(floor_sums_st(), alpha_st, st.data())
    def test_full_window_matches_brute_force(self, s, alpha, data):
        n = s.shape[1] - 1
        windows = data.draw(
            st.lists(st.integers(min_value=n, max_value=n + 3) | edge_window_st, min_size=1, max_size=3)
        )
        maxima = windowed_maxima(s, alpha, windows)
        np.testing.assert_array_equal(maxima, dense_windowed_maxima(s, alpha, windows))
        for w, row in zip(windows, maxima):
            for r in range(s.shape[0]):
                assert row[r] == brute_force_pair_max(s[r], alpha, w)

    @settings(max_examples=60, deadline=None)
    @given(floor_sums_st(), alpha_st)
    def test_floor_is_the_range_pair_quotient(self, s, alpha):
        osc = s.max(axis=1) - s.min(axis=1)
        floor = holder._range_floor(s, osc, alpha)
        for r, row in enumerate(s):
            i, j = sorted((int(row.argmin()), int(row.argmax())))
            assert floor[r] == (abs(row[j] - row[i]) / (j - i) ** alpha if j > i else 0.0)
            assert floor[r] <= brute_force_pair_max(row, alpha)

    def test_max_before_min(self):
        # Up 3, then down 5: the range pair (3, 8) has lag 5 and attains
        # the maximum 5 / 5**alpha, which no shorter lag reaches.
        s = np.concatenate([[0.0], np.cumsum([1.0] * 3 + [-1.0] * 5)])[None, :]
        assert windowed_maxima(s, 0.25, [8])[0, 0] == 5 / 5**0.25

    def test_only_full_windows_build_the_floor(self):
        s = drift_and_noise(6, 257, seed=5)
        floor, calls = holder._range_floor, []

        def spy(*args):
            calls.append(args)
            return floor(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holder, "_range_floor", spy)
            windowed_maxima(s, 0.25, [1, 37, 256])
            assert calls == []
            windowed_maxima(s, 0.25, [37, 257, 300])
            assert len(calls) == 1


@st.composite
def many_rows_st(draw, min_rows=20, max_rows=40, max_n=300):
    """Partial sums of ``min_rows`` to ``max_rows`` rows, each its own kind
    (as in ``long_sums_st``, plus a drift, whose maxima sit at long lags):
    enough start blocks survive per segment to reach the lag-by-lag layout,
    and the rows' different maxima leave the others to the block layout."""
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = rng.integers(0, 6, size=rows)
    h = np.empty((rows, n))
    for r, kind in enumerate(kinds):
        if kind == 0:
            h[r] = rng.choice([-1.0, 1.0], size=n)
        elif kind == 1:
            h[r] = rng.integers(-3, 4, size=n)
        elif kind == 2:
            h[r] = rng.standard_normal(n)
        elif kind == 3:
            h[r] = float(rng.integers(-1, 2))
        elif kind == 4:
            h[r] = np.where(rng.random(n) < 0.02, 40.0 * rng.standard_normal(n), -0.1)
        else:
            h[r] = 1.0 + 0.1 * rng.standard_normal(n)
    return np.concatenate([np.zeros((rows, 1)), np.cumsum(h, axis=1)], axis=1)


def drift_and_noise(rows, n, seed):
    """Half the rows a random walk, half a drift with noise: the drifting
    rows keep their long-lag blocks, the others prune them."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((rows, n))
    h[::2] += 1.0
    return np.concatenate([np.zeros((rows, 1)), np.cumsum(h, axis=1)], axis=1)


class TestBlockScan:
    """The exact scan of the surviving start blocks, ``_block_maxima``: per
    chunk of blocks, the ends at every lag are one (lags, starts, blocks)
    view, taken in groups of lags of about ``_CHUNK // 4`` differences."""

    @staticmethod
    def lag_groups(mp):
        """Record, per chunk of blocks, the shape of the view of its ends and
        the number of lags in each group taken from it."""
        chunks = []
        real = holder.sliding_window_view

        class Ends:
            def __init__(self, view):
                self.view = view

            def transpose(self, *axes):
                view = self.view.transpose(*axes)
                chunks.append((view.shape, []))
                return Ends(view)

            def __getitem__(self, key):
                group = self.view[key]
                chunks[-1][1].append(len(group))
                return group

        mp.setattr(holder, "sliding_window_view", lambda *a, **k: Ends(real(*a, **k)))
        return chunks

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(many_rows_st(), long_sums_st(max_rows=1, max_n=400)),
        alpha_st,
        st.sampled_from([16, 40, 100]),
        st.data(),
    )
    def test_small_chunks_match_dense_sweep(self, s, alpha, chunk, data):
        # Chunks of at most a few blocks, so each segment's scan crosses
        # chunk boundaries, one lag at a time.
        windows = data.draw(windows_st(s.shape[1] - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holder, "_CHUNK", chunk)
            got = windowed_maxima(s, alpha, windows)
        np.testing.assert_array_equal(got, dense_windowed_maxima(s, alpha, windows))

    def test_lag_groups_match_dense_sweep(self):
        # The segment of lags 576..599 keeps 12 blocks of 64 starts.  By
        # _CHUNK: one block per chunk, in groups of 1 lag; one chunk, in
        # groups of 5, 5, 5, 5 and 4 lags; one chunk and one group of all 24.
        s = drift_and_noise(24, 600, seed=3)
        for chunk, expected in (
            (40, [((24, 64, 1), [1] * 24)] * 12),
            (1 << 14, [((24, 64, 12), [5, 5, 5, 5, 4])]),
            (1 << 18, [((24, 64, 12), [24])]),
        ):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(holder, "_CHUNK", chunk)
                chunks = self.lag_groups(mp)
                got = windowed_maxima(s, 0.25, [600, 37])
            assert [c for c in chunks if c[0][:2] == (24, 64)] == expected
            np.testing.assert_array_equal(got, dense_windowed_maxima(s, 0.25, [600, 37]))

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4095, 4096])
    def test_full_window_large_blocks(self, n):
        # Segments of up to 256 lags with blocks of up to 256 starts, in a
        # pyramid up to 512, which otherwise only the acceptance criteria's
        # full windows reach.
        s = drift_and_noise(12, n, seed=n)
        np.testing.assert_array_equal(
            windowed_maxima(s, 1 / 6, [n]), dense_windowed_maxima(s, 1 / 6, [n])
        )
        np.testing.assert_array_equal(
            windowed_maxima(s[1:2], 1 / 6, [n]), dense_windowed_maxima(s[1:2], 1 / 6, [n])
        )

    def test_tie_at_a_long_lag_is_found(self):
        # Flat for 100 steps, up by 1 for 1024, down by 1 for 1024: the
        # maximum 1024 ** (1 - alpha) is attained at lag 1024 by (100, 1124)
        # and (1124, 2148), and by no shorter lag.
        h = np.concatenate([np.zeros(100), np.ones(1024), -np.ones(1024)])
        path = PolygonalPath.from_increments(h)
        alpha = 0.25
        assert holder_max_windowed(path, alpha, 1100) == 1024 / 1024**alpha


class TestSpans:
    """A row longer than ``_SPAN`` sums is reduced to its extrema pyramid,
    and swept densely, one column span at a time: the same values as one
    span, with temporaries bounded by the span, not by the row."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(long_sums_st(max_rows=1), many_rows_st()),
        alpha_st,
        st.sampled_from([16, 48, 100]),
        st.data(),
    )
    def test_small_spans_match_dense_sweep(self, s, alpha, span, data):
        n = s.shape[1] - 1
        windows = data.draw(windows_st(n)) + [n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holder, "_SPAN", span)
            got = windowed_maxima(s, alpha, windows)
        np.testing.assert_array_equal(got, dense_windowed_maxima(s, alpha, windows))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(floor_sums_st(max_n=600), long_sums_st(max_n=600)),
        st.sampled_from([16, 48, 100]),
        st.data(),
    )
    def test_pyramid_is_the_one_span_pyramid(self, s, span, data):
        # floor_sums_st draws n = 1, odd lengths and constant rows; the top
        # block runs from one block of _BASE to past the row.
        top = _block_size(data.draw(st.integers(min_value=1, max_value=2 * s.shape[1])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holder, "_SPAN", s.shape[1])
            whole = _extrema_pyramid(s, top)
            mp.setattr(holder, "_SPAN", span)
            spans = _extrema_pyramid(s, top)
        assert len(spans) == len(whole)
        for level, want in zip(spans, whole):
            for got, expected in zip(level, want):
                np.testing.assert_array_equal(got, expected)

    def test_memory_holds_a_span_not_the_row(self):
        # One row of 2^20 + 1 sums (8 MiB) at the headline window: the
        # pyramid's halvings and the dense sweep of the top lag each hold
        # one span, so the traced peak stays well below a row.
        rng = np.random.default_rng(6)
        s = np.zeros((1, (1 << 20) + 1))
        np.cumsum(rng.standard_normal(1 << 20), out=s[0, 1:])
        row = s.nbytes
        tracemalloc.start()
        try:
            windowed_maxima(s, 1 / 6, [196])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * row


class TestFloor:
    """A row swept in pieces passes the maximum of its earlier pieces as the
    floor: the sweep starts its running maximum there, prunes from it, and
    returns the larger of the floor and the maxima."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(long_sums_st(), many_rows_st(), floor_sums_st()),
        alpha_st,
        st.sampled_from([16, 48, 100, 1 << 16]),
        st.data(),
    )
    def test_floor_or_maxima_bit_for_bit(self, s, alpha, span, data):
        n = s.shape[1] - 1
        windows = data.draw(windows_st(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holder, "_SPAN", span)
            plain = windowed_maxima(s, alpha, windows)
            # per row: 0, or below, at or above its maximum over the windows
            top = plain.max(axis=0)
            levels = {"zero": 0.0 * top, "below": 0.5 * top, "equal": top, "above": 2.0 * top + 1.0}
            kinds = data.draw(st.lists(st.sampled_from(sorted(levels)), min_size=len(top), max_size=len(top)))
            floor = np.array([levels[k][r] for r, k in enumerate(kinds)])
            if data.draw(st.booleans()):
                floor = float(floor[0])  # one floor for every row
            got = windowed_maxima(s, alpha, windows, floor)
        assert got.tobytes() == np.maximum(floor, plain).tobytes()

    def test_a_floor_above_the_row_prunes_every_block(self):
        # Nothing reaches a floor above the row's maximum: the sweep scans
        # its top lag densely, and no other lag or start block.
        rng = np.random.default_rng(2)
        s = np.zeros((1, 4097))
        np.cumsum(rng.standard_normal(4096), out=s[0, 1:])
        top = windowed_maxima(s, 0.25, [196])[0, 0]
        scans = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_dense_maxima", "_block_maxima"):
                def spy(*args, fn=getattr(holder, name), name=name):
                    scans.append(name)
                    return fn(*args)

                mp.setattr(holder, name, spy)
            assert windowed_maxima(s, 0.25, [196], 2 * top)[0, 0] == 2 * top
        assert scans == ["_dense_maxima"]


class TestNormalizedStatistics:
    def test_vertex_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = PolygonalPath.from_increments(rng.standard_normal(rng.integers(1, 80)))
            alpha = rng.uniform(0.05, 0.45)
            lhs = p.n ** alpha * holder_norm_of_path(p, alpha)
            assert lhs == pytest.approx(holder_max_exact(p, alpha), rel=1e-12)

    def test_zero_path_norm(self):
        assert holder_norm_of_path(path_of(0, 0, 0, 0), 0.25) == 0.0

    def test_zigzag_norm_p4(self):
        # n = 2, alpha = 1/4: norm = 2^(-1/4) * 2
        assert holder_norm_of_path(path_of(0.0, 1.0, -1.0), 0.25) == pytest.approx(
            2.0 ** (-0.25) * 2.0, rel=1e-15
        )

    def test_vertex_statistic_below_grid_modulus(self):
        rng = np.random.default_rng(6)
        alpha = 0.25
        for _ in range(25):
            n = int(rng.integers(4, 40))
            p = PolygonalPath.from_increments(rng.standard_normal(n))
            delta = float(rng.uniform(2.0 / n, 1.0))
            window = int(np.floor(n * delta))
            vertex = holder_max_windowed(p, alpha, max(window, 1))
            dense = grid_modulus(p, alpha, per_step=8, window_steps=window)
            assert vertex <= dense + 1e-9 * max(dense, 1.0)


class TestDyadicBounds:
    def test_upper_single_increment(self):
        assert dyadic_upper([3.0], 0.25) == 18.0  # 6 |x|

    def test_upper_zero(self):
        assert dyadic_upper(np.zeros(9), 0.25) == 0.0

    def test_lower_zigzag_equals_exact(self):
        assert dyadic_lower(path_of(0.0, 1.0, -1.0), 0.25) == 2.0

    def test_lower_zero_path(self):
        assert dyadic_lower(path_of(0, 0, 0), 0.25) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(floor_sums_st(max_rows=1), sums_batch_st(max_rows=1)), alpha_st)
    def test_lower_matches_pair_loop(self, s, alpha):
        # n = 1, odd lengths, constant, tied and float paths
        assert dyadic_lower(PolygonalPath(s[0]), alpha).hex() == brute_force_dyadic_lower(s[0], alpha).hex()

    def test_pairwise_coarsen_drops_trailing(self):
        np.testing.assert_array_equal(pairwise_coarsen(np.array([1.0, 2.0, 5.0])), [3.0])

    @settings(max_examples=150, deadline=None)
    @given(increments_st, alpha_st)
    def test_sandwich(self, h, alpha):
        p = PolygonalPath.from_increments(h)
        exact = holder_max_exact(p, alpha)
        lower = dyadic_lower(p, alpha)
        upper = dyadic_upper(h, alpha)
        assert lower <= exact * (1 + 1e-12) + 1e-15
        assert exact <= upper * (1 + 1e-12) + 1e-15

    @settings(max_examples=150, deadline=None)
    @given(increments_st, alpha_st)
    def test_recursion_certificate(self, h, alpha):
        # M(n, h) <= 6 max|h| + 2^(-alpha) M(n//2, coarsened), exact both sides
        p = PolygonalPath.from_increments(h)
        lhs = holder_max_exact(p, alpha)
        rhs = 6.0 * float(np.max(np.abs(h)))
        if h.size >= 2:
            q = PolygonalPath.from_increments(pairwise_coarsen(h))
            rhs += 2.0 ** (-alpha) * holder_max_exact(q, alpha)
        assert lhs <= rhs * (1 + 1e-9)

    def test_spike_path_dominated_by_max_term(self):
        h = np.zeros(33)
        h[17] = 5.0
        alpha = 1.0 / 6.0
        lhs = holder_max_exact(PolygonalPath.from_increments(h), alpha)
        assert lhs == 5.0
        assert dyadic_upper(h, alpha) >= 30.0
