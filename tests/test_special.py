"""The Cephes ports in ``hwip._special`` against SciPy, bit for bit, on
grids that reach every branch of each function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from hwip import _special

SQRT2 = math.sqrt(2.0)


def same_bits(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def around(*points):
    """Each point and its two neighbouring doubles."""
    x = np.array(points, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def both_signs(lo, hi, count=20001):
    x = np.linspace(lo, hi, count)
    return np.concatenate([x, -x])


# ndtr(a) evaluates at x = a sqrt(1/2): erf where |x| < sqrt(1/2), 1 - erf
# on [sqrt(1/2), 1), the P/Q ratio on [1, 8), the R/S ratio from 8 on, and 0
# (or 1) once exp(-x^2) would underflow, past |a| = sqrt(2 MAXLOG) = 37.7.
NDTR_BRANCHES = {
    "erf": both_signs(0.0, np.nextafter(1.0, 0.0)),
    "one_minus_erf": both_signs(1.0, np.nextafter(SQRT2, 0.0)),
    "P/Q": both_signs(SQRT2, np.nextafter(8 * SQRT2, 0.0)),
    "R/S": both_signs(8 * SQRT2, 37.6),
    "underflow": both_signs(37.6, 40.0, 2001),
    "edges": np.concatenate([
        around(1.0, SQRT2, 8 * SQRT2, math.sqrt(2 * 7.09782712893383996843e2)),
        -around(1.0, SQRT2, 8 * SQRT2, math.sqrt(2 * 7.09782712893383996843e2)),
        [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300],
    ]),
}


@pytest.mark.parametrize("branch", NDTR_BRANCHES)
def test_ndtr_is_scipy_bit_for_bit(branch):
    a = NDTR_BRANCHES[branch]
    assert same_bits(_special.ndtr(a), special.ndtr(a))


def test_ndtr_grid_straddles_the_underflow_cut():
    assert _special.ndtr(-37.6) > 0.0 and _special.ndtr(-37.7) == 0.0


def test_ndtr_of_zero_and_nan():
    assert _special.ndtr(0.0) == 0.5 and _special.ndtr(-0.0) == 0.5
    assert math.isnan(_special.ndtr(np.nan))
    assert np.shape(_special.ndtr(0.3)) == () and _special.ndtr([0.3]).shape == (1,)


# gammaln(x): Gamma's recurrence onto [2, 3) below 13 (an integer lands on
# 2 and returns log(z) alone), the A series on [13, 1000), a two-term
# series on [1000, 1e8), the bare Stirling terms above 1e8, and infinity
# past MAXLGM.
_rng = np.random.default_rng(20)
GAMMALN_BRANCHES = {
    "integers": np.arange(2.0, 200.0),
    "below_13": np.concatenate([_rng.uniform(0.0, 13.0, 20000), [1e-300, 5e-324, 1e-8, 0.5, 1.0, 3.0]]),
    "13_to_1000": np.concatenate([_rng.uniform(13.0, 1000.0, 20000), around(13.0)]),
    "1000_to_1e8": np.exp(_rng.uniform(math.log(1000.0), math.log(1e8), 20000)),
    "above_1e8": np.exp(_rng.uniform(math.log(1e8), 700.0, 20000)),
    "edges": np.concatenate([around(1000.0, 1e8, 2.556348e305), [1e308, np.inf]]),
    # The half-integers and their neighbours gaussian_abs_moment evaluates.
    "moments": 0.5 * (np.linspace(0.01, 100.0, 20010) + 1.0),
}


@pytest.mark.parametrize("branch", GAMMALN_BRANCHES)
def test_gammaln_is_scipy_bit_for_bit(branch):
    x = GAMMALN_BRANCHES[branch]
    assert same_bits([_special.gammaln(v) for v in x.tolist()], special.gammaln(x))


@pytest.mark.parametrize("x", [0.0, -1.0, np.nan])
def test_gammaln_rejects_nonpositive(x):
    with pytest.raises(ValueError, match="x must be > 0"):
        _special.gammaln(x)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_ndtr_property(a):
    assert same_bits(_special.ndtr(a), special.ndtr(a))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True))
def test_gammaln_property(x):
    assert same_bits(_special.gammaln(x), special.gammaln(x))
