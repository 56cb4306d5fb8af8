"""The normal CDF and log-gamma of the Cephes library, bit for bit.

``scipy.special.ndtr`` and ``scipy.special.gammaln`` evaluate the Cephes
rational approximations (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989).  These ports repeat the same IEEE operations
in the same order, so they return SciPy's values exactly without importing
SciPy.  The polynomials run as Horner steps with a separate multiply and
add each (no fused multiply-add, as in SciPy's compiled code).  The
exponential and the logarithm are libm's, through ``math.exp`` (element by
element) and ``math.log``: ``np.exp`` may use its own SIMD routine, which
differs from libm in the last bit.  ``ndtr`` takes arrays (the fdd suite
evaluates thousands of points); ``gammaln`` takes one float.
"""

from __future__ import annotations

import math

import numpy as np

# erf on |x| < 1: x T(x^2) / U(x^2).
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc on 1 <= x < 8: exp(-x^2) P(x) / Q(x).
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc on x >= 8: exp(-x^2) R(x) / S(x).
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

# lgam on x >= 13: Stirling's series in 1/x^2.
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
# lgam on 2 <= x < 3: x B(x) / C(x).
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)

_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(largest double)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows past this


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: a leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1 (its sign is x's, since x multiplies an even
    ratio)."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_large(x: np.ndarray) -> np.ndarray:
    """Cephes erfc for x >= 1: 0 where exp(-x^2) underflows."""
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):  # -inf, past the cut
        z = -x * x
    live = ~(z < -_MAXLOG)  # NaN stays live and comes out NaN
    x, z = x[live], np.array([math.exp(v) for v in z[live].tolist()], dtype=float)
    mid = x < 8.0
    p = np.where(mid, _polevl(x, _P), _polevl(x, _R))
    q = np.where(mid, _p1evl(x, _Q), _p1evl(x, _S))
    out[live] = (z * p) / q
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, ``scipy.special.ndtr`` bit for bit."""
    a = np.asarray(a, dtype=float)
    x = a * _SQRTH
    z = np.abs(x)
    y = np.empty_like(x)
    small = z < _SQRTH
    y[small] = 0.5 + 0.5 * _erf_small(x[small])
    # erfc(z) for z >= SQRTH: 1 - erf(z) below 1, the P/Q or R/S ratio above.
    big = ~small
    zb = z[big]
    below_one = zb < 1.0
    erfc = np.empty_like(zb)
    erfc[below_one] = 1.0 - _erf_small(zb[below_one])
    erfc[~below_one] = _erfc_large(zb[~below_one])
    yb = 0.5 * erfc
    y[big] = np.where(x[big] > 0, 1.0 - yb, yb)
    return y[()]


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0, ``scipy.special.gammaln`` bit for bit."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gammaln: x must be > 0, got {x}")
    if x < 13.0:
        # Gamma(x + 1) = x Gamma(x) shifts x into [2, 3), then the B/C ratio.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _B) / _p1evl(x, _C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _A) / x
