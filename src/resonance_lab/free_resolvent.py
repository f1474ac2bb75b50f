"""Resolvent kernel of the hyperbolic-plane Laplacian.

The kernel factors through the point-pair invariant x = cosh^2(d/2),
d the hyperbolic distance.  It is Q_{s-1}(cosh d) / (2 pi), which the
quadratic transformation for c = 2b (DLMF 15.8(iii)) writes as

    g_s(x) = Gamma(s) / (2 sqrt(pi)) * u^s * F~(s, 1/2; s + 1/2; u^2),
    u = (sqrt(x) - sqrt(x - 1))^2 = e^-d,    x > 1,

with poles in s exactly at the non-positive integers.  The series' term
ratio tends to u^2, so it ends within a few dozen terms away from the
diagonal, and within about 260 at x = 1 + DIAG_DELTA.
"""

from __future__ import annotations

import cmath
import functools
import math

from . import specfun
from .errors import DiagonalError, NonConvergenceError, PoleError
from .geometry import HPoint, sigma

#: Kernels are never evaluated closer to the diagonal than this in sigma.
DIAG_DELTA = 1e-3

_LOG_TWO_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))

#: 2^27 + 1, Dekker's splitting factor for doubles.
_SPLIT = 134217729.0

#: log Gamma(s + 1/2) - log Gamma(s) ~ (1/2) log s + sum_m _RATIO_COEFFS[m-1] s^(1-2m),
#: the coefficients (2^(1-2m) - 2) B_2m / ((2m-1) 2m); 1e-16 off for |s| >= 8, Re s >= 0.
_RATIO_COEFFS = tuple(
    (2.0 ** (1 - 2 * m) - 2.0) * b / ((2 * m - 1) * 2 * m)
    for m, b in enumerate(specfun.BERNOULLI, start=1)
)


def _log_gamma_half_ratio(s: complex) -> complex:
    """log Gamma(s) - log Gamma(s + 1/2), up to 2 pi i.

    For |s| >= 8 and Re s >= 0 its asymptotic series, which avoids the
    rounding of two log Gamma values of magnitude |s log s|.
    """
    if abs(s) < 8.0 or s.real < 0.0:
        return specfun.log_gamma(s) - specfun.log_gamma(s + 0.5)
    w = 1.0 / s
    w2 = w * w
    acc = 0j
    for coeff in reversed(_RATIO_COEFFS):
        acc = acc * w2 + coeff
    return -0.5 * cmath.log(s) - acc * w


@functools.lru_cache(maxsize=64)
def _series_start(s: complex) -> tuple[complex, int, float]:
    """(log P, n0, t0): g_s(x) = P u^s sum_{n >= n0} t_n z^n with z = u^2, t_n0 = t0.

    P = Gamma(s) / (2 sqrt(pi) Gamma(s + 1/2)), n0 = 0 and t0 = 1, unless
    s + 1/2 = -m is in -N0.  Then the terms n <= m of F~ have a Gamma pole
    in their denominator and vanish, the series starts at n0 = m + 1, and
    Gamma(s) (s)_n0 = Gamma(1/2) leaves P = 1/2 and t0 = (1/2)_n0 / n0!.
    |P| is about |s|^-1/2 away from the poles, far inside the double range.
    """
    m = specfun._is_nonpositive_integer(s + 0.5)
    if m is None:
        return _log_gamma_half_ratio(s) - _LOG_TWO_SQRT_PI, 0, 1.0
    t0 = 1.0
    for j in range(m + 1):
        t0 *= (0.5 + j) / (j + 1)
    return complex(-math.log(2.0)), m + 1, t0


def _product_with_error(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and, by Dekker's splitting, a b = p + e exactly.

    e is 0 where a split would overflow.
    """
    p = a * b
    ah, bh = _SPLIT * a, _SPLIT * b
    ah -= ah - a
    bh -= bh - b
    al, bl = a - ah, b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, (e if math.isfinite(e) else 0.0)


def g_s(s: complex, x: float) -> complex:
    """Free resolvent profile g_s(x) for x > 1 + DIAG_DELTA, s not in -N0.

    A scalar series in z = u^2, stopped at the first term past n0 + 2 (and
    past -Re s, beyond which the term ratio is at most z) whose geometric
    tail bound |term| z / (1 - z) is at most 1e-16 of the sum.  s log u
    goes to scaled_value as its rounded product, and the product's rounding
    error joins log P in the mantissa: the rounding of an exponent as large
    as |s log u| would otherwise cost |s log u| ulps.  Past |s log u| = 2^53
    the real part of that error can exceed 1 (and e^709 from 2^62 on); it
    then goes into the exponent, so that a value below the double range is
    0.  A value raises OverflowBudgetError only when it overflows a double
    itself.
    """
    s = complex(s)
    if specfun._is_nonpositive_integer(s) is not None:
        raise PoleError(f"spectral parameter s = {s} lies on the pole set")
    if not x > 1.0 + DIAG_DELTA:
        raise DiagonalError(f"sigma = {x} within the diagonal guard 1 + {DIAG_DELTA}")
    log_pref, n0, t0 = _series_start(s)
    log_u = -2.0 * math.asinh(math.sqrt(x - 1.0))
    z = math.exp(2.0 * log_u)
    term = complex(t0 * z**n0)
    c = s + 0.5
    total = term
    tail = z / (1.0 - z)
    first_tail = max(n0 + 3, math.ceil(-s.real))
    n = n0
    while True:
        term *= (s + n) * (n + 0.5) / ((c + n) * (n + 1)) * z
        total += term
        n += 1
        if n >= first_tail and abs(term) * tail <= 1e-16 * abs(total):
            break
        if n >= specfun._SERIES_CAP:
            raise NonConvergenceError(f"g_s series did not converge within {n} terms (sigma = {x})")
    re, re_err = _product_with_error(s.real, log_u)
    im, im_err = _product_with_error(s.imag, log_u)
    if abs(re_err) > 1.0:
        # |s log u| is past 2^53, where e^re_err may leave the double range:
        # the error joins the exponent, whose range scaled_value checks, and
        # rounds away there (re + re_err rounds to re)
        re_err = 0.0
    return specfun.scaled_value(
        total * cmath.exp(log_pref + complex(re_err, im_err)), complex(re, im), "g_s"
    )


def free_kernel(s: complex, z: HPoint, z2: HPoint) -> complex:
    """Resolvent kernel of the hyperbolic plane, g_s(sigma(z, z'))."""
    return g_s(s, sigma(z, z2))
