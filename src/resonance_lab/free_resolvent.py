"""Resolvent kernel of the hyperbolic-plane Laplacian.

The kernel factors through the point-pair invariant x = cosh^2(d/2),
d the hyperbolic distance.  It is Q_{s-1}(cosh d) / (2 pi), which the
quadratic transformation for c = 2b (DLMF 15.8(iii)) writes as

    g_s(x) = Gamma(s) / (2 sqrt(pi)) * u^s * F~(s, 1/2; s + 1/2; u^2),
    u = (sqrt(x) - sqrt(x - 1))^2 = e^-d,    x > 1,

with poles in s exactly at the non-positive integers.  The series' term
ratio tends to u^2, so it ends within a few dozen terms away from the
diagonal, and within about 260 at x = 1 + DIAG_DELTA.  `_g_s_rows` sums
it for an array of x at one s, one row each in the series driver that the
2F1 and I_nu share, as the image routes take their near images; `g_s` is
its one-element call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import specfun
from .errors import DiagonalError, PoleError
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


def _series_start(s: complex) -> tuple[complex, int]:
    """(log P, n0): g_s(x) = P u^s sum_{n >= n0} t_n, t_0 = 1, t_{n+1} = t_n (s+n)(n+1/2) z / ((c+n)(n+1)), z = u^2.

    P = Gamma(s) / (2 sqrt(pi) Gamma(s + 1/2)) and n0 = 0, unless s + 1/2 = -m
    is in -N0.  Then the terms n <= m of F~ have a Gamma pole in their
    denominator and vanish, the series starts at n0 = m + 1, and
    Gamma(s) (s)_n0 = Gamma(1/2) leaves P = 1/2 and the ratios before n0
    without (s+n)/(c+n): t_n0 = (1/2)_n0 z^n0 / n0!.  |P| is about |s|^-1/2
    away from the poles, far inside the double range.
    """
    m = specfun._is_nonpositive_integer(s + 0.5)
    if m is None:
        return _log_gamma_half_ratio(s) - _LOG_TWO_SQRT_PI, 0
    return complex(-math.log(2.0)), m + 1


def _product_with_error(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and, by Dekker's splitting, a b = p + e exactly, per element of a and b that broadcast.

    e is 0 where a split would overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * b
        ah, bh = _SPLIT * a, _SPLIT * b
        ah -= ah - a
        bh -= bh - b
        al, bl = a - ah, b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, np.where(np.isfinite(e), e, 0.0)


def _g_s_rows(s: complex, x) -> np.ndarray:
    """g_s(x_j) for a 1-d array of x > 1 + DIAG_DELTA at one s not in -N0: the engine of `g_s`.

    Row j sums the series in z_j = u_j^2 of `_series_start` in
    `specfun._series_rows`, whose rescaling by powers of two is exact: a
    row's value does not depend on the other rows.  A row stops at its first
    term past n0 + 2 (and past -Re s, beyond which the term ratio is at most
    z_j) whose geometric tail bound |term| z_j / (1 - z_j) is at most 1e-16
    of its sum.  s log u goes to scaled_value as its rounded product, whose
    rounding error joins log P in the mantissa: an exponent as large as
    |s log u| would otherwise cost |s log u| ulps.  Past |s log u| = 2^53
    that error goes into the exponent instead, where e^error could leave the
    double range, so that a value below the range is 0; only a value past it
    raises OverflowBudgetError.
    """
    s = complex(s)
    x = np.asarray(x, dtype=float)
    if specfun._is_nonpositive_integer(s) is not None:
        raise PoleError(f"spectral parameter s = {s} lies on the pole set")
    inside = x > 1.0 + DIAG_DELTA
    if not inside.all():
        raise DiagonalError(f"sigma = {x[~inside][0]} within the diagonal guard 1 + {DIAG_DELTA}")
    log_pref, n0 = _series_start(s)
    log_u = -2.0 * np.arcsinh(np.sqrt(x - 1.0))
    z = np.exp(2.0 * log_u)
    c = s + 0.5
    first_tail = max(n0 + 3, math.ceil(-s.real))
    top = float(z.max(initial=0.0))
    width = max(first_tail, n0 + math.ceil(37.0 / -math.log(top) if top > 0.0 else 0.0))

    def ratio(live, k):
        # term n+1 = term n (s+n)(n+1/2) z / ((c+n)(n+1)), with s+n for c+n before n0
        den = c + k if k[0] >= n0 else s + k
        return ((s + k) * (k + 0.5) / (den * (k + 1.0))) * z[live, None]

    mant, twos = specfun._series_rows(ratio, x.size, z / (1.0 - z), first_tail, width, n0)
    prod, err = _product_with_error(np.array([[s.real], [s.imag]]), log_u)
    if n0:  # a series of about z^n0: the powers of two past what a double holds go to the exponent
        rest = twos - np.clip(twos, -960, 960)
        twos, prod[0] = twos - rest, prod[0] + rest * math.log(2.0)
    # past |s log u| = 2^53, e^err may leave the double range: the error
    # joins the exponent, whose range scaled_value checks, and rounds away
    # there (re + err rounds to re)
    err[0, np.abs(err[0]) > 1.0] = 0.0
    exponent = np.empty(x.size, dtype=complex)
    exponent.real, exponent.imag = prod  # from its parts: an infinite part makes no NaN
    return specfun.scaled_value(mant * np.ldexp(1.0, twos) * np.exp(log_pref + (err[0] + 1j * err[1])), exponent, "g_s")


def g_s(s: complex, x: float) -> complex:
    """Free resolvent profile g_s(x) for x > 1 + DIAG_DELTA, s not in -N0: one row of `_g_s_rows`."""
    return complex(_g_s_rows(s, [x])[0])


def free_kernel(s: complex, z: HPoint, z2: HPoint) -> complex:
    """Resolvent kernel of the hyperbolic plane, g_s(sigma(z, z'))."""
    return g_s(s, sigma(z, z2))
