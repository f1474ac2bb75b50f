"""Complex special functions underlying the kernel formulas.

Provides the principal branch of log-Gamma, the regularized Gauss
hypergeometric function (well-defined for every third parameter, including
non-positive integers), and modified Bessel functions I_nu, K_nu of complex
order and positive real argument.

log_gamma and the 2F1 take arrays: `reg_hyp2f1_scaled` is one numpy engine
that sums a block of series, one row per (a_j, b_j, z_j) with c shared, in
column chunks, each row stopped on its own tail rule.  z is a scalar shared
by every row or one value per row; a shared z takes the cheaper arithmetic
of a scalar factor.

Accuracy envelope (documented, tested):
  * log_gamma: ~1e-13 relative on |z| <= 50 away from the poles -N0.  Its
    recurrence takes ceil(1/2 - Re z) steps, at most _MAX_SHIFTS = 10,000:
    below Re z = -9999.5 it raises OverflowBudgetError.
  * reg_hyp2f1: direct series on |z| <= 1 - GUARD_DELTA (= 1e-3), the same
    as a term-by-term loop: rounding that grows with the number of terms,
    about 5e-16 / (1 - |z|), plus an ulp of the exponent log|F| (1e-12 at
    log|F| ~ 6000); a row stops once its geometric tail bound is below
    1e-16 of its sum, and no row takes more than 100,000 terms.
  * bessel_i: ~2e-13 relative for |Re nu| <= 30, |Im nu| <= 10 and
    0 < x <= OVERFLOW_BUDGET_X, and for Re nu up to 200 (measured against
    mpmath); the limit is the ~1e-15 absolute error of log_gamma.
  * bessel_k, same range: ~1e-12 relative for x <= K_SERIES_X_MAX,
    integer orders included: the quadrature within 3e-2 of an integer
    order (~1e-14), the reflection formula outside it (~5e-13, the error
    of log_gamma times a cancellation of about 1 / (2 |nu - n|)).  Above
    K_SERIES_X_MAX the quadrature: ~5e-13 for |Im nu| <= 5, but its
    integrand cancels to K by about e^(-pi |Im nu| / 2), so that it is
    2e-10 off at |Im nu| = 8 and 6e-10 at |Im nu| = 10 (x just above 2).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    DomainError,
    NonConvergenceError,
    OverflowBudgetError,
    PoleError,
)

# Lanczos approximation, g = 7, 9 terms.  Standard double precision set
# (Godfrey / Numerical Recipes); relative accuracy ~1e-13 on Re z >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Bernoulli numbers B_2, B_4, ..., B_16.
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)

#: Guard band for the hypergeometric series domain |z| < 1.
GUARD_DELTA = 1e-3

#: Largest Bessel argument accepted before raising OverflowBudgetError.
OVERFLOW_BUDGET_X = 600.0

#: K_nu switches from the reflection formula to quadrature above this x.
K_SERIES_X_MAX = 2.0

#: ... and within this distance of an integer order, where the reflection
#: formula divides the difference of two I_nu by sin(pi nu) ~ 0.
_K_NEAR_INTEGER = 3e-2

_SERIES_CAP = 100_000

#: Most steps of log_gamma's recurrence; an array of 10,000 takes about 60 ms.
_MAX_SHIFTS = 10_000

#: Columns of the first chunk of the 2F1 series, at least; later chunks
#: double.  No chunk holds more than _CHUNK_CELLS rows x columns, which
#: bounds both, and keeps every array of a chunk at 64 KB or less.
_FIRST_CHUNK = 64
_CHUNK_CELLS = 1 << 12

#: A chunk whose terms reach this magnitude is taken again, narrower.
_BIG = 1e290


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> int | None:
    """Return n >= 0 with z ~ -n if z is within tol of a non-positive integer."""
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    if n > 0 or abs(z.real - n) > tol:
        return None
    return -n


def log_gamma(z):
    """Principal branch of log Gamma(z), for a scalar z or an array of them.

    Uses the Lanczos approximation on Re z >= 0.5 and the argument
    recurrence log Gamma(z) = log Gamma(z+n) - sum log(z+j) on the left
    half-plane, which keeps the principal branch on C \\ (-inf, 0].

    Raises PoleError at the poles z in {0, -1, -2, ...}, and
    OverflowBudgetError where the recurrence would take more than
    _MAX_SHIFTS steps (Re z < -9999.5).
    """
    if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:  # np.ndim costs 1.7 us
        z = complex(z)
        if _is_nonpositive_integer(z) is not None:
            raise PoleError(f"log_gamma pole at z = {z}")
        _check_shifts(z.real)
        # shift right of Re = 0.5, then undo the shift term by term
        n = max(math.ceil(0.5 - z.real), 0)
        return _log_gamma_lanczos(z + n, cmath.log) - sum(cmath.log(z + j) for j in range(n))
    z = np.asarray(z, dtype=complex)
    near = np.round(z.real)
    poles = (np.abs(z.imag) <= 1e-12) & (near <= 0.0) & (np.abs(z.real - near) <= 1e-12)
    if poles.any():
        raise PoleError(f"log_gamma pole at z = {complex(z[poles][0])}")
    _check_shifts(z.real.min(initial=0.0))
    n = np.maximum(np.ceil(0.5 - z.real), 0.0)
    shift = sum(np.where(j < n, np.log(z + j), 0.0) for j in range(int(n.max(initial=0.0))))
    return _log_gamma_lanczos(z + n, np.log) - shift


def _check_shifts(re: float) -> None:
    """OverflowBudgetError where the recurrence from Re z = re takes over _MAX_SHIFTS steps."""
    if 0.5 - re > _MAX_SHIFTS:  # ceil(0.5 - re) > _MAX_SHIFTS
        raise OverflowBudgetError(f"log_gamma recurrence from Re z = {re:g} exceeds {_MAX_SHIFTS} steps")


def _log_gamma_lanczos(z, log):
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * log(t) - t + log(series)


def rgamma(z: complex) -> complex:
    """1 / Gamma(z); exactly 0 at the poles of Gamma."""
    if _is_nonpositive_integer(z) is not None:
        return 0.0 + 0.0j
    return cmath.exp(-log_gamma(z))


def scaled_value(m, x, what: str):
    """m * e^x, for scalars or arrays, with a single exp of the exponent x.

    m is a mantissa and x a (complex) exponent, as the scaled routines
    return them.  Where e^x alone would leave the double range, log m is
    added to x first; a value below the range is 0, and one above it raises
    OverflowBudgetError naming `what`.
    """
    if isinstance(m, complex):  # one value, without numpy's fixed cost
        if m == 0.0:
            return 0j
        top = math.log(abs(m)) + x.real
        if top > 709.0:
            raise OverflowBudgetError(f"{what} overflows a double (exponent {top:.1f})")
        return m * cmath.exp(x) if abs(x.real) < 700.0 else cmath.exp(cmath.log(m) + x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.log(np.abs(m)) + np.real(x)
        if np.any(top > 709.0):
            raise OverflowBudgetError(f"{what} overflows a double (exponent {float(np.max(top)):.1f})")
        inside = np.abs(np.real(x)) < 700.0
        return np.where(inside, m, 1.0) * np.exp(np.where(inside, x, np.log(m) + x))


def reg_hyp2f1_scaled(a, b, c: complex, z):
    """Regularized Gauss hypergeometric function, scaled, on one row or many.

    a, b and z are scalars or 1-d arrays that broadcast to one length, one
    series per row j; c is a scalar.  Returns (m, E) with
    F~(a_j, b_j; c; z_j) = m_j e^{E_j}, as arrays (scalars when a, b and z
    are all scalars).  Requires |z_j| <= 1 - GUARD_DELTA on every row.

    The engine is `_hyp2f1_rows`; this entry only forwards to it.  The
    mode profiles pass z per row to the engine itself, and a scalar z here,
    which the benchmark's tracer bins by |z|.
    """
    return _hyp2f1_rows(a, b, c, z)


def _hyp2f1_rows(a, b, c: complex, z):
    """The 2F1 engine of `reg_hyp2f1_scaled`: F~(a_j, b_j; c; z_j) = m_j e^{E_j} per row j.

    The series sum_n (a)_n (b)_n / Gamma(c+n) z^n / n! is summed in
    chunks of columns, each by a cumulative product of the term ratios and
    a cumulative sum.  The first chunk is as long as the largest |z_j|^n
    takes to fall by 1e-16, at least _FIRST_CHUNK columns; each later one
    doubles, and no chunk holds more than _CHUNK_CELLS rows x columns.
    Between chunks each row is renormalised into its exponent E, which
    also carries -log Gamma(c), so that large parameters (for which the
    value itself overflows a double) are exact up to E.  A chunk whose
    terms would overflow is taken again a quarter as wide.  A row stops at
    the first term n > n0 + 2 whose geometric tail bound
    |term| |z_j| / (1 - |z_j|) is at most 1e-16 of its sum, or that is 0,
    and leaves the chunks.  For c in -N0 the terms with a Gamma pole
    vanish and the series starts at n0 = 1 - c, from each row's z_j.

    A z shared by every row stays a Python complex, a scalar factor of
    every row; z per row is a column of the block.
    """
    per_row = getattr(z, "ndim", 0) > 0
    scalar = not (getattr(a, "ndim", 0) or getattr(b, "ndim", 0) or per_row)
    a = np.asarray(a, dtype=complex).reshape(-1, 1)
    b = np.asarray(b, dtype=complex).reshape(-1, 1)
    if per_row:
        a, b, z = np.broadcast_arrays(a, b, np.asarray(z, dtype=complex).reshape(-1, 1))
        az = np.abs(z)
        top = float(az.max(initial=0.0))
    else:
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        z = complex(z)
        top = az = abs(z)
    c = complex(c)
    if top > 1.0 - GUARD_DELTA:
        raise DomainError(f"|z| = {top} exceeds the series guard {1.0 - GUARD_DELTA}")

    rows = a.shape[0]
    m = _is_nonpositive_integer(c)
    if m is not None:
        # Gamma(c+n) is singular for n <= m, so those terms vanish; start
        # at n = m+1 where Gamma(c+n) = Gamma(n-m) = 1, as the product of
        # the ratios (a+j)(b+j) z / (j+1), kept in [1/2, 1) by exact powers of 2
        n0 = m + 1
        term = np.ones(rows, dtype=complex)
        twos = np.zeros(rows, dtype=int)
        zs = z[:, 0] if per_row else z
        for j in range(min(n0, _SERIES_CAP)):
            term = term * ((a[:, 0] + j) * (b[:, 0] + j) * (zs / (j + 1.0)))
            k = np.frexp(np.abs(term))[1]
            term = np.ldexp(term.real, -k) + 1j * np.ldexp(term.imag, -k)
            twos += k
        exponent = twos * math.log(2.0)
    else:
        n0 = 0
        lg = log_gamma(c)
        term = np.full(rows, cmath.exp(complex(0.0, -lg.imag)))
        exponent = np.full(rows, -lg.real)

    mant = np.empty(rows, dtype=complex)
    live = np.arange(rows)
    total = term
    tail_factor = az / (1.0 - az)  # one per row, a column, for z per row
    geometric = 37.0 / -math.log(top) if 0.0 < top < 1.0 else 0.0
    width = max(1, min(max(_FIRST_CHUNK, math.ceil(geometric)), _CHUNK_CELLS // max(rows, 1)))
    n = n0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            if n >= _SERIES_CAP:
                raise NonConvergenceError(
                    f"hypergeometric series did not converge within {_SERIES_CAP} terms (|z| = {top})"
                )
            k = np.arange(n, min(n + width, _SERIES_CAP), dtype=float)
            # term n+1 = term n * (a+n)(b+n) z / ((c+n)(n+1))
            terms = np.cumprod((a + k) * (b + k) * (z / ((c + k) * (k + 1.0))), axis=1)
            terms *= term[:, None]
            mags = np.abs(terms)
            if not mags.max() < _BIG:
                if width == 1:
                    raise OverflowBudgetError("hypergeometric term ratio overflows a double")
                width = max(1, width // 4)
                continue
            term = terms[:, -1].copy()
            terms[:, 0] += total
            sums = np.cumsum(terms, axis=1)
            # |term| |z| / (1 - |z|) <= 1e-16 |sum|, which a zero term also meets
            stop = mags * tail_factor <= 1e-16 * np.maximum(np.abs(sums), 1e-300)
            if n < n0 + 2:
                stop[:, : n0 + 2 - n] = False  # the tail rule starts at term n0 + 3
            n += k.size
            hit = stop.any(axis=1)
            if hit.all():
                mant[live] = sums[np.arange(live.size), stop.argmax(axis=1)]
                break
            total = sums[:, -1]
            if hit.any():
                mant[live[hit]] = sums[hit, stop[hit].argmax(axis=1)]
                keep = ~hit
                live, a, b, term, total = live[keep], a[keep], b[keep], term[keep], total[keep]
                if per_row:
                    z, tail_factor = z[keep], tail_factor[keep]
            scale = np.maximum(np.abs(term), np.abs(total))
            scale[scale == 0.0] = 1.0
            term /= scale
            total = total / scale
            exponent[live] += np.log(scale)
            width = max(1, min(2 * width, _CHUNK_CELLS // live.size))
    if scalar:
        return complex(mant[0]), float(exponent[0])
    return mant, exponent


def reg_hyp2f1(a, b, c: complex, z: complex):
    """Regularized Gauss hypergeometric function.

    sum_{n>=0} (a)_n (b)_n / Gamma(c+n) * z^n / n!  by direct summation;
    well-defined for every c (terms with a Gamma pole in the denominator
    vanish).  Requires |z| <= 1 - GUARD_DELTA.
    """
    m, e = reg_hyp2f1_scaled(a, b, c, z)
    return scaled_value(m, e, "hypergeometric value")


# ---------------------------------------------------------------------------
# Modified Bessel functions of complex order
# ---------------------------------------------------------------------------


def _bessel_i_series(nu: complex, x: float, shift: float) -> complex:
    """e^shift I_nu(x) by the ascending series, its prefactor in one exponent.

    I_nu(x) = (x/2)^nu / Gamma(nu+1) sum_m t_m with t_0 = 1 and
    t_{m+1} = t_m (x/2)^2 / ((m+1)(nu+m+1)); nu log(x/2) - log Gamma(nu+1)
    + shift is carried as one exponent, so that neither factor overflows
    alone.  A negative integer order is summed as -nu (I_{-n} = I_n).
    Convergent for all x > 0.
    """
    n = _is_nonpositive_integer(nu)
    if n:
        nu = complex(n)
    q = 0.25 * x * x
    term = total = 1.0 + 0.0j
    for m in range(_SERIES_CAP):
        term *= q / ((m + 1.0) * (nu + m + 1.0))
        total += term
        if m > 1 and abs(term) <= 1e-17 * abs(total):
            break
    return scaled_value(total, nu * math.log(0.5 * x) - log_gamma(nu + 1.0) + shift, "I_nu")


def _bessel_k_quadrature(nu: complex, x: float, shift: float) -> complex:
    """e^shift K_nu(x) = int_0^inf e^(shift - x cosh t) cosh(nu t) dt, by panel Gauss-Legendre.

    The integration ends where sigma t - x cosh t (sigma = |Re nu|), followed
    in steps of 0.25, has dropped 45 below its maximum; the panels are sized
    to the oscillation of cosh(nu t), so that 24 nodes resolve each one.
    """
    from ._quad import gauss_legendre_panels

    sigma = abs(nu.real)
    # the integrand's largest modulus is e^(shift + peak), at sinh t = sigma / x
    peak = sigma * math.asinh(sigma / x) - math.hypot(sigma, x)
    if shift + peak > 700.0:
        raise OverflowBudgetError(f"K_nu overflow for nu={nu}, x={x}")
    t = 0.25 * np.arange(1, 241)
    e = sigma * t - x * np.cosh(t)
    below = e < np.maximum.accumulate(np.maximum(e, -x)) - 45.0
    if not below.any():
        raise OverflowBudgetError(f"K_nu integrand does not decay for nu={nu}, x={x}")

    def f(t_: np.ndarray) -> np.ndarray:
        e_ = shift - x * np.cosh(t_)
        return 0.5 * (np.exp(e_ + nu * t_) + np.exp(e_ - nu * t_))

    osc = max(1.0, abs(nu.imag), sigma)
    return gauss_legendre_panels(f, 0.0, float(t[below.argmax()]), min(1.0, 6.0 / osc))


def _check_bessel_x(name: str, x: float) -> None:
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got {x}")
    if x > OVERFLOW_BUDGET_X:
        raise OverflowBudgetError(f"x = {x} exceeds the exponent budget {OVERFLOW_BUDGET_X}")


def bessel_i(nu: complex, x: float, scaled: bool = False) -> complex:
    """Modified Bessel function I_nu(x), complex order, x > 0.

    With scaled=True returns exp(-x) * I_nu(x).
    """
    nu = complex(nu)
    _check_bessel_x("bessel_i", x)
    return _bessel_i_series(nu, x, -x if scaled else 0.0)


def bessel_k(nu: complex, x: float, scaled: bool = False) -> complex:
    """Modified Bessel function K_nu(x), complex order, x > 0.

    K_{-nu}(x) = K_nu(x) holds exactly: the order is canonicalized before
    evaluation, so both signs run the identical code path.  The reflection
    formula serves x <= K_SERIES_X_MAX away from the integers, the
    quadrature the rest.  With scaled=True returns exp(x) * K_nu(x).
    """
    nu = complex(nu)
    _check_bessel_x("bessel_k", x)
    if (nu.real, nu.imag) < (-nu.real, -nu.imag):
        nu = -nu
    shift = x if scaled else 0.0
    if x > K_SERIES_X_MAX or abs(nu - round(nu.real)) < _K_NEAR_INTEGER:
        return _bessel_k_quadrature(nu, x, shift)
    # reflection: K_nu = pi/2 (I_{-nu} - I_nu) / sin(pi nu)
    diff = _bessel_i_series(-nu, x, shift) - _bessel_i_series(nu, x, shift)
    try:
        sine = cmath.sin(math.pi * nu)
    except OverflowError:
        raise OverflowBudgetError(f"sin(pi nu) overflows a double for nu={nu}") from None
    return 0.5 * math.pi * diff / sine

