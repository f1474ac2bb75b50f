"""Complex special functions underlying the kernel formulas.

Provides the principal branch of log-Gamma, the regularized Gauss
hypergeometric function (well-defined for every third parameter, including
non-positive integers), and modified Bessel functions I_nu, K_nu of complex
order and positive real argument.

log_gamma and the 2F1 take arrays.  Every series (the 2F1, I_nu and
`free_resolvent`'s g_s) is summed by one numpy driver, `_series_rows`: a
block of independent rows in column chunks, each stopped on its own tail
rule and rescaled between chunks by exact powers of two, under one chunk
bound, one overflow retry and one term cap.  `reg_hyp2f1_scaled` takes one
row per (a_j, b_j, z_j) with c shared; z is a scalar shared by every row
(the cheaper arithmetic of a scalar factor) or one value per row.
`_bessel_i_rows` and `_bessel_k_rows` take an array of x at one order;
`bessel_i` and `bessel_k` are their one-element calls.

Accuracy envelope (documented, tested):
  * log_gamma: ~1e-13 relative on |z| <= 50 away from the poles -N0.  Its
    recurrence takes ceil(1/2 - Re z) steps, at most _MAX_SHIFTS = 10,000:
    below Re z = -9999.5 it raises OverflowBudgetError, as it does from
    |z| = OVERFLOW_BUDGET_Z = 1e305 on.
  * reg_hyp2f1: direct series on |z| <= 1 - GUARD_DELTA (= 1e-3), the same
    as a term-by-term loop: rounding that grows with the number of terms,
    about 5e-16 / (1 - |z|), plus an ulp of the exponent log|F| (1e-12 at
    log|F| ~ 6000); a row stops once its geometric tail bound is below
    1e-16 of its sum; a row whose terms still grow at 100,000 terms raises
    at once, and every series raises past _SERIES_CAP = 100,000 terms.
  * bessel_i: ~2e-13 relative for |Re nu| <= 30, |Im nu| <= 10 and
    0 < x <= OVERFLOW_BUDGET_X, and for Re nu up to 200 (measured against
    mpmath); the limit is the ~1e-15 absolute error of log_gamma.
  * bessel_k, |Re nu| <= 30 and |Im nu| <= 30, integer orders included:
    ~1e-13 relative for |Im nu| < 10, 4e-10 below 20 and 1.3e-9 up to 30
    (2,000 points against mpmath, 1e-3 <= x <= 600).  The quadrature's
    integrand cancels to K by about e^(-pi |Im nu| / 2) for x below about
    |Im nu|; where rounding leaves under 9 digits, it raises QuadratureError.
    Array and one-element calls differ by numpy's array and scalar ulps.
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

#: Bound on |z| for log_gamma (and |s| for the cusp zero mode) before raising
#: OverflowBudgetError: z log z, about 7.1e307 at the bound, stays inside a double.
OVERFLOW_BUDGET_Z = 1e305

#: K_nu switches from the reflection formula to quadrature above this x.
K_SERIES_X_MAX = 2.0

#: ... and within this distance of an integer order, where the reflection
#: formula divides the difference of two I_nu by sin(pi nu) ~ 0.
_K_NEAR_INTEGER = 3e-2

_SERIES_CAP = 100_000

#: Most steps of log_gamma's recurrence; an array of 10,000 takes about 60 ms.
_MAX_SHIFTS = 10_000

#: Columns of the first chunk of the 2F1 series, at least.  No chunk of a
#: series holds more than _CHUNK_CELLS rows x columns, which keeps every
#: array of a chunk (and of each K row group's end search) at 128 KB or less.
_FIRST_CHUNK = 64
_CHUNK_CELLS = 1 << 13

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


def _nonpositive_integers(z: np.ndarray) -> np.ndarray:
    """`_is_nonpositive_integer` per element of an array: whether z is within 1e-12 of one."""
    near = np.round(z.real)
    return (np.abs(z.imag) <= 1e-12) & (near <= 0.0) & (np.abs(z.real - near) <= 1e-12)


def log_gamma(z):
    """Principal branch of log Gamma(z), for a scalar z or an array of them.

    Uses the Lanczos approximation on Re z >= 0.5 and the argument
    recurrence log Gamma(z) = log Gamma(z+n) - sum log(z+j) on the left
    half-plane, which keeps the principal branch on C \\ (-inf, 0].

    Raises PoleError at the poles z in {0, -1, -2, ...}, and
    OverflowBudgetError at a z that is non-finite or not below
    OVERFLOW_BUDGET_Z in modulus, or where the recurrence would take more
    than _MAX_SHIFTS steps (Re z < -9999.5).
    """
    if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:  # np.ndim costs 1.7 us
        z = complex(z)
        if not math.hypot(z.real, z.imag) < OVERFLOW_BUDGET_Z:  # also False at inf and NaN
            raise OverflowBudgetError(f"log_gamma argument {z} is non-finite or past |z| = {OVERFLOW_BUDGET_Z:g}")
        if _is_nonpositive_integer(z) is not None:
            raise PoleError(f"log_gamma pole at z = {z}")
        _check_shifts(z.real)
        # shift right of Re = 0.5, then undo the shift term by term
        n = max(math.ceil(0.5 - z.real), 0)
        return _log_gamma_lanczos(z + n, cmath.log) - sum(cmath.log(z + j) for j in range(n))
    z = np.asarray(z, dtype=complex)
    inside = np.abs(z) < OVERFLOW_BUDGET_Z  # also False at inf and NaN
    if not inside.all():
        bad = complex(z[~inside][0])
        raise OverflowBudgetError(f"log_gamma argument {bad} is non-finite or past |z| = {OVERFLOW_BUDGET_Z:g}")
    poles = _nonpositive_integers(z)
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
    if isinstance(m, complex) and not isinstance(x, np.ndarray):  # one value, without numpy's fixed cost
        if m == 0.0:
            return 0j
        top = math.log(abs(m)) + x.real
        if top > 709.0:
            raise OverflowBudgetError(f"{what} overflows a double (exponent {top:g})")
        return m * cmath.exp(x) if abs(x.real) < 700.0 else cmath.exp(cmath.log(m) + x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        re = np.real(x)
        top = np.log(np.abs(m)) + re
        if (top > 709.0).any():
            raise OverflowBudgetError(f"{what} overflows a double (exponent {float(np.max(top)):g})")
        inside = np.abs(re) < 700.0
        if inside.all():
            return m * np.exp(x)
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


def _series_rows(ratio, size: int, tail, start: int, width: int, n0: int = 0):
    """sum_{n >= n0} t_n for each of size rows j, as (m, twos) with the sum m_j 2^twos_j: the engine of every series.

    t_0 = 1 and t_{n+1} = t_n ratio(rows, n)[j], for an index array rows of
    the open rows (a slice while all are) and a float array n, one column
    each.  Chunks of columns, the first width wide, then doubling, at most
    _CHUNK_CELLS cells, take cumulative products and sums that continue each
    row as a term-by-term loop would, and between chunks rescale a row's
    last term and sum by one power of two, exactly, into twos_j (0 while no
    row has one); a chunk whose terms reach _BIG is taken again a quarter as
    wide.  The terms n < n0 are products only, each ratio's power of two set
    apart into twos_j, in chunks that end at n0.  A row stops at its first
    term n >= start with |t_n| tail_j <= 1e-16 |sum| (tail a scalar or per
    row), which a zero term meets; one still open at _SERIES_CAP terms raises
    NonConvergenceError.  Floating-point warnings are the caller's to set.
    """
    per_row = isinstance(tail, np.ndarray)
    tail = 1e16 * (tail.reshape(-1, 1) if per_row else tail)
    total = 1.0 if n0 == 0 else 0.0
    out, live, twos, n, width = None, slice(None), 0, 0, max(1, min(width, _CHUNK_CELLS // max(size, 1)))
    while True:
        if n >= _SERIES_CAP:
            raise NonConvergenceError(f"series did not converge within {_SERIES_CAP} terms")
        k = np.arange(n, min(n + width, n0 if n < n0 else _SERIES_CAP), dtype=float)
        terms = ratio(live, k)
        if n < n0:  # |ratio| in [1, 2), times 2^two
            two = np.frexp(np.abs(terms))[1] - 1
            terms /= np.ldexp(1.0, two)
        if n:
            terms[:, 0] *= term
        terms = terms.cumprod(axis=1)  # t_{n+1} .. t_{n+width}
        mags = np.abs(terms)
        if not mags.max(initial=0.0) < _BIG:
            if width == 1:
                raise OverflowBudgetError("series term ratio overflows a double")
            width = max(1, width // 4)
            continue
        if n < n0:
            twos = twos + two.sum(axis=1)
        term = terms[:, -1].copy()
        if n0 > n + 1:
            terms[:, : n0 - n - 1] = 0.0
        terms[:, 0] += total
        sums = terms.cumsum(axis=1)
        stop = mags * tail <= np.abs(sums)
        if start > n + 1:
            stop[:, : start - n - 1] = False
        n += k.size
        hit = stop.any(axis=1)
        value = sums[np.arange(hit.size), stop.argmax(axis=1)]
        if out is None:  # the first chunk: every row was open
            if hit.all():
                return value, twos
            out, twos, live = value, twos + np.zeros(size, dtype=int), np.arange(size)
        else:
            out[live[hit]] = value[hit]
            if hit.all():
                return out, twos
        live, term, total = live[~hit], term[~hit], sums[~hit, -1]
        tail = tail[~hit] if per_row else tail
        two = np.frexp(np.maximum(np.abs(term), np.abs(total)))[1]
        term, total, twos[live] = term / np.ldexp(1.0, two), total / np.ldexp(1.0, two), twos[live] + two
        width = max(1, min(2 * width, _CHUNK_CELLS // live.size))


def _hyp2f1_rows(a, b, c: complex, z):
    """The 2F1 engine of `reg_hyp2f1_scaled`: F~(a_j, b_j; c; z_j) = m_j e^{E_j} per row j.

    The series sum_n (a)_n (b)_n / Gamma(c+n) z^n / n! in `_series_rows`,
    with the tail factor |z_j| / (1 - |z_j|) from term n0 + 3 on, from a
    first chunk as long as the largest |z_j|^n takes to fall by 1e-16 (at
    least _FIRST_CHUNK columns).  |m| is in [1/2, 1) and E carries the rest
    with -log Gamma(c), so that large parameters (for which the value itself
    overflows a double) are exact up to E.  For c in -N0 the terms with a
    Gamma pole vanish and the series starts at n0 = 1 - c, after n0 ratios
    without their 1 / (c + n): Gamma(c + n0) = 1.  First, a row whose term
    ratio is still at least 1 at N = _SERIES_CAP - 1 raises
    NonConvergenceError (unless a or b in -N0 ends the series).  A z shared
    by every row stays a Python complex; z per row is a column of the block.
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

    m = _is_nonpositive_integer(c)
    n0, lg = (0, log_gamma(c)) if m is None else (m + 1, 0j)

    def ratio(live, k):
        # term n+1 = term n (a+n)(b+n) z / ((c+n)(n+1)), without c+n before n0
        den = c + k if k[0] >= n0 else 1.0
        return (a[live] + k) * (b[live] + k) * ((z[live] if per_row else z) / (den * (k + 1.0)))

    # terms still growing at the cap (rows one by one only where a bound over all fails)
    big_n, cap_ratio = _SERIES_CAP - 1.0, abs((c + _SERIES_CAP - 1.0) * _SERIES_CAP)
    width = n0 + max(_FIRST_CHUNK, math.ceil(37.0 / -math.log(top) if 0.0 < top < 1.0 else 0.0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if (np.abs(a).max(initial=0.0) + big_n) * (np.abs(b).max(initial=0.0) + big_n) * top >= cap_ratio:
            ends = [(p.imag == 0.0) & (p.real <= 0.0) & (p.real == np.round(p.real)) for p in (a, b)]
            if (np.abs((a + big_n) * (b + big_n) * z) >= cap_ratio)[~(ends[0] | ends[1])].any():
                raise NonConvergenceError(f"hypergeometric series did not converge within {_SERIES_CAP} terms")
        mant, twos = _series_rows(ratio, a.shape[0], az / (1.0 - az), n0 + 3, width, n0)
    two = np.frexp(np.abs(mant))[1]
    mant = mant * (cmath.exp(complex(0.0, -lg.imag)) / np.ldexp(1.0, two))
    exponent = two * math.log(2.0) + (twos * math.log(2.0) - lg.real)
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


def _check_bessel_x(name: str, x: np.ndarray) -> None:
    """DomainError or OverflowBudgetError for the first x outside 0 < x <= OVERFLOW_BUDGET_X."""
    for x0 in x[(x <= 0.0) | (x > OVERFLOW_BUDGET_X)][:1].tolist():
        if x0 <= 0.0:
            raise DomainError(f"{name} requires x > 0, got {x0}")
        raise OverflowBudgetError(f"x = {x0} exceeds the exponent budget {OVERFLOW_BUDGET_X}")


def _i_series(nu: complex, x: np.ndarray, shift) -> np.ndarray:
    """e^shift_j I_nu(x_j) per row j, by the ascending series, its prefactor in one exponent.

    I_nu(x) = (x/2)^nu / Gamma(nu+1) sum_m t_m, t_{m+1} = t_m (x/2)^2 / ((m+1)(nu+m+1)),
    t_0 = 1, through `_series_rows` from a first chunk past the terms' peak
    near m = x/2; a row stops at the first m > 2 with |t_m| <= 1e-17 |sum|
    (a tail factor of 10).  I_{-n} = I_n.
    """
    n = _is_nonpositive_integer(nu)
    if n:
        nu = complex(n)
    q = 0.25 * x * x
    ratio = lambda live, k: q[live, None] / ((k + 1.0) * (nu + k + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        mant, twos = _series_rows(ratio, x.size, 10.0, 3, 16 + int(x.max(initial=0.0)))
    return scaled_value(mant * np.ldexp(1.0, twos), nu * np.log(0.5 * x) - log_gamma(nu + 1.0) + shift, "I_nu")


def _k_quadrature(nu: complex, x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """e^shift_j K_nu(x_j) = int_0^inf e^(shift_j - x_j cosh t) cosh(nu t) dt per row j, by `_quad.trapezoid`.

    Row j integrates over t = T_j u, u in [0, 1], to the T_j where
    sigma t - x_j cosh t (sigma = |Re nu|), in steps of 0.25, has dropped 45
    below its maximum, from a step of 1/16 in u; the integrand is even in t.
    Rows go _CHUNK_CELLS / 240 at a time, one call of the rule each.
    """
    from ._quad import trapezoid

    sigma = abs(nu.real)
    # the integrand's largest modulus is e^(shift + peak), at sinh t = sigma / x
    over = shift + sigma * np.arcsinh(sigma / x) - np.hypot(sigma, x) > 700.0
    if over.any():
        raise OverflowBudgetError(f"K_nu overflow for nu={nu}, x={float(x[over.argmax()])}")
    grid, out, step = 0.25 * np.arange(1, 241), np.empty(x.size, dtype=complex), max(1, _CHUNK_CELLS // 240)
    for i in range(0, x.size, step):
        xi, base = x[i : i + step, None], (shift - x)[i : i + step, None]  # shift - x is exact: 0 or -x
        e = sigma * grid - xi * np.cosh(grid)
        below = e < np.maximum.accumulate(np.maximum(e, -xi), axis=1) - 45.0
        for x0 in xi[~below.any(axis=1), 0][:1].tolist():
            raise OverflowBudgetError(f"K_nu integrand does not decay for nu={nu}, x={x0}")
        end = grid[below.argmax(axis=1), None]

        def f(u: np.ndarray) -> np.ndarray:
            t = end * u
            e = base - 2.0 * xi * np.sinh(0.5 * t) ** 2  # shift - x cosh t
            return 0.5 * end * (np.exp(e + nu * t) + np.exp(e - nu * t))

        out[i : i + step] = trapezoid(f, 0.0, 1.0, 1.0 / 16.0, 1e-13)
    return out


def _bessel_i_rows(nu: complex, x, scaled: bool = False) -> np.ndarray:
    """I_nu(x_j) for an array of x > 0 at one complex order (e^(-x_j) I_nu(x_j) with scaled=True)."""
    nu, x = complex(nu), np.asarray(x, dtype=float)
    _check_bessel_x("bessel_i", x)
    return _i_series(nu, x, -x if scaled else 0.0)


def _bessel_k_rows(nu: complex, x, scaled: bool = False) -> np.ndarray:
    """K_nu(x_j) for an array of x > 0 at one complex order (e^(x_j) K_nu(x_j) with scaled=True).

    K_{-nu} = K_nu exactly: the order is canonicalized first.  K_nu = pi/2 (I_{-nu}
    - I_nu) / sin(pi nu) serves x <= K_SERIES_X_MAX at least _K_NEAR_INTEGER
    from an integer order, the quadrature the rest.
    """
    nu, x = complex(nu), np.asarray(x, dtype=float)
    _check_bessel_x("bessel_k", x)
    if (nu.real, nu.imag) < (-nu.real, -nu.imag):
        nu = -nu
    shift = x if scaled else 0.0 * x
    series = (x <= K_SERIES_X_MAX) & (abs(nu - round(nu.real)) >= _K_NEAR_INTEGER)
    out = np.empty(x.size, dtype=complex)
    if series.any():
        diff = _i_series(-nu, x[series], shift[series]) - _i_series(nu, x[series], shift[series])
        try:
            out[series] = 0.5 * math.pi * diff / cmath.sin(math.pi * nu)
        except OverflowError:
            raise OverflowBudgetError(f"sin(pi nu) overflows a double for nu={nu}") from None
    if not series.all():
        out[~series] = _k_quadrature(nu, x[~series], shift[~series])
    return out


def bessel_i(nu: complex, x: float, scaled: bool = False) -> complex:
    """I_nu(x), complex order, x > 0 (e^-x I_nu(x) with scaled=True): one row of `_bessel_i_rows`."""
    return complex(_bessel_i_rows(nu, [x], scaled)[0])


def bessel_k(nu: complex, x: float, scaled: bool = False) -> complex:
    """K_nu(x), complex order, x > 0 (e^x K_nu(x) with scaled=True): one row of `_bessel_k_rows`."""
    return complex(_bessel_k_rows(nu, [x], scaled)[0])
