"""Complex special functions underlying the kernel formulas.

Provides the principal branch of log-Gamma, the regularized Gauss
hypergeometric function (well-defined for every third parameter, including
non-positive integers), and modified Bessel functions I_nu, K_nu of complex
order and positive real argument.

Accuracy envelope (documented, tested):
  * log_gamma: ~1e-13 relative on |z| <= 50 away from the poles -N0.
  * reg_hyp2f1: direct series on |z| <= 1 - GUARD_DELTA (= 1e-3).
  * bessel_i / bessel_k: ~1e-10 for |Re nu| <= 30, |Im nu| <= 10 and
    0 < x <= OVERFLOW_BUDGET_X.  K_nu degrades to ~1e-7 in a 2.5e-8
    neighbourhood of integer orders when x <= K_SERIES_X_MAX.
"""

from __future__ import annotations

import cmath
import math

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

#: Guard band for the hypergeometric series domain |z| < 1.
GUARD_DELTA = 1e-3

#: Largest Bessel argument accepted before raising OverflowBudgetError.
OVERFLOW_BUDGET_X = 600.0

#: K_nu switches from the reflection formula to quadrature above this x.
K_SERIES_X_MAX = 2.0

_SERIES_CAP = 100_000


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> int | None:
    """Return n >= 0 with z ~ -n if z is within tol of a non-positive integer."""
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    if n > 0 or abs(z.real - n) > tol:
        return None
    return -n


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Uses the Lanczos approximation on Re z >= 0.5 and the argument
    recurrence log Gamma(z) = log Gamma(z+n) - sum log(z+j) on the left
    half-plane, which keeps the principal branch on C \\ (-inf, 0].

    Raises PoleError at the poles z in {0, -1, -2, ...}.
    """
    z = complex(z)
    if _is_nonpositive_integer(z) is not None:
        raise PoleError(f"log_gamma pole at z = {z}")
    if z.real >= 0.5:
        return _log_gamma_lanczos(z)
    # shift right of Re = 0.5, then undo the shift term by term
    n = int(math.ceil(0.5 - z.real))
    shift = 0.0 + 0.0j
    for j in range(n):
        shift += cmath.log(z + j)
    return _log_gamma_lanczos(z + n) - shift


def _log_gamma_lanczos(z: complex) -> complex:
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(series)


def rgamma(z: complex) -> complex:
    """1 / Gamma(z); exactly 0 at the poles of Gamma."""
    if _is_nonpositive_integer(z) is not None:
        return 0.0 + 0.0j
    return cmath.exp(-log_gamma(z))


def reg_hyp2f1_scaled(
    a: complex, b: complex, c: complex, z: complex
) -> tuple[complex, float]:
    """Regularized Gauss hypergeometric function, scaled.

    Returns (m, E) with F~(a, b; c; z) = m * e^E; the running sum is
    rescaled whenever it grows, so large parameters (for which the value
    itself overflows a double) are handled exactly up to the final
    exponent.  Requires |z| <= 1 - GUARD_DELTA.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    az = abs(z)
    if az > 1.0 - GUARD_DELTA:
        raise DomainError(f"|z| = {az} exceeds the series guard {1.0 - GUARD_DELTA}")

    m = _is_nonpositive_integer(c)
    if m is not None:
        # Gamma(c+n) is singular for n <= m, so those terms vanish; start
        # at n = m+1 where Gamma(c+n) = Gamma(n-m) is regular.
        n0 = m + 1
        if az == 0.0:
            return 0.0 + 0.0j, 0.0
        term = z**n0 / math.factorial(n0)
        for j in range(n0):
            term *= (a + j) * (b + j)
    else:
        n0 = 0
        term = rgamma(c)

    total = term
    exponent = 0.0
    n = n0
    while n < _SERIES_CAP:
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        n += 1
        mag = abs(total)
        if mag > 1e150:
            total *= 1e-150
            term *= 1e-150
            exponent += 150.0 * math.log(10.0)
            mag *= 1e-150
        if n > n0 + 2:
            # geometric tail bound: remaining sum < |term| * az / (1 - az)
            tail = abs(term) * az / (1.0 - az)
            if tail <= 1e-16 * max(mag, 1e-300):
                return total, exponent
            if term == 0:
                return total, exponent
    raise NonConvergenceError(
        f"hypergeometric series did not converge within {_SERIES_CAP} terms (|z| = {az})"
    )


def reg_hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Regularized Gauss hypergeometric function.

    sum_{n>=0} (a)_n (b)_n / Gamma(c+n) * z^n / n!  by direct summation;
    well-defined for every c (terms with a Gamma pole in the denominator
    vanish).  Requires |z| <= 1 - GUARD_DELTA.
    """
    m, e = reg_hyp2f1_scaled(a, b, c, z)
    if m != 0.0 and e + math.log(abs(m)) > 709.0:
        raise OverflowBudgetError(
            f"hypergeometric value overflows a double (exponent {e:.1f})"
        )
    return m * math.exp(e)


# ---------------------------------------------------------------------------
# Modified Bessel functions of complex order
# ---------------------------------------------------------------------------


def _bessel_i_series(nu: complex, x: float) -> complex:
    """Ascending series sum_m (x/2)^(nu+2m) / (m! Gamma(nu+m+1)).

    Convergent for all x > 0; used on the whole accepted range.
    """
    half = 0.5 * x
    lhalf = math.log(half)
    # (x/2)^nu with real positive base
    prefac = cmath.exp(nu * lhalf)
    q = half * half
    # running term: q^m / m! * rgamma(nu+m+1)
    term = rgamma(nu + 1.0)
    total = term
    m = 0
    regular = term != 0.0
    while m < _SERIES_CAP:
        if regular:
            term = term * q / ((m + 1.0) * (nu + m + 1.0))
        else:
            # climb over vanishing 1/Gamma terms (nu a negative integer)
            term = rgamma(nu + m + 2.0) * q ** (m + 1) / math.factorial(m + 1)
            regular = term != 0.0
        total += term
        m += 1
        if m > 2 and abs(term) <= 1e-17 * max(abs(total), 1e-300) and regular:
            break
        if m > abs(nu) + 4 * (int(half) + 10) and not regular:
            break
    return prefac * total


def _digamma_nonneg_int(n: int) -> float:
    """psi(n) for integer n >= 1."""
    # psi(1) = -euler_gamma, psi(n+1) = psi(n) + 1/n
    val = -0.5772156649015328606
    for k in range(1, n):
        val += 1.0 / k
    return val


def _bessel_k_integer_series(n: int, x: float) -> complex:
    """K_n(x) for integer n >= 0 via the logarithmic series (x small)."""
    half = 0.5 * x
    q = half * half
    total = 0.0
    # finite part: (1/2)(x/2)^{-n} sum_{m<n} ((n-m-1)!/m!) (-q)^m
    fin = 0.0
    for m_ in range(n):
        fin += math.factorial(n - m_ - 1) / math.factorial(m_) * (-q) ** m_
    total += 0.5 * half ** (-n) * fin
    i_n = _bessel_i_series(complex(n), x).real
    total += (-1.0) ** (n + 1) * math.log(half) * i_n
    acc = 0.0
    m_ = 0
    while True:
        t = (
            (_digamma_nonneg_int(m_ + 1) + _digamma_nonneg_int(n + m_ + 1))
            / (math.factorial(m_) * math.factorial(n + m_))
            * q**m_
        )
        acc += t
        if m_ > 2 and abs(t) < 1e-18 * max(abs(acc), 1e-300):
            break
        m_ += 1
    total += (-1.0) ** n * 0.5 * half**n * acc
    return complex(total)


def _bessel_k_quadrature(nu: complex, x: float, scaled: bool) -> complex:
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt by panel Gauss-Legendre.

    Used for x > K_SERIES_X_MAX where the reflection formula cancels badly.
    The integrand is analytic; panels are sized to the oscillation of
    cosh(nu t) so that 24-point Gauss nodes resolve each one.
    """
    from ._quad import gauss_legendre_panels

    sigma = abs(nu.real)
    # upper limit: follow exponent(t) = sigma*t - x*cosh(t) until it has
    # dropped 45 below its maximum
    t = 0.0
    peak = -x
    upper = None
    while t < 60.0:
        t += 0.25
        e = sigma * t - x * math.cosh(t)
        peak = max(peak, e)
        if e < peak - 45.0:
            upper = t
            break
    if upper is None:
        raise OverflowBudgetError(f"K_nu integrand does not decay for nu={nu}, x={x}")

    shift = x if scaled else 0.0
    if not scaled and peak + 2.0 > 700.0:
        raise OverflowBudgetError(f"K_nu overflow for nu={nu}, x={x}")

    def f(t_: float) -> complex:
        return cmath.exp(shift - x * math.cosh(t_)) * cmath.cosh(nu * t_)

    # panel width limited by the oscillation scale of cosh(nu*t)
    osc = max(1.0, abs(nu.imag), sigma)
    width = min(1.0, 6.0 / osc)
    return gauss_legendre_panels(f, 0.0, upper, width)


def _split_near_integer(nu: complex) -> int | None:
    n = round(nu.real)
    if abs(nu - n) < 2.5e-8:
        return n
    return None


def bessel_i(nu: complex, x: float, scaled: bool = False) -> complex:
    """Modified Bessel function I_nu(x), complex order, x > 0.

    With scaled=True returns exp(-x) * I_nu(x).
    """
    nu = complex(nu)
    if x <= 0.0:
        raise DomainError(f"bessel_i requires x > 0, got {x}")
    if x > OVERFLOW_BUDGET_X:
        raise OverflowBudgetError(
            f"x = {x} exceeds the exponent budget {OVERFLOW_BUDGET_X}"
        )
    val = _bessel_i_series(nu, x)
    return val * math.exp(-x) if scaled else val


def bessel_k(nu: complex, x: float, scaled: bool = False) -> complex:
    """Modified Bessel function K_nu(x), complex order, x > 0.

    K_{-nu}(x) = K_nu(x) holds exactly: the order is canonicalized before
    evaluation, so both signs run the identical code path.
    With scaled=True returns exp(x) * K_nu(x).
    """
    nu = complex(nu)
    if x <= 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    if x > OVERFLOW_BUDGET_X:
        raise OverflowBudgetError(
            f"x = {x} exceeds the exponent budget {OVERFLOW_BUDGET_X}"
        )
    if (nu.real, nu.imag) < (-nu.real, -nu.imag):
        nu = -nu

    if x > K_SERIES_X_MAX:
        return _bessel_k_quadrature(nu, x, scaled)

    n = _split_near_integer(nu)
    if n is not None:
        val = _bessel_k_integer_series(abs(n), x)
    else:
        # reflection: K_nu = pi/2 (I_{-nu} - I_nu) / sin(pi nu)
        val = (
            0.5
            * math.pi
            * (_bessel_i_series(-nu, x) - _bessel_i_series(nu, x))
            / cmath.sin(math.pi * nu)
        )
    return val * math.exp(x) if scaled else val
