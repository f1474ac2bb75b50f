"""Scalar Bessel functions, one term and one node at a time: the oracle of specfun's array forms.

The ascending I series, the K quadrature and the reflection formula as
loops over one (nu, x), with the same constants, stopping rules, nodes and
errors as `specfun._bessel_i_rows` and `specfun._bessel_k_rows`.  The
panel Gauss-Legendre K, `bessel_k_panels`, is the quadrature that
`specfun` used before the trapezoid rule, kept as an independent oracle
for |Im nu| <= 10, where its cancellation leaves it within about 1e-9.
"""

import cmath
import math

import numpy as np

from resonance_lab._quad import _MAX_FLOOR, _MAX_NODES, gauss_legendre_panels
from resonance_lab.errors import DomainError, OverflowBudgetError, QuadratureError
from resonance_lab.specfun import (
    _K_NEAR_INTEGER,
    _SERIES_CAP,
    K_SERIES_X_MAX,
    OVERFLOW_BUDGET_X,
    _is_nonpositive_integer,
    log_gamma,
    scaled_value,
)

EPS = np.finfo(float).eps


def bessel_i_series(nu: complex, x: float, shift: float) -> complex:
    """e^shift I_nu(x) by the ascending series, its prefactor in one exponent."""
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


def _k_end(nu: complex, x: float, shift: float) -> float:
    """Where sigma t - x cosh t, on t = 0.25, 0.5, ..., 60, has dropped 45 below its maximum."""
    sigma = abs(nu.real)
    peak = sigma * math.asinh(sigma / x) - math.hypot(sigma, x)
    if shift + peak > 700.0:
        raise OverflowBudgetError(f"K_nu overflow for nu={nu}, x={x}")
    t = 0.25 * np.arange(1, 241)
    e = sigma * t - x * np.cosh(t)
    below = e < np.maximum.accumulate(np.maximum(e, -x)) - 45.0
    if not below.any():
        raise OverflowBudgetError(f"K_nu integrand does not decay for nu={nu}, x={x}")
    return float(t[below.argmax()])


def bessel_k_quadrature(nu: complex, x: float, shift: float) -> complex:
    """e^shift K_nu(x) = int_0^inf e^(shift - x cosh t) cosh(nu t) dt, by the trapezoid rule node by node.

    t = T u on u in [0, 1] from a step of 1/16, halved until two sums differ
    by at most 1e-13 of the last plus eps h sum |f|; QuadratureError past
    _MAX_NODES nodes, or where that floor passes _MAX_FLOOR of the sum.
    """
    end, base = _k_end(nu, x, shift), shift - x

    def f(u: float) -> complex:
        t = end * u
        e = base - 2.0 * x * math.sinh(0.5 * t) ** 2
        return 0.5 * end * (cmath.exp(e + nu * t) + cmath.exp(e - nu * t))

    n, h = 16, 1.0 / 16.0
    total = mass = 0.0
    for j in range(n + 1):
        v = (0.5 if j in (0, n) else 1.0) * f(j * h)
        total, mass = total + h * v, mass + h * abs(v)
    while True:
        if 2 * n + 1 > _MAX_NODES:
            raise QuadratureError(f"trapezoid rule not settled within {_MAX_NODES} nodes")
        h, n, last = 0.5 * h, 2 * n, total
        total, mass = 0.5 * total, 0.5 * mass
        for j in range(1, n, 2):
            v = f(j * h)
            total, mass = total + h * v, mass + h * abs(v)
        if abs(total - last) <= 1e-13 * abs(total) + EPS * mass:
            break
    if EPS * mass > _MAX_FLOOR * abs(total):
        raise QuadratureError(f"integrand cancels to {abs(total) / mass:.1e} of its magnitude")
    return complex(total)


def bessel_k_panels(nu: complex, x: float, shift: float = 0.0) -> complex:
    """e^shift K_nu(x) = int_0^inf e^(shift - x cosh t) cosh(nu t) dt, by panel Gauss-Legendre."""
    end = _k_end(nu, x, shift)

    def f(t_: np.ndarray) -> np.ndarray:
        e_ = shift - x * np.cosh(t_)
        return 0.5 * (np.exp(e_ + nu * t_) + np.exp(e_ - nu * t_))

    osc = max(1.0, abs(nu.imag), abs(nu.real))
    return gauss_legendre_panels(f, 0.0, end, min(1.0, 6.0 / osc))


def _check_x(name: str, x: float) -> None:
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got {x}")
    if x > OVERFLOW_BUDGET_X:
        raise OverflowBudgetError(f"x = {x} exceeds the exponent budget {OVERFLOW_BUDGET_X}")


def bessel_i(nu: complex, x: float, scaled: bool = False) -> complex:
    nu = complex(nu)
    _check_x("bessel_i", x)
    return bessel_i_series(nu, x, -x if scaled else 0.0)


def bessel_k(nu: complex, x: float, scaled: bool = False) -> complex:
    """The reflection formula for x <= K_SERIES_X_MAX away from the integers, the quadrature the rest."""
    nu = complex(nu)
    _check_x("bessel_k", x)
    if (nu.real, nu.imag) < (-nu.real, -nu.imag):
        nu = -nu
    shift = x if scaled else 0.0
    if x > K_SERIES_X_MAX or abs(nu - round(nu.real)) < _K_NEAR_INTEGER:
        return bessel_k_quadrature(nu, x, shift)
    # reflection: K_nu = pi/2 (I_{-nu} - I_nu) / sin(pi nu)
    diff = bessel_i_series(-nu, x, shift) - bessel_i_series(nu, x, shift)
    return 0.5 * math.pi * diff / cmath.sin(math.pi * nu)
