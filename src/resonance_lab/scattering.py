"""Funnel Poisson-operator modes, scattering coefficients and the
functional equation tying the resolvent at s and 1 - s.

The scattering coefficient is a ratio of six Gamma factors; it is
evaluated in log space with explicit pole tallies so that exact zeros
(a denominator Gamma pole) come out as exact 0 rather than NaN, and a
surplus of numerator poles raises PoleError.

`poisson_mode` and `functional_equation_sides` (with
`functional_equation_residual`) take kappa, r and r' as scalars or as numpy
arrays that broadcast, and evaluate an array in one 2F1 engine call per
profile; `scattering_coeff` takes one kappa, and the functional equation
calls it once per distinct kappa.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DomainError, PoleError
from .geometry import TWO_PI
from .model_kernels import _is_array, funnel_mode, log_beta_kappa, v0_profile
from .specfun import _is_nonpositive_integer, log_gamma, rgamma


def poisson_mode(s: complex, kappa, r, ell: float):
    """Poisson mode (1/ell) beta_kappa(s) v0_kappa(s; r) / Gamma(s + 1/2), per element of kappa and r.

    Vanishes at r = 0; symmetric under kappa -> -kappa; poles where
    beta_kappa has them, at s in -(1 + 2 N0) +- i omega kappa.
    """
    s = complex(s)
    if np.any(r < 0.0) if _is_array(r) else r < 0.0:
        raise DomainError(f"Poisson mode needs r >= 0, got {r}")
    q = TWO_PI / ell * abs(kappa)  # even in kappa
    log_beta = log_beta_kappa(s, q)
    beta = np.exp(log_beta) if _is_array(log_beta) else cmath.exp(log_beta)
    return beta * v0_profile(s, q, r) * rgamma(s + 0.5) / ell


def scattering_coeff(s: complex, kappa: float, ell: float) -> complex:
    """Funnel scattering coefficient for frequency kappa.

        Gamma(1/2 - s) Gamma((s + iq + 1)/2) Gamma((s - iq + 1)/2)
        -----------------------------------------------------------,
        Gamma(s - 1/2) Gamma((2 - s + iq)/2) Gamma((2 - s - iq)/2)

    with q = omega kappa.  Returns exact 0 when denominator Gamma poles
    dominate; raises PoleError when numerator poles dominate or the pole
    orders balance (indeterminate without a limit direction).
    """
    s = complex(s)
    q = TWO_PI / ell * abs(kappa)  # even in kappa
    num = (
        0.5 - s,
        complex((s.real + 1.0) / 2.0, (s.imag + q) / 2.0),
        complex((s.real + 1.0) / 2.0, (s.imag - q) / 2.0),
    )
    den = (
        s - 0.5,
        complex((2.0 - s.real) / 2.0, (-s.imag + q) / 2.0),
        complex((2.0 - s.real) / 2.0, (-s.imag - q) / 2.0),
    )
    n_poles = sum(1 for z in num if _is_nonpositive_integer(z) is not None)
    d_poles = sum(1 for z in den if _is_nonpositive_integer(z) is not None)
    if n_poles > d_poles:
        raise PoleError(f"scattering coefficient pole at s = {s}, kappa = {kappa}")
    if d_poles > n_poles:
        return 0.0 + 0.0j
    if n_poles:
        raise PoleError(
            f"indeterminate Gamma ratio at s = {s}, kappa = {kappa} "
            f"({n_poles} poles on each side)"
        )
    log_ratio = sum(log_gamma(z) for z in num) - sum(log_gamma(z) for z in den)
    return cmath.exp(log_ratio)


def functional_equation_sides(s: complex, kappa, r, r2, ell: float):
    """Both sides of the per-mode functional equation on the funnel,

      v~_kappa(s; r, r') - v~_kappa(1-s; r, r')
        = (2s-1) ell^2 E(1-s; r) S(s) E(1-s; r'),

    where E is `poisson_mode` and S is `scattering_coeff`, per element of
    kappa, r and r2 (scalars or arrays that broadcast).  Requires s and
    1-s off the relevant pole sets.
    """
    s = complex(s)
    lhs = funnel_mode(s, kappa, r, r2, ell) - funnel_mode(1.0 - s, kappa, r, r2, ell)
    if _is_array(kappa):
        distinct, where = np.unique(kappa, return_inverse=True)
        coeff = np.array([scattering_coeff(s, k, ell) for k in distinct.tolist()])[where]
    else:
        coeff = scattering_coeff(s, kappa, ell)
    rhs = (
        (2.0 * s - 1.0)
        * ell
        * poisson_mode(1.0 - s, kappa, r, ell)
        * coeff
        * poisson_mode(1.0 - s, kappa, r2, ell)
        * ell
    )
    return lhs, rhs


def functional_equation_residual(s: complex, kappa, r, r2, ell: float):
    """Absolute residual |lhs - rhs| of `functional_equation_sides`, per element."""
    lhs, rhs = functional_equation_sides(s, kappa, r, r2, ell)
    return abs(lhs - rhs)
