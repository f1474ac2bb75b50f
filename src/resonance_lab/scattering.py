"""Funnel Poisson-operator modes, scattering coefficients and the
functional equation tying the resolvent at s and 1 - s.

The scattering coefficient is a ratio of six Gamma factors; it is
evaluated in log space with explicit pole tallies so that exact zeros
(a denominator Gamma pole) come out as exact 0 rather than NaN, and a
surplus of numerator poles raises PoleError.

`poisson_mode` and `functional_equation_sides` (with
`functional_equation_residual`) take kappa, r and r' as scalars or as numpy
arrays that broadcast, one 2F1 engine call per profile either way;
`scattering_coeff` takes s and kappa the same way, with its pole tallies
per element.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PoleError
from .geometry import TWO_PI
from .model_kernels import funnel_mode, log_beta_kappa, v0_profile
from .specfun import _nonpositive_integers, log_gamma, rgamma


def poisson_mode(s: complex, kappa, r, ell: float):
    """Poisson mode (1/ell) beta_kappa(s) v0_kappa(s; r) / Gamma(s + 1/2), per element of kappa and r.

    Vanishes at r = 0; symmetric under kappa -> -kappa; poles where
    beta_kappa has them, at s in -(1 + 2 N0) +- i omega kappa.
    """
    s = complex(s)
    if np.any(r < 0.0):
        raise DomainError(f"Poisson mode needs r >= 0, got {np.min(r)}")
    q = TWO_PI / ell * abs(kappa)  # even in kappa
    return np.exp(log_beta_kappa(s, q)) * v0_profile(s, q, r) * rgamma(s + 0.5) / ell


def scattering_coeff(s, kappa, ell: float):
    """Funnel scattering coefficient for frequency kappa, per element of s and kappa (scalars or arrays that broadcast).

        Gamma(1/2 - s) Gamma((s + iq + 1)/2) Gamma((s - iq + 1)/2)
        -----------------------------------------------------------,
        Gamma(s - 1/2) Gamma((2 - s + iq)/2) Gamma((2 - s - iq)/2)

    with q = omega kappa.  Exact 0 where denominator Gamma poles dominate.
    Where numerator poles dominate, or the pole orders balance
    (indeterminate without a limit direction), a scalar call raises
    PoleError and an array call gives NaN.
    """
    scalar = np.ndim(s) == 0 and np.ndim(kappa) == 0
    s, kappa = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(kappa, dtype=float))
    q = TWO_PI / ell * np.abs(kappa)  # even in kappa
    up, down = (s.real + 1.0) / 2.0, (2.0 - s.real) / 2.0
    num = (0.5 - s, up + 1j * ((s.imag + q) / 2.0), up + 1j * ((s.imag - q) / 2.0))
    den = (s - 0.5, down + 1j * ((-s.imag + q) / 2.0), down + 1j * ((-s.imag - q) / 2.0))
    n_poles, d_poles = (sum(_nonpositive_integers(z).astype(int) for z in side) for side in (num, den))
    if scalar and n_poles > d_poles:
        raise PoleError(f"scattering coefficient pole at s = {complex(s)}, kappa = {float(kappa)}")
    if scalar and n_poles == d_poles > 0:
        raise PoleError(
            f"indeterminate Gamma ratio at s = {complex(s)}, kappa = {float(kappa)} "
            f"({int(n_poles)} poles on each side)"
        )
    regular = (n_poles == 0) & (d_poles == 0)
    # log Gamma only off its poles: a 0-d argument takes the scalar branch
    log_ratio = sum(log_gamma(np.where(regular, z, 1.0)) for z in num) - sum(
        log_gamma(np.where(regular, z, 1.0)) for z in den
    )
    out = np.where(regular, np.exp(log_ratio), np.where(d_poles > n_poles, 0.0, np.nan))
    return complex(out) if scalar else out


def functional_equation_sides(s: complex, kappa, r, r2, ell: float):
    """Both sides of the per-mode functional equation on the funnel,

      v~_kappa(s; r, r') - v~_kappa(1-s; r, r')
        = (2s-1) ell^2 E(1-s; r) S(s) E(1-s; r'),

    where E is `poisson_mode` and S is `scattering_coeff`, per element of
    kappa, r and r2 (scalars or arrays that broadcast), with one
    `scattering_coeff` call for every kappa.  Requires s and 1-s off the
    relevant pole sets (an array kappa gives NaN at a pole of S).
    """
    s = complex(s)
    lhs = funnel_mode(s, kappa, r, r2, ell) - funnel_mode(1.0 - s, kappa, r, r2, ell)
    rhs = (
        (2.0 * s - 1.0)
        * ell
        * poisson_mode(1.0 - s, kappa, r, ell)
        * scattering_coeff(s, kappa, ell)
        * poisson_mode(1.0 - s, kappa, r2, ell)
        * ell
    )
    return lhs, rhs


def functional_equation_residual(s: complex, kappa, r, r2, ell: float):
    """Absolute residual |lhs - rhs| of `functional_equation_sides`, per element."""
    lhs, rhs = functional_equation_sides(s, kappa, r, r2, ell)
    return abs(lhs - rhs)
