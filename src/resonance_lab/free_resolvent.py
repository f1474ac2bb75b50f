"""Resolvent kernel of the hyperbolic-plane Laplacian.

The kernel factors through the point-pair invariant:

    g_s(x) = Gamma(s)^2 / (4 pi) * x^(-s) * F~(s, s; 2s; 1/x),    x > 1,

with poles in s exactly at the non-positive integers.
"""

from __future__ import annotations

import math

from . import specfun
from .errors import DiagonalError, PoleError
from .geometry import HPoint, sigma

#: Kernels are never evaluated closer to the diagonal than this in sigma.
DIAG_DELTA = 1e-3

_LOG_FOUR_PI = math.log(4.0 * math.pi)


def g_s(s: complex, x: float) -> complex:
    """Free resolvent profile g_s(x) for x > 1 + DIAG_DELTA, s not in -N0.

    2 log Gamma(s) - s log x - log(4 pi) and the exponent of the scaled 2F1
    are added before a single exp, so a value raises OverflowBudgetError
    only when it overflows a double itself.
    """
    s = complex(s)
    if specfun._is_nonpositive_integer(s) is not None:
        raise PoleError(f"spectral parameter s = {s} lies on the pole set")
    if not x > 1.0 + DIAG_DELTA:
        raise DiagonalError(f"sigma = {x} within the diagonal guard 1 + {DIAG_DELTA}")
    m, e = specfun.reg_hyp2f1_scaled(s, s, 2.0 * s, 1.0 / x)
    # -s log x goes last: the rest depends on s alone for a series of one
    # chunk, so that it rounds alike for every x
    exponent = (2.0 * specfun.log_gamma(s) - _LOG_FOUR_PI + e) - s * math.log(x)
    return specfun.scaled_value(m, exponent, "g_s")


def free_kernel(s: complex, z: HPoint, z2: HPoint) -> complex:
    """Resolvent kernel of the hyperbolic plane, g_s(sigma(z, z'))."""
    return g_s(s, sigma(z, z2))
