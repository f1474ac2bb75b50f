"""Resolvent kernel of the hyperbolic-plane Laplacian.

The kernel factors through the point-pair invariant:

    g_s(x) = Gamma(s)^2 / (4 pi) * x^(-s) * F~(s, s; 2s; 1/x),    x > 1,

with poles in s exactly at the non-positive integers.
"""

from __future__ import annotations

import cmath
import math

from . import specfun
from .errors import DiagonalError, PoleError
from .geometry import HPoint, sigma

#: Kernels are never evaluated closer to the diagonal than this in sigma.
DIAG_DELTA = 1e-3

_FOUR_PI = 4.0 * math.pi


def g_s(s: complex, x: float) -> complex:
    """Free resolvent profile g_s(x) for x > 1 + DIAG_DELTA, s not in -N0."""
    s = complex(s)
    if specfun._is_nonpositive_integer(s) is not None:
        raise PoleError(f"spectral parameter s = {s} lies on the pole set")
    if not x > 1.0 + DIAG_DELTA:
        raise DiagonalError(f"sigma = {x} within the diagonal guard 1 + {DIAG_DELTA}")
    gam2 = cmath.exp(2.0 * specfun.log_gamma(s))
    return (
        gam2
        / _FOUR_PI
        * cmath.exp(-s * math.log(x))
        * specfun.reg_hyp2f1(s, s, 2.0 * s, 1.0 / x)
    )


def free_kernel(s: complex, z: HPoint, z2: HPoint) -> complex:
    """Resolvent kernel of the hyperbolic plane, g_s(sigma(z, z'))."""
    return g_s(s, sigma(z, z2))
