"""The continued S_xi integrated in u, one node at a time: the slow-path oracle.

This is `model_kernels.s_xi_continued` as it was written before the
integrand took arrays of nodes: the adaptive 15/31-point Gauss-Legendre
rule calls a scalar integrand node by node, integrates in u (not log u),
and sums the dual theta series of each node with a per-node mask of the
zero frequency and of the terms below e^-700.  It is right while the
first panel's nodes see the dual sum's rise at u ~ pi^2 b^2: down to
b = 0.02 at theta = 1/4, s = 1.5, a = 0.3, while at b = 0.01 it returns
about 1.3e-10 for a sum of about 37.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from resonance_lab import specfun
from resonance_lab.errors import DomainError, PoleError, QuadratureError
from resonance_lab.specfun import log_gamma

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_PANELS = 4000


def _nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


def _gl(f: Callable[[float], complex], a: float, b: float, n: int) -> complex:
    x, w = _nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0 + 0.0j
    for xi, wi in zip(x, w):
        total += wi * f(mid + half * xi)
    return half * total


def gauss_legendre_adaptive(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
) -> complex:
    """Adaptive bisecting Gauss-Legendre integration of f over [a, b].

    Each panel compares 15- and 31-point rules; panels whose difference
    exceeds their share of tol are bisected.  tol is relative: it is scaled
    by max(1, |31-point rule over the whole interval|), the first panel's
    own estimate.  Raises QuadratureError when the panel budget is exhausted.
    """
    stack = [(a, b)]
    total = 0.0 + 0.0j
    used = 0
    while stack:
        lo, hi = stack.pop()
        coarse = _gl(f, lo, hi, 15)
        fine = _gl(f, lo, hi, 31)
        used += 1
        if used == 1:
            tol *= max(1.0, abs(fine))
        if used > _MAX_PANELS:
            raise QuadratureError("adaptive quadrature exhausted its panel budget")
        err = abs(fine - coarse)
        if err <= tol * max(1.0, (hi - lo) / (b - a)) or (hi - lo) < 1e-14 * (b - a):
            total += fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total


def s_xi_continued(xi_angle: float, s: complex, a: float, b: float) -> complex:
    """Meromorphic continuation of S_xi via its Poisson-summation integral.

    S_xi(s; a, b) = sqrt(pi) b^{1-2s} / Gamma(s) * [ I(s) + [xi = 1] Gamma(s - 1/2) ],

    where I(s) integrates e^{-u} u^{s-3/2} against the dual theta sum with
    the zero-frequency term removed.  Valid for all s; for xi = 1 the poles
    sit at s in 1/2 - N0 (from the separated Gamma(s - 1/2) term).
    """
    s = complex(s)
    if not (0.0 <= xi_angle < 1.0):
        raise DomainError(f"xi_angle must lie in [0, 1), got {xi_angle}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    lam = xi_angle
    if lam == 0.0 and specfun._is_nonpositive_integer(s - 0.5) is not None:
        raise PoleError(f"S_1 has a pole at s = {s}")

    pib2 = math.pi * math.pi * b * b
    m_min = 1.0 if lam == 0.0 else min(lam, 1.0 - lam)

    def integrand(u: float) -> complex:
        kmax = int(math.sqrt(u * 700.0 / pib2)) + 2
        freq = np.arange(-kmax, kmax + 1) + lam
        ex = -pib2 * freq * freq / u
        # the dual sum leaves out the zero frequency and terms below e^-700;
        # its phase is e^{-2 pi i a (k+lam)}: the sign is pinned by the
        # index-shift identity S(s; a+1, b) = xi^{-1} S(s; a, b)
        keep = (freq != 0.0) & (ex >= -700.0)
        dual = complex(np.exp(ex[keep] - 2j * math.pi * a * freq[keep]).sum())
        return cmath.exp(-u + (s - 1.5) * math.log(u)) * dual

    # upper limit: e^{-U} U^{Re s - 1/2} < 1e-16
    U = 45.0
    while U - max(s.real - 0.5, 0.0) * math.log(U) < 37.0:
        U += 5.0
    u_min = pib2 * m_min * m_min / 700.0
    integral = gauss_legendre_adaptive(integrand, u_min, U, 1e-12)
    if lam == 0.0:
        integral += cmath.exp(log_gamma(s - 0.5))
    pref = cmath.exp(
        0.5 * math.log(math.pi) + (1.0 - 2.0 * s) * math.log(b) - log_gamma(s)
    )
    return pref * integral
