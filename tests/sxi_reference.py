"""The continued S_xi by adaptive Gauss-Legendre panels: the slow-path oracles.

`s_xi_continued` is `model_kernels.s_xi_continued` as it was written
before the integrand took arrays of nodes: the adaptive 15/31-point
Gauss-Legendre rule calls a scalar integrand node by node, integrates in u
(not log u), and sums the dual theta series of each node with a per-node
mask of the zero frequency and of the terms below e^-700.  It is right
while the first panel's nodes see the dual sum's rise at u ~ pi^2 b^2:
down to b = 0.02 at theta = 1/4, s = 1.5, a = 0.3, while at b = 0.01 it
returns about 1.3e-10 for a sum of about 37.

`s_xi_continued_panels` is the next form, before the trapezoid rule in
log u: the package's `_quad.gauss_legendre_adaptive` in t = log u, on an
integrand that sums the dual series alone for all nodes of a panel at
once, in blocks of frequencies, each over the nodes where one of its terms
is above e^-700.  Where u >> pi b^2 the dual series adds thousands of
terms of size about 1 to a value near 0, and its rounding leaves a floor
that grows as b falls: 3.4e-12 / 1.8e-9 / 1.6e-8 relative at b = 0.01 /
2e-3 / 1e-3 (theta = 1/4, s = 1.5, a = 0.3).  The same panels on the
Poisson-form integrand of the package are within 4.1e-14 there.

`sum_tail_loop` is `model_kernels._sum_tail` before it took one array
pass: the binomial series term by term until every row has stopped, and
the Taylor coefficients e_j by their three-term recurrence.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from resonance_lab import _quad, specfun
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


#: Frequencies per block of the panels' dual sum (31 nodes x 4096: 1 MB).
_FREQ_BLOCK = 4096


def s_xi_continued_panels(xi_angle: float, s: complex, a: float, b: float) -> complex:
    """The continued S_xi as `s_xi_continued`, integrated over t = log u by `_quad.gauss_legendre_adaptive`."""
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

    def integrand(t: np.ndarray) -> np.ndarray:
        u = np.exp(t)
        # frequencies past kmax are below e^-700 at every node
        kmax = int(math.sqrt(float(u.max()) * 700.0 / pib2)) + 2
        freq = np.arange(-kmax, kmax + 1) + lam
        freq = freq[freq != 0.0]
        blocks = np.split(freq, range(_FREQ_BLOCK, freq.size, _FREQ_BLOCK))
        dual = 0.0
        for f in blocks:
            term = lambda u: np.exp(np.multiply.outer(-pib2 / u, f * f)) @ np.exp(-2j * math.pi * a * f)
            least = 0.0 if len(blocks) == 1 or f[0] < 0.0 < f[-1] else min(abs(f[0]), abs(f[-1]))
            if least:
                # the block's terms are above e^-700 only at u >= pi^2 b^2 least^2 / 700
                at = u >= pib2 * least * least / 700.0
                block = np.zeros(u.shape, dtype=complex)
                block[at] = term(u[at])
                dual = dual + block
            else:
                dual = dual + term(u)
        return np.exp(-u + (s - 0.5) * t) * dual

    U = 45.0
    while U - max(s.real - 0.5, 0.0) * math.log(U) < 37.0:
        U += 5.0
    t_min = 2.0 * math.log(math.pi * b * m_min) - math.log(700.0)
    integral = _quad.gauss_legendre_adaptive(integrand, t_min, math.log(U), 1e-12)
    if lam == 0.0:
        integral += cmath.exp(log_gamma(s - 0.5))
    pref = cmath.exp(0.5 * math.log(math.pi) + (1.0 - 2.0 * s) * math.log(b) - log_gamma(s))
    return pref * integral


def sum_tail_loop(p: np.ndarray, a, b, start, log_scale) -> np.ndarray:
    """sum_{k >= start} (((k+a)^2 + b^2) e^-log_scale)^-p by Euler-Maclaurin, as `model_kernels._sum_tail`."""
    v0 = start + a
    q0 = v0 * v0 + b * b
    r = (b / v0) ** 2
    integral = np.zeros(np.broadcast(p, r).shape, dtype=complex)
    binom = np.ones_like(integral)
    for m in range(200):
        term = binom * r**m / (2.0 * p + 2.0 * m - 1.0)
        integral += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(integral)):
            break
        binom = binom * (-p - m) / (m + 1.0)
    integral *= v0 * np.exp(-p * (2.0 * np.log(v0) - log_scale))
    alpha, beta = 2.0 * v0 / q0, 1.0 / q0
    e_prev, e = np.ones_like(integral), -p * alpha
    corr = np.zeros_like(integral)
    for j in range(1, 2 * len(specfun.BERNOULLI)):
        if j % 2:
            corr += specfun.BERNOULLI[j // 2] / (j + 1) * e
        e_prev, e = e, -(alpha * (p + j) * e + beta * (2.0 * p + j - 1.0) * e_prev) / (j + 1)
    return integral + np.exp(-p * (np.log(q0) - log_scale)) * (0.5 - corr)
