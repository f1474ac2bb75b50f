"""Small Gauss-Legendre quadrature helpers (fixed panels and adaptive)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

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


def gauss_legendre_panels(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, width: float, order: int = 24
) -> complex:
    """Integrate f over [a, b] with fixed-width panels of Gauss-Legendre nodes.

    f takes an array of nodes and returns its values there; it is called
    once, on the nodes of every panel.
    """
    x, w = _nodes(order)
    n_panels = max(1, int(np.ceil((b - a) / width)))
    half = 0.5 * (b - a) / n_panels
    mids = a + half * np.arange(1.0, 2.0 * n_panels, 2.0)
    values = f(np.add.outer(mids, half * x))
    return complex(half * np.sum(values @ w))


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
