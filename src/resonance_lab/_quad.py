"""The trapezoid rule of every route, and Gauss-Legendre panels for test oracles and the benchmark's tracer."""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

_MAX_PANELS = 4000

#: Most nodes of the trapezoid rule, and the largest share of |T + shift| its rounding floor may reach.
_MAX_NODES = 1 << 14
_MAX_FLOOR = 1e-9

_nodes = functools.cache(np.polynomial.legendre.leggauss)


def gauss_legendre_panels(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, width: float, order: int = 24
) -> complex:
    """Integrate f over [a, b] with fixed-width panels of Gauss-Legendre nodes.

    f takes an array of nodes and returns its values there; it is called
    once, on the nodes of every panel.  This is the one rule that evaluates f.
    """
    x, w = _nodes(order)
    n_panels = max(1, int(np.ceil((b - a) / width)))
    half = 0.5 * (b - a) / n_panels
    mids = a + half * np.arange(1.0, 2.0 * n_panels, 2.0)
    values = f(np.add.outer(mids, half * x))
    return complex(half * np.sum(values @ w))


def gauss_legendre_adaptive(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float
) -> complex:
    """Adaptive bisecting Gauss-Legendre integration of f over [a, b].

    Each panel takes the 15- and the 31-node rule, one panel each (two
    calls of f); a panel whose two rules differ by more than tol is
    bisected.  tol is scaled by max(1, |31-node rule over [a, b]|): it is
    relative above |I| = 1 and absolute below.  Raises QuadratureError when
    the panel budget is exhausted.
    """
    stack = [(a, b)]
    total = 0.0 + 0.0j
    used = 0
    while stack:
        lo, hi = stack.pop()
        coarse = gauss_legendre_panels(f, lo, hi, np.inf, 15)
        fine = gauss_legendre_panels(f, lo, hi, np.inf, 31)
        used += 1
        if used == 1:
            tol *= max(1.0, abs(fine))
        if used > _MAX_PANELS:
            raise QuadratureError("adaptive quadrature exhausted its panel budget")
        if abs(fine - coarse) <= tol or (hi - lo) < 1e-14 * (b - a):
            total += fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total


def trapezoid(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, h: float, tol: float, shift=0.0):
    """Trapezoid rule over [a, b] for an f negligible at a and b, h (made to divide b - a) halved until settled.

    On an f analytic in a strip the rule converges geometrically in 1/h
    (Trefethen & Weideman, SIAM Review 56, 2014), also from an end about
    which f is even.  f takes its nodes in ascending order and returns its
    values on the last axis, for one integral or a row each; each halving
    calls it once, on the new midpoints.  A row keeps the first sum T that
    differs from the last by at most tol |T + shift| plus the rounding floor
    eps h sum |f|, so no row depends on another.  Raises QuadratureError
    past _MAX_NODES nodes, or where that floor exceeds _MAX_FLOOR |T + shift|:
    f cancels too far for the sum to be trusted.
    """
    n = max(1, math.ceil((b - a) / h))
    h = (b - a) / n
    values = f(a + h * np.arange(n + 1))
    values[..., [0, -1]] *= 0.5
    total, mass = h * values.sum(axis=-1), h * np.abs(values).sum(axis=-1)
    live = np.ones(total.shape, dtype=bool)
    while live.any():
        if 2 * n + 1 > _MAX_NODES:
            raise QuadratureError(f"trapezoid rule not settled within {_MAX_NODES} nodes")
        mid = f(a + h * np.arange(0.5, n))
        h, n, last = 0.5 * h, 2 * n, total
        total = np.where(live, 0.5 * total + h * mid.sum(axis=-1), total)
        mass = np.where(live, 0.5 * mass + h * np.abs(mid).sum(axis=-1), mass)
        settled = np.abs(total - last) <= tol * np.abs(total + shift) + np.finfo(float).eps * mass
        live &= ~settled  # a NaN sum never settles
    bad = np.finfo(float).eps * mass > _MAX_FLOOR * np.abs(total + shift)
    for share in (np.abs(total + shift)[bad] / mass[bad])[:1].tolist():
        raise QuadratureError(f"integrand cancels to {share:.1e} of its magnitude")
    return complex(total) if total.ndim == 0 else total
