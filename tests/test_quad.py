"""The rules of `_quad`: Gauss-Legendre panels, fixed and adaptively bisected, and the trapezoid rule."""

import math
import time

import numpy as np
import pytest

from resonance_lab import _quad
from resonance_lab.errors import QuadratureError


class TestAdaptive:
    def test_smooth_integrand(self):
        got = _quad.gauss_legendre_adaptive(np.sin, 0.0, math.pi, 1e-12)
        assert abs(got - 2.0) <= 1e-14

    def test_peak_needs_bisection(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return 1.0 / (x * x + 1e-4)

        got = _quad.gauss_legendre_adaptive(f, -1.0, 1.0, 1e-12)
        want = 200.0 * math.atan(100.0)
        assert abs(got - want) <= 1e-12 * want
        assert len(calls) > 2  # more than the first panel

    def test_integrand_that_never_settles(self):
        t0 = time.perf_counter()
        with pytest.raises(QuadratureError):
            _quad.gauss_legendre_adaptive(lambda x: np.sin(1e12 * x), 0.0, 1.0, 1e-12)
        assert time.perf_counter() - t0 < 1.0

    def test_two_array_calls_per_panel(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-50.0 * x * x)

        _quad.gauss_legendre_adaptive(f, -3.0, 3.0, 1e-12)
        # each panel takes the 15-node rule, then the 31-node rule
        assert len(sizes) > 2 and sizes == [15, 31] * (len(sizes) // 2)


class TestPanels:
    def test_one_call_on_every_node(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(x)

        got = _quad.gauss_legendre_panels(f, 0.0, 2.0, 0.5)
        assert abs(got - math.sin(2.0)) <= 1e-15
        assert sizes == [4 * 24]

    def test_empty_interval(self):
        assert _quad.gauss_legendre_adaptive(np.cos, 1.0, 1.0, 1e-12) == 0.0


class TestTrapezoid:
    def test_gaussian(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x * x)

        got = _quad.trapezoid(f, -7.0, 7.0, 0.5, 1e-13)
        assert abs(got - math.sqrt(math.pi)) <= 1e-15
        # the first step's 29 nodes, then only the new midpoints of each halving
        assert sizes[0] == 29 and sizes[1:] == [28 * 2**i for i in range(len(sizes) - 1)]

    def test_node_budget(self):
        t0 = time.perf_counter()
        with pytest.raises(QuadratureError, match="not settled"):
            _quad.trapezoid(lambda x: np.sin(1e12 * x), 0.0, 1.0, 0.5, 1e-13)
        assert time.perf_counter() - t0 < 1.0

    def test_cancellation_floor(self):
        # the integral of (1 - 2x^2) e^-x^2 is 0: no digit of it is above the rounding of |f|'s
        f = lambda x: (1.0 - 2.0 * x * x) * np.exp(-x * x)
        with pytest.raises(QuadratureError, match="cancels"):
            _quad.trapezoid(f, -7.0, 7.0, 0.5, 1e-13)
        # next to a value of size 1, the same sum is accurate enough
        assert abs(_quad.trapezoid(f, -7.0, 7.0, 0.5, 1e-13, 1.0)) <= 1e-15
