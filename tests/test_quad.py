"""The rules of `_quad`: Gauss-Legendre panels, fixed and adaptive, and the trapezoid rule on one integral or on rows."""

import math
import time

import numpy as np
import pytest

from resonance_lab import _quad
from resonance_lab.errors import QuadratureError


def _one_integral_trapezoid(f, a, b, h, tol, shift=0.0):
    """The trapezoid rule as it was before it took rows: one integral, the same halvings and stopping rule."""
    n = max(1, math.ceil((b - a) / h))
    h = (b - a) / n
    values = f(a + h * np.arange(n + 1))
    values[[0, -1]] *= 0.5
    total, mass = h * values.sum(), h * np.abs(values).sum()
    while True:
        mid = f(a + h * np.arange(0.5, n))
        h, n, last = 0.5 * h, 2 * n, total
        total, mass = 0.5 * total + h * mid.sum(), 0.5 * mass + h * np.abs(mid).sum()
        if abs(total - last) <= tol * abs(total + shift) + np.finfo(float).eps * mass:
            return complex(total)


def _waves(c):
    """Rows e^(-c x^2) (cos 3x + i cos(x) / 2), even in x, for a column of c; one integral for a scalar c."""
    return lambda x: np.exp(-c * x * x) * (np.cos(3.0 * x) + 0.5j * np.cos(x))


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

    @pytest.mark.parametrize("shift", [0.0, 0.5 - 0.25j])
    def test_one_integral_unchanged(self, shift):
        # a 1-d integrand sums as it did before rows, bit for bit
        for c in (0.5, 1.0, 7.0):
            for a, b, h in ((-9.0, 9.0, 0.5), (0.0, 9.0, 0.3)):
                want = _one_integral_trapezoid(_waves(c), a, b, h, 1e-13, shift)
                assert _quad.trapezoid(_waves(c), a, b, h, 1e-13, shift) == want

    def test_rows_match_one_row_calls(self):
        # each row keeps the sum of its own halving, so that a rows call
        # gives every row bit for bit what a call on it alone gives
        c = np.array([[0.5], [1.0], [7.0], [40.0]])
        calls = {}

        def run(key, cs):
            f, calls[key] = _waves(cs), 0

            def counted(x):
                calls[key] += 1
                return f(x)

            return _quad.trapezoid(counted, -9.0, 9.0, 0.5, 1e-13)

        rows = run("rows", c)
        for j, cj in enumerate(c[:, 0].tolist()):
            one = run(j, c[j : j + 1])
            assert one.shape == (1,) and one[0] == rows[j]
            assert complex(one[0]) == _quad.trapezoid(_waves(cj), -9.0, 9.0, 0.5, 1e-13)
            want = math.sqrt(math.pi / cj) * complex(math.exp(-2.25 / cj), 0.5 * math.exp(-0.25 / cj))
            assert abs(rows[j] - want) <= 1e-14 * abs(want)
        # the rows settle at different halvings; the call runs until the last has
        assert calls[0] < calls[3] == calls["rows"]

    def test_one_cancelling_row_fails_the_call(self):
        # beside a row that settles at sqrt(pi), a row whose integral is 0
        # has no digit above its rounding
        f = lambda x: np.stack([np.exp(-x * x), (1.0 - 2.0 * x * x) * np.exp(-x * x)])
        with pytest.raises(QuadratureError, match="cancels"):
            _quad.trapezoid(f, -7.0, 7.0, 0.5, 1e-13)
