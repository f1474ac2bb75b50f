"""Free resolvent kernel g_s and the defining PDE."""

import cmath
import math

import numpy as np
import pytest

import free_resolvent_reference as ref
from resonance_lab import free_resolvent as fr
from resonance_lab import specfun as sf
from resonance_lab.errors import DiagonalError, PoleError
from resonance_lab.geometry import HPoint, sigma
from sl2_action import act, dilation

S_GRID = [0.15, 0.8 + 1.4j, 2 + 0.3j, 3 + 15j, 5 + 10j, 20 - 3j, 60 + 40j, 200 + 1j, -0.5, -1.5, -2.3 + 0.4j]
SIGMA_GRID = [1 + 1.1e-3, 1.01, 1.05, 1.2, 1.5, 2.0, 4.0, 10.0, 1e3, 1e6]


def g_series_oracle(s, x, n_terms=400):
    """Independent series oracle: (1/4pi) sum Gamma(s+n)^2/(n! Gamma(2s+n)) x^-(s+n)."""
    total = 0.0 + 0.0j
    for n in range(n_terms):
        total += (
            cmath.exp(
                2.0 * sf.log_gamma(s + n)
                - math.lgamma(n + 1)
                - sf.log_gamma(2.0 * s + n)
            )
            * x ** -(s + n)
        )
    return total / (4.0 * math.pi)


class TestGs:
    def test_log_identity_at_s_one(self):
        # F(1,1;2;w) = -log(1-w)/w gives g_1(x) = log(x/(x-1))/(4 pi)
        for x in (2.0, 3.0, 11.5):
            want = math.log(x / (x - 1.0)) / (4.0 * math.pi)
            assert abs(fr.g_s(1.0, x) - want) < 1e-13

    def test_series_oracle_s2_x10(self):
        got = fr.g_s(2.0, 10.0)
        assert abs(got - g_series_oracle(2.0, 10.0)) < 1e-15
        assert abs(got - 1.472022078185424008793383e-4) < 1e-15  # frozen from the oracle

    def test_pole_growth_toward_zero(self):
        mags = [abs(fr.g_s(10.0**-m, 2.0)) for m in range(1, 7)]
        assert all(b > a for a, b in zip(mags[:-1], mags[1:]))
        assert mags[-1] > 1e4

    def test_pole_and_diagonal_errors(self):
        with pytest.raises(PoleError):
            fr.g_s(0.0, 2.0)
        with pytest.raises(PoleError):
            fr.g_s(-3.0, 2.0)
        with pytest.raises(DiagonalError):
            fr.g_s(2.0, 1.0005)


@pytest.mark.parametrize("s", [1e20, 1e20 + 5j, 1e300])
def test_gs_below_the_double_range_is_zero(s):
    # past |s log u| = 2^62 the Dekker error alone passed e^709 (OverflowError)
    for x in (1.01, 1.5, 2.0, 10.0, 1e6):
        assert fr.g_s(s, x) == 0.0


@pytest.mark.parametrize("s,x", [(-60.5, 1e2), (-40.5, 1e3), (-40.5, 1e6)])
def test_pole_start_past_the_normal_range(s, x):
    # s + 1/2 = -m far from the diagonal: the series alone, about z^(m+1),
    # is below the normal range while g_s is not, and the powers of two that
    # a double cannot hold go to the exponent (they were 1.2e-5 off and 0)
    import mpmath as mp

    with mp.workdps(40):
        s_, x_, n0 = mp.mpf(s), mp.mpf(x), int(0.5 - s)
        u = (mp.sqrt(x_) - mp.sqrt(x_ - 1)) ** 2
        # F~(s, 1/2; s + 1/2; u^2) from its first term, n0 = m + 1 (DLMF 15.2.3)
        f = mp.rf(s_, n0) * mp.rf(0.5, n0) / mp.factorial(n0) * u ** (2 * n0) * mp.hyp2f1(s_ + n0, n0 + 0.5, n0 + 1, u * u)
        want = complex(mp.gamma(s_) / (2 * mp.sqrt(mp.pi)) * u**s_ * f)
    assert abs(fr.g_s(s, x) - want) <= 1e-13 * abs(want)


class TestGsGrid:
    """g_s against mpmath and against its former formula, on a grid that
    reaches the diagonal guard, Re s = 200 and s + 1/2 in -N0."""

    @staticmethod
    def mp_g(s, x):
        """Q_{s-1}(cosh d) / (2 pi), cosh^2(d/2) = x, at 40 digits."""
        import mpmath as mp

        with mp.workdps(40):
            cosh_d = 2 * mp.mpf(x) - 1
            return complex(mp.legenq(mp.mpc(s) - 1, 0, cosh_d, type=3) / (2 * mp.pi))

    @pytest.mark.parametrize("s", S_GRID)
    def test_against_mpmath_and_slow_path(self, s):
        worst = worst_slow = 0.0
        for x in SIGMA_GRID:
            want, got, slow = self.mp_g(s, x), fr.g_s(s, x), ref.g_s(s, x)
            if abs(want) < 1e-290:  # below the normal range, as at s = 200+1i, x >= 10
                assert abs(got - want) <= 1e-300
                continue
            worst = max(worst, abs(got - want) / abs(want))
            worst_slow = max(worst_slow, abs(slow - want) / abs(want))
            assert abs(got - slow) <= 1e-12 * abs(slow)
        # past |s| = 20 the rounding grows with |s|: no worse than the former formula there
        assert worst <= (1e-14 if abs(s) <= 20 else worst_slow)

    def test_without_the_2f1_engine(self, monkeypatch):
        # g_s sums its series in u^2 in the series driver it shares with the
        # 2F1, not through the 2F1 engine: reg_hyp2f1_scaled is not called
        points = [(s, x) for s in (0.15, 2 + 0.3j, 60 + 40j) for x in (1.0011, 1.5, 1e3)]
        want = [fr.g_s(s, x) for s, x in points]

        def unused(*args):
            raise AssertionError("g_s called reg_hyp2f1_scaled")

        monkeypatch.setattr(sf, "reg_hyp2f1_scaled", unused)
        fr._series_start.cache_clear()
        assert [fr.g_s(s, x) for s, x in points] == want


class TestFreeKernel:
    def test_symmetry(self):
        s = 2 + 0.3j
        p, q = HPoint(0.2, 1.0), HPoint(-0.7, 2.5)
        assert fr.free_kernel(s, p, q) == fr.free_kernel(s, q, p)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(41)
        s = 1.5 - 0.8j
        for _ in range(20):
            p = HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            q = HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            if sigma(p, q) < 1.01:
                continue
            g = dilation(rng.uniform(-1, 1))
            a = fr.free_kernel(s, p, q)
            b = fr.free_kernel(s, act(g, p), act(g, q))
            assert abs(a - b) / abs(a) < 1e-10

    def test_conjugate_symmetry(self):
        s = 1.7 + 1.1j
        p, q = HPoint(0.4, 1.2), HPoint(-0.3, 2.0)
        a = fr.free_kernel(s.conjugate(), p, q)
        b = fr.free_kernel(s, p, q).conjugate()
        assert abs(a - b) / abs(a) < 1e-10

    def test_pde_residual(self):
        # -y^2 (d_xx + d_yy) u = s(1-s) u away from the diagonal, h = 1e-3
        s = 2 + 0.3j
        z2 = HPoint(0.1, 1.0)
        h = 1e-3
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            z = HPoint(rng.uniform(-2, 2), rng.uniform(0.4, 3.0))
            if 2.0 * math.acosh(math.sqrt(sigma(z, z2))) < 0.5:
                continue
            checked += 1
            u = lambda x, y: fr.free_kernel(s, HPoint(x, y), z2)
            uxx = (u(z.x + h, z.y) - 2 * u(z.x, z.y) + u(z.x - h, z.y)) / h**2
            uyy = (u(z.x, z.y + h) - 2 * u(z.x, z.y) + u(z.x, z.y - h)) / h**2
            resid = -z.y**2 * (uxx + uyy) - s * (1 - s) * u(z.x, z.y)
            assert abs(resid) < 1e-4


class TestAnalyticity:
    def test_cauchy_riemann_in_s(self):
        # finite-difference d/d(s bar) residual on a rectangle avoiding -N0
        h = 1e-4
        for s0 in (1.5 + 0.5j, 2.5 - 1.0j, 0.7 + 2.0j):
            for x in (1.5, 4.0):
                f = lambda s: fr.g_s(s, x)
                dre = (f(s0 + h) - f(s0 - h)) / (2 * h)
                dim = (f(s0 + 1j * h) - f(s0 - 1j * h)) / (2 * h)
                dbar = 0.5 * (dre + 1j * dim)
                assert abs(dbar) < 1e-6
