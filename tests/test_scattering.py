"""Scattering coefficients, Poisson modes and the functional equation."""

import cmath
import math

import numpy as np
import pytest

from resonance_lab import model_kernels as mk
from resonance_lab import scattering as sc
from resonance_lab import verify as vf
from resonance_lab.errors import PoleError

ELL = 1.0


class TestPoissonMode:
    def test_boundary_zero(self):
        assert sc.poisson_mode(2 + 0.3j, 1.0, 0.0, ELL) == 0.0

    def test_limit_of_funnel_mode(self):
        # cosh(r')^s funnel_mode / ell -> poisson_mode as r' -> infinity
        s = 2 + 0.3j
        r, r_far = 1.0, 20.0
        for kap in (0.25, 1.0, 2.5):
            lim = (
                cmath.exp(s * math.log(math.cosh(r_far)))
                * mk.funnel_mode(s, kap, r, r_far, ELL)
                / ELL
            )
            pm = sc.poisson_mode(s, kap, r, ELL)
            assert abs(lim - pm) / abs(pm) < 1e-3

    def test_kappa_sign_invariance(self):
        a = sc.poisson_mode(2 + 0.3j, 1.25, 0.8, ELL)
        b = sc.poisson_mode(2 + 0.3j, -1.25, 0.8, ELL)
        assert a == b

    def test_analytic_in_s(self):
        h = 1e-4
        f = lambda s: sc.poisson_mode(s, 0.75, 1.2, ELL)
        for s0 in (1.5 + 0.5j, 0.3 - 0.8j, 2.2 + 1.4j):
            dre = (f(s0 + h) - f(s0 - h)) / (2 * h)
            dim = (f(s0 + 1j * h) - f(s0 - 1j * h)) / (2 * h)
            assert abs(0.5 * (dre + 1j * dim)) < 1e-6


class TestScatteringCoeff:
    def test_inversion_identity(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 200:
            s = complex(rng.uniform(-2, 3), rng.uniform(-3, 3))
            kap = rng.uniform(-3, 3)
            try:
                prod = sc.scattering_coeff(s, kap, ELL) * sc.scattering_coeff(
                    1 - s, kap, ELL
                )
            except PoleError:
                continue
            if prod == 0.0:
                continue
            done += 1
            assert abs(prod - 1.0) < 1e-10

    def test_exact_zero_from_denominator_pole(self):
        # kappa = 0, s = 2: 1/Gamma(0)^2 forces an exact zero
        assert sc.scattering_coeff(2.0, 0.0, ELL) == 0.0

    def test_numerator_pole_raises(self):
        # kappa = 0, s = -1: Gamma((s+1)/2)^2 = Gamma(0)^2 in the numerator
        with pytest.raises(PoleError):
            sc.scattering_coeff(-1.0, 0.0, ELL)

    def test_kappa_sign_invariance(self):
        s = 0.8 + 1.3j
        assert sc.scattering_coeff(s, 1.7, ELL) == sc.scattering_coeff(s, -1.7, ELL)

    def test_critical_line_modulus(self):
        for t in (0.5, 2.0, 7.3):
            v = sc.scattering_coeff(0.5 + 1j * t, 1.0, ELL)
            assert abs(abs(v) - 1.0) < 1e-10


class TestFunctionalEquation:
    def test_reference_point_residual(self):
        assert sc.functional_equation_residual(0.7 + 0.4j, 1.0, 1.0, 2.0, ELL) < 1e-6

    def test_swap_invariance(self):
        s, kap = 0.6 + 0.9j, 1.5
        a = sc.functional_equation_residual(s, kap, 0.7, 1.9, ELL)
        b = sc.functional_equation_residual(s, kap, 1.9, 0.7, ELL)
        assert abs(a - b) < 1e-12

    def test_relative_residual_on_grid(self):
        # |lhs - rhs| / |rhs| on a 5x5x5 grid: the ell^2 normalization holds
        # everywhere, not only at one reference point
        svals = (0.7 + 0.4j, 0.3 - 0.6j, 0.55 + 1.2j, 0.8 + 0.15j, 0.42 - 1.1j)
        kappas = (0.25, 0.5, 1.0, 1.75, 2.5)
        pairs = ((0.5, 1.5), (1.0, 2.0), (2.0, 0.7), (1.3, 1.3), (0.4, 2.6))
        worst = 0.0
        for s in svals:
            for kap in kappas:
                for r, r2 in pairs:
                    lhs, rhs = sc.functional_equation_sides(s, kap, r, r2, ELL)
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-6

    def test_relative_residual_ell_scaling(self):
        # the normalization scales as ell^2: other lengths need no new constant
        for ell in (0.6, 2.3):
            lhs, rhs = sc.functional_equation_sides(0.7 + 0.4j, 1.0, 1.0, 2.0, ell)
            assert abs(lhs - rhs) / abs(rhs) < 1e-9

    def test_scalar_kappa_broadcasts_over_r(self, monkeypatch):
        # one kappa against arrays of r and r': one scattering coefficient,
        # and per element what a call at each pair gives
        s, kap = 0.7 + 0.4j, 1.25
        r, r2 = np.array([0.5, 1.0, 2.0, 0.4]), np.array([1.5, 2.0, 0.7, 2.6])
        got = sc.functional_equation_residual(s, kap, r, r2, ELL)
        assert got.shape == r.shape
        for j in range(r.size):
            lhs, rhs = sc.functional_equation_sides(s, kap, float(r[j]), float(r2[j]), ELL)
            assert np.ndim(lhs) == np.ndim(rhs) == 0
            assert abs(got[j] - abs(lhs - rhs)) <= 1e-12 * abs(rhs)
        seen = []
        original = sc.scattering_coeff
        monkeypatch.setattr(sc, "scattering_coeff", lambda *a: seen.append(a[1]) or original(*a))
        sc.functional_equation_residual(s, kap, r, r2, ELL)
        assert seen == [kap]

    def test_residual_grid(self):
        for s in (0.7 + 0.4j, 0.45 + 0.9j):
            for kap in (0.5, 1.75):
                for r, r2 in ((0.5, 1.5), (2.0, 0.7)):
                    assert sc.functional_equation_residual(s, kap, r, r2, ELL) < 1e-6


class TestScatteringCheck:
    """verify's check_scattering skips pole draws only, and a bounded number of them."""

    def test_poles_on_every_draw_fail(self, monkeypatch):
        def pole(*args):
            raise PoleError("pole")

        monkeypatch.setattr(sc, "scattering_coeff", pole)
        result = vf.check_scattering()
        assert not result.passed
        assert result.detail == "only 0 of 200 products S(s) S(1-s) formed in 1000 draws"

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise TypeError("broken")

        monkeypatch.setattr(sc, "scattering_coeff", broken)
        with pytest.raises(TypeError):
            vf.check_scattering()
