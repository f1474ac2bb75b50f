"""Half-plane geometry: sigma and end coordinates."""

import math

import numpy as np
import pytest

from resonance_lab import geometry as geo
from resonance_lab.errors import DomainError
from resonance_lab.geometry import CylCoord, HPoint
from sl2_action import act, dilation, translation


def random_sl2(rng):
    # products of dilations and translations stay in SL(2, R)
    g = np.eye(2)
    for _ in range(3):
        if rng.uniform() < 0.5:
            g = g @ dilation(rng.uniform(-1.5, 1.5))
        else:
            g = g @ translation(rng.uniform(-3.0, 3.0))
    return g


class TestSigma:
    def test_coincident(self):
        p = HPoint(0.7, 2.0)
        assert geo.sigma(p, p) == 1.0

    def test_displayed_formula_value(self):
        assert abs(geo.sigma(HPoint(0, 1), HPoint(0, 2)) - 1.125) < 1e-15

    def test_symmetry_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
            q = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
            assert geo.sigma(p, q) == geo.sigma(q, p)

    def test_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            g = random_sl2(rng)
            p = HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 4))
            q = HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 4))
            s1 = geo.sigma(p, q)
            s2 = geo.sigma(act(g, p), act(g, q))
            assert abs(s1 - s2) / s1 < 1e-10

    def test_lower_bound_and_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
            q = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
            assert geo.sigma(p, q) >= 1.0


class TestEndCoordinates:
    def test_cylinder_origin(self):
        z = geo.cyl_to_plane(CylCoord(0.0, 0.0), 1.0)
        assert abs(z.x) < 1e-15 and abs(z.y - 1.0) < 1e-15

    def test_cusp_origin(self):
        z = geo.cusp_to_plane(CylCoord(0.0, 0.0))
        assert (z.x, z.y) == (0.0, 1.0)

    def test_fundamental_domain_modulus(self):
        # |z| = e^{phi/omega} places phi in [0, 2 pi) onto 1 <= |z| < e^ell
        ell = 1.7
        for phi in (0.0, 1.0, 5.0):
            z = geo.cyl_to_plane(CylCoord(0.3, phi), ell)
            assert abs(abs(z.z) - math.exp(phi / (2 * math.pi / ell))) < 1e-12

    def test_metric_pullback(self):
        # finite-difference Jacobian oracle: pullback of (dx^2+dy^2)/y^2
        # equals dr^2 + omega^-2 cosh^2(r) dphi^2
        rng = np.random.default_rng(24)
        ell = 1.3
        omega = 2 * math.pi / ell
        h = 1e-6
        for _ in range(10):
            r, phi = rng.uniform(-1.5, 1.5), rng.uniform(0.3, 5.8)

            def pt(rr, pp):
                return geo.cyl_to_plane(CylCoord(rr, pp), ell)

            zr_p, zr_m = pt(r + h, phi), pt(r - h, phi)
            zp_p, zp_m = pt(r, phi + h), pt(r, phi - h)
            xr, yr = (zr_p.x - zr_m.x) / (2 * h), (zr_p.y - zr_m.y) / (2 * h)
            xp, yp = (zp_p.x - zp_m.x) / (2 * h), (zp_p.y - zp_m.y) / (2 * h)
            y = pt(r, phi).y
            g_rr = (xr * xr + yr * yr) / (y * y)
            g_rp = (xr * xp + yr * yp) / (y * y)
            g_pp = (xp * xp + yp * yp) / (y * y)
            assert abs(g_rr - 1.0) < 1e-6
            assert abs(g_rp) < 1e-6
            assert abs(g_pp - math.cosh(r) ** 2 / omega**2) < 1e-6 * max(1.0, g_pp)

    def test_reflection_is_conjugation(self):
        # r -> -r corresponds to z -> -conj(z)
        ell = 0.9
        for r, phi in [(0.7, 1.1), (2.0, 4.4)]:
            z = geo.cyl_to_plane(CylCoord(r, phi), ell).z
            w = geo.cyl_to_plane(CylCoord(-r, phi), ell).z
            assert abs(w - (-z.conjugate())) < 1e-12

    def test_phi_normalization_and_winding(self):
        c = CylCoord(0.5, 7.0)
        assert 0.0 <= c.phi < 2 * math.pi
        assert c.winding == 1
        assert abs(c.phi + 2 * math.pi - 7.0) < 1e-12
        c2 = CylCoord(0.5, -1.0)
        assert c2.winding == -1 and abs(c2.phi - (2 * math.pi - 1.0)) < 1e-12

    def test_phi_rounding_edges(self):
        # phi + 2 pi * winding must always reconstruct the raw angle
        for raw in (-1e-18, 2 * math.pi, -2 * math.pi, 4 * math.pi - 1e-16):
            c = CylCoord(0.0, raw)
            assert 0.0 <= c.phi < 2 * math.pi
            assert abs(c.phi + 2 * math.pi * c.winding - raw) < 1e-12

    def test_winding_below_2_to_62(self):
        # the difference of two windings must fit a 64-bit integer
        assert CylCoord(0.0, -2.89e19).winding == -4_599_577_855_355_775_488
        for phi in (2.9e19, -2.9e19):
            with pytest.raises(DomainError, match=r"must be below 2\^62"):
                CylCoord(0.0, phi)
        with pytest.raises(DomainError, match=r"must be below 2\^62"):
            CylCoord(0.0, 1.0, 2**62)

    @pytest.mark.parametrize("r,phi", [(0.2, math.inf), (0.2, math.nan), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_nonfinite_coordinates_rejected(self, r, phi):
        with pytest.raises(DomainError):
            CylCoord(r, phi)

    def test_overflowing_exponential_rejected(self):
        c = CylCoord(710.0, 1.0)
        with pytest.raises(DomainError):
            geo.cyl_to_plane(c, 1.0)
        with pytest.raises(DomainError):
            geo.cusp_to_plane(c)
        with pytest.raises(DomainError):
            geo.cyl_to_plane(CylCoord(0.2, 1.0), 1e300)

    def test_hpoint_validation(self):
        with pytest.raises(DomainError):
            HPoint(0.0, -1.0)
