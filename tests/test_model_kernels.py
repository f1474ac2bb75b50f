"""Model kernels: images vs Fourier cross-checks, mode functions, lattice sums."""

import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import fourier_reference as fref
import images_reference as ref
import sxi_reference
from verify_reference import mode_tolerance
from resonance_lab import model_kernels as mk
from resonance_lab.errors import DomainError, OverflowBudgetError, PoleError, QuadratureError, TruncationError
from resonance_lab.geometry import TWO_PI, CylCoord, HPoint, cyl_to_plane, sigma
from resonance_lab.twist import TwistSpec

S_REF = 2.0 + 0.3j
ELL = 1.0
TWIST = TwistSpec.from_angles([(0.25, 1), (0.5, 1)])  # diag(i, -1)


def sample_pair(rng, r_lo, r_hi, ell, min_sigma=1.05, min_dr=0.15):
    # kernels are off-diagonal objects; near-coincident r slows the mode
    # sum without testing anything new (near-diagonal evaluation is out
    # of scope), so keep a minimum radial separation
    while True:
        c1 = CylCoord(rng.uniform(r_lo, r_hi), rng.uniform(0.0, TWO_PI))
        c2 = CylCoord(rng.uniform(r_lo, r_hi), rng.uniform(0.0, TWO_PI))
        if abs(c1.r - c2.r) < min_dr:
            continue
        if sigma(cyl_to_plane(c1, ell), cyl_to_plane(c2, ell)) > min_sigma:
            return c1, c2


class TestCylinderKernel:
    def test_images_vs_fourier(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            c1, c2 = sample_pair(rng, -2.0, 2.0, ELL)
            ki = mk.cyl_kernel_images(S_REF, ELL, TWIST, [(c1, c2)])[0]
            kf = mk.cyl_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
            assert np.max(np.abs(ki - kf) / np.abs(ki)) < 1e-6

    def test_equivariance(self):
        # raw image sums at z and e^ell z differ by the eigenvalue
        rng = np.random.default_rng(52)
        lams = np.array([cls.eigenvalue for cls in TWIST.angles])
        for _ in range(5):
            z = HPoint(rng.uniform(-1, 1), rng.uniform(0.8, 2.0))
            w = HPoint(rng.uniform(-1, 1), rng.uniform(2.5, 4.0))
            shifted = HPoint.from_complex(math.exp(ELL) * z.z)
            a = mk.cyl_class_images(S_REF, ELL, TWIST.angles, [(shifted, w)])[0]
            b = lams * mk.cyl_class_images(S_REF, ELL, TWIST.angles, [(z, w)])[0]
            assert np.max(np.abs(a - b)) < 1e-8

    def test_conjugate_symmetry(self):
        # K_s(z, z')* = K_{s bar}(z', z) per class (unitary twist)
        z, w = HPoint(0.3, 1.1), HPoint(-0.5, 2.2)
        a = np.conj(mk.cyl_class_images(S_REF, ELL, TWIST.angles, [(z, w)])[0])
        b = mk.cyl_class_images(S_REF.conjugate(), ELL, TWIST.angles, [(w, z)])[0]
        assert np.max(np.abs(a - b)) < 1e-8

    def test_real_s_hermitian(self):
        z, w = HPoint(0.3, 1.1), HPoint(-0.5, 2.2)
        a = np.conj(mk.cyl_class_images(2.5, ELL, TWIST.angles, [(z, w)])[0])
        b = mk.cyl_class_images(2.5, ELL, TWIST.angles, [(w, z)])[0]
        assert np.max(np.abs(a - b)) < 1e-9

    def test_fundamental_domain_reduction(self):
        # public kernel is equivariant through the reduction word: three
        # windings of phi move z to e^{3 ell} z
        c1, c2 = CylCoord(0.3, 1.4), CylCoord(-0.5, 4.1)
        base = mk.cyl_kernel_images(S_REF, ELL, TWIST, [(c1, c2)])[0]
        moved = mk.cyl_kernel_images(S_REF, ELL, TWIST, [(CylCoord(0.3, 1.4 + 3 * TWO_PI), c2)])[0]
        for j, cls in enumerate(TWIST.angles):
            assert abs(moved[j] - cls.eigenvalue**3 * base[j]) < 1e-8

    def test_convergence_abscissa(self):
        pair = [(CylCoord(0.0, 1.0), CylCoord(0.5, 2.0))]
        with pytest.raises(DomainError):
            mk.cyl_kernel_images(0.05, ELL, TWIST, pair)
        t_mod = TwistSpec.from_angles([(0.0, 1)], moduli=[2.0])
        with pytest.raises(DomainError):
            mk.cyl_kernel_images(1.9, ELL, t_mod, pair)

    def test_non_unitary_twist(self):
        # diagonalizable monodromy with modulus e^0.8: kernel finite and
        # equal to the per-image reference loop at a tail far below it
        t = TwistSpec.from_angles([(0.25, 1)], moduli=[0.8])
        c1, c2 = CylCoord(0.2, 1.0), CylCoord(0.9, 2.5)
        a = mk.cyl_kernel_images(1.2, ELL, t, [(c1, c2)])[0]
        b = ref.cyl_kernel_images(1.2, ELL, t, cyl_to_plane(c1, ELL), cyl_to_plane(c2, ELL), ref.Config(tail_tol=1e-20))
        assert np.isfinite(a.view(float)).all()
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_truncation_budget_error(self, monkeypatch):
        # ell = 1e-4 needs about 2e6 images at s = 0.2: TruncationError
        # before the first g_s call
        def no_g_s(*args):
            raise AssertionError("g_s ran before the image budget was checked")

        monkeypatch.setattr(mk, "_g_s_rows", no_g_s)
        t0 = time.perf_counter()
        with pytest.raises(TruncationError, match="more than 10000"):
            mk.cyl_kernel_images(0.2, 1e-4, TwistSpec.trivial(), [(CylCoord(0.0, 1.0), CylCoord(0.5, 2.0))])
        assert time.perf_counter() - t0 < 0.1

    def test_no_classes(self):
        # a twist without classes has an empty kernel on every image route
        empty = TwistSpec(())
        c1, c2 = CylCoord(0.2, 1.0), CylCoord(0.9, 2.5)
        assert mk.cyl_kernel_images(S_REF, ELL, empty, [(c1, c2)]).shape == (1, 0)
        assert mk.funnel_kernel(S_REF, ELL, empty, [(c1, c2)]).shape == (1, 0)
        assert mk.cusp_kernel_images(S_REF, None, empty, [(c1, c2)]).shape == (1, 0)

    def test_twist_phase(self):
        c1, c2 = CylCoord(-0.4, 2.0), CylCoord(0.8, 1.1)
        base = mk.cyl_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
        shifted = mk.cyl_kernel_fourier(S_REF, ELL, TWIST, [(CylCoord(-0.4, 2.0 + TWO_PI), c2)])[0]
        for j, cls in enumerate(TWIST.angles):
            phase = cmath.exp(2j * math.pi * cls.theta)
            assert abs(shifted[j] - phase * base[j]) <= 1e-12 * abs(base[j])

    def test_untwisted_cosine_pairing(self):
        # theta = 0, phi = phi': k and -k mode contributions coincide
        t0 = TwistSpec.trivial()
        r, r2 = 0.6, 1.7
        for k in (1, 2, 5):
            pos = mk.cyl_mode(S_REF, float(k), r, r2, ELL)
            neg = mk.cyl_mode(S_REF, float(-k), r, r2, ELL)
            assert pos == neg

    def test_increase_budget_stability(self, monkeypatch):
        # a mode tail tolerance 100 times tighter moves no class of any
        # end's Fourier synthesis by more than 10 times the looser one
        c1, c2 = CylCoord(0.5, 1.0), CylCoord(1.1, 4.0)
        ends = ("cylinder", "funnel", "cusp")
        fa = [mk.kernel(end, "fourier", S_REF, ELL, TWIST, [(c1, c2)])[0] for end in ends]
        monkeypatch.setattr(mk, "FOURIER_TAIL_TOL", mk.FOURIER_TAIL_TOL / 100.0)
        for end, a in zip(ends, fa):
            b = mk.kernel(end, "fourier", S_REF, ELL, TWIST, [(c1, c2)])[0]
            assert np.all(np.abs(a - b) <= 1e-11 * np.abs(b)), end
        # same for the image sums: a series bound 100 times tighter moves
        # no class by more than the looser bound
        ia = mk.cyl_kernel_images(S_REF, ELL, TWIST, [(c1, c2)])[0]
        monkeypatch.setattr(mk, "SERIES_TOL", mk.SERIES_TOL / 100.0)
        ib = mk.cyl_kernel_images(S_REF, ELL, TWIST, [(c1, c2)])[0]
        assert np.all(np.abs(ia - ib) <= 1e-15 * np.abs(ib))


class TestTruncation:
    """Each tail rule of the shared truncation loop, up to its failure."""

    @pytest.mark.parametrize("route", ["cylinder", "funnel", "cusp"])
    def test_fourier_mode_budget_error(self, monkeypatch, route):
        monkeypatch.setattr(mk, "_MAX_FOURIER_MODES", 5)
        c1, c2 = CylCoord(0.6, 1.0), CylCoord(0.9, 2.5)
        with pytest.raises(TruncationError, match="needs more than 5 modes"):
            if route == "cusp":
                mk.cusp_kernel(S_REF, None, TWIST, [(c1, c2)])[0]
            elif route == "funnel":
                mk.funnel_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
            else:
                mk.cyl_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    def test_fourier_mode_cap_past_the_estimate(self, monkeypatch, route):
        # the pair's estimate, about 25 modes, is within twice the cap, and its
        # 19 modes pass the cap in the sum itself
        monkeypatch.setattr(mk, "_MAX_FOURIER_MODES", 15)
        c1, c2 = CylCoord(0.6, 1.0), CylCoord(0.9, 2.5)
        fourier = mk.funnel_kernel_fourier if route == "funnel" else mk.cyl_kernel_fourier
        with pytest.raises(TruncationError, match="needs more than 15 modes$"):
            fourier(S_REF, ELL, TWIST, [(c1, c2)])

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    @pytest.mark.parametrize("r,r2", [(0.3, 0.3005), (0.5, 0.5005), (0.3, 0.3)])
    def test_fourier_mode_estimate_fails_fast(self, route, r, r2):
        # about 12,000 modes, and none ever for equal r: these ran every mode
        # up to the cap, for 6-17 s, before they failed
        fourier = mk.funnel_kernel_fourier if route == "funnel" else mk.cyl_kernel_fourier
        pairs = [(CylCoord(0.6, 1.0), CylCoord(0.9, 2.5)), (CylCoord(r, 1.0), CylCoord(r2, 2.0))]
        t0 = time.perf_counter()
        with pytest.raises(TruncationError, match=f"needs more than 3000 modes at r = {r:g}, r' = {r2:g}"):
            fourier(S_REF, ELL, TWIST, pairs)
        assert time.perf_counter() - t0 < 0.2

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    def test_fourier_mode_estimate_lets_a_close_pair_through(self, route):
        # dr = 0.01 sums about 430 modes against an estimate of about 600
        ki, kf = (mk.kernel(route, m, S_REF, ELL, TWIST, [(CylCoord(0.3, 1.0), CylCoord(0.31, 2.0))]) for m in ("images", "fourier"))
        assert np.max(np.abs(ki - kf) / np.abs(ki)) < 1e-8

    @pytest.mark.parametrize("end,method", [("disc", "images"), ("cusp", "both")])
    def test_kernel_without_route(self, end, method):
        with pytest.raises(DomainError, match="no kernel route"):
            mk.kernel(end, method, S_REF, ELL, TWIST, [(CylCoord(0.6, 1.0), CylCoord(0.9, 2.5))])[0]

    @pytest.mark.parametrize("route", ["cylinder", "funnel", "cusp"])
    @pytest.mark.parametrize("phi2", [1.0, 1.0 + TWO_PI])
    def test_fourier_coinciding_points_fail_fast(self, route, phi2):
        # the same point, also one full turn later, has no convergent mode sum
        s, t = 1.5 + 0.5j, TwistSpec.trivial()
        c1, c2 = CylCoord(0.7, 1.0), CylCoord(0.7, phi2)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="distinct points"):
            if route == "cusp":
                mk.cusp_kernel(s, None, t, [(c1, c2)])[0]
            elif route == "funnel":
                mk.funnel_kernel_fourier(s, ELL, t, [(c1, c2)])[0]
            else:
                mk.cyl_kernel_fourier(s, ELL, t, [(c1, c2)])[0]
        assert time.perf_counter() - t0 < 0.1


class TestCylinderModes:
    def test_ode_residual(self):
        om = TWO_PI / ELL
        h = 1e-3
        rng = np.random.default_rng(53)
        for _ in range(10):
            kap = rng.uniform(-2, 2)
            r2 = rng.uniform(-1.5, 2.5)
            r = r2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2)
            f = lambda rr: mk.cyl_mode(S_REF, kap, rr, r2, ELL)
            d2 = (f(r + h) - 2 * f(r) + f(r - h)) / h**2
            d1 = (f(r + h) - f(r - h)) / (2 * h)
            resid = (
                -d2
                - math.tanh(r) * d1
                - S_REF * (1 - S_REF) * f(r)
                + om**2 * kap**2 / math.cosh(r) ** 2 * f(r)
            )
            assert abs(resid) < 1e-4

    def test_large_r_asymptotic(self):
        # v_kappa(s; r) ~ 2^s e^{-rs} / Gamma(s + 1/2) at r = 12, within 1%
        from resonance_lab.specfun import log_gamma

        q = TWO_PI / ELL * 1.25
        v = mk.v_profile(S_REF, q, 12.0)
        asym = cmath.exp(S_REF * math.log(2.0) - 12.0 * S_REF - log_gamma(S_REF + 0.5))
        assert abs(v / asym - 1.0) < 0.01

    def test_symmetry_in_arguments(self):
        assert mk.cyl_mode(S_REF, 0.75, 0.4, 1.9, ELL) == mk.cyl_mode(
            S_REF, 0.75, 1.9, 0.4, ELL
        )

    def test_kappa_sign_symmetry(self):
        assert mk.cyl_mode(S_REF, 1.25, 0.3, 1.0, ELL) == mk.cyl_mode(
            S_REF, -1.25, 0.3, 1.0, ELL
        )

    def test_profile_domain_guard(self):
        with pytest.raises(DomainError):
            mk.v_profile(S_REF, 1.0, -4.0)

    def test_high_frequency_underflow_is_zero(self):
        # far above the decay scale the mode is a true zero, not garbage
        v = mk.cyl_mode(S_REF, 400.0, 0.5, 1.5, ELL)
        assert v == 0.0


class TestModeArrays:
    """Mode functions over arrays of (kappa, r, r'), against the per-mode reference
    (`fourier_reference`), one math and cmath call per element."""

    N = 120

    def _arrays(self, funnel):
        rng = np.random.default_rng(57)
        lo, hi = (0.0, 3.8) if funnel else (-2.7, 3.7)  # profile arguments up to 0.998
        r, r2 = rng.uniform(lo, hi, self.N), rng.uniform(lo, hi, self.N)
        if funnel:
            r[:4] = 0.0
            r2[4:6] = 0.0
        return rng.uniform(-2.5, 2.5, self.N), r, r2

    @pytest.mark.parametrize("name", ["cyl_mode", "funnel_mode", "poisson_mode"])
    @pytest.mark.parametrize("s", [S_REF, 0.3 - 0.6j])
    @pytest.mark.parametrize("shared_kappa", [False, True])
    def test_against_scalar_calls(self, name, s, shared_kappa):
        from resonance_lab import scattering as sc

        mode = getattr(sc if name == "poisson_mode" else mk, name)
        kappa, r, r2 = self._arrays(name != "cyl_mode")
        if shared_kappa:
            kappa = 1.75
        coords = (r,) if name == "poisson_mode" else (r, r2)
        got = mode(s, kappa, *coords, ELL)
        assert got.shape == r.shape
        want_mode = self._poisson_reference if name == "poisson_mode" else getattr(fref, name)
        for j in range(self.N):
            kj = float(np.broadcast_to(kappa, r.shape)[j])
            cj = [float(c[j]) for c in coords]
            want = want_mode(s, kj, *cj, ELL)
            if name != "cyl_mode" and min(cj) == 0.0:
                assert want == 0.0 and got[j] == 0.0
                continue
            assert abs(got[j] - want) <= mode_tolerance(name, s, kj, *cj) * abs(want), (j, cj)

    @staticmethod
    def _poisson_reference(s, kappa, r, ell):
        """(1/ell) beta_kappa(s) v0(s; r) / Gamma(s + 1/2) from the reference's pieces."""
        from resonance_lab.specfun import rgamma

        q = TWO_PI / ell * abs(kappa)
        v0 = fref._v0_profile_scaled(s, q, r)
        return fref._assemble_mode(fref.log_beta_kappa(s, q), v0, (1.0, 0.0)) * rgamma(s + 0.5) / ell

    def test_scalar_r_against_array_r2(self):
        r2 = np.array([0.2, 1.4, 2.9])
        got = mk.cyl_mode(S_REF, 0.75, 0.9, r2, ELL)
        want = [mk.cyl_mode(S_REF, 0.75, 0.9, float(x), ELL) for x in r2]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_domain_checks_read_every_element(self):
        from resonance_lab import scattering as sc

        with pytest.raises(DomainError, match="r >= 0"):
            mk.funnel_mode(S_REF, 1.0, np.array([0.5, -0.1]), 1.0, ELL)
        with pytest.raises(DomainError, match="r >= 0"):
            sc.poisson_mode(S_REF, 1.0, np.array([0.5, -0.1]), ELL)
        with pytest.raises(DomainError, match="series guard"):
            mk.cyl_mode(S_REF, 1.0, np.array([0.5, 3.6]), 3.7, ELL)
        with pytest.raises(DomainError, match="series guard"):
            mk.funnel_mode(S_REF, 1.0, 4.3, np.array([1.0, 4.2]), ELL)

    def test_profile_guard_names_its_bound(self):
        # (1 - tanh r)/2 <= 1 - 1e-3 holds down to r = -0.5 log((1 - 1e-3)/1e-3) = -3.453
        with pytest.raises(DomainError, match=r"needs r >= -3\.453"):
            mk.v_profile(S_REF, 1.0, -3.5)
        assert np.isfinite(mk.v_profile(S_REF, 1.0, -3.4))
        assert np.isfinite(mk.cyl_mode(S_REF, 1.0, 3.4, 3.6, ELL))


class TestFunnelKernel:
    def test_dirichlet_boundary(self):
        assert mk.funnel_mode(S_REF, 0.25, 0.0, 1.3, ELL) == 0.0
        assert mk.v0_profile(S_REF, 1.0, 0.0) == 0.0

    def test_images_vs_fourier(self):
        rng = np.random.default_rng(54)
        for _ in range(8):
            c1, c2 = sample_pair(rng, 0.05, 2.2, ELL)
            ki = mk.funnel_kernel(S_REF, ELL, TWIST, [(c1, c2)])[0]
            kf = mk.funnel_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
            assert np.max(np.abs(ki - kf) / np.abs(ki)) < 1e-6

    def test_near_diagonal_regression(self):
        # slowly converging mode sum (r ~ r'): needs log-scaled profiles
        c1 = CylCoord(1.1776100337538342, 3.1039609370197336)
        c2 = CylCoord(1.2074494672455192, 6.139203243515375)
        ki = mk.funnel_kernel(S_REF, ELL, TWIST, [(c1, c2)])[0]
        kf = mk.funnel_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
        assert np.max(np.abs(ki - kf) / np.abs(ki)) < 1e-8

    def test_images_difference_structure(self):
        # funnel kernel = cylinder kernel minus reflected cylinder kernel
        c1, c2 = CylCoord(0.8, 1.2), CylCoord(1.4, 3.0)
        direct, refl = mk.cyl_kernel_images(S_REF, ELL, TWIST, [(c1, c2), (c1, CylCoord(-c2.r, c2.phi))])
        fun = mk.funnel_kernel(S_REF, ELL, TWIST, [(c1, c2)])[0]
        assert np.max(np.abs(fun - (direct - refl))) < 1e-12

    def test_pole_blowup(self):
        # |v~_kappa| grows like 1/eps toward s = -1 + i omega kappa
        kap = 0.25
        s_pole = complex(-1.0, TWO_PI / ELL * kap)
        mags = [
            abs(mk.funnel_mode(s_pole + 10.0**-m, kap, 0.7, 1.6, ELL))
            for m in range(1, 6)
        ]
        assert all(b > 5 * a for a, b in zip(mags[:-1], mags[1:]))

    def test_negative_r_rejected(self):
        with pytest.raises(DomainError):
            mk.funnel_mode(S_REF, 0.5, -0.1, 1.0, ELL)


class TestCuspKernel:
    def test_zero_mode_value(self):
        assert abs(mk.cusp_mode(2.0, 0.0, 1.0, 2.0) - 1.0 / 6.0) < 1e-15

    def test_zero_mode_pole(self):
        with pytest.raises(PoleError):
            mk.cusp_mode(0.5, 0.0, 1.0, 2.0)

    def test_continuity_at_kappa_zero(self):
        u0 = mk.cusp_mode(2.0, 0.0, 1.0, 2.0)
        u_small = mk.cusp_mode(2.0, 1e-4, 1.0, 2.0)
        assert abs(u_small - u0) < 1e-4

    def test_images_vs_fourier(self):
        rng = np.random.default_rng(55)
        done = 0
        while done < 10:
            c1 = CylCoord(rng.uniform(-0.5, 1.2), rng.uniform(0.0, TWO_PI))
            c2 = CylCoord(rng.uniform(-0.5, 1.2), rng.uniform(0.0, TWO_PI))
            if abs(math.exp(c1.r) - math.exp(c2.r)) < 0.15:
                continue
            done += 1
            ki = mk.cusp_kernel_images(3.0 + 0.2j, None, TWIST, [(c1, c2)])[0]
            kf = mk.cusp_kernel(3.0 + 0.2j, None, TWIST, [(c1, c2)])[0]
            assert np.max(np.abs(ki - kf) / np.abs(ki)) < 1e-9

    def test_zero_mode_factor_is_entire(self):
        # (2s-1) u_0(s; y, y') has vanishing d/d(s bar) on a grid near s = 1/2
        h = 1e-4
        fac = lambda s: (2.0 * s - 1.0) * mk.cusp_mode(s, 0.0, 1.3, 2.6)
        for s0 in (0.5 + 1e-3, 0.9 + 0.4j, 0.2 - 0.7j):
            dre = (fac(s0 + h) - fac(s0 - h)) / (2 * h)
            dim = (fac(s0 + 1j * h) - fac(s0 - 1j * h)) / (2 * h)
            assert abs(0.5 * (dre + 1j * dim)) < 1e-6

    def test_resolvent_pole_at_half(self):
        t_with_zero = TwistSpec.from_angles([(0.0, 1), (0.25, 1)])
        with pytest.raises(PoleError):
            mk.cusp_kernel(0.5, None, t_with_zero, [(CylCoord(0.0, 1.0), CylCoord(0.5, 2.0))])[0]
        # no theta = 0 class: regular at s = 1/2
        v = mk.cusp_kernel(0.5, None, TWIST, [(CylCoord(0.0, 1.0), CylCoord(0.5, 2.0))])[0]
        assert np.all(np.isfinite(v.view(float)))


class TestSXi:
    def test_closed_form(self):
        closed = (math.pi / 2.0) * (
            1.0 / math.tanh(math.pi) + math.pi / math.sinh(math.pi) ** 2
        )
        assert abs(mk.s_xi_direct(0.0, 2.0, 0.0, 1.0) - closed) < 1e-12
        assert abs(mk.s_xi_continued(0.0, 2.0, 0.0, 1.0) - closed) < 1e-12

    def test_brute_force_oracle(self):
        # plain 2M-term partial sum, Re s large enough for a clean tail
        s = 3.0
        want = sum(
            (abs(k + 0.3) ** 2 + 1.21) ** -s for k in range(-20000, 20001)
        )
        assert abs(mk.s_xi_direct(0.0, s, 0.3, 1.1) - want) < 1e-10

    def test_index_shift(self):
        for xia in (0.25, 0.7):
            xi = cmath.exp(2j * math.pi * xia)
            lhs = mk.s_xi_direct(xia, 1.5, 1.3, 1.0)
            rhs = mk.s_xi_direct(xia, 1.5, 0.3, 1.0) / xi
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    @pytest.mark.parametrize(
        "s,a,b,want",
        [
            (2.0, -100.0, 40.0, 2.4543692606170e-05),
            (1.2, 55.5, 20.0, 0.0378010309274362),
            (2.0, -1000.0, 300.0, 5.8177641733144e-08),
        ],
    )
    def test_direct_at_large_a(self, s, a, b, want):
        # summed at a itself, the window did not reach far enough past
        # k = -a for the tails, which gave -5.2e50, -1.2e64 and NaN here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = mk.s_xi_direct(0.0, s, a, b)
        assert abs(d - want) <= 1e-12 * want
        assert abs(d - mk.s_xi_continued(0.0, s, a, b)) <= 1e-12 * want

    def test_overlap_agreement(self):
        for s in (0.75, 1.5, 2.0 + 2.0j):
            for xia in (0.0, 0.1, 1.0 / 3.0, 0.5):
                for a, b in ((0.0, 1.0), (0.3, 0.5), (-1.7, 2.5)):
                    d = mk.s_xi_direct(xia, s, a, b)
                    c = mk.s_xi_continued(xia, s, a, b)
                    assert abs(d - c) / abs(d) < 1e-8

    @pytest.mark.parametrize("s", [12.0 + 0.3j, 20.0 + 0.3j])
    @pytest.mark.parametrize("xia", [0.0, 0.1, 0.25, 0.5])
    @pytest.mark.parametrize("a,b", [(0.3, 0.5), (0.3, 4.35)])
    def test_continued_at_large_s(self, s, xia, a, b):
        # the integral is about Gamma(s - 1/2), up to 1e17: an absolute
        # quadrature tolerance ran out of panels or took seconds here
        t0 = time.perf_counter()
        c = mk.s_xi_continued(xia, s, a, b)
        assert time.perf_counter() - t0 < 1.0
        d = mk.s_xi_direct(xia, s, a, b)
        assert abs(c - d) <= 1e-12 * abs(d)

    @pytest.mark.parametrize("xia", [0.0, 0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_against_per_node_reference(self, xia):
        # the former u-variable integrand, one node at a time, on a grid
        # where its first panel sees the whole integrand
        for s in (0.15 + 0.3j, 0.75, 1.5, 2.0 + 2.0j, -0.7 + 0.4j, -2.3 + 1.0j, 12.0 + 0.3j):
            for a, b in ((0.0, 1.0), (0.3, 0.5), (-1.7, 2.5)):
                want = sxi_reference.s_xi_continued(xia, s, a, b)
                assert abs(mk.s_xi_continued(xia, s, a, b) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("xia", [0.0, 0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_against_panel_reference(self, xia):
        # the adaptive Gauss-Legendre panels in log u, on the grid above
        for s in (0.15 + 0.3j, 0.75, 1.5, 2.0 + 2.0j, -0.7 + 0.4j, -2.3 + 1.0j, 12.0 + 0.3j):
            for a, b in ((0.0, 1.0), (0.3, 0.5), (-1.7, 2.5)):
                want = sxi_reference.s_xi_continued_panels(xia, s, a, b)
                assert abs(mk.s_xi_continued(xia, s, a, b) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("b", [0.01, 2e-3, 1e-3])
    def test_small_b(self, b):
        # the dual sum rises at u ~ pi^2 b^2: integrated in u, no node of
        # the first panel saw it and b = 0.01 read 1.3e-10 in place of 37;
        # the panels in log u were 3.4e-12 / 1.8e-9 / 1.6e-8 off here
        d = mk.s_xi_direct(0.25, 1.5, 0.3, b)
        assert abs(mk.s_xi_continued(0.25, 1.5, 0.3, b) - d) <= 1e-12 * abs(d)

    @pytest.mark.parametrize("im_s", [5.0, 10.0])
    def test_continued_at_moderate_imaginary_s(self, im_s):
        d = mk.s_xi_direct(0.25, 1.5 + 1j * im_s, 0.3, 1.0)
        assert abs(mk.s_xi_continued(0.25, 1.5 + 1j * im_s, 0.3, 1.0) - d) <= 1e-10 * abs(d)

    @pytest.mark.parametrize("im_s", [20.0, 40.0])
    def test_continued_fails_where_it_cancels(self, im_s):
        # the integral is about e^{-pi |Im s| / 2} of its integrand: it
        # returned values 1.2e-3 and 5.5e9 off the direct sum here
        with pytest.raises(QuadratureError, match="cancels"):
            mk.s_xi_continued(0.25, 1.5 + 1j * im_s, 0.3, 1.0)

    def test_memory_bounded_at_small_b(self):
        # a few frequencies per node whatever b is; once 56,000, in blocks
        tracemalloc.start()
        try:
            mk.s_xi_continued(0.25, 1.5, 0.3, 2e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_pole_witness(self):
        v = mk.s_xi_continued(0.0, 0.5 + 1e-4, 0.2, 1.0)
        assert abs(v) > 1e3
        with pytest.raises(PoleError):
            mk.s_xi_continued(0.0, 0.5, 0.2, 1.0)

    @pytest.mark.parametrize("s", [2.0 + 0.3j, 1.5, 0.8 + 1.0j])
    def test_subnormal_angle_is_theta_zero(self, s):
        # the contour tails' upper limit overflowed, with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = mk.s_xi_direct(5e-324, s, 0.3, 1.0)
        want = mk.s_xi_direct(0.0, s, 0.3, 1.0)
        assert abs(d - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("xia,b", [(5e-324, 1.0), (0.25, 1e-300), (5e-324, 5e-324)])
    def test_continued_below_the_normal_range_fails(self, xia, b):
        # its integral would start below the smallest normal u: it divided by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowBudgetError, match="smallest normal double"):
                mk.s_xi_continued(xia, 1.5, 0.3, b)

    def test_nonunit_xi_is_pole_free(self):
        v = mk.s_xi_continued(0.25, 0.5, 0.2, 1.0)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_direct_domain_guard(self):
        with pytest.raises(DomainError):
            mk.s_xi_direct(0.0, 0.55, 0.0, 1.0)


#: The per-image loop far past the engine's accuracy: an absolute tail of
#: 1e-22 against terms of 1e-6 and more.
REF_CFG = ref.Config(max_images=200_000, tail_tol=1e-22)
NON_UNITARY = TwistSpec.from_angles([(0.25, 1), (0.6, 1)], moduli=[0.4, -0.2])


class TestImagesAgainstReference:
    """The image engine against the per-image loop, per class, within 1e-11
    of max(|R|, 1e-4 sum_k |lam^k g_s(sigma_k)|): a class that cancels below
    1e-4 of its images is not asked for more than they allow."""

    @staticmethod
    def assert_close(got, want, magnitude):
        scale = np.maximum(np.abs(want), 1e-4 * magnitude)
        assert np.all(np.abs(got - want) <= 1e-11 * scale), (got, want, magnitude)

    @staticmethod
    def reference(s, ell, t, z, w, magnitudes=False):
        return np.array([
            ref.cyl_class_images(s, ell, cls.eigenvalue, z, w, REF_CFG, magnitudes)
            for cls in t.angles
        ])

    @pytest.mark.parametrize("ell", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("twist", [TwistSpec.trivial(), TWIST, NON_UNITARY], ids=["trivial", "diag", "non-unitary"])
    def test_grid(self, ell, twist):
        rng = np.random.default_rng(int(10 * ell) + 100 * len(twist.angles) + 7 * twist.is_unitary)
        low = twist.log_norm() / ell + 0.15
        for re_s, im_s in zip(np.linspace(low, 3.0, 3), (-2.7, 0.4, 3.0)):
            s = complex(re_s, im_s)
            for _ in range(2):
                # cyl_to_plane puts every point in the fundamental domain,
                # so the kernel is the raw class sum
                c1, c2 = sample_pair(rng, -1.5, 1.5, ell)
                z, w = cyl_to_plane(c1, ell), cyl_to_plane(c2, ell)
                got = mk.cyl_kernel_images(s, ell, twist, [(c1, c2)])[0]
                self.assert_close(
                    got, self.reference(s, ell, twist, z, w), self.reference(s, ell, twist, z, w, True)
                )
            if twist.is_unitary:
                c1, c2 = sample_pair(rng, 0.05, 2.0, ell)
                z = cyl_to_plane(c1, ell)
                w, w_refl = cyl_to_plane(c2, ell), cyl_to_plane(CylCoord(-c2.r, c2.phi), ell)
                magnitude = self.reference(s, ell, twist, z, w, True) + self.reference(
                    s, ell, twist, z, w_refl, True
                )
                want = ref.funnel_kernel(s, ell, twist, c1, c2, REF_CFG)
                self.assert_close(mk.funnel_kernel(s, ell, twist, [(c1, c2)])[0], want, magnitude)

    @pytest.mark.parametrize("s", [S_REF, 0.8 - 1.1j, 3.0 + 2.0j, 5.0 + 4.0j])
    def test_vanishing_class(self, s):
        # half a period apart in |z|, images k and -k-1 have the same sigma and
        # opposite signs at theta = 1/2: that class is zero, which no relative
        # bound can reach, and must come out at rounding level
        z = cyl_to_plane(CylCoord(0.3, 1.0), ELL)
        w = cyl_to_plane(CylCoord(-0.5, 1.0 + math.pi), ELL)
        quarter, half = mk.cyl_class_images(s, ELL, TWIST.angles, [(z, w)])[0]
        assert abs(half) <= 1e-15 * abs(quarter)

    @pytest.mark.parametrize(
        "s,c1,c2",
        [
            (2.609274 + 1.920115j, (1.894835, 0.886215), (-1.629364, 5.723137)),
            (1.280420 - 0.535166j, (0.999706, 1.740449), (-0.861779, 4.856381)),
        ],
    )
    def test_small_class_values(self, s, c1, c2):
        # |R| ~ 1e-5 of its images, where an absolute tail of 1e-10 left the
        # image route 3.7e-6 and 8.3e-7 off the Fourier route
        c1, c2 = CylCoord(*c1), CylCoord(*c2)
        ki = mk.cyl_kernel_images(s, ELL, TWIST, [(c1, c2)])[0]
        kf = mk.cyl_kernel_fourier(s, ELL, TWIST, [(c1, c2)])[0]
        assert np.max(np.abs(ki - kf) / np.abs(ki)) <= 1e-10


THREE_ANGLES = TwistSpec.from_angles([(0.0, 1), (0.25, 1), (0.5, 1)])


class TestFourierAgainstReference:
    """Block mode sums against the per-mode loop, whose profiles run through
    the scalar 2F1 loop: the same truncation, values within 1e-12."""

    ROUTES = {
        "cylinder": (mk.cyl_kernel_fourier, fref.cyl_kernel_fourier, 0.3),
        "funnel": (mk.funnel_kernel_fourier, fref.funnel_kernel_fourier, 0.6),
    }

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    @pytest.mark.parametrize("dr", [0.05, 0.2])
    def test_grid(self, route, dr):
        fast, slow, r = self.ROUTES[route]
        for s in (S_REF, 0.9 - 1.2j):
            c1, c2 = CylCoord(r, 1.0), CylCoord(r + dr, 2.5)
            got = fast(s, ELL, THREE_ANGLES, [(c1, c2)])[0]
            want = slow(s, ELL, THREE_ANGLES, c1, c2)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    def test_modes_of_an_array(self, route):
        # an array of kappa gives, mode by mode, the scalar call's value, up
        # to the rounding of chunks that the rows share
        mode = mk.cyl_mode if route == "cylinder" else mk.funnel_mode
        kappa = np.array([0.0, -0.25, 0.5, 3.0, 40.0, 400.0])
        got = mode(S_REF, kappa, 0.4, 1.1, ELL)
        want = [mode(S_REF, float(k), 0.4, 1.1, ELL) for k in kappa]
        assert all(isinstance(w, complex) for w in want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert got[-1] == 0.0

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    def test_each_size_once(self, monkeypatch, route):
        # for theta = 0 and 1/2 the two sides share their |kappa|: one
        # profile evaluation each, and no mode twice
        name = "cyl_mode" if route == "cylinder" else "funnel_mode"
        seen = []
        original = getattr(mk, name)

        def recording(s, kappa, *args):
            seen.extend(np.abs(kappa).tolist())
            return original(s, kappa, *args)

        monkeypatch.setattr(mk, name, recording)
        fast = self.ROUTES[route][0]
        c1, c2 = CylCoord(0.3, 1.0), CylCoord(0.5, 2.5)
        for theta in (0.0, 0.5):
            seen.clear()
            fast(S_REF, ELL, TwistSpec.from_angles([(theta, 1)]), [(c1, c2)])
            # both sides on one grid theta + j, each point once
            assert len(seen) == len(set(seen)) == max(seen) - min(seen) + 1

    @pytest.mark.parametrize("route", ["cylinder", "funnel"])
    @pytest.mark.parametrize("dr", [0.05, 0.2])
    def test_largest_mode_below_zero(self, route, dr):
        # theta = 3/4: |k + theta| is least at k = -1, so the largest mode of
        # the first table lies on the side k < 0, from whose magnitude both
        # sides of the sum start
        fast, slow, r = self.ROUTES[route]
        mode = mk.cyl_mode if route == "cylinder" else mk.funnel_mode
        assert np.argmax(np.abs(mode(S_REF, np.arange(-8, 9) + 0.75, r, r + dr, ELL))) == 7
        t = TwistSpec.from_angles([(0.75, 1), (0.25, 1)])
        c1, c2 = CylCoord(r, 1.0), CylCoord(r + dr, 2.5)
        got = fast(S_REF, ELL, t, [(c1, c2)])[0]
        want = slow(S_REF, ELL, t, c1, c2)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)

    def test_both_sides_in_each_round(self, monkeypatch):
        # r and r' 0.05 apart: each round after the first table advances
        # both sides of every sum in one profile call, two 2F1 engine calls:
        # the table and three rounds
        from resonance_lab import specfun

        calls = []
        engine = specfun._hyp2f1_rows
        monkeypatch.setattr(specfun, "_hyp2f1_rows", lambda *a: calls.append(a) or engine(*a))
        c1, c2 = CylCoord(0.3, 1.0), CylCoord(0.35, 2.5)
        got = mk.cyl_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
        assert len(calls) <= 8
        want = fref.cyl_kernel_fourier(S_REF, ELL, TWIST, c1, c2)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_first_blocks_in_one_call(self, monkeypatch):
        # r and r' 1.5 apart: every side of both classes ends inside its
        # first block, so one profile call evaluates every mode the sums take
        sizes = []
        original = mk.cyl_mode

        def recording(s, kappa, *args):
            sizes.append(np.size(kappa))
            return original(s, kappa, *args)

        monkeypatch.setattr(mk, "cyl_mode", recording)
        c1, c2 = CylCoord(-0.6, 1.0), CylCoord(0.9, 2.5)
        got = mk.cyl_kernel_fourier(S_REF, ELL, TWIST, [(c1, c2)])[0]
        # |k + 1/4| for |k| <= 8 are 17 sizes, |k + 1/2| only 9
        assert sizes == [26]
        want = fref.cyl_kernel_fourier(S_REF, ELL, TWIST, c1, c2)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
