"""Cusp images by the near/far split: against Fourier synthesis, the per-image
reference loop, mpmath lattice tails, and its own symmetries and poles."""

import math
import re
import time

import numpy as np
import pytest

import images_reference as ref
import sxi_reference
from resonance_lab import model_kernels as mk
from resonance_lab.errors import DomainError, PoleError, TruncationError
from resonance_lab.geometry import CylCoord
from resonance_lab.twist import TwistSpec

ANGLES = (0.0, 0.01, 0.1, 0.25, 0.5, 0.9)
ALL_CLASSES = TwistSpec.from_angles([(th, 1) for th in ANGLES])
EXAMPLE = TwistSpec.from_angles([(0.25, 1), (0.5, 1)])  # diag(i, -1)
#: (r, phi) pairs, y = e^r: separated, y up to e^2, and 0.15 apart in y.
#: Pairs far apart in y and high up are left out: there the theta = 1/2
#: class is e^{-pi |y - y'|} of its images, whatever sums them.
PAIRS = (
    ((0.2, 1.0), (0.9, 2.5)),
    ((-0.3, 4.0), (0.6, 0.5)),
    ((1.85, 0.3), (2.0, 5.0)),
    ((0.0, 0.0), (math.log(1.15), 3.1)),
    ((math.log(3.0), 0.4), (math.log(3.15), 0.4 + 0.8 * math.pi)),
)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


class TestAgainstFourier:
    @pytest.mark.parametrize("s", [0.15 + 0.7j, 0.3 - 1.2j, 0.8 + 0.4j, 1.2 - 0.5j, 2.2 + 1.1j, 3.5 - 0.3j])
    def test_grid(self, s):
        for c1, c2 in PAIRS:
            c1, c2 = CylCoord(*c1), CylCoord(*c2)
            ki = mk.cusp_kernel_images(s, None, ALL_CLASSES, [(c1, c2)])[0]
            kf = mk.cusp_kernel(s, None, ALL_CLASSES, [(c1, c2)])[0]
            assert rel_diff(ki, kf) <= 1e-9, (s, c1, c2)

    def test_found_op(self):
        # diag(i, -1) at |R| ~ 2.6e-8, where an absolute image tail of 1e-10
        # reached only 2.1e-4 relative
        s = 2.951194 - 0.505879j
        c1, c2 = CylCoord(1.097654, 4.753892), CylCoord(-0.367853, 1.613037)
        ki = mk.cusp_kernel_images(s, None, EXAMPLE, [(c1, c2)])[0]
        assert rel_diff(ki, mk.cusp_kernel(s, None, EXAMPLE, [(c1, c2)])[0]) <= 1e-9
        assert np.min(np.abs(ki)) < 1e-7


class TestAgainstReference:
    """The per-image loop at an absolute tail of 1e-14, where it is cheap."""

    @pytest.mark.parametrize("s", [2.5 + 0.4j, 3.5 - 1.1j])
    def test_agrees(self, s):
        t = TwistSpec.from_angles([(0.0, 1), (0.25, 1), (0.9, 1)])
        cfg = ref.Config(max_images=40_000, tail_tol=1e-14)
        for c1, c2 in PAIRS[:2]:
            c1, c2 = CylCoord(*c1), CylCoord(*c2)
            kr = ref.cusp_kernel_images(s, t, c1, c2, cfg)
            assert rel_diff(mk.cusp_kernel_images(s, None, t, [(c1, c2)])[0], kr) <= 1e-11

    def test_cusp_images_budget_error(self):
        cfg = ref.Config(max_images=10, tail_tol=1e-14)
        msg = "cusp images not below tail_tol=1e-14 within 10 images"
        with pytest.raises(TruncationError, match=re.escape(msg)):
            ref.cusp_kernel_images(2.0 + 0.3j, EXAMPLE, CylCoord(0.2, 1.0), CylCoord(0.9, 2.5), cfg)


def _tail_oracle(num, den, s, a, b, start, dps=40):
    """sum_{|k| >= start} e^{2 pi i k num/den} ((k+a)^2 + b^2)^-s in mpmath.

    Over each residue class k = +-(start + r + den m) the sum is
    den^-2s sum_m ((m + v)^2 + (b/den)^2)^-s, expanded in (b/den)^2 over
    Hurwitz zeta values at v = (start + r +- a)/den.
    """
    import mpmath

    with mpmath.workdps(dps):
        p, bq = mpmath.mpc(s.real, s.imag), mpmath.mpf(b) / den
        total = mpmath.mpc(0)
        for sign in (1, -1):
            for r in range(den):
                v = (start + r + sign * mpmath.mpf(a)) / den
                acc, binom, j = mpmath.mpc(0), mpmath.mpf(1), 0
                while True:
                    term = binom * bq ** (2 * j) * mpmath.zeta(2 * p + 2 * j, v)
                    acc += term
                    if abs(term) < abs(acc) * mpmath.mpf(10) ** (2 - dps):
                        break
                    binom *= (-p - j) / (j + 1)
                    j += 1
                total += mpmath.expj(2 * mpmath.pi * num * sign * (start + r) / den) * acc
        return complex(total * mpmath.mpf(den) ** (-2 * p))


class TestSXiTails:
    # binary angles, so that the oracle's period is the float angle's; s = 6
    # at theta = 1/4 is where a tail stopped on an absolute term test after
    # one term was 1.5e-2 off
    @pytest.mark.parametrize(
        "num,den,s,a,b",
        [
            (0, 1, 0.15 + 0.3j, 0.3, 1.0),
            (0, 1, 0.75, -0.7, 2.5),
            (0, 1, 2.0 + 2.0j, 0.3, 1.0),
            (0, 1, 6.0, -0.7, 2.5),
            (1, 8, 0.15 + 0.3j, -0.7, 2.5),
            (1, 8, 6.0, 0.3, 1.0),
            (1, 4, 0.15 + 0.3j, 0.3, 1.0),
            (1, 4, 0.75, -0.7, 2.5),
            (1, 4, 2.0 + 2.0j, 0.3, 1.0),
            (1, 4, 6.0, 0.3, 1.0),
            (1, 2, 0.15 + 0.3j, -0.7, 2.5),
            (1, 2, 2.0 + 2.0j, 0.3, 1.0),
            (1, 2, 6.0, -0.7, 2.5),
            (7, 8, 0.75, 0.3, 1.0),
            (7, 8, 2.0 + 2.0j, -0.7, 2.5),
        ],
    )
    def test_against_mpmath(self, num, den, s, a, b):
        got = mk._sxi_tails(num / den, np.array([s]), a, b, 65)[0]
        want = _tail_oracle(num, den, complex(s), a, b, 65)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("s", [0.3 + 1.2j, 2.0 + 0.3j])
    def test_rows_and_n_series(self, theta, s):
        # rows of (a, b, start, log scale) against p = s + n, as the image
        # engine takes them (running products in place of an exp per p),
        # against one call per row and p
        a, b = np.array([0.3, -0.7, 0.1]), np.array([1.0, 2.5, 33.6])
        start, log_scale = np.array([65, 65, 109]), np.log([1.0, 6.0, 1085.0])
        p = s + np.arange(40)
        got = mk._sxi_tails(theta, p, a, b, start, log_scale)
        assert got.shape == (3, 40)
        for i in range(3):
            want = [mk._sxi_tails(theta, np.array([pj]), a[i], b[i], int(start[i]), log_scale[i])[0] for pj in p]
            assert np.all(np.abs(got[i] - want) <= 1e-13 * np.abs(want)), (i, np.max(np.abs(got[i] - want) / np.abs(want)))

    def test_sum_tail_against_loop(self):
        # one array pass against the term-by-term loop, p = s + n for n < 8
        # as the image n-series takes them, one row or three
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = complex(rng.uniform(0.15, 6.0), rng.uniform(-5.0, 5.0)) + np.arange(8)
            a, b = rng.uniform(-1.0, 1.0, 3), rng.uniform(0.1, 20.0, 3)
            start, log_scale = mk._lattice_window(p[0], 20.0) + 1 + np.arange(3), rng.uniform(-1.0, 1.0, 3)
            rows = tuple(v[:, None] for v in (a, b, start, log_scale))
            for args in ((a[0], b[0], int(start[0]), log_scale[0]), rows):
                got, want = mk._sum_tail(p, *args), sxi_reference.sum_tail_loop(p, *args)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("theta,s", [(0.1, 1.5), (0.05, 2.0 + 2.0j), (0.15, 0.75)])
    def test_small_angle_sums(self, theta, s):
        # where the Euler-transformed tail was off by 9e-2, 1.6e9 and 7e-6
        d = mk.s_xi_direct(theta, s, 0.3, 1.0)
        c = mk.s_xi_continued(theta, s, 0.3, 1.0)
        assert abs(d - c) <= 1e-11 * abs(c)


class TestDomain:
    def test_pole_at_half_for_theta_zero(self):
        c1, c2 = CylCoord(0.0, 1.0), CylCoord(0.5, 2.0)
        with pytest.raises(PoleError):
            mk.cusp_kernel_images(0.5, None, TwistSpec.from_angles([(0.0, 1), (0.25, 1)]), [(c1, c2)])
        v = mk.cusp_kernel_images(0.5, None, EXAMPLE, [(c1, c2)])[0]
        assert rel_diff(v, mk.cusp_kernel(0.5, None, EXAMPLE, [(c1, c2)])[0]) <= 1e-9

    @pytest.mark.parametrize("s", [0.1 + 0.5j, 0.05, -1.0 + 2.0j])
    def test_margin(self, s):
        with pytest.raises(DomainError, match="Re s > 0.1"):
            mk.cusp_kernel_images(s, None, EXAMPLE, [(CylCoord(0.2, 1.0), CylCoord(0.9, 2.5))])

    @pytest.mark.parametrize("c1,c2", [((9.5, 1.0), (9.6, 2.0)), ((709.0, 1.0), (-5.0, 2.0))])
    def test_image_budget(self, monkeypatch, c1, c2):
        # high up, or with y + y' near the largest double, the images needed
        # exceed the budget: TruncationError before any g_s call
        monkeypatch.setattr(mk, "_g_s_rows", None)
        t0 = time.perf_counter()
        with pytest.raises(TruncationError, match="more than 10000"):
            mk.cusp_kernel_images(2.0 + 0.3j, None, EXAMPLE, [(CylCoord(*c1), CylCoord(*c2))])[0]
        assert time.perf_counter() - t0 < 0.1

    def test_non_unitary_twist(self):
        t = TwistSpec.from_angles([(0.25, 1)], moduli=[0.3])
        with pytest.raises(DomainError, match="unitary"):
            mk.cusp_kernel_images(2.0, None, t, [(CylCoord(0.2, 1.0), CylCoord(0.9, 2.5))])


@pytest.mark.parametrize("s", [0.2 + 0.9j, 0.7 - 0.3j, 2.0 + 0.3j, 3.1 + 1.4j])
def test_conjugate_symmetry(s):
    # R(conj s; w, z) = conj R(s; z, w), class by class, twist phases included
    for c1, c2 in PAIRS[:3]:
        c1, c2 = CylCoord(*c1), CylCoord(*c2)
        k = mk.cusp_kernel_images(s, None, ALL_CLASSES, [(c1, c2)])[0]
        back = mk.cusp_kernel_images(s.conjugate(), None, ALL_CLASSES, [(c2, c1)])[0]
        assert rel_diff(back, np.conj(k)) <= 1e-12
