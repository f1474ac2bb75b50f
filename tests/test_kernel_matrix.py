"""Kernel matrices: `model_kernels.kernel` at one s over a list of point pairs.

Row i of a many-pair call must be the one-pair call on pairs[i]: the Fourier
routes advance every (pair, class) sum together and share their profile
calls, so the two differ only by the rounding of chunks that the rows
share.  The image routes are mapped over the pairs.
"""

import math

import numpy as np
import pytest

from resonance_lab import model_kernels as mk
from resonance_lab import verify as vf
from resonance_lab.errors import DiagonalError, DomainError, PoleError
from resonance_lab.geometry import TWO_PI, CylCoord
from resonance_lab.twist import TwistSpec

S = 2.0 + 0.3j
ELL = 1.0
#: A theta = 0 class beside diag(i, -1).
THREE = TwistSpec.from_angles([(0.0, 1), (0.25, 1), (0.5, 1)])


def _pairs(r_lo, r_hi):
    """Seven pairs in [r_lo, r_hi]: windings -1 to 2, and two pairs that share r and r'."""
    rng = np.random.default_rng(17)
    pairs = []
    for winding in (0, 1, -1, 2, 0):
        r1, r2 = rng.uniform(r_lo, r_hi, 2)
        if abs(r1 - r2) < 0.3:
            r2 = r1 + 0.3 if r1 + 0.3 <= r_hi else r1 - 0.3
        pairs.append((CylCoord(r1, rng.uniform(0.0, TWO_PI) + TWO_PI * winding), CylCoord(r2, rng.uniform(0.0, TWO_PI))))
    c1, c2 = pairs[0]
    pairs.append((CylCoord(c1.r, c1.phi + 0.7), c2))
    pairs.append((CylCoord(c1.r, c1.phi + TWO_PI), c2))
    return pairs


RANGES = {"cylinder": (-1.0, 1.5), "funnel": (0.05, 2.0), "cusp": (-0.5, 1.2)}


@pytest.mark.parametrize("method", ["images", "fourier"])
@pytest.mark.parametrize("end", ["cylinder", "funnel", "cusp"])
def test_rows_are_one_pair_calls(end, method):
    pairs = _pairs(*RANGES[end])
    matrix = mk.kernel(end, method, S, ELL, THREE, pairs)
    assert matrix.shape == (len(pairs), 3)
    for i, pair in enumerate(pairs):
        row = mk.kernel(end, method, S, ELL, THREE, [pair])
        assert row.shape == (1, 3)
        assert np.all(np.abs(matrix[i] - row[0]) <= 1e-13 * np.abs(row[0])), (i, matrix[i], row[0])


@pytest.mark.parametrize("method", ["images", "fourier"])
@pytest.mark.parametrize("end", ["cylinder", "funnel", "cusp"])
def test_no_pairs(end, method):
    assert mk.kernel(end, method, S, ELL, THREE, []).shape == (0, 3)
    assert mk.kernel(end, method, S, ELL, TwistSpec(()), _pairs(*RANGES[end])[:2]).shape == (2, 0)


def test_winding_is_the_twist_phase():
    # a turn of phi multiplies class j by e^{2 pi i theta_j}, pair by pair
    c1, c2 = CylCoord(-0.4, 2.0), CylCoord(0.8, 1.1)
    rows = mk.cyl_kernel_fourier(S, ELL, THREE, [(c1, c2), (CylCoord(-0.4, 2.0 + TWO_PI), c2)])
    phase = np.exp(2j * math.pi * np.array([0.0, 0.25, 0.5]))
    assert np.all(np.abs(rows[1] - phase * rows[0]) <= 1e-15 * np.abs(rows[0]))


@pytest.mark.parametrize("end", ["cylinder", "funnel", "cusp"])
def test_coincident_pair_anywhere(end, monkeypatch):
    # one coincident pair among separated ones fails before any mode runs
    for name in ("cyl_mode", "funnel_mode", "cusp_mode"):
        monkeypatch.setattr(mk, name, None)
    pairs = _pairs(*RANGES[end])
    pairs.insert(3, (CylCoord(0.7, 1.0), CylCoord(0.7, 1.0 + TWO_PI)))
    with pytest.raises(DomainError, match="distinct points"):
        mk.kernel(end, "fourier", S, ELL, THREE, pairs)
    with pytest.raises(DiagonalError):
        mk.kernel(end, "images", S, ELL, THREE, pairs)


def test_cusp_pole_at_half():
    pairs = _pairs(*RANGES["cusp"])
    with pytest.raises(PoleError):
        mk.kernel("cusp", "fourier", 0.5, ELL, THREE, pairs)
    # without the theta = 0 class the kernel is regular there
    rows = mk.kernel("cusp", "fourier", 0.5, ELL, vf._TWIST_EXAMPLE, pairs)
    assert np.all(np.isfinite(rows.view(float)))


def test_high_in_the_cusp():
    # y' = e^3: a first block of 8 would take Bessel arguments |kappa| y' past
    # 600, so the sums start from blocks of 2, as they stop within a few modes
    pair = [(CylCoord(2.6, 1.0), CylCoord(3.0, 2.0))]
    kf = mk.kernel("cusp", "fourier", S, ELL, THREE, pair)
    ki = mk.kernel("cusp", "images", S, ELL, THREE, pair)
    assert abs(kf[0, 0] - ki[0, 0]) <= 1e-12 * abs(ki[0, 0])


def test_shared_profiles(monkeypatch):
    # pairs that differ only in their angles share every profile call, and
    # each (r, r', |kappa|) is evaluated once
    seen = []
    original = mk.cyl_mode

    def recording(s, kappa, r, r2, ell):
        assert np.ndim(r) == np.ndim(r2) == 0
        seen.extend(np.abs(kappa).tolist())
        return original(s, kappa, r, r2, ell)

    monkeypatch.setattr(mk, "cyl_mode", recording)
    c2 = CylCoord(0.8, 1.1)
    mk.cyl_kernel_fourier(S, ELL, THREE, [(CylCoord(-0.4, phi), c2) for phi in (0.3, 2.0, 5.5, 0.3 + TWO_PI)])
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize(
    "check,calls",
    [
        (vf.check_two_representation_cylinder, {("cylinder", "images"): 1, ("cylinder", "fourier"): 1}),
        (vf.check_two_representation_funnel, {("funnel", "images"): 1, ("funnel", "fourier"): 1}),
        (vf.check_two_representation_cusp, {("cusp", "images"): 2, ("cusp", "fourier"): 2}),
    ],
)
def test_verify_one_call_per_route_and_s(check, calls, monkeypatch):
    seen, sizes = {}, []
    original = mk.kernel

    def counting(end, method, s, ell, t, pairs):
        seen[(end, method)] = seen.get((end, method), 0) + 1
        sizes.append(len(pairs))
        return original(end, method, s, ell, t, pairs)

    monkeypatch.setattr(mk, "kernel", counting)
    assert check().passed
    assert seen == calls
    assert sum(sizes) == 2 * (24 if "cusp" in check.__name__ else 20)
