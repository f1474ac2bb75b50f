"""Kernel matrices: `model_kernels.kernel` at one s over a list of point pairs.

Row i of a many-pair call must be the one-pair call on pairs[i]: the Fourier
routes advance every (pair, class) sum together and share their profile
calls, and the image routes sum every pair's images in one pass of the
image engine, so the two differ only by the rounding of chunks that the
rows share.  The image rows also match the engine as it was, one pair per
call (`image_engine_reference`).
"""

import math
import tracemalloc

import numpy as np
import pytest

import image_engine_reference as ref
import test_free_resolvent as tfr
from resonance_lab import free_resolvent as fr
from resonance_lab import model_kernels as mk
from resonance_lab import verify as vf
from resonance_lab.errors import DiagonalError, DomainError, PoleError, TruncationError
from resonance_lab.geometry import TWO_PI, CylCoord, cyl_to_plane
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


#: Pairs whose image sums differ by 2x and more in near images, far
#: images and n-series terms, with windings -1 to 2; the cusp's last pair
#: is high up (y' = e^3).
SPREAD = {
    "cylinder": [((3.3, 0.5, 1), (-3.0, 2.0)), ((-0.94, 4.48, -1), (1.86, 4.79)), ((0.07, 0.81, 2), (0.1, 3.41)), ((3.0, 1.0), (2.6, 2.0))],
    "funnel": [((3.3, 4.86, -1), (2.69, 4.77)), ((0.23, 2.33), (2.94, 1.9, 2)), ((0.06, 3.32, 1), (0.47, 0.39))],
    "cusp": [((2.03, 6.16, -1), (2.43, 5.22)), ((3.48, 1.53), (0.53, 0.46, 2)), ((-0.36, 0.23, 1), (-0.32, 5.45)), ((2.6, 1.0), (3.0, 2.0))],
}


def _one_pair(end, s, t, c1, c2):
    """The image route on one pair, as the engine was."""
    if end == "cusp":
        return ref.cusp_kernel_images(s, t, c1, c2)
    if end == "funnel":
        return ref.funnel_kernel(s, ELL, t, c1, c2)
    return ref.cyl_kernel_images(s, ELL, t, cyl_to_plane(c1, ELL), cyl_to_plane(c2, ELL))


@pytest.mark.parametrize("end", ["cylinder", "funnel", "cusp"])
def test_images_against_one_pair_engine(end, monkeypatch):
    # within 1e-13 of each class, plus 1e-15 of the row's largest class: a
    # class that cancels (theta = 1/2 high in the cusp is 1e-10 of theta = 0)
    # keeps only the rounding of its images
    pairs = [tuple(CylCoord(*c) for c in pair) for pair in SPREAD[end]]
    s_values = [S, 0.3 + 1.2j] if end == "cusp" else [S, 1.3 - 0.7j]
    counts = {"near": [], "far": [], "terms": []}
    budget, series = ref._check_budget, ref._image_series

    def recording_budget(n_near, n_far):
        counts["near"].append(n_near)
        counts["far"].append(n_far)
        budget(n_near, n_far)

    def recording_series(s, sigmas, near_weights, far_sums, far_abs, q):
        def last(n):
            counts["terms"][-1] = n.size
            return far_sums(n)

        counts["terms"].append(0)
        return series(s, sigmas, near_weights, last, far_abs, q)

    monkeypatch.setattr(ref, "_check_budget", recording_budget)
    monkeypatch.setattr(ref, "_image_series", recording_series)
    for s in s_values:
        rows = mk.kernel(end, "images", s, ELL, THREE, pairs)
        for got, (c1, c2) in zip(rows, pairs):
            want = _one_pair(end, s, THREE, c1, c2)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-15 * np.abs(want).max()), (s, got, want)
    for what, n in counts.items():
        assert max(n) >= 2 * min(n), (what, n)


def test_budget_before_any_image(monkeypatch):
    # one pair high in the cusp needs more than _MAX_IMAGES images: the batch
    # fails before the g_s engine evaluates any pair's near images
    def no_g_s(*args):
        raise AssertionError("g_s ran before every image budget was checked")

    monkeypatch.setattr(mk, "_g_s_rows", no_g_s)
    pairs = _pairs(*RANGES["cusp"])
    pairs.insert(4, (CylCoord(9.5, 1.0), CylCoord(9.6, 2.0)))
    with pytest.raises(TruncationError, match="more than 10000"):
        mk.kernel("cusp", "images", S, ELL, THREE, pairs)


@pytest.mark.parametrize("s", tfr.S_GRID)
def test_g_s_engine_against_mpmath(s):
    # every row of one array call is the one-element call, and holds the
    # tolerances of g_s against mpmath
    rows = fr._g_s_rows(s, tfr.SIGMA_GRID + [x * 1.01 for x in tfr.SIGMA_GRID])
    assert [complex(v) for v in rows] == [fr.g_s(s, x) for x in tfr.SIGMA_GRID + [x * 1.01 for x in tfr.SIGMA_GRID]]
    worst = worst_slow = 0.0
    for x, got in zip(tfr.SIGMA_GRID, rows):
        want, slow = tfr.TestGsGrid.mp_g(s, x), tfr.ref.g_s(s, x)
        # the term-by-term series it replaced, to rounding
        assert abs(got - tfr.ref.g_s_series(s, x)) <= 1e-13 * abs(got)
        if abs(want) < 1e-290:
            assert abs(got - want) <= 1e-300
            continue
        worst = max(worst, abs(got - want) / abs(want))
        worst_slow = max(worst_slow, abs(slow - want) / abs(want))
        assert abs(got - slow) <= 1e-12 * abs(slow)
    assert worst <= (1e-14 if abs(s) <= 20 else worst_slow)


@pytest.mark.parametrize("end", ["cylinder", "cusp"])
def test_many_pairs_in_bounded_memory(end):
    # 2,000 pairs go in blocks: the far images of all of them at once would
    # take 40 MB for the cylinder alone
    rng = np.random.default_rng(18)
    lo, hi = RANGES[end]
    mid, n = 0.5 * (lo + hi), 2000
    pairs = [
        (CylCoord(r1, phi1), CylCoord(r2, phi2))
        for r1, r2, phi1, phi2 in zip(
            rng.uniform(lo, mid - 0.1, n), rng.uniform(mid + 0.1, hi, n),
            rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, TWO_PI, n),
        )
    ]
    t = TwistSpec.from_angles([(0.25, 1)])
    mk.kernel(end, "images", S, ELL, t, pairs[:3])
    tracemalloc.start()
    try:
        rows = mk.kernel(end, "images", S, ELL, t, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (n, 1) and np.all(np.isfinite(rows.view(float)))
    assert peak < 3e6
    for i in (0, 777, n - 1):
        assert np.all(np.abs(rows[i] - mk.kernel(end, "images", S, ELL, t, [pairs[i]])[0]) <= 1e-13 * np.abs(rows[i]))


@pytest.mark.parametrize(
    "check,calls",
    [
        (vf.check_two_representation_cylinder, {("cylinder", "images"): 1, ("cylinder", "fourier"): 1}),
        (vf.check_two_representation_funnel, {("funnel", "images"): 1, ("funnel", "fourier"): 1}),
        (vf.check_two_representation_cusp, {("cusp", "images"): 2, ("cusp", "fourier"): 2}),
    ],
)
def test_verify_one_call_per_route_and_s(check, calls, monkeypatch):
    seen, sizes, passes = {}, [], []
    original, series = mk.kernel, mk._image_series

    def counting(end, method, s, ell, t, pairs):
        seen[(end, method)] = seen.get((end, method), 0) + 1
        sizes.append(len(pairs))
        return original(end, method, s, ell, t, pairs)

    monkeypatch.setattr(mk, "kernel", counting)
    monkeypatch.setattr(mk, "_image_series", lambda *args: passes.append(args[0]) or series(*args))
    assert check().passed
    assert seen == calls
    assert sum(sizes) == 2 * (24 if "cusp" in check.__name__ else 20)
    # one image pass per s: the funnel's direct and reflected sums in one
    assert len(passes) == len(set(passes)) == sum(n for (_, m), n in calls.items() if m == "images")


def test_symmetry_check_one_pass_per_variant(monkeypatch):
    # base, shifted and conjugate: each over its 10 pairs in one image pass
    passes = []
    series = mk._image_series
    monkeypatch.setattr(mk, "_image_series", lambda *args: passes.append(args[1].size) or series(*args))
    assert vf.check_kernel_symmetries().passed
    assert passes == [10, 10, 10]
