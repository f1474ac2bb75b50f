"""Twisted resolvent kernels on the three model ends, by two representations.

Each kernel is computed per eigenvalue class of the monodromy (the twist is
diagonalized once and for all; kernels are diagonal in that basis, and each
class takes its twist phase lambda^word), either as

  * a truncated method-of-images sum of the free kernel with twist weights,
    valid in the convergence half-plane Re s > C + MARGIN, or
  * a Fourier-mode synthesis from closed-form mode functions, valid for all
    s off the mode pole lattices.

`kernel` looks up the route of an end and a method; all six routes take
(s, ell, t, pairs) and return a (pairs, classes) array for every point
pair at one s.  All three image routes run through one engine,
`_image_series`: the near images of all pairs go through the array g_s
engine and the far ones through the n-series of g_s in 1/sigma, stopped
pair by pair on a bound relative to the smallest class value.  The
cylinder (and so the funnel, whose direct and reflected cylinder sums are
rows of one pass) takes each pair's far images on a window past which they
are geometrically negligible; cusp images decay only like |k|^(-2 Re s),
so its far sums are twisted lattice sums S_xi, whose tails past a direct
window `_sxi_tails` evaluates for every angle.  Fourier modes (`_mode_sum`)
stop on a geometric tail estimate, times 10, below FOURIER_TAIL_TOL times
the largest term of the sum's first table or of the side so far.

A Fourier route takes point pairs at one s and returns a (pairs, classes)
array: `_mode_sum` advances the sides k > 0 and k < 0 of every (pair,
class) sum together, as independent rows, a block of k per round (8, or 2
high in the cusp, then doubling), with the stopping rule applied value by
value, so that each side stops where a mode-by-mode sum would.  Each
distinct (r, r', |kappa|) is evaluated once.  Mode profiles
for the hyperbolic cylinder / funnel are built from the regularized
hypergeometric function, cusp modes from modified Bessel functions of the
shared order s - 1/2, one array call each; `cyl_mode`, `funnel_mode`,
`cusp_mode` and the profiles take kappa and the radial coordinates as
scalars or numpy arrays that broadcast (an array of r or r' is one 2F1
block with z per row).
The two routes agree on the common domain, which is the module's master
cross-check.

Evaluation domains (series guard GUARD_DELTA = 1e-3):
  * cylinder profile v(s; r) needs r >= -R_PROFILE_MIN (~ -3.453); in
    mode synthesis min(r, r') <= R_PROFILE_MIN and max(r, r') >= -R_PROFILE_MIN.
  * funnel profile v0(s; r) needs 0 <= r <= R0_PROFILE_MAX (~ 4.15).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import specfun
from .errors import DomainError, OverflowBudgetError, PoleError, TruncationError
from .free_resolvent import _g_s_rows, g_s
from .geometry import TWO_PI, CylCoord, HPoint, cusp_to_plane, cyl_to_plane
from .specfun import log_gamma
from .twist import TwistSpec

#: Margin over every convergence abscissa.
MARGIN = 0.1

#: Largest r at which the cylinder profile can be evaluated at -r: the
#: series guard (1 - tanh r)/2 <= 1 - 1e-3 holds for r >= -0.5 log((1 - 1e-3)/1e-3).
R_PROFILE_MIN = 0.5 * math.log((1.0 - specfun.GUARD_DELTA) / specfun.GUARD_DELTA)

#: Largest |r| for the funnel boundary profile (guard on tanh^2 r).
R0_PROFILE_MAX = math.atanh(math.sqrt(1.0 - specfun.GUARD_DELTA))

#: Relative tail tolerance of the adaptive Fourier-mode synthesis.
FOURIER_TAIL_TOL = 1e-12

_MAX_FOURIER_MODES = 3000

#: Modes in the first block of a mode sum; each later block doubles.  Cusp
#: sums start from 2 where a first block of 8 would take Bessel arguments
#: |kappa| y' past OVERFLOW_BUDGET_X (y' > 10.6): they stop within a few modes.
_FIRST_BLOCK = 8
_CUSP_FIRST_BLOCK = 2

#: Relative bound on the remainder of every image sum's n-series.
SERIES_TOL = 1e-15

_MAX_SERIES_TERMS = 512

#: Images, near and far, that one image sum may take; checked before g_s runs.
_MAX_IMAGES = 10_000

#: Images (padded to the block's largest pair) per block of pairs of one
#: `_image_series` pass: with the n-series at up to 64 terms, the block's
#: largest temporary holds about 64 K doubles (0.5 MB).
_BLOCK_IMAGES = 1024

#: A class value that cancels below this fraction of its near images is
#: held to the series bound at that fraction of them: its own rounding
#: error is already larger than the bound.
_CANCEL_FLOOR = 1e-4

#: The cylinder's far window ends where the images beyond it add less than
#: e^-_WINDOW_CUT (about 1e-20) of its largest image, per class.
_WINDOW_CUT = 46.0


def _check_budget(n_near: np.ndarray, n_far: np.ndarray) -> None:
    """TruncationError for the first pair whose image sum would take more than _MAX_IMAGES images."""
    for i in np.flatnonzero(n_near > _MAX_IMAGES - n_far)[:1].tolist():
        raise TruncationError(
            f"image sum needs {int(n_near[i])} near and {int(n_far[i])} far images, more than {_MAX_IMAGES}"
        )


def _image_series(s: complex, sizes: np.ndarray, images, near=None) -> np.ndarray:
    """Image sums of g_s per pair i and class j, split into near and far images: (pairs, classes).

    images(rows) gives a block of pairs, one padded row each: sigmas[i, k]
    of the near images (else NaN) with weights near_w[i, k, j], log_sig[i, k]
    of the far ones (sigma >= 1/q_i >= 4; else 0) with weights far_w[i, k, j],
    and tails, None or (sums(i, p), bound(i, N)) of the images past the row.
    A block holds _BLOCK_IMAGES images at the largest of sizes, its near
    sigmas go through near (`_g_s_rows` by default) in one call, and its far
    images through the n-series of g_s,

        (1/4pi) sum_n c_n sum_far w_ij(k) sigma_k^-(s+n),
        c_n = Gamma(s+n)^2 / (n! Gamma(2s+n)),

    which loses a factor q_i per n: pair i's starts at N_i = max(8, 37 / -log q_i)
    terms and doubles N_i until a bound of its remainder is below SERIES_TOL
    of each class value (or of _CANCEL_FLOOR of its near images, for a
    class that cancels below that).  Callers check every pair's image
    counts with `_check_budget` before.
    """
    c0 = cmath.exp(2.0 * log_gamma(s) - log_gamma(2.0 * s))
    step = max(1, _BLOCK_IMAGES // int(sizes.max()))
    out = []
    for first in range(0, sizes.size, step):
        sigmas, near_w, log_sig, far_w, q, tails = images(np.arange(first, min(first + step, sizes.size)))
        g = np.zeros(sigmas.shape, dtype=complex)
        inside = ~np.isnan(sigmas)
        g[inside] = (near or _g_s_rows)(s, sigmas[inside])
        total = np.einsum("ik,ikj->ij", g, near_w)
        floor = _CANCEL_FLOOR * np.einsum("ik,ikj->ij", np.abs(g), np.abs(near_w))
        with np.errstate(divide="ignore"):
            big_n = np.maximum(8, np.ceil(37.0 / -np.log(q))).astype(int)
        todo = np.arange(q.size)
        while todo.size:
            open_ = slice(None) if todo.size == q.size else todo  # a view while every pair is open
            last, q_open, weights = big_n[open_], q[open_], far_w[open_]
            if last.max() > _MAX_SERIES_TERMS:
                raise TruncationError(
                    f"image n-series not below {SERIES_TOL} relative within {_MAX_SERIES_TERMS} terms"
                )
            n = np.arange(last.max() + 1)
            p = s + n
            # sigma^-n is real: the weights' parts go as two columns each
            powers = np.exp(-n[:, None] * log_sig[open_][:, None, :])
            rows, k, classes = weights.shape
            far = (powers @ weights.view(float).reshape(rows, k, 2 * classes)).view(complex)
            # E_N = sum_far |w| sigma^-(Re s + N) at each pair's N, and the tails' bound
            bound = np.einsum("ik,ikj->ij", powers[np.arange(rows), last], np.abs(weights))
            if tails is not None:
                far += tails[0](todo, p)
                bound += tails[1](todo, last)[:, None]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # c_{n+1} = c_n (s+n)^2 / ((n+1)(2s+n)); a c_n past a double fails the bound
                ratio = p**2 / ((n + 1.0) * (p + s))
                c = c0 * np.cumprod(np.concatenate([[1.0], ratio[:-1]]))
                sums = total[open_] + np.einsum("in,inj->ij", np.where(n <= last[:, None], c, 0.0), far) / (4.0 * math.pi)
                # the terms n > N add at most |c_{N+1}| q E_N / (4pi (1 - rho q)), rho >= |c_{m+1}/c_m| for m > N
                rho_q = np.maximum(1.0, (abs(s) + last + 1.0) ** 2 / ((last + 1.0) * (last + 2.0))) * q_open
                bound *= (np.abs(c[last] * ratio[last]) * q_open / (4.0 * math.pi * (1.0 - rho_q)))[:, None]
                done = (rho_q < 1.0) & (bound <= SERIES_TOL * np.maximum(np.abs(sums), floor[open_])).all(axis=1)
            total[todo[done]] = sums[done]
            todo = todo[~done]
            big_n[todo] *= 2
        out.append(total)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Hyperbolic cylinder
# ---------------------------------------------------------------------------


def _cyl_class_images(s: complex, ell: float, classes, points, near=None) -> np.ndarray:
    """Raw image sums sum_k lam^k g_s(sigma(z, e^{k ell} z')) per pair (z, z') of complex points and class.

    With A = |z||z'|/(2yy'), L = log(|z'|/|z|), alpha and beta the
    arguments of z and z', and x_k = k ell + L,

        sigma_k = A (cosh x_k - cos(alpha + beta))
                = 2A (sinh^2(x_k/2) + sin^2((alpha + beta)/2)).

    The near images, sigma_k < 4 and the two around x = 0, go through g_s
    at sigma_k by the second form, so that images at mirrored x_k get the
    same sigma; the far ones through `_image_series`.  Each pair's window
    ends on each side where the rest, which shrinks by at least
    |lam| e^{-Re s (ell - 2 log(1 + e^{-|x|}))} per image, is below
    e^-_WINDOW_CUT of the largest far image.  lam^k and sigma_k^-s share
    one exponent, so that neither overflows alone.  No fundamental-domain
    reduction is applied; valid for any half-plane points with z != z'.
    """
    s = complex(s)
    theta = np.array([cls.theta for cls in classes])
    log_abs = np.array([cls.log_abs for cls in classes])
    if not (points and theta.size):
        return np.zeros((len(points), theta.size), dtype=complex)
    big_a, big_l, sin2 = np.array([
        (abs(z) * abs(z2) / (2.0 * z.imag * z2.imag), math.log(abs(z2) / abs(z)),
         math.sin(0.5 * (cmath.phase(z) + cmath.phase(z2))) ** 2)
        for z, z2 in points
    ]).T

    def log_sigma(x: np.ndarray, rows) -> np.ndarray:
        ax = np.abs(x)
        return np.log(2.0 * big_a[rows, None]) + ax + np.log(0.25 * np.expm1(-ax) ** 2 + sin2[rows, None] * np.exp(-ax))

    k0 = np.floor(-big_l / ell)
    reach = 2.0 * np.arcsinh(np.sqrt(np.maximum(2.0 / big_a - sin2, 0.0))) / ell
    lo = np.minimum(k0, np.floor(-big_l / ell - reach))
    hi = np.maximum(k0 + 1.0, np.ceil(-big_l / ell + reach))
    moduli = np.array(sorted(set(log_abs.tolist())))  # a window depends on a class through |lam| alone

    # the windows past hi and below lo of pair i as rows i and P + i, each
    # m0 images, doubled until the rest is negligible
    sign, pair = np.repeat([1.0, -1.0], big_l.size), np.tile(np.arange(big_l.size), 2)
    edge = np.concatenate([hi, lo])
    rates = [ell * s.real - max(sg * v for v in log_abs.tolist()) for sg in (1.0, -1.0)]
    m = np.repeat([max(8, math.ceil(_WINDOW_CUT / r)) if r > 0.0 else _MAX_IMAGES + 1 for r in rates], big_l.size)
    open_rows = m <= _MAX_IMAGES
    while open_rows.any():
        # open rows of one window length, at most _BLOCK_IMAGES images at a time
        todo = np.flatnonzero(open_rows)
        rows = todo[m[todo] == m[todo[0]]][: max(1, _BLOCK_IMAGES // int(m[todo[0]]))]
        k = edge[rows, None] + sign[rows, None] * np.arange(1, m[rows[0]] + 1)
        x = k * ell + big_l[pair[rows], None]
        # near the top of the double range Re s times log sigma overflows to
        # -inf: no far image counts, and the series' log_gamma(2s) raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tau = k[..., None] * moduli - s.real * log_sigma(x, pair[rows])[..., None]
            # sigma_{k+1} / sigma_k >= e^ell / (1 + e^{-|x_k|})^2 further out
            shrink = sign[rows, None] * moduli - s.real * (ell - 2.0 * np.log1p(np.exp(-np.abs(x[:, -1:]))))
            rest = tau[:, -1] + shrink - np.log(-np.expm1(shrink))
            ends = ((shrink < 0.0) & (rest <= tau.max(axis=1) - _WINDOW_CUT)).all(axis=1)
        m[rows[~ends]] *= 2
        open_rows[rows] = ~ends & (m[rows] <= _MAX_IMAGES)
    up, down = m[: big_l.size], m[big_l.size :]
    n_near = hi - lo + 1.0
    _check_budget(n_near, up + down)
    sizes = (n_near + up + down).astype(int)

    def images(rows):
        # k from lo - down to hi + up: the near ones lo..hi, the far ones around them
        k = (lo - down)[rows, None] + np.arange(sizes[rows].max())
        x = k * ell + big_l[rows, None]
        valid = k <= (hi + up)[rows, None]
        near_ok = (k >= lo[rows, None]) & (k <= hi[rows, None])
        far_ok = valid & ~near_ok
        sigmas = 2.0 * big_a[rows, None] * (np.sinh(0.5 * x) ** 2 + sin2[rows, None])
        log_sig = np.where(far_ok, log_sigma(x, rows), 0.0)
        k = k[..., None]
        exponent = k * log_abs + 2j * math.pi * (k * theta % 1.0) - s * log_sig[..., None]
        weights = np.exp(np.where(valid[..., None], exponent, -np.inf))
        q = np.exp(-np.min(np.where(far_ok, log_sig, np.inf), axis=1))
        return np.where(near_ok, sigmas, np.nan), weights * near_ok[..., None], log_sig, weights * far_ok[..., None], q, None

    return _image_series(s, sizes, images, near)


def cyl_class_images(s: complex, ell: float, classes, planes) -> np.ndarray:
    """Raw image sums sum_k lam^k g_s(sigma(z, e^{k ell} z')) per pair (z, z') of half-plane points.

    Returns a (len(planes), classes) array; see `_cyl_class_images`.
    """
    return _cyl_class_images(s, ell, classes, [(z.z, z2.z) for z, z2 in planes])


def _reduced(z: complex, ell: float) -> tuple[complex, int]:
    """z moved into the fundamental domain 1 <= |z| < e^ell, and the word of the move."""
    m = math.floor(math.log(abs(z)) / ell)
    return (z if m == 0 else math.exp(-m * ell) * z), m


def _reduced_images(s: complex, ell: float, t: TwistSpec, points, near=None) -> np.ndarray:
    """The twisted kernel at pairs of complex half-plane points, each moved into 1 <= |z| < e^ell.

    lambda_j^(m - m') times the class sums of the moved points, m and m' the
    words of the two moves.
    """
    s = complex(s)
    if not 0.0 < ell < math.inf:
        raise DomainError(f"cylinder length must be positive and finite, got {ell}")
    abscissa = t.log_norm() / ell
    if s.real <= abscissa + MARGIN:
        raise DomainError(
            f"Re s = {s.real} not above the convergence abscissa {abscissa} + margin {MARGIN}"
        )
    moved = [(_reduced(z, ell), _reduced(z2, ell)) for z, z2 in points]
    words = np.array([m - m2 for (_, m), (_, m2) in moved], dtype=int)
    lam = np.array([cls.eigenvalue for cls in t.angles], dtype=complex)
    return lam ** words[:, None] * _cyl_class_images(s, ell, t.angles, [(z, z2) for (z, _), (z2, _) in moved], near)


def cyl_kernel_images(s: complex, ell: float, t: TwistSpec, pairs, z2: HPoint | None = None) -> np.ndarray:
    """Twisted cylinder resolvent kernel by the method of images, one row per pair (c1, c2).

    Per class j of the twist; the points are reduced to the fundamental
    domain with the twist factor applied for the reduction word.  The
    near images of every pair go through one array g_s engine per block.

    `cyl_kernel_images(s, ell, t, z, z2)`, with two half-plane points for
    pairs and z2, is the kernel at that one pair (one row, as an array of
    classes), whose near images go through the public `g_s` one at a time:
    the benchmark's tracer test counts them there.
    """
    if z2 is not None:
        one = lambda s, x: np.array([g_s(s, v) for v in x.tolist()], dtype=complex)
        return _reduced_images(s, ell, t, [(pairs.z, z2.z)], one)[0]
    return _reduced_images(s, ell, t, [(cyl_to_plane(c1, ell).z, cyl_to_plane(c2, ell).z) for c1, c2 in pairs])


def _log_cosh(r):
    """log cosh r, per element of r."""
    a = np.abs(r)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _half_one_minus_tanh(r):
    """(1 - tanh r)/2 = 1/(1 + e^{2r}), computed without cancellation, per element of r."""
    return np.exp(-2.0 * np.maximum(r, 0.0)) / (1.0 + np.exp(-2.0 * np.abs(r)))


def _hyp2f1(warg):
    """The 2F1 entry for a profile's argument warg: the engine itself for an array.

    The benchmark's tracer bins `reg_hyp2f1_scaled` by abs(z), so an array
    (one z per row) goes past it.  This goes with the tracer (ROADMAP item
    1): once it bins an array of z, every call can take the entry.
    """
    return specfun._hyp2f1_rows if np.ndim(warg) else specfun.reg_hyp2f1_scaled


def log_a_kappa(s: complex, q):
    """log of 2^{-2s} Gamma(s + iq) Gamma(s - iq), q = omega * kappa (one or an array)."""
    return -2.0 * s * math.log(2.0) + log_gamma(s + 1j * q) + log_gamma(s - 1j * q)


def _v_profile_scaled(s: complex, q, r):
    """(m, E) with v(s; r) = m e^E, per element of q and r (scalars or arrays that broadcast)."""
    warg = _half_one_minus_tanh(r)
    if warg.max(initial=0.0) > 1.0 - specfun.GUARD_DELTA:
        raise DomainError(
            f"profile argument (1-tanh r)/2 = {warg.max()} outside the series guard; "
            f"needs r >= {-R_PROFILE_MIN:.3f}"
        )
    m, e = _hyp2f1(warg)(s + 1j * q, s - 1j * q, s + 0.5, warg)
    lc = _log_cosh(r)
    return m * np.exp(-1j * s.imag * lc), e - s.real * lc


def v_profile(s: complex, q: float, r: float) -> complex:
    """Cylinder mode profile (cosh r)^{-s} F~(s+iq, s-iq; s+1/2; (1-tanh r)/2)."""
    return _assemble_mode(0j, _v_profile_scaled(complex(s), q, r), (1.0, 0.0))


def _assemble_mode(log_pref, f1, f2):
    """exp(log_pref) * f1 * f2 with all exponents combined before exp, per mode."""
    return specfun.scaled_value(f1[0] * f2[0], log_pref + f1[1] + f2[1], "mode value")


def cyl_mode(s: complex, kappa, r, r2, ell: float):
    """Two-point cylinder mode a_kappa(s) v(s; -min) v(s; max).

    kappa, r and r2 are scalars or arrays that broadcast, with min and max
    taken elementwise; each profile is one 2F1 engine call, with z per row
    for an array of r or r2.
    Symmetric in r <-> r2; poles on the lattice -N0 +- i omega kappa.
    The three factors are combined in log scale, so high frequencies whose
    individual factors over/underflow still evaluate.
    """
    s = complex(s)
    omega = TWO_PI / ell
    q = omega * abs(kappa)  # formulas are even in kappa; canonicalize for bit-equal values
    lo, hi = np.minimum(r, r2), np.maximum(r, r2)
    return _assemble_mode(
        log_a_kappa(s, q), _v_profile_scaled(s, q, -lo), _v_profile_scaled(s, q, hi)
    )


def _scan(values: np.ndarray, count, prev, scale: np.ndarray, size):
    """The stopping rule over one block of terms per row, the first count of each row valid.

    prev is a row's last magnitude before it (NaN at its start), scale its
    largest so far.  Returns whether the row stops, its partial sum, largest
    and last magnitude up to the stop (or the block's end), and its next
    block: twice size, cut short where the last ratio says so.
    """
    mags = np.abs(values)
    before = np.empty_like(mags)
    before[:, 0], before[:, 1:] = prev, mags[:, :-1]
    scales = np.maximum(np.maximum.accumulate(mags, axis=1), scale[:, None])
    ratio = mags / before
    # a tail only where 0 < |term| < |term before|, at a ratio below 0.995
    stop = (ratio > 0.0) & (ratio < 0.995) & (10.0 * (mags * ratio / (1.0 - ratio)) < FOURIER_TAIL_TOL * scales)
    stop |= mags + before == 0.0
    stop &= np.arange(values.shape[1]) < count[:, None]
    hit = np.logical_or.reduce(stop, axis=1)
    last = np.where(hit, stop.argmax(axis=1), count - 1)
    rows = np.arange(values.shape[0])
    part = np.where(np.arange(values.shape[1]) <= last[:, None], values, 0.0).sum(axis=1)  # pairwise
    scale, prev, rho = scales[rows, last], mags[rows, last], ratio[rows, last]
    if hit.all():
        return hit, part, scale, prev, size
    ahead = np.log(FOURIER_TAIL_TOL * scale * (1.0 - rho) / (10.0 * rho * prev)) / np.log(rho)
    cut = (rho > 0.0) & (rho < 0.995) & (ahead < 2 * size)
    return hit, part, scale, prev, np.where(cut, np.maximum(1.0, np.ceil(ahead)), 2 * size).astype(int)


def _mode_sum(terms, scale: np.ndarray, first_block: int) -> np.ndarray:
    """Sum terms(i, k) over k = 1, 2, ... for every row i at once, adaptively, from its largest magnitude scale.

    terms takes the indices i of some rows and a 2-d array of k >= 1, one
    row each.  Every row adds its terms in blocks, the first of first_block
    modes, and stops at the first value whose tail, estimated geometrically
    from the last magnitude ratio with a safety factor of 10 (the ratio
    still creeps toward its asymptote when r and r' are close), is below
    FOURIER_TAIL_TOL of the largest term so far, or at the second of two
    consecutive zeros.  A row that passes _MAX_FOURIER_MODES raises
    TruncationError.
    """
    out = np.empty(scale.size, dtype=complex)
    # the open rows, compacted as they end: index, next k, block size, last
    # magnitude, largest magnitude so far, and partial sum
    ids, lo, size = np.arange(out.size), np.ones(out.size, dtype=int), np.full(out.size, first_block)
    prev, acc = np.full(out.size, math.nan), np.zeros(out.size, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        while ids.size:
            count = np.minimum(size, _MAX_FOURIER_MODES + 1 - lo)
            if count.min() < 1:
                raise TruncationError(f"Fourier synthesis needs more than {_MAX_FOURIER_MODES} modes")
            # one row per side, padded with its last mode, which the scan leaves out
            k = np.minimum(np.add.outer(lo, np.arange(count.max())), (lo + count - 1)[:, None])
            hit, part, scale, prev, size = _scan(terms(ids, k), count, prev, scale, size)
            acc += part
            lo += count
            if hit.any():
                out[ids[hit]] = acc[hit]
                ids, lo, size, prev, scale, acc = (v[~hit] for v in (ids, lo, size, prev, scale, acc))
    return out


def _check_mode_count(radii: np.ndarray, ell: float) -> None:
    """TruncationError for the first (r, r') whose cylinder or funnel sum needs more than _MAX_FOURIER_MODES.

    Modes fall like e^{-omega |kappa| |gd(r) - gd(r')|}, gd(r) = atan(sinh r):
    the sum needs 1/1.4 to 1 times ln(1e16) / (omega |gd(r) - gd(r')|) modes,
    and fails here where that estimate passes twice the cap.
    """
    gd = 2.0 * np.arctan(np.tanh(0.5 * radii))  # atan(sinh r), without overflow
    slow = TWO_PI / ell * np.abs(gd[:, 0] - gd[:, 1]) * (2 * _MAX_FOURIER_MODES) < math.log(1e16)
    for r, r2 in radii[slow][:1].tolist():
        raise TruncationError(f"Fourier synthesis needs more than {_MAX_FOURIER_MODES} modes at r = {r:g}, r' = {r2:g}")


def _fourier_kernel(t: TwistSpec, pairs, profile, ell: float, first_block: int = _FIRST_BLOCK, coords=None, predict=False):
    """Per pair p and class j: lambda_j^(w1 - w2) sum_k e^{i kappa phase_p} profile(|kappa|, radial_p) / ell.

    kappa = k + theta_j; 2pi windings of the angles enter through the twist
    phase.  coords lists (radial_p, phase_p), by default ((r, r'), phi - phi');
    profile(kappa, r, r2) takes an array of |kappa| and r, r2 (scalars where
    all rows share them), once per distinct (radial_p, |kappa|).  The modes
    k = -first_block..first_block of every sum are one call, a table that
    later rounds read; the sides k > 0 and k < 0 of each sum are two rows of
    one `_mode_sum`, each from the largest magnitude of the sum's table.
    With predict, `_check_mode_count` follows the table, where a pair outside
    a profile's domain fails first.  Returns a (len(pairs), classes) array.
    """
    if not t.is_unitary:
        raise DomainError("Fourier synthesis requires a unitary twist")
    if any(c1.r == c2.r and c1.phi == c2.phi for c1, c2 in pairs):
        raise DomainError("Fourier synthesis requires distinct points")
    coords = coords or [((c1.r, c2.r), c1.phi - c2.phi) for c1, c2 in pairs]
    groups: dict = {}
    group = np.array([groups.setdefault(rad, len(groups)) for rad, _ in coords], dtype=float)
    radii, thetas = np.array(list(groups), dtype=float).reshape(-1, 2), np.array([c.theta for c in t.angles])
    grp, theta = group.repeat(thetas.size), thetas[None, :].repeat(len(pairs), axis=0).ravel()
    iphase = 1j * np.array([phase for _, phase in coords], dtype=float).repeat(thetas.size)
    known = {}

    def modes(i: np.ndarray, k: np.ndarray) -> np.ndarray:
        kappa = k + theta[i, None]
        keys = list(zip(grp[i].repeat(k.shape[1]).tolist(), np.abs(kappa).ravel().tolist()))
        new = list(dict.fromkeys(key for key in keys if key not in known))
        if new:
            g, sizes = np.array(new).T
            r, r2 = radii[g.astype(int)].T
            if (g == g[0]).all():
                r, r2 = float(r[0]), float(r2[0])
            known.update(zip(new, profile(sizes, r, r2).tolist()))
        return np.exp(kappa * iphase[i, None]) * np.array([known[key] for key in keys]).reshape(k.shape)

    def terms(i: np.ndarray, k: np.ndarray) -> np.ndarray:
        # row i is the side k > 0 of sum i, row n + i its side k < 0
        i, k = i % n, np.where(i < n, 1, -1)[:, None] * k
        return first[i[:, None], k + first_block] if np.abs(k).max() <= first_block else modes(i, k)

    n = grp.size
    if not n:
        return np.zeros((len(pairs), thetas.size), dtype=complex)
    first = modes(np.arange(n), np.arange(-first_block, first_block + 1)[None, :].repeat(n, axis=0))
    if predict:
        _check_mode_count(radii, ell)
    sides = _mode_sum(terms, np.tile(np.abs(first).max(axis=1), 2), first_block)
    words = np.array([[c1.winding - c2.winding] for c1, c2 in pairs])
    lam = np.array([cls.eigenvalue for cls in t.angles])
    return lam**words * ((first[:, first_block] + sides[:n] + sides[n:]).reshape(words.size, -1) / ell)


def cyl_kernel_fourier(s: complex, ell: float, t: TwistSpec, pairs) -> np.ndarray:
    """Twisted cylinder resolvent kernel via Fourier-mode synthesis, one row per pair (c1, c2).

    Per class j: (1/ell) sum_k e^{i kappa (phi - phi')} v_kappa(s; r, r')
    with kappa = k + theta_j; 2pi windings of the angles enter through the
    twist phase lambda_j^(w - w').
    """
    return _fourier_kernel(t, list(pairs), lambda kap, r, r2: cyl_mode(s, kap, r, r2, ell), ell, predict=True)


# ---------------------------------------------------------------------------
# Model funnel (Dirichlet boundary at r = 0)
# ---------------------------------------------------------------------------


def log_beta_kappa(s: complex, q):
    """log of (1/2) Gamma((s + iq + 1)/2) Gamma((s - iq + 1)/2), for one q or an array."""
    return -math.log(2.0) + log_gamma((s + 1.0 + 1j * q) / 2.0) + log_gamma((s + 1.0 - 1j * q) / 2.0)


def _v0_profile_scaled(s: complex, q, r):
    """(m, E) with v0(s; r) = m e^E, per element of q and r (scalars or arrays that broadcast)."""
    th = np.tanh(r)
    warg = th * th
    if warg.max(initial=0.0) > 1.0 - specfun.GUARD_DELTA:
        raise DomainError(
            f"tanh^2 r = {warg.max()} outside the series guard; needs |r| <= "
            f"{R0_PROFILE_MAX:.3f}"
        )
    m, e = _hyp2f1(warg)((s + 1.0 + 1j * q) / 2.0, (s + 1.0 - 1j * q) / 2.0, 1.5, warg)
    lc = _log_cosh(r)
    return th * m * np.exp(-1j * s.imag * lc), e - s.real * lc


def v0_profile(s: complex, q, r):
    """Dirichlet profile tanh(r) (cosh r)^{-s} F~(.., ..; 3/2; tanh^2 r), per element of q and r."""
    return _assemble_mode(0j, _v0_profile_scaled(complex(s), q, r), (1.0, 0.0))


def funnel_mode(s: complex, kappa, r, r2, ell: float):
    """Funnel mode beta_kappa(s) v0(s; min) v(s; max) for r, r2 >= 0.

    kappa, r and r2 are scalars or arrays that broadcast, as for `cyl_mode`.
    Vanishes identically at r = 0 (Dirichlet); poles on -(1+2 N0) +- i omega kappa.
    Factors are combined in log scale as for the cylinder mode.
    """
    s = complex(s)
    lo, hi = np.minimum(r, r2), np.maximum(r, r2)
    if (lo < 0.0).any():
        raise DomainError(f"funnel coordinates must satisfy r >= 0, got {lo.min()}")
    omega = TWO_PI / ell
    q = omega * abs(kappa)  # even in kappa
    return _assemble_mode(
        log_beta_kappa(s, q), _v0_profile_scaled(s, q, lo), _v_profile_scaled(s, q, hi)
    )


def funnel_kernel(s: complex, ell: float, t: TwistSpec, pairs) -> np.ndarray:
    """Funnel resolvent kernel by images, one row per pair (c1, c2): R_C(z, z') - R_C(z, reflected z').

    The reflection r -> -r is z -> -conj(z) on the half-plane, with the
    winding of z' kept; the windings enter through the reduction of
    `cyl_kernel_images`.  The direct and the reflected sums of every pair
    are the 2 len(pairs) rows of one image pass.
    """
    pairs = list(pairs)
    if any(c1.r < 0.0 or c2.r < 0.0 for c1, c2 in pairs):
        raise DomainError("funnel points need r >= 0")
    if not 0.0 < ell < math.inf:
        raise DomainError(f"cylinder length must be positive and finite, got {ell}")
    z = [cyl_to_plane(c1, ell).z for c1, _ in pairs]
    z2 = [cyl_to_plane(c2, ell).z for _, c2 in pairs]
    reflected = [cyl_to_plane(CylCoord(-c2.r, c2.phi, c2.winding), ell).z for _, c2 in pairs]
    rows = _reduced_images(s, ell, t, list(zip(z + z, z2 + reflected)))
    return rows[: len(pairs)] - rows[len(pairs) :]


def funnel_kernel_fourier(s: complex, ell: float, t: TwistSpec, pairs) -> np.ndarray:
    """Funnel resolvent kernel via the mode functions (same 1/ell prefactor), one row per pair."""
    return _fourier_kernel(t, list(pairs), lambda kap, r, r2: funnel_mode(s, kap, r, r2, ell), ell, predict=True)


# ---------------------------------------------------------------------------
# Parabolic cylinder (cusp)
# ---------------------------------------------------------------------------


def cusp_mode(s: complex, kappa, y, y2):
    """Cusp Fourier mode, per element of kappa, y and y2 (scalars or arrays that broadcast).

    kappa != 0: sqrt(y y') I_{s-1/2}(|kappa| y_min) K_{s-1/2}(|kappa| y_max);
    kappa == 0: y_min^s y_max^{1-s} / (2s - 1), pole at s = 1/2.
    The Bessel factors are one array call each at the shared order s - 1/2.
    """
    s = complex(s)
    ak, y, y2 = np.broadcast_arrays(np.abs(np.asarray(kappa, dtype=float)), y, y2)
    if not ((y > 0.0) & (y2 > 0.0)).all():
        raise DomainError(f"cusp coordinates must satisfy y > 0, got {y.min()}, {y2.min()}")
    lo, hi, zero, out = np.minimum(y, y2), np.maximum(y, y2), ak == 0.0, np.empty(ak.shape, dtype=complex)
    if zero.any():
        if abs(s - 0.5) < 1e-12:
            raise PoleError("cusp zero mode has its pole at s = 1/2")
        if not math.hypot(s.real, s.imag) < specfun.OVERFLOW_BUDGET_Z:
            raise OverflowBudgetError(f"cusp zero mode needs |s| < {specfun.OVERFLOW_BUDGET_Z:g}, got {s}")
        log_value = s * np.log(lo[zero]) + (1.0 - s) * np.log(hi[zero])
        out[zero] = specfun.scaled_value(1.0 / (2.0 * s - 1.0), log_value, "cusp zero mode")
    if not zero.all():
        a, lo, hi = ak[~zero], lo[~zero], hi[~zero]
        i_k = specfun._bessel_i_rows(s - 0.5, a * lo, True) * specfun._bessel_k_rows(s - 0.5, a * hi, True)
        out[~zero] = np.sqrt(y * y2)[~zero] * i_k * np.exp(-a * (hi - lo))
    return out if out.ndim else out[()]


def cusp_kernel(s: complex, ell, t: TwistSpec, pairs) -> np.ndarray:
    """Cusp resolvent kernel via Fourier modes (prefactor 1), one row per pair (c1, c2); ell is unused.

    Per class j: sum_k e^{2 pi i (k+theta_j)(x - x')} u_{2 pi (k+theta_j)}(s; y, y')
    with x = phi/(2 pi), y = e^r.
    """
    pairs = list(pairs)
    planes = [(cusp_to_plane(c1), cusp_to_plane(c2)) for c1, c2 in pairs]
    # blocks from 2 where a first block of 8 would pass the Bessel budget
    y_max = max((max(p1.y, p2.y) for p1, p2 in planes), default=0.0)
    high = TWO_PI * (_FIRST_BLOCK + 1) * y_max > specfun.OVERFLOW_BUDGET_X
    # at s = 1/2, cusp_mode raises PoleError on the first term of a theta = 0 class
    return _fourier_kernel(
        t, pairs, lambda f, y, y2: cusp_mode(s, TWO_PI * f, y, y2), 1.0, _CUSP_FIRST_BLOCK if high else _FIRST_BLOCK,
        [((p1.y, p2.y), TWO_PI * (p1.x - p2.x)) for p1, p2 in planes],
    )


def _lattice_window(s: complex, b: float) -> int:
    """Last |k| summed term by term before the S_xi tails take over, at most 2^62; for |a| <= 1."""
    return int(min(max(64.0, 8.0 + 3.0 * b, 8.0 + 2.0 * abs(s)), 2.0**62))


def cusp_class_images(s: complex, thetas, planes) -> np.ndarray:
    """Cusp image sums sum_k lam^k g_s(sigma(z, z'+k)), lam = e^{2 pi i theta}, per pair (z, z') and angle.

    With a = x' - x, b = y + y' and L = 4yy', sigma_k = ((k+a)^2 + b^2)/L.
    The near images |k| <= K, K >= 3 the least with sigma_k >= 4 beyond it,
    go through g_s at that sigma_k, once for all classes; the far ones through
    `_image_series`, whose inner sums are the S_xi lattice sums without
    their near terms: a numpy window up to `_lattice_window`, then
    `_sxi_tails`, with a, b and the window's end per pair.  The tails carry
    the continuation of the sum below Re s = 1/2, so Re s > MARGIN suffices;
    theta = 0 has its pole at s = 1/2.  Returns a (len(planes), angles) array.
    """
    s = complex(s)
    thetas = np.asarray(thetas, dtype=float)
    if s.real <= MARGIN:
        raise DomainError(f"cusp image sum needs Re s > {MARGIN}, got {s.real}")
    if np.any(thetas == 0.0) and abs(s - 0.5) < 1e-12:
        raise PoleError("resolvent pole at s = 1/2 for the theta = 0 class")
    if not (len(planes) and thetas.size):
        return np.zeros((len(planes), thetas.size), dtype=complex)
    (x, y), (x2, y2) = (np.array([[p.x, p.y] for p in ps]).T for ps in zip(*planes))
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, big_l = x2 - x, y + y2, 4.0 * y * y2
        b2 = b * b
        # K, the least k >= 3 whose image k + 1 has sigma >= 4 (or _MAX_IMAGES + 1):
        # its closed form, then the exact test a step either way
        k_near = np.clip(np.ceil(np.sqrt(np.fmax(4.0 * big_l - b2, 0.0)) + np.abs(a) - 1.0), 3, _MAX_IMAGES + 1)
        k_near += (big_l > 0.25 * ((k_near + 1.0 - np.abs(a)) ** 2 + b2)) & (k_near <= _MAX_IMAGES)
        k_near -= (k_near > 3) & (big_l <= 0.25 * ((k_near - np.abs(a)) ** 2 + b2))
    k_near = k_near.astype(np.int64)
    window = np.array([_lattice_window(s, bi) for bi in b.tolist()], dtype=np.int64)
    _check_budget(2 * k_near + 1, 2 * (window - k_near))
    log_l = np.log(big_l)

    def images(rows):
        # k from -window to window: the near ones |k| <= K, the far ones around them
        k = np.arange(-window[rows].max(), window[rows].max() + 1)
        near_ok = np.abs(k) <= k_near[rows, None]
        far_ok = ~near_ok & (np.abs(k) <= window[rows, None])
        sigmas = ((k + a[rows, None]) ** 2 + b2[rows, None]) / big_l[rows, None]
        log_sig = np.where(far_ok, np.log(np.where(far_ok, sigmas, 1.0)), 0.0)
        exponent = 2j * math.pi * (np.multiply.outer(k, thetas) % 1.0) - s * log_sig[..., None]
        weights = np.exp(np.where((near_ok | far_ok)[..., None], exponent, -np.inf))
        q = np.exp(-np.min(np.where(far_ok, log_sig, np.inf), axis=1))
        end, ra, rb, rl = window[rows], a[rows], b[rows], log_l[rows]

        def tail_sums(i: np.ndarray, p: np.ndarray) -> np.ndarray:
            return _sxi_tails(thetas, p, ra[i], rb[i], end[i] + 1, rl[i])

        def tail_bound(i: np.ndarray, big_n: np.ndarray) -> np.ndarray:
            # the part past the window is bounded by the integral
            pw = s.real + big_n
            return 2.0 * np.exp(pw * rl[i] + (1.0 - 2.0 * pw) * np.log(end[i] - np.abs(ra[i]))) / (2.0 * pw - 1.0)

        return np.where(near_ok, sigmas, np.nan), weights * near_ok[..., None], log_sig, weights * far_ok[..., None], q, (tail_sums, tail_bound)

    return _image_series(s, 2 * window + 1, images)


def cusp_kernel_images(s: complex, ell, t: TwistSpec, pairs) -> np.ndarray:
    """Cusp resolvent kernel by images, one row per pair (c1, c2); ell is unused.

    CylCoord already puts Re z in [0, 1); the windings enter as twist phases.
    """
    if not t.is_unitary:
        raise DomainError("cusp image sums require a unitary twist")
    pairs = list(pairs)
    words = np.array([c1.winding - c2.winding for c1, c2 in pairs], dtype=int).reshape(-1, 1)
    planes = [(cusp_to_plane(c1), cusp_to_plane(c2)) for c1, c2 in pairs]
    lam = np.array([cls.eigenvalue for cls in t.angles], dtype=complex)
    return lam**words * cusp_class_images(s, [cls.theta for cls in t.angles], planes)


#: The route of each (end, method), looked up as a module global when called.
_ROUTES = {
    ("cylinder", "images"): "cyl_kernel_images", ("cylinder", "fourier"): "cyl_kernel_fourier",
    ("funnel", "images"): "funnel_kernel", ("funnel", "fourier"): "funnel_kernel_fourier",
    ("cusp", "images"): "cusp_kernel_images", ("cusp", "fourier"): "cusp_kernel",
}


def kernel(end: str, method: str, s: complex, ell, t: TwistSpec, pairs) -> np.ndarray:
    """One end's kernel by one method at one s: a (len(pairs), classes) array, one row per pair (c1, c2).

    end is "cylinder", "funnel" or "cusp" (which ignores ell); method is
    "images" or "fourier".  A lookup of the route, which takes every pair
    in one call; routes are looked up as module globals when called, so a
    rebound one runs.
    """
    route = _ROUTES.get((end, method))
    if route is None:
        raise DomainError(f"no kernel route for end {end!r} and method {method!r}")
    return globals()[route](s, ell, t, list(pairs))


# ---------------------------------------------------------------------------
# Twisted lattice sums S_xi
# ---------------------------------------------------------------------------


#: Trapezoid step in x and weight cutoff (e^-_TAIL_CUT) of the contour tail.
_TAIL_STEP = 0.15
_TAIL_CUT = 42.0

#: Most terms of `_sum_tail`'s binomial series, and its Euler-Maclaurin weights B_2k / 2k
#: times C(m, j - m), j = 2k - 1, per k (rows) and m (columns): e_j's sum in alpha = 2 v0 beta,
#: beta = 1 / q0, is (2 v0)^-j sum_m C(-p, m) C(m, j - m) (4 v0^2 beta)^m.
_MAX_BINOMIAL = 200
_EM_WEIGHTS = np.array([[bern / (j + 1) * math.comb(m, j - m) if m <= j else 0.0 for m in range(16)]
                        for j, bern in zip(range(1, 16, 2), specfun.BERNOULLI)])


def _sum_tail(p: np.ndarray, a, b, start, log_scale) -> np.ndarray:
    """sum_{k >= start} f_p(k), f_p(k) = (((k+a)^2 + b^2) e^-log_scale)^-p, per row of a, b, start and log_scale and per p.

    Euler-Maclaurin: the integral from `start` (a binomial series in
    r = (b/v0)^2, v0 = start + a, which is also its continuation below
    Re p = 1/2), f(start)/2, and eight Bernoulli corrections from the Taylor
    coefficients e_j of (1 + alpha x + beta x^2)^-p = f(start + x)/f(start),
    e_j = sum_m C(-p, m) C(m, j-m) alpha^(2m-j) beta^(j-m).  The C(-p, m) are
    one running product, to where a majorant of the series' terms,
    prod_i (|p| + i)/(i + 1) r, is below 1e-17 / (2|p| + 1) (or _MAX_BINOMIAL).
    a, b, start and log_scale are scalars or arrays whose last axis has length 1.
    """
    v0 = start + a
    q0 = v0 * v0 + b * b
    r = (b / v0) ** 2
    big_p = float(np.abs(p).max())
    i = np.arange(_MAX_BINOMIAL - 1.0)
    small = np.cumsum(np.log((big_p + i) / (i + 1.0) * float(np.max(r)))) < math.log(1e-17 / (2.0 * big_p + 1.0))
    m = np.arange(max(2 + int(np.argmax(small)) if small.any() else _MAX_BINOMIAL, _EM_WEIGHTS.shape[1]))
    pm = np.asarray(p)[:, None]
    binom = np.cumprod(np.concatenate([np.ones(pm.shape), (-pm - m[:-1]) / m[1:]], axis=-1), axis=-1)
    r, g, two_v0 = (np.asarray(x)[..., None] for x in (r, 4.0 * v0 * v0 / q0, 2.0 * v0))
    integral = (binom * r**m / (2.0 * pm + 2.0 * m - 1.0)).sum(axis=-1)
    integral *= v0 * np.exp(-p * (2.0 * np.log(v0) - log_scale))
    k = _EM_WEIGHTS.shape[1]
    j = np.arange(1.0, k, 2.0)
    corr = ((binom[:, :k] * g**m[:k]) @ _EM_WEIGHTS.T * two_v0**-j).sum(axis=-1)
    return integral + np.exp(-p * (np.log(q0) - log_scale)) * (0.5 - corr)


def _sxi_tails(theta, p: np.ndarray, a, b, start, log_scale=0.0) -> np.ndarray:
    """sum_{|k| >= start} xi^k (((k+a)^2 + b^2) e^-log_scale)^-p, xi = e^{2 pi i theta}, per row, p and theta.

    a, b, start and log_scale are scalars, or 1-d arrays of rows (a first
    axis of the result); theta is a scalar, or a 1-d array of angles (a
    last axis).  Valid for every theta in [0, 1), start + a > 0 well above
    b, and every p with Re p > 0 (theta = 0: p != 1/2 - N0), where the sums
    are taken as continued.  theta = 0 is `_sum_tail` on both sides.
    Otherwise each side is the integral of f(u) xi^u / (e^{2 pi i u} - 1)
    along Re u = c = start - 1/2, whose poles are the lattice points:

        sum_{k >= start} xi^k f(k) = i xi^c int f(c + iy) w(y) dy,
        w(y) = e^{-2 pi theta y} / (1 + e^{-2 pi y}).

    w decays like e^{-2 pi theta y} up and e^{-2 pi (1-theta) |y|} down,
    and the k <= -start side has the same w at -y.  The trapezoid rule in
    y = sinh(x)/2 takes both slow decays, and converges geometrically in
    the strip that the poles of w at y = i/2, ... leave; its nodes, the
    widest any angle needs, are shared by every row and angle.
    """
    p = np.asarray(p, dtype=complex)
    a, b, start, log_scale = (v[:, None] if isinstance(v, np.ndarray) else v for v in (a, b, start, log_scale))
    theta = np.asarray(theta, dtype=float)
    zero = theta == 0.0
    if zero.any():
        # both sides in one call: a and -a on a leading axis
        euler = _sum_tail(p, np.reshape([a, -a], (2, -1, 1)), b, start, log_scale).sum(axis=0)
        euler = euler.reshape(np.broadcast(a, p).shape)
        if zero.all():
            return np.repeat(euler[..., None], theta.size, axis=-1) if theta.ndim else euler
    th = theta[~zero] if theta.ndim else theta  # the contour's angles: a scalar, or a last axis
    col = (slice(None),) + (None,) * th.ndim  # the nodes as a column against that axis
    c = start - 0.5
    cut = _TAIL_CUT + math.pi * float(np.abs(p.imag).max())
    x = np.arange(
        -math.asinh(cut / (math.pi * (1.0 - th.max()))),
        # a quotient of Python floats, inf without a warning at a subnormal angle
        math.asinh(min(cut / (math.pi * float(th.min())), 1e300)) + _TAIL_STEP,
        _TAIL_STEP,
    )
    y = 0.5 * np.sinh(x)
    ay = np.abs(y)[col]
    rate = np.where(y[col] >= 0.0, th, 1.0 - th)
    w_dy = np.exp(-2.0 * math.pi * rate * ay - np.log1p(np.exp(-2.0 * math.pi * ay)))
    w_dy *= (0.5 * _TAIL_STEP * np.cosh(x))[col]
    # (u + a)^2 + b^2 = (u + a - ib)(u + a + ib): each factor has positive
    # real part on the line, so principal logs continue f analytically
    up = np.log(c + a + 1j * (y - b)) + np.log(c + a + 1j * (y + b)) - log_scale
    down = np.log(c - a - 1j * (y + b)) + np.log(c - a - 1j * (y - b)) - log_scale
    phase = np.exp(2j * math.pi * (th * c % 1.0))
    phase = phase[..., None, :] if th.ndim else phase
    # e^{-p f} from one exp at p[0] and one per distinct step of p, then
    # running products: the n-series' p = s + n takes two exps per node
    diffs = (p[1:] - p[:-1]).tolist()
    steps = list(dict.fromkeys(diffs))
    order = [0] + [1 + steps.index(d) for d in diffs]
    heads = np.array(p[:1].tolist() + steps)[:, None]

    def sums(f: np.ndarray) -> np.ndarray:
        powers = np.exp(-heads * f[..., None, :])
        return (powers[..., order, :].cumprod(axis=-2) if diffs else powers) @ w_dy

    # the k <= -start side has phase xi^-c e^{2 pi i c} = -conj(xi^c)
    out = 1j * (phase * sums(up) - phase.conjugate() * sums(down))
    if zero.any():
        out = np.insert(out, np.flatnonzero(zero) - np.arange(zero.sum()), euler[..., None], axis=-1)
    return out


def s_xi_direct(xi_angle: float, s: complex, a: float, b: float) -> complex:
    """Twisted lattice sum sum_k xi^k (|k+a|^2 + b^2)^{-s}, xi = e^{2 pi i xi_angle}.

    Direct summation over |k| <= `_lattice_window` and `_sxi_tails` beyond,
    at a reduced into [0, 1) by S(s; a + m, b) = xi^-m S(s; a, b);
    requires Re s > 1/2 + MARGIN.
    """
    s = complex(s)
    if not (0.0 <= xi_angle < 1.0):
        raise DomainError(f"xi_angle must lie in [0, 1), got {xi_angle}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a}")
    if s.real <= 0.5 + MARGIN:
        raise DomainError(f"direct sum needs Re s > {0.5 + MARGIN}, got {s.real}")
    m = math.floor(a)
    a -= m
    window = _lattice_window(s, b)
    k = np.arange(-window, window + 1)
    terms = np.exp(2j * math.pi * (xi_angle * k % 1.0) - s * np.log((k + a) ** 2 + b * b))
    total = terms.sum() + _sxi_tails(xi_angle, np.array([s]), a, b, window + 1)[0]
    return complex(cmath.exp(-2j * math.pi * (xi_angle * m % 1.0)) * total)


def s_xi_continued(xi_angle: float, s: complex, a: float, b: float) -> complex:
    """Meromorphic continuation of S_xi via its Poisson-summation integral.

    S_xi(s; a, b) = sqrt(pi) b^{1-2s} / Gamma(s) * [ I(s) + [xi = 1] Gamma(s - 1/2) ],

    where I(s) integrates e^{-u} u^{s-1/2} against the dual theta sum less
    its zero frequency, D(u) = sum_{f = k+lam != 0} e^{-pi^2 b^2 f^2/u - 2 pi i a f},
    over t = log u by `_quad.trapezoid`: the integrand is analytic for
    |Im t| < pi/2 and falls double-exponentially at both ends.  For
    u > 4 pi b^2, D is its Poisson form sqrt(u/pi)/b sum_m e^{2 pi i lam m}
    e^{-u (m+a)^2/b^2} - [xi = 1]; each form takes the fixed terms that hold
    all within e^-40 of its largest, with a reduced into [-1/2, 1/2] by
    S(s; a + m, b) = xi^-m S(s; a, b).  Valid for all s; for xi = 1 the poles
    sit at s in 1/2 - N0 (from the separated Gamma(s - 1/2) term).  I cancels
    to about e^{-pi |Im s|/2} of its integrand: past |Im s| ~ 15, where
    rounding leaves under 9 digits, the rule raises QuadratureError.
    """
    from ._quad import trapezoid

    s = complex(s)
    if not (0.0 <= xi_angle < 1.0):
        raise DomainError(f"xi_angle must lie in [0, 1), got {xi_angle}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    lam = xi_angle
    if lam == 0.0 and specfun._is_nonpositive_integer(s - 0.5) is not None:
        raise PoleError(f"S_1 has a pole at s = {s}")

    a0 = round(a)
    a -= a0
    pib2 = math.pi * math.pi * b * b
    m_min = 1.0 if lam == 0.0 else min(lam, 1.0 - lam)
    # within e^-40 of the largest term: |f| <= 7.3 at u <= 4 pi b^2, |m + a| <= 1.9 above;
    # the phase e^{-2 pi i a f} is pinned by the index-shift identity
    freq = np.arange(-8, 8) + lam
    freq = freq[freq != 0.0]
    m = np.arange(-2.0, 3.0)
    dual_phase, direct_phase = np.exp(-2j * math.pi * a * freq), np.exp(2j * math.pi * (lam * m % 1.0))
    freq2, dist2 = freq * freq, (m + a) ** 2

    def integrand(t: np.ndarray) -> np.ndarray:
        u = np.exp(t)
        k = np.searchsorted(u, 4.0 * math.pi * b * b, "right")  # t ascends: the dual form's nodes come first
        v = u[k:]
        direct = np.sqrt(v / math.pi) / b * (np.exp(np.multiply.outer(-v / (b * b), dist2)) @ direct_phase)
        d = np.concatenate([np.exp(np.multiply.outer(-pib2 / u[:k], freq2)) @ dual_phase, direct - (lam == 0.0)])
        return np.exp(-u + (s - 0.5) * t) * d

    gamma_term = cmath.exp(log_gamma(s - 0.5)) if lam == 0.0 else 0.0
    # upper limit: e^{-U} U^{Re s - 1/2} < 1e-16
    U = 45.0
    while U - max(s.real - 0.5, 0.0) * math.log(U) < 37.0:
        U += 5.0
    # lower limit: below u = (pi b m_min)^2 / 700 every dual term is under e^-700 (at large b, beyond U too)
    reach = math.pi * b * m_min
    t_min = min(2.0 * math.log(reach) - math.log(700.0), math.log(U)) if reach else -math.inf
    if t_min < math.log(np.finfo(float).tiny):
        raise OverflowBudgetError(f"S_xi continuation at angle {xi_angle:g}, b = {b:g} needs u below the smallest normal double")
    integral = trapezoid(integrand, t_min, math.log(U), 0.25, 1e-13, gamma_term)  # settles at h = 1/8 for b ~ 1
    pref = cmath.exp(
        0.5 * math.log(math.pi) + (1.0 - 2.0 * s) * math.log(b) - log_gamma(s) - 2j * math.pi * (lam * a0 % 1.0)
    )
    return pref * (integral + gamma_term)
