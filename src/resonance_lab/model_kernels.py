"""Twisted resolvent kernels on the three model ends, by two representations.

Each kernel is computed per eigenvalue class of the monodromy (the twist is
diagonalized once and for all; kernels are diagonal in that basis, and
`_classwise` applies each class's twist phase), either as

  * a truncated method-of-images sum of the free kernel with twist weights,
    valid in the convergence half-plane Re s > C + MARGIN, or
  * a Fourier-mode synthesis from closed-form mode functions, valid for all
    s off the mode pole lattices.

`kernel` is the one dispatch from an end and a method to its route.
All three image routes run through one engine, `_image_series`: the near
images go through g_s and the far ones through the n-series of g_s in
1/sigma, stopped on a bound relative to the smallest class value.  The
cylinder (and so the funnel, a difference of two cylinder sums) takes its
far images on a window past which they are geometrically negligible; cusp
images decay only like |k|^(-2 Re s), so its far sums are twisted lattice
sums S_xi, whose tails past a direct window `_sxi_tails` evaluates for
every angle.  Fourier modes (`_mode_sum`) stop on a geometric tail
estimate, times 10, below FOURIER_TAIL_TOL times the largest term so far.

A Fourier route takes point pairs at one s and returns a (pairs, classes)
array: `_mode_sum` advances every (pair, class) sum together, a block of k
per round (8, or 2 high in the cusp, then doubling), with the stopping rule
applied value by value, so that each sum stops where a mode-by-mode sum
would.  Each distinct (r, r', |kappa|) is evaluated once.  Mode profiles
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
from .errors import DomainError, PoleError, TruncationError
from .free_resolvent import g_s
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

#: A class value that cancels below this fraction of its near images is
#: held to the series bound at that fraction of them: its own rounding
#: error is already larger than the bound.
_CANCEL_FLOOR = 1e-4

#: The cylinder's far window ends where the images beyond it add less than
#: e^-_WINDOW_CUT (about 1e-20) of its largest image, per class.
_WINDOW_CUT = 46.0


def _check_budget(n_near: int, n_far: int) -> None:
    """TruncationError when an image sum would take more than _MAX_IMAGES images."""
    if n_near + n_far > _MAX_IMAGES:
        raise TruncationError(
            f"image sum needs {n_near} near and {n_far} far images, more than {_MAX_IMAGES}"
        )


def _image_series(s, sigmas, near_weights, far_sums, far_abs, q) -> np.ndarray:
    """Image sums of g_s, one per class j, split into near and far images.

    The near images, at sigmas with weights near_weights[j, k], go through
    g_s.  The far ones, each with sigma_k >= 1/q >= 4, go through the
    n-series of g_s,

        (1/4pi) sum_n c_n sum_far w_j(k) sigma_k^-(s+n),
        c_n = Gamma(s+n)^2 / (n! Gamma(2s+n)),

    whose inner sums far_sums(n) gives for n = 0..N, while far_abs(N)
    bounds sum_far |w_j(k)| sigma_k^-(Re s+N).  Every n loses a factor q,
    so the series stops when a bound of its remainder falls below
    SERIES_TOL of each class value (or of _CANCEL_FLOOR of its near images,
    for a class that cancels below that).  Callers check the image counts
    with `_check_budget` before they build anything per image.
    """
    near = np.array([g_s(s, x) for x in sigmas], dtype=complex)
    floor = _CANCEL_FLOOR * (np.abs(near_weights) @ np.abs(near))
    near = near_weights @ near
    c0 = cmath.exp(2.0 * log_gamma(s) - log_gamma(2.0 * s))
    big_n = max(8, math.ceil(37.0 / -math.log(q)))
    while big_n <= _MAX_SERIES_TERMS:
        n = np.arange(big_n + 1)
        p = s + n
        with np.errstate(over="ignore", invalid="ignore"):  # a c_n past a double fails the bound
            # c_{n+1} = c_n (s+n)^2 / ((n+1)(2s+n)); ratio[N] leads on to c_{N+1}
            ratio = p**2 / ((n + 1.0) * (p + s))
            c = c0 * np.cumprod(np.concatenate([[1.0], ratio[:-1]]))
            total = near + c @ far_sums(n) / (4.0 * math.pi)
        # the terms n > N add at most |c_{N+1}| q E_N / (4pi (1 - rho q)),
        # E_N = far_abs(N) and rho >= |c_{m+1}/c_m| for all m > N
        try:
            rho = max(1.0, (abs(s) + big_n + 1) ** 2 / ((big_n + 1) * (big_n + 2)))
        except OverflowError:  # |s| past 1e154: no bound
            rho = math.inf
        if rho * q < 1.0:
            bound = abs(c[-1] * ratio[-1]) * q * far_abs(big_n) / (4.0 * math.pi * (1.0 - rho * q))
            if np.all(bound <= SERIES_TOL * np.maximum(np.abs(total), floor)):
                return total
        big_n *= 2
    raise TruncationError(
        f"image n-series not below {SERIES_TOL} relative within {_MAX_SERIES_TERMS} terms"
    )


def _classwise(t: TwistSpec, word: int, values) -> np.ndarray:
    """lambda_j^word * values[j], one complex value per class j."""
    return np.array(
        [cls.eigenvalue**word * v for cls, v in zip(t.angles, values)], dtype=complex
    )


# ---------------------------------------------------------------------------
# Hyperbolic cylinder
# ---------------------------------------------------------------------------


def cyl_class_images(s: complex, ell: float, classes, z: HPoint, z2: HPoint) -> np.ndarray:
    """Raw image sums sum_k lam^k g_s(sigma(z, e^{k ell} z')), one per class.

    With A = |z||z'|/(2yy'), L = log(|z'|/|z|), alpha and beta the
    arguments of z and z', and x_k = k ell + L,

        sigma_k = A (cosh x_k - cos(alpha + beta))
                = 2A (sinh^2(x_k/2) + sin^2((alpha + beta)/2)).

    The near images, sigma_k < 4 and the two around x = 0, go through g_s
    at sigma_k by the second form, so that images at mirrored x_k get the
    same sigma; the far ones through `_image_series`.  Their window ends on
    each side where the rest, which shrinks by at least
    |lam| e^{-Re s (ell - 2 log(1 + e^{-|x|}))} per image, is below
    e^-_WINDOW_CUT of the largest far image.  lam^k and sigma_k^-s share
    one exponent, so that neither overflows alone.  No fundamental-domain
    reduction is applied; valid for any half-plane points with z != z'.
    """
    s = complex(s)
    theta = np.array([cls.theta for cls in classes])
    log_abs = np.array([cls.log_abs for cls in classes])
    big_a = abs(z.z) * abs(z2.z) / (2.0 * z.y * z2.y)
    big_l = math.log(abs(z2.z) / abs(z.z))
    sin2 = math.sin(0.5 * (cmath.phase(z.z) + cmath.phase(z2.z))) ** 2

    def log_weights(k: np.ndarray) -> np.ndarray:
        """log lam_j^k per image k and class j, the angle reduced mod 2 pi."""
        return np.multiply.outer(k, log_abs) + 2j * math.pi * (np.multiply.outer(k, theta) % 1.0)

    def log_sigma(k: np.ndarray) -> np.ndarray:
        ax = np.abs(k * ell + big_l)
        return math.log(2.0 * big_a) + ax + np.log(0.25 * np.expm1(-ax) ** 2 + sin2 * np.exp(-ax))

    k0 = math.floor(-big_l / ell)
    reach = 2.0 * math.asinh(math.sqrt(max(2.0 / big_a - sin2, 0.0))) / ell
    lo = min(k0, math.floor(-big_l / ell - reach))
    hi = max(k0 + 1, math.ceil(-big_l / ell + reach))

    def far_length(side: int) -> int:
        rate = ell * s.real - float(np.max(side * log_abs, initial=-math.inf))
        m = max(8, math.ceil(_WINDOW_CUT / rate)) if rate > 0.0 else _MAX_IMAGES + 1
        while m <= _MAX_IMAGES:
            k = (hi if side > 0 else lo) + side * np.arange(1, m + 1)
            tau = log_weights(k).real - s.real * log_sigma(k)[:, None]
            # sigma_{k+1} / sigma_k >= e^ell / (1 + e^{-|x_k|})^2 further out
            shrink = side * log_abs - s.real * (
                ell - 2.0 * math.log1p(math.exp(-abs(k[-1] * ell + big_l)))
            )
            if np.all(shrink < 0.0) and np.all(
                tau[-1] + shrink - np.log(-np.expm1(shrink)) <= tau.max(axis=0) - _WINDOW_CUT
            ):
                break
            m *= 2
        return m

    up, down = far_length(1), far_length(-1)
    _check_budget(hi - lo + 1, up + down)
    k = np.concatenate([hi + np.arange(1, up + 1), lo - np.arange(1, down + 1)])
    log_sig = log_sigma(k)
    weights = np.exp(log_weights(k) - s * log_sig[:, None])
    k_near = np.arange(lo, hi + 1)
    sigmas = 2.0 * big_a * (np.sinh(0.5 * (k_near * ell + big_l)) ** 2 + sin2)
    return _image_series(
        s, sigmas.tolist(), np.exp(log_weights(k_near)).T,
        lambda n: np.exp(-np.multiply.outer(n, log_sig)) @ weights,
        lambda big_n: np.exp(-big_n * log_sig) @ np.abs(weights),
        math.exp(-float(log_sig.min())),
    )


def _reduce_cylinder(z: HPoint, ell: float) -> tuple[HPoint, int]:
    """Move z into the fundamental domain 1 <= |z| < e^ell; return the word."""
    m = math.floor(math.log(abs(z.z)) / ell)
    if m == 0:
        return z, 0
    return HPoint.from_complex(math.exp(-m * ell) * z.z), m


def cyl_kernel_images(s: complex, ell: float, t: TwistSpec, z: HPoint, z2: HPoint) -> np.ndarray:
    """Twisted cylinder resolvent kernel by the method of images.

    Returns one complex value per eigenvalue class of the twist.  Points
    are reduced to the fundamental domain with the twist factor applied
    for the reduction word.
    """
    s = complex(s)
    if not 0.0 < ell < math.inf:
        raise DomainError(f"cylinder length must be positive and finite, got {ell}")
    abscissa = t.log_norm() / ell
    if s.real <= abscissa + MARGIN:
        raise DomainError(
            f"Re s = {s.real} not above the convergence abscissa {abscissa} + margin {MARGIN}"
        )
    zf, m1 = _reduce_cylinder(z, ell)
    wf, m2 = _reduce_cylinder(z2, ell)
    return _classwise(t, m1 - m2, cyl_class_images(s, ell, t.angles, zf, wf))


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

    prev is a row's last magnitude before it (NaN at the start of a side),
    scale its largest so far.  Returns whether the row stops, its partial
    sum, largest and last magnitude up to the stop (or the block's end), and
    its next block: twice size, cut short where the last ratio says so.
    """
    mags = np.abs(values)
    before = np.empty_like(mags)
    before[:, 0], before[:, 1:] = prev, mags[:, :-1]
    scales = np.maximum(np.maximum.accumulate(mags, axis=1), scale[:, None])
    ratio = mags / before
    # a tail only where 0 < |term| < |term before|, at a ratio below 0.995
    stop = (ratio > 0.0) & (ratio < 0.995) & (10.0 * (mags * ratio / (1.0 - ratio)) < FOURIER_TAIL_TOL * scales)
    stop |= mags + before == 0.0
    if isinstance(count, np.ndarray):  # else the whole block is valid
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


def _mode_sum(terms, total: np.ndarray, first_block: int) -> np.ndarray:
    """Sum terms(i, k) over k in Z for every sum i at once, adaptively; total holds the k = 0 terms.

    terms takes the indices i of some sums and a 2-d array of k != 0, one
    row per sum.  Every sum adds k = 1, 2, ... and then k = -1, -2, ..., in
    blocks, the first of first_block modes.  It stops a side at the first
    value whose tail, estimated geometrically from the last magnitude ratio
    with a safety factor of 10 (the ratio still creeps toward its asymptote
    when r and r' are close), is below FOURIER_TAIL_TOL of the largest term
    so far, or at the second of two consecutive zeros.  A sum whose side +1
    stops takes its first block of side -1 in the same round.  A side that
    passes _MAX_FOURIER_MODES raises TruncationError.
    """
    out = total.copy()
    # the open sums, compacted as they end: index, side, next |k|, block
    # size, last magnitude, largest magnitude so far, and partial sum
    ids = np.arange(out.size)
    side, lo, size = np.ones(out.size, dtype=int), np.ones(out.size, dtype=int), np.full(out.size, first_block)
    prev, scale, acc = np.full(out.size, math.nan), np.abs(out), out.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        while ids.size:
            count = np.minimum(size, _MAX_FOURIER_MODES + 1 - lo)
            if count.min() < 1:
                raise TruncationError(f"Fourier synthesis needs more than {_MAX_FOURIER_MODES} modes")
            # one row per sum, padded with its last mode, which the scan leaves out
            k = np.minimum(np.add.outer(lo, np.arange(count.max())), (lo + count - 1)[:, None])
            hit, part, scale, prev, size = _scan(terms(ids, k * side[:, None]), count, prev, scale, size)
            acc += part
            lo += count
            turn = (hit & (side > 0)).nonzero()[0]
            if turn.size:  # side +1 is done: side -1 starts, with the scale so far
                k = -np.arange(1, first_block + 1)[None, :].repeat(turn.size, axis=0)
                hit[turn], part, scale[turn], prev[turn], size[turn] = _scan(
                    terms(ids[turn], k), first_block, math.nan, scale[turn], first_block
                )
                acc[turn] += part
                side[turn], lo[turn] = -1, 1 + first_block
            if hit.any():
                out[ids[hit]] = acc[hit]
                ids, side, lo, size, prev, scale, acc = (v[~hit] for v in (ids, side, lo, size, prev, scale, acc))
    return out


def _fourier_kernel(t: TwistSpec, pairs, profile, ell: float, first_block: int = _FIRST_BLOCK, coords=None):
    """Per pair p and class j: lambda_j^(w1 - w2) sum_k e^{i kappa phase_p} profile(|kappa|, radial_p) / ell.

    kappa = k + theta_j; 2pi windings of the angles enter through the twist
    phase.  coords lists (radial_p, phase_p), by default ((r, r'), phi - phi');
    profile(kappa, r, r2) takes an array of |kappa| and r, r2 (scalars where
    all rows share them), once per distinct (radial_p, |kappa|).  Every sum
    takes k = 0 and its first block on each side: one call evaluates those
    of every sum, a table that later rounds read.  Returns a (len(pairs),
    classes) array.
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
    known, first = {}, None

    def terms(i: np.ndarray, k: np.ndarray) -> np.ndarray:
        if first is not None and max(-k.min(), k.max()) <= first_block:
            return first[i[:, None], k + first_block]
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

    if not grp.size:
        return np.zeros((len(pairs), thetas.size), dtype=complex)
    first = terms(np.arange(grp.size), np.arange(-first_block, first_block + 1)[None, :].repeat(grp.size, axis=0))
    words = np.array([[c1.winding - c2.winding] for c1, c2 in pairs])
    lam = np.array([cls.eigenvalue for cls in t.angles])
    return lam**words * (_mode_sum(terms, first[:, first_block], first_block).reshape(words.size, -1) / ell)


def cyl_kernel_fourier(s: complex, ell: float, t: TwistSpec, pairs) -> np.ndarray:
    """Twisted cylinder resolvent kernel via Fourier-mode synthesis, one row per pair (c1, c2).

    Per class j: (1/ell) sum_k e^{i kappa (phi - phi')} v_kappa(s; r, r')
    with kappa = k + theta_j; 2pi windings of the angles enter through the
    twist phase lambda_j^(w - w').
    """
    return _fourier_kernel(t, list(pairs), lambda kap, r, r2: cyl_mode(s, kap, r, r2, ell), ell)


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


def funnel_kernel(
    s: complex,
    ell: float,
    t: TwistSpec,
    c1: CylCoord,
    c2: CylCoord,
) -> np.ndarray:
    """Funnel resolvent kernel by images: R_C(z, z') - R_C(z, reflected z').

    The reflection r -> -r is z -> -conj(z) on the half-plane, with the
    winding of z' kept; the windings enter through the reduction of
    `cyl_kernel_images`.
    """
    if c1.r < 0.0 or c2.r < 0.0:
        raise DomainError("funnel points need r >= 0")
    z = cyl_to_plane(c1, ell)
    direct = cyl_kernel_images(s, ell, t, z, cyl_to_plane(c2, ell))
    w_refl = cyl_to_plane(CylCoord(-c2.r, c2.phi, c2.winding), ell)
    return direct - cyl_kernel_images(s, ell, t, z, w_refl)


def funnel_kernel_fourier(s: complex, ell: float, t: TwistSpec, pairs) -> np.ndarray:
    """Funnel resolvent kernel via the mode functions (same 1/ell prefactor), one row per pair."""
    return _fourier_kernel(t, list(pairs), lambda kap, r, r2: funnel_mode(s, kap, r, r2, ell), ell)


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
        log_value = s * np.log(lo[zero]) + (1.0 - s) * np.log(hi[zero])
        out[zero] = specfun.scaled_value(1.0 / (2.0 * s - 1.0), log_value, "cusp zero mode")
    if not zero.all():
        a, lo, hi = ak[~zero], lo[~zero], hi[~zero]
        i_k = specfun._bessel_i_rows(s - 0.5, a * lo, True) * specfun._bessel_k_rows(s - 0.5, a * hi, True)
        out[~zero] = np.sqrt(y * y2)[~zero] * i_k * np.exp(-a * (hi - lo))
    return out if out.ndim else out[()]


def cusp_kernel(s: complex, t: TwistSpec, pairs) -> np.ndarray:
    """Cusp resolvent kernel via Fourier modes (prefactor 1), one row per pair (c1, c2).

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


def _lattice_window(s: complex, a: float, b: float) -> int:
    """Last |k| summed term by term before the S_xi tails take over, at most 2^62."""
    return int(min(max(64.0, 8.0 + abs(a), 8.0 + 3.0 * b, 8.0 + 2.0 * abs(s)), 2.0**62))


def cusp_class_images(s: complex, thetas, z: HPoint, z2: HPoint) -> np.ndarray:
    """Cusp image sums sum_k lam^k g_s(sigma(z, z'+k)), lam = e^{2 pi i theta}, per class angle.

    With a = x' - x, b = y + y' and L = 4yy', sigma_k = ((k+a)^2 + b^2)/L.
    The near images |k| <= K, K >= 3 the least with sigma_k >= 4 beyond it,
    go through g_s at that sigma_k, once for all classes; the far ones through
    `_image_series`, whose inner sums are the S_xi lattice sums without
    their near terms: a numpy window up to `_lattice_window`, then
    `_sxi_tails`.  The tails carry the continuation of the sum below
    Re s = 1/2, so Re s > MARGIN suffices; theta = 0 has its pole at s = 1/2.
    """
    s = complex(s)
    thetas = np.asarray(thetas, dtype=float)
    if s.real <= MARGIN:
        raise DomainError(f"cusp image sum needs Re s > {MARGIN}, got {s.real}")
    if np.any(thetas == 0.0) and abs(s - 0.5) < 1e-12:
        raise PoleError("resolvent pole at s = 1/2 for the theta = 0 class")
    a, b, big_l = z2.x - z.x, z.y + z2.y, 4.0 * z.y * z2.y
    k_near = 3
    while big_l > 0.25 * ((k_near + 1 - abs(a)) ** 2 + b * b) and k_near <= _MAX_IMAGES:
        k_near += 1
    window = _lattice_window(s, a, b)
    _check_budget(2 * k_near + 1, 2 * (window - k_near))
    k = np.arange(-k_near, k_near + 1)
    sigmas = (((k + a) ** 2 + b * b) / big_l).tolist()
    near_weights = np.exp(2j * math.pi * (np.multiply.outer(thetas, k) % 1.0))

    k = np.concatenate([np.arange(k_near + 1, window + 1), np.arange(-window, -k_near)])
    log_sig = np.log(((k + a) ** 2 + b * b) / big_l)
    phases = np.exp(2j * math.pi * (np.multiply.outer(k, thetas) % 1.0))

    def far_sums(n: np.ndarray) -> np.ndarray:
        p = s + n
        lattice = np.exp(-np.multiply.outer(p, log_sig)) @ phases
        for j, theta in enumerate(thetas):
            lattice[:, j] += _sxi_tails(theta, p, a, b, window + 1, math.log(big_l))
        return lattice

    def far_abs(big_n: int) -> float:
        # the part past the window is bounded by the integral
        pw = s.real + big_n
        return float(np.exp(-pw * log_sig).sum()) + 2.0 * math.exp(
            pw * math.log(big_l) + (1.0 - 2.0 * pw) * math.log(window - abs(a))
        ) / (2.0 * pw - 1.0)

    # q, the largest 1/sigma_k of a far image, is <= 1/4
    return _image_series(
        s, sigmas, near_weights, far_sums, far_abs, math.exp(-float(log_sig.min()))
    )


def cusp_kernel_images(s: complex, t: TwistSpec, c1: CylCoord, c2: CylCoord) -> np.ndarray:
    """Cusp resolvent kernel by images (CylCoord already puts Re z in [0, 1))."""
    if not t.is_unitary:
        raise DomainError("cusp image sums require a unitary twist")
    thetas = [cls.theta for cls in t.angles]
    sums = cusp_class_images(s, thetas, cusp_to_plane(c1), cusp_to_plane(c2)) if thetas else []
    return _classwise(t, c1.winding - c2.winding, sums)


def kernel(end: str, method: str, s: complex, ell, t: TwistSpec, pairs) -> np.ndarray:
    """One end's kernel by one method at one s: a (len(pairs), classes) array, one row per pair (c1, c2).

    end is "cylinder", "funnel" or "cusp" (which ignores ell); method is
    "images" or "fourier".  The one dispatch from an end and a method to its
    route: a Fourier route takes every pair in one call, an image route one
    pair per call.  Routes are looked up as module globals when called, so a
    rebound one runs.
    """
    if end not in ("cylinder", "funnel", "cusp") or method not in ("images", "fourier"):
        raise DomainError(f"no kernel route for end {end!r} and method {method!r}")
    pairs = list(pairs)
    if method == "fourier":
        return cusp_kernel(s, t, pairs) if end == "cusp" else (
            funnel_kernel_fourier if end == "funnel" else cyl_kernel_fourier)(s, ell, t, pairs)
    rows = [
        cusp_kernel_images(s, t, c1, c2) if end == "cusp"
        else funnel_kernel(s, ell, t, c1, c2) if end == "funnel"
        else cyl_kernel_images(s, ell, t, cyl_to_plane(c1, ell), cyl_to_plane(c2, ell))
        for c1, c2 in pairs
    ]
    return np.array(rows, dtype=complex).reshape(len(pairs), len(t.angles))


# ---------------------------------------------------------------------------
# Twisted lattice sums S_xi
# ---------------------------------------------------------------------------


#: Trapezoid step in x and weight cutoff (e^-_TAIL_CUT) of the contour tail.
_TAIL_STEP = 0.15
_TAIL_CUT = 42.0

#: Frequencies per block of the continued S_xi's dual sum (31 nodes x 4096: 1 MB).
_FREQ_BLOCK = 4096


def _sum_tail(p: np.ndarray, a: float, b: float, start: int, log_scale: float) -> np.ndarray:
    """sum_{k >= start} f_p(k), f_p(k) = (((k+a)^2 + b^2) e^-log_scale)^-p, per p.

    Euler-Maclaurin: the integral from `start` (a binomial series in
    (b/(start+a))^2, which is also its continuation below Re p = 1/2),
    f(start)/2, and eight Bernoulli corrections from the Taylor
    coefficients e_j of (1 + alpha x + beta x^2)^-p = f(start + x)/f(start).
    """
    v0 = start + a
    q0 = v0 * v0 + b * b
    r = (b / v0) ** 2
    integral = np.zeros_like(p)
    binom = np.ones_like(p)
    for m in range(200):
        term = binom * r**m / (2.0 * p + 2.0 * m - 1.0)
        integral += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(integral)):
            break
        binom = binom * (-p - m) / (m + 1.0)
    integral *= v0 * np.exp(-p * (2.0 * math.log(v0) - log_scale))
    alpha, beta = 2.0 * v0 / q0, 1.0 / q0
    e_prev, e = np.ones_like(p), -p * alpha
    corr = np.zeros_like(p)
    for j in range(1, 2 * len(specfun.BERNOULLI)):
        if j % 2:
            corr += specfun.BERNOULLI[j // 2] / (j + 1) * e
        e_prev, e = e, -(alpha * (p + j) * e + beta * (2.0 * p + j - 1.0) * e_prev) / (j + 1)
    return integral + np.exp(-p * (math.log(q0) - log_scale)) * (0.5 - corr)


def _sxi_tails(
    theta: float, p: np.ndarray, a: float, b: float, start: int, log_scale: float = 0.0
) -> np.ndarray:
    """sum_{|k| >= start} xi^k (((k+a)^2 + b^2) e^-log_scale)^-p, xi = e^{2 pi i theta}, per p.

    Valid for every theta in [0, 1), start + a > 0 well above b, and every
    p with Re p > 0 (theta = 0: p != 1/2 - N0), where the sums are taken
    as continued.  theta = 0 is `_sum_tail` on both sides.  Otherwise each
    side is the integral of f(u) xi^u / (e^{2 pi i u} - 1) along
    Re u = c = start - 1/2, whose poles are the lattice points:

        sum_{k >= start} xi^k f(k) = i xi^c int f(c + iy) w(y) dy,
        w(y) = e^{-2 pi theta y} / (1 + e^{-2 pi y}).

    w decays like e^{-2 pi theta y} up and e^{-2 pi (1-theta) |y|} down,
    and the k <= -start side has the same w at -y.  The trapezoid rule in
    y = sinh(x)/2 takes both slow decays, and converges geometrically in
    the strip that the poles of w at y = i/2, ... leave.
    """
    p = np.asarray(p, dtype=complex)
    if theta == 0.0:
        return _sum_tail(p, a, b, start, log_scale) + _sum_tail(p, -a, b, start, log_scale)
    c = start - 0.5
    cut = _TAIL_CUT + math.pi * float(np.max(np.abs(p.imag)))
    x = np.arange(
        -math.asinh(cut / (math.pi * (1.0 - theta))),
        math.asinh(min(cut / (math.pi * theta), 1e300)) + _TAIL_STEP,
        _TAIL_STEP,
    )
    y = 0.5 * np.sinh(x)
    ay = np.abs(y)
    rate = np.where(y >= 0.0, theta, 1.0 - theta)
    w_dy = np.exp(-2.0 * math.pi * rate * ay - np.log1p(np.exp(-2.0 * math.pi * ay)))
    w_dy *= 0.5 * _TAIL_STEP * np.cosh(x)
    # (u + a)^2 + b^2 = (u + a - ib)(u + a + ib): each factor has positive
    # real part on the line, so principal logs continue f analytically
    up = np.log(c + a + 1j * (y - b)) + np.log(c + a + 1j * (y + b)) - log_scale
    down = np.log(c - a - 1j * (y + b)) + np.log(c - a - 1j * (y - b)) - log_scale
    phase = cmath.exp(2j * math.pi * (theta * c % 1.0))
    upper = np.exp(-np.multiply.outer(p, up)) @ w_dy
    lower = np.exp(-np.multiply.outer(p, down)) @ w_dy
    # the k <= -start side has phase xi^-c e^{2 pi i c} = -conj(xi^c)
    return 1j * (phase * upper - phase.conjugate() * lower)


def s_xi_direct(xi_angle: float, s: complex, a: float, b: float) -> complex:
    """Twisted lattice sum sum_k xi^k (|k+a|^2 + b^2)^{-s}, xi = e^{2 pi i xi_angle}.

    Direct summation over |k| <= `_lattice_window` and `_sxi_tails` beyond;
    requires Re s > 1/2 + MARGIN.
    """
    s = complex(s)
    if not (0.0 <= xi_angle < 1.0):
        raise DomainError(f"xi_angle must lie in [0, 1), got {xi_angle}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if s.real <= 0.5 + MARGIN:
        raise DomainError(f"direct sum needs Re s > {0.5 + MARGIN}, got {s.real}")
    window = _lattice_window(s, a, b)
    k = np.arange(-window, window + 1)
    terms = np.exp(2j * math.pi * (xi_angle * k % 1.0) - s * np.log((k + a) ** 2 + b * b))
    return complex(terms.sum() + _sxi_tails(xi_angle, np.array([s]), a, b, window + 1)[0])


def s_xi_continued(xi_angle: float, s: complex, a: float, b: float) -> complex:
    """Meromorphic continuation of S_xi via its Poisson-summation integral.

    S_xi(s; a, b) = sqrt(pi) b^{1-2s} / Gamma(s) * [ I(s) + [xi = 1] Gamma(s - 1/2) ],

    where I(s) integrates e^{-u} u^{s-1/2} against the dual theta sum, less
    its zero frequency, over t = log u: there the sum's rise at u ~ pi^2 b^2
    is as wide as its decay at u ~ 1.  Valid for all s; for xi = 1 the poles
    sit at s in 1/2 - N0 (from the separated Gamma(s - 1/2) term).
    """
    from ._quad import gauss_legendre_adaptive

    s = complex(s)
    if not (0.0 <= xi_angle < 1.0):
        raise DomainError(f"xi_angle must lie in [0, 1), got {xi_angle}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    lam = xi_angle
    if lam == 0.0 and specfun._is_nonpositive_integer(s - 0.5) is not None:
        raise PoleError(f"S_1 has a pole at s = {s}")

    pib2 = math.pi * math.pi * b * b
    m_min = 1.0 if lam == 0.0 else min(lam, 1.0 - lam)

    def integrand(t: np.ndarray) -> np.ndarray:
        u = np.exp(t)
        # frequencies past kmax are below e^-700 at every node
        kmax = int(math.sqrt(float(u.max()) * 700.0 / pib2)) + 2
        freq = np.arange(-kmax, kmax + 1) + lam
        freq = freq[freq != 0.0]
        # the dual sum leaves out the zero frequency; its phase is
        # e^{-2 pi i a (k+lam)}: the sign is pinned by the index-shift
        # identity S(s; a+1, b) = xi^{-1} S(s; a, b)
        dual = sum(
            np.exp(np.multiply.outer(-pib2 / u, f * f)) @ np.exp(-2j * math.pi * a * f)
            for f in np.split(freq, range(_FREQ_BLOCK, freq.size, _FREQ_BLOCK))
        )
        return np.exp(-u + (s - 0.5) * t) * dual

    # upper limit: e^{-U} U^{Re s - 1/2} < 1e-16
    U = 45.0
    while U - max(s.real - 0.5, 0.0) * math.log(U) < 37.0:
        U += 5.0
    # lower limit: below u = (pi b m_min)^2 / 700 every dual term is under e^-700
    t_min = 2.0 * math.log(math.pi * b * m_min) - math.log(700.0)
    integral = gauss_legendre_adaptive(integrand, t_min, math.log(U), 1e-12)
    if lam == 0.0:
        integral += cmath.exp(log_gamma(s - 0.5))
    pref = cmath.exp(
        0.5 * math.log(math.pi) + (1.0 - 2.0 * s) * math.log(b) - log_gamma(s)
    )
    return pref * integral
