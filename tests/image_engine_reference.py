"""The image routes one pair per call: the oracle of the batched image engine.

This is `model_kernels`' image engine as it was before it took every pair
at one s in one pass: `_image_series` sums one pair's images, its near
images through the scalar g_s series of `free_resolvent_reference` one at
a time, and `cyl_class_images`, `cusp_class_images` and the funnel
difference build one pair's images.  The truncation (near/far split,
windows, n-series stops) is the batched engine's, pair by pair, so the
two agree to rounding.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from free_resolvent_reference import g_s_series as g_s
from resonance_lab.errors import DomainError, PoleError, TruncationError
from resonance_lab.geometry import CylCoord, HPoint, cusp_to_plane, cyl_to_plane
from resonance_lab.model_kernels import (
    _CANCEL_FLOOR,
    _MAX_IMAGES,
    _MAX_SERIES_TERMS,
    _WINDOW_CUT,
    MARGIN,
    SERIES_TOL,
    _sxi_tails,
)
from resonance_lab.specfun import log_gamma
from resonance_lab.twist import TwistSpec


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

