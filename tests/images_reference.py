"""Per-image reference loops for the cylinder, funnel and cusp image sums.

These are the image routes as they were written before the near/far
split: one call of the scalar g_s series per image, k = 1, 2, ... and then k = -1, -2, ...,
each side stopped on an absolute tail tolerance.

  * cylinder (and the funnel built on it): the geometric tail of the last
    magnitude ratio, times 4, below `Config.tail_tol`, from |k| = 3 on;
  * cusp: comparison with the integral of the k^(-2 Re s) decay.  It costs
    about |R|^(-1/(2 Re s - 1)) images, so tests hold the split route to
    it only where Re s is large.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from free_resolvent_reference import g_s_series as g_s
from image_engine_reference import _classwise, _reduce_cylinder
from resonance_lab.errors import DomainError, TruncationError
from resonance_lab.geometry import CylCoord, HPoint, cusp_to_plane, cyl_to_plane, sigma
from resonance_lab.model_kernels import MARGIN
from resonance_lab.twist import TwistSpec


@dataclass(frozen=True)
class Config:
    """Truncation control of the reference loops."""

    max_images: int = 10_000
    tail_tol: float = 1e-10


def _sum_over_z(term, center, done, limit: int, failure: str) -> complex:
    """center plus term(k) summed over k = 1, 2, ... and then k = -1, -2, ....

    A side stops as soon as done(|k|, |term(k)|, previous |term| or None)
    holds; a side that passes |k| = limit raises TruncationError(failure).
    """
    total = center
    for side in (1, -1):
        prev = None
        k = side
        while True:
            cur = term(k)
            total += cur
            mag = abs(cur)
            if done(abs(k), mag, prev):
                break
            prev = mag
            k += side
            if abs(k) > limit:
                raise TruncationError(failure)
    return total


def cyl_class_images(
    s: complex, ell: float, lam: complex, z: HPoint, z2: HPoint, cfg: Config = Config(),
    magnitudes: bool = False,
) -> complex:
    """Raw image sum sum_k lam^k g_s(sigma(z, e^{k ell} z')) for one class.

    With magnitudes, the sum of |lam^k g_s(sigma_k)| over the same images.
    """
    s = complex(s)
    wc = z2.z
    unit_modulus = abs(abs(lam) - 1.0) < 1e-15
    log_lam = cmath.log(lam)

    def term(k: int) -> complex:
        if abs(k) * ell > 700.0:
            # image beyond double range; its contribution underflowed long ago
            return 0.0 + 0.0j
        base = g_s(s, sigma(z, HPoint.from_complex(math.exp(k * ell) * wc)))
        if unit_modulus:
            value = lam**k * base
        elif base == 0.0:
            value = 0.0 + 0.0j
        else:
            # non-unit |lam|: lam^k alone can overflow while base underflows
            value = cmath.exp(k * log_lam + cmath.log(base))
        return abs(value) if magnitudes else value

    def done(n: int, mag: float, prev) -> bool:
        if prev is not None and mag > 0 and n >= 3:
            ratio = mag / prev if prev > 0 else 1.0
            if ratio < 0.95 and 4.0 * (mag * ratio / (1.0 - ratio)) < cfg.tail_tol:
                return True
        return mag == 0.0 and n > 2

    center = g_s(s, sigma(z, z2))
    return _sum_over_z(
        term, abs(center) if magnitudes else center, done, cfg.max_images,
        f"images sum not below tail_tol={cfg.tail_tol} within {cfg.max_images} images",
    )


def cyl_kernel_images(
    s: complex, ell: float, t: TwistSpec, z: HPoint, z2: HPoint, cfg: Config = Config()
) -> np.ndarray:
    """Twisted cylinder kernel by images, reduced to the fundamental domain."""
    zf, m1 = _reduce_cylinder(z, ell)
    wf, m2 = _reduce_cylinder(z2, ell)
    return _classwise(
        t, m1 - m2, [cyl_class_images(s, ell, cls.eigenvalue, zf, wf, cfg) for cls in t.angles]
    )


def funnel_kernel(
    s: complex, ell: float, t: TwistSpec, c1: CylCoord, c2: CylCoord, cfg: Config = Config()
) -> np.ndarray:
    """Funnel kernel by images: R_C(z, z') - R_C(z, reflected z')."""
    z = cyl_to_plane(c1, ell)
    direct = cyl_kernel_images(s, ell, t, z, cyl_to_plane(c2, ell), cfg)
    image = cyl_kernel_images(s, ell, t, z, cyl_to_plane(CylCoord(-c2.r, c2.phi), ell), cfg)
    phases = np.array([cls.eigenvalue ** (c1.winding - c2.winding) for cls in t.angles])
    return phases * (direct - image)


def cusp_class_images(
    s: complex, lam: complex, z: HPoint, z2: HPoint, cfg: Config = Config()
) -> complex:
    """Raw cusp image sum sum_k lam^k g_s(sigma(z, z'+k)) for one class.

    The terms decay only polynomially (sigma ~ k^2), so Re s must exceed
    1/2 + MARGIN; the tail is bounded by comparison with the integral.
    """
    if s.real <= 0.5 + MARGIN:
        raise DomainError(f"cusp image sum needs Re s > {0.5 + MARGIN}, got {s.real}")
    two_sig = 2.0 * s.real - 1.0

    def done(n: int, mag: float, prev) -> bool:
        # integral comparison: sum_{j>k} j^{-2 Re s} < k^{1-2 Re s}/(2 Re s - 1)
        return n > 2 and mag * n / two_sig < cfg.tail_tol

    return _sum_over_z(
        lambda k: lam**k * g_s(s, sigma(z, HPoint(z2.x + k, z2.y))),
        g_s(s, sigma(z, z2)), done, cfg.max_images,
        f"cusp images not below tail_tol={cfg.tail_tol} within {cfg.max_images} images",
    )


def cusp_kernel_images(
    s: complex, t: TwistSpec, c1: CylCoord, c2: CylCoord, cfg: Config = Config()
) -> np.ndarray:
    """Cusp resolvent kernel by images, reduced to Re z in [0, 1)."""
    s = complex(s)
    p1, p2 = cusp_to_plane(c1), cusp_to_plane(c2)
    m1, x1 = divmod(p1.x, 1.0)
    m2, x2 = divmod(p2.x, 1.0)
    z = HPoint(x1, p1.y)
    w = HPoint(x2, p2.y)
    return _classwise(
        t, int(m1) - int(m2) + c1.winding - c2.winding,
        [cusp_class_images(s, cls.eigenvalue, z, w, cfg) for cls in t.angles],
    )
