"""Per-image reference for the cusp image sums.

This is the cusp image route as it was written before the near/far split:
one `g_s` call per image, k = 1, 2, ... and then k = -1, -2, ..., each side
stopped by comparison with the integral of the k^(-2 Re s) decay against
an absolute tail tolerance.  It costs about |R|^(-1/(2 Re s - 1)) images,
so tests hold the split route to it only where Re s is large.
"""

from __future__ import annotations

import numpy as np

from resonance_lab.errors import DomainError
from resonance_lab.free_resolvent import g_s
from resonance_lab.geometry import CylCoord, HPoint, cusp_to_plane, sigma
from resonance_lab.model_kernels import MARGIN, ImagesConfig, _classwise, _sum_over_z
from resonance_lab.twist import TwistSpec


def cusp_class_images(
    s: complex,
    lam: complex,
    z: HPoint,
    z2: HPoint,
    cfg: ImagesConfig = ImagesConfig(),
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
    s: complex,
    t: TwistSpec,
    c1: CylCoord,
    c2: CylCoord,
    cfg: ImagesConfig = ImagesConfig(),
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
        lambda cls: cusp_class_images(s, cls.eigenvalue, z, w, cfg),
    )
