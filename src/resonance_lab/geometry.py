"""Upper half-plane model: the point-pair invariant sigma, and
geodesic/horocyclic coordinates for the model ends."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HPoint:
    """Point x + iy of the upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0.0:
            raise DomainError(f"HPoint needs y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def from_complex(z: complex) -> "HPoint":
        return HPoint(z.real, z.imag)


def sigma(p: HPoint, q: HPoint) -> float:
    """Point-pair invariant ((x-x')^2 + (y+y')^2) / (4yy') = cosh^2(d/2) >= 1."""
    dx = p.x - q.x
    sy = p.y + q.y
    return (dx * dx + sy * sy) / (4.0 * p.y * q.y)


@dataclass(frozen=True)
class CylCoord:
    """Geodesic coordinates (r, phi) on a cylinder end.

    phi is reduced to [0, 2pi) on construction; the winding number of the
    raw angle is kept so that every kernel route can apply the twist phase
    for each full 2pi shift (the frequencies kappa are non-integer, so a
    2pi shift is not the identity on kernel values).  A winding is below
    2^62 in size.
    """

    r: float
    phi: float
    winding: int = field(default=0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise DomainError(f"coordinates must be finite, got r = {self.r}, phi = {self.phi}")
        w = math.floor(self.phi / TWO_PI)
        phi = self.phi - TWO_PI * w
        if phi >= TWO_PI:  # rounding pushed phi onto the upper edge
            phi -= TWO_PI
            w += 1
        if phi < 0.0:
            phi = 0.0
        if abs(self.winding + w) >= 2**62:
            raise DomainError(f"angle phi = {self.phi} winds {self.winding + w} times; a winding must be below 2^62")
        if w != 0 or phi != self.phi:
            object.__setattr__(self, "phi", phi)
            object.__setattr__(self, "winding", self.winding + w)


def _exp(x: float) -> float:
    """e^x, with DomainError where it overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"e^{x} overflows a double") from None


def cyl_to_plane(c: CylCoord, ell: float) -> HPoint:
    """Geodesic coordinates of the hyperbolic cylinder to the half-plane.

    z = e^(phi/omega) (e^r + i)/(e^r - i) with omega = 2 pi / ell, for the
    raw angle phi + 2 pi winding: the closed geodesic {r = 0} maps onto the
    imaginary axis, and each winding is one step of the deck group
    z -> e^ell z, so the point lies in the fundamental domain
    1 <= |z| < e^ell only for winding 0.
    """
    if not 0.0 < ell < math.inf:
        raise DomainError(f"cylinder length must be positive and finite, got {ell}")
    omega = TWO_PI / ell
    er = _exp(c.r)
    w = complex(er, 1.0) / complex(er, -1.0)
    z = _exp((c.phi + TWO_PI * c.winding) / omega) * w
    return HPoint(z.real, z.imag)


def cusp_to_plane(c: CylCoord) -> HPoint:
    """Horocyclic coordinates of the parabolic cylinder: z = phi/(2pi) + i e^r."""
    return HPoint(c.phi / TWO_PI, _exp(c.r))
