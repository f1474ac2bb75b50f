"""Exact resonance-multiset enumeration for model ends, counting functions
and growth-law fits.

Cylinder resonances form the lattice
    union over eigenvalues lambda, signs p = +-1:
        -N0 + p (log lambda + 2 pi i Z) / ell ;
funnel resonances shift the real parts to the negative odd integers; a
cusp contributes the single point 1/2 with the multiplicity of the
eigenvalue 1.  Listings enumerate the lattice points and merge coinciding
ones with their multiplicities; for rational angles the merge keys are
exact integers.  `census` does not enumerate: N(r) is additive in
multiplicities, so it counts the integers of one open interval per real
part, in O(r) work per radius, and merges nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InsufficientDataError, RadiusExceededError
from .twist import TwistSpec

#: Collision tolerance for merging lattice points with irrational data.
COLLISION_TOL = 1e-9

#: Fractions with denominator up to this are treated as exact angles.
_MAX_DENOM = 1_000_000

#: Real parts per block in `_interval_count`; a block holds about 80 bytes
#: per real part.
_CENSUS_BLOCK = 1 << 15


@dataclass(frozen=True)
class Resonance:
    """A pole location with its multiplicity."""

    location: complex
    mult: int

    def __post_init__(self) -> None:
        if self.mult < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.mult}")


@dataclass(frozen=True)
class ResonanceSet:
    """Resonances enumerated inside |s| < radius, sorted by (Re, Im)."""

    resonances: tuple[Resonance, ...]
    radius: float

    def __iter__(self):
        return iter(self.resonances)

    def __len__(self) -> int:
        return len(self.resonances)

    def total_multiplicity(self) -> int:
        return sum(r.mult for r in self.resonances)


@dataclass(frozen=True)
class SurfaceSpec:
    """A finite collection of model ends.

    funnels and cylinders are (ell, TwistSpec) pairs; cusps are bare
    TwistSpecs.  All twists must be unitary except cylinder twists, which
    may carry moduli.
    """

    funnels: tuple = ()
    cusps: tuple = ()
    cylinders: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "funnels", tuple((float(e), t) for e, t in self.funnels)
        )
        object.__setattr__(self, "cusps", tuple(self.cusps))
        object.__setattr__(
            self, "cylinders", tuple((float(e), t) for e, t in self.cylinders)
        )
        for ell, t in self.funnels + self.cylinders:
            if not ell > 0.0:
                raise DomainError(f"end length must be positive, got {ell}")
        for ell, t in self.funnels:
            if not t.is_unitary:
                raise DomainError("funnel twists must be unitary")
        for t in self.cusps:
            if not t.is_unitary:
                raise DomainError("cusp twists must be unitary")

    def to_json_dict(self) -> dict:
        return {
            "funnels": [
                {"ell": ell, "twist": t.to_json_dict()} for ell, t in self.funnels
            ],
            "cusps": [{"twist": t.to_json_dict()} for t in self.cusps],
            "cylinders": [
                {"ell": ell, "twist": t.to_json_dict()} for ell, t in self.cylinders
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SurfaceSpec":
        try:
            funnels = tuple(
                (float(e["ell"]), TwistSpec.from_json_dict(e["twist"]))
                for e in d.get("funnels", [])
            )
            cusps = tuple(
                TwistSpec.from_json_dict(e["twist"]) for e in d.get("cusps", [])
            )
            cylinders = tuple(
                (float(e["ell"]), TwistSpec.from_json_dict(e["twist"]))
                for e in d.get("cylinders", [])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed surface spec: {exc}") from exc
        return SurfaceSpec(funnels=funnels, cusps=cusps, cylinders=cylinders)


def _as_fraction(x: float) -> Fraction | None:
    fr = Fraction(x).limit_denominator(_MAX_DENOM)
    return fr if abs(float(fr) - x) < 1e-12 else None


def _merge_lattice(points: list[tuple[complex, int, object]], radius: float) -> ResonanceSet:
    """Aggregate multiplicities of coinciding points.

    Each entry carries an optional exact key; points with exact keys merge
    exactly, the rest by rounding to COLLISION_TOL with a warning when two
    distinct groups come closer than 1000 * COLLISION_TOL.
    """
    groups: dict[object, list] = {}
    for loc, mult, key in points:
        if key is None:
            key = (round(loc.real / COLLISION_TOL), round(loc.imag / COLLISION_TOL))
        entry = groups.setdefault(key, [0 + 0j, 0])
        entry[0] += loc * mult
        entry[1] += mult
    merged = [
        Resonance(loc_sum / m, m) for loc_sum, m in groups.values()
    ]
    merged.sort(key=lambda r: (r.location.real, r.location.imag, r.mult))
    for a, b in zip(merged[:-1], merged[1:]):
        d = abs(a.location - b.location)
        if COLLISION_TOL < d < 1000.0 * COLLISION_TOL:
            warnings.warn(
                f"near-collision of lattice points at {a.location} and "
                f"{b.location} (distance {d:.2e})",
                stacklevel=3,
            )
    return ResonanceSet(tuple(merged), radius)


def _require_radius(radius: float) -> None:
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise DomainError(f"radius must be finite, got {radius}")


def _lattice_points(
    ell: float, t: TwistSpec, radius: float, real_base: int, real_step: int
) -> ResonanceSet:
    """Enumerate union over classes and p = +-1 of
    (-real_base - real_step*N0) + p (log_abs + 2 pi i (theta + m)) / ell,
    keeping |s| < radius (strict), multiplicities aggregated.
    """
    _require_radius(radius)
    omega = 2.0 * math.pi / ell
    points: list[tuple[complex, int, object]] = []
    # exact merge keys are possible when every angle is rational and all
    # moduli vanish; keys are then (n, numerator of p*(theta+m)*q) over a
    # common denominator q
    fracs = [_as_fraction(c.theta) for c in t.angles]
    exact = t.is_unitary and all(f is not None for f in fracs)
    q_common = math.lcm(*(f.denominator for f in fracs)) if exact else 1
    for cls, fr in zip(t.angles, fracs):
        shift = cls.log_abs / ell
        for p in (1, -1):
            n_max = int(math.ceil(radius + abs(shift))) + real_base
            for n_real in range(real_base, n_max + 1, real_step):
                re = -n_real + p * shift
                if abs(re) >= radius:
                    continue
                im_bound = math.sqrt(radius * radius - re * re)
                m_lo = int(math.floor(-im_bound / omega - cls.theta)) - 1
                m_hi = int(math.ceil(im_bound / omega - cls.theta)) + 1
                for m in range(m_lo, m_hi + 1):
                    im = p * omega * (cls.theta + m)
                    loc = complex(re, im)
                    if abs(loc) >= radius:
                        continue
                    key = None
                    if exact:
                        num = p * (fr.numerator * (q_common // fr.denominator) + q_common * m)
                        key = (n_real, num) if shift == 0.0 else None
                    points.append((loc, cls.mult, key))
    return _merge_lattice(points, radius)


def cylinder_resonances(ell: float, t: TwistSpec, radius: float) -> ResonanceSet:
    """Resonance multiset of the twisted hyperbolic cylinder inside |s| < radius."""
    return _lattice_points(ell, t, radius, real_base=0, real_step=1)


def funnel_resonances(ell: float, t: TwistSpec, radius: float) -> ResonanceSet:
    """Resonance multiset of the twisted funnel inside |s| < radius."""
    if not t.is_unitary:
        raise DomainError("funnel twists must be unitary")
    return _lattice_points(ell, t, radius, real_base=1, real_step=2)


def cusp_resonances(t: TwistSpec) -> ResonanceSet:
    """The cusp contributes only s = 1/2, with the multiplicity of eigenvalue 1."""
    if not t.is_unitary:
        raise DomainError("cusp twists must be unitary")
    mult = sum(c.mult for c in t.angles if c.theta == 0.0)
    res = (Resonance(0.5 + 0.0j, mult),) if mult else ()
    return ResonanceSet(res, math.inf)


def counting_function(res: ResonanceSet, r: float) -> int:
    """N(r): total multiplicity of resonances with |s| < r (strict)."""
    if r > res.radius:
        raise RadiusExceededError(
            f"counting radius {r} exceeds enumeration radius {res.radius}"
        )
    return sum(p.mult for p in res if abs(p.location) < r)


def surface_resonances(spec: SurfaceSpec, radius: float) -> ResonanceSet:
    """Model-end census: all ends of the spec merged into one multiset.

    This is the union of the closed-form end lattices (plus cusp points),
    not the resonance set of a glued surface.
    """
    points: list[tuple[complex, int, object]] = []
    collections = (
        [funnel_resonances(ell, t, radius) for ell, t in spec.funnels]
        + [cylinder_resonances(ell, t, radius) for ell, t in spec.cylinders]
        + [cusp_resonances(t) for t in spec.cusps]
    )
    for rs in collections:
        for p in rs:
            if abs(p.location) < radius:
                points.append((p.location, p.mult, None))
    return _merge_lattice(points, radius)


def _interval_count(
    ell: float, t: TwistSpec, r: float, real_base: int, real_step: int
) -> int:
    """Total multiplicity of the `_lattice_points` lattice inside |s| < r.

    For each class, sign p and real part re, the admissible m are the
    integers of the open interval |re + i p omega (theta + m)| < r.  Its
    ends are estimated in floating point and then moved with the
    enumeration's own predicate (np.hypot is the libm hypot behind
    abs(complex)), so points on the circle count exactly as enumerated.
    The real parts go in blocks of _CENSUS_BLOCK, which bounds the memory.
    """
    omega = 2.0 * math.pi / ell
    stride = real_step * _CENSUS_BLOCK
    total = 0
    for cls in t.angles:
        shift = cls.log_abs / ell
        theta = cls.theta
        n_max = int(math.ceil(r + abs(shift))) + real_base
        for start in range(real_base, n_max + 1, stride):
            n_real = np.arange(start, min(start + stride, n_max + 1), real_step, dtype=float)
            for p in (1, -1):
                re = -n_real + p * shift
                re = re[np.abs(re) < r]
                half = np.sqrt(r * r - re * re) / omega

                def inside(m):
                    return np.hypot(re, p * omega * (theta + m)) < r

                lo = np.ceil(-half - theta)
                hi = np.floor(half - theta)
                while (step := inside(lo - 1.0)).any():
                    lo -= step
                while (step := (lo <= hi) & ~inside(lo)).any():
                    lo += step
                while (step := inside(hi + 1.0)).any():
                    hi += step
                while (step := (lo <= hi) & ~inside(hi)).any():
                    hi -= step
                total += cls.mult * int(np.maximum(hi - lo + 1.0, 0.0).sum())
    return total


def census(spec: SurfaceSpec, r_max: float, n_samples: int) -> list[tuple[float, int]]:
    """Table of (r, N(r)) at n_samples radii evenly spaced in (0, r_max].

    N(r) is counted by integer intervals (see `_interval_count`), not by
    enumerating `surface_resonances`; the two agree exactly.
    """
    if n_samples < 1:
        raise InsufficientDataError("census needs at least one sample radius")
    if spec.funnels or spec.cylinders:
        _require_radius(r_max)
    elif not math.isfinite(r_max):
        raise DomainError(f"radius must be finite, got {r_max}")
    cusp_mult = sum(c.mult for t in spec.cusps for c in t.angles if c.theta == 0.0)
    table = []
    for i in range(n_samples):
        r = r_max * (i + 1) / n_samples
        n = (
            sum(_interval_count(ell, t, r, 1, 2) for ell, t in spec.funnels)
            + sum(_interval_count(ell, t, r, 0, 1) for ell, t in spec.cylinders)
            + (cusp_mult if r > 0.5 else 0)
        )
        table.append((r, n))
    return table


def growth_fit(table: list[tuple[float, int]]) -> tuple[float, float]:
    """Least-squares coefficient c of N(r) ~ c r^2 and its relative spread.

    Needs at least 5 radii spanning a factor >= 4.
    """
    rs = np.array([r for r, _ in table], dtype=float)
    ns = np.array([n for _, n in table], dtype=float)
    if len(rs) < 5 or rs.min() <= 0.0 or rs.max() / rs.min() < 4.0:
        raise InsufficientDataError(
            "growth fit needs >= 5 radii spanning a factor >= 4"
        )
    r2 = rs * rs
    coeff = float((ns * r2).sum() / (r2 * r2).sum())
    ratios = ns / r2
    spread = float((ratios.max() - ratios.min()) / coeff) if coeff else math.inf
    return coeff, spread
