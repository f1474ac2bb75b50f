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

#: Largest N(radius) that `surface_resonances` lists; a listing holds about
#: 350 bytes per row.
_MAX_LISTED = 4_000_000

#: Work `census` may do, in real parts walked over all radii, classes and
#: signs (100-170 ns each); each radius, class and sign adds the fixed cost
#: of its numpy calls, about _CENSUS_CALL_COST real parts.
_MAX_CENSUS_WALK = 10**8
_CENSUS_CALL_COST = 512


@dataclass(frozen=True)
class Resonance:
    """A pole location with its multiplicity."""

    location: complex
    mult: int

    def __post_init__(self) -> None:
        if self.mult < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.mult}")


@dataclass(frozen=True, eq=False)
class ResonanceSet:
    """Resonances enumerated inside |s| < radius, sorted by (Re, Im, mult).

    The points are held as arrays re, im and mult; iterating yields
    `Resonance` objects.
    """

    re: np.ndarray
    im: np.ndarray
    mult: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", np.asarray(self.re, dtype=float))
        object.__setattr__(self, "im", np.asarray(self.im, dtype=float))
        object.__setattr__(self, "mult", np.asarray(self.mult, dtype=np.int64))
        if self.mult.size and self.mult.min() < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.mult.min()}")

    def __iter__(self):
        for re, im, mult in zip(self.re.tolist(), self.im.tolist(), self.mult.tolist()):
            yield Resonance(complex(re, im), mult)

    def __len__(self) -> int:
        return len(self.mult)

    def total_multiplicity(self) -> int:
        return int(self.mult.sum())


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
            if not 0.0 < ell < math.inf:
                raise DomainError(f"end length must be positive and finite, got {ell}")
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
        if not isinstance(d, dict):
            raise DomainError(f"malformed surface spec: expected a JSON object, got {type(d).__name__}")
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


def _merge_lattice(
    re: np.ndarray, im: np.ndarray, mult: np.ndarray, radius: float, keys=None
) -> ResonanceSet:
    """Aggregate multiplicities of coinciding points.

    Points merge when their key arrays agree; without keys they merge by
    rounding to COLLISION_TOL.  Two distinct groups closer than
    1000 * COLLISION_TOL raise a warning.  A group sits at the
    multiplicity-weighted mean of its points: loc * mult summed from +0.0
    in generation order, then divided by the total mult, as Python's
    complex arithmetic does it.  The zero cross terms of its complex
    product and quotient (re*m - im*0.0, (sr + si*0.0)/m) only change the
    sign of a zero, which the sum from +0.0 absorbs, so they are left out.
    """
    if keys is None:
        keys = (np.rint(re / COLLISION_TOL), np.rint(im / COLLISION_TOL))
    # stable, so the points of a group keep their generation order
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(order))
    mult = mult[order]
    term_re = re[order] * mult
    term_im = im[order] * mult
    re = np.zeros(len(starts))
    im = np.zeros(len(starts))
    for k in range(int(sizes.max(initial=0))):
        g = sizes > k
        re[g] += term_re[starts[g] + k]
        im[g] += term_im[starts[g] + k]
    mult = np.add.reduceat(mult, starts) if len(starts) else mult
    # numpy's complex division would multiply by 1/mult: not the same bits
    re /= mult
    im /= mult
    final = np.lexsort((mult, im, re))
    re, im, mult = re[final], im[final], mult[final]
    d = np.hypot(re[:-1] - re[1:], im[:-1] - im[1:])
    for i in np.flatnonzero((COLLISION_TOL < d) & (d < 1000.0 * COLLISION_TOL)).tolist():
        warnings.warn(
            f"near-collision of lattice points at {complex(re[i], im[i])} and "
            f"{complex(re[i + 1], im[i + 1])} (distance {d[i]:.2e})",
            stacklevel=3,
        )
    return ResonanceSet(re, im, mult, radius)


def _require_radius(radius: float) -> None:
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise DomainError(f"radius must be finite, got {radius}")


def _last_real_part(ell: float, cls, r: float, real_base: int, real_step: int) -> int:
    """Largest n whose real parts -n + p log_abs/ell can hold a point of cls in |s| < r.

    Every point of the class has |Im s| >= omega min(theta, 1 - theta), so
    |Re s| < sqrt(r^2 - (omega min(theta, 1 - theta))^2); one real step of
    margin leaves every decision to the callers' strict hypot test.  Raises
    DomainError where `_interval_count`'s interval ends, which move by 1.0,
    would not stay exact integers.
    """
    omega = 2.0 * math.pi / ell
    shift = abs(cls.log_abs / ell)
    if not r + shift + r / omega < 2.0**52:
        raise DomainError(f"N({r}) is too large to count in floating point")
    gap = omega * min(cls.theta, 1.0 - cls.theta)
    reach = min(math.sqrt(max(r * r - gap * gap, 0.0)) + real_step, r)
    return int(math.ceil(reach + shift)) + real_base


def _lattice_points(
    ell: float, t: TwistSpec, radius: float, real_base: int, real_step: int
) -> ResonanceSet:
    """Enumerate union over classes and p = +-1 of
    (-real_base - real_step*N0) + p (log_abs + 2 pi i (theta + m)) / ell,
    keeping |s| < radius (strict), multiplicities aggregated.
    """
    _require_radius(radius)
    if not t.angles:
        return ResonanceSet((), (), (), radius)
    omega = 2.0 * math.pi / ell
    # exact merge keys are possible when every angle is rational and all
    # moduli vanish; p*(theta + m) is then an integer plus one of finitely
    # many fractions in [0, 1), and the key is (n, integer, fraction id)
    fracs = [_as_fraction(c.theta) for c in t.angles]
    exact = t.is_unitary and all(f is not None for f in fracs)
    fraction_ids: dict[Fraction, int] = {}
    blocks = []
    for cls, fr in zip(t.angles, fracs):
        shift = cls.log_abs / ell
        n_max = _last_real_part(ell, cls, radius, real_base, real_step)
        for p in (1, -1):
            n_real = np.arange(real_base, n_max + 1, real_step)
            re = -n_real + p * shift
            keep = np.abs(re) < radius
            n_real, re = n_real[keep], re[keep]
            im_bound = np.sqrt(radius * radius - re * re)
            m_lo = np.floor(-im_bound / omega - cls.theta).astype(np.int64) - 1
            m_hi = np.ceil(im_bound / omega - cls.theta).astype(np.int64) + 1
            count = m_hi - m_lo + 1
            row = np.repeat(np.arange(len(re)), count)
            m = np.arange(len(row)) + np.repeat(m_lo - (np.cumsum(count) - count), count)
            re_pts, im_pts = re[row], p * omega * (cls.theta + m)
            inside = np.hypot(re_pts, im_pts) < radius
            row, m = row[inside], m[inside]
            block = [re_pts[inside], im_pts[inside], np.full(len(row), cls.mult)]
            if exact:
                whole = math.floor(p * fr)
                frac_id = fraction_ids.setdefault(p * fr - whole, len(fraction_ids))
                block += [n_real[row], whole + p * m, np.full(len(row), frac_id)]
            blocks.append(block)
    re, im, mult, *keys = (np.concatenate(col) for col in zip(*blocks))
    return _merge_lattice(re, im, mult, radius, tuple(keys) if exact else None)


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
    n = 1 if mult else 0
    return ResonanceSet([0.5] * n, [0.0] * n, [mult] * n, math.inf)


def counting_function(res: ResonanceSet, r: float) -> int:
    """N(r): total multiplicity of resonances with |s| < r (strict)."""
    if r > res.radius:
        raise RadiusExceededError(
            f"counting radius {r} exceeds enumeration radius {res.radius}"
        )
    return int(res.mult[np.hypot(res.re, res.im) < r].sum())


def surface_resonances(spec: SurfaceSpec, radius: float) -> ResonanceSet:
    """Model-end census: all ends of the spec merged into one multiset.

    This is the union of the closed-form end lattices (plus cusp points),
    not the resonance set of a glued surface.  Each end is merged first,
    then the ends together.  N(radius) is counted first: a listing of more
    than _MAX_LISTED raises DomainError before anything is enumerated.
    """
    _require_radius(radius)
    n = _count(spec, radius, _MAX_LISTED)
    if n > _MAX_LISTED:
        raise DomainError(
            f"N({radius}) exceeds the listing cap {_MAX_LISTED}; list a smaller radius"
        )
    collections = (
        [funnel_resonances(ell, t, radius) for ell, t in spec.funnels]
        + [cylinder_resonances(ell, t, radius) for ell, t in spec.cylinders]
        + [cusp_resonances(t) for t in spec.cusps]
    )
    empty = ResonanceSet((), (), (), radius)
    re, im, mult = (
        np.concatenate([getattr(rs, col) for rs in collections + [empty]])
        for col in ("re", "im", "mult")
    )
    inside = np.hypot(re, im) < radius
    return _merge_lattice(re[inside], im[inside], mult[inside], radius)


def _interval_count(
    ell: float, t: TwistSpec, r: float, real_base: int, real_step: int,
    limit: float = math.inf,
) -> int:
    """Total multiplicity of the `_lattice_points` lattice inside |s| < r.

    For each class, sign p and real part re, the admissible m are the
    integers of the open interval |re + i p omega (theta + m)| < r.  Its
    ends are estimated in floating point and then moved with the
    enumeration's own predicate (np.hypot is the libm hypot behind
    abs(complex)), so points on the circle count exactly as enumerated.
    The real parts go in blocks of _CENSUS_BLOCK, which bounds the memory;
    the count stops after the first block that takes it past limit.
    """
    omega = 2.0 * math.pi / ell
    stride = real_step * _CENSUS_BLOCK
    total = 0
    for cls in t.angles:
        shift = cls.log_abs / ell
        theta = cls.theta
        n_max = _last_real_part(ell, cls, r, real_base, real_step)
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
            if total > limit:
                return total
    return total


def _lattice_ends(spec: SurfaceSpec) -> list[tuple[float, TwistSpec, int, int]]:
    """(ell, twist, real_base, real_step) of every funnel and cylinder lattice."""
    return [(ell, t, 1, 2) for ell, t in spec.funnels] + [(ell, t, 0, 1) for ell, t in spec.cylinders]


def _count(spec: SurfaceSpec, r: float, limit: float = math.inf) -> int:
    """N(r) of the spec by `_interval_count`; a count past limit may stop early."""
    cusp_mult = sum(c.mult for t in spec.cusps for c in t.angles if c.theta == 0.0)
    return sum(
        _interval_count(ell, t, r, base, step, limit) for ell, t, base, step in _lattice_ends(spec)
    ) + (cusp_mult if r > 0.5 else 0)


def census(spec: SurfaceSpec, r_max: float, n_samples: int) -> list[tuple[float, int]]:
    """Table of (r, N(r)) at n_samples radii evenly spaced in (0, r_max].

    N(r) is counted by integer intervals (see `_interval_count`), not by
    enumerating `surface_resonances`; the two agree exactly.  The real parts
    that would be walked are added up first: past _MAX_CENSUS_WALK the
    census raises DomainError before it counts anything.
    """
    if n_samples < 1:
        raise InsufficientDataError("census needs at least one sample radius")
    _require_radius(r_max)
    classes = [(ell, cls, base, step) for ell, t, base, step in _lattice_ends(spec) for cls in t.angles]
    walk = 2 * _CENSUS_CALL_COST * max(len(classes), 1) * n_samples
    radii = [r_max * (i + 1) / n_samples for i in range(n_samples)] if walk <= _MAX_CENSUS_WALK else []
    for r in radii:
        for ell, cls, base, step in classes:
            walk += 2 * ((_last_real_part(ell, cls, r, base, step) - base) // step + 1)
    if walk > _MAX_CENSUS_WALK:
        raise DomainError(
            f"census would walk about {walk} real parts, more than {_MAX_CENSUS_WALK}; "
            "ask for a smaller r_max or fewer samples"
        )
    return [(r, _count(spec, r)) for r in radii]


def growth_fit(table: list[tuple[float, int]]) -> tuple[float, float]:
    """Least-squares coefficient c of N(r) ~ c r^2 and its relative spread.

    Needs at least 5 radii spanning a factor >= 4, and raises
    InsufficientDataError where c or the spread is not a positive finite
    number: no resonance inside the radii (c = 0), or radii so small that
    r^2 underflows.
    """
    rs = np.array([r for r, _ in table], dtype=float)
    ns = np.array([n for _, n in table], dtype=float)
    if len(rs) < 5 or rs.min() <= 0.0 or rs.max() / rs.min() < 4.0:
        raise InsufficientDataError(
            "growth fit needs >= 5 radii spanning a factor >= 4"
        )
    r2 = rs * rs
    with np.errstate(all="ignore"):
        coeff = float((ns * r2).sum() / (r2 * r2).sum())
        ratios = ns / r2
        spread = float((ratios.max() - ratios.min()) / coeff)
    if not (0.0 < coeff < math.inf and math.isfinite(spread)):
        raise InsufficientDataError(f"growth fit has no finite coefficient (c = {coeff}, spread = {spread})")
    return coeff, spread
