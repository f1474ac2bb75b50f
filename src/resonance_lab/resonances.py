"""Exact resonance-multiset enumeration for model ends, counting functions
and their closed-form counting law.

Cylinder resonances form the lattice
    union over eigenvalues lambda, signs p = +-1:
        -N0 + p (log lambda + 2 pi i Z) / ell ;
funnel resonances shift the real parts to the negative odd integers; a
cusp contributes the single point 1/2 with the multiplicity of the
eigenvalue 1.  Listings enumerate the lattice points and merge coinciding
ones with their multiplicities.  Each end enumerates its points in runs
sorted by (Re, Im), one run per class and sign, and merges them with one
stable sort on one complex key: exact integers packed into two doubles
for rational angles, the points rounded to COLLISION_TOL otherwise.  The
union of the merged ends is again a merge of sorted runs, and the only
set scanned for near collisions.  Each class and sign walks only the real
parts within r of its centre p log_abs/ell.  `census` does not
enumerate: N(r) is additive in multiplicities, so it counts the integers
of one open interval per real part, in O(r) work per radius, and merges
nothing.  `counting_law` reads the law N(r) = A r^2 + B r + C + E(r) off
the spec.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, RadiusExceededError
from .twist import TwistSpec

#: Collision tolerance for merging lattice points with irrational data.
COLLISION_TOL = 1e-9

#: Fractions with denominator up to this are treated as exact angles.
_MAX_DENOM = 1_000_000

#: Real parts per block in `_interval_count`; a block holds about 80 bytes
#: per real part.
_CENSUS_BLOCK = 1 << 15

#: Largest N(radius) that `surface_resonances` lists; a listing holds about
#: 300 bytes per row.
_MAX_LISTED = 4_000_000

#: Near-collision warnings one listing gives pair by pair; one more warning
#: counts the rest.
_MAX_NEAR_WARNINGS = 100

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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im, filled in place: no float temporaries, signed zeros kept."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _merge_lattice(
    re: np.ndarray, im: np.ndarray, mult: np.ndarray, radius: float, key=None
) -> ResonanceSet:
    """Aggregate multiplicities of coinciding points.

    Points merge when their complex keys agree; without a key they merge
    by rounding to COLLISION_TOL.  Both keys sort as (Re, Im), and the
    callers pass points in runs sorted by key, which one stable sort (numpy's
    timsort) merges in about O(n log runs).  A group sits at the
    multiplicity-weighted mean of its points: loc * mult summed from +0.0
    in generation order, then divided by the total mult, as Python's
    complex arithmetic does it.  The zero cross terms of its complex
    product and quotient (re*m - im*0.0, (sr + si*0.0)/m) only change the
    sign of a zero, which the sum from +0.0 absorbs, so they are left out.
    """
    if key is None:
        key = np.empty(len(re), dtype=complex)
        for part, x in ((key.real, re), (key.imag, im)):
            np.rint(np.divide(x, COLLISION_TOL, out=part), out=part)
    # stable, so the points of a group keep their generation order
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(order))
    point_mult = mult[order]
    term_re = re[order] * point_mult
    term_im = im[order] * point_mult
    del order
    # the sums start from +0.0, which turns a first term -0.0 into 0.0
    re = 0.0 + term_re[starts]
    im = 0.0 + term_im[starts]
    mult = point_mult[starts]
    # the few groups of more than one point add their later points in turn
    big = np.flatnonzero(sizes > 1)
    for k in range(1, int(sizes.max(initial=0))):
        big = big[sizes[big] > k]
        re[big] += term_re[starts[big] + k]
        im[big] += term_im[starts[big] + k]
        mult[big] += point_mult[starts[big] + k]
    # numpy's complex division would multiply by 1/mult: not the same bits
    re /= mult
    im /= mult
    final = np.argsort(_complex(re, im), kind="stable")
    re, im, mult = re[final], im[final], mult[final]
    if ((re[1:] == re[:-1]) & (im[1:] == im[:-1])).any():
        # distinct groups at one location (exact keys 1e-12 apart may round
        # to one double) go by mult
        by_mult = np.argsort(mult, kind="stable")
        final = by_mult[np.argsort(_complex(re, im)[by_mult], kind="stable")]
        re, im, mult = re[final], im[final], mult[final]
    return ResonanceSet(re, im, mult, radius)


def _near_collisions(re: np.ndarray, im: np.ndarray) -> tuple[list[tuple[int, int, float]], int]:
    """The row pairs i < j, of rows sorted by (re, im), with
    COLLISION_TOL < |s_i - s_j| < 1000 * COLLISION_TOL: the first
    _MAX_NEAR_WARNINGS of them as (i, j, |s_i - s_j|) in (i, j) order, and
    the number of all of them.

    Two grids of strips in Re s, 8 reaches wide and offset by half a strip,
    hold each such pair in one strip: the second grid takes the pairs that
    the first splits, whose rows lie within 2 reaches of a strip's edge.  In
    a stable order by (strip, Im s) the rows of a strip within the reach in
    Im s are contiguous, so a window that widens while any of its pairs is
    that close finds every candidate pair.  A candidate pair lies in a box
    of 8 x 1 reaches, so there are O(rows + pairs closer than the reach) of
    them; they are taken one window width at a time, keeping only the first
    pairs, so the memory stays linear in the rows.
    """
    reach = 1000.0 * COLLISION_TOL
    width = 8.0 * reach
    n = len(re)
    keys, total = np.empty(0, dtype=np.int64), 0
    for second in (False, True):
        u = re / width
        if second:
            # the rows within 2 reaches of an edge of the first grid
            rows = np.flatnonzero(np.abs(u - np.floor(u + 0.5)) > 0.25)
            strip = np.floor(u[rows])
        else:
            rows, strip = slice(None), np.floor(u + 0.5)
        del u
        order = np.argsort(_complex(strip, im[rows]), kind="stable")
        rows = np.arange(n)[rows][order]
        strip = strip[order]
        same = strip[1:] == strip[:-1]
        del order, strip
        ims = im[rows]
        t = np.flatnonzero(same & (np.diff(ims) < reach))
        k = 1
        while len(t):
            a, b = rows[t], rows[t + k]
            d = np.hypot(re[a] - re[b], im[a] - im[b])
            near = (COLLISION_TOL < d) & (d < reach)
            a, b = a[near], b[near]
            if second:
                # the first pass found the pairs that its grid does not split
                split = np.floor(re[a] / width + 0.5) != np.floor(re[b] / width + 0.5)
                a, b = a[split], b[split]
            total += len(a)
            keys = np.concatenate((keys, np.minimum(a, b) * n + np.maximum(a, b)))
            if len(keys) > _MAX_NEAR_WARNINGS:
                keys = np.partition(keys, _MAX_NEAR_WARNINGS - 1)[:_MAX_NEAR_WARNINGS]
            # a pair k + 1 apart is a candidate only if the pair k apart is
            k += 1
            t = t[t + k < len(rows)]
            t = t[same[t + k - 1] & (ims[t + k] - ims[t] < reach)]
    i, j = np.divmod(np.sort(keys), max(n, 1))
    d = np.hypot(re[i] - re[j], im[i] - im[j])
    return list(zip(i.tolist(), j.tolist(), d.tolist())), total


def _require_radius(radius: float) -> None:
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise DomainError(f"radius must be finite, got {radius}")


def _real_parts(ell: float, cls, p: int, r: float, real_base: int, real_step: int) -> range:
    """The n of real_base + real_step*N0 whose real parts -n + p log_abs/ell
    can hold a point of cls in |s| < r, as a range: its two ends, O(1).

    Every point of the class has |Im s| >= omega min(theta, 1 - theta), so
    |Re s| < sqrt(r^2 - (omega min(theta, 1 - theta))^2); one real step of
    margin, and ends rounded outward to integers, leave every decision to
    the callers' strict tests.  Raises DomainError where `_interval_count`'s
    interval ends, which move by 1.0, would not stay exact integers.
    """
    omega = 2.0 * math.pi / ell
    centre = p * cls.log_abs / ell
    if not r + abs(centre) + r / omega < 2.0**52:
        raise DomainError(f"N({r}) is too large to count in floating point")
    gap = omega * min(cls.theta, 1.0 - cls.theta)
    reach = min(math.sqrt(max(r * r - gap * gap, 0.0)) + real_step, r)
    # the grid's n from floor(centre - reach) to ceil(centre + reach)
    first = max(math.floor(centre - reach), real_base)
    return range(first + (real_base - first) % real_step, math.ceil(centre + reach) + 1, real_step)


def _lattice_points(
    ell: float, t: TwistSpec, radius: float, real_base: int, real_step: int
) -> ResonanceSet:
    """Enumerate union over classes and p = +-1 of
    (-real_base - real_step*N0) + p (log_abs + 2 pi i (theta + m)) / ell,
    keeping |s| < radius (strict), multiplicities aggregated.

    Each class and sign is one block of points, by n descending and m
    ascending: Re s ascends, and Im s ascends within a real part for p = 1
    and descends for p = -1.  The merge's timsort takes each block of p = 1
    as one run and each real part of a block of p = -1 as one descending
    run, which it reverses.  m ascends in both, as in the per-point
    reference, because points of one block that merge (omega below about
    COLLISION_TOL) are summed in this order.
    """
    _require_radius(radius)
    if not t.angles:
        return ResonanceSet((), (), (), radius)
    omega = 2.0 * math.pi / ell
    # exact merge keys are possible when every angle is rational and all
    # moduli vanish: p*(theta + m) is then an integer whole + p*m plus one
    # of finitely many fractions in [0, 1).  The key -n + i ((whole + p*m) F
    # + fraction id), with F fractions numbered in increasing order, sorts
    # as (Re, Im) and is exact: |whole + p*m| is below the listing cap
    fracs = [_as_fraction(c.theta) for c in t.angles]
    exact = t.is_unitary and all(f is not None for f in fracs)
    if exact:
        parts = sorted({p * fr - math.floor(p * fr) for fr in fracs for p in (1, -1)})
        fraction_ids = {part: i for i, part in enumerate(parts)}
    blocks = []
    for cls, fr in zip(t.angles, fracs):
        shift = cls.log_abs / ell
        for p in (1, -1):
            n = _real_parts(ell, cls, p, radius, real_base, real_step)
            n_real = np.arange(n.start, n.stop, n.step)[::-1]
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
                frac_id = fraction_ids[p * fr - whole]
                block.append(_complex(-n_real[row], (whole + p * m) * len(parts) + frac_id))
            blocks.append(block)
    re, im, mult, *key = (np.concatenate(col) for col in zip(*blocks))
    del blocks
    return _merge_lattice(re, im, mult, radius, key[0] if exact else None)


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
    Every two distinct points of the union closer than 1000 * COLLISION_TOL
    raise a warning, up to _MAX_NEAR_WARNINGS pairs, and one more warning
    counts the pairs past them (see `_near_collisions`); the ends' own
    listings are not checked.
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
    merged = _merge_lattice(re[inside], im[inside], mult[inside], radius)
    pairs, total = _near_collisions(merged.re, merged.im)
    for i, j, d in pairs:
        warnings.warn(
            f"near-collision of lattice points at {complex(merged.re[i], merged.im[i])} and "
            f"{complex(merged.re[j], merged.im[j])} (distance {d:.2e})",
            stacklevel=2,
        )
    if total > len(pairs):
        warnings.warn(
            f"{total - len(pairs)} more near-collisions of lattice points "
            f"(distance below {1000.0 * COLLISION_TOL:.2e})",
            stacklevel=2,
        )
    return merged


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
    The real parts of each class and sign go in blocks of _CENSUS_BLOCK,
    which bounds the memory; the count stops after the first block that
    takes it past limit.
    """
    omega = 2.0 * math.pi / ell
    stride = real_step * _CENSUS_BLOCK
    total = 0
    for cls in t.angles:
        shift = cls.log_abs / ell
        theta = cls.theta
        for p in (1, -1):
            n = _real_parts(ell, cls, p, r, real_base, real_step)
            for start in n[::_CENSUS_BLOCK]:
                n_real = np.arange(start, min(start + stride, n.stop), real_step, dtype=float)
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
    return sum(
        _interval_count(ell, t, r, base, step, limit) for ell, t, base, step in _lattice_ends(spec)
    ) + (counting_law(spec)[2] if r > 0.5 else 0)


def census(spec: SurfaceSpec, r_max: float, n_samples: int) -> list[tuple[float, int]]:
    """Table of (r, N(r)) at n_samples radii evenly spaced in (0, r_max].

    N(r) is counted by integer intervals (see `_interval_count`), not by
    enumerating `surface_resonances`; the two agree exactly.  The real parts
    that would be walked are added up first: past _MAX_CENSUS_WALK the
    census raises DomainError before it counts anything.
    """
    if n_samples < 1:
        raise DomainError("census needs at least one sample radius")
    _require_radius(r_max)
    classes = [(ell, cls, base, step) for ell, t, base, step in _lattice_ends(spec) for cls in t.angles]
    walk = 2 * _CENSUS_CALL_COST * max(len(classes), 1) * n_samples
    radii = [r_max * (i + 1) / n_samples for i in range(n_samples)] if walk <= _MAX_CENSUS_WALK else []
    for r in radii:
        for ell, cls, base, step in classes:
            walk += sum(len(_real_parts(ell, cls, p, r, base, step)) for p in (1, -1))
    if walk > _MAX_CENSUS_WALK:
        raise DomainError(
            f"census would walk about {walk} real parts, more than {_MAX_CENSUS_WALK}; "
            "ask for a smaller r_max or fewer samples"
        )
    return [(r, _count(spec, r)) for r in radii]


def counting_law(spec: SurfaceSpec) -> tuple[float, float, int]:
    """(A, B, C) of the counting law N(r) = A r^2 + B r + C + E(r), r > 1/2.

    A column at real part x holds about 2 sqrt(r^2 - x^2) ell / 2 pi points.
    By Euler-Maclaurin over the real parts, A = sum_cyl mult ell/2 +
    sum_funnel mult ell/4, and B = sum_cyl mult ell/pi is the f(0)/2 term of
    the cylinder columns nearest Re s = 0 (funnel columns sit at odd
    negative integers); C counts the cusps' theta = 0 point 1/2.
    """
    cylinders = sum(cls.mult * ell for ell, t in spec.cylinders for cls in t.angles)
    funnels = sum(cls.mult * ell for ell, t in spec.funnels for cls in t.angles)
    cusps = sum(cls.mult for t in spec.cusps for cls in t.angles if cls.theta == 0.0)
    return cylinders / 2.0 + funnels / 4.0, cylinders / math.pi, cusps
