"""Per-point reference for the resonance listing.

This is the listing as it was written before `resonances` moved to numpy
arrays: one tuple per lattice point, a dict merge, one complex sum per
group.  Tests hold the array version to it bit for bit.
"""

from __future__ import annotations

import math
import warnings

from resonance_lab.resonances import _MAX_NEAR_WARNINGS, COLLISION_TOL, _as_fraction


def merge_lattice(points, radius):
    """Sorted (location, mult) pairs of the merged points."""
    groups = {}
    for loc, mult, key in points:
        if key is None:
            key = (round(loc.real / COLLISION_TOL), round(loc.imag / COLLISION_TOL))
        entry = groups.setdefault(key, [0 + 0j, 0])
        entry[0] += loc * mult
        entry[1] += mult
    merged = [(loc_sum / m, m) for loc_sum, m in groups.values()]
    merged.sort(key=lambda r: (r[0].real, r[0].imag, r[1]))
    return merged


def warn_near_collisions(merged):
    """One warning per pair of merged points in the near-collision band."""
    # every pair closer than the reach lies in one cell of a grid of that
    # width or in two neighbouring cells
    reach = 1000.0 * COLLISION_TOL
    cells = {}
    for i, (loc, _) in enumerate(merged):
        cells.setdefault((math.floor(loc.real / reach), math.floor(loc.imag / reach)), []).append(i)
    pairs = sorted(
        (i, j)
        for (x, y), members in cells.items()
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for i in members
        for j in cells.get((x + dx, y + dy), ())
        if i < j
    )
    near = []
    for i, j in pairs:
        a, b = merged[i][0], merged[j][0]
        d = abs(a - b)
        if COLLISION_TOL < d < reach:
            near.append((a, b, d))
    for a, b, d in near[:_MAX_NEAR_WARNINGS]:
        warnings.warn(
            f"near-collision of lattice points at {a} and {b} (distance {d:.2e})",
            stacklevel=3,
        )
    if len(near) > _MAX_NEAR_WARNINGS:
        warnings.warn(
            f"{len(near) - _MAX_NEAR_WARNINGS} more near-collisions of lattice points "
            f"(distance below {reach:.2e})",
            stacklevel=3,
        )


def lattice_points(ell, t, radius, real_base, real_step):
    omega = 2.0 * math.pi / ell
    points = []
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
    return merge_lattice(points, radius)


def surface_resonances(spec, radius):
    """Sorted (location, mult) pairs of all ends of the spec, merged."""
    collections = (
        [lattice_points(ell, t, radius, 1, 2) for ell, t in spec.funnels]
        + [lattice_points(ell, t, radius, 0, 1) for ell, t in spec.cylinders]
    )
    for t in spec.cusps:
        mult = sum(c.mult for c in t.angles if c.theta == 0.0)
        collections.append([(0.5 + 0.0j, mult)] if mult else [])
    points = [
        (loc, mult, None)
        for merged in collections
        for loc, mult in merged
        if abs(loc) < radius
    ]
    merged = merge_lattice(points, radius)
    warn_near_collisions(merged)
    return merged
