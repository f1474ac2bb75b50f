"""Resonance lattices, counting functions and the counting law."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from resonance_lab import model_kernels as mk
from resonance_lab import resonances as rz
from resonance_lab.errors import (
    DomainError,
    InsufficientDataError,
    RadiusExceededError,
)
from resonance_lab.twist import TwistSpec

TRIVIAL = TwistSpec.trivial()
EXAMPLE = TwistSpec.from_angles([(0.25, 1), (0.5, 1)])  # diag(i, -1)


def brute_force_cylinder(ell, t, radius, n_max=None, m_max=None):
    """Independent double-loop enumeration over (n, m, p, class)."""
    om = 2.0 * math.pi / ell
    n_max = n_max or int(radius) + 2
    m_max = m_max or int(radius / om) + 3
    pts = {}
    for cls in t.angles:
        shift = cls.log_abs / ell
        for p in (1, -1):
            for n in range(0, n_max + 1):
                for m in range(-m_max - 1, m_max + 2):
                    loc = complex(-n + p * shift, p * om * (cls.theta + m))
                    if abs(loc) < radius:
                        key = (round(loc.real, 9), round(loc.imag, 9))
                        pts[key] = pts.get(key, 0) + cls.mult
    return pts


def as_dict(rs):
    return {
        (round(p.location.real, 9), round(p.location.imag, 9)): p.mult for p in rs
    }


class TestCylinderResonances:
    def test_trivial_twist_lattice(self):
        # classical case: -k + 2 pi i m / ell, multiplicity 2
        ell = 1.7
        rs = rz.cylinder_resonances(ell, TRIVIAL, 6.0)
        om = 2.0 * math.pi / ell
        for p in rs:
            assert p.mult == 2
            assert abs(p.location.real - round(p.location.real)) < 1e-12
            assert abs(p.location.imag / om - round(p.location.imag / om)) < 1e-9

    def test_example_twist_exact_multiset(self):
        ell = 1.0
        rs = rz.cylinder_resonances(ell, EXAMPLE, 8.0)
        step = math.pi / (2.0 * ell)
        expected = {}
        for n in range(0, 9):
            for q in range(-17, 18):
                if q % 4 == 0:
                    continue
                loc = complex(-n, step * q)
                if abs(loc) < 8.0:
                    expected[(round(-n, 9), round(step * q, 9))] = 1 if q % 2 else 2
        assert as_dict(rs) == expected

    def test_against_brute_force_random_twists(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n_cls = rng.integers(1, 4)
            thetas = sorted(rng.uniform(0, 1, size=n_cls))
            if min(np.diff(thetas), default=1.0) < 1e-3:
                continue
            t = TwistSpec.from_angles(
                [(float(th), int(rng.integers(1, 3))) for th in thetas]
            )
            ell = float(rng.uniform(0.4, 5.0))
            radius = float(rng.uniform(2.0, 7.0))
            assert as_dict(rz.cylinder_resonances(ell, t, radius)) == brute_force_cylinder(
                ell, t, radius
            )

    def test_non_unitary_shift(self):
        t = TwistSpec.from_angles([(0.0, 1)], moduli=[0.5])
        ell = 1.0
        rs = rz.cylinder_resonances(ell, t, 3.0)
        reals = sorted({round(p.location.real, 9) for p in rs})
        # real parts -n +- 0.5
        assert all(
            any(abs(re - (-n + p * 0.5)) < 1e-9 for n in range(4) for p in (1, -1))
            for re in reals
        )
        assert as_dict(rs) == brute_force_cylinder(ell, t, 3.0)

    def test_conjugation_symmetry(self):
        rs = rz.cylinder_resonances(0.8, EXAMPLE, 5.0)
        d = as_dict(rs)
        assert d == {(re, -im): m for (re, im), m in d.items()}

    def test_branch_independence(self):
        # enumerating with theta in [-1/2, 1/2) gives the same multiset
        ell, radius = 1.3, 6.0
        t = TwistSpec.from_angles([(0.75, 2)])
        om = 2.0 * math.pi / ell
        manual = {}
        for p in (1, -1):
            for n in range(0, 8):
                for m in range(-4, 5):
                    loc = complex(-n, p * om * (-0.25 + m))
                    if abs(loc) < radius:
                        key = (round(loc.real, 9), round(loc.imag, 9))
                        manual[key] = manual.get(key, 0) + 2
        assert as_dict(rz.cylinder_resonances(ell, t, radius)) == manual


class TestFunnelResonances:
    def test_trivial_twist(self):
        ell = 2.0 * math.pi
        rs = rz.funnel_resonances(ell, TRIVIAL, 4.5)
        for p in rs:
            assert p.mult == 2
            assert round(p.location.real) % 2 != 0  # odd negative integers

    def test_disjoint_from_even_cylinder_reals(self):
        rs = rz.funnel_resonances(1.0, TRIVIAL, 6.0)
        assert all(int(round(p.location.real)) % 2 == 1 for p in rs)

    def test_theta_half_brute_force(self):
        ell = 2.0 * math.pi
        t = TwistSpec.from_angles([(0.5, 1)])
        rs = rz.funnel_resonances(ell, t, 4.0)
        om = 1.0
        manual = {}
        for p in (1, -1):
            for n in (1, 3):
                for m in range(-6, 7):
                    loc = complex(-n, p * om * (0.5 + m))
                    if abs(loc) < 4.0:
                        key = (round(loc.real, 9), round(loc.imag, 9))
                        manual[key] = manual.get(key, 0) + 1
        assert as_dict(rs) == manual


class TestCuspResonances:
    def test_identity_twist(self):
        rs = rz.cusp_resonances(TwistSpec.trivial(2))
        assert [(p.location, p.mult) for p in rs] == [(0.5 + 0j, 2)]

    def test_no_unit_eigenvalue(self):
        assert len(rz.cusp_resonances(EXAMPLE)) == 0

    def test_mixed(self):
        t = TwistSpec.from_angles([(0.0, 1), (1.0 / 3.0, 2)])
        rs = rz.cusp_resonances(t)
        assert [(p.location, p.mult) for p in rs] == [(0.5 + 0j, 1)]


class TestNearCollisionWarning:
    """README: lattices that nearly coincide merge nothing and warn."""

    def test_two_nearly_equal_lengths(self):
        spec = rz.SurfaceSpec(cylinders=((1.0, TRIVIAL), (1.0 + 1e-8, TRIVIAL)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rz.surface_resonances(spec, 8.0)
        # m = +-1 at each real part -4..0: 2 pi / ell for the two lengths
        a, b = 2.0 * math.pi, 2.0 * math.pi / (1.0 + 1e-8)
        expected = []
        for n in range(4, -1, -1):
            re = float(-n)
            for lo, hi in ((-a, -b), (b, a)):
                expected.append(
                    f"near-collision of lattice points at {complex(re, lo)} and "
                    f"{complex(re, hi)} (distance {a - b:.2e})"
                )
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is UserWarning for w in caught)
        assert expected[0] == (
            "near-collision of lattice points at (-4-6.283185307179586j) and "
            "(-4-6.2831852443477345j) (distance 6.28e-08)"
        )

    def test_pairs_in_neighbouring_real_parts(self):
        # a modulus moves the second lattice 5e-7 off the real parts of the
        # first: each point of the first meets its shifted neighbours on the
        # left and on the right, which are not adjacent in (Re, Im) order
        shifted = TwistSpec.from_angles([(0.0, 1)], [math.pi * 1e-6])
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL), (TWO_PI, shifted)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rs = rz.surface_resonances(spec, 3.0)
        near = [str(w.message) for w in caught if str(w.message).endswith("(distance 5.00e-07)")]
        # 15 points of the first lattice, two neighbours each
        assert (len(rs), len(near)) == (46, 30)
        assert near[0] == (
            "near-collision of lattice points at (-2.0000005-2j) and (-2-2j) (distance 5.00e-07)"
        )
        assert near[5] == (
            "near-collision of lattice points at (-2-2j) and (-1.9999995-2j) (distance 5.00e-07)"
        )

    def test_dense_column_warns_a_bounded_number_of_times(self):
        # omega = 2 pi 1e-9: each point has 159 neighbours closer than 1e-6
        # on either side, about 1.5e6 near pairs among 9,549 rows.  The first
        # _MAX_NEAR_WARNINGS pairs in row order warn one by one, one more
        # warning counts the rest, and the memory stays linear in the rows
        tracemalloc.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rs = rz.surface_resonances(rz.SurfaceSpec(cylinders=((1e9, TRIVIAL),)), 3e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rs) == 9549 and not rs.re.any()
        reach = 1000.0 * rz.COLLISION_TOL
        # one column sorted by Im s: a pair k rows apart is im[k:] - im[:-k] apart
        gaps = [rs.im[k:] - rs.im[:-k] for k in range(1, 201)]
        near = [(rz.COLLISION_TOL < d) & (d < reach) for d in gaps]
        assert not near[-1].any()
        total = sum(int(mask.sum()) for mask in near)
        assert total > 1_500_000
        limit = rz._MAX_NEAR_WARNINGS
        expected = [
            f"near-collision of lattice points at {complex(0.0, rs.im[0])} and "
            f"{complex(0.0, rs.im[k])} (distance {gaps[k - 1][0]:.2e})"
            for k in range(1, limit + 1)
        ]
        expected.append(f"{total - limit} more near-collisions of lattice points (distance below 1.00e-06)")
        assert [str(w.message) for w in caught] == expected
        assert peak < 600 * len(rs)

    def test_near_pair_within_one_end_warns_once(self):
        # a modulus of pi 1e-6 puts the p = +-1 points of theta = 0 at
        # -n +- 5e-7: 1e-6 apart in one end, which only the union scans
        shifted = TwistSpec.from_angles([(0.0, 1)], [math.pi * 1e-6])
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, shifted),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rs = rz.surface_resonances(spec, 0.5)
        assert [(p.location, p.mult) for p in rs] == [(-5e-7 + 0j, 1), (5e-7 + 0j, 1)]
        assert [str(w.message) for w in caught] == [
            "near-collision of lattice points at (-5e-07+0j) and (5e-07+0j) (distance 1.00e-06)"
        ]
        # the warning names the caller of surface_resonances
        assert caught[0].filename == __file__

    @pytest.mark.parametrize(
        "listing,ell,radius", [(rz.cylinder_resonances, 1e9, 3e-5), (rz.funnel_resonances, 1e7, 1.0001)]
    )
    def test_end_listings_do_not_warn(self, listing, ell, radius):
        # columns of points 2 pi / ell < 1e-6 apart, on Re s = 0 and -1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rs = listing(ell, TRIVIAL, radius)
        assert len(rs) > 9000 and (np.diff(rs.im) < 1000.0 * rz.COLLISION_TOL).all()
        assert caught == []

    def test_exact_lattices_never_warn(self):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),), funnels=((TWO_PI, TRIVIAL),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rs = rz.surface_resonances(spec, 30.0)
        assert caught == []
        assert (len(rs), rs.total_multiplicity()) == (1434, 4282)


class TestCounting:
    def test_empty(self):
        empty = rz.ResonanceSet((), (), (), 10.0)
        assert rz.counting_function(empty, 5.0) == 0

    def test_untwisted_count_78(self):
        rs = rz.cylinder_resonances(2.0 * math.pi, TRIVIAL, 5.0)
        # brute-force oracle: lattice points n^2 + m^2 < 25, mult 2
        want = 2 * sum(
            1 for n in range(0, 6) for m in range(-5, 6) if n * n + m * m < 25
        )
        assert want == 78
        assert rz.counting_function(rs, 5.0) == 78

    def test_monotone(self):
        rng = np.random.default_rng(72)
        rs = rz.cylinder_resonances(1.0, EXAMPLE, 9.0)
        radii = sorted(rng.uniform(0.5, 9.0, size=10))
        counts = [rz.counting_function(rs, r) for r in radii]
        assert all(a <= b for a, b in zip(counts[:-1], counts[1:]))

    def test_radius_guard(self):
        rs = rz.cylinder_resonances(1.0, TRIVIAL, 3.0)
        with pytest.raises(RadiusExceededError):
            rz.counting_function(rs, 3.5)


TWO_PI = 2.0 * math.pi


def enumerated_table(spec, table):
    """Oracle: N(r) from the enumerated, merged multiset at each radius."""
    return [
        (r, rz.counting_function(rz.surface_resonances(spec, r), r)) for r, _ in table
    ]


class TestIntervalCensus:
    """`census` counts by integer intervals; enumeration is its oracle."""

    @pytest.mark.parametrize(
        "spec,r_max,n_samples",
        [
            # integer radii: 3+4i and 5+12i lie exactly on |s| = 5 and 13
            (rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),)), 5.0, 5),
            (rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),)), 13.0, 13),
            (rz.SurfaceSpec(cylinders=((1.0, EXAMPLE),)), 8.0, 16),
            (rz.SurfaceSpec(funnels=((1.0, EXAMPLE),)), 8.0, 16),
            (rz.SurfaceSpec(funnels=((TWO_PI, TRIVIAL),)), 13.0, 13),
            (
                rz.SurfaceSpec(
                    cylinders=((1.3, TwistSpec.from_angles([(math.sqrt(2.0) - 1.0, 2)])),)
                ),
                9.0, 7,
            ),
            (
                rz.SurfaceSpec(
                    cylinders=(
                        (0.9, TwistSpec.from_angles([(0.1, 1), (0.61803, 2)], [0.37, -0.2])),
                    )
                ),
                9.0, 7,
            ),
            # lattices that coincide across ends: multiplicities add
            (
                rz.SurfaceSpec(
                    funnels=((TWO_PI, TRIVIAL),),
                    cusps=(TwistSpec.trivial(2),),
                    cylinders=((TWO_PI, TRIVIAL), (TWO_PI, TwistSpec.trivial(2))),
                ),
                13.0, 26,
            ),
        ],
    )
    def test_matches_enumeration(self, spec, r_max, n_samples):
        table = rz.census(spec, r_max, n_samples)
        assert table == enumerated_table(spec, table)

    def test_cusp_threshold(self):
        # the cusp point 1/2 counts only for r > 1/2
        spec = rz.SurfaceSpec(cusps=(TwistSpec.from_angles([(0.0, 2), (0.5, 1)]),))
        table = rz.census(spec, 1.0, 4)
        assert [n for _, n in table] == [0, 0, 2, 2]
        assert table == enumerated_table(spec, table)

    def test_known_values(self):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        assert rz.census(spec, 5.0, 1) == [(5.0, 78)]
        assert rz.census(spec, 400.0, 1) == [(400.0, 503_404)]

    def test_errors(self):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        with pytest.raises(InsufficientDataError):
            rz.census(spec, 5.0, 0)
        with pytest.raises(DomainError):
            rz.census(spec, 0.0, 3)
        with pytest.raises(DomainError):
            rz.census(rz.SurfaceSpec(funnels=((1.0, EXAMPLE),)), -2.0, 3)
        # a cusp alone has no lattice, but its radius is checked all the same
        cusp_only = rz.SurfaceSpec(cusps=(TRIVIAL,))
        for radius in (0.0, -1.0):
            with pytest.raises(DomainError, match="positive"):
                rz.census(cusp_only, radius, 2)
            with pytest.raises(DomainError, match="positive"):
                rz.surface_resonances(cusp_only, radius)

    def test_infinite_radius_rejected(self):
        for spec in (
            rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),)),
            rz.SurfaceSpec(funnels=((1.0, EXAMPLE),)),
            rz.SurfaceSpec(cusps=(TRIVIAL,)),
        ):
            with pytest.raises(DomainError, match="finite"):
                rz.census(spec, math.inf, 3)
        with pytest.raises(DomainError, match="finite"):
            rz.cylinder_resonances(TWO_PI, TRIVIAL, math.inf)
        with pytest.raises(DomainError, match="finite"):
            rz.funnel_resonances(1.0, EXAMPLE, math.inf)
        with pytest.raises(DomainError, match="finite"):
            rz.surface_resonances(rz.SurfaceSpec(cusps=(TRIVIAL,)), math.inf)

    @pytest.mark.parametrize(
        "spec",
        [
            rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),)),
            rz.SurfaceSpec(funnels=((1.0, EXAMPLE),)),
            rz.SurfaceSpec(
                cylinders=((0.9, TwistSpec.from_angles([(0.1, 1), (0.61803, 2)], [0.37, -0.2])),)
            ),
        ],
    )
    def test_small_blocks_match_enumeration(self, monkeypatch, spec):
        # real parts split into blocks of 3 still count every point once
        monkeypatch.setattr(rz, "_CENSUS_BLOCK", 3)
        table = rz.census(spec, 13.0, 13)
        assert table == enumerated_table(spec, table)

    @pytest.mark.parametrize("r", [1e16, 1e300])
    def test_radius_beyond_exact_counting(self, r):
        # the interval ends move by 1.0, which they cannot past 2^53
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        with pytest.raises(DomainError, match="too large to count"):
            rz.census(spec, r, 1)

    def test_memory_bounded_at_large_radius(self):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        tracemalloc.start()
        try:
            table = rz.census(spec, 1e6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table == [(1e6, 3_141_594_649_572)]
        assert peak < 16e6


class TestSparseClasses:
    """A class whose |Im s| >= omega min(theta, 1 - theta) exceeds the radius
    has no point, whatever its number of real parts."""

    SPEC = rz.SurfaceSpec(funnels=((1e-9, TwistSpec.from_angles([(0.5, 1)])),))

    @pytest.mark.parametrize("what", ["listing", "census"])
    def test_tiny_length_is_cheap(self, what):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            if what == "listing":
                assert len(rz.surface_resonances(self.SPEC, 1e6)) == 0
            else:
                assert rz.census(self.SPEC, 1e6, 8)[-1] == (1e6, 0)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 1e6

    @staticmethod
    def brute_count(ell, t, r, real_base, real_step):
        """N(r) of one lattice, every real part up to r + |shift| tested point by point."""
        omega, total = 2.0 * math.pi / ell, 0
        for cls in t.angles:
            shift = cls.log_abs / ell
            m_max = int(r / omega) + 2
            for p in (1, -1):
                for n in range(real_base, int(r + abs(shift)) + real_base + 2, real_step):
                    for m in range(-m_max, m_max + 1):
                        if math.hypot(-n + p * shift, p * omega * (cls.theta + m)) < r:
                            total += cls.mult
        return total

    @pytest.mark.parametrize(
        "ell,twist,base,step",
        [
            (0.05, TwistSpec.from_angles([(0.3, 1), (0.5, 2)]), 1, 2),
            (0.03, TwistSpec.from_angles([(0.1, 1), (0.45, 1)], [0.003, -0.001]), 0, 1),
        ],
    )
    def test_counts_unchanged(self, ell, twist, base, step):
        # omega min(theta, 1 - theta) is 21 to 94 here, inside the radius, so
        # the bound drops real parts while points remain on others
        spec = rz.SurfaceSpec(**{"funnels" if base else "cylinders": ((ell, twist),)})
        table = rz.census(spec, 140.0, 7)
        assert table == [(r, self.brute_count(ell, twist, r, base, step)) for r, _ in table]
        assert rz.surface_resonances(spec, 140.0).total_multiplicity() == table[-1][1]


class TestCensusBudget:
    @pytest.mark.parametrize("r_max,n_samples", [(1e12, 8), (10.0, 10**6)])
    def test_too_much_work_fails_fast(self, r_max, n_samples):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="census would walk"):
            rz.census(spec, r_max, n_samples)
        assert time.perf_counter() - t0 < 0.1

    def test_within_budget(self):
        # 8 radii up to 1e5 walk about 9e5 real parts
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        assert rz.census(spec, 1e5, 8)[-1][0] == 1e5

    def test_shifted_lattice_walks_only_its_reach(self):
        # log_abs / ell = 3e8: the real parts within the radius lie 3e8 steps
        # from Re s = 0, where a walk from n = 0 took about 19 s and 7.5 GB to list
        spec = rz.SurfaceSpec(cylinders=((1e-8, TwistSpec.from_angles([(0.0, 1)], [3.0])),))
        t0 = time.perf_counter()
        table = rz.census(spec, 2.0, 8)
        rs = rz.surface_resonances(spec, 2.0)
        assert time.perf_counter() - t0 < 0.5
        assert table == [(0.25 * (i + 1), 1 if i < 4 else 3) for i in range(8)]
        assert [(p.location, p.mult) for p in rs] == [(-1 + 0j, 1), (0j, 1), (1 + 0j, 1)]


#: Model specs of the counting law: the 2 pi trivial cylinder, diag(i, -1)
#: at ell = 1, a cylinder with an irrational angle and moduli, a funnel, and
#: a funnel, a cylinder and a cusp together.
LAW_SPECS = {
    "two-pi-cylinder": rz.SurfaceSpec(cylinders=((2.0 * math.pi, TRIVIAL),)),
    "diag-cylinder": rz.SurfaceSpec(cylinders=((1.0, EXAMPLE),)),
    "moduli-cylinder": rz.SurfaceSpec(
        cylinders=((1.3, TwistSpec.from_angles([(0.25, 1), (math.sqrt(2.0) - 1.0, 2)], [0.4, -0.3])),)
    ),
    "funnel": rz.SurfaceSpec(funnels=((1.7, TwistSpec.from_angles([(0.25, 1), (0.5, 2)])),)),
    "funnel-cylinder-cusp": rz.SurfaceSpec(
        funnels=((1.7, TwistSpec.from_angles([(0.25, 1), (0.5, 2)])),),
        cylinders=((1.0, EXAMPLE),),
        cusps=(TwistSpec.trivial(2),),
    ),
}


def law_error(spec, r):
    """|N(r) - A r^2 - B r - C| / r^(2/3), N by the interval count."""
    a, b, c = rz.counting_law(spec)
    return abs(rz._count(spec, r) - a * r * r - b * r - c) / r ** (2.0 / 3.0)


class TestCountingLaw:
    def test_cylinder_coefficient(self):
        # A = ell/2 and B = ell/pi per class, and the census keeps to them
        ell = 2.0 * math.pi
        spec = rz.SurfaceSpec(cylinders=((ell, TRIVIAL),))
        a, b, c = rz.counting_law(spec)
        assert (a, b, c) == (ell / 2.0, ell / math.pi, 0)
        for r, n in rz.census(spec, 400.0, 8):
            assert abs(n - a * r * r - b * r) <= 3.0 * r ** (2.0 / 3.0)

    @pytest.mark.parametrize("name", list(LAW_SPECS))
    def test_model_specs_far_out(self, name):
        # E(r) within 3 r^(2/3) at 12 radii up to 1e4, well past enumeration's
        # reach; the largest measured is 2.19, on the 2 pi cylinder at r = 10
        t0 = time.perf_counter()
        worst = max(law_error(LAW_SPECS[name], r) for r in np.geomspace(10.0, 1e4, 12))
        assert time.perf_counter() - t0 < 1.0
        assert worst <= 3.0

    def test_funnel_half_density(self):
        # a funnel's real parts are the odd negative integers: half the
        # cylinder's A, and no column at Re s = 0, so no r term
        ell = 2.0 * math.pi
        cyl = rz.SurfaceSpec(cylinders=((ell, TRIVIAL),))
        fun = rz.SurfaceSpec(funnels=((ell, TRIVIAL),))
        assert rz.counting_law(fun) == (0.5 * rz.counting_law(cyl)[0], 0.0, 0)
        for r in (100.0, 200.0, 400.0):
            assert law_error(fun, r) <= 3.0

    def test_cusp_only_coefficient_vanishes(self):
        # three theta = 0 classes: N(r) = C = 3 past r = 1/2, exactly
        spec = rz.SurfaceSpec(cusps=(TwistSpec.trivial(3),))
        assert rz.counting_law(spec) == (0.0, 0.0, 3)
        assert rz.census(spec, 200.0, 8) == [(25.0 * (i + 1), 3) for i in range(8)]
        assert rz.counting_law(rz.SurfaceSpec()) == (0.0, 0.0, 0)


class TestPoleWitness:
    def test_cylinder_mode_blowup(self):
        ell = 1.0
        om = 2.0 * math.pi / ell
        rs = rz.cylinder_resonances(ell, EXAMPLE, 4.0)
        eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        for p in list(rs)[:10]:
            kap = abs(p.location.imag) / om
            mags = [abs(mk.cyl_mode(p.location + e, kap, 0.7, 1.4, ell)) for e in eps]
            slope = np.polyfit(np.log(eps), np.log(mags), 1)[0]
            assert abs(slope + 1.0) < 0.1


class TestListingCap:
    SPEC = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))

    def test_just_above_the_cap_fails_before_enumerating(self, monkeypatch):
        # N(1128) = 3,999,512 and N(1128.5) = 4,003,110 straddle the cap
        counts = [n for _, n in rz.census(self.SPEC, 1128.5, 2)]
        assert counts[0] <= rz._MAX_LISTED < counts[1]

        def no_listing(*args, **kwargs):
            raise AssertionError("the listing was enumerated")

        monkeypatch.setattr(rz, "_lattice_points", no_listing)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="listing cap"):
            rz.surface_resonances(self.SPEC, 1128.5)
        assert time.perf_counter() - t0 < 1.0

    def test_count_stops_past_its_limit(self):
        # N(1e15) is about 3e30; the first block of real parts exceeds the limit
        t0 = time.perf_counter()
        assert rz._count(self.SPEC, 1e15, rz._MAX_LISTED) > rz._MAX_LISTED
        assert time.perf_counter() - t0 < 1.0


class TestSurfaceSpec:
    def test_json_round_trip(self):
        spec = rz.SurfaceSpec(
            funnels=((1.0, EXAMPLE),),
            cusps=(TwistSpec.trivial(2),),
            cylinders=((2.0, TRIVIAL),),
        )
        assert rz.SurfaceSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize("doc", [[1, 2], "x", None, 3.0])
    def test_non_object_rejected(self, doc):
        with pytest.raises(DomainError, match="JSON object"):
            rz.SurfaceSpec.from_json_dict(doc)

    def test_invalid_length(self):
        with pytest.raises(DomainError):
            rz.SurfaceSpec(cylinders=((-1.0, TRIVIAL),))

    def test_census_aggregates_ends(self):
        spec = rz.SurfaceSpec(
            cylinders=((2.0 * math.pi, TRIVIAL),), cusps=(TwistSpec.trivial(1),)
        )
        table = rz.census(spec, 5.0, 5)
        assert table[-1][1] == 78 + 1
