"""The array listing against the per-point reference, bit for bit."""

import json
import math
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import listing_reference as ref
from resonance_lab import cli
from resonance_lab import resonances as rz
from resonance_lab.errors import DomainError, NumericalError
from resonance_lab.twist import TwistSpec

TWO_PI = 2.0 * math.pi
TRIVIAL = TwistSpec.trivial()
EXAMPLE = TwistSpec.from_angles([(0.25, 1), (0.5, 1)])  # diag(i, -1)
IRRATIONAL = TwistSpec.from_angles([(math.sqrt(2.0) - 1.0, 2)])
NON_UNITARY = TwistSpec.from_angles([(0.1, 1), (0.61803, 2)], [0.37, -0.2])


def mixed_spec(rng):
    """Funnel, cusp and three cylinders, laid out like the benchmark's specs:
    a rational cylinder shares the funnel's length and theta = 1/4, one
    cylinder has irrational angles, one has moduli."""
    mult = lambda: int(rng.integers(1, 3))
    irrational = lambda: round(float(rng.uniform(0.0, 0.999)), 6) + 1e-7 * math.sqrt(2.0)
    ell_f = round(float(rng.uniform(0.8, 2.0)), 6)
    ell_i, ell_n = (round(float(rng.uniform(0.8, 2.5)), 6) for _ in range(2))
    return rz.SurfaceSpec(
        funnels=((ell_f, TwistSpec.from_angles([(0.25, mult()), (0.5, mult())])),),
        cusps=(TwistSpec.from_angles([(0.0, mult()), (0.5, mult())]),),
        cylinders=(
            (ell_f, TwistSpec.from_angles([(0.25, mult()), (1.0 / 3.0, mult())])),
            (ell_i, TwistSpec.from_angles(
                [(th, mult()) for th in sorted({irrational(), irrational()})])),
            (ell_n, TwistSpec.from_angles(
                [(1.0 / 3.0, 1), (irrational(), 1)],
                [round(float(rng.uniform(0.1, 0.6)), 6), -round(float(rng.uniform(0.1, 0.6)), 6)],
            )),
        ),
    )


EDGE_SPECS = [
    rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),)),
    rz.SurfaceSpec(cylinders=((1.0, EXAMPLE),)),
    rz.SurfaceSpec(funnels=((1.0, EXAMPLE),)),
    rz.SurfaceSpec(cylinders=((1.3, TwistSpec.from_angles([(0.0, 2)])),)),
    rz.SurfaceSpec(cylinders=((1.3, IRRATIONAL),)),
    rz.SurfaceSpec(cylinders=((0.9, NON_UNITARY),)),
    # lattices that coincide across ends
    rz.SurfaceSpec(
        funnels=((TWO_PI, TRIVIAL),),
        cusps=(TwistSpec.trivial(2),),
        cylinders=((TWO_PI, TRIVIAL), (TWO_PI, TwistSpec.trivial(2))),
    ),
    # lattices that nearly coincide: merged apart, with warnings
    rz.SurfaceSpec(cylinders=((1.0, TRIVIAL), (1.0 + 1e-8, TRIVIAL))),
    # an angle within 1e-12 of 1 is the rational 1 and merges with theta = 0:
    # groups of unequal floats, whose mean depends on the order of operations
    rz.SurfaceSpec(
        funnels=((0.7, TwistSpec.from_angles([(1.0 / 7.0, 2), (0.5, 1)])),),
        cylinders=((0.7, TwistSpec.from_angles(
            [(1.0 / 3.0, 1), (2.0 / 3.0, 1), (1.0 - 1e-15, 3)])),),
    ),
    rz.SurfaceSpec(cylinders=((TWO_PI, TwistSpec.from_angles([(0.0, 2), (1.0 - 1e-13, 1)])),)),
    rz.SurfaceSpec(cylinders=((2.3, TwistSpec.from_angles([(0.0, 2), (1.0 - 7e-15, 4)])),)),
    # rationals 1e-12 apart: exact keys keep them apart within an end
    rz.SurfaceSpec(
        cylinders=((1.0, TwistSpec.from_angles([(1.0 / 1_000_000, 1), (1.0 / 999_999, 1)])),)
    ),
    rz.SurfaceSpec(cusps=(TwistSpec.trivial(2),)),
    rz.SurfaceSpec(),
    # a twist without classes has no lattice
    rz.SurfaceSpec(funnels=((1.0, TwistSpec(angles=())),), cylinders=((1.0, TwistSpec(angles=())),)),
    # a modulus moves points 5e-7 off the trivial lattice's columns: near
    # pairs in neighbouring real parts, never adjacent in (Re, Im) order
    rz.SurfaceSpec(cylinders=(
        (TWO_PI, TRIVIAL),
        (TWO_PI, TwistSpec.from_angles([(0.0, 1)], [math.pi * 1e-6])),
    )),
    # near pairs at -n +- 3.4e-6, 3.8e-6 and 4.3e-6: on either side of, and
    # next to, -n +- 4e-6, where the near-collision scan's first grid of
    # strips has an edge
    rz.SurfaceSpec(cylinders=(
        (TWO_PI, TwistSpec.from_angles([(0.0, 1)], [TWO_PI * 3.4e-6])),
        (TWO_PI, TwistSpec.from_angles([(0.0, 1)], [TWO_PI * 3.8e-6])),
        (TWO_PI, TwistSpec.from_angles([(0.0, 1)], [TWO_PI * 4.3e-6])),
    )),
    # real parts centred on p log_abs / ell = +-60 and +-50: windows cut
    # off at n = 0 by the larger radii, and empty at the smaller ones
    rz.SurfaceSpec(cylinders=((0.05, TwistSpec.from_angles([(0.0, 1), (0.3, 2)], [3.0, -2.5])),)),
]


def packed(rows):
    """(re, im) as IEEE bytes, so that -0.0 and 0.0 differ, with mult."""
    return [(struct.pack("<2d", re, im), m) for re, im, m in rows]


def listing_rows(rs):
    return list(zip(rs.re.tolist(), rs.im.tolist(), rs.mult.tolist()))


def reference_rows(spec, radius):
    return [(loc.real, loc.imag, m) for loc, m in ref.surface_resonances(spec, radius)]


def assert_same_listing(spec, radius):
    ends = [(rz.funnel_resonances, ell, t, 1, 2) for ell, t in spec.funnels]
    ends += [(rz.cylinder_resonances, ell, t, 0, 1) for ell, t in spec.cylinders]
    # the ends' own listings merge without the near-collision scan
    with warnings.catch_warnings(record=True) as end_warnings:
        warnings.simplefilter("always")
        for listing, ell, t, real_base, real_step in ends:
            want = [
                (loc.real, loc.imag, m)
                for loc, m in ref.lattice_points(ell, t, radius, real_base, real_step)
            ]
            assert packed(listing_rows(listing(ell, t, radius))) == packed(want)
    assert end_warnings == []
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = reference_rows(spec, radius)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = rz.surface_resonances(spec, radius)
    assert packed(listing_rows(got)) == packed(want)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    assert [(p.location, p.mult) for p in got] == [(complex(a, b), m) for a, b, m in want]


class TestAgainstReference:
    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=range(len(EDGE_SPECS)))
    @pytest.mark.parametrize("radius", [0.3, 0.5, 1.0, 2.5, 7.0, 13.0, 60.0])
    def test_edge_cases(self, spec, radius):
        assert_same_listing(spec, radius)

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_mixed_specs(self, seed):
        rng = np.random.default_rng(seed)
        for radius in (9.0, 17.0):
            assert_same_listing(mixed_spec(rng), radius)

    def test_signed_zero_on_the_real_axis(self):
        # theta = 0 puts p = -1 points on Im s = 0 as -0.0; with a modulus
        # they do not meet the p = +1 points, so each group is one -0.0 point
        shifted = TwistSpec.from_angles([(0.0, 1), (0.5, 2)], [0.3, 0.0])
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL), (1.1, shifted)),
                              funnels=((1.0, TRIVIAL),))
        assert_same_listing(spec, 4.0)
        rows = listing_rows(rz.cylinder_resonances(1.1, shifted, 4.0))
        # summed from +0.0, as the complex sum did: no -0.0 survives the merge
        assert [math.copysign(1.0, im) for _, im, _ in rows if im == 0.0] == [1.0] * 9

    def test_exact_groups_at_one_location(self):
        # theta = 1e-6 and 1/999,999 have distinct exact keys, but theta + m
        # rounds to one double for |m| near 10^4: groups at one location,
        # listed by mult whatever the order of their keys
        t = TwistSpec.from_angles([(1.0 / 1_000_000, 1), (1.0 / 999_999, 2)])
        rows = listing_rows(rz.cylinder_resonances(TWO_PI * 1e4, t, 1.0))
        assert sum(a[:2] == b[:2] for a, b in zip(rows, rows[1:])) > 9000
        want = [(loc.real, loc.imag, m) for loc, m in ref.lattice_points(TWO_PI * 1e4, t, 1.0, 0, 1)]
        assert packed(rows) == packed(want)

    @pytest.mark.parametrize("radius", [1e-7, 3e-7])
    def test_points_of_one_block_that_merge(self, radius):
        # omega = pi 1e-10 and 4e-11 lie below COLLISION_TOL: consecutive m
        # of one class and sign round to one key, so a group sums points of
        # one block, which must come in the reference's order of m for
        # p = -1 as well as for p = 1
        spec = rz.SurfaceSpec(cylinders=(
            (2e10, TwistSpec.from_angles([(math.sqrt(2.0) - 1.0, 1)])),
            (2e10, TwistSpec.from_angles([(0.0, 1)], [1.0])),
            (5e10, TwistSpec.from_angles([(0.3 + 1e-9 * math.sqrt(2.0), 2), (0.7, 1)], [0.5, 0.0])),
        ))
        assert_same_listing(spec, radius)

    def test_multiplicity_checked_per_set(self):
        with pytest.raises(DomainError, match="multiplicity"):
            rz.ResonanceSet([0.0, -1.0], [1.0, 0.0], [1, 0], 5.0)


CLI_CASES = [
    # funnel + cylinder + cusp, with points on Im s = 0
    (rz.SurfaceSpec(
        funnels=((1.0, EXAMPLE),),
        cusps=(TwistSpec.trivial(2),),
        cylinders=((TWO_PI, TRIVIAL),),
    ), 5.0),
    (mixed_spec(np.random.default_rng(11)), 12.5),
    # no rows: the cusp point 1/2 lies outside
    (rz.SurfaceSpec(cusps=(TwistSpec.trivial(2),)), 0.3),
]


def cli_reference(spec, radius, rows):
    """The listing's CSV and JSON text, formatted row by row."""
    return {
        "csv": "re,im,mult\n" + "".join(f"{a:.17g},{b:.17g},{m}\n" for a, b, m in rows),
        "json": json.dumps(
            {
                "spec": spec.to_json_dict(),
                "radius": radius,
                "total_multiplicity": sum(m for _, _, m in rows),
                "resonances": [{"re": a, "im": b, "mult": m} for a, b, m in rows],
            },
            indent=2,
            sort_keys=True,
        ) + "\n",
    }


def assert_cli_writes(tmp_path, spec, radius, want):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    for fmt, text in want.items():
        out = tmp_path / f"out.{fmt}"
        rc = cli.main([
            "resonances", "--spec", str(path), "--radius", repr(radius),
            "--output", fmt, "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == text


class TestCliOutput:
    @pytest.mark.parametrize("spec,radius", CLI_CASES, ids=["mixed", "benchmark-like", "empty"])
    def test_byte_identical_to_reference(self, tmp_path, spec, radius):
        rows = reference_rows(spec, radius)
        want = cli_reference(spec, radius, rows)
        if not rows:
            assert '"resonances": []' in want["json"]
        assert_cli_writes(tmp_path, spec, radius, want)

    def test_coordinates_keyed_by_bit_pattern(self, tmp_path, monkeypatch):
        # signed zeros, values one ulp apart, the smallest subnormal and the
        # largest doubles, repeated in both columns: a writer that looked
        # values up by float equality would print 0.0 and -0.0 alike
        big, tiny, up = 1.7976931348623157e308, 5e-324, float(np.nextafter(1.0, 2.0))
        rows = [
            (-big, 0.0, 1), (-big, -0.0, 2), (-0.0, big, 1), (-0.0, 0.0, 2**40),
            (0.0, -0.0, 3), (0.0, tiny, 1), (tiny, -0.0, 1), (1.0, up, 1),
            (up, 1.0, 2), (up, -big, 1), (big, tiny, 1), (big, -0.0, 1), (big, 0.0, 5),
        ]
        re, im, mult = zip(*rows)
        crafted = rz.ResonanceSet(re, im, mult, 5.0)
        monkeypatch.setattr(rz, "surface_resonances", lambda spec, radius: crafted)
        spec = rz.SurfaceSpec(cusps=(TwistSpec.trivial(2),))
        assert_cli_writes(tmp_path, spec, 5.0, cli_reference(spec, 5.0, rows))

    def test_byte_identical_at_benchmark_scale(self, tmp_path):
        # about 21,000 rows over 303 real and 479 imaginary parts; the listing
        # itself is held to the per-point reference by TestAgainstReference
        spec = mixed_spec(np.random.default_rng(5))
        rows = listing_rows(rz.surface_resonances(spec, 60.0))
        assert len(rows) > 20_000
        assert_cli_writes(tmp_path, spec, 60.0, cli_reference(spec, 60.0, rows))


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    return path


class TestStreamedWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "spec,radius",
        [(mixed_spec(np.random.default_rng(5)), 60.0), CLI_CASES[2]],
        ids=["benchmark-scale", "empty"],
    )
    def test_stdout_and_out_agree(self, tmp_path, capsys, spec, radius, fmt):
        # the benchmark-scale listing has about 21,000 rows: more than one block
        argv = ["resonances", "--spec", str(write_spec(tmp_path, spec)),
                "--radius", repr(radius), "--output", fmt]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("failure,rc", [("over-the-cap", 2), ("numerical", 3)])
    def test_failed_listing_leaves_no_file(self, tmp_path, monkeypatch, capsys, failure, rc, fmt):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        radius = 1e16
        if failure == "numerical":
            def fail(spec, radius):
                raise NumericalError("no listing")

            monkeypatch.setattr(rz, "surface_resonances", fail)
            radius = 5.0
        out = tmp_path / "out"
        argv = ["resonances", "--spec", str(write_spec(tmp_path, spec)), "--radius", repr(radius),
                "--output", fmt, "--out", str(out)]
        assert cli.main(argv) == rc
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestListingAtScale:
    """The listing against `census`, at radii where a per-point loop is slow."""

    def test_trivial_cylinder_r400_within_budget(self):
        spec = rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),))
        t0 = time.perf_counter()
        rs = rz.surface_resonances(spec, 400.0)
        elapsed = time.perf_counter() - t0
        assert (len(rs), rs.total_multiplicity()) == (251_702, 503_404)
        assert rz.census(spec, 400.0, 1) == [(400.0, 503_404)]
        # the per-point listing took 3.7 s here; the array listing 0.25 s
        assert elapsed < 2.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trivial_cylinder_r400_memory_per_row(self, tmp_path, fmt):
        # README: the peak stays in the merge, about 300 bytes per row; the
        # writer streams blocks of rows and adds little to it
        path = write_spec(tmp_path, rz.SurfaceSpec(cylinders=((TWO_PI, TRIVIAL),)))
        argv = ["resonances", "--spec", str(path), "--radius", "400", "--output", fmt,
                "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 360 * 251_702

    def test_twisted_funnel_and_non_unitary_cylinder(self):
        spec = rz.SurfaceSpec(funnels=((1.0, EXAMPLE),), cylinders=((0.9, NON_UNITARY),))
        rs = rz.surface_resonances(spec, 150.0)
        assert rs.total_multiplicity() == rz.census(spec, 150.0, 1)[0][1]
