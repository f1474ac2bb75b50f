"""Drawn specs: the array listing and its CLI text against the per-point reference.

The examples are derandomized (see conftest.py): every run checks the same
specs.  They mix funnels, cylinders and cusps, rational angles of several
denominators, irrational angles, moduli and lengths shared across ends, so
that the exact keys, the rounded keys and the merge across ends all meet
inputs beyond the hand-picked EDGE_SPECS.
"""

import contextlib
import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from resonance_lab import cli  # noqa: E402
from resonance_lab import resonances as rz  # noqa: E402
from resonance_lab.twist import AngleClass, TwistSpec  # noqa: E402
from test_listing import assert_same_listing, cli_reference, listing_rows, write_spec  # noqa: E402

#: Lengths that ends may share, so that their lattices coincide.
SHARED_LENGTHS = (0.7, 1.0, 1.3, 2.0 * math.pi)

rational = st.integers(1, 12).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: p / q))
# within 1e-12 of a rational: the exact keys take them for it
near_rational = st.sampled_from([1.0 - 1e-15, 1.0 - 1e-13, 0.5 + 1e-13, 1e-14])
irrational = st.floats(0.0, 1.0, exclude_max=True)
theta = st.one_of(rational, rational, near_rational, irrational)
length = st.one_of(st.sampled_from(SHARED_LENGTHS), st.floats(0.5, 2.5))


def twists(moduli: bool):
    log_abs = st.one_of(st.just(0.0), st.floats(-1.0, 1.0)) if moduli else st.just(0.0)
    classes = st.builds(AngleClass, theta, st.integers(1, 3), log_abs)
    return st.lists(classes, max_size=3, unique_by=lambda c: (c.theta, c.log_abs)).map(
        lambda cs: TwistSpec(tuple(cs))
    )


specs = st.builds(
    lambda funnels, cylinders, cusps: rz.SurfaceSpec(funnels=funnels, cylinders=cylinders, cusps=cusps),
    st.lists(st.tuples(length, twists(moduli=False)), max_size=2),
    st.lists(st.tuples(length, twists(moduli=True)), max_size=2),
    st.lists(twists(moduli=False), max_size=1),
)


@given(spec=specs, radius=st.floats(0.3, 15.0))
def test_listing_and_text_match_reference(tmp_path_factory, spec, radius):
    assert_same_listing(spec, radius)
    path = write_spec(tmp_path_factory.mktemp("spec"), spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the rows were just held to the reference, bit for bit
        want = cli_reference(spec, radius, listing_rows(rz.surface_resonances(spec, radius)))
        for fmt, text in want.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["resonances", "--spec", str(path), "--radius", repr(radius), "--output", fmt])
            assert (rc, out.getvalue()) == (0, text)
