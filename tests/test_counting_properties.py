"""Drawn specs: the interval count N(r) against its columns' lengths.

A column is a class, a sign p and a real part x = -n + p log_abs/ell (odd n
on a funnel) with |x| < r.  Its open interval of imaginary parts,
|Im s| < sqrt(r^2 - x^2), is L = 2 sqrt(r^2 - x^2) / omega lattice steps
long, omega = 2 pi / ell, so it holds L points to within 1: N(r) is
C + sum mult L to within sum mult, over the columns, whatever the angles,
moduli and lengths.  The counting law's A r^2 + B r is that sum's
Euler-Maclaurin estimate; this bound holds by construction, column by
column.  The examples are derandomized (see conftest.py).
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from resonance_lab import resonances as rz  # noqa: E402
from resonance_lab.twist import AngleClass, TwistSpec  # noqa: E402

rational = st.integers(1, 12).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: p / q))
theta = st.one_of(rational, st.floats(0.0, 1.0, exclude_max=True))
length = st.floats(0.5, 2.5)


def twists(moduli: bool):
    log_abs = st.one_of(st.just(0.0), st.floats(-0.6, 0.6)) if moduli else st.just(0.0)
    classes = st.builds(AngleClass, theta, st.integers(1, 3), log_abs)
    return st.lists(classes, max_size=3, unique_by=lambda c: (c.theta, c.log_abs)).map(
        lambda cs: TwistSpec(tuple(cs))
    )


specs = st.builds(
    lambda funnels, cylinders, cusps: rz.SurfaceSpec(funnels=funnels, cylinders=cylinders, cusps=cusps),
    st.lists(st.tuples(length, twists(moduli=False)), max_size=2),
    st.lists(st.tuples(length, twists(moduli=True)), max_size=2),
    st.lists(twists(moduli=False), max_size=2),
)


def columns(spec, r):
    """(mult, L) of every column with |x| < r."""
    ends = [(ell, t, 1, 2) for ell, t in spec.funnels] + [(ell, t, 0, 1) for ell, t in spec.cylinders]
    out = []
    for ell, t, base, step in ends:
        omega = 2.0 * math.pi / ell
        for cls in t.angles:
            for p in (1, -1):
                shift = p * cls.log_abs / ell
                for n in range(base, math.ceil(r + abs(shift)) + 1, step):
                    x = -n + shift
                    if abs(x) < r:
                        out.append((cls.mult, 2.0 * math.sqrt(r * r - x * x) / omega))
    return out


@given(spec=specs, r=st.floats(1.0, 300.0))
def test_count_within_a_point_per_column(spec, r):
    cols = columns(spec, r)
    _, _, c = rz.counting_law(spec)
    n = rz._count(spec, r)
    assert abs(n - c - sum(m * length for m, length in cols)) <= sum(m for m, _ in cols)
