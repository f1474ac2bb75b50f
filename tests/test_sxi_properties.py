"""Property test: the direct and the continued S_xi agree where both converge."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from resonance_lab import model_kernels as mk  # noqa: E402


@given(
    theta=st.floats(0.0, 1.0, exclude_max=True),
    a=st.floats(-3.0, 3.0),
    b=st.floats(0.05, 5.0),
    re_s=st.floats(0.7, 3.0),
    im_s=st.floats(-5.0, 5.0),
)
def test_direct_and_continued_agree(theta, a, b, re_s, im_s):
    s = complex(re_s, im_s)
    d = mk.s_xi_direct(theta, s, a, b)
    c = mk.s_xi_continued(theta, s, a, b)
    assert math.isfinite(abs(d)) and abs(c - d) <= 1e-10 * abs(d)
