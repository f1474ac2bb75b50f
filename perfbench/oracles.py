"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into resonance_lab: the resonance counter counts the
closed-form lattices by integer intervals, and the free-resolvent oracle
evaluates g_s through mpmath's hypergeometric function.  `self_test()`
checks each oracle against known values; `test_oracles.py` runs it under
pytest.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def lattice_interval_count(
    ell: float, classes, radius: float, real_base: int, real_step: int
) -> int:
    """Total multiplicity of the lattice points with |s| < radius (strict).

    The lattice is the union over classes (theta, mult, log_abs) and p = +-1
    of (-real_base - real_step * N0) + p (log_abs + 2 pi i (theta + m)) / ell.
    For each real part the admissible m form the open interval
    |theta + m| < sqrt(radius^2 - re^2) / omega, whose integers are counted
    directly instead of being enumerated.
    """
    omega = TWO_PI / ell
    total = 0
    for theta, mult, log_abs in classes:
        shift = log_abs / ell
        n_max = int(math.ceil(radius + abs(shift))) + real_base
        n = np.arange(real_base, n_max + 1, real_step, dtype=float)
        for p in (1, -1):
            re = -n + p * shift
            re = re[np.abs(re) < radius]
            bound = np.sqrt(radius * radius - re * re) / omega
            # integers m with -bound - theta < m < bound - theta
            cnt = np.ceil(bound - theta) - np.floor(-bound - theta) - 1.0
            total += mult * int(np.maximum(cnt, 0.0).sum())
    return total


def cylinder_count(ell: float, classes, radius: float) -> int:
    return lattice_interval_count(ell, classes, radius, 0, 1)


def cusp_count(classes, radius: float) -> int:
    """The cusp contributes s = 1/2 with the multiplicity of theta = 0."""
    return sum(m for theta, m, _ in classes if theta == 0.0) if radius > 0.5 else 0


def g_s_oracle(s: complex, x: float, dps: int = 30) -> complex:
    """Free resolvent profile Gamma(s)^2/(4 pi Gamma(2s)) x^-s 2F1(s, s; 2s; 1/x)."""
    import mpmath

    with mpmath.workdps(dps):
        s_ = mpmath.mpc(s.real, s.imag)
        x_ = mpmath.mpf(x)
        val = (
            mpmath.gamma(s_) ** 2
            / (4 * mpmath.pi * mpmath.gamma(2 * s_))
            * x_ ** (-s_)
            * mpmath.hyp2f1(s_, s_, 2 * s_, 1 / x_)
        )
        return complex(val)


def g_1_closed_form(x: float) -> float:
    """g_1(x) = log(x / (x - 1)) / (4 pi)."""
    return math.log(x / (x - 1.0)) / (4.0 * math.pi)


def self_test() -> None:
    """Raise AssertionError if an oracle misses a known value."""
    trivial = [(0.0, 1, 0.0)]
    n5 = cylinder_count(TWO_PI, trivial, 5.0)
    n400 = cylinder_count(TWO_PI, trivial, 400.0)
    if (n5, n400) != (78, 503_404):
        raise AssertionError(f"interval count N(5), N(400) = {n5}, {n400}")
    for x in (1.01, 1.5, 3.0, 40.0):
        got, want = g_s_oracle(1.0 + 0.0j, x), g_1_closed_form(x)
        if abs(got - want) > 1e-14 * abs(want):
            raise AssertionError(f"g_1({x}) oracle {got} vs closed form {want}")
