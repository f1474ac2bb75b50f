"""The regularized 2F1 series summed one term at a time: the scalar reference.

This is `specfun.reg_hyp2f1_scaled` as it was written before the array
engine: one Python loop over the terms, rescaled by 1e-150 whenever the
running sum passes 1e150, started from 1/Gamma(c) (its phase, with
-Re log Gamma(c) in the exponent), and stopped on the same geometric tail
rule, |term| |z| / (1 - |z|) <= 1e-16 |sum|.  For c in -N0 its start term
is built one factor at a time, so that it reaches past c = -170.
"""

from __future__ import annotations

import cmath
import math

from resonance_lab.errors import DomainError, NonConvergenceError
from resonance_lab.specfun import GUARD_DELTA, _is_nonpositive_integer, log_gamma

_SERIES_CAP = 100_000


def reg_hyp2f1_scaled(
    a: complex, b: complex, c: complex, z: complex
) -> tuple[complex, float]:
    """Regularized Gauss hypergeometric function, scaled.

    Returns (m, E) with F~(a, b; c; z) = m * e^E; the running sum is
    rescaled whenever it grows, so large parameters (for which the value
    itself overflows a double) are handled exactly up to the final
    exponent.  Requires |z| <= 1 - GUARD_DELTA.
    """
    return _series(a, b, c, z)[:2]


def cancellation(a: complex, b: complex, c: complex, z: complex) -> float:
    """sum_n |term_n| / |sum_n term_n|: how far the sum's rounding exceeds that of its terms."""
    total, _, abs_total = _series(a, b, c, z)
    return abs_total / abs(total)


def _series(a, b, c, z) -> tuple[complex, float, float]:
    """(m, E, A): the sum m e^E as above, and A e^E the sum of the terms' moduli."""
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    az = abs(z)
    if az > 1.0 - GUARD_DELTA:
        raise DomainError(f"|z| = {az} exceeds the series guard {1.0 - GUARD_DELTA}")

    m = _is_nonpositive_integer(c)
    if m is not None:
        # Gamma(c+n) is singular for n <= m, so those terms vanish; start
        # at n = m+1 where Gamma(c+n) = Gamma(n-m) is regular, with the
        # term z^n0 / n0! prod (a+j)(b+j) built one factor at a time and
        # its size moved into the exponent (n0! overflows past n0 = 170)
        n0 = m + 1
        if az == 0.0:
            return 0.0 + 0.0j, 0.0, 0.0
        term, exponent = 1.0 + 0.0j, 0.0
        for j in range(n0):
            term *= (a + j) * (b + j) * z / (j + 1)
            mag = abs(term)
            if mag > 1e150 or 0.0 < mag < 1e-150:
                term /= mag
                exponent += math.log(mag)
    else:
        # 1/Gamma(c) as a phase and an exponent, so that Re c > 171 evaluates
        n0 = 0
        lg = log_gamma(c)
        term = cmath.exp(complex(0.0, -lg.imag))
        exponent = -lg.real

    total = term
    abs_total = abs(term)
    n = n0
    while n < _SERIES_CAP:
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        abs_total += abs(term)
        n += 1
        mag = abs(total)
        if mag > 1e150:
            total *= 1e-150
            term *= 1e-150
            abs_total *= 1e-150
            exponent += 150.0 * math.log(10.0)
            mag *= 1e-150
        if n > n0 + 2:
            # geometric tail bound: remaining sum < |term| * az / (1 - az)
            tail = abs(term) * az / (1.0 - az)
            if tail <= 1e-16 * max(mag, 1e-300) or term == 0:
                return total, exponent, abs_total
    raise NonConvergenceError(
        f"hypergeometric series did not converge within {_SERIES_CAP} terms (|z| = {az})"
    )
