"""Two slow-path oracles of `free_resolvent.g_s` and its array engine.

`g_s` is the series in 1/x,

    g_s(x) = Gamma(s)^2 / (4 pi) * x^(-s) * F~(s, s; 2s; 1/x),

as `g_s` was written before the series in u = e^-d: 2 log Gamma(s) -
log(4 pi), the exponent of the regularized 2F1 and -s log x are added
before one exp.  The 2F1 is the term-by-term loop of
`hyp2f1_reference`, which needs about 37 / log x terms, tens of
thousands near the diagonal guard.

`g_s_series` is the series in u^2 one term at a time, as `g_s` was
written before it took arrays of x: 9-23 us a call, which the per-image
reference loops take for each image.
"""

from __future__ import annotations

import cmath
import math

from hyp2f1_reference import reg_hyp2f1_scaled
from resonance_lab import specfun
from resonance_lab.errors import DiagonalError, NonConvergenceError, PoleError
from resonance_lab.free_resolvent import _SPLIT, DIAG_DELTA, _series_start
from resonance_lab.specfun import log_gamma, scaled_value


def g_s(s: complex, x: float) -> complex:
    s = complex(s)
    m, e = reg_hyp2f1_scaled(s, s, 2.0 * s, 1.0 / x)
    exponent = 2.0 * log_gamma(s) - math.log(4.0 * math.pi) + e - s * math.log(x)
    return scaled_value(m, exponent, "g_s reference")


def _product_with_error(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and, by Dekker's splitting, a b = p + e exactly; e is 0 where a split overflows."""
    p = a * b
    ah, bh = _SPLIT * a, _SPLIT * b
    ah -= ah - a
    bh -= bh - b
    al, bl = a - ah, b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, (e if math.isfinite(e) else 0.0)


def g_s_series(s: complex, x: float) -> complex:
    """g_s(x) by the series in z = u^2, term by term, with the stop and the exponent of `free_resolvent`."""
    s = complex(s)
    if specfun._is_nonpositive_integer(s) is not None:
        raise PoleError(f"spectral parameter s = {s} lies on the pole set")
    if not x > 1.0 + DIAG_DELTA:
        raise DiagonalError(f"sigma = {x} within the diagonal guard 1 + {DIAG_DELTA}")
    log_pref, n0 = _series_start(s)
    t0 = 1.0  # (1/2)_n0 / n0!, the first term's coefficient
    for j in range(n0):
        t0 *= (0.5 + j) / (j + 1)
    log_u = -2.0 * math.asinh(math.sqrt(x - 1.0))
    z = math.exp(2.0 * log_u)
    term = complex(t0 * z**n0)
    c = s + 0.5
    total = term
    tail = z / (1.0 - z)
    first_tail = max(n0 + 3, math.ceil(-s.real))
    n = n0
    while True:
        term *= (s + n) * (n + 0.5) / ((c + n) * (n + 1)) * z
        total += term
        n += 1
        if n >= first_tail and abs(term) * tail <= 1e-16 * abs(total):
            break
        if n >= specfun._SERIES_CAP:
            raise NonConvergenceError(f"g_s series did not converge within {n} terms (sigma = {x})")
    re, re_err = _product_with_error(s.real, log_u)
    im, im_err = _product_with_error(s.imag, log_u)
    if abs(re_err) > 1.0:
        re_err = 0.0
    return scaled_value(total * cmath.exp(log_pref + complex(re_err, im_err)), complex(re, im), "g_s")
