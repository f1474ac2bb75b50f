"""g_s by its series in 1/x: the slow-path oracle of `free_resolvent.g_s`.

    g_s(x) = Gamma(s)^2 / (4 pi) * x^(-s) * F~(s, s; 2s; 1/x),

as `g_s` was written before the series in u = e^-d: 2 log Gamma(s) -
log(4 pi), the exponent of the regularized 2F1 and -s log x are added
before one exp.  The 2F1 is the term-by-term loop of
`hyp2f1_reference`, which needs about 37 / log x terms, tens of
thousands near the diagonal guard.
"""

from __future__ import annotations

import math

from hyp2f1_reference import reg_hyp2f1_scaled
from resonance_lab.specfun import log_gamma, scaled_value


def g_s(s: complex, x: float) -> complex:
    s = complex(s)
    m, e = reg_hyp2f1_scaled(s, s, 2.0 * s, 1.0 / x)
    exponent = 2.0 * log_gamma(s) - math.log(4.0 * math.pi) + e - s * math.log(x)
    return scaled_value(m, exponent, "g_s reference")
