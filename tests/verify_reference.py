"""Per-sample loops of two `verify` checks, as they were before they were batched.

`mode_ode` is check_mode_ode with one scalar mode call per stencil point,
and `functional_equation` the functional-equation grid of check_scattering
with one `functional_equation_residual` call per point.  Both return the
worst value they found, as the checks did.  Tests run them beside the
batched checks and compare the mode values that either computes.
"""

import math

import numpy as np

from resonance_lab import model_kernels as mk
from resonance_lab import scattering as sc
from resonance_lab.geometry import TWO_PI

S_REF = 2.0 + 0.3j


def _ode_residual(mode, s, kap, r, r2, ell, h=1e-3):
    om = TWO_PI / ell
    f = lambda rr: mode(s, kap, rr, r2, ell)
    fp, f0, fm = f(r + h), f(r), f(r - h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return abs(
        -d2 - math.tanh(r) * d1 - s * (1.0 - s) * f0
        + om * om * kap * kap / math.cosh(r) ** 2 * f0
    )


def mode_ode() -> float:
    rng = np.random.default_rng(104)
    ell = 1.0
    worst = 0.0
    for _ in range(50):
        kap = rng.uniform(-2.0, 2.0)
        r2 = rng.uniform(-1.5, 2.5)
        r = r2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2)
        worst = max(worst, _ode_residual(mk.cyl_mode, S_REF, kap, r, r2, ell))
        rf2 = rng.uniform(0.5, 2.8)
        rf = rf2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        if rf < 0.02:
            rf = rf2 + 0.4
        worst = max(worst, _ode_residual(mk.funnel_mode, S_REF, kap, rf, rf2, ell))
    return worst


def functional_equation() -> float:
    ell = 1.0
    worst_feq = 0.0
    for s in (0.7 + 0.4j, 0.3 - 0.6j, 0.55 + 1.2j, 0.8 + 0.15j, 0.42 - 1.1j):
        for kap in (0.25, 0.5, 1.0, 1.75, 2.5):
            for r, r2 in ((0.5, 1.5), (1.0, 2.0), (2.0, 0.7), (1.3, 1.3), (0.4, 2.6)):
                worst_feq = max(
                    worst_feq, sc.functional_equation_residual(s, kap, r, r2, ell)
                )
    return worst_feq


def mode_tolerance(name: str, s: complex, kappa: float, r: float, r2: float = 0.0) -> float:
    """Relative tolerance of an array mode value (ell = 1) against a scalar evaluation.

    1e-14, plus the 2F1 series' rounding 5e-16 / (1 - z) at the larger of
    the mode's profile arguments z, plus 4 ulps of the log Gamma prefactor
    (a_kappa or beta_kappa).  The array call sums its rows in shared chunks,
    whose boundaries differ from a scalar evaluation's once a row runs past
    its first chunk, and takes log Gamma of an array of kappa with numpy's
    log, which differs from cmath's by an ulp.
    """
    q = TWO_PI * abs(kappa)
    if name == "cyl_mode":
        lo, hi = min(r, r2), max(r, r2)
        z = max((1.0 + math.tanh(lo)) / 2.0, (1.0 - math.tanh(hi)) / 2.0)
        log_pref = mk.log_a_kappa(s, q)
    else:
        lo, hi = (r, r) if name == "poisson_mode" else (min(r, r2), max(r, r2))
        z = max(math.tanh(lo) ** 2, (1.0 - math.tanh(hi)) / 2.0 if name == "funnel_mode" else 0.0)
        log_pref = mk.log_beta_kappa(s, q)
    return 1e-14 + 5e-16 / (1.0 - z) + 4.0 * 2.2e-16 * abs(log_pref)
