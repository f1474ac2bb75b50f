"""Per-mode reference for the cylinder and funnel Fourier syntheses.

These are the Fourier routes as they were written before block mode sums:
one scalar mode at a time in math and cmath arithmetic, each profile
through the scalar 2F1 loop of `hyp2f1_reference`, and the adaptive sum
adding k = 1, 2, ... and then k = -1, -2, ..., each side stopped on the
geometric tail of the last magnitude ratio, times 10, below
FOURIER_TAIL_TOL of the largest term.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import hyp2f1_reference
from resonance_lab import specfun
from resonance_lab.errors import DomainError, TruncationError
from resonance_lab.geometry import TWO_PI, CylCoord
from resonance_lab.model_kernels import (
    FOURIER_TAIL_TOL,
    R0_PROFILE_MAX,
    R_PROFILE_MIN,
    _classwise,
)
from resonance_lab.specfun import log_gamma
from resonance_lab.twist import TwistSpec

_MAX_FOURIER_MODES = 3000


def log_a_kappa(s: complex, q: float) -> complex:
    """log of 2^{-2s} Gamma(s + iq) Gamma(s - iq), q = omega * kappa."""
    return (
        -2.0 * s * math.log(2.0)
        + log_gamma(complex(s.real, s.imag + q))
        + log_gamma(complex(s.real, s.imag - q))
    )


def log_beta_kappa(s: complex, q: float) -> complex:
    """log of (1/2) Gamma((s + iq + 1)/2) Gamma((s - iq + 1)/2)."""
    return (
        -math.log(2.0)
        + log_gamma(complex((s.real + 1.0) / 2.0, (s.imag + q) / 2.0))
        + log_gamma(complex((s.real + 1.0) / 2.0, (s.imag - q) / 2.0))
    )


def _log_cosh(r: float) -> float:
    a = abs(r)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _half_one_minus_tanh(r: float) -> float:
    """(1 - tanh r)/2 = 1/(1 + e^{2r}), without cancellation."""
    if r > 0:
        e = math.exp(-2.0 * r)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(2.0 * r))


def _v_profile_scaled(s: complex, q: float, r: float) -> tuple[complex, float]:
    warg = _half_one_minus_tanh(r)
    if warg > 1.0 - specfun.GUARD_DELTA:
        raise DomainError(
            f"profile argument (1-tanh r)/2 = {warg} outside the series guard; "
            f"needs r >= {-R_PROFILE_MIN:.3f}"
        )
    m, e = hyp2f1_reference.reg_hyp2f1_scaled(
        complex(s.real, s.imag + q), complex(s.real, s.imag - q), s + 0.5, warg
    )
    lc = _log_cosh(r)
    return m * cmath.exp(complex(0.0, -s.imag * lc)), e - s.real * lc


def _v0_profile_scaled(s: complex, q: float, r: float) -> tuple[complex, float]:
    th = math.tanh(r)
    warg = th * th
    if warg > 1.0 - specfun.GUARD_DELTA:
        raise DomainError(
            f"tanh^2 r = {warg} outside the series guard; needs |r| <= "
            f"{R0_PROFILE_MAX:.3f}"
        )
    m, e = hyp2f1_reference.reg_hyp2f1_scaled(
        complex((s.real + 1.0) / 2.0, (s.imag + q) / 2.0),
        complex((s.real + 1.0) / 2.0, (s.imag - q) / 2.0),
        1.5,
        warg,
    )
    lc = _log_cosh(r)
    return th * m * cmath.exp(complex(0.0, -s.imag * lc)), e - s.real * lc


def _assemble_mode(log_pref: complex, f1: tuple[complex, float], f2: tuple[complex, float]) -> complex:
    """exp(log_pref) * f1 * f2 with all exponents combined before exp."""
    m = f1[0] * f2[0]
    if m == 0.0:
        return 0.0 + 0.0j
    x = log_pref.real + f1[1] + f2[1]
    if x + math.log(abs(m)) < -745.0:
        return 0.0 + 0.0j
    if x + math.log(abs(m)) > 709.0:
        raise specfun.OverflowBudgetError(f"mode value overflows a double ({x:.1f})")
    return m * cmath.exp(complex(x, log_pref.imag))


def cyl_mode(s: complex, kappa: float, r: float, r2: float, ell: float) -> complex:
    """Two-point cylinder mode a_kappa(s) v(s; -min) v(s; max)."""
    s = complex(s)
    omega = TWO_PI / ell
    q = omega * abs(kappa)
    lo, hi = min(r, r2), max(r, r2)
    return _assemble_mode(
        log_a_kappa(s, q), _v_profile_scaled(s, q, -lo), _v_profile_scaled(s, q, hi)
    )


def funnel_mode(s: complex, kappa: float, r: float, r2: float, ell: float) -> complex:
    """Funnel mode beta_kappa(s) v0(s; min) v(s; max) for r, r2 >= 0."""
    s = complex(s)
    if r < 0.0 or r2 < 0.0:
        raise DomainError(f"funnel coordinates must satisfy r >= 0, got {r}, {r2}")
    omega = TWO_PI / ell
    q = omega * abs(kappa)
    lo, hi = min(r, r2), max(r, r2)
    return _assemble_mode(
        log_beta_kappa(s, q), _v0_profile_scaled(s, q, lo), _v_profile_scaled(s, q, hi)
    )


def _mode_sum(mode_term) -> complex:
    """Sum mode_term(k) over k in Z, adaptively."""
    center = mode_term(0)
    total = center
    scale = abs(center)
    for side in (1, -1):
        prev = None
        for k in range(side, side * (_MAX_FOURIER_MODES + 1), side):
            cur = mode_term(k)
            total += cur
            mag = abs(cur)
            scale = max(scale, mag)
            if mag == 0.0 and prev == 0.0:
                break  # two consecutive true underflows: the tail is gone
            if prev is not None and 0.0 < mag < prev:
                ratio = mag / prev
                tail = mag * ratio / (1.0 - ratio) if ratio < 0.995 else math.inf
                if 10.0 * tail < FOURIER_TAIL_TOL * scale:
                    break
            prev = mag
        else:
            raise TruncationError(f"Fourier synthesis needs more than {_MAX_FOURIER_MODES} modes")
    return total


def _fourier_kernel(t: TwistSpec, c1: CylCoord, c2: CylCoord, mode_term, ell) -> np.ndarray:
    """Per class j: lambda_j^(w - w') sum_k mode_term(k + theta_j) / ell."""
    if not t.is_unitary:
        raise DomainError("Fourier synthesis requires a unitary twist")
    if c1.r == c2.r and c1.phi == c2.phi:
        raise DomainError("Fourier synthesis requires distinct points")
    values = [_mode_sum(lambda k: mode_term(k + cls.theta)) / ell for cls in t.angles]
    return _classwise(t, c1.winding - c2.winding, values)


def cyl_kernel_fourier(s, ell, t, c1, c2) -> np.ndarray:
    """Twisted cylinder kernel, one scalar mode at a time."""
    s = complex(s)
    dphi = c1.phi - c2.phi
    return _fourier_kernel(
        t, c1, c2,
        lambda kap: cmath.exp(1j * kap * dphi) * cyl_mode(s, kap, c1.r, c2.r, ell), ell,
    )


def funnel_kernel_fourier(s, ell, t, c1, c2) -> np.ndarray:
    """Funnel kernel, one scalar mode at a time."""
    s = complex(s)
    dphi = c1.phi - c2.phi
    return _fourier_kernel(
        t, c1, c2,
        lambda kap: cmath.exp(1j * kap * dphi) * funnel_mode(s, kap, c1.r, c2.r, ell), ell,
    )
