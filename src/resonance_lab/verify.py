"""Cross-oracle verification suite.

Every check pits one computational route against an independent one
(images vs Fourier synthesis, direct sums vs continued integrals, finite
differences vs closed forms) and reports a named pass/fail result.  The
three two-representation checks share one body, which takes both routes
through `model_kernels.kernel`.  The CLI `verify` command runs all of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model_kernels as mk
from . import resonances as rz
from . import scattering as sc
from .errors import PoleError
from .free_resolvent import _g_s_rows
from .geometry import TWO_PI, CylCoord, HPoint, cyl_to_plane, sigma
from .twist import TwistSpec

_TWIST_EXAMPLE = TwistSpec.from_angles([(0.25, 1), (0.5, 1)])  # diag(i, -1)
_S_REF = 2.0 + 0.3j

#: Draws of (s, kappa) in which check_scattering must form its 200 products.
_SCATTERING_DRAWS = 1000

#: The functional-equation grid of check_scattering: each s against every
#: (kappa, r, r2) of _FEQ_GRID, kappa outermost, in one call per s.
_FEQ_S = (0.7 + 0.4j, 0.3 - 0.6j, 0.55 + 1.2j, 0.8 + 0.15j, 0.42 - 1.1j)
_FEQ_GRID = np.array(
    [
        (kap, r, r2)
        for kap in (0.25, 0.5, 1.0, 1.75, 2.5)
        for r, r2 in ((0.5, 1.5), (1.0, 2.0), (2.0, 0.7), (1.3, 1.3), (0.4, 2.6))
    ]
).T


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _two_representation(end: str, seed: int, r_range, separated, s_values) -> CheckResult:
    """Images against Fourier modes on one end, ell = 1 and diag(i, -1), to 1e-6 relative.

    One point pair per entry of s_values: r uniform in r_range and phi in
    [0, 2pi), drawn again until separated(c1, c2) holds.  The pairs of one
    s go to each route in one `model_kernels.kernel` call.
    """
    rng, by_s = np.random.default_rng(seed), {}
    for s in s_values:
        while True:
            c1 = CylCoord(rng.uniform(*r_range), rng.uniform(0.0, TWO_PI))
            c2 = CylCoord(rng.uniform(*r_range), rng.uniform(0.0, TWO_PI))
            if separated(c1, c2):
                break
        by_s.setdefault(s, []).append((c1, c2))
    worst = 0.0
    for s, pairs in by_s.items():
        ki = mk.kernel(end, "images", s, 1.0, _TWIST_EXAMPLE, pairs)
        kf = mk.kernel(end, "fourier", s, 1.0, _TWIST_EXAMPLE, pairs)
        worst = max(worst, float(np.max(np.abs(ki - kf) / np.abs(ki))))
    return CheckResult(f"two_representation_{end}", worst <= 1e-6, f"max rel err {worst:.3e}")


def _cylinder_separated(c1: CylCoord, c2: CylCoord) -> bool:
    # near-diagonal evaluation is out of scope; keep radial separation so
    # the mode sums converge at their generic geometric rate
    return abs(c1.r - c2.r) >= 0.15 and sigma(cyl_to_plane(c1, 1.0), cyl_to_plane(c2, 1.0)) > 1.05


def check_two_representation_cylinder() -> CheckResult:
    return _two_representation("cylinder", 101, (-2.0, 2.0), _cylinder_separated, [_S_REF] * 20)


def check_two_representation_funnel() -> CheckResult:
    return _two_representation("funnel", 102, (0.05, 2.2), _cylinder_separated, [_S_REF] * 20)


def check_two_representation_cusp() -> CheckResult:
    # the last pairs lie below Re s = 1/2 + MARGIN, where the image sum is
    # continued through the S_xi tails
    return _two_representation(
        "cusp", 103, (-0.5, 1.2), lambda c1, c2: abs(math.exp(c1.r) - math.exp(c2.r)) >= 0.15,
        [_S_REF] * 20 + [0.3 + 1.2j] * 4,
    )


#: Step of the central differences in check_mode_ode.
_ODE_STEP = 1e-3


def _mode_ode_samples():
    """The 50 draws of check_mode_ode: arrays (kappa, r, r2) for the cylinder, and for the funnel."""
    rng = np.random.default_rng(104)
    cylinder, funnel = [], []
    for _ in range(50):
        kap = rng.uniform(-2.0, 2.0)
        r2 = rng.uniform(-1.5, 2.5)
        r = r2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2)
        cylinder.append((kap, r, r2))
        rf2 = rng.uniform(0.5, 2.8)
        rf = rf2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        if rf < 0.02:
            rf = rf2 + 0.4
        funnel.append((kap, rf, rf2))
    return np.array(cylinder).T, np.array(funnel).T


def _stencil(mode, kap, r, r2, ell):
    """mode(s, kap, ., r2, ell) at r + h, r and r - h of every sample, in one call: three rows."""
    h = _ODE_STEP
    rr = np.concatenate([r + h, r, r - h])
    return mode(_S_REF, np.tile(kap, 3), rr, np.tile(r2, 3), ell).reshape(3, -1)


def _ode_residual(kap, r, f, ell):
    """Central-difference residuals of the radial mode ODE at each r, from the stencil rows f."""
    s, h, om = _S_REF, _ODE_STEP, TWO_PI / ell
    fp, f0, fm = f
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return np.abs(
        -d2 - np.tanh(r) * d1 - s * (1.0 - s) * f0
        + om * om * kap * kap / np.cosh(r) ** 2 * f0
    )


def check_mode_ode() -> CheckResult:
    ell = 1.0
    residuals = [
        _ode_residual(kap, r, _stencil(mode, kap, r, r2, ell), ell)
        for mode, (kap, r, r2) in zip((mk.cyl_mode, mk.funnel_mode), _mode_ode_samples())
    ]
    worst = float(np.max(residuals))  # a NaN residual fails the check
    return CheckResult("mode_ode_residual", worst <= 1e-4, f"max residual {worst:.3e}")


def check_sxi_dual() -> CheckResult:
    worst = 0.0
    for s in (0.75, 1.5, 2.0 + 2.0j):
        for xia in (0.0, 0.1, 1.0 / 3.0, 0.5):
            for a, b in ((0.0, 1.0), (0.3, 0.5), (-1.7, 2.5)):
                d = mk.s_xi_direct(xia, s, a, b)
                c = mk.s_xi_continued(xia, s, a, b)
                worst = max(worst, abs(d - c) / max(abs(d), 1e-30))
    return CheckResult("sxi_dual_representation", worst <= 1e-8, f"max rel err {worst:.3e}")


def check_scattering() -> CheckResult:
    rng = np.random.default_rng(105)
    ell = 1.0
    worst_inv = 0.0
    n = draws = 0
    while n < 200 and draws < _SCATTERING_DRAWS:
        # as many draws as products still missing: a draw at a pole or an exact 0 is skipped
        batch = rng.uniform([-2.0, -3.0, -3.0], [3.0, 3.0, 3.0], size=(min(200 - n, _SCATTERING_DRAWS - draws), 3))
        draws += len(batch)
        s, kap = batch[:, 0] + 1j * batch[:, 1], batch[:, 2]
        try:
            v = sc.scattering_coeff(s, kap, ell) * sc.scattering_coeff(1.0 - s, kap, ell)
        except PoleError:
            continue
        v = v[~np.isnan(v) & (v != 0.0)]
        n += v.size
        worst_inv = max(worst_inv, float(np.max(np.abs(v - 1.0), initial=0.0)))
    if n < 200:
        return CheckResult(
            "scattering_identities",
            False,
            f"only {n} of 200 products S(s) S(1-s) formed in {_SCATTERING_DRAWS} draws",
        )
    kap, r, r2 = _FEQ_GRID
    worst_feq = float(np.max([sc.functional_equation_residual(s, kap, r, r2, ell) for s in _FEQ_S]))
    ok = worst_inv <= 1e-10 and worst_feq <= 1e-6
    return CheckResult(
        "scattering_identities",
        ok,
        f"inversion {worst_inv:.3e}, functional eq {worst_feq:.3e}",
    )


def check_free_kernel_pde() -> CheckResult:
    rng = np.random.default_rng(106)
    s = _S_REF
    z2 = HPoint(0.3, 1.2)
    h = 1e-3
    points = []
    while len(points) < 30:
        z = HPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.4, 3.0))
        if sigma(z, z2) >= math.cosh(0.25) ** 2:
            points.append((z.x, z.y))
    x, y = np.array(points).T
    # the five stencil points of every z, one row each: z, x +- h, y +- h
    sx, sy = np.array([x, x + h, x - h, x, x]), np.array([y, y, y, y + h, y - h])
    dx, sy2 = sx - z2.x, sy + z2.y
    u = _g_s_rows(s, ((dx * dx + sy2 * sy2) / (4.0 * sy * z2.y)).ravel()).reshape(5, -1)
    uxx = (u[1] - 2.0 * u[0] + u[2]) / (h * h)
    uyy = (u[3] - 2.0 * u[0] + u[4]) / (h * h)
    worst = float(np.max(np.abs(-y * y * (uxx + uyy) - s * (1.0 - s) * u[0])))
    return CheckResult("free_kernel_pde", worst <= 1e-4, f"max residual {worst:.3e}")


def check_kernel_symmetries() -> CheckResult:
    rng = np.random.default_rng(107)
    ell, t = 1.0, _TWIST_EXAMPLE
    lams = np.array([cls.eigenvalue for cls in t.angles])
    pairs = []
    for _ in range(10):
        z = HPoint(rng.uniform(-1.0, 1.0), rng.uniform(0.8, 2.0))
        pairs.append((z, HPoint(rng.uniform(-1.0, 1.0), rng.uniform(2.5, 4.0))))
    # each variant of the 10 pairs in one call: base, z moved to e^ell z, and conj s with z and w swapped
    base = mk.cyl_class_images(_S_REF, ell, t.angles, pairs)
    shifted = [(HPoint.from_complex(math.exp(ell) * z.z), w) for z, w in pairs]
    a = mk.cyl_class_images(_S_REF, ell, t.angles, shifted)
    d = mk.cyl_class_images(_S_REF.conjugate(), ell, t.angles, [(w, z) for z, w in pairs])
    worst_eq = float(np.max(np.abs(a - lams * base)))
    worst_sym = float(np.max(np.abs(np.conj(base) - d)))
    ok = worst_eq <= 1e-8 and worst_sym <= 1e-8
    return CheckResult(
        "kernel_symmetries", ok, f"equivariance {worst_eq:.3e}, conj-symmetry {worst_sym:.3e}"
    )


def check_twist_phase() -> CheckResult:
    ell, t = 1.0, _TWIST_EXAMPLE
    c2 = CylCoord(0.8, 1.1)
    # each angle and its turn later, in one call: the pairs share r and r'
    rows = mk.cyl_kernel_fourier(
        _S_REF, ell, t, [(CylCoord(-0.4, phi + turn), c2) for phi in (0.3, 2.0, 5.5) for turn in (0.0, TWO_PI)]
    )
    base, shifted = rows[0::2], rows[1::2]
    phase = np.array([cmath.exp(2j * math.pi * cls.theta) for cls in t.angles])
    worst = float(np.max(np.abs(shifted - phase * base) / np.abs(base)))
    return CheckResult("twist_phase", worst <= 1e-12, f"max rel err {worst:.3e}")


def check_resonance_example() -> CheckResult:
    ell = 1.0
    rs = rz.cylinder_resonances(ell, _TWIST_EXAMPLE, 8.0)
    step = math.pi / (2.0 * ell)
    expected: dict[tuple[int, int], int] = {}
    for n in range(0, 9):
        q = -17
        while q * step <= 8.0:
            if q % 4 != 0 and abs(complex(-n, step * q)) < 8.0:
                expected[(n, q)] = 1 if q % 2 else 2
            q += 1
    got: dict[tuple[int, int], int] = {}
    for p in rs:
        key = (round(-p.location.real), round(p.location.imag / step))
        if abs(p.location - complex(-key[0], key[1] * step)) > 1e-12:
            return CheckResult("resonance_example", False, f"off-lattice point {p}")
        got[key] = p.mult
    ok = got == expected
    return CheckResult(
        "resonance_example",
        ok,
        f"{len(got)} lattice points, total mult {sum(got.values())}",
    )


def check_counting() -> CheckResult:
    """N(5) = 78 on the 2 pi trivial cylinder, by enumeration and by interval
    count, and |N(r) - A r^2 - B r| <= 3 r^(2/3) from r = 10 to 1000 (README)."""
    ell = 2.0 * math.pi
    t0 = TwistSpec.trivial()
    spec = rz.SurfaceSpec(cylinders=((ell, t0),))
    n5 = rz.counting_function(rz.cylinder_resonances(ell, t0, 5.0), 5.0)
    a, b, _ = rz.counting_law(spec)
    radii = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
    worst = max(abs(rz._count(spec, r) - a * r * r - b * r) / r ** (2.0 / 3.0) for r in radii)
    ok = n5 == 78 and rz._count(spec, 5.0) == n5 and worst <= 3.0
    return CheckResult("counting_and_growth", ok, f"N(5) = {n5}, max |E| / r^(2/3) {worst:.3e}")


ALL_CHECKS = (
    check_two_representation_cylinder,
    check_two_representation_funnel,
    check_two_representation_cusp,
    check_mode_ode,
    check_sxi_dual,
    check_scattering,
    check_free_kernel_pde,
    check_kernel_symmetries,
    check_twist_phase,
    check_resonance_example,
    check_counting,
)


def run_all() -> list[CheckResult]:
    """Run every check, one after another, in ALL_CHECKS order."""
    return [c() for c in ALL_CHECKS]
