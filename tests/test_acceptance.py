"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 2 and 4-8 run the `resonance_lab.verify` checks (the same ones
`resonance-lab verify` runs) at their thresholds, plus oracles and witnesses
of their own; criteria 3 and 9 exist only here.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines and
timings.
"""

import math
import time

import numpy as np

from resonance_lab import model_kernels as mk
from resonance_lab import resonances as rz
from resonance_lab import scattering as sc
from resonance_lab import verify as vf
from resonance_lab.geometry import TWO_PI
from resonance_lab.twist import TwistSpec, eigen_angles

TWIST = TwistSpec.from_angles([(0.25, 1), (0.5, 1)])  # diag(i, -1)


def report(num, label, ok, detail, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status} {label}: {detail} ({elapsed:.2f}s / {budget}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def report_checks(num, label, results, t0, budget, extra_ok=True, extra=""):
    """report() for verify.check_* results, plus the test's own extra oracle."""
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results)
    if extra:
        detail += "; " + extra
    report(num, label, all(r.passed for r in results) and extra_ok, detail, t0, budget)


def test_criterion_1_example_twist_lattice():
    t0 = time.time()
    report_checks(
        1, "diag(i,-1) cylinder multiset |s| < 8",
        [vf.check_resonance_example()], t0, 1.0,
    )


def test_criterion_2_untwisted_count_and_growth():
    t0 = time.time()
    # the check asserts N(5) = 78; the lattice count by brute force must agree
    brute = 2 * sum(1 for n in range(6) for m in range(-5, 6) if n * n + m * m < 25)
    report_checks(
        2, "N(5) = 78 and N(r) = A r^2 + B r + O(r^(2/3)) on [10, 1000]",
        [vf.check_counting()], t0, 10.0,
        extra_ok=brute == 78, extra=f"brute-force oracle N(5) = {brute}",
    )


def test_criterion_3_cusp_resonance():
    t0 = time.time()
    rng = np.random.default_rng(81)
    ok = True
    details = []
    for d, extra in ((1, [0.3]), (2, [0.25, 0.7]), (3, [])):
        phases = [1.0] * d + [np.exp(2j * math.pi * th) for th in extra]
        a = rng.normal(size=(len(phases), len(phases))) + 1j * rng.normal(
            size=(len(phases), len(phases))
        )
        q, r = np.linalg.qr(a)
        w = q * (np.diag(r) / np.abs(np.diag(r)))
        u = w.conj().T @ np.diag(phases) @ w
        rs = rz.cusp_resonances(eigen_angles(u))
        pts = [(p.location, p.mult) for p in rs]
        ok &= pts == [(0.5 + 0j, d)]
        details.append(f"dim-1-eigenspace {d} -> {pts}")
    report(3, "cusp resonance (1/2, d)", ok, "; ".join(details), t0, 1.0)


def test_criterion_4_two_representation_agreement():
    t0 = time.time()
    results = [
        vf.check_two_representation_cylinder(),
        vf.check_two_representation_funnel(),
        vf.check_two_representation_cusp(),
    ]
    report_checks(4, "images vs Fourier on 3 ends, 20 pairs each", results, t0, 30.0)


def test_criterion_5_mode_ode_residuals():
    t0 = time.time()
    report_checks(5, "mode ODE residuals (h = 1e-3)", [vf.check_mode_ode()], t0, 5.0)


def test_criterion_6_sxi_dual_and_pole():
    t0 = time.time()
    pole_mag = abs(mk.s_xi_continued(0.0, 0.5 + 1e-4, 0.2, 1.0))
    report_checks(
        6, "S_xi dual representation (36 points) + pole witness",
        [vf.check_sxi_dual()], t0, 10.0,
        extra_ok=pole_mag >= 1e3, extra=f"|S| at 1e-4 from pole = {pole_mag:.1f}",
    )


def test_criterion_7_scattering_identities():
    t0 = time.time()
    svals = (0.7 + 0.4j, 0.3 - 0.6j, 0.55 + 1.2j, 0.8 + 0.15j, 0.42 - 1.1j)
    kappas = (0.25, 0.5, 1.0, 1.75, 2.5)
    pairs = ((0.5, 1.5), (1.0, 2.0), (2.0, 0.7), (1.3, 1.3), (0.4, 2.6))
    worst_rel = 0.0
    for s in svals:
        for kap in kappas:
            for r, r2 in pairs:
                lhs, rhs = sc.functional_equation_sides(s, kap, r, r2, 1.0)
                worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))
    report_checks(
        7, "scattering inversion + functional equation",
        [vf.check_scattering()], t0, 10.0,
        extra_ok=worst_rel <= 1e-6, extra=f"relative residual {worst_rel:.2e}",
    )


def test_criterion_8_pde_and_symmetries():
    t0 = time.time()
    results = [vf.check_free_kernel_pde(), vf.check_kernel_symmetries()]
    report_checks(8, "free-kernel PDE + cylinder kernel symmetries", results, t0, 10.0)


def test_criterion_9_pole_witness():
    t0 = time.time()
    ell = 1.0
    om = TWO_PI / ell
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    slopes = []

    def slope_of(values):
        return float(np.polyfit(np.log(eps), np.log(values), 1)[0])

    for p in list(rz.cylinder_resonances(ell, TWIST, 4.0))[:10]:
        kap = abs(p.location.imag) / om
        slopes.append(
            slope_of([abs(mk.cyl_mode(p.location + e, kap, 0.7, 1.4, ell)) for e in eps])
        )
    for p in list(rz.funnel_resonances(ell, TWIST, 4.0))[:10]:
        kap = abs(p.location.imag) / om
        slopes.append(
            slope_of([abs(mk.funnel_mode(p.location + e, kap, 0.7, 1.4, ell)) for e in eps])
        )
    for p in rz.cusp_resonances(TwistSpec.trivial(2)):
        slopes.append(
            slope_of([abs(mk.cusp_mode(p.location + e, 0.0, 1.0, 2.0)) for e in eps])
        )
    ok = all(abs(sl + 1.0) <= 0.1 for sl in slopes)
    report(
        9, "pole witness slopes -1 +- 0.1", ok,
        f"{len(slopes)} witnesses, slope range [{min(slopes):.3f}, {max(slopes):.3f}]",
        t0, 20.0,
    )
