"""Workload inputs, op lists and output checks.

Every input comes from the seed; the program sees only the generated spec
files and command lines.  An op is one `resonance-lab` command line.  The
checks run after the timed region and compare the program's outputs with
the oracles in `oracles.py` or with properties the outputs must have; none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re as regex
from dataclasses import dataclass, field

import numpy as np

import oracles
from tracing import VERIFY_CHECKS

TWO_PI = 2.0 * math.pi

# --- kernels ---------------------------------------------------------------

#: diag(i, -1) and the trivial twist, on ends of length 1.
KERNEL_TWISTS = {"a": [(0.25, 1), (0.5, 1)], "t": [(0.0, 1)]}
KERNEL_ELL = 1.0
ENDS = ("cylinder", "funnel", "cusp")
#: Seeded separated pairs per (end, twist).
N_SEPARATED = 20
#: Re s ranges per end and the |Im s| bound.  The image route's tail
#: tolerance is absolute (CLI default 1e-10), so its relative accuracy falls
#: with |R|; these ranges and `R_RANGE` keep |R| mostly above 1e-4.  The
#: cusp range starts above the TruncationError region.
RE_S = {"cylinder": (0.8, 2.2), "funnel": (0.8, 2.2), "cusp": (2.2, 2.6)}
IM_S = 1.5
#: Near-diagonal radial separations: [0.05, 0.15] cut into equal strata, one
#: cylinder and one funnel pair per stratum and twist.  Their cost goes as
#: about sep^-1.6, so narrow strata keep the slice's total nearly the same
#: for every seed.
NEAR_SEP = (0.05, 0.15)
N_NEAR = 8
#: Cusp image sums in 0.6 < Re s < 1.5: inside the documented image-route
#: domain, but the absolute tail test against a k^(1 - 2 Re s) tail raises
#: TruncationError at the CLI defaults.  Fixed, so every run fails them alike.
CUSP_FAULT_OPS = (
    ("a", "1.2+0.5i", ("0.2", "1.0", "0.9", "2.5")),
    ("t", "0.8-0.4i", ("-0.3", "4.0", "0.6", "0.5")),
)
CUSP_FAULT_MESSAGE = "numerical failure: cusp images not below tail_tol"
ROUTE_REL_TOL = 1e-6
#: The image sums stop on an absolute tail estimate below the CLI's
#: --tail-tol (1e-10) per side, and a funnel kernel is the difference of two
#: such sums; so where a twisted sum cancels to |R| ~ 1e-5, 1e-6 relative is
#: more than the image route promises.
ROUTE_ABS_TOL = 2e-10
G_S_REL_TOL = 1e-10
#: Conjugate symmetry of one image sum: the two sums are truncated apart,
#: each within the CLI's absolute tail tolerance 1e-10 per side.
SYMMETRY_ABS_TOL = 4e-10
SYMMETRY_REL_TOL = 1e-12
N_SYMMETRY_SAMPLES = 6


@dataclass
class Op:
    argv: list[str]
    known_fault: bool = False
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]


def _fmt_s(s: complex) -> str:
    return f"{s.real:.6f}{s.imag:+.6f}i"


def parse_s(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _plane(end: str, r: float, phi: float) -> tuple[float, float]:
    """Half-plane point of geodesic coordinates (cylinder/funnel) or (log y, 2 pi x) (cusp).

    Written apart from resonance_lab.geometry, so that the inputs and the
    g_s oracle do not rest on the program's own coordinate maps.
    """
    if end == "cusp":
        return phi / TWO_PI, math.exp(r)
    omega = TWO_PI / KERNEL_ELL
    er = math.exp(r)
    z = math.exp(phi / omega) * complex(er, 1.0) / complex(er, -1.0)
    return z.real, z.imag


def point_pair_sigma(end: str, c1, c2) -> float:
    """Point-pair invariant of c1 and the image of c2 nearest to it."""
    x1, y1 = _plane(end, *c1)
    if end == "cusp":
        x2, y2 = _plane(end, *c2)
        x2 = x1 + (x2 - x1 + 0.5) % 1.0 - 0.5
    else:
        dphi = (c2[1] - c1[1] + math.pi) % TWO_PI - math.pi
        x2, y2 = _plane(end, c2[0], c1[1] + dphi)
    return ((x1 - x2) ** 2 + (y1 + y2) ** 2) / (4.0 * y1 * y2)


def _kernel_spec(angles) -> dict:
    tw = {"angles": [{"theta": t, "mult": m} for t, m in angles]}
    return {
        "cylinders": [{"ell": KERNEL_ELL, "twist": tw}],
        "funnels": [{"ell": KERNEL_ELL, "twist": tw}],
        "cusps": [{"twist": tw}],
    }


def _round6(x: float) -> float:
    return float(f"{x:.6f}")


#: Radial ranges of separated pairs, and of near-diagonal pairs (near r = 0
#: the radial separation, not the position, sets the cost).
R_RANGE = {"cylinder": (-1.2, 1.2), "funnel": (0.05, 2.2), "cusp": (-0.5, 1.2)}
R_RANGE_NEAR = {"cylinder": (-0.6, 0.6), "funnel": (0.05, 0.9)}
#: Mode sums decay with the separation of y = e^r (cusp) or of the
#: Gudermannian gd(r) = atan(sinh r) (cylinder, funnel): separated pairs are
#: drawn with that separation stratified over these ranges.
SEPARATION = {"cylinder": (0.15, 1.5), "funnel": (0.15, 1.1), "cusp": (0.15, 2.2)}
_TO_U = {"cylinder": lambda r: math.atan(math.sinh(r)), "cusp": math.exp}
_FROM_U = {"cylinder": lambda u: math.asinh(math.tan(u)), "cusp": math.log}
_TO_U["funnel"], _FROM_U["funnel"] = _TO_U["cylinder"], _FROM_U["cylinder"]


def _pair(rng, end: str, sep: float, pos: float, near: bool = False):
    """A seeded pair `sep` apart in u (r itself if near), with sigma > 1.05.

    `pos` in [0, 1) places the pair in its radial range: the cost of an op
    also grows with |r|, so the positions are stratified like `sep`.
    """
    lo, hi = (R_RANGE_NEAR if near else R_RANGE)[end]
    to_u, from_u = (lambda r: r, lambda u: u) if near else (_TO_U[end], _FROM_U[end])
    # only where half a period apart reaches sigma >= 1.06 can some phi draws
    # clear 1.05 (high in the cusp, or near r = 0 when near, no phase does)
    grid = np.linspace(to_u(lo), to_u(hi) - sep, 101)
    ok = [u for u in grid
          if point_pair_sigma(end, (from_u(u), 0.0), (from_u(u + sep), math.pi)) >= 1.06]
    u1 = ok[0] + (ok[-1] - ok[0]) * pos
    u1 = min(ok, key=lambda u: abs(u - u1))
    r1, r2 = from_u(u1), from_u(u1 + sep)
    if rng.uniform() < 0.5:
        r1, r2 = r2, r1
    while True:
        c1 = (_round6(r1), _round6(rng.uniform(0.0, TWO_PI)))
        c2 = (_round6(r2), _round6(rng.uniform(0.0, TWO_PI)))
        if point_pair_sigma(end, c1, c2) > 1.05:
            return c1, c2


def _strata(rng, n: int, step: int, offset: int = 0) -> list[float]:
    """One point in each of n equal strata of [0, 1), in the fixed order i -> step*i + offset mod n.

    Two such lists with different steps pair the strata of two inputs the
    same way for every seed: the seed moves each point only inside its
    stratum, so the cost mix of an op list does not depend on it.
    """
    return [((step * i + offset) % n + rng.uniform()) / n for i in range(n)]


def _fmt_coords(c1, c2) -> list[str]:
    # fixed-point: argparse takes "-6.8e-05" for an option, not a number
    return [f"{v:.6f}" for v in (*c1, *c2)]


def _kernel_op(spec_path, end, s, c1, c2, **meta) -> Op:
    argv = [
        "kernel", "--spec", spec_path, "--end", end, "--method", "both",
        "--s", s, "--coords", *_fmt_coords(c1, c2),
    ]
    return Op(argv, meta=dict(meta, end=end, s=s, c1=c1, c2=c2))


def make_kernels(rng, workdir: str) -> Workload:
    specs = {}
    for key, angles in KERNEL_TWISTS.items():
        specs[key] = os.path.join(workdir, f"kernel_{key}.json")
        with open(specs[key], "w", encoding="utf-8") as fh:
            json.dump(_kernel_spec(angles), fh)
    ops = []
    lerp = lambda lo_hi, f: lo_hi[0] + (lo_hi[1] - lo_hi[0]) * f
    for key in KERNEL_TWISTS:
        for end in ENDS:
            # Re s, the separation and the position set the cost; each is
            # stratified, with the strata paired the same way for every seed
            res = _strata(rng, N_SEPARATED, 1)
            seps = _strata(rng, N_SEPARATED, 7)
            poss = _strata(rng, N_SEPARATED, 13, 5)
            for f_s, f_sep, f_pos in zip(res, seps, poss):
                s = complex(lerp(RE_S[end], f_s), rng.uniform(-IM_S, IM_S))
                c1, c2 = _pair(rng, end, lerp(SEPARATION[end], f_sep), f_pos)
                ops.append(_kernel_op(specs[key], end, _fmt_s(s), c1, c2, twist=key))
        for end in ("cylinder", "funnel"):
            res = _strata(rng, N_NEAR, 3)
            seps = _strata(rng, N_NEAR, 1)
            poss = _strata(rng, N_NEAR, 5, 2)
            for f_s, f_sep, f_pos in zip(res, seps, poss):
                s = complex(lerp(RE_S[end], f_s), rng.uniform(-IM_S, IM_S))
                c1, c2 = _pair(rng, end, lerp(NEAR_SEP, f_sep), f_pos, near=True)
                ops.append(_kernel_op(specs[key], end, _fmt_s(s), c1, c2, twist=key, near=True))
    for key, s, coords in CUSP_FAULT_OPS:
        c = tuple(float(v) for v in coords)
        op = _kernel_op(specs[key], "cusp", s, c[:2], c[2:], twist=key)
        op.known_fault = True
        ops.append(op)
    return Workload("kernels", ops)


def known_failure(op: Op, res) -> bool:
    """A fixed cusp op that failed the way the named fault makes it fail."""
    return op.known_fault and res.rc == 3 and res.err.startswith(CUSP_FAULT_MESSAGE)


def _kernel_values(doc: dict, method: str) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in doc["values"][method]])


def check_kernels(wl: Workload, first_round, call) -> tuple[list[str], float]:
    """Errors found in the outputs, and the worst images/Fourier disagreement."""
    from resonance_lab.free_resolvent import g_s

    errors = []
    worst = 0.0
    sym_done = set()
    for op, res in zip(wl.ops, first_round):
        m = op.meta
        if known_failure(op, res):
            continue
        if res.rc != 0:
            errors.append(f"{op.argv}: exit {res.rc}: {res.err.strip()[:200]}")
            continue
        doc = json.loads(res.out)
        ki, kf = _kernel_values(doc, "images"), _kernel_values(doc, "fourier")
        if len(ki) != len(KERNEL_TWISTS[m["twist"]]) or len(kf) != len(ki):
            errors.append(f"{op.argv}: wrong number of classes")
            continue
        dev = np.abs(ki - kf)
        worst = max(worst, float(np.max(dev / np.abs(ki))))
        if not np.all(dev <= ROUTE_REL_TOL * np.abs(ki) + ROUTE_ABS_TOL):
            errors.append(f"{op.argv}: images vs Fourier differ by {dev.max():.3e}")
        s = parse_s(m["s"])
        x = point_pair_sigma(m["end"], m["c1"], m["c2"])
        got, want = g_s(s, x), oracles.g_s_oracle(s, x)
        if not abs(got - want) <= G_S_REL_TOL * abs(want):
            errors.append(f"g_s({s}, {x}) = {got}, mpmath {want}")
        tag = (m["end"], m["twist"])
        if len(sym_done) < N_SYMMETRY_SAMPLES and tag not in sym_done and not m.get("near"):
            sym_done.add(tag)
            c1, c2 = m["c1"], m["c2"]
            argv = list(op.argv)
            argv[argv.index("--method") + 1] = "images"
            argv[argv.index("--s") + 1] = _fmt_s(s.conjugate())
            i = argv.index("--coords") + 1
            argv[i:i + 4] = _fmt_coords(c2, c1)
            back = call(argv)
            if back.rc != 0:
                errors.append(f"{argv}: exit {back.rc}")
                continue
            kb = _kernel_values(json.loads(back.out), "images")
            dev = np.abs(kb - np.conj(ki))
            if not np.all(dev <= SYMMETRY_ABS_TOL + SYMMETRY_REL_TOL * np.abs(ki)):
                errors.append(f"{op.argv}: R(conj s; w, z) - conj R(s; z, w) = {dev.max():.3e}")
    if len(sym_done) < N_SYMMETRY_SAMPLES:
        errors.append(f"only {len(sym_done)} symmetry samples")
    return errors, worst


# --- resonances ------------------------------------------------------------

#: Lattice points enumerated per spec, before merging; the radius is solved
#: from the lattice density so that the work per op does not depend on the
#: seed.  Successive targets grow by 1.8^(1/4), where 1.8 is the cost of a
#: JSON listing over a CSV one: the JSON listing of target k costs about as
#: much as the CSV listing of target k + 4, so the two middle ops of a round
#: cost about the same and their neighbours only 16 % more or less.
RESONANCE_TARGETS = (20_000, 23_200, 26_800, 31_100, 36_000, 41_700, 48_300)
#: Rational angle classes, fixed so that every seed has the same merge
#: structure: the funnel and the first cylinder share theta = 1/4 and have
#: equal lengths, and theta = 0, 1/2 classes pair up p = +1 and p = -1 points.
FUNNEL_ANGLES = (0.25, 0.5)
CUSP_ANGLES = (0.0, 0.5)
CYLINDER_ANGLES = (0.25, 1.0 / 3.0)


def _classes(entries):
    return {"angles": [
        {"theta": t, "mult": m, **({"log_abs": la} if la else {})} for t, m, la in entries
    ]}


def _irrational(rng) -> float:
    # a 6-digit decimal has denominator 10^6 and would count as rational
    return _round6(rng.uniform(0.0, 0.999)) + 1e-7 * math.sqrt(2.0)


def _resonance_spec(rng) -> dict:
    mult = lambda: int(rng.integers(1, 3))
    ell_f = _round6(rng.uniform(0.8, 2.0))
    funnel = [(t, mult(), 0.0) for t in FUNNEL_ANGLES]
    cusp = [(t, mult(), 0.0) for t in CUSP_ANGLES]
    cyl_rational = [(t, mult(), 0.0) for t in CYLINDER_ANGLES]
    cyl_irrational = [(t, mult(), 0.0) for t in sorted({_irrational(rng), _irrational(rng)})]
    cyl_nonunitary = [
        (CYLINDER_ANGLES[1], 1, _round6(rng.uniform(0.1, 0.6))),
        (_irrational(rng), 1, -_round6(rng.uniform(0.1, 0.6))),
    ]
    cylinders = [
        (ell_f, cyl_rational),
        (_round6(rng.uniform(0.8, 2.5)), cyl_irrational),
        (_round6(rng.uniform(0.8, 2.5)), cyl_nonunitary),
    ]
    return {
        "funnels": [{"ell": ell_f, "twist": _classes(funnel)}],
        "cusps": [{"twist": _classes(cusp)}],
        "cylinders": [{"ell": ell, "twist": _classes(c)} for ell, c in cylinders],
    }


def _ends(spec: dict):
    """(ell, classes, real_base, real_step) per lattice end, plus cusp classes."""
    cls = lambda tw: [(a["theta"], a["mult"], a.get("log_abs", 0.0)) for a in tw["angles"]]
    lattices = [(e["ell"], cls(e["twist"]), 1, 2) for e in spec["funnels"]]
    lattices += [(e["ell"], cls(e["twist"]), 0, 1) for e in spec["cylinders"]]
    return lattices, [cls(e["twist"]) for e in spec["cusps"]]


def make_resonances(rng, workdir: str) -> Workload:
    ops = []
    for i, target in enumerate(RESONANCE_TARGETS):
        spec = _resonance_spec(rng)
        lattices, _ = _ends(spec)
        density = sum(len(c) * ell / (2.0 * step) for ell, c, _, step in lattices)
        radius = _round6(math.sqrt(target / density))
        path = os.path.join(workdir, f"spec_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        for fmt in ("csv", "json"):
            out = os.path.join(workdir, f"res_{i}.{fmt}")
            argv = ["resonances", "--spec", path, "--radius", repr(radius),
                    "--output", fmt, "--out", out]
            ops.append(Op(argv, meta={"spec": spec, "radius": radius, "fmt": fmt, "out": out}))
    return Workload("resonances", ops)


def _read_rows(path: str, fmt: str):
    with open(path, encoding="utf-8") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            if next(reader) != ["re", "im", "mult"]:
                raise ValueError("bad CSV header")
            rows = [(float(a), float(b), int(c)) for a, b, c in reader]
            return rows, None
        doc = json.load(fh)
    rows = [(r["re"], r["im"], r["mult"]) for r in doc["resonances"]]
    return rows, doc


def _lattice_match(ell, classes, real_base, real_step, re, im):
    """Multiplicity each row receives from one end, and the distance to its point."""
    omega = TWO_PI / ell
    mult = np.zeros(len(re), dtype=np.int64)
    dist = np.full(len(re), np.inf)
    for theta, m, log_abs in classes:
        shift = log_abs / ell
        for p in (1, -1):
            k = (-re + p * shift - real_base) / real_step
            j = p * im / omega - theta
            kr, jr = np.round(k), np.round(j)
            lat = (-(real_base + real_step * kr) + p * shift) + 1j * p * omega * (theta + jr)
            d = np.abs(re + 1j * im - lat)
            hit = (kr >= 0) & (d <= 1e-9 * np.maximum(np.abs(lat), 1.0))
            mult[hit] += m
            dist = np.where(hit, np.minimum(dist, d / np.maximum(np.abs(lat), 1e-300)), dist)
    return mult, dist


def check_resonances(wl: Workload, first_round, call) -> tuple[list[str], float]:
    errors = []
    worst = 0.0
    for op, res in zip(wl.ops, first_round):
        m = op.meta
        if res.rc != 0:
            errors.append(f"{op.argv}: exit {res.rc}: {res.err.strip()[:200]}")
            continue
        rows, doc = _read_rows(m["out"], m["fmt"])
        a = np.array(rows, dtype=float).reshape(-1, 3)
        re, im, mult = a[:, 0], a[:, 1], a[:, 2].astype(np.int64)
        radius = m["radius"]
        lattices, cusps = _ends(m["spec"])
        expected = sum(oracles.lattice_interval_count(ell, cls, radius, base, step)
                       for ell, cls, base, step in lattices)
        expected += sum(oracles.cusp_count(c, radius) for c in cusps)
        total = int(mult.sum())
        if total != expected:
            errors.append(f"{op.argv}: total multiplicity {total}, interval count {expected}")
        if doc is not None and (doc["total_multiplicity"] != total or doc["radius"] != radius):
            errors.append(f"{op.argv}: JSON header disagrees with its rows")
        if not np.all((np.diff(re) > 0) | ((np.diff(re) == 0) & (np.diff(im) > 0))):
            errors.append(f"{op.argv}: rows not sorted and distinct")
        if not np.all(np.abs(re + 1j * im) < radius):
            errors.append(f"{op.argv}: row outside |s| < {radius}")
        got = np.zeros(len(rows), dtype=np.int64)
        dist = np.full(len(rows), np.inf)
        for lat in lattices:
            g, d = _lattice_match(*lat, re, im)
            got += g
            dist = np.minimum(dist, d)
        is_cusp = (re == 0.5) & (im == 0.0)
        got[is_cusp] += sum(c for cl in cusps for t, c, _ in cl if t == 0.0)
        dist[is_cusp] = 0.0
        if not np.array_equal(got, mult):
            bad = int(np.argmax(got != mult))
            errors.append(f"{op.argv}: row {rows[bad]} has lattice multiplicity {got[bad]}")
        if len(rows):
            worst = max(worst, float(dist.max()))
    return errors, worst


# --- verify ----------------------------------------------------------------

_SCI = regex.compile(r"\d\.\d+e[-+]\d+")
#: Checks whose detail is a relative disagreement between two routes.
AGREEMENT_CHECKS = (
    "two_representation_cylinder", "two_representation_funnel", "two_representation_cusp",
    "sxi_dual_representation", "twist_phase",
)


def make_verify(rng, workdir: str) -> Workload:
    return Workload("verify", [Op(["verify"])])


def check_verify(wl: Workload, first_round, call) -> tuple[list[str], float]:
    errors = []
    worst = 0.0
    res = first_round[0]
    lines = res.out.splitlines()
    if res.rc != 0 or not lines or lines[-1] != "verification passed":
        return [f"verify exit {res.rc}: {res.out[-300:]}"], worst
    details = {}
    for line in lines[:-1]:
        status, _, rest = line.partition(" ")
        name, _, detail = rest.partition(": ")
        if status != "PASS":
            errors.append(line)
        details[name] = detail
    if tuple(details) != VERIFY_CHECKS:
        errors.append(f"checks {list(details)}")
    n5 = oracles.cylinder_count(TWO_PI, [(0.0, 1, 0.0)], 5.0)
    if f"N(5) = {n5}," not in details.get("counting_and_growth", ""):
        errors.append(f"counting_and_growth reports {details.get('counting_and_growth')}, oracle N(5) = {n5}")
    for name in AGREEMENT_CHECKS:
        nums = [float(v) for v in _SCI.findall(details.get(name, ""))]
        if len(nums) != 1:
            errors.append(f"{name}: no relative error in {details.get(name)!r}")
            continue
        worst = max(worst, nums[0])
    return errors, worst


WORKLOADS = {
    "kernels": (make_kernels, check_kernels),
    "resonances": (make_resonances, check_resonances),
    "verify": (make_verify, check_verify),
}


def agreement_digits(worst: float) -> float:
    """-log10 of the worst relative disagreement, capped at 16."""
    return 16.0 if worst <= 1e-16 else min(16.0, -math.log10(worst))
