"""Command-line front end.

Commands:
  resonances  enumerate a surface spec's model-end resonances to a CSV/JSON census
  count       counting-function table (r, N(r)) with a growth-law fit
  kernel      evaluate a model kernel at one coordinate pair
  modes       tabulate a mode function along an r-grid
  verify      run the cross-oracle verification suite

Exit codes: 0 success, 1 verification failure, 2 malformed spec/arguments
or an unwritable --out, 3 numerical failure (truncation, quadrature, pole
or overflow).
CSV writes each float as "%.17g"; JSON writes Python's shortest repr, which
json.dumps also uses.  Both read back to the same double, and with fixed sort
order identical configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys

import numpy as np

from . import model_kernels as mk
from . import resonances as rz
from . import verify as vf
from .errors import DomainError, NumericalError, ResonanceLabError
from .geometry import CylCoord, _exp

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-]\d*(?:\.\d*)?(?:[eE][+-]?\d+)?)i)?\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse 're', 're+imi' or 're-imi' (decimal, finite) into a complex number."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse complex number {text!r}; expected 're+imi'")
    im_text = m.group("im") or "0"
    if im_text in ("+", "-"):
        im_text += "1"
    value = complex(float(m.group("re")), float(im_text))
    if not cmath.isfinite(value):
        raise DomainError(f"complex number {text!r} is not finite")
    return value


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_spec(path: str) -> rz.SurfaceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read spec {path}: {exc}") from exc
    return rz.SurfaceSpec.from_json_dict(data)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _select_end(spec: rz.SurfaceSpec, end: str, index: int):
    pools = {"cylinder": spec.cylinders, "funnel": spec.funnels, "cusp": spec.cusps}
    pool = pools[end]
    if not (0 <= index < len(pool)):
        raise DomainError(f"spec has {len(pool)} {end} end(s); index {index} invalid")
    if end == "cusp":
        return None, pool[index]
    return pool[index]


#: One JSON listing row as json.dumps(indent=2, sort_keys=True) lays it out:
#: im, mult, re.  Its encoder is pure Python once indent is set.
_JSON_ROW = '    {\n      "im": %s,\n      "mult": %d,\n      "re": %s\n    }'


def _listing_rows(rs: rz.ResonanceSet, conv: str, row: str, order: tuple, sep: str = "") -> str:
    """The rows of a listing, joined by `sep`, with each coordinate as `conv % x`.

    A lattice listing repeats its coordinates (43,008 rows may hold 449
    distinct real parts), so each distinct value is formatted once and
    gathered back by index.  Values are keyed by bit pattern, never by
    float equality, which would merge -0.0 with 0.0.  `order` names the
    columns that `row` takes, in turn: "re", "im" and "mult".
    """
    cols = {"mult": rs.mult.tolist()}
    for name in ("re", "im"):
        keys, inverse = np.unique(getattr(rs, name).view(np.int64), return_inverse=True)
        text = np.array([conv % x for x in keys.view(np.float64).tolist()], dtype=object)
        cols[name] = text[inverse].tolist()
    flat = [None] * (len(order) * len(rs))
    for i, name in enumerate(order):
        flat[i::len(order)] = cols[name]
    return sep.join([row] * len(rs)) % tuple(flat)


def _cmd_resonances(args) -> int:
    spec = _load_spec(args.spec)
    rs = rz.surface_resonances(spec, args.radius)
    if args.output == "csv":
        rows = _listing_rows(rs, "%.17g", "%s,%s,%d\n", ("re", "im", "mult"))
        _emit("re,im,mult\n" + rows, args.out)
    else:
        doc = {
            "spec": spec.to_json_dict(),
            "radius": args.radius,
            "total_multiplicity": rs.total_multiplicity(),
            "resonances": [],
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        if len(rs):
            items = _listing_rows(rs, "%r", _JSON_ROW, ("im", "mult", "re"), ",\n")
            text = text.replace('"resonances": []', f'"resonances": [\n{items}\n  ]', 1)
        _emit(text + "\n", args.out)
    return 0


def _cmd_count(args) -> int:
    spec = _load_spec(args.spec)
    table = rz.census(spec, args.r_max, args.samples)
    fit_rows = [row for row in table if row[0] >= args.fit_min]
    try:
        coeff, spread = rz.growth_fit(fit_rows)
        fit = {"coefficient": coeff, "rel_spread": spread}
    except ResonanceLabError:
        fit = None
    if args.output == "csv":
        lines = ["r,N"]
        lines += [f"{_fmt(r)},{n}" for r, n in table]
        _emit("\n".join(lines) + "\n", args.out)
        if fit:
            sys.stderr.write(
                f"growth_fit coefficient={_fmt(fit['coefficient'])} "
                f"rel_spread={_fmt(fit['rel_spread'])}\n"
            )
    else:
        doc = {
            "spec": spec.to_json_dict(),
            "table": [{"r": r, "N": n} for r, n in table],
            "growth_fit": fit,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_kernel(args) -> int:
    spec = _load_spec(args.spec)
    s = parse_complex(args.s)
    r1, phi1, r2, phi2 = args.coords
    c1, c2 = CylCoord(r1, phi1), CylCoord(r2, phi2)
    ell, t = _select_end(spec, args.end, args.index)
    if not t.angles:
        raise DomainError(f"the twist of {args.end} {args.index} has no eigenvalue classes")
    methods = ("images", "fourier") if args.method == "both" else (args.method,)
    results = {m: mk.kernel(args.end, m, s, ell, t, c1, c2) for m in methods}
    if args.output == "csv":
        lines = ["method,theta,mult,re,im"]
        for method in sorted(results):
            vals = results[method]
            for cls, v in zip(t.angles, vals):
                lines.append(
                    f"{method},{_fmt(cls.theta)},{cls.mult},{_fmt(v.real)},{_fmt(v.imag)}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "end": args.end,
            "s": args.s,
            "classes": [
                {"theta": cls.theta, "mult": cls.mult} for cls in t.angles
            ],
            "values": {
                method: [{"re": v.real, "im": v.imag} for v in vals]
                for method, vals in results.items()
            },
        }
        if len(results) == 2:
            a, b = results["images"], results["fourier"]
            doc["max_rel_diff"] = float(
                np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300))
            )
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_modes(args) -> int:
    spec = _load_spec(args.spec)
    ell, t = _select_end(spec, args.end, args.index)
    s = parse_complex(args.s)
    n = args.n
    if n < 2:
        raise DomainError(f"--n must be at least 2, got {n}")
    rs = [args.r_min + (args.r_max - args.r_min) * i / (n - 1) for i in range(n)]
    if not all(map(math.isfinite, (args.kappa, args.r2, *rs))):
        raise DomainError("--kappa, --r2 and the grid from --r-min to --r-max must be finite")
    if args.end == "cusp":
        values = [mk.cusp_mode(s, args.kappa, _exp(r), _exp(args.r2)) for r in rs]
    else:
        mode = mk.cyl_mode if args.end == "cylinder" else mk.funnel_mode
        values = mode(s, args.kappa, np.array(rs), args.r2, ell).tolist()
    lines = ["r,re,im"]
    lines += [f"{_fmt(r)},{_fmt(v.real)},{_fmt(v.imag)}" for r, v in zip(rs, values)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    results = vf.run_all()
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        sys.stdout.write(f"{status} {r.name}: {r.detail}\n")
    sys.stdout.write("verification " + ("passed" if all_ok else "FAILED") + "\n")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resonance-lab",
        description="Twisted resolvent kernels and resonance lattices on hyperbolic model ends",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--spec", required=True, help="surface spec JSON file")
        sp.add_argument("--output", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("resonances", help="enumerate model-end resonances")
    add_common(sp)
    sp.add_argument("--radius", type=float, required=True)
    sp.set_defaults(func=_cmd_resonances)

    sp = sub.add_parser("count", help="counting-function table and growth fit")
    add_common(sp)
    sp.add_argument("--r-max", type=float, required=True)
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--fit-min", type=float, default=0.0)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("kernel", help="evaluate a model kernel at a point pair")
    add_common(sp)
    sp.add_argument("--end", choices=("cylinder", "funnel", "cusp"), required=True)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--method", choices=("images", "fourier", "both"), default="both")
    sp.add_argument("--s", required=True, help="spectral parameter, 're+imi'")
    sp.add_argument(
        "--coords", type=float, nargs=4, metavar=("R1", "PHI1", "R2", "PHI2"),
        required=True,
    )
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("modes", help="tabulate a mode function along r")
    add_common(sp)
    sp.add_argument("--end", choices=("cylinder", "funnel", "cusp"), required=True)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--s", required=True)
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--r-min", type=float, required=True)
    sp.add_argument("--r-max", type=float, required=True)
    sp.add_argument("--n", type=int, default=64)
    sp.set_defaults(func=_cmd_modes)

    sp = sub.add_parser("verify", help="run the cross-oracle verification suite")
    sp.set_defaults(func=_cmd_verify)

    # argparse reads only plain decimals such as "-1.5" as negative values;
    # "-1.5-2i" and "-6.8e-05" are values too, not option names
    for sp in sub.choices.values():
        sp._negative_number_matcher = _COMPLEX_RE

    return p


#: One parser per process: building it costs about ten times a parse.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except ResonanceLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
