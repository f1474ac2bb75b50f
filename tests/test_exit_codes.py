"""Exit-code regression table: every row runs `cli.main` and must return 0, 2 or 3.

A row that raises (a traceback, exit 1) or returns anything else fails.
Rows that return 0 with JSON output must write strict JSON, without NaN or
Infinity.  The table covers malformed specs, extreme spectral parameters,
extreme radii, coincident points and `modes` grids that leave a profile's
domain.  Rows named `escape-*` once exited 1 with a traceback (a
ZeroDivisionError for an infinite ell, an OverflowError in g_s at huge
Re s, an OverflowError or ValueError in log_gamma at a non-finite
argument, an OverflowError on a cusp winding past 2^63) or wrote NaN or
Infinity into the `count` JSON, and rows named `hang-*` did not return
(log_gamma's recurrence summed about -Re s logarithms), and rows named
`slow-*` took 1.4-4 s (a `modes` grid of 100,000 points, evaluated in
full; a lattice walked from Re s = 0 to its centre 3e7 away, or a count
that exited 2 on the census budget of that walk; a near-diagonal Fourier
sum that ran every mode up to the cap, for 6-17 s), and rows named `warn-*`
printed RuntimeWarnings before their message (log_gamma and the cusp zero
mode overflowing at a finite |s| near the largest double, the S_xi tails at
a subnormal angle); they must return the one code given with them, and the
suite's `error::RuntimeWarning` filter fails them on any RuntimeWarning.
Rows named `cancel-*` exited 0 with `--method both` while one route's sum
had cancelled below its rounding: they must exit 3.
Every row returns within a second, and its stderr is under 200 characters.
Rows named `retired-*` pass a retired flag: argparse must refuse them, with
exit 2 after its usage line, and no other row may be refused by argparse.
"""

import json
import math
import time

import pytest

from resonance_lab import cli

_DIAG = {"angles": [{"theta": 0.25, "mult": 1}, {"theta": 0.5, "mult": 1}]}
_TRIVIAL = {"angles": [{"theta": 0.0, "mult": 1}]}
_GOOD = {
    "cylinders": [{"ell": 1.0, "twist": _DIAG}],
    "funnels": [{"ell": 1.0, "twist": _DIAG}],
    "cusps": [{"twist": _TRIVIAL}],
}

_RESONANCES = ["resonances", "--radius", "5"]
_COUNT = ["count", "--r-max", "10"]


def _kernel(end, s="2+0.3i", method="both", coords=("0.2", "1", "0.9", "2")):
    return ["kernel", "--end", end, "--method", method, f"--s={s}", "--coords", *coords]


def _modes(end, s, r2, r_min, r_max):
    return ["modes", "--end", end, f"--s={s}", "--kappa", "1.25", "--r2", r2, "--r-min", r_min, "--r-max", r_max, "--n", "16"]


def _rows():
    rows = []
    # malformed specs: non-finite lengths, moduli and angles, empty classes, wrong types
    for name, ell in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        for end in ("cylinders", "funnels"):
            spec = {"cylinders": [{"ell": 1.0, "twist": _TRIVIAL}], "funnels": [{"ell": 1.0, "twist": _TRIVIAL}]}
            spec[end][0]["ell"] = ell
            escape = "escape-" if name == "inf" else ""
            rows += [
                (f"{escape}ell-{name}-{end}-resonances", spec, _RESONANCES, 2),
                (f"{escape}ell-{name}-{end}-count", spec, _COUNT, 2),
                (f"{escape}ell-{name}-{end}-kernel-cylinder", spec, _kernel("cylinder"), 2),
                (f"{escape}ell-{name}-{end}-kernel-funnel", spec, _kernel("funnel"), 2),
            ]
    for name, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        spec = {"cylinders": [{"ell": 1.0, "twist": {"angles": [{"theta": 0.25, "mult": 1, "log_abs": value}]}}]}
        rows += [
            (f"log_abs-{name}-resonances", spec, _RESONANCES, 2),
            (f"log_abs-{name}-count", spec, _COUNT, 2),
            (f"log_abs-{name}-kernel-images", spec, _kernel("cylinder", method="images"), 2),
            (f"log_abs-{name}-kernel-fourier", spec, _kernel("cylinder", method="fourier"), 2),
        ]
    empty = {
        "cylinders": [{"ell": 1.0, "twist": {"angles": []}}],
        "funnels": [{"ell": 1.0, "twist": {"angles": []}}],
        "cusps": [{"twist": {"angles": []}}],
    }
    rows += [("empty-angles-resonances", empty, _RESONANCES, None), ("escape-empty-angles-count", empty, _COUNT, 0)]
    rows += [(f"empty-angles-kernel-{end}", empty, _kernel(end), None) for end in ("cylinder", "funnel", "cusp")]
    wrong = {
        "ell-string": {"cylinders": [{"ell": "x", "twist": _TRIVIAL}]},
        "ell-null": {"funnels": [{"ell": None, "twist": _TRIVIAL}]},
        "ell-list": {"cylinders": [{"ell": [1.0], "twist": _TRIVIAL}]},
        "angles-number": {"cusps": [{"twist": {"angles": 3}}]},
        "angles-string": {"cusps": [{"twist": {"angles": "ab"}}]},
        "theta-null": {"cusps": [{"twist": {"angles": [{"theta": None, "mult": 1}]}}]},
        "mult-string": {"cusps": [{"twist": {"angles": [{"theta": 0.0, "mult": "x"}]}}]},
        "twist-missing": {"cylinders": [{"ell": 1.0}]},
        "ends-object": {"cylinders": {"ell": 1.0, "twist": _TRIVIAL}},
        "end-number": {"cusps": [1]},
        "spec-list": [_GOOD],
        "spec-null": None,
    }
    for name, spec in wrong.items():
        rows += [(f"{name}-resonances", spec, _RESONANCES, 2), (f"{name}-kernel", spec, _kernel("cusp"), 2)]
    # extreme spectral parameters on every end and method
    for s in ("0", "0.5", "-1", "1e20", "1e300", "-1e20", "-1e300"):
        for end in ("cylinder", "funnel", "cusp"):
            for method in ("images", "fourier", "both"):
                if end != "cusp" and method != "fourier" and s in ("1e20", "1e300"):
                    rows.append((f"escape-s-{s}-{end}-{method}", _GOOD, _kernel(end, s, method), 3))
                elif s.startswith("-1e"):
                    # images need Re s above the abscissa; the Fourier modes take log_gamma(s +- iq)
                    hang = "hang-" if end != "cusp" and method == "fourier" else ""
                    code = 3 if method == "fourier" else 2
                    rows.append((f"{hang}s-{s}-{end}-{method}", _GOOD, _kernel(end, s, method), code))
                elif method != "both":
                    rows.append((f"s-{s}-{end}-{method}", _GOOD, _kernel(end, s, method), None))
    # mode grids: a huge negative Re s, and grids that cross a profile's guard or the funnel's r >= 0
    for end in ("cylinder", "funnel", "cusp"):
        rows.append((f"{'' if end == 'cusp' else 'hang-'}modes-s--1e300-{end}", _GOOD, _modes(end, "-1e300", "1", "0", "2"), 3))
    rows += [
        ("modes-cylinder-profile-guard", _GOOD, _modes("cylinder", "2+0.3i", "4", "3", "5"), 2),
        ("modes-funnel-profile-guard", _GOOD, _modes("funnel", "2+0.3i", "5", "3", "5"), 2),
        ("modes-funnel-negative-r", _GOOD, _modes("funnel", "2+0.3i", "1", "-1", "2"), 2),
        ("modes-n-past-the-cap", _GOOD, _modes("cylinder", "2+0.3i", "1", "0", "2")[:-1] + ["10001"], 2),
    ]
    # grids far past the cap of 10,000 points exit 2 before the grid is built
    for end in ("cylinder", "funnel", "cusp"):
        rows.append((f"slow-modes-n-100000-{end}", _GOOD, _modes(end, "2+0.3i", "1", "0", "2")[:-1] + ["100000"], 2))
    # extreme radii, and coincident points
    for value in ("nan", "-1", "1e-300", "inf"):
        tiny = value == "1e-300"
        rows += [
            (f"radius-{value}", _GOOD, ["resonances", "--radius", value], None),
            (f"{'escape-' if tiny else ''}r-max-{value}", _GOOD, ["count", "--r-max", value], 0 if tiny else None),
            (f"r-max-{value}-csv", _GOOD, ["count", "--r-max", value, "--output", "csv"], None),
        ]
    # a class whose real parts centre on log_abs / ell = 3e7: only the
    # few within the radius are walked, not all from Re s = 0 on
    shifted = {"cylinders": [{"ell": 1e-7, "twist": {"angles": [{"theta": 0.0, "mult": 1, "log_abs": 3.0}]}}]}
    rows += [
        ("slow-shifted-lattice-resonances", shifted, ["resonances", "--radius", "2"], 0),
        ("slow-shifted-lattice-count", shifted, ["count", "--r-max", "2"], 0),
    ]
    # non-finite arguments of log_gamma: 2s on the image routes, s + i kappa in the modes
    for end in ("cylinder", "funnel"):
        rows += [
            (f"escape-log-gamma-inf-{end}-images", _GOOD, _kernel(end, "1e308+1e308i", "images"), 3),
            (f"escape-log-gamma-nan-{end}-modes", _GOOD,
             ["modes", "--end", end, "--s=2+0.3i", "--kappa", "1e308", "--r2", "0.5",
              "--r-min", "0.1", "--r-max", "1", "--n", "5"], 3),
        ]
    # a finite s past log_gamma's |z| budget, and past the cusp zero mode's
    for end in ("cylinder", "funnel", "cusp"):
        rows.append((f"warn-s-1e308+1e308i-{end}-fourier", _GOOD,
                     _kernel(end, "1e308+1e308i", "fourier", ("0.1", "1", "0.7", "2")), 3))
    # an angle that winds more than 2^62 times, on every end and method
    for end in ("cylinder", "funnel", "cusp"):
        for method in ("images", "fourier", "both"):
            escape = "escape-" if end == "cusp" and method != "fourier" else ""
            rows.append((f"{escape}winding-6e19-{end}-{method}", _GOOD,
                         _kernel(end, method=method, coords=("0.1", "6e19", "0.2", "1")), 2))
    # windings just below 2^62 either way: their difference still fits 64 bits
    rows.append(("winding-difference-cusp-images", _GOOD,
                 _kernel("cusp", method="images", coords=("0.1", "2.89e19", "0.2", "-2.89e19")), 0))
    # windings 1,114, -1,115 and about 2.2e18: the image routes take the twist phase as the Fourier routes do
    for end in ("cylinder", "funnel"):
        for phi in ("7000", "-7000", "1.4e19"):
            for method in ("images", "both"):
                rows.append((f"winding-{phi}-{end}-{method}", _GOOD, _kernel(end, method=method, coords=("0.2", phi, "0.9", "2")), 0))
    # a non-unitary cylinder twist: |lambda|^w = e^(0.37 w) past a double
    grows = {"cylinders": [{"ell": 1.0, "twist": {"angles": [{"theta": 0.25, "mult": 1, "log_abs": 0.37}]}}]}
    rows.append(("winding-1.4e19-non-unitary-images", grows, _kernel("cylinder", method="images", coords=("0.2", "1.4e19", "0.9", "2")), 3))
    # near-diagonal Fourier sums: about 12,000 modes, more than the cap of 3,000
    rows += [
        ("slow-fourier-near-diagonal-cylinder", _GOOD, _kernel("cylinder", method="fourier", coords=("0.3", "1", "0.3005", "2")), 3),
        ("slow-fourier-near-diagonal-funnel", _GOOD, _kernel("funnel", method="fourier", coords=("0.5", "1", "0.5005", "2")), 3),
        # outside a profile's domain the pair is malformed first
        ("fourier-near-diagonal-past-profile-guard", _GOOD, _kernel("cylinder", method="fourier", coords=("-5", "1", "-5.0001", "2")), 2),
    ]
    # a subnormal angle: the images take it as theta = 0, and its first mode overflows I_nu
    subnormal = {"cusps": [{"twist": {"angles": [{"theta": 5e-324, "mult": 1}]}}]}
    for method, code in (("fourier", 3), ("images", 0), ("both", 3)):
        rows.append((f"warn-subnormal-angle-{method}", subnormal, _kernel("cusp", method=method), code))
    # routes that cancel past the rounding floor: K_nu at large |Im s| in the
    # cusp Fourier route, and the modes at large Re s on the 2 pi cylinder;
    # each exited 0 with the two routes 3e-8 to 2e42 apart
    diag_cusp = {"cusps": [{"twist": _DIAG}]}
    for s in ("1.5-15i", "1.5-25i", "1+30i"):
        rows.append((f"cancel-s-{s}-cusp-both", diag_cusp, _kernel("cusp", s), 3))
    two_pi = {"cylinders": [{"ell": 2.0 * math.pi, "twist": _TRIVIAL}]}
    rows.append(("cancel-s-200+1i-cylinder-both", two_pi, _kernel("cylinder", "200+1i"), 3))
    rows.append(("count-zero-samples", _GOOD, ["count", "--r-max", "10", "--samples", "0"], 2))
    rows.append(("retired-count-fit-min", _GOOD, ["count", "--r-max", "10", "--fit-min", "100"], 2))
    no_points = {"cusps": [{"twist": {"angles": [{"theta": 0.5, "mult": 1}]}}]}
    rows.append(("escape-count-without-resonances", no_points, ["count", "--r-max", "40"], 0))
    for end in ("cylinder", "funnel", "cusp"):
        for method in ("images", "fourier"):
            coords = ("0.7", "1", "0.7", "1")
            rows.append((f"coincident-{end}-{method}", _GOOD, _kernel(end, method=method, coords=coords), None))
    return rows


_ROWS = _rows()


def _strict(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("name,spec,argv,expect", _ROWS, ids=[row[0] for row in _ROWS])
def test_exit_code(name, spec, argv, expect, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    refused = False
    try:
        rc = cli.main([argv[0], "--spec", str(path), *argv[1:]])
    except SystemExit as exc:
        rc, refused = exc.code, True
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert len(err) < 200, err
    assert rc in (0, 2, 3) if expect is None else rc == expect, err
    assert refused == name.startswith("retired-"), err
    assert "Traceback" not in err
    if rc == 0 and "csv" not in argv:
        json.loads(out, parse_constant=_strict)
    else:
        assert rc == 0 or err.startswith("usage: " if refused else ("error: ", "numerical failure: "))
