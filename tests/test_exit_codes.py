"""Exit-code regression table: every row runs `cli.main` and must return 0, 2 or 3.

A row that raises (a traceback, exit 1) or returns anything else fails.
Rows that return 0 with JSON output must write strict JSON, without NaN or
Infinity.  The table covers malformed specs, extreme spectral parameters,
extreme radii, coincident points and `modes` grids that leave a profile's
domain.  Rows named `escape-*` once exited 1 with a traceback (a
ZeroDivisionError for an infinite ell, an OverflowError in g_s at huge
Re s) or wrote NaN or Infinity into the `count` JSON, and rows named
`hang-*` did not return (log_gamma's recurrence summed about -Re s
logarithms); they must return the one code given with them.  Every row
but the two in _SLOW returns within a second.
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
            (f"log_abs-{name}-resonances", spec, _RESONANCES, None),
            (f"log_abs-{name}-count", spec, _COUNT, None),
            (f"log_abs-{name}-kernel-images", spec, _kernel("cylinder", method="images"), None),
            (f"log_abs-{name}-kernel-fourier", spec, _kernel("cylinder", method="fourier"), None),
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
    ]
    # extreme radii, and coincident points
    for value in ("nan", "-1", "1e-300", "inf"):
        tiny = value == "1e-300"
        rows += [
            (f"radius-{value}", _GOOD, ["resonances", "--radius", value], None),
            (f"{'escape-' if tiny else ''}r-max-{value}", _GOOD, ["count", "--r-max", value], 0 if tiny else None),
            (f"r-max-{value}-csv", _GOOD, ["count", "--r-max", value, "--output", "csv"], None),
        ]
    no_points = {"cusps": [{"twist": {"angles": [{"theta": 0.5, "mult": 1}]}}]}
    rows.append(("escape-count-without-resonances", no_points, ["count", "--r-max", "40"], 0))
    for end in ("cylinder", "funnel", "cusp"):
        for method in ("images", "fourier"):
            coords = ("0.7", "1", "0.7", "1")
            rows.append((f"coincident-{end}-{method}", _GOOD, _kernel(end, method=method, coords=coords), None))
    return rows


_ROWS = _rows()

#: Rows that sum the 2F1 series to its 100,000-term cap before they exit 3.
_SLOW = {"s-1e20-cylinder-fourier", "s-1e20-funnel-fourier"}


def _strict(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("name,spec,argv,expect", _ROWS, ids=[row[0] for row in _ROWS])
def test_exit_code(name, spec, argv, expect, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    rc = cli.main([argv[0], "--spec", str(path), *argv[1:]])
    assert name in _SLOW or time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert rc in (0, 2, 3) if expect is None else rc == expect, err
    assert "Traceback" not in err
    if rc == 0 and "csv" not in argv:
        json.loads(out, parse_constant=_strict)
    else:
        assert rc == 0 or err.startswith(("error: ", "numerical failure: "))
