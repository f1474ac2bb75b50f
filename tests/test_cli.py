"""CLI behavior: parsing, artifacts, determinism, exit codes."""

import json
import math
import time
import warnings

import pytest

from resonance_lab import cli, errors
from resonance_lab.errors import DomainError


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "cylinders": [
            {"ell": 2.0 * math.pi, "twist": {"angles": [{"theta": 0.0, "mult": 1}]}}
        ],
        "funnels": [
            {
                "ell": 1.0,
                "twist": {
                    "angles": [{"theta": 0.25, "mult": 1}, {"theta": 0.5, "mult": 1}]
                },
            }
        ],
        "cusps": [{"twist": {"angles": [{"theta": 0.0, "mult": 2}]}}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2", 2 + 0j),
            ("2+0.3i", 2 + 0.3j),
            ("-1.5-2i", -1.5 - 2j),
            ("0.5+1e-3i", 0.5 + 0.001j),
            ("3-i", 3 - 1j),
        ],
    )
    def test_valid(self, text, value):
        assert cli.parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "i3", "2+3j", "abc"])
    def test_invalid(self, text):
        with pytest.raises(DomainError):
            cli.parse_complex(text)


class TestResonancesCommand:
    def test_csv_census(self, spec_file, capsys):
        rc = cli.main(
            ["resonances", "--spec", spec_file, "--radius", "5", "--output", "csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "re,im,mult"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        # 78 cylinder + 2 cusp + funnel lattice inside radius 5
        assert total > 80

    def test_deterministic(self, spec_file, capsys):
        cli.main(["resonances", "--spec", spec_file, "--radius", "5"])
        first = capsys.readouterr().out
        cli.main(["resonances", "--spec", spec_file, "--radius", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_spec_round_trip(self, spec_file, capsys):
        from resonance_lab.resonances import SurfaceSpec

        rc = cli.main(["resonances", "--spec", spec_file, "--radius", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        echoed = SurfaceSpec.from_json_dict(doc["spec"])
        original = SurfaceSpec.from_json_dict(json.loads(open(spec_file).read()))
        assert echoed == original

    def test_census_budget_exit_2(self, spec_file, capsys):
        # about 1e12 real parts to walk: refused before counting
        t0 = time.perf_counter()
        rc = cli.main(["count", "--spec", spec_file, "--r-max", "1e12"])
        assert time.perf_counter() - t0 < 0.1
        assert rc == 2
        assert "census would walk" in capsys.readouterr().err

    def test_infinite_radius_exit_2(self, spec_file, capsys):
        assert cli.main(["resonances", "--spec", spec_file, "--radius", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resonances", "count"])
    @pytest.mark.parametrize("radius,reason", [("inf", "finite"), ("0", "positive"), ("-1", "positive")])
    def test_cusp_only_bad_radius_exit_2(self, tmp_path, capsys, command, radius, reason):
        # a cusp-only spec has no lattice to check the radius on the way
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps({"cusps": [{"twist": {"angles": [{"theta": 0.0, "mult": 2}]}}]}))
        flag = "--radius" if command == "resonances" else "--r-max"
        out = tmp_path / "out.json"
        assert cli.main([command, "--spec", str(path), flag, radius, "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["resonances", "--spec", str(bad), "--radius", "2"]) == 2

    def test_untwisted_cylinder_census_total(self, tmp_path, capsys):
        spec = {"cylinders": [{"ell": 2.0 * math.pi, "twist": {"angles": [{"theta": 0.0, "mult": 1}]}}]}
        path = tmp_path / "cyl.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["resonances", "--spec", str(path), "--radius", "5", "--output", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert sum(int(line.split(",")[2]) for line in lines) == 78

    def test_example_twist_census_lattice(self, tmp_path, capsys):
        spec = {
            "cylinders": [
                {
                    "ell": 1.0,
                    "twist": {
                        "angles": [{"theta": 0.25, "mult": 1}, {"theta": 0.5, "mult": 1}]
                    },
                }
            ]
        }
        path = tmp_path / "tw.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["resonances", "--spec", str(path), "--radius", "4", "--output", "csv"])
        assert rc == 0
        step = math.pi / 2.0
        for line in capsys.readouterr().out.strip().split("\n")[1:]:
            re_s, im_s, mult = line.split(",")
            q = float(im_s) / step
            assert abs(q - round(q)) < 1e-9 and round(q) % 4 != 0
            assert int(mult) == (1 if round(q) % 2 else 2)


class TestCountCommand:
    def test_table_and_fit(self, spec_file, capsys):
        rc = cli.main(
            [
                "count", "--spec", spec_file, "--r-max", "40", "--samples", "6",
                "--fit-min", "5",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["table"]) == 6
        assert doc["growth_fit"]["coefficient"] > 0


    def test_census_budget_exit_2(self, spec_file, capsys):
        # about 1e12 real parts to walk: refused before counting
        t0 = time.perf_counter()
        rc = cli.main(["count", "--spec", spec_file, "--r-max", "1e12"])
        assert time.perf_counter() - t0 < 0.1
        assert rc == 2
        assert "census would walk" in capsys.readouterr().err

    def test_infinite_radius_exit_2(self, spec_file, capsys):
        rc = cli.main(["count", "--spec", spec_file, "--r-max", "inf", "--samples", "4"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("case", ["no-resonance", "r-max-1e-300"])
    def test_fit_without_finite_coefficient(self, case, output, spec_file, tmp_path, capsys):
        # no point inside r_max (c = 0), or r^2 underflowing to 0: no fit,
        # printed as null in JSON and left out of the CSV's stderr
        if case == "no-resonance":
            spec_file = tmp_path / "cusp.json"
            spec_file.write_text(json.dumps({"cusps": [{"twist": {"angles": [{"theta": 0.5, "mult": 1}]}}]}))
        r_max = "40" if case == "no-resonance" else "1e-300"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["count", "--spec", str(spec_file), "--r-max", r_max, "--output", output])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        if output == "json":
            doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in JSON"))
            assert doc["growth_fit"] is None and len(doc["table"]) == 8
        else:
            assert out.startswith("r,N\n") and len(out.splitlines()) == 9


def _mp_cylinder_images(s, r1, phi1, r2, phi2, ell=2.0 * math.pi, reach=3):
    """The trivially twisted cylinder kernel as a sum of mpmath g_s over images
    |k| <= reach: at Re s = 200 the next image adds less than 1e-300 of it."""
    import mpmath as mp

    from resonance_lab.geometry import CylCoord, HPoint, cyl_to_plane, sigma

    z, w = cyl_to_plane(CylCoord(r1, phi1), ell), cyl_to_plane(CylCoord(r2, phi2), ell)
    with mp.workdps(30):
        s = mp.mpc(s)
        total = mp.mpc(0)
        for k in range(-reach, reach + 1):
            x = mp.mpf(sigma(z, HPoint.from_complex(math.exp(k * ell) * w.z)))
            total += mp.exp(
                2 * mp.loggamma(s) - mp.loggamma(2 * s) - s * mp.log(x)
            ) * mp.hyp2f1(s, s, 2 * s, 1 / x) / (4 * mp.pi)
        return complex(total)


class TestKernelCommand:
    def test_both_methods_agree(self, spec_file, capsys):
        rc = cli.main(
            [
                "kernel", "--spec", spec_file, "--end", "funnel", "--method", "both",
                "--s", "2+0.3i", "--coords", "0.7", "1.0", "1.3", "2.0",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_rel_diff"] < 1e-6

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # ell = 1e-4 at s = 0.2 needs millions of images: exit 3 at once
        path = tmp_path / "cyl.json"
        path.write_text(json.dumps({"cylinders": [{"ell": 1e-4, "twist": {"angles": [{"theta": 0.0, "mult": 1}]}}]}))
        argv = [
            "kernel", "--spec", str(path), "--end", "cylinder", "--method", "images",
            "--s", "0.2", "--coords", "0.1", "1.0", "0.5", "2.0",
        ]
        t0 = time.perf_counter()
        rc = cli.main(argv)
        assert time.perf_counter() - t0 < 0.1
        assert rc == 3
        assert "more than 10000" in capsys.readouterr().err

    def test_bessel_sine_overflow_exit_3(self, tmp_path, capsys):
        # sin(pi nu) in the reflection formula for K_nu overflows at Im s = 300
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps({"cusps": [{"twist": {"angles": [{"theta": 0.25, "mult": 1}]}}]}))
        argv = [
            "kernel", "--spec", str(path), "--end", "cusp", "--method", "fourier",
            "--s", "2+300i", "--coords", "-1", "1", "-0.9", "2",
        ]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize(
        "flag,value", [("--tail-tol", "1e-12"), ("--max-images", "100"), ("--k-max", "40")]
    )
    def test_retired_truncation_flags_exit_2(self, spec_file, flag, value):
        argv = [
            "kernel", "--spec", spec_file, "--end", "cylinder", "--s", "2+0.3i",
            "--coords", "0.2", "1.0", "1.0", "2.0", flag, value,
        ]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_pole_start_beyond_factorial_range_exits_0_or_3(self, spec_file):
        # c = s + 1/2 = -171 starts the profile's 2F1 at n0 = 172, where
        # z^n0 / n0! took a factorial beyond the double range (exit 1)
        argv = [
            "kernel", "--spec", spec_file, "--end", "cylinder", "--method", "fourier",
            "--s", "-171.5", "--coords", "0.3", "1", "0.9", "2",
        ]
        assert cli.main(argv) in (0, 3)

    @pytest.mark.parametrize("method", ["images", "fourier", "both"])
    def test_twist_without_classes_exit_2(self, tmp_path, capsys, method):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"cylinders": [{"ell": 1.0, "twist": {"angles": []}}]}))
        rc = cli.main(
            [
                "kernel", "--spec", str(path), "--end", "cylinder", "--method", method,
                "--s", "2+0.3i", "--coords", "0.2", "1.0", "1.0", "2.0",
            ]
        )
        assert rc == 2
        assert "no eigenvalue classes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "angles,s,coords",
        [
            ([(0.25, 1), (0.5, 1)], "1.2+0.5i", ["0.2", "1.0", "0.9", "2.5"]),
            ([(0.0, 1)], "0.8-0.4i", ["-0.3", "4.0", "0.6", "0.5"]),
        ],
    )
    def test_cusp_ops_below_re_s_1_5(self, tmp_path, capsys, angles, s, coords):
        # at the CLI defaults these stopped with TruncationError before the
        # cusp images were split into near images and lattice tails
        path = tmp_path / "cusp.json"
        tw = {"angles": [{"theta": th, "mult": m} for th, m in angles]}
        path.write_text(json.dumps({"cusps": [{"twist": tw}]}))
        argv = ["kernel", "--spec", str(path), "--end", "cusp", "--s", s, "--coords", *coords]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["max_rel_diff"] <= 1e-10
        images = argv + ["--method", "images"]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            assert cli.main(images) == 0
            best = min(best, time.perf_counter() - t0)
        assert best < 0.05

    @pytest.mark.parametrize("s", ["200+1i", "1e5+1i"])
    def test_large_re_s_exits_0_or_3(self, spec_file, tmp_path, capsys, s):
        # Gamma(s)^2 overflows a double from Re s ~ 171 on; g_s forms it in
        # one exponent with the 2F1, so only a value that overflows fails
        argv = [
            "kernel", "--spec", spec_file, "--end", "cylinder", "--method", "images",
            "--s", s, "--coords", "0.2", "1", "0.9", "2", "--output", "csv",
        ]
        rc = cli.main(argv)
        out = capsys.readouterr().out
        assert rc in (0, 3)
        if s == "200+1i":
            assert rc == 0
            got = complex(*map(float, out.strip().split("\n")[1].split(",")[3:]))
            assert abs(got - _mp_cylinder_images(200 + 1j, 0.2, 1.0, 0.9, 2.0)) <= 1e-11 * abs(got)
        # the cusp Fourier route: I_nu and the zero mode carry their scale in
        # one exponent, so only a K_nu or a value that overflows fails; at
        # 200+1i the theta = 0 class is about 1e-63 and agrees with the images
        for angles in ([(0.0, 2)], [(0.25, 1), (0.5, 1)]):
            path = tmp_path / "cusp.json"
            tw = {"angles": [{"theta": th, "mult": m} for th, m in angles]}
            path.write_text(json.dumps({"cusps": [{"twist": tw}]}))
            values = {}
            for method in ("fourier", "images"):
                argv = [
                    "kernel", "--spec", str(path), "--end", "cusp", "--method", method,
                    "--s", s, "--coords", "0.2", "1", "0.9", "2", "--output", "csv",
                ]
                rc = cli.main(argv)
                out = capsys.readouterr().out
                assert rc in (0, 3)
                if rc == 0:
                    values[method] = [complex(*map(float, row.split(",")[3:])) for row in out.split()[1:]]
            if s == "200+1i" and angles == [(0.0, 2)]:
                (f,), (i,) = values["fourier"], values["images"]
                assert abs(f - i) <= 1e-10 * abs(i)

    @pytest.mark.parametrize("end", ["cylinder", "funnel", "cusp"])
    def test_winding_twist_phase(self, tmp_path, capsys, end):
        # phi1 = 1 +- 2 pi winds once around the end: both routes must apply
        # the twist phase lambda^(+-1) of that winding to the phi1 = 1 values
        tw = {"angles": [{"theta": 0.25, "mult": 1}, {"theta": 0.5, "mult": 1}]}
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"cylinders": [{"ell": 1.0, "twist": tw}],
                                    "funnels": [{"ell": 1.0, "twist": tw}],
                                    "cusps": [{"twist": tw}]}))

        def kernel(phi1: float) -> dict:
            argv = [
                "kernel", "--spec", str(path), "--end", end, "--s", "2+0.3i",
                "--coords", "0.3", repr(phi1), "0.9", "2.5",
            ]
            assert cli.main(argv) == 0
            return json.loads(capsys.readouterr().out)

        base = kernel(1.0)
        for winding in (1, -1):
            doc = kernel(1.0 + winding * 2.0 * math.pi)
            assert doc["max_rel_diff"] <= 1e-12
            for method in ("images", "fourier"):
                pairs = zip((0.25, 0.5), doc["values"][method], base["values"][method])
                for theta, got, want in pairs:
                    angle = 2.0 * math.pi * theta * winding
                    got, want = complex(got["re"], got["im"]), complex(want["re"], want["im"])
                    assert abs(got - complex(math.cos(angle), math.sin(angle)) * want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("end", ["cylinder", "funnel", "cusp"])
    def test_coinciding_points_exit_2(self, spec_file, capsys, end):
        rc = cli.main(
            [
                "kernel", "--spec", spec_file, "--end", end, "--method", "fourier",
                "--s", "1.5+0.5i", "--coords", "0.7", "1.0", "0.7", "1.0",
            ]
        )
        assert rc == 2
        assert "distinct points" in capsys.readouterr().err

    def test_csv_output(self, spec_file, capsys):
        rc = cli.main(
            [
                "kernel", "--spec", spec_file, "--end", "cylinder", "--method",
                "fourier", "--s", "2+0.3i", "--coords", "0.2", "1.0", "1.0", "2.0",
                "--output", "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "method,theta,mult,re,im"
        assert len(lines) == 2  # one trivial class


class TestVerifyCommand:
    def test_passes_and_exits_zero(self, capsys):
        rc = cli.main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification passed" in out
        assert out.count("PASS") >= 10 and "FAIL" not in out

    def test_retired_serial_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--serial"])
        assert exc.value.code == 2


class TestModesCommand:
    def test_grid(self, spec_file, capsys):
        rc = cli.main(
            [
                "modes", "--spec", spec_file, "--end", "funnel", "--s", "2+0.3i",
                "--kappa", "1.25", "--r2", "1.0", "--r-min", "0", "--r-max", "3",
                "--n", "7", "--output", "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,re,im"
        assert len(lines) == 8
        # Dirichlet zero at r = 0
        assert lines[1].split(",")[1:] == ["0", "0"]

    def test_out_file(self, spec_file, tmp_path):
        target = tmp_path / "modes.csv"
        rc = cli.main(
            [
                "modes", "--spec", spec_file, "--end", "cylinder", "--s", "2",
                "--kappa", "0.5", "--r2", "1.5", "--r-min", "-1", "--r-max", "1",
                "--n", "5", "--output", "csv", "--out", str(target),
            ]
        )
        assert rc == 0
        assert target.read_text().startswith("r,re,im")

    @pytest.mark.parametrize("end,r_min,r_max", [("cylinder", "-2", "2"), ("funnel", "0", "3")])
    def test_grid_in_one_call_per_profile(self, spec_file, capsys, monkeypatch, end, r_min, r_max):
        # the 64-point grid is one 2F1 engine call per profile, and each value
        # is within 1e-14 of the per-mode reference's at its r
        import fourier_reference as fref
        from resonance_lab import specfun

        ell = 2.0 * math.pi if end == "cylinder" else 1.0  # as in spec_file

        calls = []
        engine = specfun._hyp2f1_rows
        monkeypatch.setattr(specfun, "_hyp2f1_rows", lambda *a: calls.append(a) or engine(*a))
        rc = cli.main(
            [
                "modes", "--spec", spec_file, "--end", end, "--s", "2+0.3i", "--kappa", "1.25",
                "--r2", "1", "--r-min", r_min, "--r-max", r_max, "--n", "64",
            ]
        )
        assert rc == 0
        assert len(calls) == 2
        rows = [[float(x) for x in line.split(",")] for line in capsys.readouterr().out.split()[1:]]
        assert len(rows) == 64
        reference = getattr(fref, f"{'cyl' if end == 'cylinder' else end}_mode")
        for r, re, im in rows:
            want = reference(2.0 + 0.3j, 1.25, r, 1.0, ell)
            assert abs(complex(re, im) - want) <= 1e-14 * abs(want), r

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_too_few_points_exit_2(self, spec_file, capsys, n):
        rc = cli.main(
            [
                "modes", "--spec", spec_file, "--end", "cylinder", "--s", "2",
                "--kappa", "0.5", "--r2", "1.5", "--r-min", "-1", "--r-max", "1",
                "--n", n,
            ]
        )
        assert rc == 2
        assert "--n" in capsys.readouterr().err


class TestNegativeValues:
    """Values that start with '-' parse as values, not as option names."""

    def _out(self, argv, capsys):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def test_negative_complex_s(self, spec_file, capsys):
        base = [
            "modes", "--spec", spec_file, "--end", "cylinder", "--kappa", "0.5",
            "--r2", "1.5", "--r-min", "-1", "--r-max", "1", "--n", "5",
        ]
        spaced = self._out(base + ["--s", "-1.5-2i"], capsys)
        joined = self._out(base + ["--s=-1.5-2i"], capsys)
        assert spaced == joined
        assert spaced.startswith("r,re,im")

    def test_exponent_coordinate(self, spec_file, capsys):
        base = [
            "kernel", "--spec", spec_file, "--end", "cylinder", "--method",
            "fourier", "--s", "2+0.3i", "--output", "csv", "--coords",
        ]
        exponent = self._out(base + ["0.2", "1.0", "-6.8e-05", "2.5"], capsys)
        fixed = self._out(base + ["0.2", "1.0", "-0.000068", "2.5"], capsys)
        assert exponent == fixed


_MODES = ["modes", "--s", "2+0.3i", "--kappa", "1.25", "--r2", "1", "--r-min", "-1", "--r-max", "1", "--n", "2"]

_EXIT_2_ARGV = (
    [["kernel", "--end", end, "--s", "2+0.3i", "--coords", *coords]
     for end in ("cylinder", "funnel", "cusp")
     for coords in (["1e300", "1", "1", "2"], ["0.2", "inf", "1", "2"], ["0.2", "nan", "1", "2"])]
    + [_MODES + ["--end", "cusp", "--r2", "1e300"]]
    + [_MODES + ["--end", end, flag, value]
       for end in ("cylinder", "cusp")
       for flag, value in (("--kappa", "nan"), ("--r2", "nan"), ("--r-min", "nan"), ("--r-max", "inf"))]
    + [_MODES + ["--end", "funnel", "--r-min", "-1e308", "--r-max", "1e308"]]
    + [["resonances", "--radius", "1e4"], ["resonances", "--radius", "1e16"]]
)

#: A spectral parameter that is not finite (1e400 overflows to infinity).
_NONFINITE_S_ARGV = [
    ["kernel", "--end", "cylinder", "--method", method, "--s", s, "--coords", "0.2", "1", "0.9", "2"]
    for s in ("1e400", "inf+1i", "1+nani")
    for method in ("images", "fourier")
]


@pytest.mark.parametrize(
    "spec,argv",
    [(None, argv) for argv in _EXIT_2_ARGV]
    + [(doc, argv) for doc in ([1, 2], "x") for argv in (
        ["kernel", "--end", "cusp", "--s", "2+0.3i", "--coords", "0.2", "1", "1", "2"],
        ["count", "--r-max", "5"],
    )]
    + [(None, argv) for argv in _NONFINITE_S_ARGV],
)
def test_malformed_input_exits_2(spec, argv, spec_file, tmp_path, capsys, monkeypatch):
    # non-finite or overflowing coordinates and mode grids, a spec that is not
    # a JSON object, and listings over the cap fail before any evaluation
    def no_listing(*args, **kwargs):
        raise AssertionError("the listing was enumerated")

    monkeypatch.setattr("resonance_lab.resonances._lattice_points", no_listing)
    if spec is not None:
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(spec))
    assert cli.main([argv[0], "--spec", str(spec_file), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_OUT_ARGV = {
    "resonances": ["resonances", "--radius", "5"],
    "count": ["count", "--r-max", "5"],
    "kernel": ["kernel", "--end", "cylinder", "--s", "2+0.3i", "--coords", "0.2", "1", "0.9", "2"],
    "modes": _MODES + ["--end", "cylinder"],
}


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", list(_OUT_ARGV))
def test_unwritable_out_exits_2(command, target, spec_file, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.csv" if target == "missing-dir" else tmp_path
    argv = _OUT_ARGV[command]
    assert cli.main([argv[0], "--spec", spec_file, *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


_EXIT_CODES = {
    errors.ResonanceLabError: 2,
    errors.DiagonalError: 2,
    errors.DomainError: 2,
    errors.NonUnitaryError: 2,
    errors.InsufficientDataError: 2,
    errors.NumericalError: 3,
    errors.PoleError: 3,
    errors.NonConvergenceError: 3,
    errors.TruncationError: 3,
    errors.QuadratureError: 3,
    errors.OverflowBudgetError: 3,
    errors.RadiusExceededError: 3,
}


@pytest.mark.parametrize(
    "error,code", list(_EXIT_CODES.items()), ids=lambda v: getattr(v, "__name__", str(v))
)
def test_error_class_exit_code(monkeypatch, capsys, error, code):
    def fail():
        raise error("boom")

    monkeypatch.setattr(cli.vf, "run_all", fail)
    assert cli.main(["verify"]) == code
    assert capsys.readouterr().err == ("numerical failure: " if code == 3 else "error: ") + "boom\n"
