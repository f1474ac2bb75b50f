"""The benchmark's tracer wraps the package's functions from outside.

Its binners call abs() on the 2F1 argument z and on g_s's sigma, so both
must stay scalars at the traced entries.  The mode functions send an
array of r, as `modes` and `verify` pass it, to the 2F1 engine past the
traced entry, and the image routes an array of sigma to the g_s engine;
a traced run of each command kind must still complete.
"""

import json
import pathlib
import sys

from resonance_lab import cli, free_resolvent, model_kernels as mk, specfun

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

SPEC = {
    "cylinders": [{"ell": 1.0, "twist": {"angles": [{"theta": 0.0, "mult": 1}]}}],
    "funnels": [{"ell": 1.0, "twist": {"angles": [{"theta": 0.25, "mult": 1}, {"theta": 0.5, "mult": 1}]}}],
    "cusps": [{"twist": {"angles": [{"theta": 0.5, "mult": 1}]}}],
}


def test_traced_commands_complete(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    argvs = [
        ["kernel", "--spec", str(spec), "--end", end, "--method", "both", "--s", "1.7+0.4i",
         "--coords", "0.3", "1.0", "0.9", "2.5"]
        for end in ("cylinder", "funnel", "cusp")
    ] + [
        ["modes", "--spec", str(spec), "--end", "funnel", "--s", "2+0.3i", "--kappa", "1.25",
         "--r2", "1", "--r-min", "0", "--r-max", "2", "--n", "5"],
    ]
    originals = (mk.cyl_mode, mk.funnel_mode, specfun.reg_hyp2f1_scaled, free_resolvent.g_s)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in argvs]
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    assert (mk.cyl_mode, mk.funnel_mode, specfun.reg_hyp2f1_scaled, free_resolvent.g_s) == originals
    calls = snap["calls"]
    for name in ("cyl_mode", "funnel_mode", "cusp_mode") + tracing.IMAGE_ROUTES + tracing.FOURIER_ROUTES:
        assert calls["model_kernels." + name] > 0, name
    assert sum(v for k, v in calls.items() if k.startswith("specfun.reg_hyp2f1.")) > 0
    # the image routes take their near images through the array g_s engine,
    # past the traced scalar entry
    assert sum(v for k, v in calls.items() if k.startswith("free_resolvent.g_s.")) == 0
    assert snap["counts"]["fourier.evals"] == snap["counts"]["images.evals"] == 3


def test_traced_verify_completes(capsys):
    # verify's batched checks pass arrays of r to the mode functions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify"])
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().out
    assert snap["calls"]["model_kernels.cyl_mode"] > 0
    assert all(k.startswith("specfun.reg_hyp2f1.z-") for k in snap["calls"] if k.startswith("specfun.reg_hyp2f1"))
