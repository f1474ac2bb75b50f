"""Quick self-tests of the benchmark's oracles, tracer and metric list."""

import json
import sys
from pathlib import Path

import oracles
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def test_oracles_reproduce_known_values():
    oracles.self_test()


def test_interval_counts_match_enumeration():
    sys.path.insert(0, str(ROOT / "src"))
    from resonance_lab import resonances as rz
    from resonance_lab.twist import TwistSpec

    twisted = TwistSpec.from_angles([(0.25, 1), (0.5, 2)])
    nonunitary = TwistSpec.from_angles([(0.1, 1), (0.61803, 2)], [0.37, -0.2])
    as_classes = lambda t: [(a.theta, a.mult, a.log_abs) for a in t.angles]
    for radius in (2.0, 8.0, 31.5):
        assert oracles.lattice_interval_count(1.3, as_classes(twisted), radius, 1, 2) == \
            rz.funnel_resonances(1.3, twisted, radius).total_multiplicity()
        for t in (twisted, nonunitary):
            assert oracles.cylinder_count(0.9, as_classes(t), radius) == \
                rz.cylinder_resonances(0.9, t, radius).total_multiplicity()
    assert oracles.cusp_count([(0.0, 2, 0.0), (0.5, 1, 0.0)], 1.0) == 2


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.per_layer_metrics()


def test_tracer_counts_repeat_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from resonance_lab import free_resolvent, model_kernels as mk
    from resonance_lab.geometry import HPoint
    from resonance_lab.twist import TwistSpec

    originals = (mk.g_s, free_resolvent.g_s, mk.cyl_kernel_images)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        args = (2.0 + 0.3j, 1.0, TwistSpec.trivial(), HPoint(0.2, 1.0), HPoint(-0.3, 2.5))
        mk.cyl_kernel_images(*args)
        first = tracer.snapshot()
        mk.cyl_kernel_images(*args)
        second = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert (mk.g_s, free_resolvent.g_s, mk.cyl_kernel_images) == originals
    assert first["calls"]["model_kernels.cyl_kernel_images"] == 1
    assert first["counts"]["images.evals"] == 1
    n_images = first["counts"]["images.terms"]
    assert n_images > 3
    assert second["counts"]["images.terms"] == 2 * n_images
    assert sum(v for k, v in second["calls"].items() if k.startswith("free_resolvent.g_s")) == 2 * n_images
