"""Benchmark of resonance-lab: kernels, resonance listings and `verify`.

Each workload is a closed loop: one process makes one in-process call of
`resonance_lab.cli.main(argv)` at a time, the entry point of the
`resonance-lab` command.  A run repeats the workload's fixed op list in
whole rounds until --seconds have passed, then checks the outputs outside
the timed region and prints one JSON object as its last line.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 33

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
reference round, then traced rounds, and reports per-module metrics per
round.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters timed for setup_s, after one untimed one that fills
#: the bytecode cache.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("agreement_digits", "digits"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    import tracing

    out = [("specfun.log_gamma.calls", "count", "lower"),
           ("specfun.log_gamma.self_ms", "ms", "lower")]
    for what, unit in (("calls", "count"), ("self_ms", "ms")):
        out += [(f"specfun.reg_hyp2f1.{what}.{b}", unit, "lower") for b in ("z-lo", "z-mid", "z-hi")]
    for what, unit in (("calls", "count"), ("self_ms", "ms")):
        out += [(f"specfun.bessel_k.{what}.{b}", unit, "lower") for b in ("series", "quad")]
    out += [("specfun.bessel_i.calls", "count", "lower"), ("specfun.bessel_i.self_ms", "ms", "lower")]
    for what, unit in (("calls", "count"), ("self_ms", "ms")):
        out += [(f"free_resolvent.g_s.{what}.{b}", unit, "lower")
                for b in ("sigma-near", "sigma-mid", "sigma-far")]
    for fn in tracing.MK_FUNCS:
        out += [(f"model_kernels.{fn}.calls", "count", "lower"),
                (f"model_kernels.{fn}.ms", "ms", "lower"),
                (f"model_kernels.{fn}.raised", "count", "lower")]
    out += [("model_kernels.images_per_eval", "count", "lower"),
            ("model_kernels.modes_per_eval", "count", "lower"),
            ("quad.adaptive.calls", "count", "lower"),
            ("quad.adaptive.panels", "count", "lower"),
            ("quad.adaptive.self_ms", "ms", "lower"),
            ("quad.panels.calls", "count", "lower"),
            ("quad.panels.self_ms", "ms", "lower"),
            ("scattering.scattering_coeff.calls", "count", "lower"),
            ("scattering.scattering_coeff.ms", "ms", "lower"),
            ("scattering.functional_equation_residual.calls", "count", "lower"),
            ("scattering.functional_equation_residual.ms", "ms", "lower"),
            ("resonances.surface_resonances.ms", "ms", "lower"),
            ("resonances.census.ms", "ms", "lower"),
            ("resonances.enumerated_points", "count", "lower"),
            ("resonances.listed_points", "count", "higher"),
            ("resonances.listed_per_enumerated", "ratio", "higher")]
    for check in tracing.VERIFY_CHECKS:
        out += [(f"verify.{check}.ms", "ms", "lower"), (f"verify.{check}.err", "1", "lower")]
    out += [("cli.self_ms", "ms", "lower"),
            ("cli.output_bytes", "bytes", "lower"),
            ("trace.wall_ratio", "ratio", "lower")]
    return out


@dataclass
class Result:
    rc: int
    seconds: float
    out: str
    err: str
    out_bytes: int = 0


def call_cli(argv: list[str]) -> Result:
    """One in-process `resonance-lab` command, timed, with its output captured."""
    from resonance_lab import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a fault the CLI does not map to an exit code
        rc = -1
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    return Result(rc, dt, out.getvalue(), err.getvalue())


def run_rounds(wl, seconds: float, between=None):
    """Whole rounds of the op list, as many as come nearest to `seconds` (at least one).

    The run stops once another round would end further past `seconds`
    than the rounds so far end short of it, judged by their mean time.
    `between(progress)` runs after each round but the last, outside the
    measured time; `progress` is the share of `seconds` measured so far.
    """
    rounds = []
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        results = [call_cli(op.argv) for op in wl.ops]
        wall = time.perf_counter() - t0
        for op, res in zip(wl.ops, results):
            if "--out" in op.argv:
                path = op.argv[op.argv.index("--out") + 1]
                res.out_bytes = os.path.getsize(path) if os.path.exists(path) else 0
            res.out_bytes += len(res.out.encode())
        rounds.append((wall, results))
        measured += wall
        if measured + 0.5 * measured / len(rounds) >= seconds:
            return rounds
        if between is not None:
            between(measured / seconds)


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and make the workload's inputs: all that precedes the first op."""
    import workloads
    from resonance_lab import cli  # noqa: F401  (the import is part of set-up)

    workdir.mkdir(parents=True, exist_ok=True)
    make, _ = workloads.WORKLOADS[workload]
    return make(np.random.default_rng(seed), str(workdir))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's launch to the end of its set-up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def check(wl, rounds) -> tuple[list[str], float, int]:
    """Errors, worst disagreement, and failed ops over all rounds."""
    import workloads

    _, checker = workloads.WORKLOADS[wl.name]
    first = rounds[0][1]
    errors, worst = checker(wl, first, call_cli)
    for _, results in rounds[1:]:
        for op, a, b in zip(wl.ops, first, results):
            if (a.rc, a.out, a.out_bytes) != (b.rc, b.out, b.out_bytes):
                errors.append(f"{op.argv}: output differs between rounds")
    failed_per_round = sum(workloads.known_failure(op, res) for op, res in zip(wl.ops, first))
    return errors, worst, failed_per_round * len(rounds)


def end_to_end(rounds, worst: float, setup_times: list[float], peak_rss_mb: float) -> dict:
    import workloads

    latencies = [res.seconds for _, results in rounds for res in results]
    return {
        "setup_s": statistics.median(setup_times),
        # the mean, not the median: the machine's speed moves in phases of
        # seconds to tens of seconds, and the median of a few rounds jumps
        # from one phase to the other where the mean weighs them by time
        "wall_s": statistics.fmean(wall for wall, _ in rounds),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "agreement_digits": workloads.agreement_digits(worst),
    }


def per_layer(snap: dict, n_rounds: int, rounds, ref_wall: float) -> dict:
    """Per-round per-module metrics from the tracer's counters."""
    import tracing

    calls, total, self_ns, raised, counts = (
        snap[k] for k in ("calls", "total_ns", "self_ns", "raised", "counts"))
    vals = {}
    for name, _, _ in per_layer_metrics():
        parts = name.split(".")
        for what, table, scale in (("calls", calls, 1.0), ("self_ms", self_ns, 1e6),
                                   ("ms", total, 1e6), ("raised", raised, 1.0)):
            if what in parts:
                key = ".".join(p for p in parts if p != what)
                vals[name] = table[key] / scale / n_rounds
                break
    ratio = lambda a, b: a / b if b else 0.0
    vals["model_kernels.images_per_eval"] = ratio(counts["images.terms"], counts["images.evals"])
    vals["model_kernels.modes_per_eval"] = ratio(counts["fourier.terms"], counts["fourier.evals"])
    vals["quad.adaptive.panels"] = counts["quad.adaptive.evals"] / tracing.EVALS_PER_PANEL / n_rounds
    vals["resonances.enumerated_points"] = counts["resonances.enumerated"] / n_rounds
    vals["resonances.listed_points"] = counts["resonances.listed"] / n_rounds
    vals["resonances.listed_per_enumerated"] = ratio(
        counts["resonances.listed"], counts["resonances.enumerated"])
    for check in tracing.VERIFY_CHECKS:
        vals[f"verify.{check}.err"] = snap["values"].get(f"verify.{check}.err", 0.0)
    vals["cli.self_ms"] = self_ns["cli.main"] / 1e6 / n_rounds
    vals["cli.output_bytes"] = sum(r.out_bytes for _, results in rounds for r in results) / n_rounds
    vals["trace.wall_ratio"] = statistics.median(w for w, _ in rounds) / ref_wall
    return {name: vals[name] for name, _, _ in per_layer_metrics()}


def run_workload(args) -> int:
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        wl = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(time.perf_counter()))
            return 0
        if args.trace:
            import tracing

            ref = run_rounds(wl, 0.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rounds = run_rounds(wl, max(0.0, args.seconds - ref[0][0]))
            finally:
                tracer.uninstall()
            snap = tracer.snapshot()
            errors, worst, failed = check(wl, ref + rounds)
            metrics = per_layer(snap, len(rounds), rounds, ref[0][0])
            units = {n: u for n, u, _ in per_layer_metrics()}
            all_rounds = ref + rounds
            _write_trace(args, snap, len(rounds), all_rounds)
        else:
            # the probes are spread over the run, between rounds, so that
            # they see the machine as the rounds do
            probe_setup(args.workload, args.seed)  # fills the bytecode cache
            setup_times = []

            def probe_until(progress: float) -> None:
                while len(setup_times) < round(SETUP_PROBES * progress):
                    setup_times.append(probe_setup(args.workload, args.seed))

            rounds = run_rounds(wl, args.seconds, probe_until)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            probe_until(1.0)
            errors, worst, failed = check(wl, rounds)
            metrics = end_to_end(rounds, worst, setup_times, peak)
            units = dict(END_TO_END)
            all_rounds = rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        sys.stderr.write(f"CHECK FAILED: {e}\n")
    result = {
        "correct": not errors,
        "attempted": len(wl.ops) * len(all_rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    _record(args, result)
    print(json.dumps(result))
    return 0


def _record(args, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "time": time.time(), **result}
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")


def _write_trace(args, snap: dict, n_rounds: int, rounds) -> None:
    """Aggregated spans per name, plus one span per op of every round."""
    doc = {
        "workload": args.workload, "seed": args.seed, "traced_rounds": n_rounds,
        "spans": {k: {"calls": snap["calls"][k], "total_ns": snap["total_ns"][k],
                      "self_ns": snap["self_ns"][k], "raised": snap["raised"][k]}
                  for k in sorted(snap["calls"])},
        "counts": dict(snap["counts"]),
        "values": snap["values"],
        "ops": [[{"rc": r.rc, "seconds": r.seconds} for r in results] for _, results in rounds],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit {proc.returncode}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:50s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"workloads": summary}))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=33.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "resonance_lab" / "cli.py").is_file():
        sys.stderr.write(f"no resonance_lab sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
