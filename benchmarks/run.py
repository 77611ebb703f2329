"""Benchmark of certified unlearning against retraining, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload feature-30k --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` is a separate run
that records spans and reports the per-layer metrics. The last line of
standard output is one JSON object; the lines before it list every figure
with its unit and sample count. The full report, and with `--trace 1` the
spans, are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90_stretch_median": "ms",
    "retrain_ms_p50": "ms",
    "cycle_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph.edit_ms": "ms",
    "graph.propagate_ms": "ms",
    "graph.aggregate_ms": "ms",
    "graph.changed_share": "share",
    "fairness.select_ms": "ms",
    "unlearn.newton_ms": "ms",
    "unlearn.residual_p50": "norm",
    "unlearn.oracle_gap_max": "norm",
    "model.train_ms": "ms",
    "synthetic.generate_s": "s",
    "trace.overhead_share": "share",
}
# Figures only experiment-edge-bulk has (it alone enters `data` and
# `experiment`). They are printed and written to the report but are not in
# BENCHMARK.json, whose metrics every workload must emit.
BULK_ONLY = {
    "seed_s_p50": "s",
    "data.load_ms": "ms",
    "experiment.pretrain_s": "s",
    "experiment.unlearn_s": "s",
    "experiment.retrain_s": "s",
    "experiment.other_s": "s",
    "experiment.certified_share": "share",
}
# The plain p90 of the run, printed and in the report next to the gated
# stretch median, but not gated: one burst of interference sets it.
UNGATED = {"request_ms_p90": "ms"}
WORKLOAD_NAMES = ("feature-30k", "edge-stream-20k", "experiment-edge-bulk")


# One BLAS thread: on a shared 2-core box, two threads made requests slower
# (feature-30k p50 about 100 ms against 75 ms) and three times as spread out.
BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Pin the OpenBLAS thread count; must run before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
    }


# The p90 is taken in each of this many consecutive stretches of the run and
# the median of those is reported: on a shared box, a burst of interference
# slows one stretch, and it should not set the tail figure of the whole run.
STRETCHES = 8


def _percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def _stretch_p90(values):
    import numpy

    if not values:
        return 0.0
    stretches = numpy.array_split(numpy.asarray(values), min(STRETCHES, len(values)))
    return float(numpy.median([numpy.percentile(s, 90) for s in stretches]))


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(outcome) -> dict:
    """`{name: (value, samples)}` for the end-to-end metrics."""
    return {
        "setup_s": (_median(outcome.setup), len(outcome.setup)),
        "request_ms_p50": (1e3 * _median(outcome.request), len(outcome.request)),
        "request_ms_p90_stretch_median": (1e3 * _stretch_p90(outcome.request), len(outcome.request)),
        "request_ms_p90": (1e3 * _percentile(outcome.request, 90), len(outcome.request)),
        "retrain_ms_p50": (1e3 * _median(outcome.retrain), len(outcome.retrain)),
        "cycle_s_p50": (_median(outcome.cycle), len(outcome.cycle)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def experiment_metrics(outcome) -> dict:
    """Seed time (the bulk workload's cycle) and per-arm times from the rows `fairwipe run` emits."""
    runs = outcome.experiment_rows
    arms = {arm: [rows[arm].wall_time for _, rows in runs] for arm in ("pretrained", "unlearn", "retrain")}
    other = [elapsed - sum(rows[a].wall_time for a in arms) for elapsed, rows in runs]
    certified = [bool(rows["unlearn"].certified) for _, rows in runs]
    return {
        "seed_s_p50": (_median(outcome.cycle), len(outcome.cycle)),
        "experiment.pretrain_s": (_median(arms["pretrained"]), len(runs)),
        "experiment.unlearn_s": (_median(arms["unlearn"]), len(runs)),
        "experiment.retrain_s": (_median(arms["retrain"]), len(runs)),
        "experiment.other_s": (_median(other), len(runs)),
        "experiment.certified_share": (sum(certified) / len(runs) if runs else 0.0, len(runs)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairwipe" / "__init__.py").is_file():
        print(f"fairwipe sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    tracer = tracing.Tracer(enabled=bool(args.trace))
    with tracer.instrument():
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)

    bulk = args.workload == "experiment-edge-bulk"
    figures = end_to_end(outcome)
    if bulk:
        figures.update(experiment_metrics(outcome))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        layers = tracing.layer_metrics(tracer, outcome.window_s)
        if not bulk:
            del layers["data.load_ms"]
        figures.update(layers)
        figures["unlearn.oracle_gap_max"] = (max(outcome.oracle_gaps, default=0.0), len(outcome.oracle_gaps))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    units = {**END_TO_END, **UNGATED, **PER_LAYER, **BULK_ONLY}

    request_ms, retrain_ms = figures["request_ms_p50"][0], figures["retrain_ms_p50"][0]
    failed = len(outcome.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_attempted": outcome.attempted,
        "failed_ops": failed,
        "failures": outcome.failures[:20],
        "speedup": {
            "value": retrain_ms / request_ms if request_ms else 0.0,
            "base": f"retrain_ms_p50 {retrain_ms:.6g} ms / request_ms_p50 {request_ms:.6g} ms",
        },
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in figures.items()
        },
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"environment: {json.dumps(report['environment'])}")
    print(f"{args.workload} seed={args.seed}: failed_ops {failed} of ops_attempted {outcome.attempted}")
    for reason in outcome.failures[:5]:
        print(f"  failure: {reason}")
    for name, entry in report["metrics"].items():
        print(f"  {name:28s} {entry['value']:<14.6g} {entry['unit']:6s} n={entry['samples']}")
    print(f"  speedup {report['speedup']['value']:.4g} = {report['speedup']['base']} (not gated)")

    contract = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name][0], "unit": unit} for name, unit in contract.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
