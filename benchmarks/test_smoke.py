"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fairwipe import experiment, unlearn  # noqa: E402

TINY = {"feature-30k": 3000, "edge-stream-20k": 3000, "experiment-edge-bulk": 600}


@pytest.fixture
def tiny(monkeypatch):
    for name, n in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, functools.partial(workloads.WORKLOADS[name], n=n))


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_contract_lists_the_metrics_the_runner_emits():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result, text = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    printed = dict(expected) if trace else {**expected, **run.UNGATED}
    if workload == "experiment-edge-bulk":
        printed.update({k: u for k, u in run.BULK_ONLY.items() if trace or k != "data.load_ms"})
    for name, unit in printed.items():
        assert f"  {name} " in text and f" {unit} " in text.split(f"  {name} ")[1].splitlines()[0]
    assert "failed_ops 0 of ops_attempted" in text and "speedup" in text and '"openblas"' in text

    report = json.loads((run.OUT / f"{workload}-seed3-trace{trace}.json").read_text())
    assert set(printed) <= set(report["metrics"])
    if trace:
        spans = (run.OUT / f"{workload}-seed3-spans.jsonl").read_text().splitlines()
        first = json.loads(spans[0])
        assert set(first) >= {"name", "start", "end", "parent", "request"}


def _perturbed_updates(fn):
    def perturbed(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, updated_weights=result.updated_weights + 1e-2)

    return perturbed


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_perturbed_weights_fail_the_check(tiny, capsys, workload):
    with tracing.patched(unlearn, "newton_unlearn", _perturbed_updates):
        result, text = _run(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "w_unlearn - w_oracle" in text


def test_a_dropped_seed_counts_as_failed(tiny, capsys):
    def failing(fn):
        def raise_(*args, **kwargs):
            raise FloatingPointError("injected")

        return raise_

    with tracing.patched(experiment, "sequential_unlearn", failing):
        result, text = _run(capsys, "experiment-edge-bulk", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "failed and was skipped" in text


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "feature-30k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
