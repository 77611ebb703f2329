"""The three benchmark workloads, each a single-client closed loop.

A workload sets up (several times, to time set-up steadily), runs one warm-up
operation, then starts one operation after another until the measuring window
ends. Every operation is checked; a check that fails or an exception counts
the operation as failed, and only successful operations are timed.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from fairwipe import cli, experiment, fairness, graph, model, synthetic, unlearn

import blockgraph
from tracing import Tracer, patched

SETUP_REPEATS = 5
# C8's tolerance on the distance between the Newton update and the retrained weights.
ORACLE_TOLERANCE = 1e-3
HOPS = 3
# edge-stream-20k retrains and checks the carried weights after this many requests.
RETRAIN_EVERY = 2


@dataclass
class Outcome:
    """What one run measured. Times are in seconds."""

    setup: list[float] = field(default_factory=list)
    request: list[float] = field(default_factory=list)
    retrain: list[float] = field(default_factory=list)
    cycle: list[float] = field(default_factory=list)
    oracle_gaps: list[float] = field(default_factory=list)
    experiment_rows: list = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    window_s: float = 0.0

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def _set_up(outcome: Outcome, tracer: Tracer, build):
    """Run `build` SETUP_REPEATS times, timing each; keep the last result."""
    tracer.request = "setup"
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        result = build()
        outcome.setup.append(perf_counter() - start)
    return result


def _closed_loop(outcome: Outcome, tracer: Tracer, seconds: float, operation) -> None:
    """One warm-up call, then calls until `seconds` have passed; each call is one attempt."""
    tracer.request = "warmup"
    outcome.attempted += 1
    operation(-1, warmup=True)
    tracer.overhead_s = 0.0
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        tracer.request = i
        outcome.attempted += 1
        with tracer.span("bench.request"):
            operation(i, warmup=False)
        i += 1
    outcome.window_s = perf_counter() - start


def _check_update(outcome: Outcome, weights, oracle_weights, what: str) -> bool:
    if not np.all(np.isfinite(weights)):
        outcome.fail(f"{what}: non-finite updated weights")
        return False
    gap = float(np.linalg.norm(weights - oracle_weights))
    outcome.oracle_gaps.append(gap)
    if not gap <= ORACLE_TOLERANCE:
        outcome.fail(f"{what}: |w_unlearn - w_oracle| = {gap:.3e} > {ORACLE_TOLERANCE:g}")
        return False
    return True


def _pretrain(dataset, config):
    agg = graph.aggregate(dataset, graph.build_propagation(dataset, HOPS), graph.GPR)
    return agg, model.train(dataset, agg, config, noise_std=0.0)


def feature_30k(seed: int, seconds: float, tracer: Tracer, n: int = 30_000) -> Outcome:
    """C8 instance: remove k in 1..4 feature columns from the pre-trained model, then retrain.

    Even requests pick columns with `select_features`, odd ones with the random
    arm, so requests rarely repeat.
    """
    outcome = Outcome()
    config = model.TrainConfig(lam=1e-4, seed=seed, max_iterations=2000)

    def build():
        dataset = synthetic.feature_unlearning_instance(n=n, f=13, seed=seed, avg_degree=10.0)
        return (dataset, *_pretrain(dataset, config))

    dataset, agg, pretrained = _set_up(outcome, tracer, build)
    rng = np.random.default_rng(seed)

    def operation(i, warmup):
        k = int(rng.integers(1, 5))
        random_arm = i % 2 == 1
        columns = rng.choice(dataset.n_features, size=k, replace=False) if random_arm else None
        try:
            start = perf_counter()
            if not random_arm:
                columns = fairness.select_features(dataset.features, dataset.sensitive, k).chosen
            edited = unlearn.FeatureRemoval(tuple(int(c) for c in columns)).apply(dataset)
            agg_new = graph.aggregate(edited, graph.build_propagation(edited, HOPS), graph.GPR)
            result = unlearn.newton_unlearn(pretrained, agg, agg_new, dataset.labels, dataset.train_mask)
            mid = perf_counter()
            oracle = unlearn.retrain_oracle(edited, config, pretrained.perturbation, graph.GPR, HOPS)
            end = perf_counter()
        except Exception as exc:  # a raising update is a failed operation
            outcome.fail(f"request {i}: {type(exc).__name__}: {exc}")
            return
        if _check_update(outcome, result.updated_weights, oracle.weights, f"request {i}") and not warmup:
            outcome.request.append(mid - start)
            outcome.retrain.append(end - mid)
            outcome.cycle.append(end - start)

    _closed_loop(outcome, tracer, seconds, operation)
    return outcome


def edge_stream_20k(seed: int, seconds: float, tracer: Tracer, n: int = 20_000) -> Outcome:
    """A stream of single-edge deletions through `sequential_unlearn`.

    Each request removes the current top-1 `select_edges` edge, carrying the
    weights and the budget forward; every RETRAIN_EVERY-th request also
    retrains on the current graph and checks the carried weights against it.
    A cycle is the RETRAIN_EVERY requests and the retrain that checks them.
    """
    outcome = Outcome()
    config = model.TrainConfig(lam=1e-4, seed=seed, max_iterations=2000)

    def build():
        dataset = synthetic.feature_unlearning_instance(n=n, f=13, seed=seed, avg_degree=10.0)
        return (dataset, _pretrain(dataset, config)[1])

    dataset, pretrained = _set_up(outcome, tracer, build)
    state = {
        "graph": dataset,
        "model": pretrained,
        "budget": unlearn.CertificationBudget(epsilon=1.0, delta=1e-4),
        "cycle_start": None,
    }

    def top_edge(current):
        chosen = fairness.select_edges(current, 1).chosen
        return unlearn.EdgeRemoval(tuple((int(a), int(b)) for a, b in chosen))

    def operation(i, warmup):
        try:
            start = perf_counter()
            if state["cycle_start"] is None:
                state["cycle_start"] = start
            results, budget, edited = unlearn.sequential_unlearn(
                state["model"], state["graph"], [top_edge], state["budget"], graph.GPR, HOPS
            )
            mid = perf_counter()
            weights = results[0].updated_weights
            oracle = None
            if warmup or i % RETRAIN_EVERY == RETRAIN_EVERY - 1:
                oracle = unlearn.retrain_oracle(edited, config, pretrained.perturbation, graph.GPR, HOPS)
            end = perf_counter()
        except Exception as exc:
            outcome.fail(f"request {i}: {type(exc).__name__}: {exc}")
            return
        if not np.all(np.isfinite(weights)):
            outcome.fail(f"request {i}: non-finite updated weights")
            return
        state.update(graph=edited, model=replace(state["model"], weights=weights), budget=budget)
        cycle_start = state["cycle_start"]
        if oracle is not None:
            state["cycle_start"] = None
            if not _check_update(outcome, weights, oracle.weights, f"request {i}"):
                return
        if not warmup:
            outcome.request.append(mid - start)
            if oracle is not None:
                outcome.retrain.append(end - mid)
                outcome.cycle.append(end - cycle_start)

    _closed_loop(outcome, tracer, seconds, operation)
    return outcome


class _BulkProbe:
    """Watches one `fairwipe run` from the outside.

    It keeps the result rows the CLI emits, at full precision, times each
    batch of the last `sequential_unlearn` call (the unlearn arm; the one
    before it is the dry run), and compares that call's final weights with
    the weights of the `retrain_oracle` call that follows.
    """

    def __init__(self):
        self.rows = None
        self.last_weights = None
        self.batch_s: list[float] = []
        self.gaps: list[float] = []
        self.nonfinite = 0

    def emit_results(self, fn):
        def probe(rows, *args, **kwargs):
            self.rows = list(rows)
            return fn(rows, *args, **kwargs)

        return probe

    def sequential_unlearn(self, fn):
        def probe(model, dataset, requests, *args, **kwargs):
            # A batch runs from the moment its lazy request is built to the
            # moment the next one is: select, edit, re-aggregate, Newton step.
            marks = []

            def timed(request):
                def build(current):
                    marks.append(perf_counter())
                    return request(current) if callable(request) else request

                return build

            results, budget, edited = fn(model, dataset, [timed(r) for r in requests], *args, **kwargs)
            marks.append(perf_counter())
            self.batch_s = [b - a for a, b in zip(marks, marks[1:])]
            self.last_weights = results[-1].updated_weights
            return results, budget, edited

        return probe

    def retrain_oracle(self, fn):
        def probe(*args, **kwargs):
            oracle = fn(*args, **kwargs)
            if self.last_weights is not None:
                if np.all(np.isfinite(self.last_weights)):
                    self.gaps.append(float(np.linalg.norm(self.last_weights - oracle.weights)))
                else:
                    self.nonfinite += 1
            return oracle

        return probe


def _finite_row(row) -> bool:
    values = [getattr(row, f.name) for f in fields(row)]
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def experiment_edge_bulk(seed: int, seconds: float, tracer: Tracer, n: int = 10_000) -> Outcome:
    """One in-process `fairwipe run` per seed with the package defaults for the edge task.

    Edge task, 10% of edges in 10 batches, SGC, 3 hops, lam=10, all three arms,
    over files the set-up writes. A request is one edge batch of the unlearn
    arm; the whole arm is `experiment.unlearn_s`. A seed the experiment drops
    with a warning, a missing or non-finite row, or an oracle gap above
    tolerance fails the operation.
    """
    outcome = Outcome()
    workdir = Path(__file__).resolve().parents[1] / ".bench_out" / f"bulk-seed{seed}"

    manifest = _set_up(outcome, tracer, lambda: blockgraph.write_dataset(workdir, n=n, seed=seed))

    def operation(i, warmup):
        run_seed = seed * 1000 + i + 1
        config_path = workdir / "experiment.cfg"
        config_path.write_text(f"manifest = {manifest.name}\ntask = edge\nseeds = {run_seed}\n")
        probe = _BulkProbe()
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(cli, "emit_results", probe.emit_results))
            stack.enter_context(patched(experiment, "sequential_unlearn", probe.sequential_unlearn))
            stack.enter_context(patched(experiment, "retrain_oracle", probe.retrain_oracle))
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            start = perf_counter()
            error = None
            try:
                code = cli.main(
                    ["run", "--config", str(config_path), "--out", str(workdir / "results.json"), "--format", "json"]
                )
            except Exception as exc:  # a seed with no rows makes emit_results raise
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        dropped = [str(w.message) for w in caught if "failed and was skipped" in str(w.message)]
        seed_rows = [r for r in probe.rows or () if not r.aggregate]
        arms = {r.arm: r for r in seed_rows}
        if dropped:
            outcome.fail(f"seed {run_seed}: {dropped[0]}")
        elif error is not None:
            outcome.fail(f"seed {run_seed}: {error}")
        elif code != 0:
            outcome.fail(f"seed {run_seed}: exit code {code}")
        elif set(arms) != set(experiment.ARMS) or not all(_finite_row(r) for r in seed_rows):
            outcome.fail(f"seed {run_seed}: missing or non-finite result rows")
        elif probe.nonfinite or len(probe.gaps) != 1:
            outcome.fail(f"seed {run_seed}: unlearn arm weights missing or non-finite")
        else:
            gap = probe.gaps[0]
            outcome.oracle_gaps.append(gap)
            if not gap <= ORACLE_TOLERANCE:
                outcome.fail(f"seed {run_seed}: |w_unlearn - w_oracle| = {gap:.3e} > {ORACLE_TOLERANCE:g}")
            elif not warmup:
                outcome.cycle.append(elapsed)
                outcome.request.extend(probe.batch_s)
                outcome.retrain.append(arms["retrain"].wall_time)
                outcome.experiment_rows.append((elapsed, arms))

    _closed_loop(outcome, tracer, seconds, operation)
    return outcome


WORKLOADS = {
    "feature-30k": feature_30k,
    "edge-stream-20k": edge_stream_20k,
    "experiment-edge-bulk": experiment_edge_bulk,
}
