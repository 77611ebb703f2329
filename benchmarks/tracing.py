"""In-memory spans around the calls into each fairwipe layer.

The package has no tracing of its own, so the benchmark wraps the public
functions of every layer module for the length of a traced run. A wrapper is
installed under every name that binds the function in any fairwipe module, so
it records the calls the benchmark makes and the calls one layer makes into
another (`experiment` into `unlearn`, `unlearn` into `model`). Nothing is
written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter

LAYERS = ("cli", "data", "experiment", "graph", "fairness", "model", "unlearn", "synthetic")

# The public calls that get a span. `degree_stats` stays inside the selection
# and evaluation spans that call it; `loss_and_gradient` and `hessian` stay
# inside `train`, which calls them hundreds of times per fit.
TRACED = {
    "cli": ("main",),
    "data": ("load_dataset", "make_splits"),
    "experiment": ("parse_config", "run_experiment", "emit_results"),
    "graph": ("build_propagation", "aggregate", "zero_feature_columns", "remove_edges", "remove_nodes"),
    "fairness": ("select_features", "select_edges", "fairness_metrics", "raw_sp_and_bound", "alpha_diagnostics"),
    "model": ("train", "predict"),
    "unlearn": ("newton_unlearn", "sequential_unlearn", "retrain_oracle"),
    "synthetic": ("feature_unlearning_instance", "gaussian_features"),
}


def _layer_modules():
    return {layer: importlib.import_module(f"fairwipe.{layer}") for layer in LAYERS}


@contextlib.contextmanager
def patched(module, name: str, make_wrapper):
    """Replace `name` wherever a fairwipe module binds the same function as `module.name`."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    sites = [
        (m, attr)
        for m in (importlib.import_module("fairwipe"), *_layer_modules().values())
        for attr, value in vars(m).items()
        if value is original
    ]
    for m, attr in sites:
        setattr(m, attr, wrapper)
    try:
        yield
    finally:
        for m, attr in sites:
            setattr(m, attr, original)


def _newton_attrs(args, kwargs, result):
    """Share of aggregated-matrix entries the edit changed, and the update's residual."""
    before = kwargs["aggregated"] if "aggregated" in kwargs else args[1]
    after = kwargs["aggregated_new"] if "aggregated_new" in kwargs else args[2]
    return {"changed_share": float((before.values != after.values).mean()), "residual": result.residual_norm}


class Tracer:
    """Span recorder. A span is ``[id, name, start, end, parent, request, attrs]``.

    `overhead_s` sums the time spent in the recorder's own bookkeeping and in
    computing span attributes, measured around each wrapped call; the
    workload resets it when the measuring window opens.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.request = None
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block and yield it (None when tracing is off)."""
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        record = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, None]
        self.spans.append(record)
        self._stack.append(sid)
        record[2] = perf_counter()
        try:
            yield record
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if name == "unlearn.newton_unlearn":
                record[6] = _newton_attrs(args, kwargs, result)
            self.overhead_s += (record[2] - enter) + (perf_counter() - record[3])
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Wrap every function in `TRACED` for the duration of the block."""
        if not self.enabled:
            yield
            return
        modules = _layer_modules()
        with contextlib.ExitStack() as stack:
            for layer, names in TRACED.items():
                for name in names:
                    stack.enter_context(
                        patched(modules[layer], name, lambda fn, n=f"{layer}.{name}": self.wrap(n, fn))
                    )
            yield

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid] for sid, _, start, end, *_ in self.spans]

    def write(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, name, start, end, parent, request, attrs in self.spans:
                entry = {
                    "id": sid,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "request": request,
                }
                if attrs:
                    entry["attrs"] = attrs
                fh.write(json.dumps(entry) + "\n")


def layer_metrics(tracer: Tracer, window_s: float) -> dict:
    """`{name: (value, samples)}` over the measured requests (integer request ids).

    Times are the median self time per call. `model.train_ms` counts only the
    fits inside `retrain_oracle`, the retrain step, not pre-training.
    `graph.changed_share` takes each request's first `newton_unlearn` call: on
    experiment-edge-bulk that is the seed's first edge batch.
    `unlearn.residual_p50` takes, where a request has `sequential_unlearn`
    calls, only the Newton steps of its last one: on experiment-edge-bulk the
    earlier one is the unperturbed dry run, the last one the unlearn arm.
    `synthetic.generate_s` is the time of each set-up's outermost calls into
    `synthetic`; on experiment-edge-bulk that is only `gaussian_features`, the
    rest of its generator being the benchmark's own code.
    """
    self_s = tracer.self_times()
    names = {sid: name for sid, name, *_ in tracer.spans}
    measured = [span for span in tracer.spans if isinstance(span[5], int)]

    def per_call_ms(*wanted, parent=None):
        times = [
            self_s[sid]
            for sid, name, _, _, par, _, _ in measured
            if name in wanted and (parent is None or names.get(par) == parent)
        ]
        return (1e3 * statistics.median(times) if times else 0.0, len(times))

    def median_of(values):
        return (statistics.median(values) if values else 0.0, len(values))

    newton = [span for span in measured if span[1] == "unlearn.newton_unlearn"]
    first_newton = {}
    for span in newton:
        first_newton.setdefault(span[5], span[6])
    last_sequential = {span[5]: span[0] for span in measured if span[1] == "unlearn.sequential_unlearn"}
    residuals = [
        span[6]["residual"]
        for span in newton
        if span[5] not in last_sequential or span[4] == last_sequential[span[5]]
    ]
    generate = [
        end - start
        for _, name, start, end, parent, request, _ in tracer.spans
        if request == "setup" and name.startswith("synthetic.") and not names.get(parent, "").startswith("synthetic.")
    ]
    return {
        "graph.edit_ms": per_call_ms("graph.zero_feature_columns", "graph.remove_edges", "graph.remove_nodes"),
        "graph.propagate_ms": per_call_ms("graph.build_propagation"),
        "graph.aggregate_ms": per_call_ms("graph.aggregate"),
        "graph.changed_share": median_of([a["changed_share"] for a in first_newton.values()]),
        "fairness.select_ms": per_call_ms("fairness.select_features", "fairness.select_edges"),
        "unlearn.newton_ms": per_call_ms("unlearn.newton_unlearn"),
        "unlearn.residual_p50": median_of(residuals),
        "model.train_ms": per_call_ms("model.train", parent="unlearn.retrain_oracle"),
        "data.load_ms": per_call_ms("data.load_dataset"),
        "synthetic.generate_s": median_of(generate),
        "trace.overhead_share": (tracer.overhead_s / window_s, len(measured)),
    }
