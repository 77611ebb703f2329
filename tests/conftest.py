import contextlib
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from fairwipe import graph
from fairwipe.graph import GraphDataset
from fairwipe.synthetic import gaussian_features, random_adjacency, split_masks

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# `pythonpath = ["src"]` puts the package on this process's path; the
# subprocesses some tests start (`python -m fairwipe.cli`) need it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def finite_difference_gradient(func, w, h=1e-6):
    """Central finite differences of a scalar function of the weights."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        step = np.zeros_like(w)
        step[i] = h
        g[i] = (func(w + step) - func(w - step)) / (2 * h)
    return g


def finite_difference_hessian(grad_func, w, h=1e-6):
    """Central finite differences of a gradient function, column by column."""
    d = len(w)
    hess = np.zeros((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        hess[:, j] = (grad_func(w + step) - grad_func(w - step)) / (2 * h)
    return hess


def random_dataset(n=30, f=4, seed=0, avg_degree=4.0, fractions=(0.6, 0.2, 0.2)):
    """Small random dataset for property loops."""
    rng = np.random.default_rng(seed)
    x = gaussian_features(n, f, rng)
    adj = random_adjacency(n, avg_degree, rng)
    sensitive = rng.integers(0, 2, size=n)
    sensitive[0], sensitive[1] = 0, 1
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    train, val, test = split_masks(n, fractions, rng)
    return GraphDataset(
        adjacency=adj,
        features=x,
        sensitive=sensitive,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


@contextlib.contextmanager
def counting_full_passes():
    """A spy on full passes over the graph, yielding the list of them as they happen.

    Each `graph._aggregate` call is listed as ``("_aggregate", dataset)``, and
    each full `graph._hop` product (no ``rows``) made outside one as
    ``("_hop", None)``: a full hop inside the re-aggregation step is as much
    a full pass as an aggregation from scratch.
    """
    passes = []
    aggregate, hop = graph._aggregate, graph._hop

    def spy_aggregate(dataset, hops, scheme):
        passes.append(("_aggregate", dataset))
        with mock.patch.object(graph, "_hop", hop):
            return aggregate(dataset, hops, scheme)

    def spy_hop(adjacency, block, rows=None):
        if rows is None:
            passes.append(("_hop", None))
        return hop(adjacency, block, rows)

    with mock.patch.object(graph, "_aggregate", spy_aggregate), mock.patch.object(graph, "_hop", spy_hop):
        yield passes


def aggregations(passes):
    """The graphs aggregated from scratch among ``passes``."""
    return [dataset for name, dataset in passes if name == "_aggregate"]


@pytest.fixture
def write_dataset_files(tmp_path):
    """Write a small on-disk dataset (edge list + feature table) and return paths."""

    def _write(
        edges=((0, 1), (1, 2), (2, 3)),
        n=4,
        sensitive=(0, 0, 1, 1),
        labels=(0, 1, 0, 1),
        extra_features=2,
        delimiter=",",
        edge_lines=None,
        seed=0,
    ):
        rng = np.random.default_rng(seed)
        edge_path = tmp_path / "edges.txt"
        if edge_lines is None:
            edge_lines = [f"{i} {j}" for i, j in edges]
        edge_path.write_text("# edge list\n" + "\n".join(edge_lines) + "\n")
        feat_path = tmp_path / "features.csv"
        header = ["sens", "label"] + [f"f{c}" for c in range(extra_features)]
        lines = [delimiter.join(header)]
        for i in range(n):
            cells = [str(sensitive[i]), str(labels[i])]
            cells += [f"{rng.normal():.6f}" for _ in range(extra_features)]
            lines.append(delimiter.join(cells))
        feat_path.write_text("\n".join(lines) + "\n")
        return edge_path, feat_path

    return _write


# Every config key, each at a value other than its field's default; ``arms``
# is space-separated so that a sweep can take it as one value.
EVERY_SETTING = {
    "manifest": "data/m.json",
    "task": "edge",
    "k": "4",
    "edge_fraction": "0.2",
    "edge_batches": "3",
    "selector": "random-intra",
    "scheme": "gpr",
    "hops": "1",
    "lambda": "2.5",
    "epsilon": "0.5",
    "delta": "1e-3",
    "epsilon_prime": "0.25",
    "seeds": "3, 4",
    "train_frac": "0.5",
    "val_frac": "0.25",
    "test_frac": "0.25",
    "arms": "unlearn retrain",
    "tolerance": "1e-6",
    "max_iterations": "300",
    "node_scope": "all",
}
