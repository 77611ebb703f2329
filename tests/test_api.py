"""The public contract: the names the package offers, and the settings every certified call states."""

import types
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp

import fairwipe
from fairwipe import graph
from fairwipe.graph import aggregate, degree_stats, remove_edges
from fairwipe.model import TrainConfig, train
from fairwipe.unlearn import (
    CertificationBudget,
    FeatureRemoval,
    retrain_oracle,
    sequential_unlearn,
    worstcase_bound_feature,
)

from conftest import random_dataset

FAIRWIPE_NAMES = [
    "AggregatedFeatures",
    "CertificationBudget",
    "ConfigError",
    "ConvergenceError",
    "DataValidationError",
    "DatasetManifest",
    "DegreeStats",
    "EdgeRemoval",
    "ExperimentConfig",
    "FeatureRemoval",
    "GPR",
    "GraphDataset",
    "LOGISTIC",
    "LossSpec",
    "NodeRemoval",
    "ResultRow",
    "SGC",
    "SelectionResult",
    "TrainConfig",
    "TrainedModel",
    "UnlearnResult",
    "aggregate",
    "alpha_diagnostics",
    "calibrate_noise",
    "degree_stats",
    "edge_bias_scores",
    "emit_results",
    "fairness_metrics",
    "hessian",
    "load_dataset",
    "load_results",
    "loss_and_gradient",
    "make_splits",
    "newton_unlearn",
    "node_bias_scores",
    "parse_config",
    "pearson_correlations",
    "predict",
    "raw_sp_and_bound",
    "remove_edges",
    "remove_nodes",
    "retrain_oracle",
    "run_experiment",
    "select_edges",
    "select_features",
    "select_nodes",
    "sequential_unlearn",
    "train",
    "worstcase_bound_feature",
    "zero_feature_columns",
]

GRAPH_NAMES = [
    "AggregatedFeatures",
    "DegreeStats",
    "GPR",
    "GraphDataset",
    "SGC",
    "aggregate",
    "build_propagation",
    "degree_stats",
    "remove_edges",
    "remove_nodes",
    "zero_feature_columns",
]


def public_names(module):
    """The names ``module`` offers: not private, not a submodule, not imported from outside the package.

    Submodules are left out because which of them the package has as
    attributes depends on what the process imported before.
    """
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and getattr(value, "__module__", "fairwipe").startswith("fairwipe")
    )


def test_public_names_are_pinned():
    """A name joins or leaves the public surface only with an edit here, so no private step is re-exported silently."""
    assert public_names(fairwipe) == FAIRWIPE_NAMES
    assert public_names(graph) == GRAPH_NAMES


def holds_arrays(record) -> bool:
    """Whether a field of the dataclass ``record`` is annotated ``np.ndarray`` or ``sp.csr_matrix``, alone or in a union."""
    for hint in typing.get_type_hints(record).values():
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        if {np.ndarray, sp.csr_matrix} & set(typing.get_args(hint) if union else (hint,)):
            return True
    return False


def test_array_records_compare_by_identity():
    """A generated ``==`` compares arrays, which raises for two equal records that do not share
    them, and leaves the record unhashable, so no graph could key a weak table."""
    records = [
        value for value in map(vars(fairwipe).get, FAIRWIPE_NAMES) if is_dataclass(value) and holds_arrays(value)
    ]
    assert sorted(record.__name__ for record in records) == [
        "AggregatedFeatures",
        "DegreeStats",
        "EdgeRemoval",
        "FeatureRemoval",
        "GraphDataset",
        "NodeRemoval",
        "SelectionResult",
        "TrainedModel",
        "UnlearnResult",
    ]
    for record in records:
        assert "__eq__" not in vars(record), record.__name__


def test_certified_settings_have_no_defaults():
    """The aggregation and the ridge a model was trained with are stated at every call: each left out raises."""
    ds = random_dataset(n=20, seed=0)
    config = TrainConfig(lam=10.0)
    model = train(ds, aggregate(ds, 2, graph.SGC), config, noise_std=0.0)
    requests = [FeatureRemoval((0,))]
    budget = CertificationBudget(1.0, 1e-4)
    for call in (
        lambda: aggregate(ds, 2),
        lambda: sequential_unlearn(model, ds, requests, budget),
        lambda: sequential_unlearn(model, ds, requests, budget, graph.SGC),
        lambda: retrain_oracle(ds, config, model.perturbation),
        lambda: retrain_oracle(ds, config, model.perturbation, graph.SGC),
        lambda: worstcase_bound_feature(5, 2, 10),
    ):
        with pytest.raises(TypeError, match="missing"):
            call()


def copied(value, writeable: bool):
    """A copy of ``value``, or of a dataclass of arrays, with every array's write flag set to ``writeable``."""
    if is_dataclass(value):
        return replace(value, **{f.name: copied(getattr(value, f.name), writeable) for f in fields(value)})
    if not isinstance(value, np.ndarray):
        return value
    value = value.copy()
    value.setflags(write=writeable)
    return value


def leaves(value):
    """The arrays and scalars of a result, dataclasses and tuples opened."""
    if is_dataclass(value):
        return [leaf for f in fields(value) for leaf in leaves(getattr(value, f.name))]
    if isinstance(value, tuple | list):
        return [leaf for item in value for leaf in leaves(item)]
    return [np.asarray(value)]


def public_entry_calls():
    """Each public entry that takes arrays, as a call on a dict of its inputs."""
    config = TrainConfig(lam=1.0, seed=0)
    return {
        "pearson_correlations": lambda a: fairwipe.pearson_correlations(a["features"], a["sensitive"]),
        "select_features": lambda a: fairwipe.select_features(a["features"], a["sensitive"], 2),
        "fairness_metrics": lambda a: fairwipe.fairness_metrics(
            a["predictions"], a["labels"], a["sensitive"], a["test_mask"]
        ),
        "raw_sp_and_bound": lambda a: fairwipe.raw_sp_and_bound(
            a["aggregated"].values, a["model"].weights, a["sensitive"], 1.0
        ),
        "edge_bias_scores": lambda a: fairwipe.edge_bias_scores(a["pairs"], a["sensitive"], a["stats"]),
        "node_bias_scores": lambda a: fairwipe.node_bias_scores(a["nodes"], a["stats"]),
        "loss_and_gradient": lambda a: fairwipe.loss_and_gradient(
            a["model"].weights, a["rows"], a["row_labels"], 1.0, a["model"].perturbation
        ),
        "hessian": lambda a: fairwipe.hessian(a["model"].weights, a["rows"], a["row_labels"], 1.0),
        "predict": lambda a: fairwipe.predict(a["model"], a["aggregated"]),
        "train": lambda a: train(
            a["graph"], a["aggregated"], config, noise_std=0.05, perturbation=a["model"].perturbation
        ),
        "newton_unlearn": lambda a: fairwipe.newton_unlearn(
            a["model"], a["aggregated"], a["aggregated_new"], a["labels"], a["train_mask"], a["train_mask_new"]
        ),
    }


@pytest.mark.parametrize("entry", sorted(public_entry_calls()))
def test_public_entries_take_read_only_arrays(entry):
    """A graph's arrays and every aggregation ``aggregate`` hands out are read-only, so each public
    entry that takes arrays must read read-only ones, leave them as they were, and give what it
    gives on writable copies."""
    ds = random_dataset(n=40, f=4, seed=3)
    agg = aggregate(ds, 2, graph.SGC)
    model = train(ds, agg, TrainConfig(lam=1.0, seed=0), noise_std=0.05)
    edited = fairwipe.remove_nodes(remove_edges(ds, ds.edge_pairs()[:3]), [int(np.flatnonzero(ds.train_mask)[0])])
    inputs = {
        "graph": ds,
        "features": ds.features,
        "sensitive": ds.sensitive,
        "labels": ds.labels,
        "test_mask": ds.test_mask,
        "train_mask": ds.train_mask,
        "train_mask_new": edited.train_mask,
        "predictions": fairwipe.predict(model, agg)[0],
        "pairs": ds.edge_pairs(),
        "nodes": np.arange(ds.n_nodes),
        "stats": degree_stats(ds),
        "rows": agg.values[ds.train_mask],
        "row_labels": ds.labels[ds.train_mask].astype(np.float64),
        "model": model,
        "aggregated": agg,
        "aggregated_new": aggregate(edited, 2, graph.SGC),
    }
    frozen = {name: value if name == "graph" else copied(value, False) for name, value in inputs.items()}
    kept = {name: [leaf.copy() for leaf in leaves(value)] for name, value in frozen.items() if name != "graph"}
    call = public_entry_calls()[entry]
    got = call(frozen)
    for name, was in kept.items():
        for leaf, before in zip(leaves(frozen[name]), was, strict=True):
            assert not leaf.flags.writeable or leaf.ndim == 0, name
            np.testing.assert_array_equal(leaf, before, err_msg=name)
    expected = call({name: value if name == "graph" else copied(value, True) for name, value in inputs.items()})
    for leaf, want in zip(leaves(got), leaves(expected), strict=True):
        np.testing.assert_array_equal(leaf, want)
