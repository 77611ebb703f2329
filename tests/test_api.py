"""The public contract: the names the package offers, and the settings every certified call states."""

import types

import pytest

import fairwipe
from fairwipe import graph
from fairwipe.graph import aggregate
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
