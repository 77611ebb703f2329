"""Certified unlearning core: one-step Newton weight updates, residual accounting,
worst-case feature-removal bounds, and noise calibration.

A removal request edits the dataset (features zeroed, edges dropped, or nodes
detached); the Newton step moves the trained weights toward the optimum of the
post-removal objective in closed form, and the data-dependent gradient residual
it leaves behind is what the certification budget accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from . import graph
from .graph import AggregatedFeatures, GraphDataset
from .model import LOGISTIC, TrainConfig, TrainedModel, logistic_hessian, train


@dataclass(frozen=True)
class FeatureRemoval:
    """Zero the listed feature columns across all nodes."""

    features: tuple[int, ...]

    def __post_init__(self):
        if not self.features:
            raise ValueError("removal request must be non-empty")

    def apply(self, dataset: GraphDataset) -> GraphDataset:
        return graph.zero_feature_columns(dataset, self.features)


@dataclass(frozen=True)
class EdgeRemoval:
    """Drop the listed undirected edges."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("removal request must be non-empty")

    def apply(self, dataset: GraphDataset) -> GraphDataset:
        return graph.remove_edges(dataset, self.edges)


@dataclass(frozen=True)
class NodeRemoval:
    """Detach the listed nodes (incident edges, features, and mask membership)."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("removal request must be non-empty")

    def apply(self, dataset: GraphDataset) -> GraphDataset:
        return graph.remove_nodes(dataset, self.nodes)


@dataclass(frozen=True)
class CertificationBudget:
    """Removal budget (epsilon, delta) with running residual accounting.

    ``c0`` is derived from ``delta = 1.5 * exp(-c0^2 / 2)``; ``epsilon_prime``
    is the gradient-residual bound the training-time noise was calibrated for.
    The budget is a value: recording a step returns a new instance.
    """

    epsilon: float
    delta: float
    epsilon_prime: float | None = None
    accumulated_residual: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.5:
            raise ValueError("delta must lie in (0, 1.5)")
        if self.epsilon_prime is not None and not self.epsilon_prime >= 0:
            raise ValueError("epsilon_prime must be >= 0")
        if self.accumulated_residual < 0:
            raise ValueError("accumulated residual cannot be negative")

    @property
    def c0(self) -> float:
        return math.sqrt(2.0 * math.log(1.5 / self.delta))

    @property
    def certified(self) -> bool | None:
        """Whether the accumulated residual fits within ``epsilon_prime``;
        None when no budget was set, since there is then nothing to certify."""
        if self.epsilon_prime is None:
            return None
        return self.accumulated_residual <= self.epsilon_prime

    def record(self, residual: float) -> "CertificationBudget":
        return replace(self, accumulated_residual=self.accumulated_residual + residual)


@dataclass(frozen=True)
class UnlearnResult:
    updated_weights: np.ndarray
    delta_vector: np.ndarray
    residual_norm: float


def newton_unlearn(
    model: TrainedModel,
    aggregated: AggregatedFeatures,
    aggregated_new: AggregatedFeatures,
    labels: np.ndarray,
    train_mask: np.ndarray,
    train_mask_new: np.ndarray | None = None,
    *,
    changed_rows: np.ndarray | None = None,
) -> UnlearnResult:
    """One-step second-order update approximating retraining on the edited data.

    The correction direction is the difference between the full training-loss
    gradients before and after the edit, evaluated at the current weights; it is
    pushed through the post-edit Hessian. When the edit shrinks the training set
    (node removal), the per-sample ridge count changes accordingly, which keeps
    the step aimed at the post-edit optimum.

    The reported ``residual_norm`` is the gradient norm of the post-removal
    training objective at the updated weights, including the perturbation the
    model was trained under: that is the quantity the removal guarantee
    controls, and it reduces to the plain training-loss gradient whenever the
    perturbation is zero. An unchanged dataset therefore always reports a
    residual at the optimizer tolerance, perturbed or not.

    A row whose aggregation and training-mask membership are both unchanged
    adds the same term to both gradients and cancels. ``changed_rows`` lists
    the rows where ``aggregated_new`` may differ from ``aggregated``, every
    other row being equal bit for bit, as ``graph.reaggregate`` recomputes
    them; the correction is then summed over those rows and the rows whose
    mask changed. Without ``changed_rows``, or once those rows cover more
    than half the graph, both gradients are full passes. The post-edit
    training rows are copied out once; the sigmoid at the current weights on
    them serves the Hessian and, on the full path, the gradient.
    """
    if aggregated.width != aggregated_new.width:
        raise ValueError("pre/post aggregation widths differ")
    if aggregated.width != model.dim:
        raise ValueError("model dimension does not match aggregation width")
    w = model.weights
    lam = model.lam
    y = np.asarray(labels, dtype=np.float64)
    mask_new = train_mask if train_mask_new is None else train_mask_new
    z_new = np.compress(mask_new, aggregated_new.values, axis=0)
    y_new = y[mask_new]
    m_old = int(np.count_nonzero(train_mask))
    m_new = z_new.shape[0]
    if m_new == 0:
        raise ValueError("post-removal training set is empty")

    sig_new = expit(z_new @ w)
    rows = None
    if changed_rows is not None:
        rows = np.union1d(changed_rows, np.flatnonzero(train_mask != mask_new))
        if 2 * rows.size > y.size:
            rows = None
    if rows is None:
        z_old = aggregated.values
        delta = z_old.T @ np.where(train_mask, expit(z_old @ w) - y, 0.0)
        delta -= z_new.T @ (sig_new - y_new)
    else:

        def row_terms(values, mask):
            z = values[rows]
            return z.T @ np.where(mask[rows], expit(z @ w) - y[rows], 0.0)

        delta = row_terms(aggregated.values, train_mask) - row_terms(aggregated_new.values, mask_new)
    delta += lam * (m_old - m_new) * w

    h = logistic_hessian(z_new, sig_new, lam)
    w_new = w + cho_solve(cho_factor(h), delta)

    residual = z_new.T @ (expit(z_new @ w_new) - y_new) + lam * m_new * w_new
    residual += model.perturbation
    return UnlearnResult(
        updated_weights=w_new,
        delta_vector=delta,
        residual_norm=float(np.linalg.norm(residual)),
    )


def worstcase_bound_feature(n_features: int, k: int, m: int, lam: float = 10.0) -> float:
    """A-priori gradient-residual bound for zeroing k of F features on all nodes.

    ``gamma2/m * [(2c sqrt(F) + c1 sqrt((F-k) m)) / (lam sqrt(F))]^2`` with the
    logistic loss constants. The same expression covers both aggregation
    schemes; F and k count raw features.
    """
    if not 0 <= k <= n_features:
        raise ValueError(f"k must lie in [0, {n_features}]")
    if m < 1:
        raise ValueError("m must be >= 1")
    root_f = math.sqrt(n_features)
    numer = 2.0 * LOGISTIC.c * root_f + LOGISTIC.c1 * math.sqrt((n_features - k) * m)
    return LOGISTIC.gamma2 / m * (numer / (lam * root_f)) ** 2


def calibrate_noise(budget: CertificationBudget) -> float:
    """Standard deviation of the objective perturbation for the planned removal.

    ``c0 * epsilon_prime / epsilon`` with ``c0 = sqrt(2 ln(1.5/delta))``; the
    scale is treated as a standard deviation. Requires ``epsilon_prime`` to be
    set (worst-case bound for feature removals; the configured removal budget
    for structural ones).
    """
    if budget.epsilon_prime is None:
        raise ValueError("budget.epsilon_prime must be set before noise calibration")
    return budget.c0 * budget.epsilon_prime / budget.epsilon


def sequential_unlearn(
    model: TrainedModel,
    dataset: GraphDataset,
    requests,
    budget: CertificationBudget,
    scheme: str = graph.SGC,
    hops: int = 2,
):
    """Apply removal requests in order, threading weights and residual budget.

    Each entry may be a concrete request or a callable ``dataset -> request``
    evaluated lazily on the current graph (used for re-scored edge batches).
    Processing continues past de-certification; the flag on the returned budget
    reports whether the accumulated residual still fits within
    ``budget.epsilon_prime``.

    Every edited aggregation is :func:`graph.reaggregate`, which recomputes
    only the rows the request can change; those rows are passed on to
    :func:`newton_unlearn` as ``changed_rows``. The returned graph carries its
    aggregation and hop blocks for ``(hops, scheme)``; a call given such a
    graph starts from them and takes them off it, since they are then
    edited in place. Any other input is aggregated in full once. Feeding each
    call the graph the previous one returned thus keeps every request about
    the size of its edit. One carrying graph must not be fed to two calls
    running at the same time in different threads.

    Returns ``(results, final_budget, edited_dataset)``; the edited dataset is
    included because lazily built requests cannot be replayed by the caller.
    """
    results: list[UnlearnResult] = []
    current = dataset
    step_model = model
    carried = dataset._carried_hops(hops, scheme)
    for request in requests:
        if callable(request):
            request = request(current)
        edited = request.apply(current)
        if carried is None:
            carried = graph.aggregate_hops(current, graph.build_propagation(current, hops), scheme)
        elif current is dataset:
            # reaggregate edits the blocks in place: the input must not keep them.
            dataset._carry_hops(hops, scheme, None)
        agg, blocks = carried
        agg_new, rows = graph._reaggregate(current, edited, agg, blocks)
        result = newton_unlearn(
            step_model,
            agg,
            agg_new,
            edited.labels,
            current.train_mask,
            edited.train_mask,
            changed_rows=rows,
        )
        results.append(result)
        budget = budget.record(result.residual_norm)
        step_model = replace(step_model, weights=result.updated_weights)
        current = edited
        carried = (agg_new, blocks)
    if carried is not None:
        current._carry_hops(hops, scheme, carried)
    return results, budget, current


def retrain_oracle(
    dataset: GraphDataset,
    config: TrainConfig,
    fixed_perturbation: np.ndarray,
    scheme: str = graph.SGC,
    hops: int = 2,
) -> TrainedModel:
    """Train from scratch on the edited dataset with the original perturbation.

    Reusing the exact perturbation vector makes the weight difference between
    the Newton update and this oracle measure only the update approximation.
    """
    prop = graph.build_propagation(dataset, hops)
    agg = graph.aggregate(dataset, prop, scheme)
    return train(dataset, agg, config, perturbation=fixed_perturbation)
