"""Bias quantification and fairness-aware selection of features, edges, and nodes.

Selection is score-based and training-free: features rank by absolute Pearson
correlation with the sensitive attribute, edges by an intra-edge/low-degree
score, nodes by an intra-heavy/low-degree score. Group metrics (statistical
parity, equal opportunity), the raw score-gap variant with its correlation
bound, and the structural diagnostics alpha1/alpha2 live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .graph import DegreeStats, GraphDataset, degree_stats
from .model import LOGISTIC

EDGE_KINDS = ("proposed", "random", "random-intra", "random-inter")
NODE_KINDS = ("proposed", "random", "bias-term-only", "degree-only")
NODE_SCOPES = ("train", "all")


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Top-k candidates in descending score order (ties break by lowest index)."""

    chosen: np.ndarray
    scores: np.ndarray


def _check_binary_groups(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s)
    if not np.isin(s, (0, 1)).all():
        raise ValueError("sensitive attribute must be binary 0/1")
    if (s == 0).sum() == 0 or (s == 1).sum() == 0:
        raise ValueError("both sensitive groups must be non-empty")
    return s


def pearson_correlations(columns: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pearson correlation of every column with s; zero-variance columns map to 0.

    A column counts as constant when its centred norm is below 1e-12 of its
    raw norm (at least 1), so constants at any offset map to exactly 0.
    """
    x = np.asarray(columns, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("columns must be a 2-D matrix")
    s = _check_binary_groups(s)
    if s.shape[0] != x.shape[0]:
        raise ValueError("sensitive vector must align with matrix rows")
    n = x.shape[0]
    # One BLAS pass; numpy's axis-0 reduction over narrow rows is ~3x slower.
    mean = np.full(n, 1.0 / n) @ x
    xc = x - mean
    sc = s.astype(np.float64) - s.mean()
    centred_sq = np.einsum("ij,ij->j", xc, xc)
    # ||x||^2 = ||xc||^2 + n*mean^2 because the centred columns sum to zero.
    raw_norm = np.sqrt(centred_sq + n * mean**2)
    x_norm = np.sqrt(centred_sq)
    live = x_norm > 1e-12 * np.maximum(1.0, raw_norm)
    rho = np.divide(xc.T @ sc, x_norm * np.linalg.norm(sc), out=np.zeros(x.shape[1]), where=live)
    return np.clip(rho, -1.0, 1.0)


def _top_k(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Sort by descending score, ties by lowest candidate, and take the first k.

    Only the candidates scoring at least the k-th highest score can be chosen,
    so a partition keeps those and the sort runs on them alone.
    """
    kth = -np.partition(-scores, k - 1)[k - 1]
    keep = np.flatnonzero(scores >= kth)
    top = candidates[keep]
    return top[np.lexsort((top, -scores[keep]))[:k]]


def select_features(features: np.ndarray, s: np.ndarray, k: int) -> SelectionResult:
    """Pick the k columns most correlated (in magnitude) with the sensitive attribute."""
    features = np.asarray(features)
    n_features = features.shape[1]
    if not 1 <= k <= n_features:
        raise ValueError(f"k must lie in [1, {n_features}]")
    scores = np.abs(pearson_correlations(features, s))
    return SelectionResult(chosen=_top_k(scores, np.arange(n_features), k), scores=scores)


def edge_bias_scores(pairs: np.ndarray, s: np.ndarray, stats: DegreeStats) -> np.ndarray:
    """Intra-edges score 1/min(d_i, d_j); inter-edges score 0."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=np.int64))
    return graph._edge_scores(pairs[:, 0], pairs[:, 1], np.asarray(s), stats.degree)


def _node_factors(nodes: np.ndarray, stats: DegreeStats) -> tuple[np.ndarray, np.ndarray]:
    """The bias term d_w/(1+d_x) and the degree d of each node, as float64.

    An isolated node has no intra-edges, so its bias term is 0 / 1 = 0.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    return stats.intra_degree[nodes] / (1.0 + stats.inter_degree[nodes]), stats.degree[nodes].astype(np.float64)


def node_bias_scores(nodes: np.ndarray, stats: DegreeStats) -> np.ndarray:
    """Intra-to-inter imbalance damped by degree: d_w/(1+d_x) * 1/d; isolated nodes score 0."""
    bias, d = _node_factors(nodes, stats)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d > 0, bias / d, 0.0)


def _check_kind(kind: str, kinds: tuple[str, ...], what: str) -> None:
    if kind not in kinds:
        raise ValueError(f"unknown {what} selection kind {kind!r}; expected one of {kinds}")


def select_edges(dataset: GraphDataset, k: int, kind: str = "proposed", seed: int | None = None) -> SelectionResult:
    """Top-k edges for removal under one of :data:`EDGE_KINDS`.

    ``proposed`` ranks by the scores memoised for the graph, which
    :func:`graph.remove_edges` carries to its result re-scored only where the
    degrees changed. The random kinds rank by a seeded uniform draw, plus 1
    on intra- (``random-intra``) or inter-edges (``random-inter``). Edges
    rank as their memoised ``i * n + j`` keys, which sort as the pairs do;
    only the k chosen keys become pairs.
    """
    _check_kind(kind, EDGE_KINDS, "edge")
    keys = graph._edge_keys(dataset)
    if not 1 <= k <= len(keys):
        raise ValueError(f"k must lie in [1, {len(keys)}]")
    if kind == "proposed":
        scores = graph._proposed_edge_scores(dataset)
    else:
        scores = np.random.default_rng(seed).random(len(keys))
        if kind != "random":
            i, j = np.divmod(keys, dataset.n_nodes)
            intra = dataset.sensitive[i] == dataset.sensitive[j]
            scores += intra if kind == "random-intra" else ~intra
    chosen = np.column_stack(np.divmod(_top_k(scores, keys, k), dataset.n_nodes))
    return SelectionResult(chosen=chosen, scores=scores)


def select_nodes(
    dataset: GraphDataset,
    k: int,
    scope: str = "train",
    kind: str = "proposed",
    seed: int | None = None,
) -> SelectionResult:
    """Top-k nodes for removal under one of :data:`NODE_KINDS`, from one of :data:`NODE_SCOPES`: training set or graph.

    ``bias-term-only`` and ``degree-only`` score by the two factors of :func:`node_bias_scores`.
    """
    _check_kind(kind, NODE_KINDS, "node")
    if scope not in NODE_SCOPES:
        raise ValueError(f"scope must be one of {NODE_SCOPES}, got {scope!r}")
    nodes = np.flatnonzero(dataset.train_mask) if scope == "train" else np.arange(dataset.n_nodes)
    if not 1 <= k <= len(nodes):
        raise ValueError(f"k must lie in [1, {len(nodes)}] for scope {scope!r}")
    if kind == "random":
        scores = np.random.default_rng(seed).random(len(nodes))
    elif kind == "proposed":
        scores = node_bias_scores(nodes, degree_stats(dataset))
    else:
        bias, d = _node_factors(nodes, degree_stats(dataset))
        with np.errstate(divide="ignore"):
            scores = bias if kind == "bias-term-only" else np.where(d > 0, 1.0 / d, 0.0)
    return SelectionResult(chosen=_top_k(scores, nodes, k), scores=scores)


def fairness_metrics(predictions, labels, s, test_mask):
    """Statistical parity and equal opportunity gaps over the test nodes.

    Both are absolute differences of empirical positive-prediction rates, the
    second conditioned on positive ground truth.
    """
    predictions = np.asarray(predictions)[test_mask]
    labels = np.asarray(labels)[test_mask]
    s = np.asarray(s)[test_mask]
    rates = []
    tpr = []
    for group in (0, 1):
        in_group = s == group
        if in_group.sum() == 0:
            raise ValueError(f"sensitive group {group} is empty on the test set")
        rates.append((predictions[in_group] == 1).mean())
        positives = in_group & (labels == 1)
        if positives.sum() == 0:
            raise ValueError(f"no positive-label nodes for group {group} on the test set")
        tpr.append((predictions[positives] == 1).mean())
    return float(abs(rates[0] - rates[1])), float(abs(tpr[0] - tpr[1]))


def raw_sp_and_bound(matrix: np.ndarray, weights: np.ndarray, s: np.ndarray, lam: float):
    """Group gap of mean raw scores, plus its correlation-norm upper bound.

    The bound is ``c N^(3/2) s_bar sigma ||rho|| / (|S0| |S1| lam)`` with ``c``
    the logistic loss constant, ``s_bar`` the norm of the centered sensitive
    vector and ``rho`` computed on the same matrix the scores come from.
    ``sigma`` is pooled as the root-mean-square per-column standard deviation
    over all columns (zeroed columns included, so the bound shrinks as columns
    are removed).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    s = _check_binary_groups(s)
    raw_sp = _score_gap(matrix @ np.asarray(weights, dtype=np.float64), s)
    n = matrix.shape[0]
    n0 = int((s == 0).sum())
    n1 = int((s == 1).sum())
    s_bar = float(np.linalg.norm(s - s.mean()))
    sigma = float(np.sqrt(matrix.var(axis=0).mean()))
    rho_norm = float(np.linalg.norm(pearson_correlations(matrix, s)))
    bound = LOGISTIC.c * n**1.5 * s_bar * sigma * rho_norm / (n0 * n1 * lam)
    return raw_sp, float(bound)


def _score_gap(scores: np.ndarray, s: np.ndarray) -> float:
    """Absolute gap between the groups' mean scores."""
    return float(abs(scores[s == 0].mean() - scores[s == 1].mean()))


def alpha_diagnostics(dataset: GraphDataset):
    """Structural bias diagnostics from group boundary sizes and degree ratios.

    ``alpha1 = |1 - |S0_boundary|/|S0| - |S1_boundary|/|S1||``;
    ``alpha2 = |1 - 2 min_g mean(d_inter/d over connected nodes of group g)|``.
    Isolated nodes are excluded from the means; a fully isolated group is an
    error because its mean is undefined.
    """
    s = _check_binary_groups(dataset.sensitive)
    stats = degree_stats(dataset)
    g0, g1 = stats.group_sizes
    b0, b1 = stats.boundary_sizes
    alpha1 = abs(1.0 - b0 / g0 - b1 / g1)
    means = []
    for group in (0, 1):
        connected = (s == group) & (stats.degree > 0)
        if connected.sum() == 0:
            raise ValueError(f"all nodes of group {group} are isolated; degree-ratio mean undefined")
        ratios = stats.inter_degree[connected] / stats.degree[connected]
        means.append(ratios.mean())
    alpha2 = abs(1.0 - 2.0 * min(means))
    return float(alpha1), float(alpha2)
