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

ABLATION_KINDS = ("proposed", "random", "random-intra", "random-inter", "bias-term-only", "degree-only")


@dataclass(frozen=True)
class CorrelationVector:
    """Per-column Pearson correlation with the sensitive attribute."""

    rho: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.rho))


@dataclass(frozen=True)
class SelectionResult:
    """Top-k candidates in descending score order (ties break by lowest index)."""

    chosen: np.ndarray
    scores: np.ndarray
    candidates: np.ndarray
    budget: int


@dataclass(frozen=True)
class FairnessReport:
    accuracy: float
    delta_sp: float
    delta_eo: float
    raw_sp: float
    rho_norm: float
    alpha1: float
    alpha2: float


def _check_binary_groups(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s)
    if not np.isin(s, (0, 1)).all():
        raise ValueError("sensitive attribute must be binary 0/1")
    if (s == 0).sum() == 0 or (s == 1).sum() == 0:
        raise ValueError("both sensitive groups must be non-empty")
    return s


def pearson_correlations(columns: np.ndarray, s: np.ndarray) -> CorrelationVector:
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
    return CorrelationVector(rho=np.clip(rho, -1.0, 1.0))


def _top_k(scores: np.ndarray, candidates: np.ndarray, k: int) -> SelectionResult:
    """Sort by descending score, ties by lowest candidate, and take the first k.

    Only the candidates scoring at least the k-th highest score can be chosen,
    so a partition keeps those and the sort runs on them alone.
    """
    kth = -np.partition(-scores, k - 1)[k - 1]
    keep = np.flatnonzero(scores >= kth)
    top_scores, top = scores[keep], candidates[keep]
    if top.ndim == 1:
        order = np.lexsort((top, -top_scores))
    else:
        order = np.lexsort((top[:, 1], top[:, 0], -top_scores))
    chosen = top[order[:k]]
    return SelectionResult(chosen=chosen, scores=scores, candidates=candidates, budget=k)


def select_features(features: np.ndarray, s: np.ndarray, k: int) -> SelectionResult:
    """Pick the k columns most correlated (in magnitude) with the sensitive attribute."""
    features = np.asarray(features)
    n_features = features.shape[1]
    if not 1 <= k <= n_features:
        raise ValueError(f"k must lie in [1, {n_features}]")
    scores = np.abs(pearson_correlations(features, s).rho)
    return _top_k(scores, np.arange(n_features), k)


def edge_bias_scores(pairs: np.ndarray, s: np.ndarray, stats: DegreeStats) -> np.ndarray:
    """Intra-edges score 1/min(d_i, d_j); inter-edges score 0."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=np.int64))
    return graph._edge_scores(pairs, np.asarray(s), stats.degree)


def node_bias_scores(nodes: np.ndarray, stats: DegreeStats) -> np.ndarray:
    """Intra-to-inter imbalance damped by degree: d_w/(1+d_x) * 1/d; isolated nodes score 0."""
    nodes = np.asarray(nodes, dtype=np.int64)
    d = stats.degree[nodes].astype(np.float64)
    d_inter = stats.inter_degree[nodes].astype(np.float64)
    d_intra = stats.intra_degree[nodes].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = d_intra / (1.0 + d_inter) / d
    return np.where(d > 0, score, 0.0)


def ablation_variants(kind: str, seed: int | None = None):
    """Scorer factory for the selection ablations.

    Returns ``scorer(stats, s, pairs=None, nodes=None) -> scores``. Random
    variants draw a fresh seeded generator per call, so scores are
    deterministic for a fixed seed. The intra/inter random variants offset one
    edge class above the other; the bias-term-only and degree-only variants
    split the node score into its two factors.
    """
    if kind not in ABLATION_KINDS:
        raise ValueError(f"unknown selection kind {kind!r}; expected one of {ABLATION_KINDS}")

    def scorer(stats: DegreeStats, s: np.ndarray, pairs: np.ndarray | None = None, nodes: np.ndarray | None = None):
        if (pairs is None) == (nodes is None):
            raise ValueError("provide exactly one of pairs or nodes")
        n = len(pairs) if pairs is not None else len(nodes)
        rng = np.random.default_rng(seed)
        if kind == "proposed":
            if pairs is not None:
                return edge_bias_scores(pairs, s, stats)
            return node_bias_scores(nodes, stats)
        if kind == "random":
            return rng.random(n)
        if kind in ("random-intra", "random-inter"):
            if pairs is None:
                raise ValueError(f"{kind} is an edge-selection ablation")
            intra = np.asarray(s)[pairs[:, 0]] == np.asarray(s)[pairs[:, 1]]
            favored = intra if kind == "random-intra" else ~intra
            return rng.random(n) + favored
        if nodes is None:
            raise ValueError(f"{kind} is a node-selection ablation")
        nodes = np.asarray(nodes, dtype=np.int64)
        d = stats.degree[nodes].astype(np.float64)
        if kind == "bias-term-only":
            return np.where(d > 0, stats.intra_degree[nodes] / (1.0 + stats.inter_degree[nodes]), 0.0)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, 1.0 / d, 0.0)

    return scorer


def select_edges(dataset: GraphDataset, k: int, kind: str = "proposed", seed: int | None = None) -> SelectionResult:
    """Top-k edges for removal under the given scoring variant.

    The proposed scores are the ones memoised on the graph, which
    :func:`graph.remove_edges` carries to its result re-scored only where the
    degrees changed; the ablations score over :func:`degree_stats`.
    """
    pairs = dataset.edge_pairs()
    if not 1 <= k <= len(pairs):
        raise ValueError(f"k must lie in [1, {len(pairs)}]")
    if kind == "proposed":
        scores = graph._proposed_edge_scores(dataset)
    else:
        scores = ablation_variants(kind, seed)(degree_stats(dataset), dataset.sensitive, pairs=pairs)
    return _top_k(scores, pairs, k)


def select_nodes(
    dataset: GraphDataset,
    k: int,
    scope: str = "train",
    kind: str = "proposed",
    seed: int | None = None,
) -> SelectionResult:
    """Top-k nodes for removal, drawn from the training set or the whole graph."""
    if scope == "train":
        nodes = np.flatnonzero(dataset.train_mask)
    elif scope == "all":
        nodes = np.arange(dataset.n_nodes)
    else:
        raise ValueError("scope must be 'train' or 'all'")
    if not 1 <= k <= len(nodes):
        raise ValueError(f"k must lie in [1, {len(nodes)}] for scope {scope!r}")
    scores = ablation_variants(kind, seed)(degree_stats(dataset), dataset.sensitive, nodes=nodes)
    return _top_k(scores, nodes, k)


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
    rho_norm = pearson_correlations(matrix, s).norm
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
