"""Synthetic graph generators for experiments, demos, and verification suites.

Feature generators follow the working assumptions of the analysis: i.i.d.
zero-mean Gaussian rows with a common per-column scale and row norms capped at
one. Graph generators cover plain random graphs and two-block homophilous
graphs with a planted sensitive-correlated feature.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .graph import GraphDataset, _sorted_unique, _symmetric_adjacency


def gaussian_features(n: int, f: int, rng: np.random.Generator, sigma: float | None = None) -> np.ndarray:
    """I.i.d. Normal(0, sigma^2) features with every row norm capped at 1.

    The default sigma is 1/(5 sqrt(F)), which keeps row norms below 1 with
    high probability before the cap even triggers.
    """
    if sigma is None:
        sigma = 1.0 / (5.0 * np.sqrt(f))
    x = rng.normal(0.0, sigma, size=(n, f))
    norms = np.linalg.norm(x, axis=1)
    over = norms > 1.0
    if over.any():
        x[over] /= norms[over, None]
    return x


def random_adjacency(n: int, avg_degree: float, rng: np.random.Generator) -> sp.csr_matrix:
    """Symmetric binary adjacency with roughly the requested average degree.

    The edges are not uniform. Of about ``2 * target`` pairs drawn, the
    ``target`` smallest keys ``lo * n + hi`` are kept, which is about half,
    and the median lower end of a uniform pair is ``(1 - 1/sqrt(2)) * n``:
    every edge has its lower end among the first 29% or so of node ids. At
    n=30000 and avg_degree=10 (``feature_unlearning_instance``, seed 23) every
    lower end is below id 8817; those nodes have mean degree 20.0, the rest 5.9.
    """
    target = int(n * avg_degree / 2)
    rows = rng.integers(0, n, size=2 * target)
    cols = rng.integers(0, n, size=2 * target)
    keep = rows != cols
    lo = np.minimum(rows[keep], cols[keep])
    hi = np.maximum(rows[keep], cols[keep])
    pairs = _sorted_unique(lo.astype(np.int64) * n + hi)[:target]
    # Rebinding frees the drawn pairs before the CSR build allocates its own arrays.
    lo, hi = pairs // n, pairs % n
    return _symmetric_adjacency(lo, hi, n)


def sbm_adjacency(s: np.ndarray, p_in: float, p_out: float, rng: np.random.Generator) -> sp.csr_matrix:
    """Two-block stochastic block model keyed on the sensitive vector."""
    n = len(s)
    iu = np.triu_indices(n, k=1)
    same = s[iu[0]] == s[iu[1]]
    prob = np.where(same, p_in, p_out)
    present = rng.random(len(prob)) < prob
    return _symmetric_adjacency(iu[0][present], iu[1][present], n)


def split_masks(n: int, fractions: tuple[float, float, float], rng: np.random.Generator):
    """Disjoint boolean masks from a uniform node permutation, each an array of its own."""
    perm = rng.permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    masks = tuple(np.zeros(n, dtype=bool) for _ in range(3))
    for mask, part in zip(masks, np.split(perm, [n_train, n_train + n_val])):
        mask[part] = True
    return masks


def feature_unlearning_instance(
    n: int = 200,
    f: int = 10,
    seed: int = 0,
    avg_degree: float = 6.0,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> GraphDataset:
    """Random graph with assumption-compliant features and hyperplane labels."""
    rng = np.random.default_rng(seed)
    x = gaussian_features(n, f, rng)
    adj = random_adjacency(n, avg_degree, rng)
    direction = rng.normal(size=f)
    margin = x @ direction + 0.05 * rng.normal(size=n)
    labels = (margin > np.median(margin)).astype(np.int64)
    sensitive = rng.integers(0, 2, size=n)
    while sensitive.sum() in (0, n):
        sensitive = rng.integers(0, 2, size=n)
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


def homophilous_dataset(
    n: int = 100,
    f: int = 8,
    seed: int = 0,
    p_in: float = 0.25,
    p_out: float = 0.03,
    bias_strength: float = 0.8,
    label_tilt: float = 0.6,
    fractions: tuple[float, float, float] = (0.5, 0.1, 0.4),
) -> GraphDataset:
    """Two-group homophilous graph with one planted sensitive-correlated feature.

    Column 0 mixes the centered sensitive attribute with noise at the common
    per-column scale; labels follow a signal column plus a sensitive-leaning
    tilt (``label_tilt``), so a trained model exhibits a measurable parity gap
    that structural edits can move.
    """
    rng = np.random.default_rng(seed)
    sensitive = np.zeros(n, dtype=np.int64)
    sensitive[n // 2 :] = 1
    sigma = 1.0 / (5.0 * np.sqrt(f))
    x = gaussian_features(n, f, rng, sigma=sigma)
    s_centered = (sensitive - sensitive.mean()) / max(sensitive.std(), 1e-12)
    x[:, 0] = sigma * (bias_strength * s_centered + np.sqrt(1 - bias_strength**2) * rng.normal(size=n))
    logits = (x[:, 1] + 0.8 * x[:, 0]) / sigma + label_tilt * s_centered
    labels = (rng.random(n) < expit(logits)).astype(np.int64)
    if labels.sum() in (0, n):
        labels[rng.integers(0, n)] = 1 - labels[0]
    adj = sbm_adjacency(sensitive, p_in, p_out, rng)
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


def planted_bias_features(
    n: int,
    f: int,
    planted_column: int,
    rng: np.random.Generator,
    correlation: float = 0.9,
):
    """Noise features plus one column correlated with a random binary attribute.

    Returns ``(features, sensitive)``; every column has the same marginal scale
    so correlation alone distinguishes the planted one.
    """
    sensitive = rng.integers(0, 2, size=n)
    while sensitive.sum() in (0, n):
        sensitive = rng.integers(0, 2, size=n)
    sigma = 1.0 / (5.0 * np.sqrt(f))
    x = gaussian_features(n, f, rng, sigma=sigma)
    s_centered = (sensitive - sensitive.mean()) / max(sensitive.std(), 1e-12)
    x[:, planted_column] = sigma * (
        correlation * s_centered + np.sqrt(1 - correlation**2) * rng.normal(size=n)
    )
    return x, sensitive
