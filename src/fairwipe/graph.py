"""Graph data model, normalized propagation, multi-hop aggregation, and structural edits.

All values are immutable after construction: structural edits (edge/node removal,
feature zeroing) return new :class:`GraphDataset` instances. :func:`aggregate`
propagates from scratch; :func:`reaggregate` carries the per-hop blocks of one
graph over to an edited copy and recomputes only the rows the edit can reach.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

SGC = "sgc"
GPR = "gpr"


@dataclass(frozen=True)
class GraphDataset:
    """An attributed graph with a binary sensitive attribute and binary labels.

    The adjacency matrix is symmetric CSR with zero diagonal (self-loops are
    added only when building the propagation operator) and strictly positive
    stored values. Masks select disjoint train/validation/test node sets.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency must be square")
        if self.features.shape[0] != n:
            raise ValueError(f"features have {self.features.shape[0]} rows, expected {n}")
        for name in ("sensitive", "labels", "train_mask", "val_mask", "test_mask"):
            v = getattr(self, name)
            if v.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        if self.adjacency.diagonal().any():
            raise ValueError("adjacency must have zero diagonal (no stored self-loops)")
        if self.adjacency.nnz and self.adjacency.data.min() <= 0:
            raise ValueError("adjacency entries must be positive")
        if (self.adjacency != self.adjacency.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        for name in ("sensitive", "labels"):
            v = np.asarray(getattr(self, name))
            if not np.isin(v, (0, 1)).all():
                raise ValueError(f"{name} must be binary 0/1")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise ValueError("train/val/test masks must be pairwise disjoint")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self.adjacency.nnz // 2

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as an (n_edges, 2) array of pairs with i < j, sorted by (i, j).

        The upper triangle is read row by row from the CSR arrays, which is
        already lexicographic once each row's column indices are sorted.
        """
        adj = self.adjacency
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        rows = np.repeat(np.arange(self.n_nodes, dtype=adj.indices.dtype), np.diff(adj.indptr))
        upper = adj.indices > rows
        return np.column_stack([rows[upper], adj.indices[upper]])


@dataclass(frozen=True)
class PropagationOperator:
    """Row-stochastic propagation matrix with self-loops, plus the hop count."""

    matrix: sp.csr_matrix
    hops: int

    def __post_init__(self):
        if self.hops < 0:
            raise ValueError("hops must be >= 0")


@dataclass(frozen=True)
class AggregatedFeatures:
    """Multi-hop aggregated node representations.

    ``values`` has shape N x F for single-branch aggregation and N x F(L+1)
    for the concatenated multi-hop variant.
    """

    values: np.ndarray
    scheme: str

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DegreeStats:
    """Per-node degree decomposition by sensitive group, plus global counts.

    Degrees are edge counts on the raw adjacency (no self-loops);
    ``inter_degree[i] + intra_degree[i] == degree[i]`` for every node.
    """

    degree: np.ndarray
    inter_degree: np.ndarray
    intra_degree: np.ndarray
    group_sizes: tuple[int, int]
    boundary_sizes: tuple[int, int]
    inter_edges: int
    intra_edges: int

    @property
    def total_edges(self) -> int:
        return self.inter_edges + self.intra_edges


def _row_normalize(a_bar: sp.csr_matrix) -> sp.csr_matrix:
    """Scale every row of ``a_bar`` (adjacency rows plus their self-loops) in place to sum to 1."""
    inv_deg = 1.0 / np.asarray(a_bar.sum(axis=1)).ravel()
    a_bar.data *= np.repeat(inv_deg, np.diff(a_bar.indptr))
    return a_bar


def build_propagation(dataset: GraphDataset, hops: int) -> PropagationOperator:
    """Left-normalize the adjacency with self-loops: every row of the result sums to 1."""
    a_bar = (dataset.adjacency + sp.identity(dataset.n_nodes, format="csr")).tocsr()
    return PropagationOperator(matrix=_row_normalize(a_bar), hops=hops)


def _propagation_rows(adjacency: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """The listed rows of the propagation matrix, built from those adjacency rows alone."""
    m = rows.size
    loops = sp.csr_matrix((np.ones(m), rows, np.arange(m + 1)), shape=(m, adjacency.shape[1]))
    return _row_normalize((adjacency[rows] + loops).tocsr())


def _propagate_hops(features: np.ndarray, matrix: sp.csr_matrix, hops: int):
    """Yield the hop blocks ``X, PX, ..., P^L X`` one at a time."""
    z = features
    yield z
    for _ in range(hops):
        z = np.asarray(matrix.dot(z))
        yield z


def _combine(blocks, scheme: str, hops: int) -> np.ndarray:
    """SGC keeps the last hop block; GPR concatenates all of them scaled by 1/(L+1).

    ``blocks`` may be a generator, in which case SGC holds one hop at a time.
    """
    if scheme == SGC:
        return deque(blocks, maxlen=1)[0]
    values = np.hstack(list(blocks), dtype=np.float64)
    values /= hops + 1
    return values


def _check_aggregation(dataset: GraphDataset, prop: PropagationOperator, scheme: str) -> None:
    p = prop.matrix
    if p.shape[1] != dataset.n_nodes:
        raise ValueError(f"propagation is {p.shape[0]}x{p.shape[1]} but features have {dataset.n_nodes} rows")
    if scheme not in (SGC, GPR):
        raise ValueError(f"unknown aggregation scheme: {scheme!r}")


def aggregate(dataset: GraphDataset, prop: PropagationOperator, scheme: str = SGC) -> AggregatedFeatures:
    """Propagate features over ``prop.hops`` hops.

    ``sgc`` returns the L-fold propagated features; ``gpr`` returns the
    1/(L+1)-scaled horizontal concatenation of all hop powers from 0 to L.
    """
    _check_aggregation(dataset, prop, scheme)
    blocks = _propagate_hops(dataset.features, prop.matrix, prop.hops)
    return AggregatedFeatures(values=_combine(blocks, scheme, prop.hops), scheme=scheme)


def aggregate_hops(
    dataset: GraphDataset, prop: PropagationOperator, scheme: str = SGC
) -> tuple[AggregatedFeatures, list[np.ndarray]]:
    """:func:`aggregate`, also returning the hop blocks ``X, PX, ..., P^L X`` for :func:`reaggregate`."""
    _check_aggregation(dataset, prop, scheme)
    blocks = list(_propagate_hops(dataset.features, prop.matrix, prop.hops))
    return AggregatedFeatures(values=_combine(blocks, scheme, prop.hops), scheme=scheme), blocks


def reaggregate(
    before: GraphDataset,
    after: GraphDataset,
    aggregated: AggregatedFeatures,
    blocks: list[np.ndarray],
) -> AggregatedFeatures:
    """Aggregate ``after`` from ``before``'s hop blocks, recomputing only the rows that can change.

    ``blocks`` and ``aggregated`` come from :func:`aggregate_hops` on ``before``
    (or from an earlier call of this function); ``blocks`` is updated in place
    to ``after``'s hop blocks, ``aggregated`` is left as it was. ``after`` must
    differ from ``before`` only by removed edges and changed feature rows, as
    the removal requests produce. Row i of hop k can then change only if

    - i's degree changed: with edges only removed, these are exactly the rows
      whose propagation row changed;
    - i changed at hop k-1, or is a neighbour in ``after`` of such a row;

    with the changed feature rows as hop 0's set. Only those rows of
    ``after``'s propagation matrix are built; once the set covers more than
    half the graph the hop is the full product. The result equals
    ``aggregate(after, build_propagation(after, L), scheme)``.
    """
    hops = len(blocks) - 1
    scheme = aggregated.scheme
    n = after.n_nodes
    adj = after.adjacency
    degree_changed = np.diff(adj.indptr) != np.diff(before.adjacency.indptr)
    if after.features is before.features:
        changed = np.zeros(n, dtype=bool)
    else:
        changed = (after.features != before.features).any(axis=1)
    blocks[0] = after.features
    rows = np.flatnonzero(changed)
    # Per hop: the recomputed rows, or None once the hop is the full product.
    row_sets = [rows]
    p = None
    for k in range(1, hops + 1):
        if rows is not None:
            if rows.size:
                changed[adj[rows].indices] = True
            changed |= degree_changed
            rows = np.flatnonzero(changed)
            if 2 * rows.size > n:
                rows = None
        if rows is None:
            if p is None:
                p = build_propagation(after, hops).matrix
            blocks[k] = np.asarray(p.dot(blocks[k - 1]))
        elif rows.size:
            if scheme == SGC and k == hops:
                # The last SGC block is ``aggregated.values``: edit a copy.
                blocks[k] = blocks[k].copy()
            blocks[k][rows] = _propagation_rows(adj, rows).dot(blocks[k - 1])
        row_sets.append(rows)
    if scheme == SGC:
        return AggregatedFeatures(values=blocks[hops], scheme=scheme)
    values = aggregated.values.copy()
    f = after.n_features
    for k, rows in enumerate(row_sets):
        cols = slice(k * f, (k + 1) * f)
        if rows is None:
            np.divide(blocks[k], hops + 1, out=values[:, cols])
        elif rows.size:
            values[rows, cols] = blocks[k][rows] / (hops + 1)
    return AggregatedFeatures(values=values, scheme=scheme)


def _canonical_pairs(edges) -> np.ndarray:
    """The pairs as (min, max) rows in lexicographic order; self-loops are rejected."""
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (i, j) pairs")
    pairs = np.sort(pairs, axis=1)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("self-loops are not valid edges")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def remove_edges(dataset: GraphDataset, edges) -> GraphDataset:
    """Delete both directed entries of each undirected pair; everything else is unchanged.

    The request is atomic: if any listed edge is absent, nothing is removed.
    Pair direction does not matter and a repeated pair removes its edge once.
    Both CSR positions of every pair are found by one search over the sorted
    ``row * n + col`` keys; the edit drops them and shifts ``indptr``.
    """
    edges = list(edges)
    if not edges:
        return dataset
    pairs = _canonical_pairs(edges)
    n = dataset.n_nodes
    if pairs.min() < 0 or pairs.max() >= n:
        raise IndexError(f"edge index out of range [0, {n})")
    adj = dataset.adjacency
    if not adj.has_canonical_format:
        adj = adj.copy()
        adj.sum_duplicates()
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr)) * n + adj.indices
    wanted = np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]])
    pos = np.searchsorted(keys, wanted)
    found = pos < keys.size
    found[found] = keys[pos[found]] == wanted[found]
    present = found[: len(pairs)] & found[len(pairs) :]
    if not present.all():
        missing = pairs[~present][0]
        raise ValueError(f"edge {tuple(missing)} not present; rejecting the whole request")
    doomed = np.unique(pos)
    indptr = adj.indptr.copy()
    indptr[1:] -= np.cumsum(np.bincount(keys[doomed] // n, minlength=n)).astype(indptr.dtype)
    new_adj = sp.csr_matrix(
        (np.delete(adj.data, doomed), np.delete(adj.indices, doomed), indptr), shape=(n, n)
    )
    new_adj.has_canonical_format = True
    return GraphDataset(
        adjacency=new_adj,
        features=dataset.features,
        sensitive=dataset.sensitive,
        labels=dataset.labels,
        train_mask=dataset.train_mask,
        val_mask=dataset.val_mask,
        test_mask=dataset.test_mask,
    )


def remove_nodes(dataset: GraphDataset, nodes) -> GraphDataset:
    """Detach nodes in place: drop incident edges, zero the feature rows, clear masks.

    Indices are kept stable (no compaction) so weight dimensionality and row
    alignment survive a sequence of removals.
    """
    nodes = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
    if nodes.size == 0:
        return dataset
    n = dataset.n_nodes
    if nodes.min() < 0 or nodes.max() >= n:
        raise ValueError(f"node index out of range [0, {n})")
    keep = np.ones(n, dtype=bool)
    keep[nodes] = False
    coo = dataset.adjacency.tocoo()
    alive = keep[coo.row] & keep[coo.col]
    new_adj = sp.csr_matrix((coo.data[alive], (coo.row[alive], coo.col[alive])), shape=(n, n))
    new_x = dataset.features.copy()
    new_x[nodes, :] = 0.0
    masks = []
    for mask in (dataset.train_mask, dataset.val_mask, dataset.test_mask):
        m = mask.copy()
        m[nodes] = False
        masks.append(m)
    return GraphDataset(
        adjacency=new_adj,
        features=new_x,
        sensitive=dataset.sensitive,
        labels=dataset.labels,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
    )


def zero_feature_columns(dataset: GraphDataset, columns) -> GraphDataset:
    """Zero the listed feature columns for all nodes (graph structure unchanged)."""
    cols = np.asarray(sorted(set(int(c) for c in columns)), dtype=np.int64)
    if cols.size == 0:
        return dataset
    f = dataset.n_features
    if cols.min() < 0 or cols.max() >= f:
        raise ValueError(f"feature index out of range [0, {f})")
    new_x = dataset.features.copy()
    new_x[:, cols] = 0.0
    return GraphDataset(
        adjacency=dataset.adjacency,
        features=new_x,
        sensitive=dataset.sensitive,
        labels=dataset.labels,
        train_mask=dataset.train_mask,
        val_mask=dataset.val_mask,
        test_mask=dataset.test_mask,
    )


def degree_stats(dataset: GraphDataset) -> DegreeStats:
    """Count total/inter/intra degrees per node and group/boundary/edge totals.

    An inter-edge joins nodes with different sensitive values, an intra-edge
    joins nodes within the same group. Each undirected edge counts once in the
    edge totals.
    """
    s = np.asarray(dataset.sensitive, dtype=np.int64)
    adj = dataset.adjacency
    degree = np.diff(adj.indptr).astype(np.int64)
    # Neighbours in group 1, counted by one product over the stored pattern.
    pattern = sp.csr_matrix((np.ones(adj.nnz, dtype=np.int64), adj.indices, adj.indptr), shape=adj.shape)
    in_group1 = pattern @ s
    inter_degree = np.where(s == 1, degree - in_group1, in_group1)
    intra_degree = degree - inter_degree
    n_inter = int(inter_degree.sum()) // 2
    n_intra = int(intra_degree.sum()) // 2
    g0 = int((s == 0).sum())
    g1 = int((s == 1).sum())
    b0 = int(((s == 0) & (inter_degree > 0)).sum())
    b1 = int(((s == 1) & (inter_degree > 0)).sum())
    return DegreeStats(
        degree=degree,
        inter_degree=inter_degree,
        intra_degree=intra_degree,
        group_sizes=(g0, g1),
        boundary_sizes=(b0, b1),
        inter_edges=n_inter,
        intra_edges=n_intra,
    )
