"""Graph data model, normalized propagation, multi-hop aggregation, and structural edits.

All values are immutable after construction: structural edits (edge/node removal,
feature zeroing) return new :class:`GraphDataset` instances. :func:`aggregate`
propagates from scratch; :func:`reaggregate` carries the per-hop blocks of one
graph over to an edited copy and recomputes only the rows the edit can reach.
Edge pairs, degree statistics and edge scores are memoised on the graph, and
:func:`remove_edges` carries them over to its result, updated for the edit;
:func:`zero_feature_columns` keeps them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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

    ``_hop_state`` is private: the aggregation and hop blocks a
    ``sequential_unlearn`` call left on the graph it returned, keyed by
    ``(hops, scheme)``. ``_memo`` is private too: the read-only edge pairs,
    degree statistics and edge scores computed for this graph so far. Neither
    is an ``__init__`` argument; both are excluded from ``repr`` and ``==``,
    and are dropped by ``dataclasses.replace``, copies and pickles, so no two
    graphs share them. The memo depends only on the adjacency and the
    sensitive column, so the edits and splits that keep both start their
    result with a copy of it.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    _hop_state: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_fields()
        if self.adjacency.diagonal().any():
            raise ValueError("adjacency must have zero diagonal (no stored self-loops)")
        if self.adjacency.nnz and self.adjacency.data.min() <= 0:
            raise ValueError("adjacency entries must be positive")
        if (self.adjacency != self.adjacency.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_hop_state", None)
        state.pop("_memo", None)
        return state

    def _edited(self, memo: dict | None = None, **changes) -> GraphDataset:
        """This graph with ``changes`` applied and ``memo`` as its memo, for the structural edits below.

        Without ``memo``, a result that keeps the adjacency and the sensitive
        column gets a copy of this graph's memo. Only the O(n) checks run. The
        O(nnz) adjacency checks (symmetry, zero diagonal, positive weights)
        hold by construction: an edit keeps the adjacency or removes both
        directions of entries from a validated one.
        """
        edited = object.__new__(GraphDataset)
        for f in fields(self):
            if f.init:
                object.__setattr__(edited, f.name, changes.pop(f.name, getattr(self, f.name)))
        kept = edited.adjacency is self.adjacency and edited.sensitive is self.sensitive
        if memo is None and self._memo and kept:
            memo = dict(self._memo)
        object.__setattr__(edited, "_hop_state", None)
        object.__setattr__(edited, "_memo", memo)
        edited._check_fields()
        return edited

    def _memoised(self, key: str, compute):
        """``memo[key]``, computed as ``compute(self)`` on first use."""
        if self._memo is None:
            object.__setattr__(self, "_memo", {})
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    def _carried_hops(self, hops: int, scheme: str) -> tuple[AggregatedFeatures, list[np.ndarray]] | None:
        """The ``(aggregation, hop blocks)`` carried for ``(hops, scheme)``, or None."""
        state = self._hop_state
        if state is None or state[:2] != (hops, scheme):
            return None
        return state[2], state[3]

    def _carry_hops(self, hops: int, scheme: str, carried) -> None:
        """Carry ``(aggregation, hop blocks)`` of this graph for ``(hops, scheme)``; None drops it."""
        object.__setattr__(self, "_hop_state", None if carried is None else (hops, scheme, *carried))

    def _check_fields(self) -> None:
        """The O(n) checks: shapes, binary sensitive and label columns, disjoint masks."""
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency must be square")
        if self.features.shape[0] != n:
            raise ValueError(f"features have {self.features.shape[0]} rows, expected {n}")
        for name in ("sensitive", "labels", "train_mask", "val_mask", "test_mask"):
            v = getattr(self, name)
            if v.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
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

        The array is memoised and read-only.
        """
        return self._memoised("edge_pairs", _upper_pairs)[0]


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


def _frozen(*arrays: np.ndarray):
    """Mark the arrays read-only; returns the first."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0]


def _upper_pairs(dataset: GraphDataset) -> tuple[np.ndarray, np.ndarray]:
    """The edge pairs and their sorted ``i * n + j`` keys, both read-only.

    The upper triangle is read row by row from the CSR arrays, which is
    already lexicographic once each row's column indices are sorted.
    """
    adj = dataset.adjacency
    if not adj.has_sorted_indices:
        adj = adj.sorted_indices()
    rows = np.repeat(np.arange(dataset.n_nodes, dtype=adj.indices.dtype), np.diff(adj.indptr))
    upper = adj.indices > rows
    pairs = np.column_stack([rows[upper], adj.indices[upper]])
    keys = rows[upper].astype(np.int64) * dataset.n_nodes + adj.indices[upper]
    _frozen(pairs, keys)
    return pairs, keys


def _row_entries(adj: sp.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the stored entries of the listed rows, and the index into ``rows`` of each."""
    starts = adj.indptr[rows]
    lengths = adj.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lengths)
    offsets = np.cumsum(lengths) - lengths
    return np.arange(owner.size) + np.repeat(starts - offsets, lengths), owner


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


def _aggregate(
    dataset: GraphDataset, prop: PropagationOperator, scheme: str
) -> tuple[AggregatedFeatures, list[np.ndarray]]:
    """The aggregation and the hop blocks ``X, PX, ..., P^L X`` it combines.

    SGC keeps the last hop block; GPR concatenates all of them scaled by 1/(L+1).
    """
    p = prop.matrix
    if p.shape[1] != dataset.n_nodes:
        raise ValueError(f"propagation is {p.shape[0]}x{p.shape[1]} but features have {dataset.n_nodes} rows")
    if scheme not in (SGC, GPR):
        raise ValueError(f"unknown aggregation scheme: {scheme!r}")
    blocks = [dataset.features]
    for _ in range(prop.hops):
        blocks.append(np.asarray(p.dot(blocks[-1])))
    if scheme == SGC:
        values = blocks[-1]
    else:
        values = np.hstack(blocks, dtype=np.float64)
        values /= prop.hops + 1
    return AggregatedFeatures(values=values, scheme=scheme), blocks


def aggregate(dataset: GraphDataset, prop: PropagationOperator, scheme: str = SGC) -> AggregatedFeatures:
    """Propagate features over ``prop.hops`` hops.

    ``sgc`` returns the L-fold propagated features; ``gpr`` returns the
    1/(L+1)-scaled horizontal concatenation of all hop powers from 0 to L.
    """
    return _aggregate(dataset, prop, scheme)[0]


def aggregate_hops(
    dataset: GraphDataset, prop: PropagationOperator, scheme: str = SGC
) -> tuple[AggregatedFeatures, list[np.ndarray]]:
    """:func:`aggregate`, also returning the hop blocks ``X, PX, ..., P^L X`` for :func:`reaggregate`."""
    return _aggregate(dataset, prop, scheme)


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
    return _reaggregate(before, after, aggregated, blocks)[0]


def _reaggregate(
    before: GraphDataset,
    after: GraphDataset,
    aggregated: AggregatedFeatures,
    blocks: list[np.ndarray],
) -> tuple[AggregatedFeatures, np.ndarray | None]:
    """:func:`reaggregate`, also returning the rows it recomputed at any hop.

    The row sets grow from hop to hop, so these are the last hop's rows; every
    other row of the result equals ``aggregated`` bit for bit. None means some
    hop was the full product.
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
        return AggregatedFeatures(values=blocks[hops], scheme=scheme), row_sets[-1]
    values = aggregated.values.copy()
    f = after.n_features
    for k, rows in enumerate(row_sets):
        cols = slice(k * f, (k + 1) * f)
        if rows is None:
            np.divide(blocks[k], hops + 1, out=values[:, cols])
        elif rows.size:
            values[rows, cols] = blocks[k][rows] / (hops + 1)
    return AggregatedFeatures(values=values, scheme=scheme), row_sets[-1]


def _canonical_pairs(edges) -> np.ndarray:
    """The pairs as (min, max) rows in lexicographic order; self-loops are rejected."""
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (i, j) pairs")
    pairs = np.sort(pairs, axis=1)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("self-loops are not valid edges")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _canonical(adj: sp.csr_matrix) -> sp.csr_matrix:
    """``adj``, or a copy with sorted indices and duplicate entries summed."""
    if not adj.has_canonical_format:
        adj = adj.copy()
        adj.sum_duplicates()
    return adj


def _delete_entries(adj: sp.csr_matrix, doomed: np.ndarray) -> sp.csr_matrix:
    """Canonical ``adj`` without the stored entries at the sorted, unique positions ``doomed``."""
    rows = np.searchsorted(adj.indptr, doomed, side="right") - 1
    indptr = adj.indptr.copy()
    indptr[1:] -= np.cumsum(np.bincount(rows, minlength=adj.shape[0])).astype(indptr.dtype)
    out = sp.csr_matrix(
        (np.delete(adj.data, doomed), np.delete(adj.indices, doomed), indptr), shape=adj.shape
    )
    out.has_canonical_format = True
    return out


def remove_edges(dataset: GraphDataset, edges) -> GraphDataset:
    """Delete both directed entries of each undirected pair; everything else is unchanged.

    The request is atomic: if any listed edge is absent, nothing is removed.
    Pair direction does not matter and a repeated pair removes its edge once.
    Both CSR positions of every pair are found among the stored entries of
    its two rows; the edit drops them and shifts ``indptr``. The input's memo
    is carried over to the result, updated for the removed pairs.
    """
    edges = list(edges)
    if not edges:
        return dataset
    pairs = _canonical_pairs(edges)
    pairs = pairs[np.r_[True, (np.diff(pairs, axis=0) != 0).any(axis=1)]]
    n = dataset.n_nodes
    if pairs.min() < 0 or pairs.max() >= n:
        raise IndexError(f"edge index out of range [0, {n})")
    adj = _canonical(dataset.adjacency)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    entries, owner = _row_entries(adj, rows)
    hit = adj.indices[entries] == cols[owner]
    pos = np.full(rows.size, -1, dtype=np.int64)
    pos[owner[hit]] = entries[hit]
    present = (pos[: len(pairs)] >= 0) & (pos[len(pairs) :] >= 0)
    if not present.all():
        missing = pairs[~present][0]
        raise ValueError(f"edge {tuple(missing)} not present; rejecting the whole request")
    new_adj = _delete_entries(adj, np.sort(pos))
    memo = None
    # A non-canonical input's memo counts its duplicate entries; start afresh.
    if dataset._memo and adj is dataset.adjacency:
        memo = _memo_after_removal(dataset._memo, new_adj, dataset.sensitive, pairs)
    return dataset._edited(memo=memo, adjacency=new_adj)


def _memo_after_removal(memo: dict, adj: sp.csr_matrix, sensitive: np.ndarray, removed: np.ndarray) -> dict:
    """A graph's memo carried over to the graph ``adj`` that lacks the unique canonical pairs ``removed``.

    Removing (i, j) lowers the degrees of i and j alone, so only the edges
    incident to them in ``adj`` are re-scored.
    """
    carried = {}
    n = adj.shape[0]
    if "degree_stats" in memo:
        carried["degree_stats"] = _stats_after_removal(memo["degree_stats"], sensitive, removed)
    if "edge_pairs" not in memo:
        return carried
    pairs, keys = memo["edge_pairs"]
    gone = np.searchsorted(keys, removed[:, 0] * n + removed[:, 1])
    # Each pair as one void item: numpy deletes those with one mask over the
    # items, while a 2-D delete along axis 0 is about ten times slower.
    row = np.dtype((np.void, 2 * pairs.itemsize))
    pairs = np.delete(pairs.view(row).ravel(), gone).view(pairs.dtype).reshape(-1, 2)
    keys = np.delete(keys, gone)
    carried["edge_pairs"] = (_frozen(pairs, keys), keys)
    if "edge_scores" in memo:
        scores = np.delete(memo["edge_scores"], gone)
        ends = np.unique(removed)
        entries, owner = _row_entries(adj, ends)
        u, v = ends[owner], adj.indices[entries]
        # Sorted queries keep the search cache-friendly on bulk batches.
        at = np.searchsorted(keys, np.sort(np.minimum(u, v) * n + np.maximum(u, v)))
        scores[at] = _edge_scores(pairs[at], sensitive, np.diff(adj.indptr))
        carried["edge_scores"] = _frozen(scores)
    return carried


def _stats_after_removal(stats: DegreeStats, sensitive: np.ndarray, removed: np.ndarray) -> DegreeStats:
    """``stats`` less the unique pairs ``removed``; equals :func:`degree_stats` of the edited graph.

    Removing edges only lowers inter-degrees, so the nodes that leave a group
    boundary are the ends of removed inter-edges left with no inter-edge.
    """
    n = stats.degree.size
    inter = sensitive[removed[:, 0]] != sensitive[removed[:, 1]]
    degree = stats.degree - np.bincount(removed.ravel(), minlength=n)
    inter_degree = stats.inter_degree - np.bincount(removed[inter].ravel(), minlength=n)
    ends = np.unique(removed[inter])
    left = np.bincount(sensitive[ends[inter_degree[ends] == 0]].astype(np.int64), minlength=2)
    n_inter = int(inter.sum())
    return DegreeStats(
        degree=_frozen(degree),
        inter_degree=_frozen(inter_degree),
        intra_degree=_frozen(degree - inter_degree),
        group_sizes=stats.group_sizes,
        boundary_sizes=(stats.boundary_sizes[0] - int(left[0]), stats.boundary_sizes[1] - int(left[1])),
        inter_edges=stats.inter_edges - n_inter,
        intra_edges=stats.intra_edges - (inter.size - n_inter),
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
    adj = _canonical(dataset.adjacency)
    row_kept = np.repeat(keep, np.diff(adj.indptr))
    new_adj = _delete_entries(adj, np.flatnonzero(~(row_kept & keep[adj.indices])))
    new_x = dataset.features.copy()
    new_x[nodes, :] = 0.0
    masks = []
    for mask in (dataset.train_mask, dataset.val_mask, dataset.test_mask):
        m = mask.copy()
        m[nodes] = False
        masks.append(m)
    return dataset._edited(
        adjacency=new_adj, features=new_x, train_mask=masks[0], val_mask=masks[1], test_mask=masks[2]
    )


def zero_feature_columns(dataset: GraphDataset, columns) -> GraphDataset:
    """Zero the listed feature columns for all nodes (graph structure unchanged, memo kept)."""
    cols = np.asarray(sorted(set(int(c) for c in columns)), dtype=np.int64)
    if cols.size == 0:
        return dataset
    f = dataset.n_features
    if cols.min() < 0 or cols.max() >= f:
        raise ValueError(f"feature index out of range [0, {f})")
    new_x = dataset.features.copy()
    new_x[:, cols] = 0.0
    return dataset._edited(features=new_x)


def degree_stats(dataset: GraphDataset) -> DegreeStats:
    """Count total/inter/intra degrees per node and group/boundary/edge totals.

    An inter-edge joins nodes with different sensitive values, an intra-edge
    joins nodes within the same group. Each undirected edge counts once in the
    edge totals. The result is memoised and its arrays are read-only.
    """
    return dataset._memoised("degree_stats", _count_degrees)


def _count_degrees(dataset: GraphDataset) -> DegreeStats:
    """:func:`degree_stats` from scratch."""
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
    _frozen(degree, inter_degree, intra_degree)
    return DegreeStats(
        degree=degree,
        inter_degree=inter_degree,
        intra_degree=intra_degree,
        group_sizes=(g0, g1),
        boundary_sizes=(b0, b1),
        inter_edges=n_inter,
        intra_edges=n_intra,
    )


def _edge_scores(pairs: np.ndarray, sensitive: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Intra-edges score 1/min(d_i, d_j); inter-edges score 0."""
    intra = sensitive[pairs[:, 0]] == sensitive[pairs[:, 1]]
    min_deg = np.minimum(degree[pairs[:, 0]], degree[pairs[:, 1]])
    return np.where(intra, 1.0 / min_deg, 0.0)


def _proposed_edge_scores(dataset: GraphDataset) -> np.ndarray:
    """The proposed score of every edge in ``edge_pairs()`` order, memoised and read-only."""

    def score(ds: GraphDataset) -> np.ndarray:
        return _frozen(_edge_scores(ds.edge_pairs(), np.asarray(ds.sensitive), np.diff(ds.adjacency.indptr)))

    return dataset._memoised("edge_scores", score)
