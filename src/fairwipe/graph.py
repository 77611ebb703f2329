"""Graph data model, normalized propagation, multi-hop aggregation, and structural edits.

A graph owns its arrays: the constructor checks them once and marks them
read-only, and so does every structural edit (edge/node removal, feature
zeroing), which returns a new :class:`GraphDataset` and runs no check. A graph
is never written after it is built: what it carries and its memo live in two
weak tables of this module keyed by the graph object, and every record that
holds arrays compares by identity. A graph carries one aggregation, for one
``(hops, scheme)``: :func:`aggregate` returns it, or propagates from scratch and
keeps the result, without hop blocks, in place of what the graph carried. What
it hands out is read-only. Hop blocks are built only by the private step of
``unlearn.sequential_unlearn``, on the graph it returns; the next call moves
them over to the edited copy and recomputes only the rows the edit can reach.
Graphs are unweighted, so a hop applies ``P = D⁻¹(A + I)`` as
``D⁻¹(A @ B + B)`` with ``D`` read off the CSR row lengths: no matrix or degree
vector is built. A hop acts on each feature column on its own, so zeroing raw
column j to +0.0 zeroes column j of every hop block and leaves every other
entry as it was, bit for bit: :func:`zero_feature_columns` zeroes the columns
of the aggregation the graph carries instead of propagating again.
Edge keys, degree statistics and edge scores are memoised per graph.
:func:`remove_edges` carries the keys and scores over to its result, updated
for the edit, and the result counts its degrees once, on first use;
:func:`zero_feature_columns` keeps the whole memo as it is.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

SGC = "sgc"
GPR = "gpr"


# Keyed by graph object, an entry going with its graph: ``_carried[g]`` is g's
# ``(hops, scheme, aggregation, blocks, spare, stale)`` (see `_reaggregate`),
# ``_memos[g]`` its read-only edge keys and pairs, degree stats and edge scores.
_carried = weakref.WeakKeyDictionary()
_memos = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class GraphDataset:
    """An attributed graph with a binary sensitive attribute and binary labels.

    The graph is unweighted: the adjacency matrix is canonical symmetric CSR
    with zero diagonal (self-loops enter only the propagation, as its
    ``+ I``) and every stored value 1. The constructor copies any other
    scipy sparse format, or a CSR with unsorted or duplicate entries, to
    canonical CSR; duplicates are summed before the values are checked.
    Features are 2-D, with at least one column, and finite; masks are boolean
    and select disjoint train/validation/test node sets.

    The graph owns its arrays. The constructor keeps an array that is already
    canonical and owns its data (C-contiguous float64 features, int64 0/1
    sensitive and label columns, boolean masks, canonical CSR), and copies a
    view or any other dtype or layout first. It is the only place the arrays
    are checked. Every array, the CSR's ``data``, ``indices`` and ``indptr``
    and the arrays scipy keeps them as views of included, is then read-only
    for good, so a write raises instead of changing a graph that edits,
    memos and carried aggregations were built from.

    A graph is never written after it is built, and ``==`` and ``hash`` go by
    identity. What it carries and its memo live beside it, in this module's
    weak tables keyed by the graph object, so ``dataclasses.replace``, copies
    and pickles start with neither. The memo depends only on the adjacency and
    the sensitive column: edits and splits that keep both copy it to their
    result, and :func:`remove_edges` carries its edge keys and scores.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        adjacency = self.adjacency
        if not sp.issparse(adjacency):
            raise ValueError(f"adjacency must be a scipy sparse matrix, not {type(adjacency).__name__}")
        if adjacency.format != "csr" or not adjacency.has_canonical_format:
            adjacency = adjacency.tocsr(copy=True)
            adjacency.sum_duplicates()
        n = adjacency.shape[0]
        if adjacency.shape != (n, n):
            raise ValueError("adjacency must be square")
        features = np.asarray(self.features)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D (nodes x features), not {features.ndim}-D")
        if features.shape[0] != n:
            raise ValueError(f"features have {features.shape[0]} rows, expected {n}")
        if features.shape[1] == 0:
            raise ValueError("features must have at least one column")
        owned = {"adjacency": adjacency, "features": _owned(features, np.float64)}
        for name in ("sensitive", "labels", "train_mask", "val_mask", "test_mask"):
            v = np.asarray(getattr(self, name))
            mask = name.endswith("_mask")
            if v.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
            if mask and v.dtype != bool:
                raise ValueError(f"{name} must be boolean, not {v.dtype}")
            if not mask and not np.isin(v, (0, 1)).all():
                raise ValueError(f"{name} must be binary 0/1")
            owned[name] = _owned(v, bool if mask else np.int64)
        train, val, test = owned["train_mask"], owned["val_mask"], owned["test_mask"]
        if ((train & val) | (train & test) | (val & test)).any():
            raise ValueError("train/val/test masks must be pairwise disjoint")
        if not np.isfinite(owned["features"]).all():
            raise ValueError("features must be finite")
        if adjacency.diagonal().any():
            raise ValueError("adjacency must have zero diagonal (no stored self-loops)")
        if (adjacency.data != 1.0).any():
            raise ValueError("adjacency must be unweighted: every stored entry must be 1")
        if (adjacency != adjacency.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        for name, value in owned.items():
            object.__setattr__(self, name, value)
        _freeze(self)

    def __setstate__(self, state):
        self.__dict__.update(state)
        _freeze(self)

    def _edited(self, memo: dict | None = None, **changes) -> GraphDataset:
        """This graph with ``changes`` applied and ``memo`` as its memo, for the structural edits below.

        Without ``memo``, a result that keeps the adjacency and the sensitive
        column gets a copy of this graph's memo. No check runs: every array an
        edit passes is one it built, of the canonical dtype and layout, from
        this graph's checked arrays, keeping their entries or removing both
        directions of some edges, zeroing some features or clearing some mask
        entries. The arrays are marked read-only here.
        """
        edited = object.__new__(GraphDataset)
        for f in fields(self):
            object.__setattr__(edited, f.name, changes.pop(f.name, getattr(self, f.name)))
        if memo is None and edited.adjacency is self.adjacency and edited.sensitive is self.sensitive:
            memo = dict(_memos.get(self, {}))
        if memo:
            _memos[edited] = memo
        _freeze(edited)
        return edited

    def _memoised(self, key: str, compute):
        """``memo[key]``, computed as ``compute(self)`` on first use."""
        memo = _memos.setdefault(self, {})
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]

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
        """All undirected edges as an (n_edges, 2) int64 array of pairs with i < j, sorted by (i, j).

        The array is memoised and read-only.
        """
        return self._memoised("edge_pairs", lambda ds: _frozen(np.column_stack(np.divmod(_edge_keys(ds), ds.n_nodes))))


@dataclass(frozen=True, eq=False)
class AggregatedFeatures:
    """Multi-hop aggregated node representations.

    ``values`` has shape N x F for single-branch aggregation and N x F(L+1)
    for the concatenated multi-hop variant.
    """

    values: np.ndarray

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
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


def _owned(value: np.ndarray, dtype) -> np.ndarray:
    """``value`` if it is a C-contiguous ``dtype`` ndarray that owns its data, or else such a copy of it."""
    if type(value) is np.ndarray and value.dtype == dtype and value.flags.c_contiguous and value.flags.owndata:
        return value
    return np.array(value, dtype=dtype, order="C")


def _freeze(dataset: GraphDataset) -> None:
    """Mark every array of ``dataset`` read-only: the adjacency's data, indices and indptr, and the arrays they view."""
    csr = [dataset.adjacency.data, dataset.adjacency.indices, dataset.adjacency.indptr]
    csr += [a.base for a in csr if isinstance(a.base, np.ndarray)]
    _frozen(*csr, dataset.features, dataset.sensitive, dataset.labels)
    _frozen(dataset.train_mask, dataset.val_mask, dataset.test_mask)


def _edge_keys(dataset: GraphDataset) -> np.ndarray:
    """The sorted int64 keys ``i * n + j`` of the edges (i, j) with i < j, memoised and read-only.

    Keys sort as their pairs do. The canonical CSR lists the upper triangle
    row by row in that order.
    """

    def keys(ds: GraphDataset) -> np.ndarray:
        adj = ds.adjacency
        rows = np.repeat(np.arange(ds.n_nodes, dtype=np.int64), np.diff(adj.indptr))
        upper = adj.indices > rows
        return _frozen(rows[upper] * ds.n_nodes + adj.indices[upper])

    return dataset._memoised("edge_keys", keys)


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the stored entries of the listed rows, and the index into ``rows`` of each."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lengths)
    offsets = np.cumsum(lengths) - lengths
    return np.arange(owner.size) + np.repeat(starts - offsets, lengths), owner


def _sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` by a sort and a neighbour compare, many times faster on int64 keys than its hashing."""
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def _indices(values, bound: int, what: str, error: type[Exception] = ValueError) -> np.ndarray:
    """``values``, of any shape, as int64 indices in ``[0, bound)`` (``error`` if not).

    A non-empty input of a non-integer dtype raises ValueError: a cast would
    read a boolean mask or a float as indices.
    """
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{what} indices must be integers, not {values.dtype}")
    values = values.astype(np.int64)
    if values.size and (values.min() < 0 or values.max() >= bound):
        raise error(f"{what} index out of range [0, {bound})")
    return values


def _symmetric_adjacency(lo: np.ndarray, hi: np.ndarray, n: int) -> sp.csr_matrix:
    """The n x n binary symmetric CSR with an edge between ``lo[i]`` and ``hi[i]`` for every i."""
    return sp.csr_matrix((np.ones(2 * len(lo)), (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n))


def build_propagation(dataset: GraphDataset, hops: int) -> int:
    """``hops`` as given: the hop count :func:`aggregate` takes, for callers of the old two-step form."""
    return hops


def _hop(adjacency: sp.csr_matrix, block: np.ndarray, rows=None) -> np.ndarray:
    """One hop ``D⁻¹(A @ block + block)``, or only its listed ``rows``, each bit for bit the full hop's."""
    if rows is not None:
        adjacency = adjacency[rows]
    out = adjacency @ block
    out += block if rows is None else block[rows]
    out *= (1.0 / (np.diff(adjacency.indptr) + 1.0))[:, None]
    return out


def _check_settings(hops: int, scheme: str) -> None:
    """Check that the integer ``hops`` is >= 0 and ``scheme`` is SGC or GPR."""
    if hops < 0:
        raise ValueError("hops must be >= 0")
    if scheme not in (SGC, GPR):
        raise ValueError(f"unknown aggregation scheme: {scheme!r}")


def _carried_state(dataset: GraphDataset, hops, scheme: str) -> tuple[int, tuple | None]:
    """Checked ``hops`` as an int, and ``dataset``'s state if it is for ``(hops, scheme)``."""
    hops = operator.index(hops)
    _check_settings(hops, scheme)
    state = _carried.get(dataset)
    if state is None or state[:2] != (hops, scheme):
        return hops, None
    return hops, state


def _aggregate(dataset: GraphDataset, hops: int, scheme: str) -> tuple[AggregatedFeatures, list[np.ndarray]]:
    """The aggregation and the hop blocks ``X, PX, ..., P^L X`` it combines, for checked settings.

    SGC keeps the last hop block; GPR concatenates all of them scaled by 1/(L+1).
    """
    blocks = [dataset.features]
    for _ in range(hops):
        blocks.append(_hop(dataset.adjacency, blocks[-1]))
    if scheme == SGC:
        values = blocks[-1]
    else:
        values = np.hstack(blocks, dtype=np.float64)
        values /= hops + 1
    return AggregatedFeatures(values=values), blocks


def aggregate(dataset: GraphDataset, hops: int, scheme: str) -> AggregatedFeatures:
    """Propagate the graph's features over ``hops`` hops of its own ``D⁻¹(A + I)``.

    ``sgc`` returns the L-fold propagated features; ``gpr`` returns the
    1/(L+1)-scaled horizontal concatenation of all hop powers from 0 to L.
    The aggregation the graph carries for ``(hops, scheme)`` is returned as
    it is: it equals the one computed here bit for bit. Otherwise the graph's
    own adjacency and features are propagated, and the graph keeps the
    result, without its hop blocks, in place of whatever it carried. What
    this returns is read-only and is never written.
    """
    hops, state = _carried_state(dataset, hops, scheme)
    if state is None:
        state = _carried[dataset] = (hops, scheme, _aggregate(dataset, hops, scheme)[0], None, None, None)
    _frozen(state[2].values)
    return state[2]


def _refreshed_spare(values: np.ndarray, spare: np.ndarray | None, stale: np.ndarray | None) -> np.ndarray:
    """``values`` in a buffer no caller holds: ``spare`` with its ``stale`` rows (None: all) refreshed, or a copy."""
    if spare is None:
        return values.copy()
    if stale is None:
        np.copyto(spare, values)
    else:
        spare[stale] = values[stale]
    return spare


def _reaggregate(
    before: GraphDataset, after: GraphDataset, hops: int, scheme: str
) -> tuple[AggregatedFeatures, AggregatedFeatures, np.ndarray | None]:
    """Aggregate ``after`` from ``before``'s hop blocks, recomputing only the rows that can change.

    Unless ``before`` carries hop blocks for ``(hops, scheme)``, there is
    nothing to edit: ``before``'s aggregation is taken off it as the pre-edit
    side (aggregated in full only if it carries none for these settings), and
    ``after`` keeps the aggregation it carries for them (the zeroed copy a
    feature removal leaves) or is aggregated in full and carries the result
    with its hop blocks; the rows returned are None. Otherwise the state is
    taken off ``before``, its blocks are edited in place into ``after``'s, and
    ``after`` carries them, replacing whatever it carried. ``after`` must
    differ from ``before`` only by removed edges and changed feature rows, as
    the removal requests produce. Row i of hop k can then change only if

    - i's degree changed: with edges only removed, these are exactly the rows
      whose propagation row changed;
    - i changed at hop k-1, or is a neighbour in ``after`` of such a row;

    with the changed feature rows as hop 0's set. Each hop reads the degrees
    off ``after``'s CSR row lengths. Once a hop's set, hop 0's included,
    covers more than half the graph, the hop is the full product; either way
    a row is the same bit for bit.

    ``after``'s aggregation (for SGC, its last block when that hop is partial)
    is written into the spare buffer ``before`` carries: the aggregation of the
    graph ``before`` was edited from. Only the rows the previous call
    recomputed (all after a full hop) are refreshed, then this edit's rows are
    written, so an edge request allocates nothing the size of the aggregation.
    ``after`` keeps ``before``'s aggregation as its spare if it is writable:
    one handed out by :func:`aggregate` is not, nor is SGC's with no hop, the
    graph's read-only feature array. Hop block 0 is that array too; the other
    blocks, GPR's aggregation and the spare are this module's buffers and stay
    writable until :func:`aggregate` hands them out.
    An aggregation returned here thus stays valid only until ``after`` is
    passed to this function again, so the step is
    ``unlearn.sequential_unlearn``'s alone, and the aggregations it returns
    never leave that function.

    Returns ``before``'s aggregation, ``after``'s, which equals
    ``aggregate(after, hops, scheme)``, and the rows recomputed at any hop. The
    row sets grow from hop to hop, so these are the last hop's rows; every
    other row of ``after``'s aggregation equals ``before``'s bit for bit. None
    means some hop was the full product, or no blocks were edited.
    """
    hops, state = _carried_state(before, hops, scheme)
    _carried.pop(before, None)
    if state is None or state[3] is None:
        aggregated = _aggregate(before, hops, scheme)[0] if state is None else state[2]
        _, state = _carried_state(after, hops, scheme)
        if state is None:
            state = _carried[after] = (hops, scheme, *_aggregate(after, hops, scheme), None, None)
        return aggregated, state[2], None
    aggregated, blocks, spare, stale = state[2:]
    n = after.n_nodes
    adj = after.adjacency
    degree_changed = np.diff(adj.indptr) != np.diff(before.adjacency.indptr)
    same_rows = after.features is before.features
    changed = np.zeros(n, dtype=bool) if same_rows else (after.features != before.features).any(axis=1)
    blocks[0] = after.features
    # GPR writes each hop's scaled copy into its columns as the hop is done.
    values = _refreshed_spare(aggregated.values, spare, stale) if scheme == GPR else None
    f = after.n_features
    # Per hop: the recomputed rows, or None once the hop is the full product.
    # Rows already in the set had their neighbours added, so only the rows
    # that joined it last are expanded.
    rows = joined = np.flatnonzero(changed)
    for k in range(hops + 1):
        if k and rows is not None:
            reached = changed | degree_changed
            reached[adj.indices[_row_entries(adj.indptr, joined)[0]]] = True
            joined = np.flatnonzero(reached & ~changed)
            changed = reached
            rows = np.flatnonzero(changed)
        if rows is not None and 2 * rows.size > n:
            rows = None
        if k and rows is None:
            blocks[k] = _hop(adj, blocks[k - 1])
        elif k:
            if scheme == SGC and k == hops:
                # The last SGC block is ``aggregated.values``: edit it in the spare.
                blocks[k] = _refreshed_spare(blocks[k], spare, stale)
            if rows.size:
                blocks[k][rows] = _hop(adj, blocks[k - 1], rows)
        if values is not None:
            cols = slice(k * f, (k + 1) * f)
            if rows is None:
                np.divide(blocks[k], hops + 1, out=values[:, cols])
            elif rows.size:
                values[rows, cols] = blocks[k][rows] / (hops + 1)
    updated = AggregatedFeatures(values=blocks[hops] if values is None else values)
    # The write flag is the recycle rule.
    spare = aggregated.values if aggregated.values.flags.writeable else None
    _carried[after] = (hops, scheme, updated, blocks, spare, rows)
    return aggregated, updated, rows


def _delete_entries(adj: sp.csr_matrix, doomed: np.ndarray) -> sp.csr_matrix:
    """Canonical ``adj`` without the stored entries at the sorted, unique positions ``doomed``."""
    indptr = adj.indptr - np.searchsorted(doomed, adj.indptr).astype(adj.indptr.dtype)
    indices = np.delete(adj.indices, doomed)
    # Every stored value is 1, so the kept values are ones.
    out = sp.csr_matrix((np.ones(indices.size, dtype=adj.data.dtype), indices, indptr), shape=adj.shape)
    out.has_canonical_format = True
    return out


def remove_edges(dataset: GraphDataset, edges) -> GraphDataset:
    """Delete both directed entries of each undirected pair; everything else is unchanged.

    The request is atomic: if any listed edge is absent, nothing is removed.
    Pair direction does not matter and a repeated pair removes its edge once.
    Both CSR positions of every pair are found among the stored entries of
    its two rows; the edit drops them and shifts ``indptr``. The input's edge
    keys and scores are carried over to the result, updated for the edit.
    """
    n = dataset.n_nodes
    pairs = _indices(edges, n, "edge", IndexError)
    if pairs.size == 0:
        return dataset
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (i, j) pairs")
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    if (lo == hi).any():
        raise ValueError("self-loops are not valid edges")
    keys = _sorted_unique(lo * n + hi)
    lo, hi = np.divmod(keys, n)
    adj = dataset.adjacency
    entries, owner = _row_entries(adj.indptr, np.r_[lo, hi])
    hit = adj.indices[entries] == np.r_[hi, lo][owner]
    pos = np.full(2 * keys.size, -1, dtype=np.int64)
    pos[owner[hit]] = entries[hit]
    present = (pos[: keys.size] >= 0) & (pos[keys.size :] >= 0)
    if not present.all():
        missing = np.flatnonzero(~present)[0]
        raise ValueError(f"edge ({lo[missing]}, {hi[missing]}) not present; rejecting the whole request")
    new_adj = _delete_entries(adj, np.sort(pos))
    memo = _memos.get(dataset, {})
    carried = _memo_after_removal(memo, new_adj, dataset.sensitive, keys) if "edge_keys" in memo else None
    return dataset._edited(memo=carried, adjacency=new_adj)


def _memo_after_removal(memo: dict, adj: sp.csr_matrix, sensitive: np.ndarray, removed: np.ndarray) -> dict:
    """The memoised edge keys and scores carried to ``adj``, less the sorted unique keys ``removed``.

    Removing (i, j) lowers the degrees of i and j alone, so only the edges
    incident to them in ``adj`` are re-scored.
    """
    n = adj.shape[0]
    gone = np.searchsorted(memo["edge_keys"], removed)
    keys = _frozen(np.delete(memo["edge_keys"], gone))
    carried = {"edge_keys": keys}
    if "edge_scores" in memo:
        scores = np.delete(memo["edge_scores"], gone)
        ends = _sorted_unique(np.divmod(removed, n))
        entries, owner = _row_entries(adj.indptr, ends)
        u, v = ends[owner], adj.indices[entries]
        # Sorted queries keep the search cache-friendly on bulk batches.
        affected = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        degree = np.diff(adj.indptr)
        scores[np.searchsorted(keys, affected)] = _edge_scores(*np.divmod(affected, n), sensitive, degree)
        carried["edge_scores"] = _frozen(scores)
    return carried


def remove_nodes(dataset: GraphDataset, nodes) -> GraphDataset:
    """Detach nodes in place: drop incident edges, zero the feature rows, clear masks.

    Indices are kept stable (no compaction) so weight dimensionality and row
    alignment survive a sequence of removals.
    """
    n = dataset.n_nodes
    nodes = _sorted_unique(_indices(nodes, n, "node"))
    if nodes.size == 0:
        return dataset
    keep = np.ones(n, dtype=bool)
    keep[nodes] = False
    adj = dataset.adjacency
    row_kept = np.repeat(keep, np.diff(adj.indptr))
    new_adj = _delete_entries(adj, np.flatnonzero(~(row_kept & keep[adj.indices])))
    new_x = dataset.features.copy()
    new_x[nodes, :] = 0.0
    return dataset._edited(
        adjacency=new_adj,
        features=new_x,
        train_mask=dataset.train_mask & keep,
        val_mask=dataset.val_mask & keep,
        test_mask=dataset.test_mask & keep,
    )


def zero_feature_columns(dataset: GraphDataset, columns) -> GraphDataset:
    """Zero the listed feature columns for all nodes (graph structure unchanged, memo kept).

    A hop acts on each column on its own, so when ``dataset`` carries an
    aggregation, the result carries a copy of it with the columns zeroed in
    every hop block: its aggregation bit for bit, without a propagation. It
    carries no hop blocks. Features and aggregations are float64, so both
    copies are zeroed with a float64 zero and keep their dtype.
    """
    cols = _sorted_unique(_indices(columns, dataset.n_features, "feature"))
    if cols.size == 0:
        return dataset
    keep = np.ones(dataset.n_features, dtype=bool)
    keep[cols] = False
    # One pass each copies and zeroes.
    edited = dataset._edited(features=np.where(keep, dataset.features, 0.0))
    state = _carried.get(dataset)
    if state is not None:
        values = state[2].values
        zeroed = np.where(np.tile(keep, values.shape[1] // keep.size), values, 0.0)
        _carried[edited] = (*state[:2], AggregatedFeatures(values=zeroed), None, None, None)
    return edited


def degree_stats(dataset: GraphDataset) -> DegreeStats:
    """Count total/inter/intra degrees per node and group/boundary/edge totals.

    An inter-edge joins nodes with different sensitive values, an intra-edge
    joins nodes within the same group. Each undirected edge counts once in the
    edge totals. The result is memoised and its arrays are read-only.
    """
    return dataset._memoised("degree_stats", _count_degrees)


def _count_degrees(dataset: GraphDataset) -> DegreeStats:
    """:func:`degree_stats` from scratch."""
    s = dataset.sensitive
    degree = np.diff(dataset.adjacency.indptr).astype(np.int64)
    # Neighbours in group 1, counted by one product: every stored entry is 1.
    in_group1 = (dataset.adjacency @ s).astype(np.int64)
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


def _edge_scores(i: np.ndarray, j: np.ndarray, sensitive: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Intra-edges (i, j) score 1/min(d_i, d_j); inter-edges score 0."""
    return np.where(sensitive[i] == sensitive[j], 1.0 / np.minimum(degree[i], degree[j]), 0.0)


def _proposed_edge_scores(dataset: GraphDataset) -> np.ndarray:
    """The proposed score of every edge in key order, memoised and read-only."""

    def score(ds: GraphDataset) -> np.ndarray:
        i, j = np.divmod(_edge_keys(ds), ds.n_nodes)
        return _frozen(_edge_scores(i, j, ds.sensitive, np.diff(ds.adjacency.indptr)))

    return dataset._memoised("edge_scores", score)
