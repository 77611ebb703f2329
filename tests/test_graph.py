import copy
import gc
import pickle
import re
import weakref
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairwipe import data, graph, synthetic
from fairwipe.data import DatasetManifest, load_dataset
from fairwipe.fairness import EDGE_KINDS, select_edges, select_features, select_nodes
from fairwipe.graph import (
    DegreeStats,
    GraphDataset,
    aggregate,
    degree_stats,
    remove_edges,
    remove_nodes,
    zero_feature_columns,
)
from fairwipe.model import TrainConfig, train
from fairwipe.synthetic import random_adjacency
from fairwipe.unlearn import CertificationBudget, EdgeRemoval, FeatureRemoval, NodeRemoval, sequential_unlearn

from conftest import random_dataset


def tiny_dataset(adjacency, features=None, sensitive=None, labels=None):
    n = adjacency.shape[0]
    if features is None:
        features = np.zeros((n, 2))
    masks = np.zeros((3, n), dtype=bool)
    masks[0, : max(1, n // 2)] = True
    masks[2, max(1, n // 2) :] = True
    return GraphDataset(
        adjacency=sp.csr_matrix(adjacency),
        features=np.asarray(features, dtype=np.float64),
        sensitive=np.asarray(sensitive if sensitive is not None else [i % 2 for i in range(n)]),
        labels=np.asarray(labels if labels is not None else [0] * n),
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
    )


def adjacency_from_edges(n, edges):
    mat = np.zeros((n, n))
    for i, j in edges:
        mat[i, j] = mat[j, i] = 1.0
    return sp.csr_matrix(mat)


def dense_propagation(adjacency):
    """The dense row-normalized adjacency with self-loops, D⁻¹(A + I)."""
    a_bar = adjacency.toarray() + np.eye(adjacency.shape[0])
    return a_bar / a_bar.sum(axis=1, keepdims=True)


def applied_propagation(ds):
    """The propagation matrix as `aggregate` applies it: one SGC hop of identity features."""
    eye = replace(ds, features=np.eye(ds.n_nodes))
    return aggregate(eye, 1, "sgc").values


class TestPropagation:
    def test_two_nodes_one_edge(self):
        ds = tiny_dataset(adjacency_from_edges(2, [(0, 1)]))
        p = applied_propagation(ds)
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(p, dense_propagation(ds.adjacency), rtol=0, atol=1e-15)

    def test_edgeless_graph_is_identity(self):
        for n in (1, 3, 7):
            ds = tiny_dataset(sp.csr_matrix((n, n)))
            np.testing.assert_array_equal(applied_propagation(ds), np.eye(n))
            eye = replace(ds, features=np.eye(n))
            np.testing.assert_array_equal(aggregate(eye, 2, "sgc").values, np.eye(n))

    def test_triangle_rows_are_thirds(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        np.testing.assert_allclose(applied_propagation(ds), np.full((3, 3), 1 / 3))

    def test_rows_sum_to_one_on_random_graphs(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            ds = tiny_dataset(random_adjacency(n, float(rng.uniform(0, 6)), rng))
            p = applied_propagation(ds)
            np.testing.assert_allclose(p, dense_propagation(ds.adjacency), rtol=0, atol=1e-15)
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
            assert p.diagonal().min() > 0
            assert p.min() >= 0


class TestAggregate:
    def test_edgeless_sgc_returns_features(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        ds = tiny_dataset(sp.csr_matrix((5, 5)), features=x)
        for hops in (0, 1, 4):
            agg = aggregate(ds, hops, "sgc")
            np.testing.assert_allclose(agg.values, x)

    def test_gpr_zero_hops_returns_features(self):
        x = np.random.default_rng(1).normal(size=(4, 2))
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (2, 3)]), features=x)
        agg = aggregate(ds, 0, "gpr")
        np.testing.assert_allclose(agg.values, x)
        assert agg.width == 2

    def test_path_one_hot_averages_closed_neighborhoods(self):
        # 3-node path with identity features: row i of Z is row i of the
        # normalized adjacency, i.e. the average over the closed neighborhood.
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]), features=np.eye(3))
        agg = aggregate(ds, 1, "sgc")
        expected = np.array([
            [1 / 2, 1 / 2, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 2, 1 / 2],
        ])
        np.testing.assert_allclose(agg.values, expected)

    def test_gpr_width_and_norm(self):
        ds = random_dataset(n=20, f=3, seed=5)
        agg = aggregate(ds, 2, "gpr")
        assert agg.width == 9

    def test_norm_non_expansion_both_schemes(self):
        # Aggregation never increases the largest feature-row norm.
        worst = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 16))
            f = int(rng.integers(1, 5))
            ds = tiny_dataset(
                random_adjacency(n, float(rng.uniform(0, 5)), rng),
                features=rng.normal(size=(n, f)),
            )
            hops = int(rng.integers(0, 4))
            x_max = np.linalg.norm(ds.features, axis=1).max()
            for scheme in ("sgc", "gpr"):
                z = aggregate(ds, hops, scheme).values
                worst = max(worst, np.linalg.norm(z, axis=1).max() - x_max)
        assert worst <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
    )
    def test_linearity_in_features(self, seed, a, b):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        adj = random_adjacency(n, 3.0, rng)
        x1 = rng.normal(size=(n, 3))
        x2 = rng.normal(size=(n, 3))
        d1 = tiny_dataset(adj, features=x1)
        d2 = tiny_dataset(adj, features=x2)
        mixed = tiny_dataset(adj, features=a * x1 + b * x2)
        for scheme in ("sgc", "gpr"):
            za = aggregate(d1, 2, scheme).values
            zb = aggregate(d2, 2, scheme).values
            zm = aggregate(mixed, 2, scheme).values
            np.testing.assert_allclose(zm, a * za + b * zb, atol=1e-10)

    def test_negative_hops_rejected(self):
        ds = tiny_dataset(sp.csr_matrix((2, 2)))
        with pytest.raises(ValueError, match="hops must be >= 0"):
            aggregate(ds, -1, "sgc")

    @pytest.mark.parametrize("hops", [2.0, "2", (sp.csr_matrix((2, 2)), 2)])
    def test_non_integer_hops_rejected(self, hops):
        """A float, a string or an (adjacency, hops) pair is not a hop count."""
        ds = tiny_dataset(sp.csr_matrix((2, 2)))
        with pytest.raises(TypeError):
            aggregate(ds, hops, "sgc")

    @pytest.mark.parametrize("scheme", ["sgc", "gpr"])
    def test_build_propagation_passes_hops_through(self, scheme):
        """The two-step form, ``build_propagation`` then ``aggregate``, is the one-step form byte
        for byte, whichever graph the hop count was taken from: a hop always reads the
        aggregated graph's own adjacency."""
        ds = synthetic.feature_unlearning_instance(n=200, f=5, seed=1)
        edited = remove_edges(ds, ds.edge_pairs()[::10][:10])
        for hops in (0, 2):
            for target in (ds, edited):
                # Each side aggregates a state-free copy, so neither reads what the other left on ``target``.
                one_step = aggregate(replace(target), hops, scheme).values
                two_step = aggregate(replace(target), graph.build_propagation(ds, hops), scheme).values
                assert two_step.tobytes() == one_step.tobytes()
        assert not np.array_equal(aggregate(edited, 2, scheme).values, aggregate(ds, 2, scheme).values)

    def test_only_the_pass_through_test_calls_build_propagation(self):
        """``build_propagation`` survives only for two-step callers outside the package, demos
        and tests: in them, the pass-through test above is the one call left."""
        root = Path(__file__).resolve().parents[1]
        call = re.compile(r"(?<!def )\bbuild_propagation\(")
        found = [
            str(path.relative_to(root))
            for folder in ("src", "demos", "tests")
            for path in sorted((root / folder).rglob("*.py"))
            for line in path.read_text().splitlines()
            if call.search(line)
        ]
        assert found == ["tests/test_graph.py"]

    def test_unknown_scheme_rejected(self):
        ds = tiny_dataset(sp.csr_matrix((2, 2)))
        with pytest.raises(ValueError):
            aggregate(ds, 1, "gcn")


class TestRemoveEdges:
    def test_remove_only_edge(self):
        ds = tiny_dataset(adjacency_from_edges(2, [(0, 1)]))
        out = remove_edges(ds, [(0, 1)])
        assert out.adjacency.nnz == 0

    def test_remove_empty_set_is_identity(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1)]))
        out = remove_edges(ds, [])
        assert out is ds

    def test_triangle_minus_one_edge_degrees(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        out = remove_edges(ds, [(0, 1)])
        stats = degree_stats(out)
        np.testing.assert_array_equal(stats.degree, [1, 1, 2])

    def test_missing_edge_rejects_whole_request(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match=r"^edge \(0, 2\) not present"):
            remove_edges(ds, [(0, 1), (0, 2)])
        # the present edge must survive the rejected request
        assert ds.adjacency[0, 1] == 1.0

    def test_direction_agnostic(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]))
        out = remove_edges(ds, [(1, 0)])
        assert out.adjacency[0, 1] == 0 and out.adjacency[1, 0] == 0
        assert out.adjacency[1, 2] == 1

    def test_reversed_pairs_remove_the_same_edges(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        forward = remove_edges(ds, [(0, 1), (2, 3)])
        reversed_ = remove_edges(ds, [(3, 2), (1, 0)])
        np.testing.assert_array_equal(forward.adjacency.toarray(), reversed_.adjacency.toarray())
        np.testing.assert_array_equal(forward.adjacency.toarray(), adjacency_from_edges(4, [(1, 2)]).toarray())

    def test_repeated_pair_removes_the_edge_once(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        out = remove_edges(ds, [(0, 1), (1, 0), (0, 1)])
        np.testing.assert_array_equal(out.adjacency.toarray(), adjacency_from_edges(4, [(1, 2), (2, 3)]).toarray())
        assert out.n_edges == 2

    def test_missing_edge_leaves_input_untouched(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        before = ds.adjacency.toarray().copy()
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) not present"):
            remove_edges(ds, [(1, 2), (3, 0), (2, 3)])
        np.testing.assert_array_equal(ds.adjacency.toarray(), before)
        assert ds.adjacency.nnz == 6

    def test_self_loop_rejected(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="self-loop"):
            remove_edges(ds, [(0, 1), (2, 2)])
        assert ds.adjacency.nnz == 4

    def test_out_of_range_index_raises(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]))
        for pair in ((0, 3), (3, 0), (1, 7)):
            with pytest.raises(IndexError):
                remove_edges(ds, [pair])
        assert ds.adjacency.nnz == 4

    def test_negative_index_raises(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]))
        with pytest.raises(IndexError):
            remove_edges(ds, [(-1, 2)])
        assert ds.adjacency.nnz == 4

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_dense_removal(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(4, 25)), seed=seed)
        pairs = ds.edge_pairs()
        if len(pairs) == 0:
            return
        take = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
        request = [tuple(p[::-1]) if rng.random() < 0.5 else tuple(p) for p in pairs[take]]
        out = remove_edges(ds, request)
        expected = ds.adjacency.toarray()
        for i, j in request:
            expected[i, j] = expected[j, i] = 0.0
        np.testing.assert_array_equal(out.adjacency.toarray(), expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_degree_decomposition_after_removal(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(4, 25)), seed=seed)
        pairs = ds.edge_pairs()
        if len(pairs) == 0:
            return
        take = rng.integers(0, len(pairs) + 1)
        subset = pairs[rng.choice(len(pairs), size=take, replace=False)]
        out = remove_edges(ds, [tuple(p) for p in subset])
        stats = degree_stats(out)
        np.testing.assert_array_equal(stats.degree, stats.inter_degree + stats.intra_degree)
        assert stats.inter_edges + stats.intra_edges == out.n_edges


def stored_differently(adjacency, layout, rng):
    """The same symmetric matrix as a CSR whose rows hold their entries in random
    order ("unsorted"), or also store each entry as two parts that sum to it
    ("duplicates"), split alike in both directions so the sums stay symmetric."""
    adj = sp.csr_matrix(adjacency)
    n = adj.shape[0]
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    cols, data = adj.indices, adj.data
    if layout == "duplicates":
        share = rng.uniform(0.1, 0.9, size=(n, n))
        part = data * np.triu(share)[np.minimum(rows, cols), np.maximum(rows, cols)]
        rows, cols, data = np.r_[rows, rows], np.r_[cols, cols], np.r_[part, data - part]
    order = np.lexsort((rng.random(rows.size), rows))
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))


class TestRemoveNodes:
    def test_isolated_zero_feature_node_only_mask_changes(self):
        adj = adjacency_from_edges(3, [(1, 2)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ds = tiny_dataset(adj, features=x)
        out = remove_nodes(ds, [0])
        np.testing.assert_array_equal(out.adjacency.toarray(), ds.adjacency.toarray())
        np.testing.assert_array_equal(out.features, ds.features)
        assert not out.train_mask[0]

    def test_star_center_removal_isolates_leaves(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (0, 2)]))
        out = remove_nodes(ds, [0])
        assert out.adjacency.nnz == 0
        np.testing.assert_array_equal(applied_propagation(out), np.eye(3))

    def test_remove_empty_set_is_identity(self):
        ds = tiny_dataset(adjacency_from_edges(2, [(0, 1)]))
        assert remove_nodes(ds, []) is ds

    def test_out_of_range_rejected(self):
        ds = tiny_dataset(adjacency_from_edges(2, [(0, 1)]))
        with pytest.raises(ValueError, match="out of range"):
            remove_nodes(ds, [2])

    def test_indices_remain_stable(self):
        ds = random_dataset(n=12, seed=3)
        out = remove_nodes(ds, [4, 7])
        assert out.n_nodes == ds.n_nodes
        assert np.all(out.features[4] == 0) and np.all(out.features[7] == 0)
        assert not out.train_mask[4] and not out.val_mask[4] and not out.test_mask[4]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), layout=st.sampled_from(("canonical", "unsorted", "duplicates")))
    def test_matches_dense_removal(self, seed, layout):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        ds = random_dataset(n=n, seed=seed)
        adjacency = ds.adjacency
        if layout != "canonical":
            adjacency = stored_differently(adjacency, layout, rng)
        if layout == "duplicates":
            assert not adjacency.has_canonical_format or adjacency.nnz == 0
        ds = replace(ds, adjacency=adjacency)
        # Unsorted, with repeats; may cover every node.
        nodes = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        out = remove_nodes(ds, nodes.tolist())
        expected = adjacency.toarray()
        expected[nodes, :] = 0.0
        expected[:, nodes] = 0.0
        canonical = sp.csr_matrix(expected)
        assert out.adjacency.has_canonical_format
        np.testing.assert_array_equal(out.adjacency.indptr, canonical.indptr)
        np.testing.assert_array_equal(out.adjacency.indices, canonical.indices)
        np.testing.assert_array_equal(out.adjacency.data, canonical.data)
        features = ds.features.copy()
        features[nodes] = 0.0
        np.testing.assert_array_equal(out.features, features)
        for name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(ds, name).copy()
            mask[nodes] = False
            np.testing.assert_array_equal(getattr(out, name), mask)
        np.testing.assert_array_equal(out.labels, ds.labels)
        np.testing.assert_array_equal(out.sensitive, ds.sensitive)
        GraphDataset(**{f.name: getattr(out, f.name) for f in fields(out) if f.init})


class TestZeroFeatureColumns:
    def test_zeroes_columns_everywhere(self):
        ds = random_dataset(n=10, f=4, seed=2)
        out = zero_feature_columns(ds, [1, 3])
        assert np.all(out.features[:, [1, 3]] == 0)
        np.testing.assert_array_equal(out.features[:, [0, 2]], ds.features[:, [0, 2]])

    def test_out_of_range_rejected(self):
        ds = random_dataset(n=5, f=3, seed=2)
        with pytest.raises(ValueError):
            zero_feature_columns(ds, [3])


class TestEditIndices:
    """Edits take integer indices; a mask or a float is rejected, not cast."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda ds: remove_nodes(ds, np.arange(ds.n_nodes) == 5),
            lambda ds: remove_nodes(ds, [5.0]),
            lambda ds: zero_feature_columns(ds, [True, False, True, False]),
            lambda ds: zero_feature_columns(ds, [2.9]),
            lambda ds: remove_edges(ds, ds.edge_pairs()[:2].astype(float)),
            lambda ds: remove_edges(ds, [(True, False)]),
        ],
        ids=["node-mask", "node-float", "column-mask", "column-float", "edge-float", "edge-bool"],
    )
    def test_non_integer_indices_rejected(self, edit):
        ds = random_dataset(n=12, f=4, seed=4, avg_degree=3.0)
        with pytest.raises(ValueError, match="must be integers"):
            edit(ds)

    def test_unsigned_and_empty_indices(self):
        ds = random_dataset(n=12, f=4, seed=4, avg_degree=3.0)
        assert remove_nodes(ds, np.array([], dtype=bool)) is ds
        assert zero_feature_columns(ds, np.array([], dtype=float)) is ds
        np.testing.assert_array_equal(
            remove_nodes(ds, np.array([7, 3, 7], dtype=np.uint8)).features, remove_nodes(ds, [3, 7]).features
        )


class TestDegreeStats:
    def test_intra_only_fixture(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (2, 3)]), sensitive=[0, 0, 1, 1])
        stats = degree_stats(ds)
        assert stats.intra_edges == 2 and stats.inter_edges == 0
        assert stats.boundary_sizes == (0, 0)

    def test_inter_only_fixture(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 2), (1, 3)]), sensitive=[0, 0, 1, 1])
        stats = degree_stats(ds)
        assert stats.inter_edges == 2 and stats.intra_edges == 0
        assert stats.boundary_sizes == (2, 2)

    def test_group_sizes(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1)]), sensitive=[0, 1, 1, 1])
        stats = degree_stats(ds)
        assert stats.group_sizes == (1, 3)


class TestDatasetValidation:
    def test_asymmetric_rejected(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            tiny_dataset(mat)

    def test_self_loop_rejected(self):
        mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            tiny_dataset(mat)

    def test_overlapping_masks_rejected(self):
        adj = sp.csr_matrix((2, 2))
        mask = np.array([True, False])
        with pytest.raises(ValueError, match="disjoint"):
            GraphDataset(
                adjacency=adj,
                features=np.zeros((2, 1)),
                sensitive=np.array([0, 1]),
                labels=np.array([0, 1]),
                train_mask=mask,
                val_mask=mask,
                test_mask=np.array([False, False]),
            )

    def test_non_binary_sensitive_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            tiny_dataset(sp.csr_matrix((2, 2)), sensitive=[0, 2])

    def test_coo_adjacency_becomes_canonical_csr(self):
        ds = random_dataset(n=20, seed=5)
        coo = replace(ds, adjacency=ds.adjacency.tocoo())
        assert coo.adjacency.format == "csr" and coo.adjacency.has_canonical_format
        assert (coo.adjacency != ds.adjacency).nnz == 0
        np.testing.assert_array_equal(select_edges(coo, 5).chosen, select_edges(ds, 5).chosen)

    def test_dense_adjacency_rejected(self):
        ds = random_dataset(n=10, seed=5)
        with pytest.raises(ValueError, match="sparse"):
            replace(ds, adjacency=ds.adjacency.toarray())

    def test_integer_masks_rejected(self):
        ds = random_dataset(n=40, seed=5)
        with pytest.raises(ValueError, match="train_mask must be boolean"):
            replace(ds, train_mask=ds.train_mask.astype(np.int64))

    def test_one_dimensional_features_rejected(self):
        ds = random_dataset(n=10, f=1, seed=5)
        with pytest.raises(ValueError, match="2-D"):
            replace(ds, features=ds.features[:, 0])

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda ds: replace(ds, adjacency=sp.csr_matrix((10, 11))), "adjacency must be square", id="adjacency"
            ),
            pytest.param(
                lambda ds: replace(ds, features=np.zeros((11, 2))), "features have 11 rows, expected 10", id="features"
            ),
            pytest.param(
                lambda ds: replace(ds, val_mask=np.zeros(9, dtype=bool)), "val_mask must have length 10", id="mask"
            ),
            pytest.param(lambda ds: remove_edges(ds, [[0, 1, 2]]), r"edges must be \(i, j\) pairs", id="edges"),
        ],
    )
    def test_misshapen_input_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(random_dataset(n=10, f=2, seed=5))

    def test_featureless_graph_rejected(self):
        """Unchecked, such a graph runs a whole edge experiment to chance-level rows with empty weights."""
        ds = random_dataset(n=10, f=2, seed=5)
        with pytest.raises(ValueError, match="at least one column"):
            replace(ds, features=np.zeros((10, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        ds = random_dataset(n=10, f=2, seed=5)
        features = ds.features.copy()
        features[3, 1] = value
        with pytest.raises(ValueError, match="features must be finite"):
            replace(ds, features=features)

    def test_immutability_contract(self):
        ds = random_dataset(n=8, seed=1)
        before = ds.adjacency.toarray().copy()
        out = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        np.testing.assert_array_equal(ds.adjacency.toarray(), before)
        assert out.adjacency.nnz == ds.adjacency.nnz - 2

    def test_an_edge_stored_in_halves_counts_once(self):
        """The path 0-1-2-3 with both directions of (0, 1) stored as two 0.5 entries."""
        data = [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
        adjacency = sp.csr_matrix((data, [1, 1, 0, 0, 2, 1, 3, 2], [0, 2, 5, 7, 8]), shape=(4, 4))
        ds = tiny_dataset(adjacency, sensitive=[0, 0, 1, 1])
        assert ds.n_edges == 3
        np.testing.assert_array_equal(ds.edge_pairs(), [[0, 1], [1, 2], [2, 3]])
        stats = degree_stats(ds)
        np.testing.assert_array_equal(stats.degree, [1, 2, 2, 1])
        assert (stats.intra_edges, stats.inter_edges) == (2, 1)
        path = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        np.testing.assert_array_equal(ds.adjacency.toarray(), path.toarray())
        assert adjacency.nnz == 8

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), layout=st.sampled_from(("unsorted", "duplicates")))
    def test_any_stored_layout_gives_the_canonical_graph(self, seed, layout):
        rng = np.random.default_rng(seed)
        canonical = random_dataset(n=int(rng.integers(4, 25)), seed=seed)
        assert canonical.adjacency.has_canonical_format
        stored = stored_differently(canonical.adjacency, layout, rng)
        before = [stored.indptr.copy(), stored.indices.copy(), stored.data.copy()]
        ds = replace(canonical, adjacency=stored)
        assert ds.n_edges == canonical.n_edges
        np.testing.assert_array_equal(ds.edge_pairs(), canonical.edge_pairs())
        for f in fields(DegreeStats):
            np.testing.assert_array_equal(getattr(degree_stats(ds), f.name), getattr(degree_stats(canonical), f.name))
        pairs = canonical.edge_pairs()
        if len(pairs):
            for kind in EDGE_KINDS:
                k = int(rng.integers(1, len(pairs) + 1))
                np.testing.assert_array_equal(
                    select_edges(ds, k, kind=kind, seed=seed).chosen,
                    select_edges(canonical, k, kind=kind, seed=seed).chosen,
                )
            take = pairs[rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)]
            out, expected = remove_edges(ds, take), remove_edges(canonical, take)
            np.testing.assert_array_equal(out.adjacency.indptr, expected.adjacency.indptr)
            np.testing.assert_array_equal(out.adjacency.indices, expected.adjacency.indices)
            np.testing.assert_allclose(out.adjacency.data, expected.adjacency.data, rtol=1e-15)
        for array, copied in zip((stored.indptr, stored.indices, stored.data), before):
            np.testing.assert_array_equal(array, copied)


# Adjacencies the full check rejects, each with its error message: asymmetric,
# a stored self-loop, a negative entry and a weighted one.
BAD_ADJACENCIES = {
    "symmetric": (sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])), "symmetric"),
    "diagonal": (sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])), "diagonal"),
    "positive": (sp.csr_matrix(np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])), "unweighted"),
    "weighted": (sp.csr_matrix(np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])), "unweighted"),
}


def rebuilt(ds):
    """``ds`` through the full constructor, with every check."""
    return GraphDataset(**{f.name: getattr(ds, f.name) for f in fields(ds) if f.init})


class TestIncrementalValidation:
    """Edits run no check; graphs built from outside data run them all."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kinds=st.lists(st.sampled_from(("edges", "nodes", "features")), min_size=1, max_size=6),
    )
    def test_every_edit_passes_the_full_constructor(self, seed, kinds):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(3, 60)), f=3, seed=seed, avg_degree=float(rng.uniform(0, 6)))
        for kind in kinds:
            pairs = ds.edge_pairs()
            if kind == "edges" and len(pairs):
                take = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
                # Either direction, repeats included.
                edges = [tuple(pairs[i][::-1]) if rng.random() < 0.5 else tuple(pairs[i]) for i in take]
                out = remove_edges(ds, edges + edges[:1])
            elif kind == "nodes":
                out = remove_nodes(ds, rng.choice(ds.n_nodes, size=int(rng.integers(1, ds.n_nodes + 1))))
            else:
                out = zero_feature_columns(ds, rng.choice(ds.n_features, size=int(rng.integers(1, 4))))
            again = rebuilt(out)
            for f in fields(out):
                if f.init and f.name != "adjacency":
                    np.testing.assert_array_equal(getattr(again, f.name), getattr(out, f.name))
            assert (again.adjacency != out.adjacency).nnz == 0
            ds = out

    def test_edits_skip_the_adjacency_checks(self):
        ds = random_dataset(n=30, seed=3)
        with mock.patch.object(GraphDataset, "__post_init__", side_effect=AssertionError("full check ran")):
            remove_edges(ds, [tuple(ds.edge_pairs()[0])])
            remove_nodes(ds, [0, 5])
            zero_feature_columns(ds, [1])

    def test_edits_keeping_both_columns_skip_the_binary_checks(self):
        """No edit checks what it passes, whichever columns it replaces: the arrays come from checked ones."""
        ds = random_dataset(n=30, seed=3)
        with mock.patch.object(np, "isin", side_effect=AssertionError("binary check ran")):
            remove_edges(ds, [tuple(ds.edge_pairs()[0])])
            remove_nodes(ds, [0, 5])
            zero_feature_columns(ds, [1])
            data.make_splits(ds, (0.5, 0.25, 0.25), seed=1)
            unchecked = ds._edited(labels=ds.labels + 2, val_mask=ds.train_mask)
        assert unchecked.labels.max() == 3 and (unchecked.val_mask & unchecked.train_mask).any()

    @pytest.mark.parametrize("problem", sorted(BAD_ADJACENCIES))
    def test_constructor_rejects(self, problem):
        adjacency, message = BAD_ADJACENCIES[problem]
        with pytest.raises(ValueError, match=message):
            tiny_dataset(adjacency)

    @pytest.mark.parametrize("problem", sorted(BAD_ADJACENCIES))
    def test_synthetic_generators_reject(self, problem):
        adjacency, message = BAD_ADJACENCIES[problem]
        with mock.patch.object(synthetic, "random_adjacency", return_value=adjacency):
            with pytest.raises(ValueError, match=message):
                synthetic.feature_unlearning_instance(n=3, f=2, seed=0)
        with mock.patch.object(synthetic, "sbm_adjacency", return_value=adjacency):
            with pytest.raises(ValueError, match=message):
                synthetic.homophilous_dataset(n=3, f=2, seed=0, fractions=(0.4, 0.2, 0.4))

    @pytest.mark.parametrize("problem", sorted(BAD_ADJACENCIES))
    def test_loader_rejects(self, problem, write_dataset_files):
        edges_path, features_path = write_dataset_files(n=3, sensitive=(0, 1, 1), labels=(0, 1, 0))
        manifest = DatasetManifest(
            name="tiny",
            edges_path=edges_path,
            features_path=features_path,
            sensitive_column="sens",
            label_column="label",
        )
        adjacency, message = BAD_ADJACENCIES[problem]
        with mock.patch.object(data, "_read_edge_list", return_value=adjacency):
            with pytest.raises(ValueError, match=message):
                load_dataset(manifest)

    def test_rejected_edits_leave_the_input_unchanged(self):
        ds = random_dataset(n=12, seed=4, avg_degree=3.0)
        before = [a.copy() for a in (ds.adjacency.data, ds.adjacency.indices, ds.adjacency.indptr, ds.features)]
        missing = next((i, j) for i in range(12) for j in range(i + 1, 12) if ds.adjacency[i, j] == 0)
        rejected = [
            (lambda: remove_edges(ds, [tuple(ds.edge_pairs()[0]), missing]), ValueError),
            (lambda: remove_edges(ds, [(0, 12)]), IndexError),
            (lambda: remove_nodes(ds, [3, 12]), ValueError),
            (lambda: zero_feature_columns(ds, [0, ds.n_features]), ValueError),
        ]
        for edit, error in rejected:
            with pytest.raises(error):
                edit()
            after = (ds.adjacency.data, ds.adjacency.indices, ds.adjacency.indptr, ds.features)
            for array, was in zip(after, before):
                np.testing.assert_array_equal(array, was)


# The dtype of each dense array a graph keeps.
CANONICAL_DTYPES = {
    "features": np.float64,
    "sensitive": np.int64,
    "labels": np.int64,
    "train_mask": np.bool_,
    "val_mask": np.bool_,
    "test_mask": np.bool_,
}


def graph_arrays(ds):
    """Every array of ``ds`` by name, the adjacency's data, indices and indptr among them."""
    adj = ds.adjacency
    arrays = {"adjacency.data": adj.data, "adjacency.indices": adj.indices, "adjacency.indptr": adj.indptr}
    arrays.update((name, getattr(ds, name)) for name in CANONICAL_DTYPES)
    return arrays


def assert_owns_read_only_arrays(ds):
    """Every array of ``ds`` is read-only and a write raises; each dense one is canonical and its own."""
    assert ds.adjacency.format == "csr" and ds.adjacency.has_canonical_format
    for name, a in graph_arrays(ds).items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        # An unpickled array views the immutable bytes it was read from.
        if name in CANONICAL_DTYPES:
            assert a.base is None or type(a.base) is bytes, name
            assert a.flags.c_contiguous and a.dtype == CANONICAL_DTYPES[name], name
        else:
            # scipy keeps the data and indices as views, here of arrays as read-only as they are.
            assert not isinstance(a.base, np.ndarray) or not a.base.flags.writeable, name


def assert_same_graph(ds, expected):
    for name, a in graph_arrays(expected).items():
        np.testing.assert_array_equal(graph_arrays(ds)[name], a, err_msg=name)


def built_from_views(ref, rng):
    """``ref`` rebuilt from views: every dense array a strided view of a larger writable one, and a CSR
    over the caller's own index arrays. Returns the graph and the arrays it was built from."""
    n, f = ref.features.shape
    wide = rng.normal(size=(n, 2 * f))
    wide[:, ::2] = ref.features
    columns = np.stack([ref.sensitive, ref.labels])
    masks = np.stack([ref.train_mask, ref.val_mask, ref.test_mask])
    adj = ref.adjacency
    csr = [adj.data.copy(), adj.indices.copy(), adj.indptr.copy()]
    ds = GraphDataset(sp.csr_matrix(tuple(csr), shape=adj.shape), wide[:, ::2], *columns, *masks)
    return ds, (wide, columns, masks), csr


def built_from_other_dtypes(ref, rng):
    """``ref`` with features of another dtype or layout, binary columns of other dtypes and a non-canonical CSR."""
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    features = pick([np.asfortranarray(ref.features), ref.features.astype(np.float32), ref.features.tolist()])
    layout = pick(["unsorted", "duplicates", "coo", "csc"])
    if layout in ("coo", "csc"):
        adjacency = ref.adjacency.asformat(layout)
    else:
        adjacency = stored_differently(ref.adjacency, layout, rng)
    return GraphDataset(
        adjacency,
        features,
        ref.sensitive.astype(pick([np.bool_, np.int32, np.float64])),
        ref.labels.astype(pick([np.uint8, np.float32])),
        ref.train_mask,
        ref.val_mask,
        ref.test_mask,
    )


def derived(ds, step, rng):
    """``ds`` through one edit, split, copy or round trip."""
    if step == "edges":
        pairs = ds.edge_pairs()
        return remove_edges(ds, pairs[rng.choice(len(pairs), size=min(len(pairs), 2), replace=False)])
    if step == "nodes":
        return remove_nodes(ds, rng.choice(ds.n_nodes, size=2))
    if step == "features":
        aggregate(ds, int(rng.integers(0, 3)), (graph.SGC, graph.GPR)[int(rng.integers(2))])
        return zero_feature_columns(ds, [int(rng.integers(ds.n_features))])
    if step == "splits":
        return data.make_splits(ds, (0.4, 0.2, 0.4), seed=int(rng.integers(100)))
    if step == "replace":
        return replace(ds)
    if step == "pickle":
        return pickle.loads(pickle.dumps(ds))
    return {"copy": copy.copy, "deepcopy": copy.deepcopy}[step](ds)


class TestOwnership:
    """A graph keeps canonical arrays of its own, read-only for good, through every edit, copy and split."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        source=st.sampled_from(("feature_unlearning_instance", "homophilous_dataset", "views", "dtypes")),
        steps=st.lists(
            st.sampled_from(("edges", "nodes", "features", "splits", "replace", "copy", "deepcopy", "pickle")),
            max_size=5,
        ),
    )
    def test_every_graph_owns_read_only_arrays(self, seed, source, steps):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(16, 40)), int(rng.integers(2, 5))
        if source == "feature_unlearning_instance":
            ds = synthetic.feature_unlearning_instance(n=n, f=f, seed=seed)
        elif source == "homophilous_dataset":
            ds = synthetic.homophilous_dataset(n=n, f=f, seed=seed, fractions=(0.4, 0.2, 0.4))
        else:
            ref = random_dataset(n=n, f=f, seed=seed)
            ds = built_from_views(ref, rng)[0] if source == "views" else built_from_other_dtypes(ref, rng)
            np.testing.assert_allclose(ds.features, ref.features, rtol=1e-6)
            for name in ("sensitive", "labels", "train_mask", "val_mask", "test_mask"):
                np.testing.assert_array_equal(getattr(ds, name), getattr(ref, name))
            assert (ds.adjacency != ref.adjacency).nnz == 0
        assert_owns_read_only_arrays(ds)
        for step in steps:
            ds = derived(ds, step, rng)
            assert_owns_read_only_arrays(ds)

    def test_the_loader_builds_read_only_arrays(self, tmp_path, write_dataset_files):
        edges_path, features_path = write_dataset_files(n=5, sensitive=(0, 1, 1, 0, 1), labels=(0, 1, 0, 1, 1))
        manifest = DatasetManifest("tiny", edges_path, features_path, "sens", "label")
        assert_owns_read_only_arrays(load_dataset(manifest))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_a_graph_built_from_views_stays_the_same_when_they_are_written(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_dataset(n=int(rng.integers(4, 30)), f=int(rng.integers(1, 4)), seed=seed)
        ds, bases, csr = built_from_views(ref, rng)
        for base in bases:
            base[...] = 1
        assert_same_graph(ds, ref)
        # The CSR keeps the caller's index arrays, which are read-only now.
        for a in csr:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert_same_graph(ds, ref)

    def test_arrays_the_graph_owns_are_not_copied(self):
        ds = random_dataset(n=20, seed=2)
        again = replace(ds)
        assert all(getattr(again, f.name) is getattr(ds, f.name) for f in fields(ds))

    def test_a_feature_write_raises_and_the_carry_stays_valid(self):
        """A write that went through would leave the carried aggregation stale, unlike a fresh one."""
        ds = synthetic.homophilous_dataset(n=100, f=4, seed=0)
        carried = aggregate(ds, 2, graph.SGC)
        with pytest.raises(ValueError, match="read-only"):
            ds.features[:, 1] = 0
        np.testing.assert_array_equal(carried.values, aggregate(replace(ds), 2, graph.SGC).values)

    def test_a_mask_write_raises(self):
        ds = synthetic.homophilous_dataset(n=100, f=4, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            ds.val_mask[:] = ds.train_mask
        assert not (ds.val_mask & ds.train_mask).any()

    def test_an_adjacency_write_raises(self):
        ds = synthetic.homophilous_dataset(n=100, f=4, seed=0)
        for a in (ds.adjacency.data, ds.adjacency.indices, ds.adjacency.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 2
        assert (ds.adjacency.data == 1.0).all()


BUDGET = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)
COPIES = ("replace", "copy", "deepcopy", "pickle")


def assert_unwritten(ds, before):
    """``ds`` has the attributes ``before`` lists, each the very same object."""
    after = vars(ds)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def carries_nothing(ds):
    return graph._carried.get(ds) is None and graph._memos.get(ds) is None


def assert_compares_by_identity(x):
    """``x`` equals itself and nothing else, a deep copy included, and hashes; returns that copy."""
    twin = copy.deepcopy(x)
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert hash(x) == hash(x) and len({x, twin}) == 2
    return twin


class TestSideTables:
    """A graph is never written after it is built: what it carries and its memo
    live in `graph`'s weak tables, keyed by the graph object, and go with it."""

    def test_a_graph_is_never_written(self):
        ds = synthetic.homophilous_dataset(n=60, f=4, seed=3)
        model = train(ds, aggregate(ds, 2, graph.GPR), TrainConfig(lam=1.0, seed=3))
        pair = tuple(ds.edge_pairs()[0])
        before = dict(vars(ds))
        aggregate(ds, 2, graph.SGC)
        aggregate(ds, 2, graph.GPR)
        degree_stats(ds)
        select_edges(ds, 3)
        ds.edge_pairs()
        remove_edges(ds, [pair])
        remove_nodes(ds, [0])
        zero_feature_columns(ds, [1])
        data.make_splits(ds, (0.4, 0.2, 0.4), seed=1)
        _, _, edited = sequential_unlearn(model, ds, [EdgeRemoval((pair,))], BUDGET, graph.GPR, 2)
        assert_unwritten(ds, before)
        # The next call takes the hop blocks the returned graph carries off it, without writing it.
        before = dict(vars(edited))
        assert graph._carried[edited][3] is not None
        sequential_unlearn(model, edited, [FeatureRemoval((0,))], BUDGET, graph.GPR, 2)
        assert graph._carried.get(edited) is None
        assert_unwritten(edited, before)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        source=st.sampled_from(("feature_unlearning_instance", "homophilous_dataset")),
        steps=st.lists(st.sampled_from(("edges", "nodes", "features", "splits", *COPIES)), min_size=1, max_size=4),
    )
    def test_graphs_compare_by_identity(self, seed, source, steps):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(16, 40)), int(rng.integers(2, 5))
        if source == "feature_unlearning_instance":
            ds = synthetic.feature_unlearning_instance(n=n, f=f, seed=seed)
        else:
            ds = synthetic.homophilous_dataset(n=n, f=f, seed=seed, fractions=(0.4, 0.2, 0.4))
        self.assert_steps_follow_the_rule(ds, steps, rng)

    def test_a_loaded_graph_compares_by_identity(self, tmp_path, write_dataset_files):
        edges_path, features_path = write_dataset_files(
            edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), n=5, sensitive=(0, 1, 1, 0, 1), labels=(0, 1, 0, 1, 1)
        )
        ds = load_dataset(DatasetManifest("tiny", edges_path, features_path, "sens", "label"))
        steps = ["edges", "nodes", "features", *COPIES]
        self.assert_steps_follow_the_rule(ds, steps, np.random.default_rng(0))

    @staticmethod
    def assert_steps_follow_the_rule(ds, steps, rng):
        """Each graph along ``steps`` compares by identity; copies of it carry nothing."""
        for step in steps:
            # Something to carry and memoise, for the step to keep or drop.
            aggregate(ds, 2, graph.GPR)
            degree_stats(ds)
            assert carries_nothing(assert_compares_by_identity(ds))
            ds = derived(ds, step, rng)
            if step in COPIES:
                assert carries_nothing(ds)
        assert_compares_by_identity(ds)

    def test_every_array_record_compares_by_identity(self):
        ds = synthetic.homophilous_dataset(n=60, f=4, seed=5)
        agg = aggregate(ds, 2, graph.GPR)
        model = train(ds, agg, TrainConfig(lam=1.0, seed=5))
        requests = [FeatureRemoval((0,)), EdgeRemoval((tuple(ds.edge_pairs()[0]),)), NodeRemoval((1,))]
        results, _, _ = sequential_unlearn(model, ds, requests, BUDGET, graph.GPR, 2)
        selections = [select_edges(ds, 2), select_features(ds.features, ds.sensitive, 2), select_nodes(ds, 2)]
        records = [agg, degree_stats(ds), model, *selections, *results, *requests]
        assert {type(r).__name__ for r in records} == {
            "AggregatedFeatures",
            "DegreeStats",
            "TrainedModel",
            "SelectionResult",
            "UnlearnResult",
            "FeatureRemoval",
            "EdgeRemoval",
            "NodeRemoval",
        }
        for record in records:
            assert_compares_by_identity(record)

    def test_the_tables_free_with_their_graphs(self):
        gc.collect()
        sizes = len(graph._carried), len(graph._memos)
        ds = random_dataset(n=40, seed=4)
        aggregate(ds, 2, graph.GPR)
        degree_stats(ds)
        zeroed = zero_feature_columns(ds, [0])
        assert (len(graph._carried), len(graph._memos)) == (sizes[0] + 2, sizes[1] + 2)
        dropped = [weakref.ref(ds), weakref.ref(zeroed)]
        del ds, zeroed
        gc.collect()
        assert all(ref() is None for ref in dropped)
        assert (len(graph._carried), len(graph._memos)) == sizes

    def test_a_request_stream_keeps_the_tables_the_same_size(self):
        """Over 50 single-edge requests, each fed the graph the last one returned,
        the graphs left behind free their entries as they go."""
        ds = random_dataset(n=200, f=3, seed=9)
        model = train(ds, aggregate(ds, 2, graph.GPR), TrainConfig(lam=1.0, seed=9))
        gc.collect()
        current, sizes = ds, []
        for _ in range(50):
            request = lambda g: EdgeRemoval(select_edges(g, 1).chosen)  # noqa: E731
            _, _, current = sequential_unlearn(model, current, [request], BUDGET, graph.GPR, 2)
            sizes.append((len(graph._carried), len(graph._memos)))
        assert sizes == sizes[:1] * 50


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_degree_stats_match_dense_counts(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(n=int(rng.integers(2, 40)), seed=seed, avg_degree=float(rng.uniform(0, 6)))
    a = ds.adjacency.toarray() != 0
    s = ds.sensitive
    other = s[None, :] != s[:, None]
    stats = degree_stats(ds)
    np.testing.assert_array_equal(stats.degree, a.sum(axis=1))
    np.testing.assert_array_equal(stats.inter_degree, (a & other).sum(axis=1))
    np.testing.assert_array_equal(stats.intra_degree, (a & ~other).sum(axis=1))
    assert stats.inter_edges == int((a & other).sum()) // 2
    assert stats.intra_edges == int((a & ~other).sum()) // 2
    assert stats.boundary_sizes == tuple(int(((s == g) & (a & other).any(axis=1)).sum()) for g in (0, 1))
    assert stats.degree.dtype == stats.inter_degree.dtype == stats.intra_degree.dtype == np.int64


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(
    values=st.one_of(
        st.lists(INT64, max_size=60),
        st.lists(st.integers(-3, 3), max_size=60),
        st.builds(lambda v, k: [v] * k, INT64, st.integers(1, 20)),
    ),
    modulus=st.integers(1, 50),
)
@example(values=[], modulus=1)
@example(values=[7] * 9, modulus=3)
@example(values=[-(2**63), 2**63 - 1, -1, 0, 2**63 - 1, -(2**63)], modulus=5)
def test_sorted_unique_matches_np_unique(values, modulus):
    """The sort-and-compare dedupe gives `np.unique`'s array: empty, all-equal,
    negative and extreme int64 keys, and a pair of arrays flattened as one."""
    keys = np.asarray(values, dtype=np.int64).reshape(-1)
    for arg in (keys, np.divmod(keys, modulus)):
        got, want = graph._sorted_unique(arg), np.unique(arg)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
