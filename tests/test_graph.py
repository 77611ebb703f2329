import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwipe.graph import (
    GraphDataset,
    aggregate,
    build_propagation,
    degree_stats,
    remove_edges,
    remove_nodes,
    zero_feature_columns,
)
from fairwipe.synthetic import random_adjacency

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


class TestPropagation:
    def test_two_nodes_one_edge(self):
        ds = tiny_dataset(adjacency_from_edges(2, [(0, 1)]))
        p = build_propagation(ds, hops=1).matrix.toarray()
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_edgeless_graph_is_identity(self):
        for n in (1, 3, 7):
            ds = tiny_dataset(sp.csr_matrix((n, n)))
            p = build_propagation(ds, hops=2).matrix.toarray()
            np.testing.assert_allclose(p, np.eye(n))

    def test_triangle_rows_are_thirds(self):
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        p = build_propagation(ds, hops=1).matrix.toarray()
        np.testing.assert_allclose(p, np.full((3, 3), 1 / 3))

    def test_rows_sum_to_one_on_random_graphs(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            ds = tiny_dataset(random_adjacency(n, float(rng.uniform(0, 6)), rng))
            p = build_propagation(ds, hops=3).matrix
            row_sums = np.asarray(p.sum(axis=1)).ravel()
            assert np.abs(row_sums - 1.0).max() < 1e-9
            assert p.diagonal().min() > 0
            assert p.data.min() >= 0

    def test_negative_hops_rejected(self):
        ds = tiny_dataset(sp.csr_matrix((2, 2)))
        with pytest.raises(ValueError):
            build_propagation(ds, hops=-1)


class TestAggregate:
    def test_edgeless_sgc_returns_features(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        ds = tiny_dataset(sp.csr_matrix((5, 5)), features=x)
        for hops in (0, 1, 4):
            agg = aggregate(ds, build_propagation(ds, hops), "sgc")
            np.testing.assert_allclose(agg.values, x)

    def test_gpr_zero_hops_returns_features(self):
        x = np.random.default_rng(1).normal(size=(4, 2))
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (2, 3)]), features=x)
        agg = aggregate(ds, build_propagation(ds, 0), "gpr")
        np.testing.assert_allclose(agg.values, x)
        assert agg.width == 2

    def test_path_one_hot_averages_closed_neighborhoods(self):
        # 3-node path with identity features: row i of Z is row i of the
        # normalized adjacency, i.e. the average over the closed neighborhood.
        ds = tiny_dataset(adjacency_from_edges(3, [(0, 1), (1, 2)]), features=np.eye(3))
        agg = aggregate(ds, build_propagation(ds, 1), "sgc")
        expected = np.array([
            [1 / 2, 1 / 2, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 2, 1 / 2],
        ])
        np.testing.assert_allclose(agg.values, expected)

    def test_gpr_width_and_norm(self):
        ds = random_dataset(n=20, f=3, seed=5)
        agg = aggregate(ds, build_propagation(ds, 2), "gpr")
        assert agg.width == 9
        assert agg.scheme == "gpr"

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
            prop = build_propagation(ds, int(rng.integers(0, 4)))
            x_max = np.linalg.norm(ds.features, axis=1).max()
            for scheme in ("sgc", "gpr"):
                z = aggregate(ds, prop, scheme).values
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
        prop = build_propagation(d1, 2)
        for scheme in ("sgc", "gpr"):
            za = aggregate(d1, prop, scheme).values
            zb = aggregate(d2, prop, scheme).values
            zm = aggregate(mixed, prop, scheme).values
            np.testing.assert_allclose(zm, a * za + b * zb, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        ds = tiny_dataset(sp.csr_matrix((4, 4)))
        other = tiny_dataset(sp.csr_matrix((5, 5)))
        prop = build_propagation(other, 1)
        with pytest.raises(ValueError):
            aggregate(ds, prop, "sgc")

    def test_unknown_scheme_rejected(self):
        ds = tiny_dataset(sp.csr_matrix((2, 2)))
        with pytest.raises(ValueError):
            aggregate(ds, build_propagation(ds, 1), "gcn")


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
        with pytest.raises(ValueError, match="not present"):
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
        with pytest.raises(ValueError, match="not present"):
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

    def test_weights_of_kept_edges_survive(self):
        mat = np.zeros((4, 4))
        for (i, j), w in {(0, 1): 0.5, (1, 2): 2.0, (2, 3): 3.0, (0, 3): 1.5}.items():
            mat[i, j] = mat[j, i] = w
        ds = tiny_dataset(mat)
        out = remove_edges(ds, [(2, 1)])
        expected = mat.copy()
        expected[1, 2] = expected[2, 1] = 0.0
        np.testing.assert_array_equal(out.adjacency.toarray(), expected)

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
        p = build_propagation(out, 1).matrix.toarray()
        np.testing.assert_allclose(p, np.eye(3))

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

    def test_immutability_contract(self):
        ds = random_dataset(n=8, seed=1)
        before = ds.adjacency.toarray().copy()
        out = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        np.testing.assert_array_equal(ds.adjacency.toarray(), before)
        assert out.adjacency.nnz == ds.adjacency.nnz - 2


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
