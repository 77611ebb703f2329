import copy
import dataclasses
import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwipe.fairness import (
    ablation_variants,
    alpha_diagnostics,
    edge_bias_scores,
    fairness_metrics,
    node_bias_scores,
    pearson_correlations,
    raw_sp_and_bound,
    select_edges,
    select_features,
    select_nodes,
)
from fairwipe.graph import (
    DegreeStats,
    aggregate,
    build_propagation,
    degree_stats,
    remove_edges,
    remove_nodes,
    zero_feature_columns,
)
from fairwipe.synthetic import gaussian_features, planted_bias_features, random_adjacency

from conftest import random_dataset
from test_graph import adjacency_from_edges, tiny_dataset


def exact_rho_matrix(coefficients):
    """Columns with exactly the requested Pearson correlations against s.

    Each column mixes the unit-normalized centered sensitive vector with an
    orthogonal unit direction, so the mixing coefficient is the correlation.
    """
    s = np.array([0, 0, 1, 1])
    u = np.array([-0.5, -0.5, 0.5, 0.5])
    v = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    cols = [rho * u + np.sqrt(1 - rho**2) * v for rho in coefficients]
    return np.column_stack(cols), s


class TestPearson:
    def test_column_equal_to_s(self):
        s = np.array([0, 1, 0, 1, 1])
        rho = pearson_correlations(s.reshape(-1, 1).astype(float), s).rho
        assert rho[0] == pytest.approx(1.0)

    def test_column_equal_to_complement(self):
        s = np.array([0, 1, 0, 1, 1])
        rho = pearson_correlations((1 - s).reshape(-1, 1).astype(float), s).rho
        assert rho[0] == pytest.approx(-1.0)

    def test_constant_column_maps_to_zero(self):
        s = np.array([0, 1, 1, 0])
        x = np.column_stack([np.full(4, 3.7), s.astype(float)])
        rho = pearson_correlations(x, s).rho
        assert rho[0] == 0.0
        assert rho[1] == pytest.approx(1.0)

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            pearson_correlations(np.zeros((3, 1)), np.array([1, 1, 1]))

    def test_constant_columns_at_large_offset_map_to_exactly_zero(self):
        # With an unbalanced s, an uncentred covariance of a constant column
        # would not vanish; the live test must still catch it.
        rng = np.random.default_rng(1)
        s = np.zeros(50, dtype=np.int64)
        s[:7] = 1
        constants = np.column_stack([np.full(50, c) for c in (1e6, -1e6 + 0.1, 123456.789)])
        noisy = 1e6 + 1e-3 * rng.normal(size=50)
        rho = pearson_correlations(np.column_stack([constants, noisy]), s).rho
        assert list(rho[:3]) == [0.0, 0.0, 0.0]
        expected = scipy.stats.pearsonr(noisy, s).statistic
        assert rho[3] != 0.0
        assert rho[3] == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            x = rng.normal(size=(n, 3))
            s = rng.integers(0, 2, size=n)
            s[0], s[1] = 0, 1
            rho = pearson_correlations(x, s).rho
            for f in range(3):
                expected = scipy.stats.pearsonr(x[:, f], s).statistic
                assert rho[f] == pytest.approx(expected, abs=1e-12)

    def test_exact_mixture_construction(self):
        x, s = exact_rho_matrix([0.9, -0.95, 0.1])
        rho = pearson_correlations(x, s).rho
        np.testing.assert_allclose(rho, [0.9, -0.95, 0.1], atol=1e-12)

    def test_invariant_under_linear_aggregation(self):
        # Mixing propagated columns and correlating matches the direct
        # correlation of the mixed column (aggregation is linear in X).
        rng = np.random.default_rng(3)
        for seed in range(10):
            ds = random_dataset(n=25, f=4, seed=seed)
            prop = build_propagation(ds, 2)
            z = aggregate(ds, prop, "sgc").values
            a = rng.normal(size=4)
            mixed = z @ a
            ours = pearson_correlations(mixed.reshape(-1, 1), ds.sensitive).rho[0]
            expected = scipy.stats.pearsonr(mixed, ds.sensitive).statistic
            assert ours == pytest.approx(expected, abs=1e-12)


class TestSelectFeatures:
    def test_ranks_by_absolute_correlation(self):
        x, s = exact_rho_matrix([0.9, -0.95, 0.1])
        result = select_features(x, s, k=1)
        assert list(result.chosen) == [1]

    def test_k_equals_f_selects_everything(self):
        x, s = exact_rho_matrix([0.3, -0.2, 0.7])
        result = select_features(x, s, k=3)
        assert sorted(result.chosen) == [0, 1, 2]
        assert list(result.chosen) == [2, 0, 1]

    def test_budget_bounds(self):
        x, s = exact_rho_matrix([0.5])
        with pytest.raises(ValueError):
            select_features(x, s, k=0)
        with pytest.raises(ValueError):
            select_features(x, s, k=2)

    def test_planted_column_is_found(self):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x, s = planted_bias_features(150, 20, planted_column=7, rng=rng)
            if select_features(x, s, k=1).chosen[0] == 7:
                hits += 1
        assert hits >= 29

    def test_zeroing_shrinks_rho_norm_monotonically(self):
        rng = np.random.default_rng(5)
        x, s = planted_bias_features(100, 8, planted_column=2, rng=rng)
        rho = pearson_correlations(x, s)
        previous = rho.norm
        order = np.argsort(-np.abs(rho.rho))
        x = x.copy()
        for col in order:
            x[:, col] = 0.0
            current = pearson_correlations(x, s)
            assert current.norm <= previous + 1e-12
            assert current.rho[col] == 0.0
            previous = current.norm

    def test_fair_selection_beats_random_on_average(self):
        fair_norms, random_norms = [], []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x, s = planted_bias_features(120, 10, planted_column=int(rng.integers(10)), rng=rng)
            k = seed % 5 + 1
            chosen = select_features(x, s, k).chosen
            x_fair = x.copy()
            x_fair[:, chosen] = 0.0
            fair_norms.append(pearson_correlations(x_fair, s).norm)
            x_rand = x.copy()
            x_rand[:, rng.choice(10, size=k, replace=False)] = 0.0
            random_norms.append(pearson_correlations(x_rand, s).norm)
        assert np.mean(fair_norms) < np.mean(random_norms)
        assert len(fair_norms) == 200


class TestStructuralScores:
    def test_intra_edge_scores_inverse_min_degree(self):
        stats = DegreeStats(
            degree=np.array([3, 5]),
            inter_degree=np.array([0, 0]),
            intra_degree=np.array([3, 5]),
            group_sizes=(2, 0),
            boundary_sizes=(0, 0),
            inter_edges=0,
            intra_edges=4,
        )
        score = edge_bias_scores(np.array([[0, 1]]), np.array([0, 0]), stats)
        assert score[0] == pytest.approx(1 / 3)

    def test_inter_edge_scores_zero(self):
        stats = DegreeStats(
            degree=np.array([2, 9]),
            inter_degree=np.array([1, 1]),
            intra_degree=np.array([1, 8]),
            group_sizes=(1, 1),
            boundary_sizes=(1, 1),
            inter_edges=1,
            intra_edges=4,
        )
        score = edge_bias_scores(np.array([[0, 1]]), np.array([0, 1]), stats)
        assert score[0] == 0.0

    def test_degree_one_intra_edge_is_maximal(self):
        ds = tiny_dataset(
            adjacency_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)]),
            sensitive=[0, 0, 0, 0, 0],
        )
        result = select_edges(ds, k=1)
        assert tuple(result.chosen[0]) == (0, 1)
        assert result.scores.max() == pytest.approx(1.0)

    def test_node_score_formula(self):
        stats = DegreeStats(
            degree=np.array([5]),
            inter_degree=np.array([1]),
            intra_degree=np.array([4]),
            group_sizes=(1, 0),
            boundary_sizes=(1, 0),
            inter_edges=1,
            intra_edges=2,
        )
        assert node_bias_scores(np.array([0]), stats)[0] == pytest.approx(0.4)

    def test_only_inter_edges_scores_zero(self):
        stats = DegreeStats(
            degree=np.array([3]),
            inter_degree=np.array([3]),
            intra_degree=np.array([0]),
            group_sizes=(1, 1),
            boundary_sizes=(1, 1),
            inter_edges=3,
            intra_edges=0,
        )
        assert node_bias_scores(np.array([0]), stats)[0] == 0.0

    def test_degree_one_intra_node_is_maximal(self):
        stats = DegreeStats(
            degree=np.array([1]),
            inter_degree=np.array([0]),
            intra_degree=np.array([1]),
            group_sizes=(2, 0),
            boundary_sizes=(0, 0),
            inter_edges=0,
            intra_edges=1,
        )
        assert node_bias_scores(np.array([0]), stats)[0] == pytest.approx(1.0)

    def test_isolated_node_scores_zero(self):
        stats = DegreeStats(
            degree=np.array([0]),
            inter_degree=np.array([0]),
            intra_degree=np.array([0]),
            group_sizes=(1, 1),
            boundary_sizes=(0, 0),
            inter_edges=0,
            intra_edges=0,
        )
        assert node_bias_scores(np.array([0]), stats)[0] == 0.0

    def test_select_nodes_scope(self):
        ds = random_dataset(n=20, seed=3)
        train_nodes = set(np.flatnonzero(ds.train_mask))
        picked = select_nodes(ds, k=3, scope="train").chosen
        assert set(int(v) for v in picked) <= train_nodes
        all_picked = select_nodes(ds, k=3, scope="all").chosen
        assert len(all_picked) == 3
        with pytest.raises(ValueError):
            select_nodes(ds, k=ds.n_nodes + 1, scope="all")
        with pytest.raises(ValueError):
            select_nodes(ds, k=1, scope="test")


class TestAblationVariants:
    def test_random_is_deterministic_per_seed(self):
        ds = random_dataset(n=15, seed=9)
        a = select_edges(ds, k=3, kind="random", seed=7).chosen
        b = select_edges(ds, k=3, kind="random", seed=7).chosen
        np.testing.assert_array_equal(a, b)
        c = select_edges(ds, k=3, kind="random", seed=8).chosen
        assert not np.array_equal(a, c)

    def test_bias_term_only_and_degree_only(self):
        stats = DegreeStats(
            degree=np.array([5]),
            inter_degree=np.array([1]),
            intra_degree=np.array([4]),
            group_sizes=(1, 0),
            boundary_sizes=(1, 0),
            inter_edges=1,
            intra_edges=2,
        )
        s = np.array([0])
        bias_only = ablation_variants("bias-term-only")(stats, s, nodes=np.array([0]))
        degree_only = ablation_variants("degree-only")(stats, s, nodes=np.array([0]))
        assert bias_only[0] == pytest.approx(2.0)
        assert degree_only[0] == pytest.approx(0.2)

    def test_random_intra_prefers_intra_edges(self):
        ds = tiny_dataset(
            adjacency_from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)]),
            sensitive=[0, 0, 1, 1],
        )
        chosen = select_edges(ds, k=2, kind="random-intra", seed=0).chosen
        s = ds.sensitive
        assert all(s[i] == s[j] for i, j in chosen)
        chosen = select_edges(ds, k=2, kind="random-inter", seed=0).chosen
        assert all(s[i] != s[j] for i, j in chosen)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ablation_variants("influence")

    def test_edge_only_kinds_rejected_for_nodes(self):
        ds = random_dataset(n=10, seed=1)
        with pytest.raises(ValueError):
            select_nodes(ds, k=1, kind="random-intra")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 5))
    def test_chosen_scores_dominate(self, seed, k):
        ds = random_dataset(n=18, seed=seed, avg_degree=5.0)
        pairs = ds.edge_pairs()
        if len(pairs) < k + 1:
            return
        result = select_edges(ds, k=k)
        stats = degree_stats(ds)
        all_scores = edge_bias_scores(pairs, ds.sensitive, stats)
        chosen_keys = set((int(i), int(j)) for i, j in result.chosen)
        chosen_scores = [s for (i, j), s in zip(map(tuple, pairs), all_scores) if (i, j) in chosen_keys]
        rest = [s for (i, j), s in zip(map(tuple, pairs), all_scores) if (i, j) not in chosen_keys]
        assert min(chosen_scores) >= max(rest) - 1e-12


class TestFairnessMetrics:
    def build(self, preds, labels, s):
        n = len(preds)
        test = np.ones(n, dtype=bool)
        return np.asarray(preds), np.asarray(labels), np.asarray(s), test

    def test_constant_positive_predictions(self):
        preds, labels, s, test = self.build([1] * 6, [0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1])
        dsp, deo = fairness_metrics(preds, labels, s, test)
        assert dsp == 0.0 and deo == 0.0

    def test_predicting_the_sensitive_attribute(self):
        preds, labels, s, test = self.build([0, 0, 1, 1], [1, 0, 1, 0], [0, 0, 1, 1])
        dsp, _ = fairness_metrics(preds, labels, s, test)
        assert dsp == 1.0

    def test_hand_counted_fixture(self):
        # group 0: predictions 1,1,1,0 (rate 3/4); group 1: 1,0,0,0 (rate 1/4)
        preds = [1, 1, 1, 0, 1, 0, 0, 0]
        labels = [1, 1, 0, 1, 1, 1, 0, 1]
        s = [0, 0, 0, 0, 1, 1, 1, 1]
        dsp, deo = fairness_metrics(*self.build(preds, labels, s))
        assert dsp == pytest.approx(0.5)
        # positives: group 0 -> preds (1,1,0) tpr 2/3; group 1 -> (1,0,0) tpr 1/3
        assert deo == pytest.approx(1 / 3)

    def test_missing_group_rejected(self):
        preds, labels, s, test = self.build([1, 0], [1, 1], [0, 0])
        with pytest.raises(ValueError, match="group 1"):
            fairness_metrics(preds, labels, s, test)

    def test_missing_positives_rejected(self):
        preds, labels, s, test = self.build([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="positive-label"):
            fairness_metrics(preds, labels, s, test)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_invariant_to_monotone_score_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        s = rng.integers(0, 2, size=n)
        labels[:4] = [1, 1, 0, 0]
        s[:4] = [0, 1, 0, 1]
        test = np.ones(n, dtype=bool)
        baseline = fairness_metrics((scores > 0).astype(int), labels, s, test)
        for transform in (np.tanh, lambda v: v**3, lambda v: 2.0 * v):
            mapped = transform(scores)
            assert fairness_metrics((mapped > 0).astype(int), labels, s, test) == baseline


class TestRawSpBound:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        s = rng.integers(0, 2, size=30)
        s[:2] = [0, 1]
        raw, bound = raw_sp_and_bound(x, np.zeros(4), s, lam=10.0)
        assert raw == 0.0
        assert bound >= 0.0

    def test_balanced_centered_norm(self):
        n = 64
        s = np.r_[np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)]
        s_bar = np.linalg.norm(s - s.mean())
        assert s_bar == pytest.approx(np.sqrt(n) / 2)

    def test_bound_holds_on_assumption_compliant_instances(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, f = 150, 6
            x = gaussian_features(n, f, rng)
            s = rng.integers(0, 2, size=n)
            s[:2] = [0, 1]
            w = rng.normal(size=f)
            w *= 1.0 / (10.0 * np.linalg.norm(w))  # ||w|| = c / lam
            raw, bound = raw_sp_and_bound(x, w, s, lam=10.0)
            assert raw <= bound + 1e-12

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            raw_sp_and_bound(np.zeros((3, 2)), np.zeros(2), np.array([0, 0, 0]), lam=1.0)


class TestAlphaDiagnostics:
    def test_fully_bipartite(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), sensitive=[0, 0, 1, 1])
        alpha1, alpha2 = alpha_diagnostics(ds)
        assert alpha2 == pytest.approx(1.0)
        assert alpha1 == pytest.approx(1.0)

    def test_no_inter_edges(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (2, 3)]), sensitive=[0, 0, 1, 1])
        alpha1, alpha2 = alpha_diagnostics(ds)
        assert alpha1 == pytest.approx(1.0)
        assert alpha2 == pytest.approx(1.0)

    def test_hand_counted_fixture(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1), (2, 3), (0, 2)]), sensitive=[0, 0, 1, 1])
        alpha1, alpha2 = alpha_diagnostics(ds)
        assert alpha1 == pytest.approx(0.0)
        # ratios: node0 1/2, node1 0 -> mean 1/4; node2 1/2, node3 0 -> mean 1/4
        assert alpha2 == pytest.approx(0.5)

    def test_isolated_group_rejected(self):
        ds = tiny_dataset(adjacency_from_edges(4, [(0, 1)]), sensitive=[0, 0, 1, 1])
        with pytest.raises(ValueError, match="isolated"):
            alpha_diagnostics(ds)

    def test_isolated_nodes_excluded_from_means(self):
        with_isolated = tiny_dataset(
            adjacency_from_edges(5, [(0, 1), (2, 3), (0, 2)]), sensitive=[0, 0, 1, 1, 1]
        )
        without = tiny_dataset(adjacency_from_edges(4, [(0, 1), (2, 3), (0, 2)]), sensitive=[0, 0, 1, 1])
        assert alpha_diagnostics(with_isolated)[1] == pytest.approx(alpha_diagnostics(without)[1])


def reference_edge_pairs(adjacency):
    """Long-hand upper triangle of the adjacency, sorted lexicographically."""
    coo = sp.triu(adjacency, k=1).tocoo()
    pairs = np.column_stack([coo.row, coo.col])
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def reference_top_k(scores, candidates, k):
    """Full lexsort: descending score, ties broken by the lowest candidate."""
    if candidates.ndim == 1:
        order = np.lexsort((candidates, -scores))
    else:
        order = np.lexsort((candidates[:, 1], candidates[:, 0], -scores))
    return candidates[order[:k]]


def shuffled_row_indices(adjacency, rng):
    """The same matrix with the column indices of every row in random order."""
    adjacency = sp.csr_matrix(adjacency)
    indices = adjacency.indices.copy()
    data = adjacency.data.copy()
    for i in range(adjacency.shape[0]):
        lo, hi = adjacency.indptr[i], adjacency.indptr[i + 1]
        perm = rng.permutation(hi - lo)
        indices[lo:hi] = indices[lo:hi][perm]
        data[lo:hi] = data[lo:hi][perm]
    return sp.csr_matrix((data, indices, adjacency.indptr.copy()), shape=adjacency.shape)


def tie_heavy_adjacency(family, n, rng):
    """Graphs whose edge scores tie a lot: a perfect matching (every degree 1),
    a clique (every degree n-1), or a random graph on top of a matching."""
    if family == "matching":
        edges = [(i, i + 1) for i in range(0, n - 1, 2)]
        return adjacency_from_edges(n, edges)
    if family == "clique":
        return adjacency_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    matching = adjacency_from_edges(n, [(i, i + 1) for i in range(0, n - 1, 2)])
    union = (matching + random_adjacency(n, float(rng.uniform(0.5, 4.0)), rng)).tocsr()
    union.data[:] = 1.0
    return union


class TestSelectionMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        family=st.sampled_from(["random", "matching", "clique", "matching+random"]),
        unsorted=st.booleans(),
    )
    def test_edge_pairs(self, seed, family, unsorted):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        if family == "random":
            adjacency = random_adjacency(n, float(rng.uniform(0, 6)), rng)
        else:
            adjacency = tie_heavy_adjacency(family, n, rng)
        if unsorted:
            adjacency = shuffled_row_indices(adjacency, rng)
        ds = tiny_dataset(adjacency, sensitive=rng.integers(0, 2, size=n))
        pairs = ds.edge_pairs()
        assert pairs.shape == (ds.n_edges, 2)
        np.testing.assert_array_equal(pairs, reference_edge_pairs(ds.adjacency))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        family=st.sampled_from(["random", "matching", "clique", "matching+random"]),
        kind=st.sampled_from(["proposed", "random", "random-intra", "random-inter"]),
        unsorted=st.booleans(),
        k_share=st.floats(0.0, 1.0),
    )
    def test_select_edges(self, seed, family, kind, unsorted, k_share):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        if family == "random":
            adjacency = random_adjacency(n, float(rng.uniform(1, 6)), rng)
        else:
            adjacency = tie_heavy_adjacency(family, n, rng)
        if unsorted:
            adjacency = shuffled_row_indices(adjacency, rng)
        # Few sensitive values per group keeps many intra edges at equal scores.
        ds = tiny_dataset(adjacency, sensitive=(np.arange(n) // 2) % 2)
        if ds.n_edges == 0:
            return
        k = 1 + int(k_share * (ds.n_edges - 1))
        result = select_edges(ds, k, kind=kind, seed=seed)
        pairs = reference_edge_pairs(ds.adjacency)
        scores = ablation_variants(kind, seed)(degree_stats(ds), ds.sensitive, pairs=pairs)
        np.testing.assert_array_equal(result.candidates, pairs)
        np.testing.assert_array_equal(result.scores, scores)
        np.testing.assert_array_equal(result.chosen, reference_top_k(scores, pairs, k))
        assert result.budget == k

    def test_every_k_on_a_tied_matching(self):
        n = 20
        ds = tiny_dataset(tie_heavy_adjacency("matching", n, None), sensitive=(np.arange(n) // 2) % 2)
        pairs = reference_edge_pairs(ds.adjacency)
        scores = edge_bias_scores(pairs, ds.sensitive, degree_stats(ds))
        for k in range(1, ds.n_edges + 1):
            np.testing.assert_array_equal(select_edges(ds, k).chosen, reference_top_k(scores, pairs, k))

    def test_node_only_kinds_rejected_for_edges(self):
        ds = random_dataset(n=12, seed=2)
        for kind in ("bias-term-only", "degree-only"):
            with pytest.raises(ValueError):
                select_edges(ds, 1, kind=kind)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        distinct=st.integers(1, 4),
        k_share=st.floats(0.0, 1.0),
        kind=st.sampled_from(["proposed", "random", "bias-term-only", "degree-only"]),
    )
    def test_select_nodes_and_features(self, seed, distinct, k_share, kind):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(6, 30)), seed=seed)
        nodes = np.arange(ds.n_nodes)
        k = 1 + int(k_share * (ds.n_nodes - 1))
        scores = ablation_variants(kind, seed)(degree_stats(ds), ds.sensitive, nodes=nodes)
        result = select_nodes(ds, k, scope="all", kind=kind, seed=seed)
        np.testing.assert_array_equal(result.chosen, reference_top_k(scores, nodes, k))
        # Feature columns drawn from a few values tie on |rho|.
        columns = rng.integers(0, distinct + 1, size=(ds.n_nodes, 8)).astype(float)
        k = 1 + int(k_share * 7)
        rho = np.abs(pearson_correlations(columns, ds.sensitive).rho)
        np.testing.assert_array_equal(
            select_features(columns, ds.sensitive, k).chosen, reference_top_k(rho, np.arange(8), k)
        )


EDGE_KINDS = ("proposed", "random", "random-intra", "random-inter")
MEMO_KEYS = {"edge_pairs", "degree_stats", "edge_scores"}


def assert_same_stats(actual, expected):
    for f in dataclasses.fields(DegreeStats):
        np.testing.assert_array_equal(getattr(actual, f.name), getattr(expected, f.name))


class TestMemoisedSelection:
    """Pairs, degree statistics and proposed scores are memoised per graph and
    carried through `remove_edges`; a memo-free copy must select the same."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        family=st.sampled_from(["random", "matching", "clique", "matching+random"]),
        unsorted=st.booleans(),
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    )
    def test_matches_a_memo_free_copy_after_chained_removals(self, seed, family, unsorted, sizes):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 18))
        if family == "random":
            adjacency = random_adjacency(n, float(rng.uniform(1, 6)), rng)
        else:
            adjacency = tie_heavy_adjacency(family, n, rng)
        if unsorted:
            adjacency = shuffled_row_indices(adjacency, rng)
        current = tiny_dataset(adjacency, sensitive=(np.arange(n) // 2) % 2)
        for size in sizes:
            if current.n_edges == 0:
                return
            select_edges(current, 1)
            degree_stats(current)
            pairs = current.edge_pairs()
            take = rng.choice(len(pairs), size=min(size, len(pairs)), replace=False)
            # Either direction, and one pair repeated.
            edges = [tuple(pairs[i][::-1]) if rng.random() < 0.5 else tuple(pairs[i]) for i in take]
            canonical = current.adjacency.has_canonical_format
            current = remove_edges(current, edges + edges[:1])
            if canonical:
                assert set(current._memo) == MEMO_KEYS
            fresh = replace(current)
            assert fresh._memo is None
            np.testing.assert_array_equal(current.edge_pairs(), fresh.edge_pairs())
            assert current.edge_pairs().dtype == fresh.edge_pairs().dtype
            assert_same_stats(degree_stats(current), degree_stats(fresh))
            for kind in EDGE_KINDS:
                for k in range(1, current.n_edges + 1):
                    memoised = select_edges(current, k, kind=kind, seed=seed)
                    expected = select_edges(fresh, k, kind=kind, seed=seed)
                    np.testing.assert_array_equal(memoised.chosen, expected.chosen)
                    np.testing.assert_array_equal(memoised.scores, expected.scores)
                    np.testing.assert_array_equal(memoised.candidates, expected.candidates)

    def test_copies_drop_the_memo(self):
        ds = random_dataset(n=30, seed=1)
        select_edges(ds, 1)
        degree_stats(ds)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        for g in (ds, edited):
            assert set(g._memo) == MEMO_KEYS
            for other in (replace(g), copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                assert other._memo is None
            assert replace(g) == g
            assert "_memo" not in repr(g)
        # Edits that change more than edges start afresh.
        assert remove_nodes(ds, [0])._memo is None
        # A feature edit keeps adjacency and sensitive column: it keeps the
        # input's read-only entries, in a memo of its own.
        zeroed = zero_feature_columns(ds, [0])
        assert zeroed._memo is not ds._memo
        assert all(zeroed._memo[key] is entry for key, entry in ds._memo.items())
        assert set(zeroed._memo) == MEMO_KEYS
        fresh = replace(zeroed)
        np.testing.assert_array_equal(zeroed.edge_pairs(), fresh.edge_pairs())
        assert_same_stats(degree_stats(zeroed), degree_stats(fresh))
        for kind in EDGE_KINDS:
            memoised, expected = (select_edges(g, 3, kind=kind, seed=1) for g in (zeroed, fresh))
            np.testing.assert_array_equal(memoised.scores, expected.scores)

    def test_memoised_arrays_are_read_only(self):
        ds = random_dataset(n=30, seed=1)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        for g in (ds, edited):
            stats = degree_stats(g)
            assert degree_stats(g) is stats and g.edge_pairs() is g.edge_pairs()
            arrays = [
                g.edge_pairs(),
                select_edges(g, 2).scores,
                stats.degree,
                stats.inter_degree,
                stats.intra_degree,
            ]
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
