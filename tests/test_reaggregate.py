"""Edit-local re-aggregation against the full recompute.

`reaggregate` carries one graph's hop blocks over to an edited copy and
recomputes only the rows the edit can reach; every result here is checked
against `aggregate(edited, build_propagation(edited, L), scheme)`.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwipe import graph
from fairwipe.graph import (
    GPR,
    SGC,
    aggregate,
    aggregate_hops,
    build_propagation,
    reaggregate,
    remove_edges,
    remove_nodes,
    zero_feature_columns,
)
from fairwipe.model import TrainConfig, train
from fairwipe.unlearn import (
    CertificationBudget,
    EdgeRemoval,
    FeatureRemoval,
    NodeRemoval,
    newton_unlearn,
    sequential_unlearn,
)

from conftest import random_dataset

EDITS = ("edge", "edges", "node", "feature", "rows")


def full_values(ds, hops, scheme):
    return aggregate(ds, build_propagation(ds, hops), scheme).values


def dense_blocks(ds, hops):
    """Hop blocks X, PX, ..., P^L X from the dense row-normalized adjacency."""
    a_bar = ds.adjacency.toarray() + np.eye(ds.n_nodes)
    p = a_bar / a_bar.sum(axis=1, keepdims=True)
    blocks = [ds.features]
    for _ in range(hops):
        blocks.append(p @ blocks[-1])
    return blocks


def random_edit(ds, kind, rng):
    """One edit of the given kind, or None when the graph has no edge to remove."""
    pairs = ds.edge_pairs()
    if kind in ("edge", "edges"):
        if len(pairs) == 0:
            return None
        size = 1 if kind == "edge" else int(rng.integers(2, 6))
        take = rng.choice(len(pairs), size=min(size, len(pairs)), replace=False)
        return remove_edges(ds, [tuple(p) for p in pairs[take]])
    if kind == "node":
        return remove_nodes(ds, rng.choice(ds.n_nodes, size=int(rng.integers(1, 3)), replace=False))
    if kind == "feature":
        return zero_feature_columns(ds, [int(rng.integers(ds.n_features))])
    # A few feature rows replaced, the graph unchanged.
    x = ds.features.copy()
    rows = rng.choice(ds.n_nodes, size=int(rng.integers(1, 4)), replace=False)
    x[rows] = rng.normal(size=(rows.size, ds.n_features))
    return replace(ds, features=x)


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


class TestReaggregate:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
        kind=st.sampled_from(EDITS),
    )
    def test_matches_full_recompute(self, seed, scheme, hops, kind):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(6, 120)), f=3, seed=seed, avg_degree=float(rng.uniform(0.5, 5)))
        edited = random_edit(ds, kind, rng)
        if edited is None:
            return
        agg, blocks = aggregate_hops(ds, build_propagation(ds, hops), scheme)
        assert_close(agg.values, full_values(ds, hops, scheme))
        before = agg.values.copy()
        new = reaggregate(ds, edited, agg, blocks)
        assert new.scheme == scheme
        assert_close(new.values, full_values(edited, hops, scheme))
        for block, expected in zip(blocks, dense_blocks(edited, hops)):
            assert_close(block, expected)
        np.testing.assert_array_equal(agg.values, before)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(EDITS), min_size=2, max_size=8),
    )
    def test_chain_of_edits(self, seed, scheme, hops, kinds):
        rng = np.random.default_rng(seed)
        current = random_dataset(n=int(rng.integers(10, 150)), f=3, seed=seed, avg_degree=float(rng.uniform(1, 5)))
        agg, blocks = aggregate_hops(current, build_propagation(current, hops), scheme)
        for kind in kinds:
            edited = random_edit(current, kind, rng)
            if edited is None:
                continue
            agg = reaggregate(current, edited, agg, blocks)
            assert_close(agg.values, full_values(edited, hops, scheme))
            current = edited

    def test_unchanged_graph_keeps_every_row(self):
        ds = random_dataset(n=40, f=3, seed=4)
        for scheme in (SGC, GPR):
            agg, blocks = aggregate_hops(ds, build_propagation(ds, 2), scheme)
            new = reaggregate(ds, ds, agg, blocks)
            np.testing.assert_array_equal(new.values, agg.values)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        hops=st.integers(1, 3),
        kind=st.sampled_from(("edge", "edges", "node", "rows")),
    )
    def test_recomputes_exactly_the_reachable_rows(self, seed, hops, kind):
        """Hop k recomputes the rows changed at hop k-1, their neighbours in the
        edited graph and the rows whose degree changed, until that set covers
        more than half the graph."""
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(20, 200)), f=3, seed=seed, avg_degree=float(rng.uniform(0.5, 3)))
        edited = random_edit(ds, kind, rng)
        if edited is None:
            return
        a_new = edited.adjacency.toarray() != 0
        degree_changed = (ds.adjacency.toarray() != 0).sum(axis=1) != a_new.sum(axis=1)
        changed = (edited.features != ds.features).any(axis=1)
        expected = []
        for _ in range(hops):
            changed = changed | degree_changed | a_new[changed].any(axis=0)
            if 2 * changed.sum() > ds.n_nodes:
                break
            if changed.any():
                expected.append(np.flatnonzero(changed))

        seen = []
        original = graph._propagation_rows

        def spy(adjacency, rows):
            seen.append(rows.copy())
            return original(adjacency, rows)

        agg, blocks = aggregate_hops(ds, build_propagation(ds, hops), GPR)
        with mock.patch.object(graph, "_propagation_rows", spy):
            reaggregate(ds, edited, agg, blocks)
        assert len(seen) == len(expected)
        for rows, want in zip(seen, expected):
            np.testing.assert_array_equal(rows, want)


class TestSequentialUnlearnChain:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
    )
    def test_matches_full_recompute_per_request(self, seed, scheme, hops):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=80, f=4, seed=seed, avg_degree=3.0)
        agg = aggregate(ds, build_propagation(ds, hops), scheme)
        model = train(ds, agg, TrainConfig(lam=1.0, seed=seed), noise_std=0.05)

        def top_pair(current):
            return EdgeRemoval((tuple(int(v) for v in current.edge_pairs()[0]),))

        pairs = ds.edge_pairs()
        take = rng.choice(len(pairs), size=6, replace=False)
        train_nodes = np.flatnonzero(ds.train_mask)
        requests = [
            EdgeRemoval((tuple(int(v) for v in pairs[take[0]]),)),
            top_pair,
            EdgeRemoval(tuple(tuple(int(v) for v in pairs[i]) for i in take[1:4])),
            NodeRemoval((int(train_nodes[0]),)),
            top_pair,
            FeatureRemoval((int(rng.integers(ds.n_features)),)),
            EdgeRemoval((tuple(int(v) for v in pairs[take[5]]),)),
        ]
        budget = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)
        results, final_budget, edited = sequential_unlearn(model, ds, requests, budget, scheme, hops)

        current, step_model = ds, model
        agg = aggregate(current, build_propagation(current, hops), scheme)
        for request, result in zip(requests, results):
            if callable(request):
                request = request(current)
            nxt = request.apply(current)
            agg_new = aggregate(nxt, build_propagation(nxt, hops), scheme)
            expected = newton_unlearn(step_model, agg, agg_new, nxt.labels, current.train_mask, nxt.train_mask)
            assert_close(result.updated_weights, expected.updated_weights)
            assert_close(result.delta_vector, expected.delta_vector)
            assert abs(result.residual_norm - expected.residual_norm) <= 1e-12
            step_model = replace(step_model, weights=expected.updated_weights)
            current, agg = nxt, agg_new
        assert len(results) == len(requests)
        assert final_budget.accumulated_residual == sum(r.residual_norm for r in results)
        np.testing.assert_array_equal(edited.adjacency.toarray(), current.adjacency.toarray())
