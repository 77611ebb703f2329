"""Edit-local re-aggregation against the full recompute.

`_reaggregate`, the private step of `sequential_unlearn`, builds hop blocks
on the graph it returns, moves the hop blocks a graph carries over to an
edited copy and recomputes only the rows the edit can reach; every result here
is checked against `aggregate(replace(edited), L, scheme)`, propagated from
scratch on a copy that carries nothing.
"""

import copy
import pickle
import tracemalloc
from dataclasses import dataclass, fields, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwipe import graph, unlearn
from fairwipe.data import make_splits
from fairwipe.fairness import select_edges
from fairwipe.graph import (
    GPR,
    SGC,
    _carried,
    _reaggregate,
    aggregate,
    remove_edges,
    remove_nodes,
    zero_feature_columns,
)
from fairwipe.model import TrainConfig, TrainedModel, train
from fairwipe.unlearn import (
    CertificationBudget,
    EdgeRemoval,
    FeatureRemoval,
    NodeRemoval,
    newton_unlearn,
    retrain_oracle,
    sequential_unlearn,
)

from conftest import aggregations, counting_full_passes, random_dataset

EDITS = ("edge", "edges", "node", "feature", "rows")


def full_values(ds, hops, scheme):
    """The aggregation propagated from scratch, on a copy of ``ds`` that carries nothing."""
    return aggregate(replace(ds), hops, scheme).values


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
    if kind == "bulk":
        # About a tenth of the edges at once, as one batch of the edge protocol.
        if len(pairs) == 0:
            return None
        return remove_edges(ds, pairs[rng.choice(len(pairs), size=max(1, len(pairs) // 10), replace=False)])
    if kind == "feature":
        return zero_feature_columns(ds, [int(rng.integers(ds.n_features))])
    # A few feature rows replaced, the graph unchanged.
    x = ds.features.copy()
    rows = rng.choice(ds.n_nodes, size=int(rng.integers(1, 4)), replace=False)
    x[rows] = rng.normal(size=(rows.size, ds.n_features))
    return replace(ds, features=x)


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def with_hop_blocks(ds, hops, scheme):
    """Give ``ds`` its hop blocks for these settings, as `sequential_unlearn`
    leaves them on the graph it returns; returns its aggregation.

    Unless ``ds`` carries them already, the step takes what it carries off it
    as the pre-edit side, and then aggregates ``ds``, unchanged, in full with
    its blocks.
    """
    return _reaggregate(ds, ds, hops, scheme)[1]


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
        agg = with_hop_blocks(ds, hops, scheme)
        assert_close(agg.values, full_values(ds, hops, scheme))
        before = agg.values.copy()
        old, new, _ = _reaggregate(ds, edited, hops, scheme)
        assert old is agg
        assert_close(new.values, full_values(edited, hops, scheme))
        for block, expected in zip(_carried.get(edited)[3], dense_blocks(edited, hops)):
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
        with_hop_blocks(current, hops, scheme)
        for kind in kinds:
            edited = random_edit(current, kind, rng)
            if edited is None:
                continue
            with counting_full_passes() as full:
                _, agg, _ = _reaggregate(current, edited, hops, scheme)
            assert aggregations(full) == []
            assert_close(agg.values, full_values(edited, hops, scheme))
            current = edited

    def test_unchanged_graph_keeps_every_row(self):
        ds = random_dataset(n=40, f=3, seed=4)
        for scheme in (SGC, GPR):
            agg = with_hop_blocks(ds, 2, scheme)
            _, new, _ = _reaggregate(ds, ds, 2, scheme)
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
        # Per hop: the rows recomputed, None for a full hop (every later hop
        # is full too), nothing for a hop with no row to recompute.
        expected = []
        for _ in range(hops):
            changed = changed | degree_changed | a_new[changed].any(axis=0)
            if 2 * changed.sum() > ds.n_nodes:
                expected += [None] * (hops - len(expected))
                break
            if changed.any():
                expected.append(np.flatnonzero(changed))

        # Every hop, partial or full, goes through the one hop helper.
        with_hop_blocks(ds, hops, GPR)
        with spying_on("_hop") as hop:
            _reaggregate(ds, edited, hops, GPR)
        seen = [call.args[2] if len(call.args) == 3 else None for call in hop.call_args_list]
        assert len(seen) == len(expected)
        for rows, want in zip(seen, expected):
            if want is None:
                assert rows is None
            else:
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
        agg = aggregate(ds, hops, scheme)
        model = train(ds, agg, TrainConfig(lam=1.0, seed=seed), noise_std=0.05)

        def top_pair(current):
            return EdgeRemoval((tuple(int(v) for v in current.edge_pairs()[0]),))

        train_nodes = np.flatnonzero(ds.train_mask)
        # The fixed edges avoid the removed node's edges and the two lowest-keyed
        # edges away from it, which are all `top_pair` can pick: every request
        # then names edges that are still present.
        pairs = ds.edge_pairs()
        pairs = pairs[(pairs != train_nodes[0]).all(axis=1)][2:]
        take = rng.choice(len(pairs), size=6, replace=False)
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
        agg = aggregate(current, hops, scheme)
        for request, result in zip(requests, results):
            if callable(request):
                request = request(current)
            nxt = request.apply(current)
            agg_new = aggregate(replace(nxt), hops, scheme)
            expected = newton_unlearn(step_model, agg, agg_new, nxt.labels, current.train_mask, nxt.train_mask)
            assert_close(result.updated_weights, expected.updated_weights)
            assert_close(result.delta_vector, expected.delta_vector)
            assert abs(result.residual_norm - expected.residual_norm) <= 1e-12
            step_model = replace(step_model, weights=expected.updated_weights)
            current, agg = nxt, agg_new
        assert len(results) == len(requests)
        assert final_budget.accumulated_residual == sum(r.residual_norm for r in results)
        np.testing.assert_array_equal(edited.adjacency.toarray(), current.adjacency.toarray())


REQUESTS = ("edge", "edges", "node", "feature", "lazy")
# Aggregation settings of one width (the raw feature count), so one model serves them all.
SAME_WIDTH = [(h, SGC) for h in range(4)] + [(0, GPR)]
BUDGET = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)


@dataclass(frozen=True)
class RowEdit:
    """Replace a few feature rows, the graph unchanged: a request ``sequential_unlearn`` accepts."""

    rows: np.ndarray
    values: np.ndarray

    def apply(self, ds):
        x = ds.features.copy()
        x[self.rows] = self.values
        return replace(ds, features=x)


def random_request(ds, kind, rng):
    """One request of the given kind on ``ds``; edge kinds fall back to a feature."""
    pairs = ds.edge_pairs()
    if kind in ("edge", "edges", "bulk", "lazy") and len(pairs) == 0:
        kind = "feature"
    if kind == "lazy":
        return lambda current: EdgeRemoval((tuple(int(v) for v in current.edge_pairs()[0]),))
    if kind in ("edge", "edges"):
        size = 1 if kind == "edge" else int(rng.integers(2, 5))
        take = rng.choice(len(pairs), size=min(size, len(pairs)), replace=False)
        return EdgeRemoval(tuple(tuple(int(v) for v in pairs[i]) for i in take))
    if kind == "bulk":
        return EdgeRemoval(pairs[rng.choice(len(pairs), size=max(1, len(pairs) // 10), replace=False)])
    if kind == "node":
        return NodeRemoval((int(rng.choice(np.flatnonzero(ds.train_mask))),))
    if kind == "rows":
        rows = rng.choice(ds.n_nodes, size=int(rng.integers(1, 4)), replace=False)
        return RowEdit(rows, rng.normal(size=(rows.size, ds.n_features)))
    return FeatureRemoval((int(rng.integers(ds.n_features)),))


def trained_model(ds, hops, scheme, seed):
    return train(ds, aggregate(ds, hops, scheme), TrainConfig(lam=1.0, seed=seed), noise_std=0.05)


def reference_step(model, current, request, hops, scheme):
    """One request by the full recompute on a state-free copy of ``current``."""
    current = replace(current)
    if callable(request):
        request = request(current)
    nxt = request.apply(current)
    agg = aggregate(current, hops, scheme)
    agg_new = aggregate(nxt, hops, scheme)
    return newton_unlearn(model, agg, agg_new, nxt.labels, current.train_mask, nxt.train_mask)


def assert_same_result(actual, expected):
    assert_close(actual.updated_weights, expected.updated_weights)
    assert_close(actual.delta_vector, expected.delta_vector)
    assert abs(actual.residual_norm - expected.residual_norm) <= 1e-12


def carries(ds, hops, scheme):
    """Whether ``ds`` carries hop blocks for these settings."""
    return _carried.get(ds) is not None and _carried.get(ds)[:2] == (hops, scheme) and _carried.get(ds)[3] is not None


def assert_same_bytes(actual, expected):
    assert (actual.dtype, actual.shape, actual.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def assert_carries_its_own_hops(ds, hops, scheme):
    assert carries(ds, hops, scheme)
    _, _, agg, blocks, *_ = _carried.get(ds)
    assert len(_carried.get(ds)) == 6
    assert_close(agg.values, full_values(ds, hops, scheme))
    assert len(blocks) == hops + 1
    for block, expected in zip(blocks, dense_blocks(ds, hops)):
        assert_close(block, expected)


def one_call(model, ds, request, hops, scheme):
    """One single-request ``sequential_unlearn`` call; also counts its full aggregations."""
    with counting_full_passes() as full:
        (result,), _, edited = sequential_unlearn(model, ds, [request], BUDGET, scheme, hops)
    return result, edited, len(aggregations(full))


def expected_aggregations(current, request, hops, scheme):
    """The full aggregations one ``sequential_unlearn`` call on ``current``
    makes, and whether the graph it returns carries hop blocks.

    Carried blocks are edited without one. Otherwise ``current`` is aggregated
    unless it carries its aggregation for these settings, and the edited graph
    with its blocks, unless a feature removal left it the zeroed copy of that
    aggregation.
    """
    if carries(current, hops, scheme):
        return 0, True
    carried = _carried.get(current) is not None and _carried.get(current)[:2] == (hops, scheme)
    zeroed = carried and isinstance(request, FeatureRemoval)
    return (not carried) + (not zeroed), not zeroed


def assert_carries_its_aggregation(ds, hops, scheme, blocks):
    """``ds`` carries its own aggregation for these settings, with its hop blocks if ``blocks``."""
    if blocks:
        assert_carries_its_own_hops(ds, hops, scheme)
    else:
        assert _carried.get(ds)[:2] == (hops, scheme) and _carried.get(ds)[3] is None
        assert_same_bytes(_carried.get(ds)[2].values, full_values(ds, hops, scheme))


class TestCarriedAggregation:
    """`aggregate` and `_reaggregate` are the only readers and writers of what a graph carries."""

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_fresh_graph_aggregates_once(self, scheme):
        """Through the step, a graph that carries nothing is aggregated in full
        once, as the pre-edit side; its edit is aggregated once more and
        carries its blocks."""
        ds = random_dataset(n=40, f=3, seed=6)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        with counting_full_passes() as full:
            old, new, rows = _reaggregate(ds, edited, 2, scheme)
        assert len(full) == 2 and aggregations(full)[0] is ds and aggregations(full)[1] is edited
        assert rows is None and _carried.get(ds) is None
        assert_same_bytes(old.values, full_values(ds, 2, scheme))
        assert_same_bytes(new.values, full_values(edited, 2, scheme))
        assert_carries_its_own_hops(edited, 2, scheme)

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_reaggregate_moves_the_blocks(self, scheme):
        ds = random_dataset(n=40, f=3, seed=7)
        with_hop_blocks(ds, 2, scheme)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        with counting_full_passes() as full:
            _, new, _ = _reaggregate(ds, edited, 2, scheme)
            assert _carried.get(ds) is None
            assert aggregate(edited, 2, scheme) is new
        assert full == []
        assert_carries_its_own_hops(edited, 2, scheme)

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_aggregate_keeps_the_aggregation_without_blocks(self, scheme):
        """`aggregate` returns what the graph carries, blocks and all, keeps
        what it computes in place of what the graph carried, and never keeps
        hop blocks."""
        ds = random_dataset(n=40, f=3, seed=14)
        with counting_full_passes() as full:
            agg = aggregate(ds, 2, scheme)
            assert aggregate(ds, 2, scheme) is agg
            assert _carried.get(ds)[2] is agg and not carries(ds, 2, scheme)
            one_hop = aggregate(ds, 1, scheme)
            assert _carried.get(ds)[2] is one_hop and not carries(ds, 1, scheme)
        assert len(full) == 2
        carried = with_hop_blocks(ds, 2, scheme)
        with counting_full_passes() as full:
            assert aggregate(ds, 2, scheme) is carried is not agg
        assert full == []
        assert_same_bytes(carried.values, agg.values)
        assert_carries_its_own_hops(ds, 2, scheme)

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_carried_aggregation_is_read_only(self, scheme, hops):
        """Writing into an aggregation `aggregate` hands out raises, so no caller
        can change what later `aggregate` calls and feature removals read off
        the graph, whether it carries hop blocks or not. SGC's with no hop is
        the graph's own feature array, read-only like the rest."""
        ds = random_dataset(n=40, f=3, seed=15)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        with_hop_blocks(ds, hops, scheme)
        _reaggregate(ds, edited, hops, scheme)
        for lent in (aggregate(replace(ds), hops, scheme), aggregate(edited, hops, scheme)):
            kept = lent.values.copy()
            with pytest.raises(ValueError, match="read-only"):
                lent.values -= lent.values.mean(axis=0)
            assert_same_bytes(lent.values, kept)
        assert_same_bytes(aggregate(edited, hops, scheme).values, full_values(edited, hops, scheme))

    def test_other_settings_replace_the_state(self):
        """A graph carries one aggregation: a call for other settings aggregates
        in full, gives the state-free copy's bytes, and leaves only the new
        settings carried."""
        ds = random_dataset(n=40, f=3, seed=8)
        with_hop_blocks(ds, 1, GPR)
        with counting_full_passes() as full:
            agg = aggregate(ds, 2, GPR)
        assert len(full) == 1
        assert _carried.get(ds)[:2] == (2, GPR) and not carries(ds, 2, GPR)
        assert_same_bytes(agg.values, full_values(ds, 2, GPR))
        carried = with_hop_blocks(ds, 1, SGC)
        assert_same_bytes(carried.values, full_values(ds, 1, SGC))
        assert_carries_its_own_hops(ds, 1, SGC)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        with counting_full_passes() as full:
            old, new, _ = _reaggregate(ds, edited, 2, SGC)
        assert len(full) == 2 and aggregations(full)[0] is ds and aggregations(full)[1] is edited
        assert _carried.get(ds) is None
        assert_same_bytes(old.values, full_values(ds, 2, SGC))
        assert_same_bytes(new.values, full_values(edited, 2, SGC))
        assert_carries_its_own_hops(edited, 2, SGC)

    @pytest.mark.parametrize(
        "hops, scheme, error",
        [(2.0, SGC, TypeError), ("2", GPR, TypeError), (-1, SGC, ValueError), (2, "gcn", ValueError)],
    )
    @pytest.mark.parametrize("carried", [False, True])
    def test_bad_settings_raise_before_the_carry_is_read(self, hops, scheme, error, carried):
        """Every entry rejects bad settings the same way on a fresh graph and on
        one that carries 2 hops of the scheme (SGC for an unknown one), and
        leaves what either graph carries as it was."""
        ds = random_dataset(n=40, f=3, seed=16)
        edited = remove_edges(ds, [tuple(ds.edge_pairs()[0])])
        if carried:
            with_hop_blocks(ds, 2, SGC if scheme == "gcn" else scheme)
            aggregate(edited, 1, GPR)
        states = _carried.get(ds), _carried.get(edited)
        for call in (
            lambda: aggregate(ds, hops, scheme),
            lambda: _reaggregate(ds, edited, hops, scheme),
        ):
            with pytest.raises(error):
                call()
            assert _carried.get(ds) is states[0] and _carried.get(edited) is states[1]


def spying_on(name):
    return mock.patch.object(graph, name, wraps=getattr(graph, name))


class TestFullPassOnlyOnTheSeed:
    """Every hop reads its degrees off the edited graph's CSR: only the seed graph is aggregated in full."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(EDITS + ("bulk",)), min_size=1, max_size=8),
    )
    def test_edit_chain_matches_full_recompute(self, seed, scheme, hops, kinds):
        rng = np.random.default_rng(seed)
        current = random_dataset(n=int(rng.integers(10, 150)), f=3, seed=seed, avg_degree=float(rng.uniform(1, 6)))
        with_hop_blocks(current, hops, scheme)
        for kind in kinds:
            edited = random_edit(current, kind, rng)
            if edited is None:
                continue
            with counting_full_passes() as full:
                _, agg, _ = _reaggregate(current, edited, hops, scheme)
            assert aggregations(full) == []
            assert_same_bytes(agg.values, full_values(edited, hops, scheme))
            current = edited

    def test_bulk_batches_aggregate_in_full_once(self):
        """Ten re-scored batches of about 2% of the edges from a seed graph that
        carries its blocks: every batch has a full hop, and no graph is
        aggregated in full."""
        ds = random_dataset(n=300, f=3, seed=9, avg_degree=6.0)
        batch = ds.n_edges // 50
        graphs, aggs = [ds], []
        with_hop_blocks(ds, 3, SGC)
        with counting_full_passes() as full:
            for _ in range(10):
                current = graphs[-1]
                edited = remove_edges(current, select_edges(current, batch).chosen)
                _, agg, rows = _reaggregate(current, edited, 3, SGC)
                assert rows is None
                graphs.append(edited)
                aggs.append(agg)
        assert aggregations(full) == [] and len(full) >= 10
        for after, agg in zip(graphs[1:], aggs):
            assert_close(agg.values, full_values(after, 3, SGC))
        assert_carries_its_own_hops(graphs[-1], 3, SGC)

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_feature_removal_makes_no_full_pass(self, scheme):
        """On a graph that carries its aggregation, as training leaves it, a
        feature request runs no aggregation and no full hop: the edited graph
        carries the zeroed copy, and the result is the full recompute's byte
        for byte."""
        ds = random_dataset(n=60, f=3, seed=10)
        model = trained_model(ds, 2, scheme, 10)
        assert _carried.get(ds)[:2] == (2, scheme)
        with counting_full_passes() as full:
            (result,), _, edited = sequential_unlearn(model, ds, [FeatureRemoval((1,))], BUDGET, scheme, 2)
        assert full == []
        assert_carries_its_aggregation(edited, 2, scheme, blocks=False)
        expected = reference_step(model, ds, FeatureRemoval((1,)), 2, scheme)
        for got, want in zip(
            (result.updated_weights, result.delta_vector, result.residual_norm),
            (expected.updated_weights, expected.delta_vector, expected.residual_norm),
        ):
            assert_same_bytes(np.asarray(got), np.asarray(want))

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_single_edge_request_makes_no_full_pass(self, scheme):
        ds = random_dataset(n=400, f=3, seed=11, avg_degree=2.0)
        model = trained_model(ds, 2, scheme, 11)
        with_hop_blocks(ds, 2, scheme)
        edge = tuple(int(v) for v in ds.edge_pairs()[0])
        with counting_full_passes() as full:
            (result,), _, edited = sequential_unlearn(model, ds, [EdgeRemoval((edge,))], BUDGET, scheme, 2)
        assert full == []
        assert_carries_its_own_hops(edited, 2, scheme)
        assert_same_result(result, reference_step(model, ds, EdgeRemoval((edge,)), 2, scheme))


class TestCarriedHops:
    """A graph returned by `sequential_unlearn` carries its hop blocks into the next call."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(REQUESTS), min_size=2, max_size=7),
    )
    def test_stream_of_calls_matches_full_recompute(self, seed, scheme, hops, kinds):
        """Each call is fed the graph the previous one returned, as a request stream does."""
        rng = np.random.default_rng(seed)
        current = random_dataset(n=int(rng.integers(20, 80)), f=3, seed=seed, avg_degree=float(rng.uniform(1, 5)))
        model = trained_model(current, hops, scheme, seed)
        for kind in kinds:
            request = random_request(current, kind, rng)
            expected = reference_step(model, current, request, hops, scheme)
            passes, blocks = expected_aggregations(current, request, hops, scheme)
            result, edited, full = one_call(model, current, request, hops, scheme)
            assert full == passes
            assert_same_result(result, expected)
            assert _carried.get(current) is None
            assert_carries_its_aggregation(edited, hops, scheme, blocks)
            model = replace(model, weights=result.updated_weights)
            current = edited

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        calls=st.lists(st.tuples(st.sampled_from(SAME_WIDTH), st.sampled_from(REQUESTS)), min_size=2, max_size=7),
    )
    def test_changing_hops_or_scheme_mid_stream(self, seed, calls):
        """A call with other settings than the carried ones aggregates in full and replaces them;
        one with the carried settings but no blocks takes the carried aggregation."""
        rng = np.random.default_rng(seed)
        current = random_dataset(n=50, f=3, seed=seed, avg_degree=3.0)
        model = trained_model(current, *calls[0][0], seed)
        for (hops, scheme), kind in calls:
            request = random_request(current, kind, rng)
            expected = reference_step(model, current, request, hops, scheme)
            passes, blocks = expected_aggregations(current, request, hops, scheme)
            result, edited, full = one_call(model, current, request, hops, scheme)
            assert full == passes
            assert_same_result(result, expected)
            assert _carried.get(current) is None
            assert_carries_its_aggregation(edited, hops, scheme, blocks)
            model = replace(model, weights=result.updated_weights)
            current = edited

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(1, 3),
        kinds=st.tuples(st.sampled_from(REQUESTS), st.sampled_from(REQUESTS)),
    )
    def test_returned_graph_fed_to_two_calls(self, seed, scheme, hops, kinds):
        """Reusing an input graph gives what a state-free copy of it gives, and
        the two results keep state of their own."""
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(15, 50)), f=3, seed=seed, avg_degree=3.0)
        model = trained_model(ds, hops, scheme, seed)
        _, _, shared = sequential_unlearn(model, ds, [random_request(ds, "edge", rng)], BUDGET, scheme, hops)
        requests = [random_request(shared, kind, rng) for kind in kinds]
        expected = [
            sequential_unlearn(model, replace(shared), [request], BUDGET, scheme, hops)[0][0] for request in requests
        ]
        outputs = [one_call(model, shared, request, hops, scheme) for request in requests]
        # The first call takes the blocks off ``shared``: the second aggregates it and its edit.
        assert [full for _, _, full in outputs] == [0, 2]
        for (result, edited, _), want in zip(outputs, expected):
            assert_same_result(result, want)
            assert_carries_its_own_hops(edited, hops, scheme)

    def test_copies_do_not_carry_the_state(self):
        ds = random_dataset(n=40, f=3, seed=2)
        model = trained_model(ds, 2, GPR, 2)
        _, _, edited = sequential_unlearn(model, ds, [EdgeRemoval((tuple(ds.edge_pairs()[0]),))], BUDGET, GPR, 2)
        copies = [
            replace(edited),
            replace(edited, features=edited.features.copy()),
            copy.copy(edited),
            copy.deepcopy(edited),
            pickle.loads(pickle.dumps(edited)),
        ]
        for other in copies:
            assert _carried.get(other) is None
        # `replace` keeps the arrays a graph owns; nothing the graph carries is in it.
        assert all(getattr(replace(edited), f.name) is getattr(edited, f.name) for f in fields(edited))
        assert set(vars(edited)) == {f.name for f in fields(edited)}
        assert_carries_its_own_hops(edited, 2, GPR)

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_rejected_request_keeps_the_input_state(self, scheme):
        """A request the edit rejects raises before the carried blocks are touched."""
        ds = random_dataset(n=40, f=3, seed=3)
        model = trained_model(ds, 2, scheme, 3)
        _, _, current = sequential_unlearn(model, ds, [EdgeRemoval((tuple(ds.edge_pairs()[0]),))], BUDGET, scheme, 2)
        _, _, agg, blocks, *_ = _carried.get(current)
        snapshot = [agg.values.copy()] + [b.copy() for b in blocks]
        adjacency = [a.copy() for a in (current.adjacency.data, current.adjacency.indices, current.adjacency.indptr)]
        n = current.n_nodes
        missing = next((i, j) for i in range(n) for j in range(i + 1, n) if current.adjacency[i, j] == 0)
        rejected = [
            (EdgeRemoval((missing,)), ValueError),
            (EdgeRemoval(((0, n),)), IndexError),
            (NodeRemoval((n,)), ValueError),
            (FeatureRemoval((current.n_features,)), ValueError),
        ]
        for request, error in rejected:
            with pytest.raises(error):
                sequential_unlearn(model, current, [request], BUDGET, scheme, 2)
            with pytest.raises(error):
                request.apply(current)
            carried = _carried.get(current)
            assert carried[2] is agg and carried[3] is blocks
            for array, before in zip([agg.values, *blocks], snapshot):
                np.testing.assert_array_equal(array, before)
            for array, before in zip((current.adjacency.data, current.adjacency.indices, current.adjacency.indptr), adjacency):
                np.testing.assert_array_equal(array, before)
        request = EdgeRemoval((tuple(current.edge_pairs()[0]),))
        result, _, full = one_call(model, current, request, 2, scheme)
        assert full == 0
        assert_same_result(result, reference_step(model, current, request, 2, scheme))


def reachable_rows(before, after, hops):
    """The rows ``_reaggregate`` recomputes, from the dense adjacency: the changed
    feature rows, grown per hop by the rows whose degree changed and the
    neighbours in ``after``; None once a hop's set, hop 0's included, covers more
    than half the graph. The sets only grow, so that is the last one."""
    a_new = after.adjacency.toarray() != 0
    degree_changed = (before.adjacency.toarray() != 0).sum(axis=1) != a_new.sum(axis=1)
    changed = (after.features != before.features).any(axis=1)
    for _ in range(hops):
        changed = changed | degree_changed | a_new[changed].any(axis=0)
    return None if 2 * changed.sum() > before.n_nodes else np.flatnonzero(changed)


class TestZeroedColumns:
    """After a feature-column removal, the aggregation is the from-scratch one
    byte for byte: `zero_feature_columns` zeroes the columns of the carried
    aggregation without a propagation, and `sequential_unlearn` takes that
    copy, or re-runs the hops from the carried blocks."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
        source=st.sampled_from(("aggregate", "blocks", "stream")),
        columns=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        already_zero=st.lists(st.integers(0, 4), max_size=2),
        through_stream=st.booleans(),
    )
    def test_matches_scratch_byte_for_byte(self, seed, scheme, hops, source, columns, already_zero, through_stream):
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=int(rng.integers(10, 100)), f=5, seed=seed, avg_degree=float(rng.uniform(0.5, 5)))
        if already_zero:
            x = ds.features.copy()
            x[:, already_zero] = 0.0
            ds = replace(ds, features=x)
            columns = columns + already_zero
        model = trained_model(replace(ds), hops, scheme, seed)
        if source == "aggregate":
            aggregate(ds, hops, scheme)
        elif source == "blocks":
            with_hop_blocks(ds, hops, scheme)
        else:
            # Each request is drawn on the graph it edits, so the two never name the same edge.
            requests = [partial(random_request, kind=kind, rng=rng) for kind in ("edge", "edges")]
            results, _, ds = sequential_unlearn(model, ds, requests, BUDGET, scheme, hops)
            model = replace(model, weights=results[-1].updated_weights)
        request = FeatureRemoval(tuple(columns))
        if through_stream:
            with counting_full_passes() as full:
                _, _, edited = sequential_unlearn(model, ds, [request], BUDGET, scheme, hops)
            if source == "aggregate":
                # The zeroed copy is taken as it is: no aggregation and no full hop.
                assert full == [] and _carried.get(edited)[3] is None
            else:
                assert aggregations(full) == []
                scratch = graph._aggregate(replace(edited), hops, scheme)[1]
                for block, want in zip(_carried.get(edited)[3], scratch):
                    assert_same_bytes(block, want)
        else:
            with counting_full_passes() as full:
                edited = zero_feature_columns(ds, columns)
            assert full == []
            assert _carried.get(edited)[:2] == (hops, scheme) and _carried.get(edited)[3] is None
        with counting_full_passes() as full:
            values = aggregate(edited, hops, scheme).values
        assert full == []
        assert_same_bytes(values, full_values(edited, hops, scheme))

    @pytest.mark.parametrize("source", [aggregate, with_hop_blocks])
    def test_edits_and_copies_drop_the_carried_aggregation(self, source):
        ds = random_dataset(n=40, f=3, seed=13)
        source(ds, 2, GPR)
        others = [
            make_splits(ds, (0.6, 0.2, 0.2), 1),
            remove_edges(ds, [tuple(ds.edge_pairs()[0])]),
            remove_nodes(ds, [0]),
            replace(ds),
            copy.copy(ds),
            copy.deepcopy(ds),
            pickle.loads(pickle.dumps(ds)),
        ]
        for other in others:
            assert _carried.get(other) is None
        assert _carried.get(ds)[:2] == (2, GPR)


class TestEditSizedNewton:
    """`sequential_unlearn` hands `newton_unlearn` the rows `_reaggregate` recomputed: None
    unless the input carried hop blocks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(REQUESTS), min_size=1, max_size=6),
    )
    def test_stream_of_one_request_calls(self, seed, scheme, hops, kinds):
        rng = np.random.default_rng(seed)
        current = random_dataset(n=int(rng.integers(20, 100)), f=3, seed=seed, avg_degree=float(rng.uniform(0.5, 4)))
        model = trained_model(current, hops, scheme, seed)
        for kind in kinds:
            request = random_request(current, kind, rng)
            expected = reference_step(model, current, request, hops, scheme)
            had_blocks = carries(current, hops, scheme)
            with mock.patch.object(unlearn, "newton_unlearn", wraps=unlearn.newton_unlearn) as spy:
                (result,), _, edited = sequential_unlearn(model, current, [request], BUDGET, scheme, hops)
            assert_same_result(result, expected)
            (args, kwargs), = spy.call_args_list
            agg, agg_new, rows = args[1], args[2], kwargs["changed_rows"]
            # The two aggregations stay apart: each is its own graph's.
            assert_close(agg.values, full_values(current, hops, scheme))
            assert_close(agg_new.values, full_values(edited, hops, scheme))
            want = reachable_rows(current, edited, hops) if had_blocks else None
            if want is None:
                assert rows is None
            else:
                np.testing.assert_array_equal(rows, want)
                differs = (agg.values != agg_new.values).any(axis=1)
                assert not differs[np.setdiff1d(np.arange(current.n_nodes), rows)].any()
            model = replace(model, weights=result.updated_weights)
            current = edited

    @pytest.mark.parametrize("scheme", [SGC, GPR])
    def test_feature_removal_without_hops_takes_the_full_path(self, scheme):
        """With no hop, a zeroed column changes most rows of the aggregation itself:
        past half the graph, the Newton step gets no rows from the carried
        blocks and sums in full."""
        ds = random_dataset(n=60, f=3, seed=4)
        model = trained_model(ds, 0, scheme, 4)
        with_hop_blocks(ds, 0, scheme)
        with mock.patch.object(unlearn, "newton_unlearn", wraps=unlearn.newton_unlearn) as spy:
            (result,), _, edited = sequential_unlearn(model, ds, [FeatureRemoval((0,))], BUDGET, scheme, 0)
        assert 2 * (edited.features != ds.features).any(axis=1).sum() > ds.n_nodes
        assert spy.call_args.kwargs["changed_rows"] is None
        full = reference_step(model, ds, FeatureRemoval((0,)), 0, scheme)
        for got, want in zip(
            (result.updated_weights, result.delta_vector, result.residual_norm),
            (full.updated_weights, full.delta_vector, full.residual_norm),
        ):
            assert_same_bytes(np.asarray(got), np.asarray(want))


class TestRecycledValues:
    """`_reaggregate` writes an edited aggregation into the spare buffer the graph carries."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from([SGC, GPR]),
        hops=st.integers(1, 3),
        kinds=st.lists(st.sampled_from(("edge", "bulk", "node", "feature", "rows")), min_size=3, max_size=7),
        lend=st.integers(0, 10),
        peeks=st.lists(st.booleans(), min_size=7, max_size=7),
    )
    def test_every_held_aggregation_keeps_its_bytes(self, seed, scheme, hops, kinds, lend, peeks):
        """Each ``newton_unlearn`` call sees the full recomputes of the graphs
        before and after its edit, and a stream of one-request calls never
        writes into an aggregation `aggregate` hands out between the calls
        (always on the graph of one call followed by at least two more), nor
        into the first call's pre-edit aggregation."""
        rng = np.random.default_rng(seed)
        current = random_dataset(n=int(rng.integers(20, 100)), f=3, seed=seed, avg_degree=float(rng.uniform(1, 5)))
        model = trained_model(current, hops, scheme, seed)
        # The lent graph is followed by at least two calls, so its buffer would be written.
        lend = 1 + lend % (len(kinds) - 2)
        held = []

        def checked(step_model, aggregated, aggregated_new, *args, **kwargs):
            assert np.array_equal(aggregated.values, expected[0]) and np.array_equal(aggregated_new.values, expected[1])
            if not held:
                held.append((aggregated.values, aggregated.values.copy()))
            return newton_unlearn(step_model, aggregated, aggregated_new, *args, **kwargs)

        for i, kind in enumerate(kinds):
            if i == lend:
                lent = aggregate(current, hops, scheme).values
                held.append((lent, full_values(current, hops, scheme)))
            if peeks[i]:
                held.append((aggregate(current, hops, scheme).values, full_values(current, hops, scheme)))
            request = random_request(current, kind, rng)
            expected = full_values(current, hops, scheme), full_values(request.apply(current), hops, scheme)
            with mock.patch.object(unlearn, "newton_unlearn", side_effect=checked):
                (result,), _, current = sequential_unlearn(model, current, [request], BUDGET, scheme, hops)
            model = replace(model, weights=result.updated_weights)
        for values, kept in held:
            assert_same_bytes(values, kept)

    def test_stream_allocates_no_aggregation_sized_buffer(self):
        """From the third single-edge GPR request of a stream on, a request
        allocates nothing the size of the carried aggregation. The traced peak
        of a request stays below one aggregation (2.56 MB here); the CSR and
        training-row copies and the rest of a request take about 0.7 MB."""
        ds = random_dataset(n=5000, f=16, seed=12, avg_degree=4.0, fractions=(0.05, 0.05, 0.9))
        width = 16 * 4
        model = TrainedModel(np.random.default_rng(12).normal(scale=0.1, size=width), 1.0, np.zeros(width), 0.0)
        aggregation = full_values(ds, 3, GPR).nbytes
        current = ds
        tracemalloc.start()
        try:
            for i, pair in enumerate(ds.edge_pairs()[::101][:6]):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                _, _, current = sequential_unlearn(model, current, [EdgeRemoval((pair,))], BUDGET, GPR, 3)
                grown = tracemalloc.get_traced_memory()[1] - start
                if i >= 2:
                    assert grown < aggregation, f"request {i} grew the traced heap by {grown} bytes"
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("scheme", [SGC, GPR])
def test_retrain_oracle_builds_its_own_aggregation(scheme):
    """Retraining stays from scratch on a graph that carries hop blocks, or a wrong aggregation."""
    ds = random_dataset(n=60, f=3, seed=5)
    config = TrainConfig(lam=1.0, seed=5)
    model = trained_model(ds, 2, scheme, 5)
    _, _, edited = sequential_unlearn(model, ds, [EdgeRemoval((tuple(ds.edge_pairs()[0]),))], BUDGET, scheme, 2)
    assert carries(edited, 2, scheme)
    with counting_full_passes() as full:
        oracle = retrain_oracle(edited, config, model.perturbation, scheme, 2)
    assert len(full) == 1
    fresh = retrain_oracle(replace(edited), config, model.perturbation, scheme, 2)
    assert_same_bytes(oracle.weights, fresh.weights)
    # A wrong aggregation planted on the graph is what `aggregate` reads, but not the oracle.
    wrong = graph.AggregatedFeatures(values=np.ones_like(full_values(edited, 2, scheme)))
    _carried[edited] = (2, scheme, wrong, None, None, None)
    assert aggregate(edited, 2, scheme) is wrong
    assert_same_bytes(retrain_oracle(edited, config, model.perturbation, scheme, 2).weights, fresh.weights)
