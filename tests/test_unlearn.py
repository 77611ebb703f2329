import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from fairwipe.graph import AggregatedFeatures, aggregate
from fairwipe.model import LOGISTIC, TrainConfig, loss_and_gradient, train
from fairwipe.synthetic import feature_unlearning_instance
from fairwipe.unlearn import (
    CertificationBudget,
    EdgeRemoval,
    FeatureRemoval,
    NodeRemoval,
    calibrate_noise,
    newton_unlearn,
    retrain_oracle,
    sequential_unlearn,
    worstcase_bound_feature,
)

from conftest import random_dataset

LAM = 10.0


def trained_instance(seed=0, n=200, f=10, hops=2, scheme="sgc", noise_std=0.0):
    ds = feature_unlearning_instance(n=n, f=f, seed=seed)
    agg = aggregate(ds, hops, scheme)
    cfg = TrainConfig(lam=LAM, seed=seed)
    model = train(ds, agg, cfg, noise_std=noise_std)
    return ds, agg, cfg, model


class TestNewtonUnlearn:
    def test_identical_data_is_a_no_op(self):
        ds, agg, _, model = trained_instance(seed=1, n=80, f=5)
        res = newton_unlearn(model, agg, agg, ds.labels, ds.train_mask)
        np.testing.assert_allclose(res.delta_vector, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.updated_weights, model.weights, atol=1e-12)
        assert res.residual_norm <= 1e-8

    def test_identical_data_is_a_no_op_under_perturbation(self):
        # Residual accounting covers the perturbed objective, so an unchanged
        # dataset stays at the optimizer tolerance even with noise injected.
        ds, agg, _, model = trained_instance(seed=1, n=80, f=5, noise_std=0.05)
        res = newton_unlearn(model, agg, agg, ds.labels, ds.train_mask)
        np.testing.assert_allclose(res.updated_weights, model.weights, atol=1e-12)
        assert res.residual_norm <= 1e-8

    def test_zeroing_an_already_zero_column_is_a_no_op(self):
        ds, _, _, _ = trained_instance(seed=2, n=60, f=4)
        x = ds.features.copy()
        x[:, 3] = 0.0
        ds = type(ds)(
            adjacency=ds.adjacency,
            features=x,
            sensitive=ds.sensitive,
            labels=ds.labels,
            train_mask=ds.train_mask,
            val_mask=ds.val_mask,
            test_mask=ds.test_mask,
        )
        agg = aggregate(ds, 2, "sgc")
        model = train(ds, agg, TrainConfig(lam=LAM, seed=2), noise_std=0.0)
        edited = FeatureRemoval((3,)).apply(ds)
        agg_new = aggregate(edited, 2, "sgc")
        res = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask)
        np.testing.assert_allclose(res.delta_vector, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.updated_weights, model.weights, atol=1e-12)

    def test_close_to_retrain_and_below_bound(self):
        ds, agg, cfg, model = trained_instance(seed=3)
        m = int(ds.train_mask.sum())
        edited = FeatureRemoval((0, 1)).apply(ds)
        agg_new = aggregate(edited, 2, "sgc")
        res = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask)
        oracle = retrain_oracle(edited, cfg, model.perturbation, "sgc", 2)
        assert np.linalg.norm(res.updated_weights - oracle.weights) <= 1e-3
        assert res.residual_norm <= worstcase_bound_feature(10, 2, m, lam=LAM)

    def test_residual_matches_independent_recomputation(self):
        # Recompute the post-removal gradient norm through the model module.
        for noise in (0.0, 0.02):
            ds, agg, _, model = trained_instance(seed=4, n=150, f=8, noise_std=noise)
            edited = FeatureRemoval((2, 5)).apply(ds)
            agg_new = aggregate(edited, 2, "sgc")
            res = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask)
            z_tr = agg_new.values[ds.train_mask]
            y_tr = ds.labels[ds.train_mask].astype(float)
            _, grad = loss_and_gradient(
                res.updated_weights, z_tr, y_tr, LAM, model.perturbation
            )
            assert abs(res.residual_norm - np.linalg.norm(grad)) <= 1e-10

    def test_node_removal_tracks_shrinking_training_set(self):
        ds, agg, cfg, model = trained_instance(seed=5, n=120, f=6)
        victims = tuple(int(v) for v in np.flatnonzero(ds.train_mask)[:4])
        edited = NodeRemoval(victims).apply(ds)
        agg_new = aggregate(edited, 2, "sgc")
        res = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask, edited.train_mask)
        oracle = retrain_oracle(edited, cfg, model.perturbation, "sgc", 2)
        assert int(edited.train_mask.sum()) == int(ds.train_mask.sum()) - 4
        assert np.linalg.norm(res.updated_weights - oracle.weights) <= 1e-3

    def test_width_mismatch_rejected(self):
        ds, agg, _, model = trained_instance(seed=6, n=40, f=4)
        gpr = aggregate(ds, 2, "gpr")
        with pytest.raises(ValueError, match="width"):
            newton_unlearn(model, agg, gpr, ds.labels, ds.train_mask)

    def test_model_dimension_mismatch_rejected(self):
        ds, _, _, model = trained_instance(seed=6, n=40, f=4)
        gpr = aggregate(ds, 2, "gpr")
        with pytest.raises(ValueError, match="model dimension does not match aggregation width"):
            newton_unlearn(model, gpr, gpr, ds.labels, ds.train_mask)

    def test_empty_training_set_rejected(self):
        ds, agg, _, model = trained_instance(seed=6, n=40, f=4)
        with pytest.raises(ValueError, match="post-removal training set is empty"):
            newton_unlearn(model, agg, agg, ds.labels, ds.train_mask, np.zeros_like(ds.train_mask))

    def test_strong_convexity_converts_residual_to_weight_distance(self):
        for seed in range(5):
            ds, agg, cfg, model = trained_instance(seed=seed, n=150, f=8)
            m = int(ds.train_mask.sum())
            edited = FeatureRemoval((0, 3, 4)).apply(ds)
            agg_new = aggregate(edited, 2, "sgc")
            res = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask)
            oracle = retrain_oracle(edited, cfg, model.perturbation, "sgc", 2)
            distance = np.linalg.norm(res.updated_weights - oracle.weights)
            assert distance <= res.residual_norm / (LAM * m) + 2 * cfg.tolerance


def reference_newton_unlearn(model, aggregated, aggregated_new, labels, train_mask, train_mask_new=None):
    """The update written out the long way, as an oracle for ``newton_unlearn``:
    two sliced copies of the training rows, the ``(Z*s(1-s)).T @ Z`` Hessian
    and three separate gradient passes. Returns (weights, delta, residual norm).
    """
    w = model.weights
    lam = model.lam
    y = np.asarray(labels, dtype=np.float64)
    mask_new = train_mask if train_mask_new is None else train_mask_new
    z_old, y_old = aggregated.values[train_mask], y[train_mask]
    z_new, y_new = aggregated_new.values[mask_new], y[mask_new]
    m_old, m_new = z_old.shape[0], z_new.shape[0]

    def gradient_sum(z_rows, targets, weights):
        return z_rows.T @ (expit(z_rows @ weights) - targets)

    delta = gradient_sum(z_old, y_old, w) - gradient_sum(z_new, y_new, w)
    delta += lam * (m_old - m_new) * w
    sig = expit(z_new @ w)
    h = (z_new * (sig * (1.0 - sig))[:, None]).T @ z_new
    h[np.diag_indices(h.shape[0])] += lam * m_new
    w_new = w + cho_solve(cho_factor(h), delta)
    residual = gradient_sum(z_new, y_new, w_new) + lam * m_new * w_new + model.perturbation
    return w_new, delta, float(np.linalg.norm(residual))


class TestNewtonUnlearnMatchesReference:
    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["feature", "edge", "node"]),
        noise_std=st.sampled_from([0.0, 0.05]),
        scheme=st.sampled_from(["sgc", "gpr"]),
        lam=st.sampled_from([1e-2, LAM]),
        pass_new_mask=st.booleans(),
    )
    def test_matches_sliced_formula(self, seed, kind, noise_std, scheme, lam, pass_new_mask):
        # At lam=1e-2 the step moves the weights visibly; at LAM it barely does.
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(12, 40)), 4
        ds = random_dataset(n=n, f=f, seed=seed)
        agg = aggregate(ds, 2, scheme)
        model = train(ds, agg, TrainConfig(lam=lam, seed=seed), noise_std=noise_std)
        if kind == "feature":
            columns = rng.choice(f, size=int(rng.integers(1, f)), replace=False)
            request = FeatureRemoval(tuple(int(c) for c in columns))
        elif kind == "edge":
            pairs = ds.edge_pairs()
            assume(len(pairs) > 0)
            picked = pairs[rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)]
            request = EdgeRemoval(tuple((int(i), int(j)) for i, j in picked))
        else:
            # Some, but never all, training nodes, plus a few others.
            train_nodes = np.flatnonzero(ds.train_mask)
            picked = rng.choice(train_nodes, size=int(rng.integers(1, len(train_nodes))), replace=False)
            others = rng.choice(np.flatnonzero(~ds.train_mask), size=2, replace=False)
            request = NodeRemoval(tuple(int(v) for v in np.concatenate([picked, others])))
        edited = request.apply(ds)
        agg_new = aggregate(edited, 2, scheme)
        mask_new = edited.train_mask if kind == "node" or pass_new_mask else None
        if kind == "node":
            assert not np.array_equal(mask_new, ds.train_mask)

        res = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask, mask_new)
        w_ref, delta_ref, residual_ref = reference_newton_unlearn(
            model, agg, agg_new, ds.labels, ds.train_mask, mask_new
        )
        np.testing.assert_allclose(res.updated_weights, w_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.delta_vector, delta_ref, rtol=0, atol=1e-12)
        assert abs(res.residual_norm - residual_ref) <= 1e-12


class TestChangedRows:
    """With ``changed_rows`` the correction is summed over those rows and the
    rows whose training-mask membership changed; every other row cancels."""

    def edited_case(self, seed, scheme, n_changed, n_flipped):
        """A trained model, its aggregation, and a copy with ``n_changed`` rows
        redrawn and ``n_flipped`` other rows moved in or out of training."""
        rng = np.random.default_rng(seed)
        ds = random_dataset(n=40, f=4, seed=seed)
        agg = aggregate(ds, 2, scheme)
        model = train(ds, agg, TrainConfig(lam=1e-2, seed=seed), noise_std=0.05)
        rows = rng.choice(ds.n_nodes, size=n_changed, replace=False)
        values = agg.values.copy()
        values[rows] = rng.normal(scale=0.3, size=(n_changed, agg.width))
        mask_new = ds.train_mask.copy()
        flipped = rng.choice(np.setdiff1d(np.arange(ds.n_nodes), rows), size=n_flipped, replace=False)
        mask_new[flipped] = ~mask_new[flipped]
        return rng, ds, model, agg, AggregatedFeatures(values), rows, mask_new

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scheme=st.sampled_from(["sgc", "gpr"]),
        n_changed=st.integers(0, 8),
        n_flipped=st.integers(0, 5),
        n_extra=st.integers(0, 4),
    )
    def test_matches_the_full_sum(self, seed, scheme, n_changed, n_flipped, n_extra):
        """Listed rows may come in any order, repeat, or include unchanged rows."""
        rng, ds, model, agg, agg_new, rows, mask_new = self.edited_case(seed, scheme, n_changed, n_flipped)
        listed = np.concatenate([rows, rng.choice(ds.n_nodes, size=n_extra)])
        rng.shuffle(listed)
        fast = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask, mask_new, changed_rows=listed)
        full = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask, mask_new)
        np.testing.assert_allclose(fast.updated_weights, full.updated_weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fast.delta_vector, full.delta_vector, rtol=0, atol=1e-12)
        assert abs(fast.residual_norm - full.residual_norm) <= 1e-12


class TestWorstCaseBound:
    def test_full_removal_collapses_to_first_term(self):
        for f, m, lam in ((5, 10, 2.0), (27, 600, 10.0), (100, 3, 1.0)):
            expected = LOGISTIC.gamma2 / m * (2 * LOGISTIC.c / lam) ** 2
            assert worstcase_bound_feature(f, f, m, lam=lam) == pytest.approx(expected, rel=1e-12)

    def test_reference_value(self):
        # Independent evaluation of the closed form, term by term.
        f, k, m, lam = 27, 5, 600, 10.0
        numer = 2.0 * 1.0 * math.sqrt(27.0) + 1.0 * math.sqrt(22.0 * 600.0)
        expected = 0.25 / 600.0 * (numer / (10.0 * math.sqrt(27.0))) ** 2
        value = worstcase_bound_feature(f, k, m, lam=lam)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2.42e-3, rel=1e-2)

    def test_shrinks_with_training_set_size(self):
        sizes = [100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 102400]
        values = [worstcase_bound_feature(27, 5, m, lam=10.0) for m in sizes]
        assert all(b2 < b1 for b1, b2 in zip(values, values[1:]))

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            worstcase_bound_feature(5, 6, 10, lam=10.0)
        with pytest.raises(ValueError):
            worstcase_bound_feature(5, 2, 0, lam=10.0)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, np.nan, np.inf])
    def test_ridge_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            worstcase_bound_feature(6, 1, 50, lam=lam)

    @pytest.mark.parametrize("k, m", [(1.5, 50), (1, 50.0)])
    def test_counts_must_be_integers(self, k, m):
        with pytest.raises(TypeError):
            worstcase_bound_feature(6, k, m, lam=1.0)


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param(dict(epsilon=0.0), "epsilon must be positive", id="epsilon"),
        pytest.param(dict(delta=1.5), r"delta must lie in \(0, 1.5\)", id="delta"),
        pytest.param(dict(epsilon_prime=-1.0), "epsilon_prime must be >= 0", id="epsilon_prime"),
        pytest.param(dict(accumulated_residual=-1e-9), "accumulated residual cannot be negative", id="residual"),
    ],
)
def test_bad_budget_is_rejected(changes, message):
    with pytest.raises(ValueError, match=message):
        CertificationBudget(**{"epsilon": 1.0, "delta": 1e-4, **changes})


class TestNoiseCalibration:
    def test_reference_c0(self):
        budget = CertificationBudget(epsilon=1.0, delta=1e-4, epsilon_prime=1.0)
        assert budget.c0 == pytest.approx(math.sqrt(2 * math.log(15000.0)), rel=1e-12)
        assert budget.c0 == pytest.approx(4.3854, abs=1e-4)

    def test_noise_vanishes_for_loose_epsilon(self):
        noise = [
            calibrate_noise(CertificationBudget(epsilon=e, delta=1e-4, epsilon_prime=1e-3))
            for e in (1.0, 1e3, 1e9)
        ]
        assert noise[0] > noise[1] > noise[2]
        assert noise[2] < 1e-11

    def test_reference_product(self):
        budget = CertificationBudget(epsilon=1.0, delta=1e-4, epsilon_prime=2.42e-3)
        assert calibrate_noise(budget) == pytest.approx(1.061e-2, abs=1e-5)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            CertificationBudget(epsilon=1.0, delta=1.5)
        with pytest.raises(ValueError):
            CertificationBudget(epsilon=1.0, delta=0.0)
        with pytest.raises(ValueError):
            CertificationBudget(epsilon=0.0, delta=1e-4)
        with pytest.raises(ValueError, match="epsilon_prime"):
            CertificationBudget(epsilon=1.0, delta=1e-4, epsilon_prime=-1.0)

    def test_missing_epsilon_prime_rejected(self):
        with pytest.raises(ValueError, match="epsilon_prime"):
            calibrate_noise(CertificationBudget(epsilon=1.0, delta=1e-4))

    def test_no_budget_no_verdict(self):
        budget = CertificationBudget(1.0, 1e-4)
        assert budget.certified is None
        assert budget.record(1e-3).certified is None


class TestSequentialUnlearn:
    def test_single_request_matches_newton(self):
        ds, agg, _, model = trained_instance(seed=7, n=100, f=6)
        request = FeatureRemoval((1,))
        budget = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)
        results, final_budget, edited = sequential_unlearn(
            model, ds, [request], budget, scheme="sgc", hops=2
        )
        direct_edited = request.apply(ds)
        agg_new = aggregate(direct_edited, 2, "sgc")
        direct = newton_unlearn(model, agg, agg_new, ds.labels, ds.train_mask)
        assert len(results) == 1
        np.testing.assert_allclose(results[0].updated_weights, direct.updated_weights)
        assert final_budget.accumulated_residual == results[0].residual_norm
        assert np.all(edited.features[:, 1] == 0)

    def test_empty_diff_requests_stay_certified(self):
        ds, _, _, model = trained_instance(seed=8, n=80, f=5)
        zeroed = FeatureRemoval((0,)).apply(ds)
        agg = aggregate(zeroed, 2, "sgc")
        model = train(zeroed, agg, TrainConfig(lam=LAM, seed=8), noise_std=0.0)
        requests = [FeatureRemoval((0,))] * 10
        budget = CertificationBudget(1.0, 1e-4, epsilon_prime=1e-6)
        results, final_budget, _ = sequential_unlearn(
            model, zeroed, requests, budget, scheme="sgc", hops=2
        )
        assert final_budget.accumulated_residual <= 10 * 1e-8
        assert final_budget.certified

    def test_accumulation_is_exact_sum(self):
        ds, _, _, model = trained_instance(seed=9, n=100, f=6)
        pairs = ds.edge_pairs()
        requests = [
            EdgeRemoval((tuple(int(v) for v in pairs[i]),)) for i in range(0, 8, 2)
        ]
        budget = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)
        results, final_budget, _ = sequential_unlearn(
            model, ds, requests, budget, scheme="sgc", hops=2
        )
        total = sum(r.residual_norm for r in results)
        assert final_budget.accumulated_residual == total

    def test_ten_batches_track_full_retrain(self):
        ds, _, cfg, model = trained_instance(seed=10, n=150, f=6)
        pairs = ds.edge_pairs()
        batch = max(1, len(pairs) // 100)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(pairs))
        requests = [
            EdgeRemoval(tuple(tuple(int(v) for v in pairs[i]) for i in order[b * batch : (b + 1) * batch]))
            for b in range(10)
        ]
        budget = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)
        results, _, edited = sequential_unlearn(model, ds, requests, budget, scheme="sgc", hops=2)
        oracle = retrain_oracle(edited, cfg, model.perturbation, "sgc", 2)
        assert edited.n_edges == ds.n_edges - 10 * batch
        assert np.linalg.norm(results[-1].updated_weights - oracle.weights) <= 1e-2

    def test_lazy_requests_see_current_graph(self):
        ds, _, _, model = trained_instance(seed=11, n=60, f=4)
        seen = []

        def first(current):
            seen.append(current.n_edges)
            return EdgeRemoval((tuple(int(v) for v in current.edge_pairs()[0]),))

        budget = CertificationBudget(1.0, 1e-4, epsilon_prime=1.0)
        sequential_unlearn(model, ds, [first, first], budget, scheme="sgc", hops=1)
        assert seen == [ds.n_edges, ds.n_edges - 1]


class TestRetrainOracle:
    def test_unedited_data_returns_original_weights(self):
        ds, agg, cfg, model = trained_instance(seed=12, n=80, f=5, noise_std=0.02)
        oracle = retrain_oracle(ds, cfg, model.perturbation, "sgc", 2)
        assert np.linalg.norm(oracle.weights - model.weights) <= 2 * cfg.tolerance
        assert oracle.optimizer_residual <= cfg.tolerance

    def test_requests_validate_non_empty(self):
        with pytest.raises(ValueError):
            FeatureRemoval(())
        with pytest.raises(ValueError):
            EdgeRemoval(())
        with pytest.raises(ValueError):
            NodeRemoval(())
