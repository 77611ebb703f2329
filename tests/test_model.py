import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fairwipe import model as model_module
from fairwipe.graph import GraphDataset, aggregate
from fairwipe.model import (
    LOGISTIC,
    ConvergenceError,
    TrainConfig,
    hessian,
    loss_and_gradient,
    predict,
    train,
)
from fairwipe.synthetic import feature_unlearning_instance
from fairwipe.unlearn import CertificationBudget, FeatureRemoval, retrain_oracle, sequential_unlearn

from conftest import finite_difference_gradient, finite_difference_hessian, random_dataset


def random_instance(seed, m=12, d=4):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(m, d))
    z /= max(1.0, np.linalg.norm(z, axis=1).max())
    y = rng.integers(0, 2, size=m).astype(float)
    w = rng.normal(scale=0.5, size=d)
    b = rng.normal(scale=0.1, size=d)
    lam = float(rng.uniform(0.5, 20))
    return w, z, y, lam, b


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda ds: loss_and_gradient(np.zeros(2), np.zeros(3), np.zeros(3), 1.0),
            "feature rows must be a 2-D matrix",
            id="1-D rows",
        ),
        pytest.param(
            lambda ds: hessian(np.zeros(2), np.zeros((3, 2)), np.zeros(2), 1.0),
            "labels must align with feature rows",
            id="labels",
        ),
        pytest.param(
            lambda ds: loss_and_gradient(np.zeros(2), np.zeros((3, 2)), np.zeros(3), 1.0, np.zeros(3)),
            "perturbation must match weight dimension",
            id="perturbation",
        ),
        pytest.param(
            lambda ds: train(ds, aggregate(ds, 1, "sgc"), TrainConfig(), perturbation=np.zeros(ds.n_features + 1)),
            "perturbation must match aggregation width",
            id="train perturbation",
        ),
    ],
)
def test_misshapen_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(random_dataset(n=20, f=3, seed=1))


class TestLossAndGradient:
    def test_single_sample_at_zero_weights(self):
        z = np.array([[0.3, -0.7]])
        loss, grad = loss_and_gradient(np.zeros(2), z, np.array([1.0]), lam=1.0)
        assert loss == pytest.approx(np.log(2.0))
        np.testing.assert_allclose(grad, -0.5 * z[0])

    def test_zero_rows_leave_only_ridge_and_perturbation(self):
        m, d = 5, 3
        w = np.array([0.2, -0.1, 0.4])
        b = np.array([1.0, 2.0, 3.0])
        lam = 2.0
        loss, grad = loss_and_gradient(w, np.zeros((m, d)), np.zeros(m), lam, b)
        np.testing.assert_allclose(grad, lam * m * w + b)
        assert loss == pytest.approx(m * np.log(2) + 0.5 * lam * m * w @ w + b @ w)

    def test_gradient_matches_finite_differences(self):
        for seed in range(20):
            w, z, y, lam, b = random_instance(seed)
            _, grad = loss_and_gradient(w, z, y, lam, b)
            fd = finite_difference_gradient(lambda v: loss_and_gradient(v, z, y, lam, b)[0], w)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            loss_and_gradient(np.zeros(3), np.zeros((2, 2)), np.zeros(2), 1.0)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            loss_and_gradient(np.zeros(2), np.zeros((2, 2)), np.array([0.0, 0.5]), 1.0)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        d=st.integers(1, 6),
        perturbed=st.booleans(),
    )
    def test_matches_the_unchecked_kernel_bit_for_bit(self, seed, m, d, perturbed):
        w, z, y, lam, b = random_instance(seed, m, d)
        # Integer labels and a list perturbation are valid inputs the check converts.
        loss, grad = loss_and_gradient(w, z, y.astype(np.int64), lam, list(b) if perturbed else None)
        b = b if perturbed else np.zeros(d)
        u = z @ w
        kernel_loss, kernel_grad = model_module._objective(w, z, y, lam, b, expit(u), u)
        assert np.float64(loss).tobytes() == np.float64(kernel_loss).tobytes()
        assert grad.tobytes() == kernel_grad.tobytes()
        no_loss, gradient_only = model_module._objective(w, z, y, lam, b, expit(u))
        assert no_loss is None
        assert gradient_only.tobytes() == grad.tobytes()


class TestHessian:
    def test_zero_rows_give_scaled_identity(self):
        h = hessian(np.zeros(3), np.zeros((7, 3)), np.zeros(7), lam=2.0)
        np.testing.assert_allclose(h, 14.0 * np.eye(3))

    def test_single_sample_at_zero_weights(self):
        z = np.array([[0.5, -0.5]])
        h = hessian(np.zeros(2), z, np.array([1.0]), lam=3.0)
        np.testing.assert_allclose(h, 0.25 * np.outer(z[0], z[0]) + 3.0 * np.eye(2))

    def test_matches_finite_difference_of_gradient(self):
        for seed in range(20):
            w, z, y, lam, _ = random_instance(seed)
            h = hessian(w, z, y, lam)
            fd = finite_difference_hessian(
                lambda v: loss_and_gradient(v, z, y, lam)[1], w
            )
            assert np.linalg.norm(h - fd) <= 1e-5 * max(1.0, np.linalg.norm(h))

    def test_row_blocks_match_single_product(self):
        # 2500 rows span several row blocks, the last one partial.
        w, z, y, lam, _ = random_instance(0, m=2500, d=6)
        s = 1.0 / (1.0 + np.exp(-(z @ w)))
        expected = (z * (s * (1.0 - s))[:, None]).T @ z + lam * len(y) * np.eye(6)
        np.testing.assert_allclose(hessian(w, z, y, lam), expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_strong_convexity_floor(self):
        for seed in range(30):
            w, z, y, lam, _ = random_instance(seed)
            eigmin = np.linalg.eigvalsh(hessian(w, z, y, lam)).min()
            assert eigmin >= lam * len(y) - 1e-6


class TestTrain:
    def test_huge_regularization_shrinks_weights(self):
        ds = random_dataset(n=40, f=3, seed=7)
        agg = aggregate(ds, 1, "sgc")
        model = train(ds, agg, TrainConfig(lam=1e6, seed=0), noise_std=0.0)
        assert np.linalg.norm(model.weights) <= LOGISTIC.c / 1e6

    def test_weight_norm_bound_without_noise(self):
        for seed in range(10):
            ds = random_dataset(n=35, f=4, seed=seed)
            agg = aggregate(ds, 2, "sgc")
            lam = 0.5 + seed
            model = train(ds, agg, TrainConfig(lam=lam, seed=seed), noise_std=0.0)
            assert np.linalg.norm(model.weights) <= LOGISTIC.c / lam + 1e-9

    def test_separable_data_reaches_full_training_accuracy(self):
        n = 40
        rng = np.random.default_rng(3)
        labels = np.arange(n) % 2
        x = np.column_stack([(labels - 0.5) * 0.8, rng.normal(scale=0.05, size=n)])
        masks = np.zeros((3, n), dtype=bool)
        masks[0, :30] = True
        masks[2, 30:] = True
        ds = GraphDataset(
            adjacency=sp.csr_matrix((n, n)),
            features=x,
            sensitive=labels.copy(),
            labels=labels,
            train_mask=masks[0],
            val_mask=masks[1],
            test_mask=masks[2],
        )
        agg = aggregate(ds, 0, "sgc")
        model = train(ds, agg, TrainConfig(lam=0.01, seed=0), noise_std=0.0)
        preds, _ = predict(model, agg)
        assert (preds[ds.train_mask] == ds.labels[ds.train_mask]).all()

    def test_same_seed_is_bitwise_identical(self):
        ds = feature_unlearning_instance(n=80, f=5, seed=11)
        agg = aggregate(ds, 2, "sgc")
        cfg = TrainConfig(lam=10.0, seed=42)
        m1 = train(ds, agg, cfg, noise_std=0.02)
        m2 = train(ds, agg, cfg, noise_std=0.02)
        assert (m1.weights == m2.weights).all()
        assert (m1.perturbation == m2.perturbation).all()

    def test_different_seed_changes_perturbation(self):
        ds = feature_unlearning_instance(n=80, f=5, seed=11)
        agg = aggregate(ds, 2, "sgc")
        m1 = train(ds, agg, TrainConfig(lam=10.0, seed=1), noise_std=0.02)
        m2 = train(ds, agg, TrainConfig(lam=10.0, seed=2), noise_std=0.02)
        assert not (m1.perturbation == m2.perturbation).all()

    def test_optimality_residual_below_tolerance(self):
        ds = feature_unlearning_instance(n=120, f=8, seed=5)
        agg = aggregate(ds, 2, "sgc")
        cfg = TrainConfig(lam=10.0, tolerance=1e-8, seed=9)
        model = train(ds, agg, cfg, noise_std=0.01)
        z_tr = agg.values[ds.train_mask]
        y_tr = ds.labels[ds.train_mask].astype(float)
        _, grad = loss_and_gradient(model.weights, z_tr, y_tr, 10.0, model.perturbation)
        assert np.linalg.norm(grad) <= 1e-8
        assert model.optimizer_residual <= 1e-8

    def test_unreachable_tolerance_stops_at_the_first_exhausted_search(self, monkeypatch):
        ds = random_dataset(n=200, f=5, seed=1)
        agg = aggregate(ds, 2, "sgc")
        calls = []
        kernel, minimize = model_module._objective, model_module.minimize

        def counted_kernel(*args):
            calls.append(kernel(*args))
            return calls[-1]

        lbfgs_calls = []

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            lbfgs_calls.append(len(calls))
            return result

        monkeypatch.setattr(model_module, "_objective", counted_kernel)
        monkeypatch.setattr(model_module, "minimize", counted_minimize)
        with pytest.raises(ConvergenceError) as raised:
            train(ds, agg, TrainConfig(lam=1e-2, tolerance=1e-300))
        # Replay the polish's acceptance rule over its kernel calls: the first
        # is at L-BFGS's weights, each later one a line-search candidate.
        loss, grad = calls[lbfgs_calls[0]]
        rejected_runs = [0]
        for cand_loss, cand_grad in calls[lbfgs_calls[0] + 1 :]:
            if cand_loss < loss or np.linalg.norm(cand_grad) < np.linalg.norm(grad):
                loss, grad = cand_loss, cand_grad
                rejected_runs.append(0)
            else:
                rejected_runs[-1] += 1
        # One exhausted search (t = 1, 1/2, ..., 2**-39) ends the fit, and no earlier one ran.
        assert rejected_runs[-1] == 40
        assert max(rejected_runs[:-1], default=0) < 40
        assert raised.value.residual == np.linalg.norm(grad)

    def test_loops_call_no_checked_entry_point(self, monkeypatch):
        def checked(*args, **kwargs):
            raise AssertionError("a checked entry point ran inside the optimizer or the update")

        for name in ("_check_inputs", "loss_and_gradient", "hessian"):
            monkeypatch.setattr(model_module, name, checked)
        ds = feature_unlearning_instance(n=120, f=6, seed=2)
        agg = aggregate(ds, 2, "gpr")
        config = TrainConfig(lam=1.0, seed=3)
        trained = train(ds, agg, config, noise_std=0.05)
        budget = CertificationBudget(epsilon=1.0, delta=1e-4)
        _, _, edited = sequential_unlearn(trained, ds, [FeatureRemoval((0,))], budget, "gpr", 2)
        retrain_oracle(edited, config, trained.perturbation, "gpr", 2)

    def test_empty_training_set_rejected(self):
        ds = random_dataset(n=10, seed=0)
        empty = GraphDataset(
            adjacency=ds.adjacency,
            features=ds.features,
            sensitive=ds.sensitive,
            labels=ds.labels,
            train_mask=np.zeros(10, dtype=bool),
            val_mask=ds.val_mask,
            test_mask=ds.test_mask,
        )
        agg = aggregate(empty, 1, "sgc")
        with pytest.raises(ValueError, match="empty"):
            train(empty, agg, TrainConfig(lam=1.0), noise_std=0.0)

    @pytest.mark.parametrize("noise_std", [np.nan, np.inf, -1.0])
    def test_noise_std_must_be_non_negative_and_finite(self, noise_std):
        """NaN would train noise-free without a word, and inf would fail inside scipy after RuntimeWarnings."""
        ds = random_dataset(n=30, f=3, seed=0)
        with pytest.raises(ValueError, match="noise_std must be >= 0 and finite"):
            train(ds, aggregate(ds, 1, "sgc"), TrainConfig(lam=1.0), noise_std=noise_std)

    @pytest.mark.parametrize("field", ["lam", "tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_config_needs_positive_finite_settings(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            TrainConfig(**{field: value})

    def test_config_needs_a_non_negative_integer_iteration_count(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 0"):
            TrainConfig(max_iterations=-1)
        with pytest.raises(TypeError):
            TrainConfig(max_iterations=2.5)
        assert TrainConfig(max_iterations=np.int64(0)).max_iterations == 0

    def test_config_needs_a_non_negative_integer_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        with pytest.raises(TypeError):
            TrainConfig(seed=0.5)
        assert TrainConfig(seed=np.int64(3)).seed == 3


class TestPredict:
    def test_zero_weights_all_label_zero(self):
        ds = random_dataset(n=10, f=3, seed=4)
        agg = aggregate(ds, 1, "sgc")
        model = train(ds, agg, TrainConfig(lam=1e9, seed=0), noise_std=0.0)
        fake = type(model)(
            weights=np.zeros(3), lam=1.0, perturbation=np.zeros(3), optimizer_residual=0.0
        )
        labels, scores = predict(fake, agg)
        assert (scores == 0).all()
        assert (labels == 0).all()

    def test_informative_feature_beats_chance(self):
        n = 200
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, size=n)
        x = np.column_stack([
            0.5 * (labels - 0.5) + rng.normal(scale=0.1, size=n),
            rng.normal(scale=0.3, size=n),
        ])
        masks = np.zeros((3, n), dtype=bool)
        masks[0, :120], masks[2, 120:] = True, True
        ds = GraphDataset(
            adjacency=sp.csr_matrix((n, n)),
            features=x,
            sensitive=rng.integers(0, 2, size=n),
            labels=labels,
            train_mask=masks[0],
            val_mask=masks[1],
            test_mask=masks[2],
        )
        agg = aggregate(ds, 0, "sgc")
        model = train(ds, agg, TrainConfig(lam=0.05, seed=0), noise_std=0.0)
        preds, _ = predict(model, agg)
        acc = (preds[ds.test_mask] == ds.labels[ds.test_mask]).mean()
        assert acc > 0.8

    def test_isolated_nodes_do_not_shift_scores(self):
        ds = random_dataset(n=12, f=3, seed=6)
        agg = aggregate(ds, 2, "sgc")
        model = train(ds, agg, TrainConfig(lam=5.0, seed=1), noise_std=0.0)
        _, scores = predict(model, agg)

        grown_adj = sp.block_diag([ds.adjacency, sp.csr_matrix((2, 2))], format="csr")
        grown = GraphDataset(
            adjacency=grown_adj,
            features=np.vstack([ds.features, np.zeros((2, 3))]),
            sensitive=np.r_[ds.sensitive, 0, 1],
            labels=np.r_[ds.labels, 0, 0],
            train_mask=np.r_[ds.train_mask, False, False],
            val_mask=np.r_[ds.val_mask, False, False],
            test_mask=np.r_[ds.test_mask, False, False],
        )
        grown_agg = aggregate(grown, 2, "sgc")
        _, grown_scores = predict(model, grown_agg)
        np.testing.assert_allclose(grown_scores[: ds.n_nodes], scores)

    def test_width_mismatch_rejected(self):
        ds = random_dataset(n=10, f=3, seed=4)
        agg = aggregate(ds, 1, "gpr")
        model = train(ds, aggregate(ds, 1, "sgc"), TrainConfig(lam=1.0), 0.0)
        with pytest.raises(ValueError, match="width"):
            predict(model, agg)
