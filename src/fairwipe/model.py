"""Regularized logistic model on aggregated features: loss, gradient, Hessian, training.

The objective keeps the per-sample regularization convention: the ridge term is
summed inside the training loss, so the gradient carries ``lam * m * w`` and the
Hessian's smallest eigenvalue is at least ``lam * m``. An optional linear
perturbation ``b`` is added to the objective so that post-unlearning gradient
residuals can be hidden within calibrated noise.

The loss and gradient are written once, in ``_objective``. ``train`` and
``unlearn.newton_unlearn`` call it and ``logistic_hessian`` on pre-sliced rows
without checks; only the public ``loss_and_gradient`` and ``hessian`` check inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit

from .graph import AggregatedFeatures, GraphDataset


class ConvergenceError(RuntimeError):
    """Raised when the optimizer cannot reach the requested gradient tolerance."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"optimizer stalled at gradient norm {residual:.3e} (tolerance {tolerance:.3e})"
        )
        self.residual = residual


@dataclass(frozen=True)
class LossSpec:
    """Smoothness constants of the per-sample loss.

    ``c`` bounds the per-sample gradient norm, ``c1`` the first derivative,
    and ``gamma2`` is the Lipschitz constant of the second derivative. For the
    binary logistic loss these are (1, 1, 1/4).
    """

    c: float = 1.0
    c1: float = 1.0
    gamma2: float = 0.25

    def __post_init__(self):
        if min(self.c, self.c1, self.gamma2) <= 0:
            raise ValueError("loss constants must be positive")


LOGISTIC = LossSpec()


def _check_positive_finite(name: str, value) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 10.0
    tolerance: float = 1e-8
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_positive_finite("lam", self.lam)
        _check_positive_finite("tolerance", self.tolerance)
        for name in ("max_iterations", "seed"):
            if operator.index(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Optimized weights together with the perturbation they were trained under."""

    weights: np.ndarray
    lam: float
    perturbation: np.ndarray
    optimizer_residual: float

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def _check_inputs(weights, z_rows, labels):
    z_rows = np.asarray(z_rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if z_rows.ndim != 2:
        raise ValueError("feature rows must be a 2-D matrix")
    if weights.shape != (z_rows.shape[1],):
        raise ValueError(
            f"weights have dimension {weights.shape[0]}, feature width is {z_rows.shape[1]}"
        )
    if labels.shape != (z_rows.shape[0],):
        raise ValueError("labels must align with feature rows")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be binary 0/1")
    return weights, z_rows, labels


def _objective(weights, z_rows, labels, lam, perturbation, sigmoid, scores=None):
    """``loss_and_gradient`` without its checks, over pre-sliced float rows and a perturbation array:
    the gradient from the sigmoids ``s = sigma(Z w)``, the loss from the scores ``u = Z w`` (None without)."""
    m = z_rows.shape[0]
    grad = z_rows.T @ (sigmoid - labels) + lam * m * weights + perturbation
    if scores is None:
        return None, grad
    loss = float(np.logaddexp(0.0, scores).sum() - labels @ scores) + 0.5 * lam * m * float(weights @ weights)
    return loss + float(perturbation @ weights), grad


def loss_and_gradient(weights, z_rows, labels, lam, perturbation=None):
    """Perturbed training objective and its exact gradient over the given rows.

    Loss is ``sum_i [softplus(u_i) - y_i u_i] + (lam * m / 2) ||w||^2 + b.w``
    with ``u_i = z_i.w``; the gradient is ``Z^T (sigmoid(u) - y) + lam*m*w + b``.
    """
    weights, z_rows, labels = _check_inputs(weights, z_rows, labels)
    b = np.zeros_like(weights) if perturbation is None else np.asarray(perturbation, dtype=np.float64)
    if b.shape != weights.shape:
        raise ValueError("perturbation must match weight dimension")
    u = z_rows @ weights
    return _objective(weights, z_rows, labels, lam, b, expit(u), u)


def hessian(weights, z_rows, labels, lam):
    """Exact Hessian ``Z^T diag(sigma(u)(1-sigma(u))) Z + lam*m*I``; positive definite."""
    weights, z_rows, labels = _check_inputs(weights, z_rows, labels)
    return logistic_hessian(z_rows, expit(z_rows @ weights), lam)


# Rows per block of the Hessian product: a scaled block stays cache-resident.
_HESSIAN_BLOCK_ROWS = 1024


def logistic_hessian(z_rows, sigmoid, lam):
    """Hessian ``Z^T diag(s(1-s)) Z + lam*m*I`` from the sigmoids ``s = sigma(Z w)``.

    The data term is the rank-m product ``A^T A`` with ``A = Z sqrt(s(1-s))``,
    accumulated over row blocks of ``A`` so that no full-size scaled copy of
    ``Z`` is made; numpy hands each ``A_b^T A_b`` to BLAS as a symmetric product.
    """
    m, d = z_rows.shape
    root = np.sqrt(sigmoid * (1.0 - sigmoid))
    h = np.zeros((d, d))
    block = np.empty((min(m, _HESSIAN_BLOCK_ROWS), d))
    for start in range(0, m, _HESSIAN_BLOCK_ROWS):
        stop = min(start + _HESSIAN_BLOCK_ROWS, m)
        # einsum scales the rows in one pass; a broadcast multiply runs one
        # short inner loop per row.
        a = np.einsum("ij,i->ij", z_rows[start:stop], root[start:stop], out=block[: stop - start])
        h += a.T @ a
    h[np.diag_indices(d)] += lam * m
    return h


def train(
    dataset: GraphDataset,
    aggregated: AggregatedFeatures,
    config: TrainConfig,
    noise_std: float = 0.0,
    perturbation: np.ndarray | None = None,
) -> TrainedModel:
    """Minimize the perturbed objective over the training rows.

    The perturbation vector is drawn i.i.d. Normal(0, noise_std^2) from
    ``config.seed`` unless an explicit vector is supplied (used by the retrain
    oracle so weight comparisons isolate the update approximation);
    ``noise_std`` must be finite and at least 0, so NaN and inf raise. L-BFGS gets
    the solution close; damped Newton steps then push the gradient norm below
    ``config.tolerance``, which the certification accounting relies on, or
    :class:`ConvergenceError` reports the gradient norm where they stopped.
    """
    if not 0 <= noise_std < np.inf:
        raise ValueError("noise_std must be >= 0 and finite")
    z_tr = aggregated.values[dataset.train_mask]
    y_tr = np.asarray(dataset.labels, dtype=np.float64)[dataset.train_mask]
    m, d = z_tr.shape
    if m == 0:
        raise ValueError("training set is empty")
    if perturbation is not None:
        b = np.array(perturbation, dtype=np.float64)
        if b.shape != (d,):
            raise ValueError("perturbation must match aggregation width")
    elif noise_std > 0:
        b = np.random.default_rng(config.seed).normal(0.0, noise_std, size=d)
    else:
        b = np.zeros(d)

    def objective(w):
        u = z_tr @ w
        return _objective(w, z_tr, y_tr, config.lam, b, expit(u), u)

    res = minimize(
        objective,
        np.zeros(d),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": config.max_iterations, "ftol": 1e-18, "gtol": 1e-14},
    )
    w = res.x
    loss, grad = objective(w)
    for _ in range(50):
        residual = float(np.linalg.norm(grad))
        if residual <= config.tolerance:
            break
        h = logistic_hessian(z_tr, expit(z_tr @ w), config.lam)
        step = cho_solve(cho_factor(h), -grad)
        # Accept on loss decrease or gradient-norm decrease: close to the
        # optimum the loss change falls below float resolution while the
        # gradient norm still contracts quadratically. A search that accepts
        # no step would repeat from the same weights: stop polishing there.
        t = 1.0
        while t > 1e-12:
            cand = w + t * step
            cand_loss, cand_grad = objective(cand)
            if cand_loss < loss or np.linalg.norm(cand_grad) < residual:
                break
            t *= 0.5
        else:
            break
        w, loss, grad = cand, cand_loss, cand_grad
    residual = float(np.linalg.norm(grad))
    if residual > config.tolerance:
        raise ConvergenceError(residual, config.tolerance)
    return TrainedModel(weights=w, lam=config.lam, perturbation=b, optimizer_residual=residual)


def predict(model: TrainedModel, aggregated: AggregatedFeatures):
    """Raw scores ``Z w`` and thresholded labels (1 iff score > 0; ties go to 0)."""
    if aggregated.width != model.dim:
        raise ValueError(
            f"model dimension {model.dim} does not match aggregation width {aggregated.width}"
        )
    scores = aggregated.values @ model.weights
    return (scores > 0).astype(np.int64), scores
