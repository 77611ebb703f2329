"""Walkthrough: removing bias-carrying features from a pre-trained model.

Builds a synthetic homophilous graph with one feature planted to correlate
with the sensitive attribute, trains a regularized logistic model on
propagated features, then erases the most correlated features with a single
Newton update. A retrain-from-scratch oracle (same perturbation vector) shows
how tight the one-step approximation is, and the closed-form worst-case bound
shows what the certification accounting relies on.

Run:  python demos/feature_unlearning_demo.py
"""

import numpy as np

from fairwipe import (
    FeatureRemoval,
    TrainConfig,
    aggregate,
    calibrate_noise,
    fairness_metrics,
    newton_unlearn,
    pearson_correlations,
    predict,
    retrain_oracle,
    select_features,
    train,
    worstcase_bound_feature,
)
from fairwipe.unlearn import CertificationBudget
from fairwipe.synthetic import homophilous_dataset

HOPS = 2
LAM = 10.0
K = 2

print("=== setup ===")
dataset = homophilous_dataset(n=400, f=8, seed=7, bias_strength=0.5, label_tilt=0.25)
agg = aggregate(dataset, HOPS, "sgc")
m = int(dataset.train_mask.sum())
print(f"nodes={dataset.n_nodes}  features={dataset.n_features}  edges={dataset.n_edges}  train={m}")

rho = pearson_correlations(dataset.features, dataset.sensitive)
print(f"feature correlations with the sensitive attribute: {np.round(rho, 3)}")

print("\n=== noise calibration (epsilon=1, delta=1e-4) ===")
bound = worstcase_bound_feature(dataset.n_features, K, m, lam=LAM)
budget = CertificationBudget(epsilon=1.0, delta=1e-4, epsilon_prime=bound)
noise_std = calibrate_noise(budget)
print(f"worst-case residual bound for k={K}: {bound:.3e}")
print(f"objective perturbation std: {noise_std:.3e}")

print("\n=== pre-trained model ===")
config = TrainConfig(lam=LAM, seed=7)
model = train(dataset, agg, config, noise_std=noise_std)
preds, _ = predict(model, agg)
acc = (preds[dataset.test_mask] == dataset.labels[dataset.test_mask]).mean()
dsp, deo = fairness_metrics(preds, dataset.labels, dataset.sensitive, dataset.test_mask)
print(f"accuracy={acc:.3f}  delta_sp={dsp:.3f}  delta_eo={deo:.3f}")

print("\n=== unlearn the top correlated features ===")
selection = select_features(dataset.features, dataset.sensitive, K)
print(f"selected columns (by |correlation|): {[int(c) for c in selection.chosen]}")
edited = FeatureRemoval(selection.chosen).apply(dataset)
agg_new = aggregate(edited, HOPS, "sgc")
result = newton_unlearn(model, agg, agg_new, dataset.labels, dataset.train_mask)
print(f"gradient residual after the update: {result.residual_norm:.3e} (bound {bound:.3e})")
print(f"certified: {result.residual_norm <= bound}")

from dataclasses import replace

preds_u, _ = predict(replace(model, weights=result.updated_weights), agg_new)
acc_u = (preds_u[dataset.test_mask] == dataset.labels[dataset.test_mask]).mean()
dsp_u, deo_u = fairness_metrics(preds_u, dataset.labels, dataset.sensitive, dataset.test_mask)
print(f"after unlearning: accuracy={acc_u:.3f}  delta_sp={dsp_u:.3f}  delta_eo={deo_u:.3f}")

print("\n=== retrain-from-scratch oracle (same perturbation) ===")
oracle = retrain_oracle(edited, config, model.perturbation, "sgc", HOPS)
gap = np.linalg.norm(result.updated_weights - oracle.weights)
print(f"|w_unlearned - w_retrained| = {gap:.3e}")
print(f"strong-convexity guarantee: residual/(lam*m) = {result.residual_norm / (LAM * m):.3e}")

rho_after = pearson_correlations(edited.features, edited.sensitive)
print(f"\ncorrelation norm: {np.linalg.norm(rho):.3f} -> {np.linalg.norm(rho_after):.3f}")
