"""Walkthrough: certified-removal accounting across sequential unlearning steps.

The removal guarantee rests on two numbers: the noise scale injected at
training time (calibrated from epsilon, delta, and a residual bound) and the
data-dependent gradient residual each Newton update leaves behind. Sequential
updates spend the budget cumulatively; this script unlearns ten 1% edge
batches and shows the accumulated residual crossing the budget line.

Run:  python demos/certification_demo.py
"""

import numpy as np

from fairwipe import (
    CertificationBudget,
    EdgeRemoval,
    TrainConfig,
    aggregate,
    calibrate_noise,
    select_edges,
    sequential_unlearn,
    train,
)
from fairwipe.synthetic import homophilous_dataset

HOPS = 2

print("=== how the noise scale responds to the budget ===")
print(f"{'epsilon':>8}{'delta':>10}{'c0':>8}{'noise std':>12}   (residual bound 1e-3)")
for epsilon, delta in ((0.5, 1e-4), (1.0, 1e-4), (1.0, 1e-2), (4.0, 1e-4)):
    budget = CertificationBudget(epsilon, delta, epsilon_prime=1e-3)
    print(f"{epsilon:>8}{delta:>10.0e}{budget.c0:>8.3f}{calibrate_noise(budget):>12.3e}")
print("tighter epsilon or delta -> more noise hidden in the objective")

print("\n=== sequential edge unlearning, ten 1% batches ===")
dataset = homophilous_dataset(n=250, f=6, seed=5)

agg = aggregate(dataset, HOPS, "sgc")
model = train(dataset, agg, TrainConfig(lam=0.05, seed=5), noise_std=0.0)
batch = max(1, dataset.n_edges // 50)


def next_batch(current):
    return EdgeRemoval(select_edges(current, min(batch, current.n_edges), kind="proposed").chosen)


# First pass: measure the residuals, then pick a budget that is exhausted
# part-way so the de-certification point is visible.
probe = CertificationBudget(1.0, 1e-4, epsilon_prime=np.inf)
results, probe_total, _ = sequential_unlearn(
    model, dataset, [next_batch] * 10, probe, scheme="sgc", hops=HOPS
)
residuals = [r.residual_norm for r in results]
epsilon_prime = sum(residuals[:7])
print(f"per-batch residuals: {[f'{r:.2e}' for r in residuals]}")
print(f"budget epsilon_prime set to the 7-batch sum: {epsilon_prime:.3e}\n")

budget = CertificationBudget(1.0, 1e-4, epsilon_prime=epsilon_prime)
print(f"{'batch':>6}{'residual':>12}{'accumulated':>14}{'certified':>11}")
for i, residual in enumerate(residuals, 1):
    budget = budget.record(residual)
    print(f"{i:>6}{residual:>12.3e}{budget.accumulated_residual:>14.3e}{str(budget.certified):>11}")

print("\nprocessing continues past de-certification; the flag is reported, not enforced.")
print(f"final accumulated residual: {budget.accumulated_residual:.3e} "
      f"(exactly the sum of the ten steps: {sum(residuals):.3e})")
