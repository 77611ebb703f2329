"""Walkthrough: picking bias-propagating edges and nodes with closed-form scores.

On homophilous graphs, same-group edges amplify the correlation between
aggregated features and the sensitive attribute. The edge score prioritizes
intra-edges at low-degree endpoints and the node score targets intra-heavy,
low-degree nodes. This script prints the structural diagnostics, compares the
edge-selection ablations (proposed vs random vs class-restricted random), and
runs a node-unlearning pass.

Run:  python demos/structural_unlearning_demo.py
"""

from dataclasses import replace

import numpy as np

from fairwipe import (
    EdgeRemoval,
    NodeRemoval,
    TrainConfig,
    aggregate,
    alpha_diagnostics,
    degree_stats,
    fairness_metrics,
    newton_unlearn,
    predict,
    select_edges,
    select_nodes,
    train,
)
from fairwipe.synthetic import homophilous_dataset

HOPS = 2
LAM = 10.0
SEED = 5

dataset = homophilous_dataset(
    n=200, f=8, seed=SEED, p_in=0.2, p_out=0.05, bias_strength=0.5, label_tilt=0.3
)
stats = degree_stats(dataset)
alpha1, alpha2 = alpha_diagnostics(dataset)

print("=== structural diagnostics ===")
print(f"intra edges: {stats.intra_edges}   inter edges: {stats.inter_edges}")
print(f"boundary nodes: |S0x|={stats.boundary_sizes[0]} of {stats.group_sizes[0]}, "
      f"|S1x|={stats.boundary_sizes[1]} of {stats.group_sizes[1]}")
print(f"alpha1={alpha1:.3f}  alpha2={alpha2:.3f}  (both bound the correlation norm)")

agg = aggregate(dataset, HOPS, "sgc")
model = train(dataset, agg, TrainConfig(lam=LAM, seed=SEED), noise_std=0.0)
preds, _ = predict(model, agg)
base_dsp, _ = fairness_metrics(preds, dataset.labels, dataset.sensitive, dataset.test_mask)
base_acc = (preds[dataset.test_mask] == dataset.labels[dataset.test_mask]).mean()
print(f"\npre-trained: accuracy={base_acc:.3f}  delta_sp={base_dsp:.3f}")


def unlearn_edges(kind):
    k = max(1, int(round(0.10 * dataset.n_edges)))
    edited = EdgeRemoval(select_edges(dataset, k, kind=kind, seed=SEED).chosen).apply(dataset)
    agg_new = aggregate(edited, HOPS, "sgc")
    result = newton_unlearn(model, agg, agg_new, dataset.labels, dataset.train_mask)
    p, _ = predict(replace(model, weights=result.updated_weights), agg_new)
    dsp, _ = fairness_metrics(p, edited.labels, edited.sensitive, edited.test_mask)
    acc = (p[edited.test_mask] == edited.labels[edited.test_mask]).mean()
    return acc, dsp


print("\n=== edge unlearning at a 10% budget, by selection mechanism ===")
print(f"{'selector':<16}{'accuracy':>10}{'delta_sp':>10}")
for kind in ("proposed", "random", "random-intra", "random-inter"):
    acc, dsp = unlearn_edges(kind)
    print(f"{kind:<16}{acc:>10.3f}{dsp:>10.3f}")
print("(intra-edge removal mitigates; inter-edge removal amplifies)")

print("\n=== node unlearning (top-scored training nodes) ===")
selection = select_nodes(dataset, k=10, scope="train")
print(f"top node scores: {np.round(selection.scores[np.argsort(-selection.scores)[:5]], 3)}")
edited = NodeRemoval(selection.chosen).apply(dataset)
agg_new = aggregate(edited, HOPS, "sgc")
result = newton_unlearn(
    model, agg, agg_new, edited.labels, dataset.train_mask, edited.train_mask
)
p, _ = predict(replace(model, weights=result.updated_weights), agg_new)
dsp, _ = fairness_metrics(p, edited.labels, edited.sensitive, edited.test_mask)
acc = (p[edited.test_mask] == edited.labels[edited.test_mask]).mean()
print(f"after removing 10 nodes: accuracy={acc:.3f}  delta_sp={dsp:.3f}  "
      f"(residual {result.residual_norm:.2e})")
