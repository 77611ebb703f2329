"""Walkthrough: the file-based benchmark pipeline, end to end.

Writes a synthetic dataset to disk (edge list + feature table), a manifest
with expected statistics, and an experiment config, then drives the same entry
points the `fairwipe` command uses: stats, a three-arm run, and a propagation
depth sweep. Results land in CSV files under a scratch directory.

Run:  python demos/benchmark_demo.py
"""

import json
import tempfile
from pathlib import Path

from fairwipe.cli import main
from fairwipe.graph import degree_stats
from fairwipe.synthetic import homophilous_dataset

workdir = Path(tempfile.mkdtemp(prefix="fairwipe-demo-"))
print(f"scratch directory: {workdir}\n")

dataset = homophilous_dataset(n=150, f=6, seed=3, bias_strength=0.5, label_tilt=0.3)
stats = degree_stats(dataset)

(workdir / "edges.txt").write_text(
    "# synthetic homophilous graph\n"
    + "\n".join(f"{i} {j}" for i, j in dataset.edge_pairs())
    + "\n"
)
header = ["sens", "label"] + [f"f{c}" for c in range(dataset.n_features)]
rows = [",".join(header)]
for i in range(dataset.n_nodes):
    cells = [str(dataset.sensitive[i]), str(dataset.labels[i])]
    cells += [f"{v:.8f}" for v in dataset.features[i]]
    rows.append(",".join(cells))
(workdir / "features.csv").write_text("\n".join(rows) + "\n")

(workdir / "manifest.json").write_text(
    json.dumps(
        {
            "name": "synthetic-homophilous",
            "edges_path": "edges.txt",
            "features_path": "features.csv",
            "sensitive_column": "sens",
            "label_column": "label",
            "expected_stats": {
                "n_nodes": dataset.n_nodes,
                "n_edges": dataset.n_edges,
                "inter_edges": stats.inter_edges,
                "intra_edges": stats.intra_edges,
            },
        },
        indent=2,
    )
)

(workdir / "experiment.cfg").write_text(
    """# three-arm feature unlearning experiment
manifest = manifest.json
task = feature
k = 2
selector = proposed
scheme = sgc
hops = 2
lambda = 10.0
epsilon = 1.0
delta = 1e-4
seeds = 0, 1, 2
arms = pretrained, unlearn, retrain
"""
)

print("=== fairwipe stats ===")
main(["stats", "--manifest", str(workdir / "manifest.json")])

print("\n=== fairwipe run (3 seeds, 3 arms) ===")
main(
    [
        "run",
        "--config",
        str(workdir / "experiment.cfg"),
        "--out",
        str(workdir / "results.csv"),
    ]
)
lines = (workdir / "results.csv").read_text().strip().splitlines()
mean_rows = [line for line in lines if line.endswith("mean")]
print("aggregate rows (mean over seeds):")
for line in mean_rows:
    cells = line.split(",")
    print(f"  arm={cells[3]:<11} accuracy={cells[6]}  delta_sp={cells[7]}  wall={cells[16]}s")

print("\n=== fairwipe sweep over propagation depth ===")
main(
    [
        "sweep",
        "--config",
        str(workdir / "experiment.cfg"),
        "--param",
        "hops",
        "--values",
        "1,2,3",
        "--out",
        str(workdir / "sweep.csv"),
    ]
)
print(f"\nresult files: {sorted(p.name for p in workdir.glob('*.csv'))}")
