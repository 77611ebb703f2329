"""Two-block homophilous graph sampled block by block, written as dataset files.

`fairwipe.synthetic.sbm_adjacency` draws one coin per node pair, which needs
gigabytes of temporaries at 10k nodes. Here each block pair gets a binomial
edge count and then that many distinct pairs drawn uniformly from the block,
so memory grows with the number of edges, not with n^2.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import expit

from fairwipe import synthetic

N_FEATURES = 13
AVG_DEGREE = 10.0
# Share of edges inside a sensitive group.
INTRA_SHARE = 0.8
# Weight of the centred sensitive attribute in planted column 0.
BIAS_STRENGTH = 0.8
# Pull of the sensitive attribute on the label logits.
LABEL_TILT = 0.6


def _distinct_pairs(rng, first, second, count, n):
    """`count` distinct undirected pairs (lo, hi), lo < hi, with one end in each node set."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        draw = int(1.2 * (count - len(keys))) + 16
        a = rng.choice(first, size=draw)
        b = rng.choice(second, size=draw)
        keep = a != b
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        keys = np.unique(np.concatenate([keys, lo * n + hi]))
    keys = rng.choice(keys, size=count, replace=False)
    return np.column_stack([keys // n, keys % n])


def homophilous_graph(n: int, seed: int):
    """Sensitive groups are the two halves of the node range; column 0 is planted.

    Features and labels follow `synthetic.homophilous_dataset`: column 0 mixes
    the centred sensitive attribute with noise, labels follow column 1 plus a
    sensitive-leaning tilt. About INTRA_SHARE of the edges join nodes of the
    same group. Returns ``(pairs, features, sensitive, labels)``.
    """
    rng = np.random.default_rng(seed)
    sensitive = np.zeros(n, dtype=np.int64)
    sensitive[n // 2 :] = 1
    sigma = 1.0 / (5.0 * np.sqrt(N_FEATURES))
    x = synthetic.gaussian_features(n, N_FEATURES, rng, sigma=sigma)
    s_centred = (sensitive - sensitive.mean()) / sensitive.std()
    x[:, 0] = sigma * (BIAS_STRENGTH * s_centred + np.sqrt(1 - BIAS_STRENGTH**2) * rng.normal(size=n))
    logits = (x[:, 1] + 0.8 * x[:, 0]) / sigma + LABEL_TILT * s_centred
    labels = (rng.random(n) < expit(logits)).astype(np.int64)

    groups = [np.arange(n // 2), np.arange(n // 2, n)]
    n_edges = n * AVG_DEGREE / 2
    sizes = [len(g) for g in groups]
    p_in = INTRA_SHARE * n_edges / sum(s * (s - 1) / 2 for s in sizes)
    p_out = (1 - INTRA_SHARE) * n_edges / (sizes[0] * sizes[1])
    blocks = [
        (groups[0], groups[0], sizes[0] * (sizes[0] - 1) // 2, p_in),
        (groups[1], groups[1], sizes[1] * (sizes[1] - 1) // 2, p_in),
        (groups[0], groups[1], sizes[0] * sizes[1], p_out),
    ]
    pairs = np.vstack(
        [_distinct_pairs(rng, a, b, rng.binomial(total, p), n) for a, b, total, p in blocks]
    )
    return pairs, x, sensitive, labels


def write_dataset(directory: Path, n: int, seed: int) -> Path:
    """Write edges.txt, features.csv and a manifest with `expected_stats`; return the manifest path."""
    pairs, x, sensitive, labels = homophilous_graph(n, seed)
    directory.mkdir(parents=True, exist_ok=True)
    np.savetxt(directory / "edges.txt", pairs, fmt="%d")
    header = ",".join(["sens", "label"] + [f"f{c}" for c in range(N_FEATURES)])
    table = np.column_stack([sensitive, labels, x])
    np.savetxt(
        directory / "features.csv",
        table,
        fmt=["%d", "%d"] + ["%.12g"] * N_FEATURES,
        delimiter=",",
        header=header,
        comments="",
    )
    inter = int((sensitive[pairs[:, 0]] != sensitive[pairs[:, 1]]).sum())
    manifest = {
        "name": f"block-homophilous-{n}",
        "edges_path": "edges.txt",
        "features_path": "features.csv",
        "sensitive_column": "sens",
        "label_column": "label",
        "expected_stats": {
            "n_nodes": n,
            "n_edges": len(pairs),
            "n_features": N_FEATURES,
            "s0": int((sensitive == 0).sum()),
            "s1": int((sensitive == 1).sum()),
            "inter_edges": inter,
            "intra_edges": len(pairs) - inter,
        },
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path
