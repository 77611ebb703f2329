"""Dataset ingestion from edge-list and feature-table files, plus split generation.

A manifest (JSON) names the files and columns; loading normalizes features
(per-column standardization, then a global row-norm scale so the largest row
has unit norm), extracts the binary sensitive and label columns, and validates
any expected statistics before anything downstream runs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import GraphDataset, degree_stats
from .synthetic import split_masks


class DataValidationError(ValueError):
    """Dataset files or statistics do not match what the manifest promises."""


@dataclass(frozen=True)
class DatasetManifest:
    """Where a dataset lives and how to read its columns.

    ``sensitive_values`` / ``label_values`` optionally map two raw column
    values onto 0/1 (first element maps to 0); without them the columns must
    already be binary numeric. ``expected_stats`` may pin any of: n_nodes,
    n_edges, n_features, s0, s1, inter_edges, intra_edges (undirected edge
    counts, each edge counted once).
    """

    name: str
    edges_path: Path
    features_path: Path
    sensitive_column: str
    label_column: str
    drop_columns: tuple[str, ...] = ()
    sensitive_values: tuple[str, str] | None = None
    label_values: tuple[str, str] | None = None
    expected_stats: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, path) -> "DatasetManifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise DataValidationError(f"manifest not found: {path}")
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"manifest {path} is not valid JSON: {exc}")
        try:
            return cls(
                name=raw["name"],
                edges_path=(path.parent / raw["edges_path"]).resolve(),
                features_path=(path.parent / raw["features_path"]).resolve(),
                sensitive_column=raw["sensitive_column"],
                label_column=raw["label_column"],
                drop_columns=tuple(raw.get("drop_columns", ())),
                sensitive_values=tuple(raw["sensitive_values"]) if "sensitive_values" in raw else None,
                label_values=tuple(raw["label_values"]) if "label_values" in raw else None,
                expected_stats=dict(raw.get("expected_stats", {})),
            )
        except KeyError as exc:
            raise DataValidationError(f"manifest {path} is missing required key {exc}")


def _read_edge_list(path: Path, n_nodes: int) -> sp.csr_matrix:
    if not path.exists():
        raise DataValidationError(f"edge file not found: {path}")
    src, dst = [], []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 2:
                raise DataValidationError(f"{path}:{lineno}: expected two node ids, got {line!r}")
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
    if not src:
        raise DataValidationError(f"{path}: no edges found")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    base = min(src.min(), dst.min())
    if base >= 1:
        if max(src.max(), dst.max()) < n_nodes:
            warnings.warn(
                f"{path}: node ids run from {base} to {max(src.max(), dst.max())} with {n_nodes} feature rows, "
                "so the list may be 1-based or 0-based with node 0 isolated; reading it as 1-based"
            )
        src -= 1
        dst -= 1
    if max(src.max(), dst.max()) >= n_nodes:
        raise DataValidationError(
            f"{path}: edge references node {max(src.max(), dst.max())} but only {n_nodes} feature rows exist"
        )
    loops = src == dst
    if loops.any():
        warnings.warn(f"{path}: dropped {int(loops.sum())} self-loop(s)")
        src, dst = src[~loops], dst[~loops]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keys = np.unique(lo * n_nodes + hi)
    if len(keys) < len(lo):
        warnings.warn(f"{path}: removed {len(lo) - len(keys)} duplicate edge listing(s)")
    lo, hi = keys // n_nodes, keys % n_nodes
    data = np.ones(2 * len(lo))
    return sp.csr_matrix((data, (np.r_[lo, hi], np.r_[hi, lo])), shape=(n_nodes, n_nodes))


def _read_feature_table(path: Path):
    if not path.exists():
        raise DataValidationError(f"feature file not found: {path}")
    text = path.read_text().strip().splitlines()
    if len(text) < 2:
        raise DataValidationError(f"{path}: need a header row and at least one node row")
    delimiter = None
    for cand in ("\t", ",", ";"):
        if cand in text[0]:
            delimiter = cand
            break
    header = [h.strip() for h in (text[0].split(delimiter) if delimiter else text[0].split())]
    rows = []
    for lineno, line in enumerate(text[1:], 2):
        cells = [c.strip() for c in (line.split(delimiter) if delimiter else line.split())]
        if len(cells) != len(header):
            raise DataValidationError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        rows.append(cells)
    return header, rows


def _binary_column(cells: list[str], name: str, value_map: tuple[str, str] | None) -> np.ndarray:
    if value_map is not None:
        lookup = {value_map[0]: 0, value_map[1]: 1}
        try:
            return np.asarray([lookup[c] for c in cells], dtype=np.int64)
        except KeyError as exc:
            raise DataValidationError(f"column {name!r} contains unmapped value {exc}")
    try:
        values = np.asarray([float(c) for c in cells])
    except ValueError:
        raise DataValidationError(f"column {name!r} is not numeric; provide a value mapping")
    if not np.isin(values, (0.0, 1.0)).all():
        raise DataValidationError(f"column {name!r} is not binary 0/1; provide a value mapping")
    return values.astype(np.int64)


def load_dataset(manifest: DatasetManifest) -> GraphDataset:
    """Read, normalize, and validate a dataset; returns it with a fixed split.

    Feature columns are standardized to zero mean and unit variance
    (zero-variance columns stay zero), then all rows are scaled by the largest
    row norm so the maximum row norm is exactly 1. The split is always the
    60/20/20 train/val/test split drawn with seed 0; :func:`make_splits`
    draws others.
    """
    header, rows = _read_feature_table(manifest.features_path)
    for col in (manifest.sensitive_column, manifest.label_column, *manifest.drop_columns):
        if col not in header:
            raise DataValidationError(f"{manifest.features_path}: column {col!r} not found")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    sensitive = _binary_column(columns[manifest.sensitive_column], manifest.sensitive_column, manifest.sensitive_values)
    labels = _binary_column(columns[manifest.label_column], manifest.label_column, manifest.label_values)
    excluded = {manifest.sensitive_column, manifest.label_column, *manifest.drop_columns}
    feature_names = [name for name in header if name not in excluded]
    try:
        x = np.asarray(
            [[float(v) for v in columns[name]] for name in feature_names], dtype=np.float64
        ).T
    except ValueError as exc:
        raise DataValidationError(f"{manifest.features_path}: non-numeric feature value ({exc})")
    n = x.shape[0]

    std = x.std(axis=0)
    mean = x.mean(axis=0)
    live = std > 0
    x[:, live] = (x[:, live] - mean[live]) / std[live]
    x[:, ~live] = 0.0
    max_norm = np.linalg.norm(x, axis=1).max()
    if max_norm > 0:
        x /= max_norm

    adjacency = _read_edge_list(manifest.edges_path, n)
    train, val, test = split_masks(n, (0.6, 0.2, 0.2), np.random.default_rng(0))
    dataset = GraphDataset(
        adjacency=adjacency,
        features=x,
        sensitive=sensitive,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )
    _validate_expected_stats(dataset, manifest)
    return dataset


def _validate_expected_stats(dataset: GraphDataset, manifest: DatasetManifest) -> None:
    expected = manifest.expected_stats
    if not expected:
        return
    stats = degree_stats(dataset)
    actual = {
        "n_nodes": dataset.n_nodes,
        "n_edges": dataset.n_edges,
        "n_features": dataset.n_features,
        "s0": stats.group_sizes[0],
        "s1": stats.group_sizes[1],
        "inter_edges": stats.inter_edges,
        "intra_edges": stats.intra_edges,
    }
    unknown = set(expected) - set(actual)
    if unknown:
        raise DataValidationError(f"manifest {manifest.name}: unknown expected_stats keys {sorted(unknown)}")
    mismatches = {
        key: (expected[key], actual[key]) for key in expected if expected[key] != actual[key]
    }
    if mismatches:
        detail = ", ".join(f"{k}: expected {e}, got {a}" for k, (e, a) in sorted(mismatches.items()))
        raise DataValidationError(f"dataset {manifest.name} failed validation: {detail}")


def make_splits(
    dataset: GraphDataset, fractions: tuple[float, float, float], seed: int
) -> GraphDataset:
    """Reassign train/val/test masks from a seeded uniform node permutation.

    If the test set misses a sensitive group, one reseeded resample is
    attempted before giving up (fairness metrics need both groups). The
    result keeps the input's memoised edge pairs, degree statistics and edge
    scores.
    """
    fractions = tuple(float(f) for f in fractions)
    if any(f <= 0 for f in fractions):
        raise ValueError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    for attempt_seed in (seed, seed + 977):
        train, val, test = split_masks(dataset.n_nodes, fractions, np.random.default_rng(attempt_seed))
        s_test = dataset.sensitive[test]
        if (s_test == 0).any() and (s_test == 1).any():
            return dataset._edited(train_mask=train, val_mask=val, test_mask=test)
    raise ValueError("test split is missing a sensitive group even after one resample")
