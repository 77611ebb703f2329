"""Dataset ingestion from edge-list and feature-table files, plus split generation.

A manifest (JSON) names the files and columns; loading normalizes features
(per-column standardization, then a global row-norm scale so the largest row
has unit norm), extracts the binary sensitive and label columns, and validates
any expected statistics before anything downstream runs.
"""

from __future__ import annotations

import io
import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy.sparse as sp

from .graph import GraphDataset, _sorted_unique, _symmetric_adjacency, degree_stats
from .synthetic import split_masks


# What the bulk edge parse reads as an int64: decimal digits with an optional sign.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64_MAX = np.iinfo(np.int64).max


class DataValidationError(ValueError):
    """Dataset files or statistics do not match what the manifest promises."""


def _read_text(path: Path, what: str, error: type[Exception] = DataValidationError) -> str:
    """The text of the file ``path``, or ``error`` naming ``what`` if it is missing or cannot be read as text."""
    try:
        return path.read_text()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_REQUIRED = ("name", "edges_path", "features_path", "sensitive_column", "label_column")
# What each manifest key must hold: a check, and what it checks for.
_MANIFEST_VALUES = {
    **dict.fromkeys(_REQUIRED, (lambda v: isinstance(v, str), "a string")),
    "drop_columns": (_strings, "a list of strings"),
    **dict.fromkeys(
        ("sensitive_values", "label_values"), (lambda v: _strings(v) and len(v) == 2, "a list of two strings")
    ),
    "expected_stats": (lambda v: isinstance(v, dict) and all(type(c) is int for c in v.values()), "an object of integers"),
}
_STATS = ("n_nodes", "n_edges", "n_features", "s0", "s1", "inter_edges", "intra_edges")


@dataclass(frozen=True)
class DatasetManifest:
    """Where a dataset lives and how to read its columns.

    ``sensitive_values`` / ``label_values`` optionally map two raw column
    values onto 0/1 (first element maps to 0); without them the columns must
    already be binary numeric. ``expected_stats`` may pin any of: n_nodes,
    n_edges, n_features, s0, s1, inter_edges, intra_edges (undirected edge
    counts, each edge counted once). A manifest file's keys are these field
    names; any other key, or a value of another type, is an error.
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
            raw = json.loads(_read_text(path, "manifest"))
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"manifest {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise DataValidationError(f"manifest {path} must be a JSON object, not {type(raw).__name__}")
        unknown = set(raw) - set(_MANIFEST_VALUES)
        if unknown:
            raise DataValidationError(f"manifest {path} has unknown keys {sorted(unknown)}")
        for key, value in raw.items():
            check, what = _MANIFEST_VALUES[key]
            if not check(value):
                raise DataValidationError(f"manifest {path}: {key} must be {what}, got {value!r}")
        unknown = set(raw.get("expected_stats", ())) - set(_STATS)
        if unknown:
            raise DataValidationError(f"manifest {path} has unknown expected_stats keys {sorted(unknown)}")
        missing = [key for key in _REQUIRED if key not in raw]
        if missing:
            raise DataValidationError(f"manifest {path} is missing required key {missing[0]!r}")
        values = {key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()}
        paths = {key: (path.parent / raw[key]).resolve() for key in ("edges_path", "features_path")}
        return cls(**values | paths)


def _read_edge_list(path: Path, n_nodes: int) -> sp.csr_matrix:
    text = _read_text(path, "edge file")
    try:
        with warnings.catch_warnings():
            # An empty list gets its own error below.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            ids = np.loadtxt(
                io.StringIO(text.replace(",", " ")), dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2
            )
    except ValueError as exc:
        _raise_edge_line_error(path, text, exc)
    if len(ids) == 0:
        raise DataValidationError(f"{path}: no edges found")
    if ids.min() < 0:
        _raise_edge_line_error(path, text, "negative node id")
    src, dst = ids.T
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
    keys = _sorted_unique(lo * n_nodes + hi)
    if len(keys) < len(lo):
        warnings.warn(f"{path}: removed {len(lo) - len(keys)} duplicate edge listing(s)")
    lo, hi = keys // n_nodes, keys % n_nodes
    return _symmetric_adjacency(lo, hi, n_nodes)


def _raise_edge_line_error(path: Path, text: str, reason) -> NoReturn:
    """Raise the error for an edge list the bulk parse rejected for ``reason``, naming its first bad line.

    As in the bulk parse, a line is read up to any ``#`` with commas as
    spaces, and lines left empty are skipped; a line needs two node ids that
    are non-negative 64-bit integers.
    """
    for lineno, line in enumerate(text.split("\n"), 1):
        ids = line.split("#", 1)[0].replace(",", " ").split()[:2]
        if not ids:
            continue
        if len(ids) < 2:
            raise DataValidationError(f"{path}:{lineno}: expected two node ids, got {line.strip()!r}")
        if not all(_INTEGER.fullmatch(i) and 0 <= int(i) <= _INT64_MAX for i in ids):
            raise DataValidationError(f"{path}:{lineno}: node ids must be non-negative integers, got {line.strip()!r}")
    raise DataValidationError(f"{path}: {reason}")


def _read_feature_table(manifest: DatasetManifest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw feature matrix and the binary sensitive and label columns of the manifest's table.

    A repeated column name reads its last column. Columns the manifest does
    not read (dropped ones among them) may hold text. The feature matrix is
    column-major, so each column's mean and standard deviation sum one
    contiguous column.
    """
    path = manifest.features_path
    header_line, _, body = _read_text(path, "feature file").strip().partition("\n")
    if not body:
        raise DataValidationError(f"{path}: need a header row and at least one node row")
    delimiter = next((cand for cand in ("\t", ",", ";") if cand in header_line), None)
    header = [h.strip() for h in header_line.split(delimiter)]
    for col in (manifest.sensitive_column, manifest.label_column, *manifest.drop_columns):
        if col not in header:
            raise DataValidationError(f"{path}: column {col!r} not found")
    index = {name: i for i, name in enumerate(header)}
    binary = [
        (name, value_map, index[name])
        for name, value_map in (
            (manifest.sensitive_column, manifest.sensitive_values),
            (manifest.label_column, manifest.label_values),
        )
    ]
    excluded = {manifest.sensitive_column, manifest.label_column, *manifest.drop_columns}
    features = [index[name] for name in header if name not in excluded]
    if not features:
        raise DataValidationError(f"{path}: no feature column left after the sensitive, label and dropped columns")
    read = {i for _, _, i in binary} | set(features)
    converters = {i: lambda cell: 0.0 for i in range(len(header)) if i not in read}
    for _, value_map, i in binary:
        if value_map is not None:
            converters[i] = _value_lookup(value_map)
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=delimiter, comments=None, converters=converters, ndmin=2)
    except ValueError as exc:
        _raise_table_cell_error(path, body, delimiter, len(header), binary, features, exc)
    sensitive, labels = (_binary_column(table[:, i], name) for name, _, i in binary)
    x = np.asfortranarray(table[:, features])
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise DataValidationError(f"{path}: non-finite feature value in column {header[features[np.argmin(finite)]]!r}")
    return x, sensitive, labels


def _value_lookup(value_map: tuple[str, str]):
    """A cell converter mapping the two values, once stripped, onto 0.0 and 1.0."""
    lookup = {value_map[0]: 0.0, value_map[1]: 1.0}
    return lambda cell: lookup[cell.strip()]


def _binary_column(values: np.ndarray, name: str) -> np.ndarray:
    if not np.isin(values, (0.0, 1.0)).all():
        raise DataValidationError(f"column {name!r} is not binary 0/1; provide a value mapping")
    return values.astype(np.int64)


def _raise_table_cell_error(path, body, delimiter, n_cells, binary, features, reason) -> NoReturn:
    """Raise the error for a table body the bulk parse rejected for ``reason``, from a scan of its cells.

    In order: the first ragged line (the header is line 1; empty lines are
    skipped, as the bulk parse skips them), then an unmapped, non-numeric or
    non-binary value in the sensitive and then the label column, then a
    non-numeric feature value.
    """
    rows = []
    for lineno, line in enumerate(body.split("\n"), 2):
        cells = [c.strip() for c in line.split(delimiter)]
        if not line or not cells:
            continue
        if len(cells) != n_cells:
            raise DataValidationError(f"{path}:{lineno}: expected {n_cells} cells, got {len(cells)}")
        rows.append(cells)
    for name, value_map, i in binary:
        cells = [row[i] for row in rows]
        if value_map is not None:
            unmapped = [c for c in cells if c not in value_map]
            if unmapped:
                raise DataValidationError(f"column {name!r} contains unmapped value {unmapped[0]!r}")
            continue
        try:
            values = np.asarray([float(c) for c in cells])
        except ValueError:
            raise DataValidationError(f"column {name!r} is not numeric; provide a value mapping")
        _binary_column(values, name)
    for i in features:
        for row in rows:
            try:
                float(row[i])
            except ValueError as exc:
                raise DataValidationError(f"{path}: non-numeric feature value ({exc})")
    raise DataValidationError(f"{path}: {reason}")


def load_dataset(manifest: DatasetManifest) -> GraphDataset:
    """Read, normalize, and validate a dataset; returns it with a fixed split.

    Each file is read once and parsed in bulk; a file the bulk parse rejects
    is scanned line by line only to name the bad line or column. Feature
    columns are standardized to zero mean and unit variance (zero-variance
    columns stay zero), then all rows are scaled by the largest row norm so
    the maximum row norm is exactly 1; they are returned row-major, as the
    hop products read them. The split is always the 60/20/20
    train/val/test split drawn with seed 0; :func:`make_splits` draws others.
    """
    x, sensitive, labels = _read_feature_table(manifest)
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
    counts = (dataset.n_nodes, dataset.n_edges, dataset.n_features, *stats.group_sizes)
    actual = dict(zip(_STATS, (*counts, stats.inter_edges, stats.intra_edges)))
    mismatches = {
        key: (expected[key], actual.get(key)) for key in expected if expected[key] != actual.get(key)
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
    result keeps the input's memoised edge keys and pairs, degree statistics
    and edge scores.
    """
    fractions = _checked_fractions(fractions)
    for attempt_seed in (seed, seed + 977):
        train, val, test = split_masks(dataset.n_nodes, fractions, np.random.default_rng(attempt_seed))
        s_test = dataset.sensitive[test]
        if (s_test == 0).any() and (s_test == 1).any():
            return dataset._edited(train_mask=train, val_mask=val, test_mask=test)
    raise ValueError("test split is missing a sensitive group even after one resample")


def _checked_fractions(fractions) -> tuple[float, ...]:
    """The train/val/test ``fractions`` as floats, once checked to be positive and finite and to sum to 1."""
    fractions = tuple(float(f) for f in fractions)
    if not all(0 < f < np.inf for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be positive and finite and sum to 1, got {fractions}")
    return fractions
