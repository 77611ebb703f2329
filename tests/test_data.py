import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwipe import graph
from fairwipe.data import DatasetManifest, DataValidationError, load_dataset, make_splits
from fairwipe.graph import GraphDataset
from fairwipe.synthetic import split_masks

from conftest import random_dataset


def write_manifest(tmp_path, edge_path, feat_path, **overrides):
    payload = {
        "name": "toy",
        "edges_path": edge_path.name,
        "features_path": feat_path.name,
        "sensitive_column": "sens",
        "label_column": "label",
    }
    payload.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    return path


def replace_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


# Files written by `write_dataset_files` (and `write_manifest`), how to break
# them, and the message the loader must give. The edge list's first line is a
# comment and the feature table's is the header, so node 1's row is line 3.
MALFORMED = {
    "short-edge-line": (dict(edge_lines=["0 1", "2"]), None, r"edges\.txt:3: expected two node ids, got '2'"),
    "no-edges": (dict(edge_lines=[]), None, r"edges\.txt: no edges found"),
    "header-only": (dict(n=0), None, r"features\.csv: need a header row"),
    "ragged-row": ({}, lambda e, f, m: replace_line(f, 3, "0,1,0.5"), r"features\.csv:3: expected 4 cells, got 3"),
    "text-sensitive": (dict(sensitive=("a", "a", "b", "b")), None, r"column 'sens' is not numeric; provide a value"),
    "text-feature": ({}, lambda e, f, m: replace_line(f, 3, "0,1,x,0.5"), r"features\.csv: non-numeric feature value"),
    "text-node-id": (dict(edge_lines=["0 1", "1 x"]), None, r"edges\.txt:3: node ids must be non-negative integers, got '1 x'"),
    "negative-node-id": (dict(edge_lines=["-1 2", "1 2"]), None, r"edges\.txt:2: node ids must be non-negative integers, got '-1 2'"),
    "nan-feature": ({}, lambda e, f, m: replace_line(f, 3, "0,1,nan,0.5"), r"features\.csv: non-finite feature value in column 'f0'"),
    "inf-feature": ({}, lambda e, f, m: replace_line(f, 4, "0,1,0.5,-inf"), r"features\.csv: non-finite feature value in column 'f1'"),
    "bad-manifest": ({}, lambda e, f, m: m.write_text("{"), r"manifest\.json is not valid JSON"),
    "no-edge-file": ({}, lambda e, f, m: e.unlink(), r"edge file not found: .*edges\.txt"),
    "no-feature-file": ({}, lambda e, f, m: f.unlink(), r"feature file not found: .*features\.csv"),
    "no-feature-column": (dict(extra_features=0), None, r"features\.csv: no feature column left"),
}


class TestManifest:
    def test_round_trip(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        path = write_manifest(tmp_path, edge_path, feat_path, drop_columns=["f0"])
        manifest = DatasetManifest.from_json(path)
        assert manifest.name == "toy"
        assert manifest.edges_path == edge_path.resolve()
        assert manifest.drop_columns == ("f0",)

    def test_missing_file_fails_validation(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            DatasetManifest.from_json(tmp_path / "nope.json")

    @pytest.mark.parametrize("payload, kind", [([], "list"), (3, "int"), ("name", "str"), (None, "NoneType")])
    def test_manifest_must_be_an_object(self, tmp_path, payload, kind):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataValidationError, match=f"must be a JSON object, not {kind}"):
            DatasetManifest.from_json(path)

    def test_missing_key_fails_validation(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DataValidationError, match="missing required key"):
            DatasetManifest.from_json(path)


    def test_unknown_key_fails_validation(self, tmp_path, write_dataset_files):
        """A misspelt key is an error, not ignored: ignored, the column it names would become a feature."""
        edge_path, feat_path = write_dataset_files()
        path = write_manifest(tmp_path, edge_path, feat_path, drop_colums=["f0"])
        with pytest.raises(DataValidationError, match=r"unknown keys \['drop_colums'\]"):
            DatasetManifest.from_json(path)


class TestLoadDataset:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_message(self, tmp_path, write_dataset_files, case):
        written, breaks, message = MALFORMED[case]
        edge_path, feat_path = write_dataset_files(**written)
        manifest_path = write_manifest(tmp_path, edge_path, feat_path)
        if breaks is not None:
            breaks(edge_path, feat_path, manifest_path)
        with pytest.raises(DataValidationError, match=message):
            load_dataset(DatasetManifest.from_json(manifest_path))

    def test_every_feature_column_dropped_is_rejected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path, drop_columns=["f0", "f1"]))
        with pytest.raises(DataValidationError, match="no feature column left after the sensitive, label and dropped"):
            load_dataset(manifest)

    def test_basic_load(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        ds = load_dataset(manifest)
        assert ds.n_nodes == 4
        assert ds.n_edges == 3
        assert ds.n_features == 2
        np.testing.assert_array_equal(ds.sensitive, [0, 0, 1, 1])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    def test_normalization_contract(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(n=6, sensitive=(0,) * 3 + (1,) * 3,
                                                   labels=(0, 1) * 3, extra_features=3)
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        ds = load_dataset(manifest)
        norms = np.linalg.norm(ds.features, axis=1)
        assert norms.max() == pytest.approx(1.0)

    def test_zero_variance_column_stays_zero(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        lines = feat_path.read_text().splitlines()
        header = lines[0] + ",const"
        rows = [line + ",5.0" for line in lines[1:]]
        feat_path.write_text("\n".join([header] + rows) + "\n")
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        ds = load_dataset(manifest)
        assert (ds.features[:, 2] == 0).all()

    def test_one_based_edges_autodetected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(edge_lines=["1 2", "2 3", "3 4"])
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        ds = load_dataset(manifest)
        assert ds.adjacency[0, 1] == 1.0
        assert ds.n_edges == 3

    def test_ambiguous_base_warns(self, tmp_path, write_dataset_files):
        """A 0-based list whose node 0 is isolated also starts at 1; it still
        reads as 1-based, but the loader says the reading is a guess."""
        edge_path, feat_path = write_dataset_files(edge_lines=["1 2", "2 3"])
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        with pytest.warns(UserWarning, match=r"edges\.txt.*1-based or 0-based with node 0 isolated"):
            ds = load_dataset(manifest)
        assert ds.adjacency[0, 1] == 1.0 and ds.adjacency[1, 2] == 1.0
        # Ids reaching the node count can only be 1-based: no warning.
        edge_path.write_text("1 2\n2 3\n3 4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_dataset(manifest)

    def test_comma_separated_edges(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(edge_lines=["0, 1", "2,3"])
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        assert load_dataset(manifest).n_edges == 2

    def test_duplicate_edges_warn_and_collapse(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(edge_lines=["0 1", "1 0", "0 1", "2 3"])
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        with pytest.warns(UserWarning, match="duplicate"):
            ds = load_dataset(manifest)
        assert ds.n_edges == 2

    def test_self_loops_warn_and_drop(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(edge_lines=["0 0", "1 2"])
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        with pytest.warns(UserWarning, match="self-loop"):
            ds = load_dataset(manifest)
        assert ds.n_edges == 1

    def test_missing_column_rejected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        manifest = DatasetManifest.from_json(
            write_manifest(tmp_path, edge_path, feat_path, sensitive_column="gender")
        )
        with pytest.raises(DataValidationError, match="'gender' not found"):
            load_dataset(manifest)

    def test_non_binary_sensitive_rejected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(sensitive=(0, 1, 2, 1))
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        with pytest.raises(DataValidationError, match="binary"):
            load_dataset(manifest)

    def test_value_mapping(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(
            sensitive=("M", "M", "F", "F"), labels=("-1", "1", "-1", "1")
        )
        manifest = DatasetManifest.from_json(
            write_manifest(
                tmp_path,
                edge_path,
                feat_path,
                sensitive_values=["M", "F"],
                label_values=["-1", "1"],
            )
        )
        ds = load_dataset(manifest)
        np.testing.assert_array_equal(ds.sensitive, [0, 0, 1, 1])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    def test_unmapped_value_rejected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(sensitive=("M", "M", "F", "X"))
        manifest = DatasetManifest.from_json(
            write_manifest(tmp_path, edge_path, feat_path, sensitive_values=["M", "F"])
        )
        with pytest.raises(DataValidationError, match="unmapped"):
            load_dataset(manifest)

    def test_edge_out_of_range_rejected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(edge_lines=["0 9"])
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        with pytest.raises(DataValidationError, match="references node"):
            load_dataset(manifest)

    def test_expected_stats_pass(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        manifest = DatasetManifest.from_json(
            write_manifest(
                tmp_path,
                edge_path,
                feat_path,
                expected_stats={
                    "n_nodes": 4,
                    "n_edges": 3,
                    "n_features": 2,
                    "s0": 2,
                    "s1": 2,
                    "inter_edges": 1,
                    "intra_edges": 2,
                },
            )
        )
        ds = load_dataset(manifest)
        assert ds.n_nodes == 4

    def test_expected_stats_mismatch_aborts(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        manifest = DatasetManifest.from_json(
            write_manifest(tmp_path, edge_path, feat_path, expected_stats={"n_edges": 99})
        )
        with pytest.raises(DataValidationError, match="expected 99, got 3"):
            load_dataset(manifest)

    def test_unknown_stats_key_rejected(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        path = write_manifest(tmp_path, edge_path, feat_path, expected_stats={"edges": 3})
        with pytest.raises(DataValidationError, match=r"unknown expected_stats keys \['edges'\]"):
            DatasetManifest.from_json(path)

    def test_unknown_stats_key_of_a_manifest_built_in_python_fails_validation(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files()
        manifest = DatasetManifest("toy", edge_path, feat_path, "sens", "label", expected_stats={"edges": 3})
        with pytest.raises(DataValidationError, match="edges: expected 3, got None"):
            load_dataset(manifest)

    def test_expected_stats_count_carries_to_splits(self, tmp_path, write_dataset_files, monkeypatch):
        counted = []
        original = graph._count_degrees

        def spy(dataset):
            counted.append(dataset)
            return original(dataset)

        monkeypatch.setattr(graph, "_count_degrees", spy)
        edge_path, feat_path = write_dataset_files(n=10, sensitive=(0, 1) * 5, labels=(0, 0, 1, 1, 0) * 2)
        manifest = DatasetManifest.from_json(
            write_manifest(tmp_path, edge_path, feat_path, expected_stats={"inter_edges": 3})
        )
        ds = load_dataset(manifest)
        split = make_splits(ds, (0.4, 0.3, 0.3), seed=3)
        assert graph.degree_stats(split) is graph.degree_stats(ds)
        assert counted == [ds]

    def test_tab_delimited_features(self, tmp_path, write_dataset_files):
        edge_path, feat_path = write_dataset_files(delimiter="\t")
        manifest = DatasetManifest.from_json(write_manifest(tmp_path, edge_path, feat_path))
        assert load_dataset(manifest).n_features == 2


def reference_load(manifest):
    """`load_dataset` as a line-by-line parse: the reference for the bulk parse on well-formed files."""
    lines = manifest.features_path.read_text().strip().splitlines()
    delimiter = next((c for c in ("\t", ",", ";") if c in lines[0]), None)
    header = [h.strip() for h in lines[0].split(delimiter)]
    columns = {name: [row[i] for row in [[c.strip() for c in line.split(delimiter)] for line in lines[1:]]]
               for i, name in enumerate(header)}

    def binary(name, value_map):
        if value_map is None:
            return np.asarray([float(c) for c in columns[name]]).astype(np.int64)
        return np.asarray([{value_map[0]: 0, value_map[1]: 1}[c] for c in columns[name]], dtype=np.int64)

    excluded = {manifest.sensitive_column, manifest.label_column, *manifest.drop_columns}
    x = np.asarray([[float(v) for v in columns[name]] for name in header if name not in excluded]).T
    n = x.shape[0]
    std, mean = x.std(axis=0), x.mean(axis=0)
    live = std > 0
    x[:, live] = (x[:, live] - mean[live]) / std[live]
    x[:, ~live] = 0.0
    max_norm = np.linalg.norm(x, axis=1).max()
    if max_norm > 0:
        x /= max_norm

    path = manifest.edges_path
    src, dst = [], []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.replace(",", " ").split()
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
    src, dst = np.asarray(src), np.asarray(dst)
    base = min(src.min(), dst.min())
    if base >= 1:
        if max(src.max(), dst.max()) < n:
            warnings.warn(
                f"{path}: node ids run from {base} to {max(src.max(), dst.max())} with {n} feature rows, "
                "so the list may be 1-based or 0-based with node 0 isolated; reading it as 1-based"
            )
        src, dst = src - 1, dst - 1
    loops = src == dst
    if loops.any():
        warnings.warn(f"{path}: dropped {int(loops.sum())} self-loop(s)")
        src, dst = src[~loops], dst[~loops]
    pairs = sorted({(min(i, j), max(i, j)) for i, j in zip(src.tolist(), dst.tolist())})
    if len(pairs) < len(src):
        warnings.warn(f"{path}: removed {len(src) - len(pairs)} duplicate edge listing(s)")
    lo, hi = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    adjacency = sp.csr_matrix((np.ones(2 * len(lo)), (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n))
    train, val, test = split_masks(n, (0.6, 0.2, 0.2), np.random.default_rng(0))
    return GraphDataset(
        adjacency=adjacency,
        features=np.ascontiguousarray(x),
        sensitive=binary(manifest.sensitive_column, manifest.sensitive_values),
        labels=binary(manifest.label_column, manifest.label_values),
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


@st.composite
def edge_list_text(draw, n):
    """An edge list with whitespace, comma and mixed separators, comments, blank lines,
    0- or 1-based ids, duplicates and self-loops."""
    base = draw(st.sampled_from((0, 1)))
    ids = st.integers(base, n - 1 + base)
    line = st.tuples(
        st.sampled_from(("", "  ", "\t")),
        ids,
        st.sampled_from((" ", "\t", ",", ", ", " ,\t")),
        ids,
        st.sampled_from(("", " ", " 0.5", " # note", "\t# a,b")),
        st.sampled_from(("", "", "# comment", "  # indented, comment", "   ")),
    )
    lines = ["# edge list"]
    for lead, i, sep, j, tail, before in draw(st.lists(line, min_size=1, max_size=3 * n)):
        lines += [before] if before else []
        lines.append(f"{lead}{i}{sep}{j}{tail}")
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))


@st.composite
def feature_table_text(draw, n):
    """A feature table with a tab, semicolon, comma or whitespace delimiter, columns in any
    order, padded cells, optionally value-mapped sensitive and label columns and a dropped
    text column. Returns the text and the manifest entries it needs."""
    delimiter = draw(st.sampled_from(("\t", ";", ",", None)))
    n_features = draw(st.integers(1, 4))
    mapped = {"sens": draw(st.sampled_from((None, ("M", "F")))), "label": draw(st.sampled_from((None, ("-1", "1"))))}
    names = ["sens", "label", *(f"f{c}" for c in range(n_features))]
    # A dropped text column, and a repeated name (its last column is read).
    names += [name for name in ("note", "f0") if draw(st.booleans())]
    names = draw(st.permutations(names))
    number = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    formats = st.sampled_from((repr, "{:.6g}".format, "{:.3e}".format))

    def cell(name, i):
        if name == "note":
            return f"text{i}"
        if name in mapped:
            value = draw(st.integers(0, 1))
            return mapped[name][value] if mapped[name] else draw(st.sampled_from((str(value), f"{value}.0")))
        return draw(formats)(draw(number))

    pad = st.sampled_from(("", " ", "  "))
    gap = st.sampled_from((" ", "\t", "  \t"))

    def join(cells, gaps):
        if delimiter is None:
            return "".join(c + draw(gaps) for c in cells[:-1]) + cells[-1]
        return delimiter.join(f"{draw(pad)}{c}{draw(pad)}" for c in cells)

    # A tab in the header would make it a tab-delimited table.
    lines = [join(names, pad.filter(bool))] + [join([cell(name, i) for name in names], gap) for i in range(n)]
    text = draw(st.sampled_from(("", "\n"))) + "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n \n")))
    entries = {
        "drop_columns": ["note"] if "note" in names else [],
        "sensitive_values": list(mapped["sens"]) if mapped["sens"] else None,
        "label_values": list(mapped["label"]) if mapped["label"] else None,
    }
    return text, {key: value for key, value in entries.items() if value is not None}


def loaded_with_warnings(load, manifest):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load(manifest)
    return ds, [str(w.message) for w in caught]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(5, 12))
def test_bulk_parse_matches_the_line_parse(data, n):
    edge_text = data.draw(edge_list_text(n))
    table_text, entries = data.draw(feature_table_text(n))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        edge_path, feat_path = tmp / "edges.txt", tmp / "features.csv"
        edge_path.write_text(edge_text)
        feat_path.write_text(table_text)
        manifest = DatasetManifest.from_json(write_manifest(tmp, edge_path, feat_path, **entries))
        got, got_warnings = loaded_with_warnings(load_dataset, manifest)
        want, want_warnings = loaded_with_warnings(reference_load, manifest)
    assert got_warnings == want_warnings
    for name in ("features", "sensitive", "labels", "train_mask", "val_mask", "test_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.flags.f_contiguous, a.tobytes()) == (b.dtype, b.shape, b.flags.f_contiguous, b.tobytes())
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.adjacency, name), getattr(want.adjacency, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


class TestMakeSplits:
    def test_exact_sizes(self):
        ds = random_dataset(n=10, seed=0)
        out = make_splits(ds, (0.6, 0.2, 0.2), seed=2)
        assert int(out.train_mask.sum()) == 6
        assert int(out.val_mask.sum()) == 2
        assert int(out.test_mask.sum()) == 2

    def test_same_seed_identical(self):
        ds = random_dataset(n=40, seed=0)
        a = make_splits(ds, (0.6, 0.2, 0.2), seed=7)
        b = make_splits(ds, (0.6, 0.2, 0.2), seed=7)
        np.testing.assert_array_equal(a.train_mask, b.train_mask)
        np.testing.assert_array_equal(a.test_mask, b.test_mask)

    def test_distinct_seeds_distinct_masks(self):
        ds = random_dataset(n=60, seed=0)
        masks = {make_splits(ds, (0.6, 0.2, 0.2), seed=s).train_mask.tobytes() for s in range(10)}
        assert len(masks) == 10

    def test_bad_fractions_rejected(self):
        ds = random_dataset(n=10, seed=0)
        with pytest.raises(ValueError, match="sum to 1"):
            make_splits(ds, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError, match="positive"):
            make_splits(ds, (1.0, 0.0, 0.0), seed=0)
        for fractions in ((np.nan, 0.2, 0.2), (0.6, np.nan, 0.2), (np.inf, 0.2, 0.2), (0.6, 0.2, -np.inf)):
            with pytest.raises(ValueError, match="split fractions"):
                make_splits(ds, fractions, seed=0)

    def test_missing_group_errors_after_one_resample(self):
        ds = random_dataset(n=12, seed=0)
        lopsided = type(ds)(
            adjacency=ds.adjacency,
            features=ds.features,
            sensitive=np.zeros(12, dtype=np.int64),
            labels=ds.labels,
            train_mask=ds.train_mask,
            val_mask=ds.val_mask,
            test_mask=ds.test_mask,
        )
        with pytest.raises(ValueError, match="resample"):
            make_splits(lopsided, (0.6, 0.2, 0.2), seed=0)
