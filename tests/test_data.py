import json
import warnings

import numpy as np
import pytest

from fairwipe import graph
from fairwipe.data import DatasetManifest, DataValidationError, load_dataset, make_splits

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
    "bad-manifest": ({}, lambda e, f, m: m.write_text("{"), r"manifest\.json is not valid JSON"),
    "no-edge-file": ({}, lambda e, f, m: e.unlink(), r"edge file not found: .*edges\.txt"),
    "no-feature-file": ({}, lambda e, f, m: f.unlink(), r"feature file not found: .*features\.csv"),
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

    def test_missing_key_fails_validation(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DataValidationError, match="missing required key"):
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
        manifest = DatasetManifest.from_json(
            write_manifest(tmp_path, edge_path, feat_path, expected_stats={"edges": 3})
        )
        with pytest.raises(DataValidationError, match="unknown expected_stats"):
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
