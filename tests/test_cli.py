import json
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest

from fairwipe import cli, data, experiment
from fairwipe.cli import main
from fairwipe.synthetic import homophilous_dataset

from conftest import EVERY_SETTING


@pytest.fixture
def toy_workspace(tmp_path):
    """A small on-disk dataset, manifest, and experiment config."""
    ds = homophilous_dataset(n=60, f=5, seed=2)
    pairs = ds.edge_pairs()
    (tmp_path / "edges.txt").write_text(
        "\n".join(f"{i} {j}" for i, j in pairs) + "\n"
    )
    header = ["sens", "label"] + [f"f{c}" for c in range(ds.n_features)]
    lines = [",".join(header)]
    for i in range(ds.n_nodes):
        cells = [str(ds.sensitive[i]), str(ds.labels[i])]
        cells += [f"{v:.8f}" for v in ds.features[i]]
        lines.append(",".join(cells))
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "name": "toy",
        "edges_path": "edges.txt",
        "features_path": "features.csv",
        "sensitive_column": "sens",
        "label_column": "label",
        "expected_stats": {"n_nodes": 60, "n_features": 5},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "exp.cfg").write_text(
        "manifest = manifest.json\n"
        "task = feature\n"
        "k = 2\n"
        "hops = 2\n"
        "lambda = 10.0\n"
        "seeds = 0, 1\n"
        "arms = pretrained, unlearn\n"
    )
    return tmp_path


class TestStats:
    def test_prints_counts(self, toy_workspace, capsys):
        code = main(["stats", "--manifest", str(toy_workspace / "manifest.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "nodes:        60" in out
        assert "alpha1:" in out and "intra edges:" in out

    def test_unknown_manifest_key_exits_3(self, toy_workspace, capsys):
        manifest = json.loads((toy_workspace / "manifest.json").read_text())
        manifest["drop_colums"] = ["f0"]
        (toy_workspace / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--manifest", str(toy_workspace / "manifest.json")])
        assert code == 3
        assert "unknown keys ['drop_colums']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("name", 3, "name must be a string, got 3"),
            ("edges_path", ["edges.txt"], "edges_path must be a string"),
            ("features_path", None, "features_path must be a string, got None"),
            ("sensitive_column", 0, "sensitive_column must be a string"),
            ("label_column", {"name": "label"}, "label_column must be a string"),
            ("drop_columns", "f0", "drop_columns must be a list of strings, got 'f0'"),
            ("drop_columns", ["f0", 1], "drop_columns must be a list of strings"),
            ("sensitive_values", "MF", "sensitive_values must be a list of two strings, got 'MF'"),
            ("sensitive_values", ["M", "F", "X"], "sensitive_values must be a list of two strings"),
            ("label_values", [-1, 1], "label_values must be a list of two strings"),
            ("expected_stats", [60], "expected_stats must be an object of integers"),
            ("expected_stats", {"n_nodes": 60.0}, "expected_stats must be an object of integers"),
            ("expected_stats", {"n_nodes": True}, "expected_stats must be an object of integers"),
            ("expected_stats", {"n_node": 60}, "unknown expected_stats keys ['n_node']"),
        ],
    )
    def test_manifest_value_of_the_wrong_type_exits_3(self, tmp_path, capsys, key, value, message):
        """The files it names do not exist, so only the value can be what is reported."""
        manifest = {
            "name": "absent",
            "edges_path": "no-edges.txt",
            "features_path": "no-features.csv",
            "sensitive_column": "sens",
            "label_column": "label",
        }
        (tmp_path / "manifest.json").write_text(json.dumps({**manifest, key: value}))
        assert main(["stats", "--manifest", str(tmp_path / "manifest.json")]) == 3
        err = capsys.readouterr().err
        assert message in err and "not found" not in err

    def test_validation_failure_exits_3(self, toy_workspace, capsys):
        manifest = json.loads((toy_workspace / "manifest.json").read_text())
        manifest["expected_stats"]["n_nodes"] = 61
        (toy_workspace / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--manifest", str(toy_workspace / "manifest.json")])
        assert code == 3
        assert "validation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code, output",
    [
        pytest.param(
            ["stats", "--manifest", "isolated.json"],
            0,
            "alpha2:       undefined (all nodes of group 1 are isolated; degree-ratio mean undefined)",
            id="stats on an isolated group",
        ),
        pytest.param(
            ["sweep", "--config", "exp.cfg", "--param", "hops", "--values", "two"],
            2,
            "config error: bad sweep value 'two' for hops",
            id="unreadable sweep value",
        ),
    ],
)
def test_edge_cases_are_reported(toy_workspace, capsys, monkeypatch, command, code, output):
    # Group 1 (nodes 3 and 4) has no edge, so its degree ratio has no mean.
    (toy_workspace / "isolated-edges.txt").write_text("0 1\n1 2\n")
    (toy_workspace / "isolated.csv").write_text("sens,label,f0\n0,0,0.1\n0,1,0.2\n0,0,0.3\n1,1,0.4\n1,0,0.5\n")
    manifest = {"name": "isolated", "edges_path": "isolated-edges.txt", "features_path": "isolated.csv"}
    manifest.update(sensitive_column="sens", label_column="label")
    (toy_workspace / "isolated.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(toy_workspace)
    assert main(command) == code
    captured = capsys.readouterr()
    assert output in captured.out + captured.err


class TestRun:
    def test_writes_csv(self, toy_workspace, capsys):
        out = toy_workspace / "results.csv"
        code = main(
            ["run", "--config", str(toy_workspace / "exp.cfg"), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("dataset,task,selector,arm")
        # 2 seeds x 2 arms + 2 aggregates x 2 arms
        assert len(lines) == 1 + 4 + 4

    def test_json_to_stdout(self, toy_workspace, capsys):
        code = main(["run", "--config", str(toy_workspace / "exp.cfg"), "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["arm"] for r in rows} == {"pretrained", "unlearn"}

    def test_config_error_exits_2(self, toy_workspace, capsys):
        bad = toy_workspace / "bad.cfg"
        bad.write_text("task = feature\nwat = 1\n")
        code = main(["run", "--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [
            "epsilon = 0",
            "epsilon = nan",
            "delta = 2",
            "epsilon_prime = -1",
            "epsilon_prime = nan",
            "task = edge\nepsilon_prime = inf",
            "lambda = 0",
            "lambda = nan",
            "lambda = inf",
            "tolerance = 0",
            "tolerance = nan",
            "tolerance = inf",
            "hops = -1",
            "train_frac = 1.2\nval_frac = -0.1\ntest_frac = -0.1",
            "train_frac = nan",
            "k = 0",
            "node_scope = test",
            "seeds = -1",
        ],
    )
    def test_bad_budget_exits_2_before_any_seed(self, toy_workspace, capsys, monkeypatch, setting):
        seeds = []
        monkeypatch.setattr(experiment, "_run_seed", lambda *args: seeds.append(args))
        config = toy_workspace / "exp.cfg"
        config.write_text(config.read_text() + setting + "\n")
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert seeds == []

    def test_data_error_exits_3(self, toy_workspace, capsys):
        manifest = json.loads((toy_workspace / "manifest.json").read_text())
        manifest["expected_stats"]["n_features"] = 99
        (toy_workspace / "manifest.json").write_text(json.dumps(manifest))
        code = main(["run", "--config", str(toy_workspace / "exp.cfg")])
        assert code == 3

    @pytest.mark.parametrize("line", ["1 x", "-1 2"])
    def test_bad_node_id_exits_3(self, toy_workspace, capsys, line):
        edges = toy_workspace / "edges.txt"
        edges.write_text(edges.read_text() + line + "\n")
        n_lines = len(edges.read_text().splitlines())
        code = main(["run", "--config", str(toy_workspace / "exp.cfg")])
        assert code == 3
        assert f"edges.txt:{n_lines}: node ids must be non-negative integers, got {line!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["directory", "not-utf-8"])
    @pytest.mark.parametrize(
        "command, target, code",
        [
            ("run", "exp.cfg", 2),
            ("run", "manifest.json", 3),
            ("run", "edges.txt", 3),
            ("run", "features.csv", 3),
            ("stats", "manifest.json", 3),
            ("stats", "edges.txt", 3),
            ("stats", "features.csv", 3),
        ],
    )
    def test_unreadable_input_exits_with_its_code(self, toy_workspace, capsys, command, target, code, damage):
        """An input that exists but cannot be read as text is a config error (exit 2) or a data error (exit 3)."""
        path = toy_workspace / target
        if damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(path.read_bytes() + b"\xe9\n")
        if command == "run":
            args = ["run", "--config", str(toy_workspace / "exp.cfg")]
        else:
            args = ["stats", "--manifest", str(toy_workspace / "manifest.json")]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data validation error: ")
        assert "cannot read" in err and str(path) in err

    def test_unwritable_output_exits_2(self, toy_workspace, capsys):
        out = toy_workspace / "no" / "such" / "dir" / "results.csv"
        code = main(["run", "--config", str(toy_workspace / "exp.cfg"), "--out", str(out)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_every_seed_failing_exits_2(self, toy_workspace, capsys):
        """Removing more features than the 5 the dataset has fails each seed:
        the run warns once per seed and exits 2, with nothing on stdout."""
        config = toy_workspace / "exp.cfg"
        config.write_text(config.read_text() + "k = 9\n")
        with pytest.warns(UserWarning, match="seed .* failed") as caught:
            code = main(["run", "--config", str(config)])
        assert code == 2 and len(caught) == 2
        out, err = capsys.readouterr()
        assert out == "" and "config error: every seed failed" in err


class TestSweep:
    def test_one_file_per_value(self, toy_workspace, capsys):
        out = toy_workspace / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(toy_workspace / "exp.cfg"),
                "--param",
                "hops",
                "--values",
                "1,2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (toy_workspace / "sweep.hops-1.csv").exists()
        assert (toy_workspace / "sweep.hops-2.csv").exists()
        stdout = capsys.readouterr().out
        assert "hops=1" in stdout and "hops=2" in stdout

    def test_lambda_sweeps_lam(self, toy_workspace, capsys):
        """The config key ``lambda`` sweeps the ``lam`` field, which names the files and the lines."""
        out = toy_workspace / "sweep.csv"
        args = ["sweep", "--config", str(toy_workspace / "exp.cfg"), "--param", "lambda", "--values", "1.0,5.0"]
        assert main([*args, "--out", str(out)]) == 0
        assert (toy_workspace / "sweep.lam-1.0.csv").exists()
        assert (toy_workspace / "sweep.lam-5.0.csv").exists()
        stdout = capsys.readouterr().out
        assert "lam=1.0" in stdout and "lam=5.0" in stdout

    def test_parses_the_dataset_once(self, toy_workspace, monkeypatch):
        """A three-value sweep loads its files once, and writes for each value
        the bytes a run of that value alone writes (its clock stopped at 0)."""
        monkeypatch.setattr(experiment, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        loads = mock.Mock(wraps=data.load_dataset)
        monkeypatch.setattr(cli, "load_dataset", loads)
        monkeypatch.setattr(experiment, "load_dataset", loads)
        config = toy_workspace / "exp.cfg"
        out = toy_workspace / "sweep.json"
        args = ["sweep", "--config", str(config), "--param", "hops", "--values", "1,2,3", "--out", str(out)]
        assert main([*args, "--format", "json"]) == 0
        assert loads.call_count == 1
        for hops in (1, 2, 3):
            alone = experiment.run_experiment(replace(experiment.parse_config(config), hops=hops))
            written = (toy_workspace / f"sweep.hops-{hops}.json").read_text()
            assert written == experiment.emit_results(alone, format="json")
        assert loads.call_count == 4

    def test_every_seed_failing_exits_2(self, toy_workspace, capsys):
        """A value whose every seed fails ends the sweep with exit 2 after the values before it."""
        args = ["sweep", "--config", str(toy_workspace / "exp.cfg"), "--param", "k", "--values", "2,9"]
        with pytest.warns(UserWarning, match="seed .* failed"):
            code = main(args)
        assert code == 2
        out, err = capsys.readouterr()
        assert "k=2 arm=pretrained" in out and "k=9" not in out
        assert "config error: every seed failed for k=9" in err

    def test_sweeps_every_sweepable_key(self, tmp_path, monkeypatch):
        """Every key but ``manifest`` and ``seeds`` sweeps its field, read by the field's declared type."""

        class Swept(Exception):
            pass

        def stop(variant, dataset, name):
            raise Swept(variant)

        monkeypatch.setattr(cli, "run_experiment", stop)
        config = tmp_path / "exp.cfg"
        config.write_text("".join(f"{key} = {raw}\n" for key, raw in EVERY_SETTING.items() if key != "manifest"))
        base = experiment.parse_config(config)
        for key, raw in EVERY_SETTING.items():
            if key in ("manifest", "seeds"):
                continue
            with pytest.raises(Swept) as swept:
                main(["sweep", "--config", str(config), "--param", key, "--values", raw])
            variant = swept.value.args[0]
            assert variant == base, key
            field = "lam" if key == "lambda" else key
            assert type(getattr(variant, field)) is type(getattr(base, field)), key

    def test_unsweepable_param_exits_2(self, toy_workspace):
        code = main(
            [
                "sweep",
                "--config",
                str(toy_workspace / "exp.cfg"),
                "--param",
                "seeds",
                "--values",
                "0,1",
            ]
        )
        assert code == 2


def test_console_entry_point(toy_workspace):
    result = subprocess.run(
        [sys.executable, "-m", "fairwipe.cli", "stats", "--manifest", str(toy_workspace / "manifest.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "nodes:        60" in result.stdout
