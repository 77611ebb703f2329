import json
import subprocess
import sys

import pytest

from fairwipe import experiment
from fairwipe.cli import main
from fairwipe.synthetic import homophilous_dataset


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

    def test_validation_failure_exits_3(self, toy_workspace, capsys):
        manifest = json.loads((toy_workspace / "manifest.json").read_text())
        manifest["expected_stats"]["n_nodes"] = 61
        (toy_workspace / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--manifest", str(toy_workspace / "manifest.json")])
        assert code == 3
        assert "validation" in capsys.readouterr().err


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
        "setting", ["epsilon = 0", "epsilon = nan", "delta = 2", "epsilon_prime = -1", "epsilon_prime = nan"]
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

    def test_unwritable_output_exits_2(self, toy_workspace, capsys):
        out = toy_workspace / "no" / "such" / "dir" / "results.csv"
        code = main(["run", "--config", str(toy_workspace / "exp.cfg"), "--out", str(out)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


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
