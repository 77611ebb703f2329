import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairwipe import experiment, graph
from fairwipe.experiment import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit_results,
    load_results,
    parse_config,
    run_experiment,
)
from fairwipe.graph import aggregate
from fairwipe.synthetic import homophilous_dataset
from fairwipe.unlearn import newton_unlearn, sequential_unlearn

from conftest import EVERY_SETTING, counting_full_passes


def make_config(**overrides):
    base = dict(
        manifest=None,
        task="feature",
        k=2,
        scheme="sgc",
        hops=2,
        lam=10.0,
        seeds=(0, 1),
        arms=("pretrained", "unlearn", "retrain"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def bench_dataset():
    return homophilous_dataset(n=100, f=6, seed=2)


def non_timing_fields(row):
    return {
        f.name: getattr(row, f.name)
        for f in dataclasses.fields(ResultRow)
        if f.name != "wall_time"
    }


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("task = graph\n", "task must be one of", id="task"),
        pytest.param("task = feature\nseeds =\n", "at least one seed is required", id="seeds"),
        pytest.param(
            "task = edge\nedge_fraction = 0\n",
            r"edge task needs edge_fraction in \(0,1\] and edge_batches >= 1",
            id="edge_fraction",
        ),
        pytest.param(
            "task = edge\nedge_batches = 0\n",
            r"edge task needs edge_fraction in \(0,1\] and edge_batches >= 1",
            id="edge_batches",
        ),
        pytest.param("task = edge\nk 4\n", r"exp.cfg:2: expected 'key = value', got 'k 4'", id="no equals sign"),
    ],
)
def test_bad_config_file_is_rejected(tmp_path, text, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg)


class TestParseConfig:
    def test_full_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            """
            # experiment settings
            task = feature
            k = 3
            selector = proposed
            scheme = gpr
            hops = 2
            lambda = 5.0
            epsilon = 1.0
            delta = 1e-4
            seeds = 0, 1, 2
            train_frac = 0.6
            val_frac = 0.2
            test_frac = 0.2
            arms = pretrained, unlearn
            """
        )
        config = parse_config(cfg)
        assert config.task == "feature"
        assert config.k == 3
        assert config.lam == 5.0
        assert config.seeds == (0, 1, 2)
        assert config.arms == ("pretrained", "unlearn")
        assert config.scheme == "gpr"

    def test_missing_task_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k = 3\n")
        with pytest.raises(ConfigError, match="'task' is required"):
            parse_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task = feature\nbudget = 3\n")
        with pytest.raises(ConfigError, match="unknown setting"):
            parse_config(cfg)

    def test_unparseable_value_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task = feature\nk = five\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_selector_task_compatibility(self):
        with pytest.raises(ConfigError, match="selector"):
            make_config(task="feature", selector="random-intra")
        with pytest.raises(ConfigError, match="selector"):
            make_config(task="edge", selector="bias-term-only")

    def test_fraction_validation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            make_config(train_frac=0.5)
        for field in ("train_frac", "val_frac", "test_frac"):
            with pytest.raises(ConfigError, match="split fractions"):
                make_config(**{field: float("nan")})

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError, match="arms"):
            make_config(arms=("pretrained", "deploy"))

    @pytest.mark.parametrize("field, value", [("k", 2.5), ("hops", 2.0), ("edge_batches", 2.5), ("max_iterations", 10.0)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            make_config(**{field: value})

    def test_negative_max_iterations_rejected(self):
        with pytest.raises(ConfigError, match="max_iterations must be >= 0"):
            make_config(max_iterations=-1)

    @pytest.mark.parametrize(
        "seeds, message",
        [((0.5, 1), "seeds must be integers"), (("1",), "seeds must be integers"), ((-1,), "seed must be >= 0")],
    )
    def test_seeds_must_be_non_negative_integers(self, seeds, message):
        with pytest.raises(ConfigError, match=message):
            make_config(seeds=seeds)

    def test_every_field_type_has_a_reader(self):
        fields = dataclasses.fields(ExperimentConfig)
        assert {f.name: f.type for f in fields if f.type not in experiment._READERS} == {}

    def test_a_file_sets_every_field(self, tmp_path):
        """Each key sets its field to a value of the field's declared type; ``lambda`` sets ``lam``."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{key} = {raw}\n" for key, raw in EVERY_SETTING.items()))
        config = parse_config(cfg)
        expected = ExperimentConfig(
            manifest=(tmp_path / "data" / "m.json").resolve(),
            task="edge",
            k=4,
            edge_fraction=0.2,
            edge_batches=3,
            selector="random-intra",
            scheme="gpr",
            hops=1,
            lam=2.5,
            epsilon=0.5,
            delta=1e-3,
            epsilon_prime=0.25,
            seeds=(3, 4),
            train_frac=0.5,
            val_frac=0.25,
            test_frac=0.25,
            arms=("unlearn", "retrain"),
            tolerance=1e-6,
            max_iterations=300,
            node_scope="all",
        )
        assert config == expected
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(config, f.name)
            assert type(value) is type(getattr(expected, f.name)), f.name
            assert f.default is dataclasses.MISSING or value != f.default, f.name
        keys = {"lambda" if f.name == "lam" else f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(EVERY_SETTING) == keys

    def test_readme_config_block_lists_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A config file is `key = value` lines (`#` comments):\n\n```\n", 1)[1].split("```", 1)[0]
        settings = [line.split("#", 1)[0] for line in block.splitlines()]
        keys = [line.split("=", 1)[0].strip() for line in settings if line.strip()]
        assert sorted(keys) == sorted(EVERY_SETTING)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        parse_config(cfg)


class TestRunExperiment:
    def test_pretrained_only(self, bench_dataset):
        config = make_config(arms=("pretrained",), seeds=(0, 1, 2))
        rows = run_experiment(config, dataset=bench_dataset, dataset_name="toy")
        per_seed = [r for r in rows if not r.aggregate]
        assert len(per_seed) == 3
        assert all(r.arm == "pretrained" for r in per_seed)
        assert all(r.residual_norm is None for r in per_seed)
        aggregates = [r for r in rows if r.aggregate]
        assert {r.aggregate for r in aggregates} == {"mean", "std"}

    def test_selector_does_not_change_pretrained_rows(self, bench_dataset):
        proposed = run_experiment(
            make_config(selector="proposed", seeds=(0, 1)), dataset=bench_dataset
        )
        random = run_experiment(
            make_config(selector="random", seeds=(0, 1)), dataset=bench_dataset
        )
        for a, b in zip(
            [r for r in proposed if r.arm == "pretrained" and not r.aggregate],
            [r for r in random if r.arm == "pretrained" and not r.aggregate],
        ):
            fields_a, fields_b = non_timing_fields(a), non_timing_fields(b)
            fields_a.pop("selector"), fields_b.pop("selector")
            assert fields_a == fields_b

    def test_feature_task_full_arms(self, bench_dataset):
        rows = run_experiment(make_config(seeds=(0,)), dataset=bench_dataset)
        by_arm = {r.arm: r for r in rows if not r.aggregate}
        assert set(by_arm) == {"pretrained", "unlearn", "retrain"}
        unlearn = by_arm["unlearn"]
        assert unlearn.certified == (unlearn.residual_norm <= unlearn.worstcase_bound)
        assert 0.0 <= unlearn.accuracy <= 1.0
        assert by_arm["retrain"].residual_norm <= 1e-8

    def test_unlearn_tracks_retrain_metrics(self, bench_dataset):
        rows = run_experiment(make_config(seeds=(0, 1, 2)), dataset=bench_dataset)
        unlearn = {r.seed: r for r in rows if r.arm == "unlearn" and not r.aggregate}
        retrain = {r.seed: r for r in rows if r.arm == "retrain" and not r.aggregate}
        for seed in unlearn:
            assert unlearn[seed].accuracy == pytest.approx(retrain[seed].accuracy, abs=0.05)
            assert unlearn[seed].delta_sp == pytest.approx(retrain[seed].delta_sp, abs=0.05)

    def test_edge_task(self, bench_dataset):
        config = make_config(task="edge", edge_fraction=0.05, edge_batches=2, seeds=(0,))
        rows = run_experiment(config, dataset=bench_dataset)
        unlearn = next(r for r in rows if r.arm == "unlearn")
        assert unlearn.k == int(round(0.05 * bench_dataset.n_edges))
        assert unlearn.residual_norm > 0

    @pytest.mark.parametrize("fraction, batches, removed", [(0.01, 10, 7), (0.1, 100, 66), (0.1, 1000, 66)])
    def test_edge_batches_share_the_edge_budget(self, fraction, batches, removed):
        """``edge_fraction`` of the 665 edges in all, in at most ``edge_batches``
        non-empty batches whose sizes differ by at most one."""
        ds = homophilous_dataset(n=100, f=5, seed=2)
        config = make_config(task="edge", edge_fraction=fraction, edge_batches=batches, seeds=(0,))
        rows = run_experiment(config, dataset=ds)
        assert [(r.arm, r.k) for r in rows if not r.aggregate] == [
            ("pretrained", 2),
            ("unlearn", removed),
            ("retrain", removed),
        ]
        sizes, current = [], ds
        for request in experiment._select_removal(config, ds, 0):
            request = request(current)
            sizes.append(len(request.edges))
            current = request.apply(current)
        assert sum(sizes) == removed and len(sizes) <= batches
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_removal_that_isolates_a_group_keeps_its_seed(self):
        """Removing every edge leaves both groups isolated: the alphas are
        undefined, so the edited arms leave them empty and the seed stays."""
        ds = homophilous_dataset(n=100, f=5, seed=2)
        config = ExperimentConfig(manifest=None, task="edge", edge_fraction=1.0, edge_batches=7)
        rows = run_experiment(config, dataset=ds)
        assert len(rows) == 9
        per_seed = {r.arm: r for r in rows if not r.aggregate}
        assert per_seed["pretrained"].alpha1 is not None and per_seed["pretrained"].alpha2 is not None
        for arm in ("unlearn", "retrain"):
            assert per_seed[arm].k == 665
            assert per_seed[arm].alpha1 is None and per_seed[arm].alpha2 is None
        header, *lines = emit_results(rows).splitlines()
        columns = header.split(",")
        for line in lines:
            cells = dict(zip(columns, line.split(",")))
            assert (cells["alpha1"] == "") == (cells["arm"] != "pretrained")

    def test_node_task(self, bench_dataset):
        config = make_config(task="node", k=3, seeds=(0,))
        rows = run_experiment(config, dataset=bench_dataset)
        arms = {r.arm for r in rows if not r.aggregate}
        assert arms == {"pretrained", "unlearn", "retrain"}

    def test_gpr_scheme(self, bench_dataset):
        rows = run_experiment(make_config(scheme="gpr", seeds=(0,)), dataset=bench_dataset)
        unlearn = next(r for r in rows if r.arm == "unlearn")
        assert unlearn.certified == (unlearn.residual_norm <= unlearn.worstcase_bound)
        assert unlearn.residual_norm > 0

    def test_determinism_except_wall_time(self, bench_dataset):
        config = make_config(seeds=(0, 1))
        first = run_experiment(config, dataset=bench_dataset)
        second = run_experiment(config, dataset=bench_dataset)
        assert [non_timing_fields(r) for r in first] == [non_timing_fields(r) for r in second]

    def test_failing_seed_is_skipped_with_warning(self):
        ds = homophilous_dataset(n=40, f=5, seed=1)
        config = make_config(task="node", k=10**6 // 40, seeds=(0,), arms=("pretrained", "unlearn"))
        config = dataclasses.replace(config, k=10_000)
        with pytest.warns(UserWarning, match="skipped"):
            rows = run_experiment(config, dataset=ds)
        assert [r for r in rows if r.arm == "unlearn"] == []

    def test_missing_manifest_rejected(self):
        with pytest.raises(ConfigError, match="manifest"):
            run_experiment(make_config())


def long_hand_unlearn(model, dataset, requests, budget, scheme, hops):
    """Each request applied, its graph aggregated in full and one Newton step
    taken, with no hop blocks carried between requests."""
    agg = aggregate(dataset, hops, scheme)
    results, current = [], dataset
    for request in requests:
        if callable(request):
            request = request(current)
        edited = request.apply(current)
        agg_new = aggregate(edited, hops, scheme)
        result = newton_unlearn(
            model, agg, agg_new, edited.labels, current.train_mask, edited.train_mask
        )
        results.append(result)
        budget = budget.record(result.residual_norm)
        model = dataclasses.replace(model, weights=result.updated_weights)
        current, agg = edited, agg_new
    # The returned graph carries no hop blocks: the runner aggregates it in full.
    return results, budget, current


def patch_everywhere(monkeypatch, module, name, make_wrapper):
    """Replace ``module.name`` under every fairwipe name that binds it."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fairwipe" or mod_name.startswith("fairwipe."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


TASK_CONFIGS = {
    "feature": dict(task="feature", k=2),
    "feature-random": dict(task="feature", k=2, selector="random"),
    "node": dict(task="node", k=4),
    "node-all": dict(task="node", k=4, node_scope="all"),
    "edge": dict(task="edge", edge_fraction=0.1, edge_batches=3),
    "edge-fixed-budget": dict(task="edge", edge_fraction=0.1, edge_batches=3, epsilon_prime=1e-3),
}


class TestOneRemovalPath:
    @pytest.mark.parametrize("scheme", ["sgc", "gpr"])
    @pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
    def test_matches_long_hand_loop(self, bench_dataset, monkeypatch, task, scheme):
        config = make_config(scheme=scheme, seeds=(0, 1), **TASK_CONFIGS[task])
        rows = run_experiment(config, dataset=bench_dataset)
        monkeypatch.setattr(experiment, "sequential_unlearn", long_hand_unlearn)
        expected = run_experiment(config, dataset=bench_dataset)
        assert [non_timing_fields(r) for r in rows] == [non_timing_fields(r) for r in expected]
        assert any(r.arm == "unlearn" and r.residual_norm > 0 for r in rows)

    def test_unlearn_arm_is_evaluated_at_the_last_weights(self, bench_dataset, monkeypatch):
        last, evaluated = [], []
        evaluate = experiment._evaluate

        def recording_unlearn(*args, **kwargs):
            results, budget, edited = sequential_unlearn(*args, **kwargs)
            last.append(results[-1].updated_weights)
            return results, budget, edited

        def recording_evaluate(dataset, agg, model):
            evaluated.append(model.weights)
            return evaluate(dataset, agg, model)

        monkeypatch.setattr(experiment, "sequential_unlearn", recording_unlearn)
        monkeypatch.setattr(experiment, "_evaluate", recording_evaluate)
        run_experiment(make_config(seeds=(0,), **TASK_CONFIGS["edge"]), dataset=bench_dataset)
        # One call, the arm's; evaluated are the pretrained, unlearn and retrain arms.
        assert len(last) == 1 and len(evaluated) == 3
        np.testing.assert_array_equal(evaluated[1], last[0])

    @pytest.mark.parametrize(
        "task, full_aggregations",
        [("feature", 2), ("edge", 3), ("edge-fixed-budget", 3), ("node", 3)],
    )
    def test_full_aggregations_per_seed(self, bench_dataset, monkeypatch, task, full_aggregations):
        """The split graph and the retrain oracle aggregate from scratch; the
        first request of an edge or node seed aggregates its edit once more,
        keeping the hop blocks, while a feature seed takes the zeroed copy of
        the split graph's aggregation."""
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        patch_everywhere(monkeypatch, graph, "_aggregate", counting)
        config = make_config(seeds=(0, 1), **TASK_CONFIGS[task])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_experiment(config, dataset=bench_dataset)
        assert {r.arm for r in rows if not r.aggregate} == {"pretrained", "unlearn", "retrain"}
        assert len(calls) == 2 * full_aggregations

    @pytest.mark.parametrize("scheme", ["sgc", "gpr"])
    def test_feature_seed_makes_no_full_pass_in_the_removal(self, bench_dataset, monkeypatch, scheme):
        """The feature removal runs no aggregation and no full hop: the edited
        graph carries the zeroed copy of the split graph's aggregation."""
        passes = []

        def counted(*args, **kwargs):
            with counting_full_passes() as full:
                out = sequential_unlearn(*args, **kwargs)
            passes.append(len(full))
            return out

        monkeypatch.setattr(experiment, "sequential_unlearn", counted)
        run_experiment(make_config(scheme=scheme, seeds=(0, 1), **TASK_CONFIGS["feature"]), dataset=bench_dataset)
        assert passes == [0, 0]

    @pytest.mark.parametrize("task", ["edge", "edge-fixed-budget", "feature", "node"])
    @pytest.mark.parametrize("selector", ["proposed", "random"])
    def test_degree_stats_counted_once_per_graph(self, bench_dataset, monkeypatch, task, selector):
        """Every arm's `alpha_diagnostics` and every node selection reads the
        graph's memo. A feature edit keeps the split graph's; the edge
        selectors read no degree statistics, so of the edge and node runs'
        graphs only the split one and the final edited one count theirs."""
        counted = []
        original = graph._count_degrees

        def spy(dataset):
            counted.append(dataset)
            return original(dataset)

        monkeypatch.setattr(graph, "_count_degrees", spy)
        run_experiment(make_config(seeds=(0,), selector=selector, **TASK_CONFIGS[task]), dataset=bench_dataset)
        assert len({id(g) for g in counted}) == len(counted)
        assert len(counted) == (1 if task == "feature" else 2)


class TestRemovalBudget:
    @pytest.mark.parametrize("task", ["edge", "node"])
    def test_no_budget_no_certificate(self, bench_dataset, monkeypatch, tmp_path, task):
        models = []
        fit = experiment.train

        def recording_train(*args, **kwargs):
            models.append(fit(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(experiment, "train", recording_train)
        rows = run_experiment(make_config(seeds=(0,), **TASK_CONFIGS[task]), dataset=bench_dataset)
        unlearn = next(r for r in rows if r.arm == "unlearn")
        assert unlearn.certified is None and unlearn.worstcase_bound is None
        assert unlearn.residual_norm > 0
        assert len(models) == 1 and not models[0].perturbation.any()

        header, line = emit_results([unlearn], "csv").splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["certified"] == cells["worstcase_bound"] == ""
        emit_results(rows, "json", tmp_path / "out.json")
        loaded = next(r for r in load_results(tmp_path / "out.json") if r.arm == "unlearn")
        assert loaded.certified is None and loaded.worstcase_bound is None

    @pytest.mark.parametrize("task", ["edge", "node"])
    def test_verdict_compares_residual_with_budget(self, bench_dataset, task):
        config = make_config(seeds=(0, 1), epsilon_prime=1e-3, **TASK_CONFIGS[task])
        unlearn = [r for r in run_experiment(config, dataset=bench_dataset) if r.arm == "unlearn" and not r.aggregate]
        assert len(unlearn) == 2
        for r in unlearn:
            assert r.worstcase_bound == 1e-3
            assert r.certified == (r.residual_norm <= r.worstcase_bound)

    @pytest.mark.parametrize("task", ["feature", "edge", "node"])
    def test_verdict_stable_under_one_ulp(self, bench_dataset, task):
        budget = {} if task == "feature" else {"epsilon_prime": 1e-3}
        config = make_config(seeds=(0, 1, 2), **budget, **TASK_CONFIGS[task])
        shifted = dataclasses.replace(bench_dataset, features=np.nextafter(bench_dataset.features, np.inf))
        verdicts = [
            [r.certified for r in run_experiment(config, dataset=ds) if r.arm == "unlearn" and not r.aggregate]
            for ds in (bench_dataset, shifted)
        ]
        assert len(verdicts[0]) == 3 and None not in verdicts[0]
        assert verdicts[0] == verdicts[1]


class TestEmitResults:
    def rows(self):
        template = dict(
            dataset="toy",
            task="feature",
            selector="proposed",
            arm="unlearn",
            k=2,
            raw_sp=0.1,
            rho_norm=0.5,
            alpha1=0.2,
            alpha2=0.3,
            residual_norm=1.25e-6,
            worstcase_bound=3.5e-3,
            certified=True,
            wall_time=0.5,
            delta_eo=0.125,
        )
        return [
            ResultRow(seed=0, accuracy=1.0, delta_sp=0.25, **template),
            ResultRow(seed=1, accuracy=3.0, delta_sp=0.75, **template),
        ]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        text = emit_results(self.rows(), "csv", path)
        lines = text.strip().splitlines()
        assert lines[0].startswith("dataset,task,selector,arm,seed,k,accuracy,delta_sp")
        assert lines[0].endswith("certified,wall_time,aggregate")
        assert len(lines) == 3
        assert "1.2500e-06" in lines[1]
        assert "0.2500" in lines[1]
        assert ",true," in lines[1]
        assert path.read_text() == text

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        emit_results(self.rows(), "json", path)
        loaded = load_results(path)
        assert loaded[0].accuracy == 1.0
        assert loaded[0].residual_norm == pytest.approx(1.25e-6)
        assert loaded[0].certified is True
        assert loaded[1].delta_sp == 0.75

    def test_mean_and_sample_std(self):
        rows = self.rows()
        config_rows = rows + []
        from fairwipe.experiment import _aggregate_rows

        aggregates = _aggregate_rows(config_rows)
        mean = next(r for r in aggregates if r.aggregate == "mean")
        std = next(r for r in aggregates if r.aggregate == "std")
        assert mean.accuracy == pytest.approx(2.0)
        assert std.accuracy == pytest.approx(1.0)
        assert mean.seed == -1

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no result rows"):
            emit_results([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_results(self.rows(), "parquet")
