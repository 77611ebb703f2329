import dataclasses
import sys
import warnings

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
from fairwipe.graph import aggregate, build_propagation
from fairwipe.synthetic import homophilous_dataset
from fairwipe.unlearn import newton_unlearn, sequential_unlearn


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

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError, match="arms"):
            make_config(arms=("pretrained", "deploy"))


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
        assert unlearn.k == int(round(0.05 / 2 * bench_dataset.n_edges)) * 2
        assert unlearn.residual_norm > 0

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
    agg = aggregate(dataset, build_propagation(dataset, hops), scheme)
    results, current = [], dataset
    for request in requests:
        if callable(request):
            request = request(current)
        edited = request.apply(current)
        agg_new = aggregate(edited, build_propagation(edited, hops), scheme)
        result = newton_unlearn(
            model, agg, agg_new, edited.labels, current.train_mask, edited.train_mask
        )
        results.append(result)
        budget = budget.record(result.residual_norm)
        model = dataclasses.replace(model, weights=result.updated_weights)
        current, agg = edited, agg_new
    # The runner reads the edited aggregation off the returned graph.
    current._carry_hops(hops, scheme, (agg, []))
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
        [("feature", 2), ("edge", 2), ("edge-fixed-budget", 2), ("node", 2)],
    )
    def test_full_aggregations_per_seed(self, bench_dataset, monkeypatch, task, full_aggregations):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        patch_everywhere(monkeypatch, graph, "aggregate", counting)
        patch_everywhere(monkeypatch, graph, "aggregate_hops", counting)
        config = make_config(seeds=(0, 1), **TASK_CONFIGS[task])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_experiment(config, dataset=bench_dataset)
        assert {r.arm for r in rows if not r.aggregate} == {"pretrained", "unlearn", "retrain"}
        assert len(calls) == 2 * full_aggregations

    @pytest.mark.parametrize("task", ["edge", "edge-fixed-budget", "feature"])
    @pytest.mark.parametrize("selector", ["proposed", "random"])
    def test_degree_stats_counted_once_per_graph(self, bench_dataset, monkeypatch, task, selector):
        """Every arm's `alpha_diagnostics` and every batch's selection reads the
        graph's memo; the edited graphs get theirs from the edit, and a
        feature edit keeps the split graph's."""
        counted = []
        original = graph._count_degrees

        def spy(dataset):
            counted.append(dataset)
            return original(dataset)

        monkeypatch.setattr(graph, "_count_degrees", spy)
        run_experiment(make_config(seeds=(0,), selector=selector, **TASK_CONFIGS[task]), dataset=bench_dataset)
        assert len({id(g) for g in counted}) == len(counted)
        assert len(counted) == 1


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
