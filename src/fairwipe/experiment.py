"""Experiment orchestration: config parsing, per-seed runs, arm evaluation, result emission.

One experiment compares up to three arms per seed: the pre-trained model, the
Newton-unlearned model after a fairness-aware (or ablation) removal, and a
retrain-from-scratch oracle on the same edited data with the same perturbation
vector. Rows carry utility, group-fairness metrics, residual accounting, and
wall times; aggregates report mean and standard deviation over seeds.
"""

from __future__ import annotations

import csv
import json
import operator
import time
import warnings
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import data, fairness, graph
from .data import DatasetManifest, load_dataset, make_splits
from .fairness import select_edges, select_features, select_nodes
from .graph import GraphDataset, aggregate
from .model import TrainConfig, TrainedModel, predict, train
from .unlearn import (
    CertificationBudget,
    EdgeRemoval,
    FeatureRemoval,
    NodeRemoval,
    calibrate_noise,
    retrain_oracle,
    sequential_unlearn,
    worstcase_bound_feature,
)

ARMS = ("pretrained", "unlearn", "retrain")
_SELECTORS = {"feature": ("proposed", "random"), "edge": fairness.EDGE_KINDS, "node": fairness.NODE_KINDS}


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


# Readers of config values by the declared type of the :class:`ExperimentConfig` field they set: a
# tuple field reads each comma- or space-separated word. A field read by `int` holds only integers.
_READERS = {
    "Path | None": Path,
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,
    "tuple[int, ...]": int,
    "tuple[str, ...]": str,
}


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: Path | None
    task: str
    k: int = 5
    edge_fraction: float = 0.10
    edge_batches: int = 10
    selector: str = "proposed"
    scheme: str = graph.SGC
    hops: int = 3
    lam: float = TrainConfig.lam
    epsilon: float = 1.0
    delta: float = 1e-4
    epsilon_prime: float | None = None
    seeds: tuple[int, ...] = (0,)
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    arms: tuple[str, ...] = ARMS
    tolerance: float = TrainConfig.tolerance
    max_iterations: int = TrainConfig.max_iterations
    node_scope: str = "train"

    def __post_init__(self):
        if self.task not in _SELECTORS:
            raise ConfigError(f"task must be one of {tuple(_SELECTORS)}, got {self.task!r}")
        if self.selector not in _SELECTORS[self.task]:
            raise ConfigError(
                f"selector {self.selector!r} is not valid for task {self.task!r}; "
                f"expected one of {_SELECTORS[self.task]}"
            )
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for f in fields(self):
            if _READERS[f.type] is int:
                value, many = getattr(self, f.name), f.type.startswith("tuple[")
                try:
                    for v in value if many else (value,):
                        operator.index(v)
                except TypeError:
                    raise ConfigError(f"{f.name} must be {'integers' if many else 'an integer'}, got {value!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.node_scope not in fairness.NODE_SCOPES:
            raise ConfigError(f"node_scope must be one of {fairness.NODE_SCOPES}, got {self.node_scope!r}")
        if not self.arms or not set(self.arms) <= set(ARMS):
            raise ConfigError(f"arms must be a non-empty subset of {ARMS}, got {self.arms!r}")
        if self.task == "edge" and not (0 < self.edge_fraction <= 1 and self.edge_batches >= 1):
            raise ConfigError("edge task needs edge_fraction in (0,1] and edge_batches >= 1")
        try:
            graph._check_settings(self.hops, self.scheme)
            data._checked_fractions(self.fractions)
            CertificationBudget(self.epsilon, self.delta, epsilon_prime=self.epsilon_prime)
            for seed in self.seeds:
                TrainConfig(self.lam, self.tolerance, self.max_iterations, seed)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.epsilon_prime == np.inf:  # a legal budget, but the noise calibrated to it is infinite
            raise ConfigError("epsilon_prime must be finite")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


# The field each config key sets: the key is the field's name, but `lambda` sets `lam`.
_CONFIG_KEYS = {"lambda" if f.name == "lam" else f.name: f for f in fields(ExperimentConfig)}


def _read_setting(key: str, raw: str):
    """``raw`` read as a value of the field config key ``key`` sets, by the reader of its declared type."""
    field = _CONFIG_KEYS[key]
    read = _READERS[field.type]
    if field.type.startswith("tuple["):
        return tuple(read(word) for word in raw.replace(",", " ").split())
    return read(raw)


def parse_config(path) -> ExperimentConfig:
    """Read a `key = value` config file (one setting per line, '#' comments)."""
    path = Path(path)
    values: dict = {}
    for lineno, line in enumerate(data._read_text(path, "config file", ConfigError).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[_CONFIG_KEYS[key].name] = _read_setting(key, raw)
        except (ValueError, TypeError):
            raise ConfigError(f"{path}:{lineno}: cannot parse value for {key!r}: {raw!r}")
    if "task" not in values:
        raise ConfigError(f"{path}: 'task' is required")
    if "manifest" in values:
        values["manifest"] = (path.parent / values["manifest"]).resolve()
    return ExperimentConfig(manifest=values.pop("manifest", None), **values)


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    task: str
    selector: str
    arm: str
    seed: int
    k: int
    accuracy: float
    delta_sp: float
    delta_eo: float
    raw_sp: float
    rho_norm: float
    alpha1: float | None
    alpha2: float | None
    residual_norm: float | None
    worstcase_bound: float | None
    certified: bool | None
    wall_time: float
    aggregate: str = ""


_FIXED_FIELDS = ("accuracy", "delta_sp", "delta_eo", "raw_sp", "rho_norm", "alpha1", "alpha2", "wall_time")
_SCI_FIELDS = ("residual_norm", "worstcase_bound")


def _evaluate(dataset: GraphDataset, agg, model: TrainedModel) -> dict:
    """The metric fields of a :class:`ResultRow` for ``model`` on ``dataset``'s test nodes."""
    preds, scores = predict(model, agg)
    test = dataset.test_mask
    delta_sp, delta_eo = fairness.fairness_metrics(preds, dataset.labels, dataset.sensitive, test)
    try:
        alpha1, alpha2 = fairness.alpha_diagnostics(dataset)
    except ValueError:  # a fully isolated group leaves the alphas undefined
        alpha1 = alpha2 = None
    return dict(
        accuracy=float((preds[test] == dataset.labels[test]).mean()),
        delta_sp=delta_sp,
        delta_eo=delta_eo,
        raw_sp=fairness._score_gap(scores, dataset.sensitive),
        rho_norm=float(np.linalg.norm(fairness.pearson_correlations(agg.values, dataset.sensitive))),
        alpha1=alpha1,
        alpha2=alpha2,
    )


def _select_removal(config: ExperimentConfig, dataset: GraphDataset, seed: int) -> list:
    """Model-independent selection of what to remove for one seed, as the
    request list of one :func:`sequential_unlearn` call."""
    if config.task == "feature":
        if config.selector == "random":
            rng = np.random.default_rng(seed)
            chosen = rng.choice(dataset.n_features, size=config.k, replace=False)
        else:
            chosen = select_features(dataset.features, dataset.sensitive, config.k).chosen
        return [FeatureRemoval(chosen)]
    if config.task == "node":
        chosen = select_nodes(
            dataset, config.k, scope=config.node_scope, kind=config.selector, seed=seed
        ).chosen
        return [NodeRemoval(chosen)]

    def next_batch(current: GraphDataset, k: int) -> EdgeRemoval:
        return EdgeRemoval(select_edges(current, k, kind=config.selector, seed=seed).chosen)

    total = max(1, int(round(config.edge_fraction * dataset.n_edges)))
    batches = min(config.edge_batches, total)
    # `total` edges in `batches` non-empty batches whose sizes differ by at most one.
    return [partial(next_batch, k=total // batches + (b < total % batches)) for b in range(batches)]


def _run_seed(config: ExperimentConfig, base: GraphDataset, name: str, seed: int) -> list[ResultRow]:
    dataset = make_splits(base, config.fractions, seed)
    agg = aggregate(dataset, config.hops, config.scheme)
    train_cfg = TrainConfig(config.lam, config.tolerance, config.max_iterations, seed=seed)
    select_start = time.perf_counter()
    requests = _select_removal(config, dataset, seed)
    select_wall = time.perf_counter() - select_start

    if config.task == "feature":
        m = int(dataset.train_mask.sum())
        epsilon_prime = worstcase_bound_feature(dataset.n_features, config.k, m, lam=config.lam)
    else:
        epsilon_prime = config.epsilon_prime
    budget = CertificationBudget(config.epsilon, config.delta, epsilon_prime=epsilon_prime)
    # Without a budget there is nothing to calibrate to: train noise-free.
    noise_std = 0.0 if epsilon_prime is None else calibrate_noise(budget)

    train_start = time.perf_counter()
    model = train(dataset, agg, train_cfg, noise_std=noise_std)
    train_wall = time.perf_counter() - train_start

    def row(arm, metrics, residual=None, bound=None, certified=None, wall=0.0, k=config.k):
        return ResultRow(
            dataset=name,
            task=config.task,
            selector=config.selector,
            arm=arm,
            seed=seed,
            k=k,
            **metrics,
            residual_norm=residual,
            worstcase_bound=bound,
            certified=certified,
            wall_time=wall,
        )

    rows = []
    if "pretrained" in config.arms:
        rows.append(row("pretrained", _evaluate(dataset, agg, model), wall=train_wall))
    if not ({"unlearn", "retrain"} & set(config.arms)):
        return rows

    unlearn_start = time.perf_counter()
    results, budget, edited = sequential_unlearn(
        model, dataset, requests, budget, scheme=config.scheme, hops=config.hops
    )
    unlearn_wall = time.perf_counter() - unlearn_start
    agg_edited = aggregate(edited, config.hops, config.scheme)
    removed = config.k if config.task != "edge" else dataset.n_edges - edited.n_edges

    if "unlearn" in config.arms:
        metrics = _evaluate(edited, agg_edited, replace(model, weights=results[-1].updated_weights))
        rows.append(
            row(
                "unlearn",
                metrics,
                residual=budget.accumulated_residual,
                bound=epsilon_prime,
                certified=budget.certified,
                wall=select_wall + unlearn_wall,
                k=removed,
            )
        )
    if "retrain" in config.arms:
        retrain_start = time.perf_counter()
        oracle = retrain_oracle(edited, train_cfg, model.perturbation, config.scheme, config.hops)
        retrain_wall = time.perf_counter() - retrain_start
        metrics = _evaluate(edited, agg_edited, oracle)
        rows.append(row("retrain", metrics, residual=oracle.optimizer_residual, wall=retrain_wall, k=removed))
    return rows


def run_experiment(
    config: ExperimentConfig,
    dataset: GraphDataset | None = None,
    dataset_name: str | None = None,
) -> list[ResultRow]:
    """Run all seeds and arms; returns per-seed rows plus mean/std aggregates.

    A failing seed is reported as a warning and skipped. Rows are seed-major,
    then arm.
    """
    if dataset is None:
        if config.manifest is None:
            raise ConfigError("config names no manifest and no dataset was provided")
        manifest = DatasetManifest.from_json(config.manifest)
        dataset = load_dataset(manifest)
        dataset_name = dataset_name or manifest.name
    dataset_name = dataset_name or "dataset"

    rows: list[ResultRow] = []
    for seed in config.seeds:
        try:
            rows.extend(_run_seed(config, dataset, dataset_name, seed))
        except Exception as exc:
            warnings.warn(f"seed {seed} failed and was skipped: {exc}")
    rows.extend(_aggregate_rows(rows))
    return rows


def _aggregate_rows(rows: list[ResultRow]) -> list[ResultRow]:
    aggregates = []
    for arm in ARMS:
        arm_rows = [r for r in rows if r.arm == arm and not r.aggregate]
        if not arm_rows:
            continue
        for stat in ("mean", "std"):
            # Population std over the reported seed list (std of {1, 3} is 1.0).
            def reduce(field):
                values = [getattr(r, field) for r in arm_rows]
                if any(v is None for v in values):
                    return None
                if stat == "mean":
                    return float(np.mean(values))
                return float(np.std(values))

            template = arm_rows[0]
            aggregates.append(
                replace(
                    template,
                    seed=-1,
                    aggregate=stat,
                    certified=None,
                    **{f: reduce(f) for f in (*_FIXED_FIELDS, *_SCI_FIELDS)},
                )
            )
    return aggregates


def _format_value(field: str, value):
    if value is None:
        return ""
    if field in _FIXED_FIELDS:
        return f"{value:.4f}"
    if field in _SCI_FIELDS:
        return f"{value:.4e}"
    if field == "certified":
        return "true" if value else "false"
    return str(value)


def emit_results(rows: list[ResultRow], format: str = "csv", path=None) -> str:
    """Write rows in a stable column order with 4-decimal floats.

    Bounded metrics use fixed-point notation; residuals and bounds use
    scientific notation so sub-1e-4 values survive. Returns the rendered text;
    writes it to ``path`` when given.
    """
    if not rows:
        raise ValueError("no result rows to emit")
    names = [f.name for f in fields(ResultRow)]
    if format == "csv":
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        for r in rows:
            writer.writerow([_format_value(n, getattr(r, n)) for n in names])
        text = buffer.getvalue()
    elif format == "json":
        payload = []
        for r in rows:
            entry = {}
            for n in names:
                v = getattr(r, n)
                if v is not None and n in (*_FIXED_FIELDS, *_SCI_FIELDS):
                    v = float(_format_value(n, v))
                entry[n] = v
            payload.append(entry)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {format!r}")
    if path is not None:
        Path(path).write_text(text)
    return text


def load_results(path) -> list[ResultRow]:
    """Read rows back from a JSON results file (inverse of emit_results)."""
    payload = json.loads(Path(path).read_text())
    return [ResultRow(**entry) for entry in payload]
