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
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fairness, graph
from .data import DatasetManifest, load_dataset, make_splits
from .fairness import FairnessReport, select_edges, select_features, select_nodes
from .graph import GraphDataset, aggregate_hops, build_propagation
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
TASKS = ("feature", "edge", "node")
_SELECTORS = {
    "feature": ("proposed", "random"),
    "edge": ("proposed", "random", "random-intra", "random-inter"),
    "node": ("proposed", "random", "bias-term-only", "degree-only"),
}


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


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
    lam: float = 10.0
    epsilon: float = 1.0
    delta: float = 1e-4
    epsilon_prime: float | None = None
    seeds: tuple[int, ...] = (0,)
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    arms: tuple[str, ...] = ARMS
    tolerance: float = 1e-8
    max_iterations: int = 500
    node_scope: str = "train"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.selector not in _SELECTORS[self.task]:
            raise ConfigError(
                f"selector {self.selector!r} is not valid for task {self.task!r}; "
                f"expected one of {_SELECTORS[self.task]}"
            )
        if self.scheme not in (graph.SGC, graph.GPR):
            raise ConfigError(f"scheme must be 'sgc' or 'gpr', got {self.scheme!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        unknown_arms = set(self.arms) - set(ARMS)
        if unknown_arms:
            raise ConfigError(f"unknown arms {sorted(unknown_arms)}")
        if not self.arms:
            raise ConfigError("at least one arm is required")
        if self.task == "edge" and not (0 < self.edge_fraction <= 1 and self.edge_batches >= 1):
            raise ConfigError("edge task needs edge_fraction in (0,1] and edge_batches >= 1")
        try:
            CertificationBudget(self.epsilon, self.delta, epsilon_prime=self.epsilon_prime)
        except ValueError as exc:
            raise ConfigError(str(exc))

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


_CONFIG_PARSERS = {
    "manifest": str,
    "task": str,
    "k": int,
    "edge_fraction": float,
    "edge_batches": int,
    "selector": str,
    "scheme": str,
    "hops": int,
    "lambda": float,
    "epsilon": float,
    "delta": float,
    "epsilon_prime": float,
    "seeds": lambda v: tuple(int(x) for x in v.replace(",", " ").split()),
    "train_frac": float,
    "val_frac": float,
    "test_frac": float,
    "arms": lambda v: tuple(x for x in v.replace(",", " ").split()),
    "tolerance": float,
    "max_iterations": int,
    "node_scope": str,
}


def parse_config(path) -> ExperimentConfig:
    """Read a `key = value` config file (one setting per line, '#' comments)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](raw)
        except (ValueError, TypeError):
            raise ConfigError(f"{path}:{lineno}: cannot parse value for {key!r}: {raw!r}")
    if "task" not in values:
        raise ConfigError(f"{path}: 'task' is required")
    if "manifest" in values:
        values["manifest"] = (path.parent / values["manifest"]).resolve()
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
    try:
        return ExperimentConfig(manifest=values.pop("manifest", None), **values)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")


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
    alpha1: float
    alpha2: float
    residual_norm: float | None
    worstcase_bound: float | None
    certified: bool | None
    wall_time: float
    aggregate: str = ""


_FIXED_FIELDS = ("accuracy", "delta_sp", "delta_eo", "raw_sp", "rho_norm", "alpha1", "alpha2", "wall_time")
_SCI_FIELDS = ("residual_norm", "worstcase_bound")


def _evaluate(dataset: GraphDataset, agg, model: TrainedModel) -> FairnessReport:
    preds, scores = predict(model, agg)
    test = dataset.test_mask
    accuracy = float((preds[test] == dataset.labels[test]).mean())
    delta_sp, delta_eo = fairness.fairness_metrics(preds, dataset.labels, dataset.sensitive, test)
    rho_norm = fairness.pearson_correlations(agg.values, dataset.sensitive).norm
    raw_sp = fairness._score_gap(scores, dataset.sensitive)
    alpha1, alpha2 = fairness.alpha_diagnostics(dataset)
    return FairnessReport(
        accuracy=accuracy,
        delta_sp=delta_sp,
        delta_eo=delta_eo,
        raw_sp=raw_sp,
        rho_norm=rho_norm,
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
        return [FeatureRemoval(tuple(int(c) for c in chosen))]
    if config.task == "node":
        chosen = select_nodes(
            dataset, config.k, scope=config.node_scope, kind=config.selector, seed=seed
        ).chosen
        return [NodeRemoval(tuple(int(v) for v in chosen))]
    batch = max(1, int(round(config.edge_fraction / config.edge_batches * dataset.n_edges)))

    def next_batch(current: GraphDataset) -> EdgeRemoval:
        k = min(batch, current.n_edges)
        sel = select_edges(current, k, kind=config.selector, seed=seed)
        return EdgeRemoval(tuple((int(i), int(j)) for i, j in sel.chosen))

    return [next_batch] * config.edge_batches


def _run_seed(config: ExperimentConfig, base: GraphDataset, name: str, seed: int) -> list[ResultRow]:
    dataset = make_splits(base, config.fractions, seed)
    # The unlearn arm's sequential_unlearn call starts from these hop blocks
    # and takes them off `dataset`; only the aggregation is kept here.
    dataset._carry_hops(
        config.hops,
        config.scheme,
        aggregate_hops(dataset, build_propagation(dataset, config.hops), config.scheme),
    )
    agg = dataset._carried_hops(config.hops, config.scheme)[0]
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

    def row(arm, report, residual=None, bound=None, certified=None, wall=0.0, k=config.k):
        return ResultRow(
            dataset=name,
            task=config.task,
            selector=config.selector,
            arm=arm,
            seed=seed,
            k=k,
            accuracy=report.accuracy,
            delta_sp=report.delta_sp,
            delta_eo=report.delta_eo,
            raw_sp=report.raw_sp,
            rho_norm=report.rho_norm,
            alpha1=report.alpha1,
            alpha2=report.alpha2,
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
    agg_edited, _ = edited._carried_hops(config.hops, config.scheme)
    removed = config.k if config.task != "edge" else dataset.n_edges - edited.n_edges

    if "unlearn" in config.arms:
        report = _evaluate(edited, agg_edited, replace(model, weights=results[-1].updated_weights))
        rows.append(
            row(
                "unlearn",
                report,
                residual=sum(r.residual_norm for r in results),
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
        report = _evaluate(edited, agg_edited, oracle)
        rows.append(row("retrain", report, residual=oracle.optimizer_residual, wall=retrain_wall, k=removed))
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
