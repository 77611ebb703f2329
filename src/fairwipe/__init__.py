"""Training-free bias mitigation for linear graph models via certified one-step unlearning.

The library selects bias-carrying features, edges, or nodes with closed-form
scores, removes their influence from a pre-trained model with a single Newton
update, and accounts for the certified-removal budget the update consumes. A
retrain-from-scratch oracle verifies every update.
"""

from .data import DatasetManifest, DataValidationError, load_dataset, make_splits
from .fairness import (
    SelectionResult,
    alpha_diagnostics,
    edge_bias_scores,
    fairness_metrics,
    node_bias_scores,
    pearson_correlations,
    raw_sp_and_bound,
    select_edges,
    select_features,
    select_nodes,
)
from .graph import (
    GPR,
    SGC,
    AggregatedFeatures,
    DegreeStats,
    GraphDataset,
    aggregate,
    degree_stats,
    remove_edges,
    remove_nodes,
    zero_feature_columns,
)
from .model import (
    LOGISTIC,
    ConvergenceError,
    LossSpec,
    TrainConfig,
    TrainedModel,
    hessian,
    loss_and_gradient,
    predict,
    train,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit_results,
    load_results,
    parse_config,
    run_experiment,
)
from .unlearn import (
    CertificationBudget,
    EdgeRemoval,
    FeatureRemoval,
    NodeRemoval,
    UnlearnResult,
    calibrate_noise,
    newton_unlearn,
    retrain_oracle,
    sequential_unlearn,
    worstcase_bound_feature,
)

__version__ = "0.1.0"
