import numpy as np
import pytest

from fairwipe.synthetic import feature_unlearning_instance, homophilous_dataset, planted_bias_features, split_masks

SPLIT_RULE = "split fractions must be positive and finite and sum to 1"


def test_feature_unlearning_instance_checks_its_fractions():
    """At the old rule-free split, (0.9, 0.9, 0.9) gave 90/10/0 nodes: no test node."""
    with pytest.raises(ValueError, match=SPLIT_RULE):
        feature_unlearning_instance(n=100, fractions=(0.9, 0.9, 0.9))


def test_homophilous_dataset_checks_its_fractions():
    """At the old rule-free split, (-0.5, 1.0, 0.5) trained on 50 nodes."""
    with pytest.raises(ValueError, match=SPLIT_RULE):
        homophilous_dataset(n=100, fractions=(-0.5, 1.0, 0.5))


@pytest.mark.parametrize("fractions", [(0.6, 0.2, 0.3), (1.0, 0.0, 0.0), (0.6, np.nan, 0.4), (np.inf, 0.2, 0.2)])
def test_split_masks_checks_its_fractions(fractions):
    with pytest.raises(ValueError, match=SPLIT_RULE):
        split_masks(10, fractions, np.random.default_rng(0))


@pytest.mark.parametrize(
    "generate",
    [
        pytest.param(lambda n: feature_unlearning_instance(n=n), id="feature_unlearning_instance"),
        pytest.param(lambda n: planted_bias_features(n, 3, 0, np.random.default_rng(0)), id="planted_bias_features"),
        pytest.param(lambda n: homophilous_dataset(n=n), id="homophilous_dataset"),
    ],
)
def test_one_node_cannot_hold_both_groups(generate):
    """The both-groups draw redrew forever over one node; it is an error now.
    ``homophilous_dataset`` returned a one-group graph at n=1 and raised
    ``IndexError`` at n=0."""
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"both sensitive groups need n >= 2 nodes, got {n}$"):
            generate(n)
