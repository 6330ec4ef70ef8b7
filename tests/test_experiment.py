"""Variant runs wired by `experiment`."""

import pytest

from uen.corpus import corpus_users, temporal_split
from uen.experiment import PipelineConfig, run_variant
from uen.gnn import GnnConfig
from uen.synth import SynthConfig, generate

from conftest import random_user_table


@pytest.mark.parametrize("variant", ["full", "no-mapper"])
def test_run_variant_takes_feature_width_from_users(variant):
    """A user table narrower than `cfg.node2vec.d1` sets the model's input width."""
    corpus = generate(SynthConfig(n_users=30, n_samples=60, seed=0))
    split = temporal_split(corpus)
    users = random_user_table(sorted(corpus_users(split.train, corpus.common_author)), d1=16)
    cfg = PipelineConfig(gnn=GnnConfig(epochs=1, hidden=8), variant=variant)
    assert cfg.node2vec.d1 != users.dim
    result = run_variant(corpus, cfg, split=split, users=users)
    assert result.model.in_dim == result.report.metadata["feature_dim"] == cfg.text.d2 + 16
    assert result.report.overall.n == len(split.test)
