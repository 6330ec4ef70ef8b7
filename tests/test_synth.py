"""Synthetic corpus generator invariants."""

import numpy as np
import pytest

from uen.corpus import (
    bucket_of,
    corpus_users,
    overlap_ratio,
    save_corpus,
    temporal_split,
    validate_sample,
)
from uen.synth import SynthConfig, describe, generate


def test_generation_is_bit_identical(tmp_path):
    cfg = SynthConfig(n_samples=60, n_users=40, seed=5)
    a, b = generate(cfg), generate(cfg)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(a, pa)
    save_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_seed_changes_corpus(tmp_path):
    a = generate(SynthConfig(n_samples=60, n_users=40, seed=0))
    b = generate(SynthConfig(n_samples=60, n_users=40, seed=1))
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(a, pa)
    save_corpus(b, pb)
    assert pa.read_bytes() != pb.read_bytes()


def test_all_samples_validate():
    corpus = generate(SynthConfig(n_samples=120, n_users=50, seed=2))
    for s in corpus.samples:
        validate_sample(s)


def test_exact_fake_count():
    corpus = generate(SynthConfig(n_samples=1000, n_users=60,
                                  fake_fraction=0.31, seed=3))
    assert sum(1 for s in corpus.samples if s.label == 0) == 310


def test_comment_counts_within_bounds():
    cfg = SynthConfig(n_samples=80, n_users=40, comments_per_sample=(3, 7), seed=4)
    for s in generate(cfg).samples:
        assert 3 <= len(s.comments) <= 7


def test_chain_depth_bounded():
    cfg = SynthConfig(n_samples=80, n_users=40, max_chain_depth=3, seed=5)
    for s in generate(cfg).samples:
        by_id = {c.id: c for c in s.comments}
        for c in s.comments:
            depth, cur = 1, c
            while cur.parent != s.post_id:
                cur = by_id[cur.parent]
                depth += 1
            assert depth <= 3


def test_no_cold_users_when_rate_zero():
    corpus = generate(SynthConfig(n_samples=200, n_users=50,
                                  cold_user_rate_test=0.0, seed=6))
    split = temporal_split(corpus)
    known = corpus_users(split.train, corpus.common_author)
    buckets = {bucket_of(overlap_ratio(s, known, corpus.common_author)).value
               for s in split.test}
    assert buckets == {"high"}


def test_default_config_populates_all_buckets():
    corpus = generate(SynthConfig(n_samples=400, n_users=80, seed=7))
    split = temporal_split(corpus)
    known = corpus_users(split.train, corpus.common_author)
    buckets = [bucket_of(overlap_ratio(s, known, corpus.common_author)).value
               for s in split.test]
    assert set(buckets) == {"zero", "low", "high"}


def test_describe_matches_recount():
    corpus = generate(SynthConfig(n_samples=150, n_users=50, seed=8))
    stats = describe(corpus)
    assert stats["samples"] == 150
    assert stats["comments"] == sum(len(s.comments) for s in corpus.samples)
    assert stats["fake_samples"] + stats["true_samples"] == 150
    assert stats["train_size"] == 105
    assert stats["val_size"] == 15
    assert stats["test_size"] == 30
    split = temporal_split(corpus)
    cold = corpus_users(split.test, corpus.common_author) - corpus_users(
        split.train, corpus.common_author)
    assert stats["cold_users"] == len(cold)
    assert stats["train_span"][1] <= stats["val_span"][0]
    assert stats["val_span"][1] <= stats["test_span"][0]


def test_timestamps_strictly_increase():
    corpus = generate(SynthConfig(n_samples=100, n_users=40, seed=9))
    stamps = [s.timestamp for s in corpus.samples]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_labels_present_on_every_sample():
    corpus = generate(SynthConfig(n_samples=50, n_users=30, seed=10))
    assert all(s.label in (0, 1) for s in corpus.samples)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(fake_fraction=1.5)
    with pytest.raises(ValueError):
        SynthConfig(cold_user_rate_test=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(n_communities=1)
    with pytest.raises(ValueError):
        SynthConfig(comments_per_sample=(0, 5))
    with pytest.raises(ValueError, match=r"n_users \(3\) must be >= n_communities \(6\)"):
        SynthConfig(n_users=3)
    with pytest.raises(ValueError, match=r"comments_per_sample max \(3\) must be >= its min \(5\)"):
        SynthConfig(comments_per_sample=(5, 3))
    SynthConfig(n_users=6, comments_per_sample=(3, 3))  # both limits inclusive


def test_null_signal_config_accepted():
    corpus = generate(SynthConfig(n_samples=40, n_users=30,
                                  text_signal_strength=0.0,
                                  user_signal_strength=0.0, seed=11))
    assert len(corpus.samples) == 40


def test_cold_rate_scales_cold_population():
    rates = {}
    for rate in (0.1, 0.6):
        corpus = generate(SynthConfig(n_samples=300, n_users=60,
                                      cold_user_rate_test=rate, seed=12))
        split = temporal_split(corpus)
        known = corpus_users(split.train, corpus.common_author)
        ratios = [overlap_ratio(s, known, corpus.common_author)
                  for s in split.test]
        rates[rate] = float(np.mean(ratios))
    assert rates[0.6] < rates[0.1]
