"""Synthetic corpus generator invariants."""

import hashlib

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
from uen.synth import SynthConfig, _Draws, describe, generate


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
    cfg = SynthConfig(n_samples=80, n_users=40, min_comments=3, max_comments=7, seed=4)
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
    with pytest.raises(ValueError, match=r"^min_comments must be >= 1, got 0$"):
        SynthConfig(min_comments=0)
    with pytest.raises(ValueError, match=r"n_users \(3\) must be >= n_communities \(6\)"):
        SynthConfig(n_users=3)
    with pytest.raises(ValueError, match=r"max_comments \(3\) must be >= min_comments \(5\)"):
        SynthConfig(min_comments=5, max_comments=3)
    with pytest.raises(ValueError, match=r"max_chain_depth must be >= 1, got 0"):
        SynthConfig(max_chain_depth=0)
    SynthConfig(n_users=6, min_comments=3, max_comments=3)  # both limits inclusive
    SynthConfig(max_chain_depth=1)  # replies to the post only


@pytest.mark.parametrize("n_samples", [10, 15, 25, 101, 2000])
def test_cold_users_only_in_test_split(n_samples):
    """synth reserves its cold users for the region temporal_split cuts as
    test, at sizes whose shares round up, down or to even."""
    corpus = generate(SynthConfig(n_samples=n_samples, n_users=40, cold_user_rate_test=0.5,
                                  seed=0))
    split = temporal_split(corpus)

    def cold(samples):
        return {u for u in corpus_users(samples) if u.startswith("cold")}

    assert not cold(split.train + split.val)
    assert cold(split.test)


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


# sha256 of the saved corpus, taken when every draw came from the scalar
# numpy Generator methods; the raw-word draws must keep these bytes
@pytest.mark.parametrize("cfg, digest", [
    (SynthConfig(seed=0),
     "cd3a1b218b9f3dd4fc6ef3ece2ae3dc084b034637d5732c17a0f313a40096384"),
    (SynthConfig(seed=0, n_samples=200, n_users=40, cold_user_rate_test=0.5,
                 min_comments=2, max_comments=30, max_chain_depth=5),
     "f8eb96d94f289f939f630bed2e504806b2555d781da1e15fc9dcc7ea177dd7f3"),
    # a community with no training user: its warm slots draw from all of them
    (SynthConfig(seed=0, n_samples=10, n_users=60, n_communities=12,
                 min_comments=1, max_comments=2, cold_user_rate_test=0.0),
     "41b396c423ba8d6a62e1b9f87bfe4bd7ff6df98f786d096d1f2cfbeaaf3f6f77"),
])
def test_corpus_bytes_are_pinned(tmp_path, cfg, digest):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _shuffled_pcg64(seed=3):
    """A Generator right after shuffling ten items; at seed 3 that leaves a
    32-bit half pending, at seed 0 it does not."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rng.shuffle(np.arange(10))
    return rng


def test_shuffled_start_has_a_pending_half():
    assert _shuffled_pcg64().bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("seed", [0, 3])
def test_draws_equal_generator(seed):
    """About 10k interleaved draws, across several raw-word blocks, equal
    numpy's own; seed 3 starts with a pending 32-bit half, seed 0 without."""
    want = _shuffled_pcg64(seed)
    got = _Draws(_shuffled_pcg64(seed))
    script = np.random.default_rng(99)
    sizes = [1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32]
    for _ in range(10_000):
        kind = script.integers(3)
        if kind == 0:
            assert got.random() == want.random()
        elif kind == 1:
            n = sizes[script.integers(len(sizes))]
            assert got.integers(n) == want.integers(n)
        else:
            low = int(script.integers(-50, 50))
            high = low + int(script.integers(1, 40))
            assert got.integers(low, high) == want.integers(low, high)


def test_draws_single_value_takes_no_draw():
    want, got = _shuffled_pcg64(), _Draws(_shuffled_pcg64())
    assert got.integers(1) == 0
    assert got.integers(5, 6) == 5
    assert [got.integers(10) for _ in range(3)] == [want.integers(10) for _ in range(3)]


def test_draws_rejection_heavy_range():
    """n = 2**31 + 1 rejects about half of all 32-bit draws."""
    want, got = _shuffled_pcg64(), _Draws(_shuffled_pcg64())
    n = 2**31 + 1
    assert [got.integers(n) for _ in range(2000)] == [want.integers(n) for _ in range(2000)]
    assert got.random() == want.random()


@pytest.mark.parametrize("args, message", [
    ((0,), "high <= 0"),
    ((-3,), "high <= 0"),
    ((4, 4), "low >= high"),
    ((4, 2), "low >= high"),
])
def test_draws_reject_empty_ranges_as_numpy_does(args, message):
    with pytest.raises(ValueError, match=message):
        np.random.default_rng(0).integers(*args)
    with pytest.raises(ValueError, match=message):
        _Draws(np.random.default_rng(0)).integers(*args)


def test_draws_reject_ranges_beyond_32_bits():
    with pytest.raises(ValueError, match="at most 2"):
        _Draws(np.random.default_rng(0)).integers(2**32 + 1)
