"""Synthetic cascade corpora with planted, recoverable structure.

Users live in communities split into a fake-prone and a true-prone side;
user_signal_strength controls how strongly a sample's participants come
from the side matching its label. text_signal_strength controls how many
topical-cluster tokens appear in each text, where every cluster belongs to
one label. Test samples can draw from reserved cold-user pools that mimic
an existing community, so the cold mapper has signal to recover.
Everything is a pure function of the seed.

Every draw after the label shuffle comes from `_Draws`, which serves
`random()` and `integers()` from blocks of the PCG64 bit generator's raw
64-bit words with numpy 2.x `Generator`'s own rules: `random()` is the top
53 bits of a word over 2**53, and `integers(n)` is Lemire's bounded map on
32-bit halves (the low half of a fresh word first, the high half kept for
the next call, as PCG64's 32-bit buffer does). The corpora are byte-equal
to what the scalar `Generator` methods give, at a fraction of their per-call
cost, and they depend only on the raw stream, which numpy's RNG policy
(NEP 19) keeps stable, not on the internals of `Generator`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import (SPLIT_RATIOS, Comment, Corpus, Sample, check_fields, corpus_users,
                     temporal_split)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 300
    n_communities: int = 6
    n_samples: int = 2000
    comments_per_sample: tuple[int, int] = (4, 10)
    max_chain_depth: int = 3
    fake_fraction: float = 0.5
    text_signal_strength: float = 0.3
    user_signal_strength: float = 0.8
    cold_user_rate_test: float = 0.3
    seed: int = 0

    def __post_init__(self):
        check_fields(self, minimum={"n_communities": 2, "seed": 0},
                     unit=("fake_fraction", "text_signal_strength", "user_signal_strength",
                           "cold_user_rate_test"))
        if self.n_users < self.n_communities:
            raise ValueError(f"n_users ({self.n_users}) must be >= n_communities "
                             f"({self.n_communities}): every community needs a user")
        counts = self.comments_per_sample
        if not (isinstance(counts, (tuple, list)) and len(counts) == 2 and all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in counts)):
            raise ValueError(f"comments_per_sample must be two integers (min, max), "
                             f"not {counts!r}")
        low, high = counts
        if low < 1:
            raise ValueError("samples need at least one comment")
        if high < low:
            raise ValueError(f"comments_per_sample max ({high}) must be >= its min ({low})")
        object.__setattr__(self, "comments_per_sample", tuple(counts))  # a list is let in


# Lexical signal is planted as topical clusters: each cluster owns a small
# disjoint token pool and belongs wholly to one label. Cascades about the
# same cluster share several rare tokens, so nearest-neighbor retrieval
# recovers label-leaning neighbors with high purity, while a classifier has
# to memorize many separate token-to-label associations, which keeps the
# text channel from being trivially separable.
_CLUSTERS_PER_LABEL = 96
_CLUSTER_TOKENS = 2
_CLUSTER_POOLS = [
    [[f"k{y}_{c}_{i}" for i in range(_CLUSTER_TOKENS)]
     for c in range(_CLUSTERS_PER_LABEL)]
    for y in (0, 1)
]
_COMMON_POOL = [f"cm{i}" for i in range(1000)]

# Posts carry more of the lexical signal than comments (scales below are the
# per-token cluster-pool probability at full signal strength).
_POST_SIGNAL_SCALE = 1.0
_COMMENT_SIGNAL_SCALE = 0.2
_POST_TOKENS = 16
_COMMENT_TOKENS = 5


class _Draws:
    """`random()` and `integers()` of a PCG64 `Generator`, bit for bit as
    numpy 2.x gives them, served from blocks of the raw words of its bit
    generator. It takes over from `rng` where `rng` stands, pending 32-bit
    half included; `rng` must not be drawn from afterwards."""

    _BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        state = self._bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words: list[int] = []
        self._pos = 0

    def _word(self) -> int:
        i = self._pos
        if i == len(self._words):
            self._words = self._bits.random_raw(self._BLOCK).tolist()
            i = 0
        self._pos = i + 1
        return self._words[i]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, low: int, high: int | None = None) -> int:
        """A uniform int in [low, high), or in [0, low) when `high` is None."""
        if high is None:
            low, high = 0, low
            if high <= 0:
                raise ValueError("high <= 0")
        elif low >= high:
            raise ValueError("low >= high")
        n = high - low
        if n > 2**32:
            raise ValueError("the range must span at most 2**32 values")
        if n == 1:
            return low
        # Lemire: the top 32 bits of half * n, rejecting the biased low ends
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (2**32 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return low + (m >> 32)


def _text(rng: _Draws, label: int, cluster: int, n_tokens: int, p_label: float) -> str:
    pool = _CLUSTER_POOLS[label][cluster]
    toks = []
    for _ in range(n_tokens):
        if rng.random() < p_label:
            toks.append(pool[rng.integers(len(pool))])
        else:
            toks.append(_COMMON_POOL[rng.integers(len(_COMMON_POOL))])
    return " ".join(toks)


def generate(cfg: SynthConfig) -> Corpus:
    rng = np.random.default_rng(cfg.seed)
    n_comm = cfg.n_communities
    communities = [
        [f"u{c:02d}_{i:04d}" for i in range(i_start, cfg.n_users, n_comm)]
        for c, i_start in enumerate(range(n_comm))
    ]
    cold_pool_size = max(4, cfg.n_users // n_comm)
    cold_pools = [
        [f"cold{c:02d}_{i:04d}" for i in range(cold_pool_size)] for c in range(n_comm)
    ]
    # even community indices lean fake, odd lean true
    fake_side = [c for c in range(n_comm) if c % 2 == 0]
    true_side = [c for c in range(n_comm) if c % 2 == 1]

    n_fake = round(cfg.fake_fraction * cfg.n_samples)
    labels = np.array([0] * n_fake + [1] * (cfg.n_samples - n_fake))
    rng.shuffle(labels)
    rng = _Draws(rng)

    # temporal_split's cut for 10 samples or more; it refuses fewer
    n_train, n_val = (round(cfg.n_samples * r) for r in SPLIT_RATIOS[:2])
    test_start = n_train + n_val
    if cfg.cold_user_rate_test > 0 and test_start >= cfg.n_samples:
        raise ValueError("cold users requested but the corpus has no test range")

    train_seen: set[str] = set()
    # warm val/test users per community, fixed once the train region is done
    warm: list[list[str]] = []

    def pick_community(label: int) -> int:
        aligned = fake_side if label == 0 else true_side
        other = true_side if label == 0 else fake_side
        p_aligned = 0.5 + 0.5 * cfg.user_signal_strength
        side = aligned if rng.random() < p_aligned else other
        return side[rng.integers(len(side))]

    def pick_user(label: int, region: str, cold: bool) -> str:
        comm = pick_community(label)
        if cold:
            pool = cold_pools[comm]
            return pool[rng.integers(len(pool))]
        if region == "train":
            users = communities[comm]
            u = users[rng.integers(len(users))]
            train_seen.add(u)
            return u
        # warm val/test slots reuse users that actually appeared in training
        if not warm:
            warm.extend([u for u in members if u in train_seen] or sorted(train_seen)
                        for members in communities)
        candidates = warm[comm]
        return candidates[rng.integers(len(candidates))]

    samples = []
    for i in range(cfg.n_samples):
        label = int(labels[i])
        region = "train" if i < n_train else ("val" if i < test_start else "test")
        if region == "test":
            r = rng.random()
            if r < cfg.cold_user_rate_test:
                mode = "all_cold"
            elif r < 2 * cfg.cold_user_rate_test:
                mode = "mixed"
            else:
                mode = "warm"
        else:
            mode = "warm"

        def is_cold() -> bool:
            if mode == "all_cold":
                return True
            if mode == "mixed":
                return bool(rng.random() < 0.5)
            return False

        cluster = int(rng.integers(_CLUSTERS_PER_LABEL))
        author = pick_user(label, region, is_cold())
        n_comments = int(
            rng.integers(cfg.comments_per_sample[0], cfg.comments_per_sample[1] + 1)
        )
        post_id = f"p{i:06d}"
        ts = 1_000_000 + i * 60
        comments = []
        depths = {post_id: 0}
        shallow = [post_id]  # the nodes a reply may hang from, in creation order
        for j in range(n_comments):
            cid = f"{post_id}c{j:03d}"
            # deeper chains are allowed up to max_chain_depth
            parent = shallow[rng.integers(len(shallow))] if rng.random() < 0.5 else post_id
            depths[cid] = depths[parent] + 1
            if depths[cid] < cfg.max_chain_depth:
                shallow.append(cid)
            comments.append(
                Comment(
                    id=cid,
                    author=pick_user(label, region, is_cold()),
                    parent=parent,
                    text_key=_text(rng, label, cluster, _COMMENT_TOKENS,
                                   _COMMENT_SIGNAL_SCALE * cfg.text_signal_strength),
                    timestamp=ts + (j + 1) * 5,
                )
            )
        samples.append(
            Sample(
                post_id=post_id,
                author=author,
                text_key=_text(rng, label, cluster, _POST_TOKENS,
                               _POST_SIGNAL_SCALE * cfg.text_signal_strength),
                timestamp=ts,
                comments=tuple(comments),
                label=label,
            )
        )
    return Corpus(samples=tuple(samples))


def describe(corpus: Corpus) -> dict:
    """Dataset statistics table: counts, user coverage, split spans."""
    split = temporal_split(corpus)
    train_users = corpus_users(split.train, corpus.common_author)
    test_users = corpus_users(split.test, corpus.common_author)
    all_users = corpus_users(corpus.samples, corpus.common_author)
    return {
        "samples": len(corpus.samples),
        "comments": sum(len(s.comments) for s in corpus.samples),
        "fake_samples": sum(1 for s in corpus.samples if s.label == 0),
        "true_samples": sum(1 for s in corpus.samples if s.label == 1),
        "unique_users": len(all_users),
        "cold_users": len(test_users - train_users),
        "train_size": len(split.train),
        "val_size": len(split.val),
        "test_size": len(split.test),
        "train_span": [split.train[0].timestamp, split.train[-1].timestamp],
        "val_span": [split.val[0].timestamp, split.val[-1].timestamp],
        "test_span": [split.test[0].timestamp, split.test[-1].timestamp],
    }
