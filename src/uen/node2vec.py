"""User vectors from biased second-order random walks + skip-gram (SGNS).

Walks follow the p/q-biased transition rule over the weighted interaction
graph; the walk corpus then trains skip-gram with negative sampling by
plain SGD with a linearly decaying learning rate. Everything is driven by
explicit seeds: same graph + config => bit-identical table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable
from .graph import InteractionGraph


@dataclass(frozen=True)
class Node2VecConfig:
    d1: int = 128
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 40
    walks_per_node: int = 10
    window: int = 5
    negatives_per_positive: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    seed: int = 0

    def __post_init__(self):
        if self.d1 <= 0 or self.p <= 0 or self.q <= 0:
            raise ValueError("d1, p, q must be positive")
        if self.walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        for name in ("walks_per_node", "window", "negatives_per_positive", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def next_step_distribution(
    g: InteractionGraph, prev: str | None, cur: str, p: float, q: float
) -> dict[str, float]:
    """Normalized transition probabilities out of `cur` given the previous node.

    Bias alpha: 1/p to return to prev, 1 to a common neighbor of prev,
    1/q otherwise; the first step (prev=None) is weight-proportional.
    """
    nbrs = g.neighbors(cur)
    if not nbrs:
        return {}
    if prev is None:
        weights = {x: float(w) for x, w in nbrs}
    else:
        prev_adj = {x for x, _ in g.neighbors(prev)}
        weights = {}
        for x, w in nbrs:
            if x == prev:
                alpha = 1.0 / p
            elif x in prev_adj:
                alpha = 1.0
            else:
                alpha = 1.0 / q
            weights[x] = float(w) * alpha
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def _walk_from(
    g: InteractionGraph, start: str, cfg: Node2VecConfig, rng: np.random.Generator
) -> list[str]:
    walk = [start]
    while len(walk) < cfg.walk_length:
        cur = walk[-1]
        prev = walk[-2] if len(walk) > 1 else None
        dist = next_step_distribution(g, prev, cur, cfg.p, cfg.q)
        if not dist:
            break  # dead end: truncate, no restart
        nodes = list(dist.keys())
        probs = np.fromiter(dist.values(), dtype=np.float64)
        walk.append(nodes[rng.choice(len(nodes), p=probs)])
    return walk


def sample_walks(g: InteractionGraph, cfg: Node2VecConfig) -> list[list[str]]:
    """walks_per_node walks per node, each from its own node-derived RNG stream.

    Per-node streams make the corpus independent of iteration order, so a
    parallel fan-out would merge to the same result.
    """
    walks = []
    for node in sorted(g.nodes):
        node_seed = np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(hash_to_u32(node),)
        )
        rng = np.random.Generator(np.random.PCG64(node_seed))
        for _ in range(cfg.walks_per_node):
            walks.append(_walk_from(g, node, cfg, rng))
    return walks


def hash_to_u32(s: str) -> int:
    import hashlib

    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=4).digest(), "little")


def _sigmoid(x: np.ndarray | float):
    return 1.0 / (1.0 + np.exp(-x))


def train_skipgram(walks: list[list[str]], cfg: Node2VecConfig) -> EmbeddingTable:
    """SGNS over (center, context) pairs within the window.

    Negatives come from the unigram distribution raised to 3/4. Output rows
    are the center vectors.
    """
    if not walks:
        raise ValueError("empty walk corpus")
    vocab = sorted({n for w in walks for n in w})
    idx = {n: i for i, n in enumerate(vocab)}
    v = len(vocab)
    counts = np.zeros(v, dtype=np.float64)
    for w in walks:
        for n in w:
            counts[idx[n]] += 1
    neg_probs = counts ** 0.75
    neg_probs /= neg_probs.sum()

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    center = (rng.random((v, cfg.d1)) - 0.5) / cfg.d1
    context = np.zeros((v, cfg.d1), dtype=np.float64)

    # Precompute the pair list once; epochs reshuffle it.
    pairs = []
    for w in walks:
        wi = [idx[n] for n in w]
        for i, c in enumerate(wi):
            lo = max(0, i - cfg.window)
            hi = min(len(wi), i + cfg.window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((c, wi[j]))
    pairs = np.asarray(pairs, dtype=np.int64)
    n_pairs = len(pairs)
    if n_pairs == 0:
        # Degenerate corpus (e.g. a single isolated node): finite init rows.
        matrix = center.astype(np.float32)
        return EmbeddingTable.from_rows(vocab, matrix)

    k = cfg.negatives_per_positive
    total_steps = cfg.epochs * n_pairs
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n_pairs)
        negatives = rng.choice(v, size=(n_pairs, k), p=neg_probs)
        for row, pi in enumerate(order):
            lr = cfg.learning_rate * max(1.0 - step / total_steps, 1e-4)
            step += 1
            c, ctx = pairs[pi]
            targets = np.empty(k + 1, dtype=np.int64)
            targets[0] = ctx
            targets[1:] = negatives[row]
            labels = np.zeros(k + 1)
            labels[0] = 1.0
            vc = center[c]
            mat = context[targets]  # (k+1, d1)
            g = (_sigmoid(mat @ vc) - labels) * lr  # SGNS loss gradient per score, times lr
            np.subtract.at(context, targets, g[:, None] * vc[None, :])
            center[c] -= g @ mat
    return EmbeddingTable.from_rows(vocab, center.astype(np.float32))


def learn_user_embeddings(g: InteractionGraph, cfg: Node2VecConfig) -> EmbeddingTable:
    walks = sample_walks(g, cfg)
    if not walks:
        raise ValueError("interaction graph has no nodes")
    return train_skipgram(walks, cfg)
