"""User vectors from biased second-order random walks + skip-gram (SGNS).

Walks follow the p/q-biased transition rule over the weighted interaction
graph. They read the CSR adjacency that `graph.build_interaction_graph`
builds over the sorted node list: the walks of a chunk of start nodes
advance together, one step at a time. Each
start node draws its walks' uniforms up front from its own seeded stream,
and a step searches its row's cumulative weights the way
`Generator.choice` does, so every walk is the one a `choice` call per
step would give. At p = q = 1 every bias factor is 1.0, and the walker
skips the bias pass: the walk is first-order (DeepWalk's), unchanged.

The walk corpus then trains skip-gram with negative sampling by minibatch
SGD on a float32 table, as the word2vec code does (Mikolov et al. 2013).
The (center, context) pairs are visited in a shuffled order, MINIBATCH at
a time. Each pair keeps its own linearly decaying learning rate. One draw
of k negatives from the unigram^3/4 law is shared by every pair of a batch,
as in PyTorch-BigGraph (Lerer et al. 2019): each pair's negatives still
follow that law, so the expected gradient is unchanged, and scoring them
is one dense product. All gradients of a batch are taken at the pre-batch
rows and summed per row: one sort groups the touched rows, and each
row's update is the one an `np.bincount` of the gradients gives, bit for
bit (see `sgns_step`). The step's buffers are made once per
`train_skipgram` and reused: made fresh, each step's 130-530 KB arrays
go back to the OS when freed, so every step of a process's first run
paid their page faults again. Everything is driven by explicit seeds:
same graph + config => bit-identical table.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import check_fields
from .embedding import EmbeddingTable
from .graph import InteractionGraph

MINIBATCH = 256  # SGNS pairs per update
WALK_CELLS = 1 << 14  # walks x widest neighbour row that one walker chunk may hold
# Largest |entry| an SGNS table may reach. Trained (2V, d) tables, context
# rows included, stay below 2.4 on every test, CI, demo and benchmark config;
# a learning rate past stability leaves entries in the thousands (or NaN).
MAX_ENTRY = 30.0


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
        check_fields(self, minimum={"walk_length": 2, "seed": 0},
                     positive=("p", "q", "learning_rate"))


def _advance(g: InteractionGraph, keys: np.ndarray | None, path: np.ndarray,
             uniforms: np.ndarray, p: float, q: float) -> None:
    """Fill path[:, 1:] from the start nodes in path[:, 0], one step for all
    rows at a time; step t of row r uses uniforms[r, t - 1]. `keys` holds
    each edge of g as `row * V + nbr`, in CSR order and so sorted. It is
    None at p = q = 1, where every bias factor is 1.0: the second-order
    pass would multiply the weights by ones, so it is skipped. Every start
    node must have a neighbour, so (the graph being undirected) no walk
    meets a dead end."""
    n_rows, length = path.shape
    v, last = len(g.nodes), len(g.nbr) - 1
    rows = np.arange(n_rows)
    for t in range(1, length):
        cur = path[:, t - 1]
        start = g.indptr[cur]
        deg = g.indptr[cur + 1] - start
        cols = np.arange(deg.max())
        slot = np.minimum(start[:, None] + cols, last)
        x = g.nbr[slot]
        w = np.where(cols < deg[:, None], g.weight[slot], 0.0)
        if t > 1 and keys is not None:
            prev = path[:, t - 2, None]
            key = prev * v + x
            common = keys[np.minimum(np.searchsorted(keys, key), last)] == key
            w *= np.where(x == prev, 1.0 / p, np.where(common, 1.0, 1.0 / q))
        # Generator.choice(p=w / sum(w)): cdf = cumsum(p) / cdf[-1], then a
        # right-sided search of one uniform. Pad columns repeat the final
        # cdf value 1.0, which no uniform reaches.
        cdf = np.cumsum(w / np.cumsum(w, axis=1)[:, -1:], axis=1)
        cdf /= cdf[:, -1:]
        path[:, t] = x[rows, np.count_nonzero(cdf <= uniforms[:, t - 1, None], axis=1)]


def sample_walks(g: InteractionGraph, cfg: Node2VecConfig) -> list[list[str]]:
    """walks_per_node walks per node, each from its own node-derived RNG stream.

    Per-node streams make the corpus independent of iteration order, so any
    chunking of the start nodes gives the same walks. A walk from an
    isolated node is the node alone.
    """
    deg = np.diff(g.indptr)
    keys = None  # at p = q = 1 the walk is first-order (DeepWalk's)
    if cfg.p != 1.0 or cfg.q != 1.0:
        keys = np.repeat(np.arange(len(g.nodes)), deg) * len(g.nodes) + g.nbr
    n, steps = cfg.walks_per_node, cfg.walk_length - 1
    per_chunk = max(1, WALK_CELLS // (n * max(1, int(deg.max(initial=0)))))
    walks = []
    for lo in range(0, len(g.nodes), per_chunk):
        starts = np.arange(lo, min(lo + per_chunk, len(g.nodes)))
        moving = starts[deg[starts] > 0]
        path = np.empty((len(moving) * n, cfg.walk_length), dtype=np.int64)
        path[:, 0] = np.repeat(moving, n)
        if len(moving):
            uniforms = [walk_rng(g.nodes[s], cfg.seed).random((n, steps)) for s in moving]
            _advance(g, keys, path, np.concatenate(uniforms), cfg.p, cfg.q)
        rows = iter(path.tolist())
        for s in starts:
            for _ in range(n):
                walks.append([g.nodes[i] for i in next(rows)] if deg[s] else [g.nodes[s]])
    return walks


def walk_rng(node: str, seed: int) -> np.random.Generator:
    """The stream every walk from `node` draws its uniforms from. Its spawn
    key is a 128-bit hash of the node id, so no two nodes of any realistic
    graph share a stream."""
    key = struct.unpack("<4I", hashlib.blake2b(node.encode("utf-8"), digest_size=16).digest())
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in x's dtype. Logits below -80 count as -80: past
    that, exp(-x) overflows float32, and sigmoid is below 2e-35 either way."""
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -80.0)))


def window_pairs(seqs: np.ndarray, lengths: np.ndarray, window: int) -> np.ndarray:
    """(center, context) pairs within `window` positions of each other, as
    (n_pairs, 2), in the order of a loop over walks, then centers, then
    contexts left to right. Row r of `seqs` is a walk of lengths[r] indices,
    padded on the right."""
    width = seqs.shape[1]
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    pos = np.arange(width)[:, None]
    ends = lengths[:, None, None]
    inside = (pos < ends) & (pos + offsets >= 0) & (pos + offsets < ends)
    hits = np.flatnonzero(inside)  # C order: walk, center, offset
    centers = hits // len(offsets)  # flat position in seqs
    flat = seqs.ravel()
    return np.stack([flat[centers], flat[centers + offsets[hits % len(offsets)]]], axis=1)


class _SgnsWork:
    """The arrays an SGNS step writes into, for batches of up to b pairs and
    k negatives; `train_skipgram` makes one and every step reuses it. A
    shorter batch uses the leading rows of each."""

    def __init__(self, b: int, k: int, d: int, dtype):
        n = 2 * b + k
        self.vc = np.empty((b, d), dtype)  # center rows
        self.uo = np.empty((b, d), dtype)  # context rows
        self.un = np.empty((k, d), dtype)  # negative rows
        self.grads = np.empty((n, d), dtype)  # gradient stack, one row per touched row
        self.picked = np.empty((n, d), dtype)  # gradient rows gathered for one round of sums
        self.sums = np.empty((n, d), np.float64)  # each touched row's gradient sum, then new row
        self.touched = np.empty((n, d), dtype)  # the touched table rows


def sgns_step(table: np.ndarray, centers, contexts, negatives, lr, work=None) -> None:
    """Apply one minibatch of SGNS gradients to `table`, in its dtype.

    `table` is (2V, d): center rows, then context rows. centers and
    contexts are (b,) vocabulary indices and lr (b,) the pairs' learning
    rates; negatives are (k,) indices shared by every pair of the batch.
    Indices must lie in [0, V): the gathers clip instead of checking. Each
    pair's gradient is taken at the pre-batch rows and scaled by its lr, and
    the gradients are summed per row. `work` holds the step's buffers (a
    `_SgnsWork` for at least b pairs and k negatives); without it the step
    makes its own.

    Every touched row ends as the float64 sum of its gradients, from 0.0 in
    input order, subtracted from the row and rounded once to the table's
    dtype: what `np.bincount` into the unique rows gives.
    """
    b, k = len(centers), len(negatives)
    v, d = len(table) // 2, table.shape[1]
    if work is None:
        work = _SgnsWork(b, k, d, table.dtype)
    n = 2 * b + k
    lr = lr.astype(table.dtype)
    # mode="clip": with the default "raise", np.take stages `out` in a fresh copy
    vc = np.take(table, centers, axis=0, out=work.vc[:b], mode="clip")
    uo = np.take(table[v:], contexts, axis=0, out=work.uo[:b], mode="clip")
    un = np.take(table[v:], negatives, axis=0, out=work.un[:k], mode="clip")
    go = (_sigmoid(np.einsum("bd,bd->b", vc, uo)) - 1.0) * lr  # (b,) context terms
    gn = _sigmoid(vc @ un.T) * lr[:, None]  # (b, k) negative terms
    # Gradient rows: centers, contexts, negatives. The go * uo term is staged in
    # the context block before that block is written (addition commutes).
    grads = work.grads[:n]
    np.multiply(go[:, None], uo, out=grads[b:2 * b])
    np.matmul(gn, un, out=grads[:b])
    grads[:b] += grads[b:2 * b]
    np.multiply(go[:, None], vc, out=grads[b:2 * b])
    np.matmul(gn.T, vc, out=grads[2 * b:])
    # Group the gradient rows by table row, each group in input order: the
    # keys row * n + position are distinct, so a plain sort of them is the
    # stable argsort of the rows. Then order the groups by size, largest
    # first, so that round r of the sums, which adds each group's r-th
    # gradient, runs on a prefix of them.
    rows = np.concatenate([centers, v + contexts, v + negatives])
    keys = np.sort(rows * n + np.arange(n))
    order, ranked = keys % n, keys // n
    bounds = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1], [True]]))
    first, size = bounds[:-1], np.diff(bounds)
    by_size = np.argsort(-size)
    first, size = first[by_size], size[by_size]
    u = len(first)
    picked = np.take(grads, order[first], axis=0, out=work.picked[:u], mode="clip")
    sums = np.add(picked, 0.0, out=work.sums[:u])  # bincount's 0.0 start: -0.0 becomes +0.0
    # live[r - 1] groups have more than r rows: a prefix, as sizes descend
    live = np.searchsorted(-size, -np.arange(1, size[0]), side="left")
    for r, g in enumerate(live.tolist(), start=1):
        np.take(grads, order[first[:g] + r], axis=0, out=picked[:g], mode="clip")
        sums[:g] += picked[:g]
    target = ranked[first]
    touched = np.take(table, target, axis=0, out=work.touched[:u], mode="clip")
    # the new rows in float64, rounded once to the table's dtype as they are stored
    table[target] = np.subtract(touched, sums, out=sums)


def train_skipgram(walks: list[list[str]], cfg: Node2VecConfig) -> EmbeddingTable:
    """SGNS over (center, context) pairs within the window, in float32.

    Negatives come from the unigram distribution raised to 3/4, one set of
    k per minibatch. Output rows are the center vectors, minus their
    float64 column mean: SGNS leaves one common direction in every row
    (All-but-the-Top, Mu & Viswanath 2018), which would otherwise dominate
    every user vector.
    """
    if not walks:
        raise ValueError("empty walk corpus: the interaction graph has no nodes")
    vocab = sorted({n for w in walks for n in w})
    idx = {n: i for i, n in enumerate(vocab)}
    v, d = len(vocab), cfg.d1
    lengths = np.fromiter(map(len, walks), np.int64, len(walks))
    flat = np.fromiter((idx[n] for w in walks for n in w), np.int64, int(lengths.sum()))
    seqs = np.zeros((len(walks), lengths.max()), dtype=np.int64)
    seqs[np.arange(seqs.shape[1]) < lengths[:, None]] = flat
    neg_probs = np.bincount(flat, minlength=v).astype(np.float64) ** 0.75
    neg_probs /= neg_probs.sum()

    rng = np.random.default_rng(cfg.seed)
    table = np.zeros((2 * v, d), dtype=np.float32)
    table[:v] = (rng.random((v, d)) - 0.5) / d

    pairs = window_pairs(seqs, lengths, cfg.window)
    n_pairs = len(pairs)
    if n_pairs == 0:
        # Degenerate corpus (e.g. a single isolated node): finite init rows.
        return _centred_table(vocab, table[:v])

    k = cfg.negatives_per_positive
    total_steps = cfg.epochs * n_pairs
    steps = -(-n_pairs // MINIBATCH)  # batches per epoch
    # Each batch's negatives are rng.choice(v, size=k, p=neg_probs): the same
    # uniforms, searched in the same cdf as choice's.
    cdf = neg_probs.cumsum()
    cdf /= cdf[-1]
    work = _SgnsWork(min(MINIBATCH, n_pairs), k, d, table.dtype)
    # A learning rate too large sends the table far past any trained scale,
    # or overflows float32 into inf and NaN: checked once per epoch.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_pairs)
            # The epoch's batches in one draw: the stream of a draw per batch.
            negatives = cdf.searchsorted(rng.random(k * steps), side="right").reshape(steps, k)
            # Each pair's rate decays linearly in its step; computed in place.
            lr = np.arange(epoch * n_pairs, (epoch + 1) * n_pairs, dtype=np.float64)
            lr /= total_steps
            np.subtract(1.0, lr, out=lr)
            np.maximum(lr, 1e-4, out=lr)
            lr *= cfg.learning_rate
            for i in range(steps):
                batch = slice(i * MINIBATCH, (i + 1) * MINIBATCH)
                chosen = pairs[order[batch]]
                sgns_step(table, chosen[:, 0], chosen[:, 1], negatives[i], lr[batch], work)
            largest = np.abs(table).max()
            if not largest <= MAX_ENTRY:  # NaN fails this too
                # a hub in most pairs takes most updates: name the busiest node
                in_pairs = np.bincount(pairs.ravel(), minlength=v)
                in_pairs -= np.bincount(pairs[pairs[:, 0] == pairs[:, 1], 0], minlength=v)
                hub = int(in_pairs.argmax())
                raise ValueError(f"SGNS diverged in epoch {epoch} at learning_rate "
                                 f"{cfg.learning_rate:g}: the table's largest entry is "
                                 f"{largest:g}, above {MAX_ENTRY:g}; node {vocab[hub]!r} "
                                 f"is in {in_pairs[hub] / n_pairs:.1%} of the epoch's pairs")
        return _centred_table(vocab, table[:v])


def _centred_table(vocab: list[str], rows: np.ndarray) -> EmbeddingTable:
    rows = rows.astype(np.float64)
    return EmbeddingTable.from_rows(vocab, (rows - rows.mean(axis=0)).astype(np.float32))

