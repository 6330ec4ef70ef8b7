"""Cold-user resolution via exact top-k cosine retrieval.

Three heuristics approximate a missing user vector from training data:
H1 finds authors of textually similar posts, H2 finds authors of similar
comments under those posts, H3 compares comments by their reply-chain
prefix sums instead of raw text. The index is a brute-force normalized
matrix scan, exact by construction.

Retrieval works on row numbers throughout. `topk_rows` keeps the rows that
an `np.partition` puts at or above the k-th score and orders them with one
`np.lexsort` by (-score, rank of the key), the key ranks being cached per
index. Each index row's owner is resolved to its user-table row once, for
the post index per resolver and for a sample's H2 pool per sample, so a
mean over hit authors is one gather of those rows. Neither changes a bit of
what a full (-score, key) sort and a stack of per-author rows would give.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Callable

import numpy as np

from .assembly import all_chain_representations, chain_prefix_representation
from .corpus import Sample
from .embedding import EmbeddingTable, FormatError
from .text import TextProvider

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ColdMapConfig:
    k1: int = 19
    k2: int = 72
    heuristics: frozenset = frozenset({"h1", "h2", "h3"})

    def __post_init__(self):
        if self.k1 < 1:
            raise ValueError("k1 must be >= 1")
        if "h2" in self.heuristics and self.k2 < 1:
            raise ValueError("k2 must be >= 1 when H2 is enabled")
        unknown = set(self.heuristics) - {"h1", "h2", "h3"}
        if unknown:
            raise ValueError(f"unknown heuristics: {sorted(unknown)}")


@dataclass(frozen=True)
class SimIndex:
    keys: tuple[str, ...]
    vectors: np.ndarray  # (n, d) float32 (float64 if stacked), rows L2-normalized (or zero)
    owners: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @cached_property
    def vectors64(self) -> np.ndarray:
        """`vectors` as float64, the precision queries are scored in; made once."""
        return np.asarray(self.vectors, dtype=np.float64)

    @cached_property
    def rank(self) -> np.ndarray:
        """Each row's place in a stable sort of `keys`: ordering rows by rank
        orders them by key, equal keys in row order."""
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return rank


def build_index(entries) -> SimIndex:
    """entries: iterable of (key, vector, owner). Rows are normalized here."""
    keys, vecs, owners = [], [], []
    dim = None
    for key, vec, owner in entries:
        vec = np.asarray(vec, dtype=np.float64)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise FormatError(
                f"index entry {key!r}: dimension {vec.shape[0]} != {dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"index entry {key!r}: non-finite vector")
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        keys.append(key)
        vecs.append(vec.astype(np.float32))
        owners.append(owner)
    matrix = np.stack(vecs) if vecs else np.zeros((0, dim or 0), dtype=np.float32)
    return SimIndex(keys=tuple(keys), vectors=matrix, owners=tuple(owners))


def _unit_query(query, dim: int) -> np.ndarray:
    query = np.asarray(query, dtype=np.float64)
    if query.shape[0] != dim:
        raise FormatError(f"query dim {query.shape[0]} != index dim {dim}")
    if not np.isfinite(query).all():
        raise FormatError("query has non-finite entries")
    qnorm = np.sqrt(query.dot(query))  # np.linalg.norm's formula for a 1-D vector
    return query / qnorm if qnorm > 0 else query


def topk_rows(index: SimIndex, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact cosine top-k as (rows, scores): descending score, ties by key ascending.

    A partition finds the k-th best score; every row that ties it stays a
    candidate, so ordering the candidates alone gives what a full sort would.
    """
    n = len(index)
    if n == 0:
        raise FormatError("topk on an empty index")
    scores = index.vectors64 @ _unit_query(query, index.dim)
    if k <= 0:
        return np.empty(0, dtype=np.intp), scores[:0]
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        cand = np.flatnonzero(scores >= kth)
        rows = cand[np.lexsort((index.rank[cand], -scores[cand]))[:k]]
    else:
        rows = np.lexsort((index.rank, -scores))
    return rows, scores[rows]


def topk(index: SimIndex, query: np.ndarray, k: int) -> list[tuple[str, str, float]]:
    """`topk_rows` as (key, owner, score) triples."""
    rows, scores = topk_rows(index, query, k)
    return [(index.keys[i], index.owners[i], s)
            for i, s in zip(rows.tolist(), scores.tolist())]


def _owner_rows(index: SimIndex, users: EmbeddingTable) -> np.ndarray:
    """Each index row's owner's row in `users`, -1 for an owner it lacks."""
    where = users.index
    return np.fromiter((where.get(o, -1) for o in index.owners), dtype=np.intp,
                       count=len(index))


def _mean_user(users: EmbeddingTable, index: SimIndex, owner_rows: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Mean table vector of the owners of `rows` of `index`, gathered at once.

    `owner_rows` is `_owner_rows(index, users)`; an owner missing from the
    table is an error only when it is among `rows`.
    """
    table_rows = owner_rows.take(rows)
    if table_rows.min(initial=0) < 0:
        owner = index.owners[rows[(table_rows < 0).argmax()]]
        raise FormatError(f"training user {owner!r} has no row in the user table; "
                          "embed the users of this training split")
    # what .mean(axis=0) computes, without its wrapper calls
    gathered = users.matrix.take(table_rows, axis=0).astype(np.float64)
    return np.add.reduce(gathered, axis=0) / len(rows)


def _table_mean(users: EmbeddingTable) -> np.ndarray:
    """The table's column mean in float64; read-only, since callers share it."""
    mean = users.mean_vector().astype(np.float64)
    mean.setflags(write=False)
    return mean


def _global_mean(table_mean: Callable[[], np.ndarray], why: str) -> np.ndarray:
    logger.warning("%s; falling back to global mean user vector", why)
    return table_mean()


def map_cold_author(
    post_vec: np.ndarray, post_index: SimIndex, users: EmbeddingTable, k1: int
) -> np.ndarray:
    """Mean user vector of the k1 most text-similar training posts' authors."""
    if len(post_index) == 0:
        return _global_mean(lambda: _table_mean(users), "empty post index")
    return _mean_user(users, post_index, _owner_rows(post_index, users),
                      topk_rows(post_index, post_vec, k1)[0])


def _concat(blocks) -> SimIndex:
    """Stack non-empty indices into one, rows in block order. The rows are
    stacked straight into float64, which scoring needs, so `vectors64` is
    `vectors` itself and no float32 copy is made."""
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return SimIndex(keys=(), vectors=np.zeros((0, 0)), owners=())
    return SimIndex(
        keys=tuple(chain.from_iterable(b.keys for b in blocks)),
        vectors=np.concatenate([b.vectors for b in blocks], dtype=np.float64),
        owners=tuple(chain.from_iterable(b.owners for b in blocks)),
    )


@dataclass
class TrainSideData:
    """Precomputed training-side retrieval structures for the mapper.

    Each training comment's representation is normalized once, into the
    index of its post. The posts keep separate small matrices: one large
    matrix needs a fresh block of memory, where these fit in space freed by
    earlier stages, and peak memory rose when it did.
    """

    post_index: SimIndex
    comments_by_post: dict  # post_id -> SimIndex of that post's comments

    @cached_property
    def all_comments(self) -> SimIndex:
        """Every training comment in one index: the H2 pool with H1 off."""
        return _concat(self.comments_by_post.values())


def build_train_side(
    train: list[Sample],
    texts: TextProvider,
    common_author: str | None = None,
    use_chains: bool = True,
) -> TrainSideData:
    """Index train posts by text and each post's comments by their representation.

    use_chains=False (H3 off) represents comments by raw text vectors.
    """
    comments_by_post: dict[str, SimIndex] = {}
    for s in train:
        reps = (
            all_chain_representations(s, texts)
            if use_chains
            else {c.id: texts(c.text_key) for c in s.comments}
        )
        comments_by_post[s.post_id] = build_index(
            (c.id, reps[c.id], c.author) for c in s.comments)
    post_index = build_index(
        (s.post_id, texts(s.text_key), s.resolved_author(common_author)) for s in train
    )
    return TrainSideData(post_index=post_index, comments_by_post=comments_by_post)


class _ColdSample:
    """Retrieval state shared by every cold occurrence of one sample.

    H1 hits, the author vector they give, the H2 candidate pool with its
    owners' table rows and the sample's comment-id map are computed on first
    use and reused by the sample's other occurrences. `table_mean` gives the
    user table's mean; `post_rows` gives `_owner_rows` of the post index.
    """

    def __init__(self, sample, train_side, texts, users, cfg, table_mean, post_rows):
        self.sample, self.side, self.texts, self.users, self.cfg = (
            sample, train_side, texts, users, cfg)
        self.table_mean, self.post_rows = table_mean, post_rows

    @cached_property
    def post_hits(self) -> np.ndarray:
        """H1: rows of the k1 training posts nearest this sample's post text."""
        post_vec = np.asarray(self.texts(self.sample.text_key), dtype=np.float64)
        return topk_rows(self.side.post_index, post_vec, self.cfg.k1)[0]

    @cached_property
    def author_vector(self) -> np.ndarray:
        """H1 author mapping; read-only, since every caller gets this one array."""
        if len(self.side.post_index) == 0:
            return _global_mean(self.table_mean, "empty post index")
        vec = _mean_user(self.users, self.side.post_index, self.post_rows(),
                         self.post_hits)
        vec.setflags(write=False)
        return vec

    @cached_property
    def pool(self) -> SimIndex:
        """H2 candidates: the comments under the H1 posts in hit order, or
        every training comment with H1 off."""
        if "h1" in self.cfg.heuristics:
            by_post, keys = self.side.comments_by_post, self.side.post_index.keys
            return _concat(by_post[keys[i]] for i in self.post_hits.tolist())
        return self.side.all_comments

    @cached_property
    def pool_rows(self) -> np.ndarray:
        return _owner_rows(self.pool, self.users)

    @cached_property
    def comments_by_id(self) -> dict:
        return {c.id: c for c in self.sample.comments}

    def commenter_vector(self, comment_id: str) -> np.ndarray:
        """H2 (with H3 chain sums if enabled): mean author of the k2 nearest pool rows."""
        h1 = "h1" in self.cfg.heuristics
        if h1 and len(self.side.post_index) == 0:
            return _global_mean(self.table_mean, "empty post index")
        if len(self.pool) == 0:
            if h1:
                return self.author_vector
            return _global_mean(self.table_mean, "no training comments to match")
        if "h3" in self.cfg.heuristics:
            rep = chain_prefix_representation(self.sample, comment_id, self.texts,
                                              self.comments_by_id)
        else:
            rep = self.texts(self.comments_by_id[comment_id].text_key)
        return _mean_user(self.users, self.pool, self.pool_rows,
                          topk_rows(self.pool, rep, self.cfg.k2)[0])


def map_cold_commenter(
    sample: Sample,
    comment_id: str,
    train_side: TrainSideData,
    texts: TextProvider,
    users: EmbeddingTable,
    cfg: ColdMapConfig,
) -> np.ndarray:
    """H1 narrows to similar posts, H3 transforms comments to chain sums,
    H2 retrieves the k2 nearest comments and averages their authors."""
    return _ColdSample(sample, train_side, texts, users, cfg, lambda: _table_mean(users),
                       lambda: _owner_rows(train_side.post_index, users)
                       ).commenter_vector(comment_id)


def make_resolver(
    mode: str,
    users: EmbeddingTable,
    train_side: TrainSideData | Callable[[], TrainSideData] | None = None,
    texts: TextProvider | None = None,
    cfg: ColdMapConfig | None = None,
):
    """Resolver factory for modes mean-fallback and cold-mapper.

    Known users always resolve by direct lookup; the mode only decides what
    happens for users outside the table. The cold-mapper resolver keeps the
    retrieval state of the last sample it saw, so the cold occurrences of
    one sample share their H1 hits and H2 pool. Its `train_side` may be a
    function that builds it: it is then called on the first cold occurrence
    that needs retrieval, and never if none does. The table mean and the
    post index owners' table rows are computed once, when first needed.
    """
    if mode == "mean-fallback":
        mean = _table_mean(users)

        def resolver(user_id, context):
            if user_id in users:
                return users.vector(user_id).astype(np.float64)
            return mean

        return resolver
    if mode == "cold-mapper":
        if train_side is None or texts is None or cfg is None:
            raise ValueError("cold-mapper mode needs train_side, texts, and cfg")
        h1 = "h1" in cfg.heuristics
        h2 = "h2" in cfg.heuristics
        current: _ColdSample | None = None
        table_mean = cache(lambda: _table_mean(users))
        post_rows = cache(lambda: _owner_rows(train_side.post_index, users))

        def cold(sample) -> _ColdSample:
            nonlocal current, train_side
            if callable(train_side):
                train_side = train_side()
            if current is None or current.sample is not sample:
                current = _ColdSample(sample, train_side, texts, users, cfg, table_mean,
                                      post_rows)
            return current

        def resolver(user_id, context):
            if user_id in users:
                return users.vector(user_id).astype(np.float64)
            if context[0] == "comment" and h2:
                return cold(context[1]).commenter_vector(context[2])
            if h1:
                return cold(context[1]).author_vector
            return table_mean()

        return resolver
    raise ValueError(f"unknown resolver mode {mode!r}")
