"""Cold-user resolution via exact top-k cosine retrieval.

Three heuristics approximate a missing user vector from training data:
H1 finds authors of textually similar posts, H2 finds authors of similar
comments under those posts, H3 compares comments by their reply-chain
prefix sums instead of raw text. Each needs the one before it, so the
mapper runs at one of the four nested `HEURISTIC_LEVELS`. The index is a
brute-force normalized matrix scan, exact by construction.

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
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable

import numpy as np

from .assembly import text_keys
from .corpus import Sample, check_fields, reply_order
from .embedding import EmbeddingTable, FormatError
from .text import TextProvider, embed_many

logger = logging.getLogger(__name__)


# none, then each heuristic with every one it builds on: H2 searches the
# comments under H1's posts, and H3 is how H2 represents those comments
HEURISTIC_LEVELS = tuple(frozenset(("h1", "h2", "h3")[:n]) for n in range(4))


@dataclass(frozen=True)
class ColdMapConfig:
    k1: int = 19
    k2: int = 72
    heuristics: frozenset = HEURISTIC_LEVELS[-1]

    def __post_init__(self):
        check_fields(self, minimum={"k2": None})  # k2 is bounded only under H2, below
        if self.heuristics not in HEURISTIC_LEVELS:
            raise ValueError(f"heuristics {sorted(self.heuristics)} must be one of "
                             f"{[sorted(h) for h in HEURISTIC_LEVELS]}: H2 searches the "
                             "comments under H1's posts, and H3 is how H2 represents them")
        if "h2" in self.heuristics and self.k2 < 1:
            raise ValueError("k2 must be >= 1 when H2 is enabled")
        object.__setattr__(self, "heuristics", frozenset(self.heuristics))  # a set is let in


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


INDEX_BLOCK = 256  # rows that build_index normalizes with one set of numpy calls


def build_index(entries) -> SimIndex:
    """entries: iterable of (key, vector, owner). Rows are normalized here.

    The rows are normalized INDEX_BLOCK at a time, in float64, into a float32
    matrix allocated up front: a row-at-a-time loop costs about five numpy
    calls per row, and staging every row in float64 at once raises peak
    memory. Each row's norm is `np.linalg.norm`'s, sqrt(x.dot(x)): the
    stacked (n, 1, d) @ (n, d, 1) product makes the same BLAS dot per row.
    The nonzero rows are divided elementwise and rounded once to float32, so
    every bit matches normalizing each row on its own. The first entry of
    the wrong dimension or with a non-finite value is the one reported.
    """
    keys, vecs, owners = [], [], []
    for key, vec, owner in entries:
        keys.append(key)
        vecs.append(vec)
        owners.append(owner)
    dim = len(vecs[0]) if vecs else 0
    bad = next((i for i, vec in enumerate(vecs) if len(vec) != dim), len(vecs))
    matrix = np.empty((len(vecs), dim), dtype=np.float32)
    for lo in range(0, bad, INDEX_BLOCK):
        hi = min(lo + INDEX_BLOCK, bad)
        block = np.array(vecs[lo:hi], dtype=np.float64)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise FormatError(f"index entry {keys[lo + int(np.argmin(finite))]!r}: "
                              "non-finite vector")
        norms = np.sqrt(block[:, None, :] @ block[:, :, None]).reshape(-1)
        matrix[lo:hi] = np.divide(block, norms[:, None], out=block, where=norms[:, None] > 0)
    if bad < len(vecs):
        raise FormatError(f"index entry {keys[bad]!r}: dimension {len(vecs[bad])} != {dim}")
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


def _global_mean(mean: np.ndarray, why: str) -> np.ndarray:
    logger.warning("%s; falling back to global mean user vector", why)
    return mean


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
    chains: bool  # comments are represented by chain sums (H3), not raw texts


def comment_representations(sample: Sample, texts: TextProvider,
                            use_chains: bool) -> dict[str, np.ndarray]:
    """How H2 represents each comment of `sample`, by comment id: its raw text
    vector, or with H3 on (`use_chains`) its reply-chain prefix sum in float64,
    its text vector plus its parent comment's sum (in `reply_order`)."""
    if not use_chains:
        return {c.id: texts(c.text_key) for c in sample.comments}
    sums: dict[str, np.ndarray] = {}
    for c in reply_order(sample):
        vec = np.asarray(texts(c.text_key), dtype=np.float64)
        sums[c.id] = vec + sums[c.parent] if c.parent in sums else vec
    return sums


def build_train_side(
    train: list[Sample],
    texts: TextProvider,
    common_author: str | None = None,
    use_chains: bool = True,
) -> TrainSideData:
    """Index train posts by text and each post's comments by their representation.

    use_chains=False (H3 off) represents comments by raw text vectors. Each
    sample's texts are fetched in one batch.
    """
    comments_by_post: dict[str, SimIndex] = {}
    post_vecs = []
    for s in train:
        keys = text_keys(s)
        vecs = dict(zip(keys, embed_many(texts, keys)))
        post_vecs.append(vecs[s.text_key])
        reps = comment_representations(s, vecs.__getitem__, use_chains)
        comments_by_post[s.post_id] = build_index(
            (c.id, reps[c.id], c.author) for c in s.comments)
    post_index = build_index(
        (s.post_id, vec, s.resolved_author(common_author)) for s, vec in zip(train, post_vecs)
    )
    return TrainSideData(post_index=post_index, comments_by_post=comments_by_post,
                         chains=bool(use_chains))


_REPS = {True: "reply-chain sums", False: "raw comment texts"}


class _ColdSample:
    """Retrieval state shared by every cold occurrence of one sample: its
    text vectors, H1 hits, the author vector they give, the H2 candidate pool
    with its owners' table rows and the sample's comment representations,
    each made on first use.
    """

    def __init__(self, mapper: _ColdMapper, sample: Sample):
        # weak, as the mapper holds its last sample: a cycle would keep the
        # train side and the text cache alive until the cycle collector ran
        self.mapper, self.sample, self.side = weakref.proxy(mapper), sample, mapper.side

    @cached_property
    def vecs(self) -> dict:
        """The sample's text vectors by key, fetched in one batch."""
        keys = text_keys(self.sample)
        return dict(zip(keys, embed_many(self.mapper.texts, keys)))

    @cached_property
    def post_hits(self) -> np.ndarray:
        """H1: rows of the k1 training posts nearest this sample's post text."""
        post_vec = np.asarray(self.vecs[self.sample.text_key], dtype=np.float64)
        return topk_rows(self.side.post_index, post_vec, self.mapper.cfg.k1)[0]

    @cached_property
    def author_vector(self) -> np.ndarray:
        """H1 author mapping; read-only, since every caller gets this one array."""
        if len(self.side.post_index) == 0:
            return _global_mean(self.mapper.table_mean, "empty post index")
        vec = _mean_user(self.mapper.users, self.side.post_index, self.mapper.post_rows,
                         self.post_hits)
        vec.setflags(write=False)
        return vec

    @cached_property
    def pool(self) -> SimIndex:
        """H2 candidates: the comments under the H1 posts in hit order."""
        by_post, keys = self.side.comments_by_post, self.side.post_index.keys
        return _concat(by_post[keys[i]] for i in self.post_hits.tolist())

    @cached_property
    def pool_rows(self) -> np.ndarray:
        return _owner_rows(self.pool, self.mapper.users)

    @cached_property
    def comment_reps(self) -> dict:
        return comment_representations(self.sample, self.vecs.__getitem__,
                                       "h3" in self.mapper.cfg.heuristics)

    def commenter_vector(self, comment_id: str) -> np.ndarray:
        """H2 (with H3 chain sums if enabled): mean author of the k2 nearest pool rows."""
        if len(self.side.post_index) == 0:
            return _global_mean(self.mapper.table_mean, "empty post index")
        if len(self.pool) == 0:  # the H1 posts have no comments
            return self.author_vector
        return _mean_user(self.mapper.users, self.pool, self.pool_rows,
                          topk_rows(self.pool, self.comment_reps[comment_id],
                                    self.mapper.cfg.k2)[0])


class _ColdMapper:
    """The user resolver: a user in the table is looked up, a cold one mapped.

    The cold occurrences of one sample share the `_ColdSample` of the last
    sample mapped. `train_side` may be a function that builds it on the first
    cold occurrence that needs retrieval; with no heuristics none does.
    """

    def __init__(self, users, cfg: ColdMapConfig, train_side=None, texts=None):
        self.users, self.cfg, self.texts, self._train_side = users, cfg, texts, train_side
        self.last: _ColdSample | None = None

    def __call__(self, user_id: str, context: tuple) -> np.ndarray:
        if user_id in self.users:
            return self.users.vector(user_id).astype(np.float64)
        return self.cold(context)

    def cold(self, context: tuple) -> np.ndarray:
        """The mapped vector of a cold user's occurrence: H2 for a comment when
        enabled, else H1's author mapping, else the table mean."""
        if context[0] == "comment" and "h2" in self.cfg.heuristics:
            return self._sample(context[1]).commenter_vector(context[2])
        if "h1" in self.cfg.heuristics:
            return self._sample(context[1]).author_vector
        return self.table_mean

    def _sample(self, sample: Sample) -> _ColdSample:
        if self.last is None or self.last.sample is not sample:
            self.last = _ColdSample(self, sample)
        return self.last

    @cached_property
    def table_mean(self) -> np.ndarray:
        """The table's column mean in float64; read-only, since callers share it."""
        mean = self.users.mean_vector().astype(np.float64)
        mean.setflags(write=False)
        return mean

    @cached_property
    def side(self) -> TrainSideData:
        """The train side, checked once to represent comments as H2 compares them."""
        side = self._train_side() if callable(self._train_side) else self._train_side
        chains = "h3" in self.cfg.heuristics
        if "h2" in self.cfg.heuristics and side.chains != chains:
            raise ValueError(f"the train side represents comments by {_REPS[side.chains]}, "
                             f"but heuristics {sorted(self.cfg.heuristics)} compare "
                             f"{_REPS[chains]}; build it with use_chains={chains}")
        return side

    @cached_property
    def post_rows(self) -> np.ndarray:
        return _owner_rows(self.side.post_index, self.users)


def make_resolver(
    mode: str,
    users: EmbeddingTable,
    train_side: TrainSideData | Callable[[], TrainSideData] | None = None,
    texts: TextProvider | None = None,
    cfg: ColdMapConfig | None = None,
) -> _ColdMapper:
    """The resolver of mode cold-mapper, a `_ColdMapper` with `cfg`: the one
    way to map a cold user. With no heuristics it needs no train side or texts."""
    if mode != "cold-mapper":
        raise ValueError(f"unknown resolver mode {mode!r}")
    if cfg is None or cfg.heuristics and (train_side is None or texts is None):
        raise ValueError("cold-mapper mode needs train_side, texts, and cfg")
    return _ColdMapper(users, cfg, train_side, texts)
