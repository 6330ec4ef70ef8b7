"""Cold-user resolution via exact top-k cosine retrieval.

Three heuristics approximate a missing user vector from training data:
H1 finds authors of textually similar posts, H2 finds authors of similar
comments under those posts, H3 compares comments by their reply-chain
prefix sums instead of raw text. Each needs the one before it, so the
mapper runs at one of the four nested `HEURISTIC_LEVELS`. Retrieval is
exact: every hit is what a float64 scan of the normalized rows, ranked by
(-score, key), gives.

Retrieval works on row numbers throughout. `topk_rows`, the float64 scan,
keeps the rows that an `np.partition` puts at or above the k-th score and
orders them with one `np.lexsort` by (-score, dense rank of the key), the
ranks (`_key_ranks`) being cached per index. H1 first tries
`certified_topk_rows`, which scores the query in float32, over the nonzero
coordinates alone for a sparse query, and returns rows only when the gaps
between the k + 1 best scores exceed the rounding error of both scans, so
they prove the scan's rows without running it. Hash text vectors tie often
in exact arithmetic below the first few ranks, and only the scan orders
those ties, so the share proven falls with k1: 72-74% of cold-serve posts
at k1 = 7, 9-11% at k1 = 19, none at k1 = 40. A resolver stops trying
after `MISS_LIMIT` misses in a row.

A resolver holds the last cascade's retrieval, and `_ColdMapper.cold`
alone chooses the table mean, H2 or H1's author vector. H2 maps a
cascade's cold commenters in one pass: each query is scored by its own
gemv against the cascade's pool, the score columns are put in key order
(the train side ranks every training comment's key once), and one stable
sort of the negated scores picks every query's hits. Every train-side
owner's user-table row is looked up once per resolver, so the means over
hit authors are one gather and one reduce; a table that lacks a training
owner is refused at the first cold occurrence that needs retrieval. None
of this changes a bit of what a full (-score, key) sort and a mean of
per-author rows, one query at a time, would give.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property
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
    vectors: np.ndarray  # (n, d) float32, rows L2-normalized (or zero)
    owners: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @cached_property
    def vectors64(self) -> np.ndarray:
        """`vectors` as a C-contiguous float64 array, the precision queries are
        scored in, made once: a gemv over column-major rows rounds differently."""
        return np.ascontiguousarray(self.vectors, dtype=np.float64)

    @cached_property
    def columns(self) -> tuple[np.ndarray, float]:
        """`vectors` as a C-contiguous (d, n) float32 array, so a sparse
        query reads only the rows of its nonzero coordinates, and the margin
        m that `certified_topk_rows` proves rows with; made once. The train
        side holds the post index's rows column-major, so for it the array is
        a view of `vectors`, not a copy.

        m = 2(d + 1)·2⁻²⁴·max(r, 1), r the largest row norm, exceeds the sum
        of two dot-product error bounds (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., §3.1), with room for the rounding of r
        and of the query's norm: a float64 dot of a row with a unit query is
        within γ_d·r of the exact value, in any order and with or without
        FMA, and a float32 one, with the query rounded to float32, within
        (γ32_d + 2⁻²⁴)·r, or another 2⁻²⁴·r more when the rows are held in
        float64 and rounded here. Past r ≥ 2¹⁰⁰ (float32 sums could
        overflow) or d ≥ 2¹⁶ the margin is infinite and proves nothing.
        """
        d = self.dim
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64))
        r = float(norms.max(initial=0.0))
        margin = 2 * (d + 1) * 2.0**-24 * max(r, 1.0) if r < 2.0**100 and d < 2**16 else np.inf
        return np.ascontiguousarray(self.vectors.T, dtype=np.float32), margin

    @cached_property
    def rank(self) -> np.ndarray:
        """Each row's `_key_ranks` among this index's keys; made once."""
        return _key_ranks([self])[0]


def _key_ranks(indexes: list[SimIndex]) -> list[np.ndarray]:
    """Each index's rows' dense rank by key among every key of `indexes`
    (equal keys share a rank), so a stable sort of rows in row order by rank
    orders them by key, equal keys in row order."""
    keys = sorted({key for index in indexes for key in index.keys})
    rank = {key: r for r, key in enumerate(keys)}
    return [np.fromiter(map(rank.__getitem__, index.keys), dtype=np.intp, count=len(index))
            for index in indexes]


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


def certified_topk_rows(index: SimIndex, query: np.ndarray, k: int) -> np.ndarray | None:
    """`topk_rows(index, query, k)[0]` when float32 scores prove it, else None.

    The query is scored against `index.columns` in float32, over the rows
    of its nonzero coordinates alone when they are at most d/4 of them.
    When each adjacent gap between the k + 1 best float32 scores exceeds
    2m (`SimIndex.columns`' margin), every float64 score of the scan is
    within m of its float32 score, so the scan orders those rows the same
    way, strictly, and puts every other row below the k-th: key ranks never
    decide. Ties in exact arithmetic, or gaps within rounding, give None,
    and so do k <= 0 and k >= n, which need no proof.
    """
    n = len(index)
    if not 0 < k < n:
        return None
    columns, margin = index.columns
    q = _unit_query(query, index.dim)
    nonzero = np.flatnonzero(q)
    if 4 * len(nonzero) <= len(q):
        scores = q.take(nonzero).astype(np.float32) @ columns.take(nonzero, axis=0)
    else:
        scores = q.astype(np.float32) @ columns
    best = np.argpartition(scores, n - k - 1)[n - k - 1:]
    best = best[np.argsort(-scores[best])]
    ranked = scores[best].astype(np.float64)
    return best[:k] if (ranked[:-1] - ranked[1:] > 2 * margin).all() else None


def _mean_user(users: EmbeddingTable, owner_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean table vector of the owners of index rows `rows`, gathered at once;
    `owner_rows` holds each index row's owner's row in `users`."""
    # what .mean(axis=0) computes, without its wrapper calls
    gathered = users.matrix.take(owner_rows.take(rows), axis=0).astype(np.float64)
    return np.add.reduce(gathered, axis=0) / len(rows)


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

    @cached_property
    def comment_ranks(self) -> dict:
        """post_id -> its comments' `_key_ranks` among every training
        comment; made once, so an H2 pool's rows are put in key order by it."""
        return dict(zip(self.comments_by_post, _key_ranks(list(self.comments_by_post.values()))))


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
    # column-major, so that `SimIndex.columns` is a view of these rows
    post_index = replace(post_index, vectors=np.asfortranarray(post_index.vectors))
    return TrainSideData(post_index=post_index, comments_by_post=comments_by_post,
                         chains=bool(use_chains))


MISS_LIMIT = 16  # unproven H1 queries in a row after which a resolver stops trying

_REPS = {True: "reply-chain sums", False: "raw comment texts"}


class _ColdMapper:
    """The user resolver: a user in the table is looked up, a cold one mapped.

    It holds the retrieval of the last sample it mapped: the sample, its
    text vectors and H1 hits, replaced together when a cold occurrence of
    another sample arrives, then the author vector, the H2 pool with the
    sample's comment representations and the H2 vector of each comment
    mapped, each made on first need. `train_side` may be a function that
    builds it on the first cold occurrence that needs retrieval; with no
    heuristics none does.
    """

    def __init__(self, users, cfg: ColdMapConfig, train_side=None, texts=None):
        self.users, self.cfg, self.texts, self._train_side = users, cfg, texts, train_side
        self.sample = self.vecs = self.post_hits = self.author = self.pool = self.mapped = None
        self.misses = 0  # H1 queries in a row that float32 scores did not prove

    def __call__(self, user_id: str, context: tuple) -> np.ndarray:
        if user_id in self.users:
            return self.users.vector(user_id).astype(np.float64)
        return self.cold(context)

    def cold(self, context: tuple) -> np.ndarray:
        """The mapped vector of a cold user's occurrence: the table mean when
        `retrieval` is None, H2 for a comment when it is "h2" and the H1
        posts have comments, else H1's author vector."""
        retrieval, sample = self.retrieval, context[1]
        if retrieval is None:
            return self.table_mean
        if sample is not self.sample:
            keys = text_keys(sample)
            vecs = dict(zip(keys, embed_many(self.texts, keys)))
            hits = self.h1_rows(np.asarray(vecs[sample.text_key], dtype=np.float64))
            self.sample, self.vecs, self.post_hits, self.author, self.pool, self.mapped = (
                sample, vecs, hits, None, None, None)
        if retrieval == "h2" and context[0] == "comment" and self.h2_pool():
            return self.commenter_vector(context[2])
        if self.author is None:
            self.author = _mean_user(self.users, self.owner_rows[None], self.post_hits)
            self.author.setflags(write=False)  # every caller gets this one array
        return self.author

    def h2_pool(self) -> tuple:
        """H2 candidates, the comments under the H1 posts in hit order, as
        (float64 rows, the row order by key, each row's owner's table row,
        the sample's comment representations), made on first need; () when
        those posts have no comments."""
        if self.pool is None:
            keys, by_post = self.side.post_index.keys, self.side.comments_by_post
            posts = [keys[i] for i in self.post_hits.tolist() if len(by_post[keys[i]])]
            ranks = self.side.comment_ranks
            self.pool = (
                np.concatenate([by_post[p].vectors for p in posts], dtype=np.float64),
                np.argsort(np.concatenate([ranks[p] for p in posts]), kind="stable"),
                np.concatenate([self.owner_rows[p] for p in posts]),
                comment_representations(self.sample, self.vecs.__getitem__, self.side.chains),
            ) if posts else ()
        return self.pool

    def _h2(self, comment_ids: list) -> dict:
        """H2 (with H3 chain sums if enabled) for each of `comment_ids`: the
        mean author of its k2 nearest pool rows, by comment id.

        Each query has its own gemv (one product over the stacked queries
        rounds differently). One stable sort of the negated, key-ordered
        scores ranks every query's rows as `topk_rows` does, and one gather
        and float64 reduce takes every mean, as `_mean_user` does per query.
        """
        vectors, order, owner_rows, reps = self.pool
        scores = np.empty((len(comment_ids), len(order)))
        for i, comment_id in enumerate(comment_ids):
            np.matmul(vectors, _unit_query(reps[comment_id], vectors.shape[1]), out=scores[i])
        k = min(self.cfg.k2, len(order))
        hits = order.take(np.argsort(-scores.take(order, axis=1), axis=1, kind="stable")[:, :k])
        means = np.add.reduce(self.users.matrix.take(owner_rows.take(hits), axis=0)
                              .astype(np.float64), axis=1) / k
        means.setflags(write=False)
        return dict(zip(comment_ids, means))

    def commenter_vector(self, comment_id: str) -> np.ndarray:
        """The H2 vector of a comment, read-only. The first request maps
        every comment whose author is not in the table; any other comment is
        mapped on its own when it is asked for."""
        if self.mapped is None:
            self.mapped = self._h2([c.id for c in self.sample.comments
                                    if c.author not in self.users])
        if comment_id not in self.mapped:
            self.mapped.update(self._h2([comment_id]))
        return self.mapped[comment_id]

    def h1_rows(self, post_vec: np.ndarray) -> np.ndarray:
        """H1's k1 nearest training posts, as `topk_rows` ranks them. They
        are proven from float32 scores when they can be; after MISS_LIMIT
        misses in a row (rows tied in exact arithmetic, as ±1 hash counts
        often are below the first few ranks, only the scan can order) this
        resolver stops trying and runs the float64 scan alone."""
        index, k = self.side.post_index, self.cfg.k1
        if self.misses < MISS_LIMIT:
            rows = certified_topk_rows(index, post_vec, k)
            if rows is not None:
                self.misses = 0
                return rows
            self.misses += 1
        return topk_rows(index, post_vec, k)[0]

    @cached_property
    def retrieval(self) -> str | None:
        """How a cold occurrence is mapped, chosen once: None for the table
        mean (no heuristics, or no training posts), "h2" when a comment goes
        to H2 if its H1 posts have comments, else "h1", H1's author mapping
        for every occurrence."""
        if not self.cfg.heuristics or len(self.side.post_index) == 0:
            return None
        return "h2" if "h2" in self.cfg.heuristics else "h1"

    @cached_property
    def owner_rows(self) -> dict:
        """Each train-side index row's owner's row in the table, by post id
        (None for the post index), looked up once. A table without some
        training owner is refused, naming the first one: in the post index,
        then in each post's comments."""
        side, where = self.side, self.users.index
        try:
            return {post: np.fromiter(map(where.__getitem__, index.owners), dtype=np.intp,
                                      count=len(index))
                    for post, index in {None: side.post_index, **side.comments_by_post}.items()}
        except KeyError as exc:
            raise FormatError(f"training user {exc.args[0]!r} has no row in the user table; "
                              "embed the users of this training split") from None

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
        if len(side.post_index) == 0:
            logger.warning("empty post index; falling back to global mean user vector")
        return side


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
