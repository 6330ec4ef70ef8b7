"""Shared builders and fixtures for the test suite."""

from dataclasses import replace

import numpy as np
import pytest

from uen.corpus import Comment, Corpus, Sample
from uen.gnn import GnnConfig, _evaluate, _split
from uen.text import TextEmbedConfig, make_hash_provider


def make_comment(cid, author, parent, text_key=None, timestamp=100):
    return Comment(
        id=cid,
        author=author,
        parent=parent,
        text_key=text_key or f"text {cid}",
        timestamp=timestamp,
    )


def make_sample(post_id, author="poster", comments=(), text_key=None,
                timestamp=10, label=0):
    return Sample(
        post_id=post_id,
        author=author,
        text_key=text_key or f"text {post_id}",
        timestamp=timestamp,
        comments=tuple(comments),
        label=label,
    )


def chain_sample(post_id="p1", depth=3, label=0, timestamp=10):
    """One post with a single reply chain c0 <- c1 <- ... of the given depth."""
    comments = []
    parent = post_id
    for i in range(depth):
        cid = f"{post_id}c{i}"
        comments.append(make_comment(cid, f"u{i}", parent, timestamp=timestamp + i + 1))
        parent = cid
    return make_sample(post_id, comments=comments, timestamp=timestamp, label=label)


def star_sample(post_id="p1", author="poster", commenters=("a", "b"), label=0,
                timestamp=10):
    """One post with every comment directly on the post."""
    comments = [
        make_comment(f"{post_id}c{i}", u, post_id, timestamp=timestamp + i + 1)
        for i, u in enumerate(commenters)
    ]
    return make_sample(post_id, author=author, comments=comments,
                       timestamp=timestamp, label=label)


def toy_corpus(n=12):
    """n labeled star samples with increasing timestamps."""
    samples = [
        star_sample(f"p{i:03d}", author=f"poster{i % 3}",
                    commenters=(f"u{i % 4}", f"u{(i + 1) % 4}"),
                    label=i % 2, timestamp=100 + i)
        for i in range(n)
    ]
    return Corpus(samples=tuple(samples))


@pytest.fixture
def texts():
    return make_hash_provider(TextEmbedConfig())


def table_mean_resolver(users):
    """The cold mapper with no heuristics: a cold user gets the table mean."""
    from uen.coldmap import ColdMapConfig, make_resolver

    return make_resolver("cold-mapper", users, cfg=ColdMapConfig(heuristics=frozenset()))


def random_user_table(users, d1=8, seed=0):
    from uen.embedding import EmbeddingTable

    rng = np.random.Generator(np.random.PCG64(seed))
    return EmbeddingTable.from_rows(
        list(users), rng.normal(size=(len(users), d1)).astype(np.float32)
    )


def nan_weight(params):
    params.tensors["layer1.W"][0, 0] = np.nan


def renamed_tensor(params):
    params.tensors["layer0.V"] = params.tensors.pop("layer0.W")


def unknown_arch(params):
    params.arch = "gcm"


def layers_below_tensors(params):
    params.layers = 2


# In-place edits that leave a 3-layer gcn/gat ModelParams inconsistent.
MODEL_DEFECTS = [nan_weight, renamed_tensor, unknown_arch, layers_below_tensors]


# ---------------------------------------------------------------------------
# reference implementations the library's fast paths are checked against


def chain_prefix_representation(sample, comment_id, texts):
    """Sum of text vectors from the first-level comment down to comment_id.

    The post's own text vector is excluded; a top-level comment is just its
    own vector. The sum runs from comment_id up to the root.
    """
    by_id = {c.id: c for c in sample.comments}
    if comment_id not in by_id:
        raise KeyError(f"comment {comment_id!r} not in sample {sample.post_id!r}")
    total = None
    cur = by_id[comment_id]
    while True:
        vec = np.asarray(texts(cur.text_key), dtype=np.float64)
        total = vec if total is None else total + vec
        if cur.parent == sample.post_id:
            return total
        cur = by_id[cur.parent]


def neighbours(g, u):
    """{neighbour: weight} of user u in g, in node order, read from g.edges
    (not from the adjacency the walker reads)."""
    return dict(sorted((b if a == u else a, w) for (a, b), w in g.edges.items() if u in (a, b)))


def next_step_distribution(g, prev, cur, p, q):
    """Normalized node2vec transition probabilities out of `cur` given the
    previous node.

    Bias alpha: 1/p to return to prev, 1 to a common neighbor of prev,
    1/q otherwise; the first step (prev=None) is weight-proportional.
    """
    nbrs = neighbours(g, cur)
    if not nbrs:
        return {}
    if prev is None:
        weights = {x: float(w) for x, w in nbrs.items()}
    else:
        prev_adj = neighbours(g, prev)
        weights = {}
        for x, w in nbrs.items():
            if x == prev:
                alpha = 1.0 / p
            elif x in prev_adj:
                alpha = 1.0
            else:
                alpha = 1.0 / q
            weights[x] = float(w) * alpha
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def edge_weight(g, u, v):
    """The interaction count between users u and v in graph g; 0 without an edge."""
    return g.edges.get((u, v) if u <= v else (v, u), 0)


def evaluate_loss(params, samples, batch_size=GnnConfig.batch_size):
    """(mean loss, accuracy) over labeled samples, `batch_size` at a time:
    the validation pass of `gnn.train`, run on any model and graphs."""
    return _evaluate(params, _split(samples, params, labeled=True), batch_size)


def zeros_like(params):
    """A copy of `params` with every tensor zeroed."""
    return replace(params, tensors={k: np.zeros_like(v) for k, v in params.tensors.items()})
