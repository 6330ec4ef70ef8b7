"""Shared builders and fixtures for the test suite."""

import numpy as np
import pytest

from uen.corpus import Comment, Corpus, Sample
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
