"""Per-sample node features and the local graph fed to the GNN.

Each node row is text vector || user vector (text first), stored in float32,
the GNN's compute dtype: a float64 user vector is rounded once, here. The
post is node 0, comments follow in input order, and edges mirror the
sample's reply tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .corpus import Sample
from .text import TextProvider, embed_many

# Resolver contract: (user_id, context) -> user vector. The context carries
# the occurrence (post vs a specific comment) so one user can resolve to
# different vectors in different spots of the same sample.
# context is ("post", sample) or ("comment", sample, comment_id).
UserResolver = Callable[[str, tuple], np.ndarray]


@dataclass(frozen=True)
class SampleGraph:
    node_order: tuple[str, ...]  # post_id first, then comment ids
    features: np.ndarray  # (n_nodes, feat_dim) float32
    edges: tuple[tuple[int, int], ...]  # undirected, indices into node_order
    label: Optional[int]
    sample_id: str


def occurrences(sample: Sample, common_author: Optional[str] = None
                ) -> Iterator[tuple[str, tuple]]:
    """Each node's (user_id, resolver context), in node order: the post's
    author, then each comment's author."""
    yield sample.resolved_author(common_author), ("post", sample)
    for c in sample.comments:
        yield c.author, ("comment", sample, c.id)


def text_keys(sample: Sample) -> list[str]:
    """Each node's text key, in node order."""
    return [sample.text_key, *(c.text_key for c in sample.comments)]


def assemble(
    sample: Sample,
    texts: TextProvider,
    resolver: Optional[UserResolver],
    common_author: Optional[str] = None,
) -> SampleGraph:
    """Build the node-feature matrix and tree adjacency for one sample.

    resolver=None drops user features entirely (text-only node rows). The
    sample's texts are fetched in one batch (`embed_many`).
    """
    node_order = (sample.post_id, *(c.id for c in sample.comments))
    pos = {nid: i for i, nid in enumerate(node_order)}
    text = embed_many(texts, text_keys(sample))
    user = (np.empty((len(text), 0)) if resolver is None else
            [resolver(*occ) for occ in occurrences(sample, common_author)])
    d2 = len(text[0])
    features = np.empty((len(text), d2 + len(user[0])), dtype=np.float32)
    features[:, :d2], features[:, d2:] = text, user
    return SampleGraph(
        node_order=node_order,
        features=features,
        edges=tuple((pos[p], pos[c]) for p, c in sample.edges()),
        label=sample.label,
        sample_id=sample.post_id,
    )
