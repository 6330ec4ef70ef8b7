"""Global user-interaction graph built from training cascades.

Undirected, weighted by interaction multiplicity: each comment contributes
one event between its author and the author of whatever it replies to
(the post author for top-level comments). Self-replies stay as self-loops.
The adjacency is built once, as the CSR the node2vec walker reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .corpus import Sample


@dataclass(frozen=True)
class InteractionGraph:
    nodes: tuple[str, ...]  # sorted
    edges: dict  # (u, v) sorted pair -> int weight
    # The adjacency as a CSR over `nodes`: row i lists the indices of node i's
    # neighbours in node order (a self-loop once) and their float64 weights.
    indptr: np.ndarray
    nbr: np.ndarray
    weight: np.ndarray


def build_interaction_graph(
    train: Iterable[Sample], common_author: Optional[str] = None, weighted: bool = True
) -> InteractionGraph:
    """Accumulate one event per comment; `weighted=False` collapses counts to 1."""
    nodes: set[str] = set()
    counts: Counter = Counter()
    for sample in train:
        authors = {sample.post_id: sample.resolved_author(common_author),
                   **{c.id: c.author for c in sample.comments}}
        nodes.update(authors.values())
        for c in sample.comments:
            a, b = c.author, authors[c.parent]
            counts[(a, b) if a <= b else (b, a)] += 1
    edges = {k: (v if weighted else 1) for k, v in counts.items()}
    order = sorted(nodes)
    index = {n: i for i, n in enumerate(order)}
    u, v = np.array([(index[a], index[b]) for a, b in edges], np.int64).reshape(-1, 2).T
    w = np.fromiter(edges.values(), np.float64, len(edges))
    both = u != v  # a self-loop is listed once
    src, dst = np.concatenate([u, v[both]]), np.concatenate([v, u[both]])
    w = np.concatenate([w, w[both]])
    rank = np.argsort(src * len(order) + dst)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=len(order)))])
    return InteractionGraph(tuple(order), edges, indptr, dst[rank], w[rank])


def graph_stats(g: InteractionGraph) -> dict:
    degree_hist: Counter = Counter(np.diff(g.indptr).tolist())
    return {
        "node_count": len(g.nodes),
        "edge_count": len(g.edges),
        "total_weight": sum(g.edges.values()),
        "isolated_count": degree_hist.get(0, 0),
        "degree_histogram": dict(sorted(degree_hist.items())),
    }
