"""Global user-interaction graph built from training cascades.

Undirected, weighted by interaction multiplicity: each comment contributes
one event between its author and the author of whatever it replies to
(the post author for top-level comments). Self-replies stay as self-loops.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .corpus import Sample


def _key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class InteractionGraph:
    nodes: frozenset[str]
    edges: dict  # (u, v) sorted pair -> int weight
    adjacency: dict  # node -> tuple of (neighbor, weight)

    def neighbors(self, u: str) -> tuple[tuple[str, float], ...]:
        return self.adjacency.get(u, ())


def build_interaction_graph(
    train: Iterable[Sample], common_author: Optional[str] = None, weighted: bool = True
) -> InteractionGraph:
    """Accumulate one event per comment; `weighted=False` collapses counts to 1."""
    nodes: set[str] = set()
    counts: Counter = Counter()
    for sample in train:
        post_author = sample.resolved_author(common_author)
        nodes.add(post_author)
        authors = {sample.post_id: post_author}
        for c in sample.comments:
            authors[c.id] = c.author
        for c in sample.comments:
            nodes.add(c.author)
            counts[_key(c.author, authors[c.parent])] += 1
    edges = {k: (v if weighted else 1) for k, v in counts.items()}
    adj: dict[str, list[tuple[str, int]]] = {u: [] for u in nodes}
    for (u, v), w in edges.items():
        adj[u].append((v, w))
        if v != u:
            adj[v].append((u, w))
    adjacency = {u: tuple(sorted(nbrs)) for u, nbrs in adj.items()}
    return InteractionGraph(nodes=frozenset(nodes), edges=edges, adjacency=adjacency)


def graph_stats(g: InteractionGraph) -> dict:
    degree_hist: Counter = Counter(len(g.adjacency[u]) for u in g.nodes)
    return {
        "node_count": len(g.nodes),
        "edge_count": len(g.edges),
        "total_weight": sum(g.edges.values()),
        "isolated_count": degree_hist.get(0, 0),
        "degree_histogram": dict(sorted(degree_hist.items())),
    }

