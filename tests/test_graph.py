"""Global interaction graph construction and statistics."""

import numpy as np

from uen.corpus import corpus_users, temporal_split
from uen.graph import build_interaction_graph, graph_stats
from uen.synth import SynthConfig, generate

from conftest import edge_weight, make_comment, make_sample, star_sample


def test_star_comments_yield_post_author_edges():
    s = star_sample("p1", author="u1", commenters=("u2", "u3"))
    g = build_interaction_graph([s])
    assert g.nodes == ("u1", "u2", "u3")
    assert edge_weight(g, "u1", "u2") == 1
    assert edge_weight(g, "u1", "u3") == 1
    assert edge_weight(g, "u2", "u3") == 0


def test_reply_accumulates_weight():
    s = make_sample("p1", author="u1", comments=[
        make_comment("c1", "u2", "p1"),
        make_comment("c2", "u1", "c1"),  # u1 replies to u2's comment
    ])
    g = build_interaction_graph([s])
    assert edge_weight(g, "u1", "u2") == 2
    assert len(g.edges) == 1


def test_self_reply_is_a_self_loop():
    s = make_sample("p1", author="u1", comments=[
        make_comment("c1", "u1", "p1"),
    ])
    g = build_interaction_graph([s])
    assert edge_weight(g, "u1", "u1") == 1
    assert g.nodes == ("u1",)
    assert g.indptr.tolist() == [0, 1] and g.nbr.tolist() == [0]  # listed once


def test_unweighted_flag_collapses_counts():
    s = make_sample("p1", author="u1", comments=[
        make_comment("c1", "u2", "p1"),
        make_comment("c2", "u2", "p1"),
    ])
    assert edge_weight(build_interaction_graph([s]), "u1", "u2") == 2
    assert edge_weight(build_interaction_graph([s], weighted=False), "u1", "u2") == 1


def test_node_count_matches_set_union_oracle():
    corpus = generate(SynthConfig(n_samples=300, n_users=50, seed=2))
    train = temporal_split(corpus).train
    g = build_interaction_graph(train)
    assert g.nodes == tuple(sorted(corpus_users(train)))


def test_edge_and_weight_oracle_recount():
    corpus = generate(SynthConfig(n_samples=300, n_users=50, seed=2))
    train = temporal_split(corpus).train
    g = build_interaction_graph(train)
    # re-scan raw events independently
    events = set()
    total = 0
    for s in train:
        authors = {s.post_id: s.author}
        authors.update({c.id: c.author for c in s.comments})
        for c in s.comments:
            pair = tuple(sorted((c.author, authors[c.parent])))
            events.add(pair)
            total += 1
    stats = graph_stats(g)
    assert stats["edge_count"] == len(events)
    assert stats["total_weight"] == total
    assert stats["total_weight"] == sum(len(s.comments) for s in train)


def test_empty_train_gives_zero_stats():
    stats = graph_stats(build_interaction_graph([]))
    assert stats["node_count"] == 0
    assert stats["edge_count"] == 0
    assert stats["total_weight"] == 0
    assert stats["isolated_count"] == 0


def test_triangle_stats():
    samples = [
        star_sample("p1", author="u1", commenters=("u2",)),
        star_sample("p2", author="u2", commenters=("u3",)),
        star_sample("p3", author="u3", commenters=("u1",)),
    ]
    stats = graph_stats(build_interaction_graph(samples))
    assert stats["node_count"] == 3
    assert stats["edge_count"] == 3
    assert stats["total_weight"] == 3


def test_adjacency_symmetry():
    """The CSR holds each edge of `g.edges` in both rows (a self-loop in its
    one row), and its `row * V + nbr` keys rise strictly: each row lists its
    neighbours once, in node order."""
    corpus = generate(SynthConfig(n_samples=120, n_users=30, seed=5))
    g = build_interaction_graph(corpus.samples)
    v = len(g.nodes)
    rows = np.repeat(np.arange(v), np.diff(g.indptr))
    entries = {(g.nodes[i], g.nodes[j]): w for i, j, w in zip(rows, g.nbr, g.weight)}
    assert entries == {**g.edges, **{(b, a): w for (a, b), w in g.edges.items()}}
    assert g.weight.dtype == np.float64
    assert np.all(np.diff(rows * v + g.nbr) > 0)


def test_common_author_becomes_hub_node():
    s = make_sample("p1", author=None, comments=[make_comment("c1", "u2", "p1")])
    g = build_interaction_graph([s], common_author="__common__")
    assert edge_weight(g, "__common__", "u2") == 1

