"""Per-sample feature assembly and comment-chain prefix sums."""

import numpy as np
import pytest

from uen.assembly import assemble
from uen.coldmap import ColdMapConfig, make_resolver

from conftest import (
    chain_prefix_representation,
    chain_sample,
    make_comment,
    make_sample,
    random_user_table,
    star_sample,
    table_mean_resolver,
)


def test_smallest_sample_shapes(texts):
    s = star_sample("p1", author="u1", commenters=("u2",))
    users = random_user_table(["u1", "u2"], d1=128)
    g = assemble(s, texts, table_mean_resolver(users))
    assert g.features.shape == (2, 384)
    assert g.edges == ((0, 1),)
    assert g.node_order == ("p1", "p1c0")
    assert g.label == s.label
    assert g.sample_id == "p1"


def test_known_author_suffix_is_direct_lookup(texts):
    s = star_sample("p1", author="u1", commenters=("u2",))
    users = random_user_table(["u1", "u2"], d1=8)
    g = assemble(s, texts, table_mean_resolver(users))
    assert np.allclose(g.features[0, 256:], users.vector("u1"))
    assert np.allclose(g.features[1, 256:], users.vector("u2"))


def test_cold_author_mean_fallback_suffix(texts):
    s = star_sample("p1", author="stranger", commenters=("u2",))
    users = random_user_table(["u1", "u2"], d1=8)
    g = assemble(s, texts, table_mean_resolver(users))
    assert np.allclose(g.features[0, 256:], users.mean_vector())


def test_concatenation_order_with_sentinels(texts):
    s = star_sample("p1", author="u1", commenters=("u2",))
    d2, d1 = 4, 3

    def sentinel_texts(_):
        return np.full(d2, 7.0)

    def sentinel_resolver(user_id, context):
        return np.full(d1, -5.0)

    g = assemble(s, sentinel_texts, sentinel_resolver)
    assert np.all(g.features[:, :d2] == 7.0)
    assert np.all(g.features[:, d2:] == -5.0)
    # each row is the float32 cast of the float64 text || user row, byte for
    # byte: resolved post author first, then each comment in input order
    s = chain_sample("p1", depth=4)  # poster, then u0..u3
    users = random_user_table(["poster", "u1", "u3"], d1=8)  # u0 and u2 are cold
    inner = table_mean_resolver(users)
    calls = []

    def resolver(user_id, context):
        calls.append((user_id, context))
        return inner(user_id, context)

    g = assemble(s, texts, resolver)
    nodes = _keys_and_occurrences(s)
    assert calls == [(user, ctx) for _, user, ctx in nodes]
    assert g.features.dtype == np.float32 and g.features.shape == (5, 264)
    for row, (key, user, ctx) in zip(g.features, nodes):
        expected = np.concatenate([texts(key), inner(user, ctx)], dtype=np.float64)
        assert row.tobytes() == expected.astype(np.float32).tobytes()


def _keys_and_occurrences(s):
    """Each node's text key, user and resolver context, post first."""
    return [(s.text_key, s.author, ("post", s))] + [
        (c.text_key, c.author, ("comment", s, c.id)) for c in s.comments]


def test_resolver_none_gives_text_only_rows(texts):
    s = star_sample("p1", author="u1", commenters=("u2", "u3"))
    g = assemble(s, texts, None)
    assert g.features.shape == (3, 256)
    assert np.allclose(g.features[0], texts(s.text_key))
    s = chain_sample("p1", depth=4)
    g = assemble(s, texts, None)
    assert g.features.dtype == np.float32 and g.features.shape == (5, 256)
    for row, (key, _, _) in zip(g.features, _keys_and_occurrences(s)):
        expected = np.asarray(texts(key), dtype=np.float64)
        assert row.tobytes() == expected.astype(np.float32).tobytes()


def test_edges_mirror_reply_tree(texts):
    s = chain_sample("p1", depth=3)
    g = assemble(s, texts, None)
    # chain: post-c0, c0-c1, c1-c2
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert len(g.edges) == len(g.node_order) - 1


def test_resolver_receives_occurrence_context(texts):
    s = star_sample("p1", author="dual", commenters=("dual",))
    seen = []

    def resolver(user_id, context):
        seen.append((user_id, context[0]))
        return np.zeros(2)

    assemble(s, texts, resolver)
    assert seen == [("dual", "post"), ("dual", "comment")]


def test_chain_top_level_is_own_vector(texts):
    s = chain_sample("p1", depth=1)
    rep = chain_prefix_representation(s, "p1c0", texts)
    assert np.allclose(rep, texts(s.comments[0].text_key))


def test_chain_of_two_sums(texts):
    s = chain_sample("p1", depth=2)
    rep = chain_prefix_representation(s, "p1c1", texts)
    expected = np.asarray(texts(s.comments[0].text_key), dtype=np.float64) + np.asarray(
        texts(s.comments[1].text_key), dtype=np.float64
    )
    assert np.allclose(rep, expected)


def test_chain_excludes_post_vector(texts):
    s = chain_sample("p1", depth=1)
    rep = chain_prefix_representation(s, "p1c0", texts)
    with_post = rep + np.asarray(texts(s.text_key), dtype=np.float64)
    assert not np.allclose(rep, with_post)


def test_depth_four_chain_matches_path_walk_oracle(texts):
    s = chain_sample("p1", depth=4)
    rep = chain_prefix_representation(s, "p1c3", texts)
    # independent oracle: walk parents upward and sum
    by_id = {c.id: c for c in s.comments}
    total = np.zeros(256)
    cur = "p1c3"
    while cur != "p1":
        total += np.asarray(texts(by_id[cur].text_key), dtype=np.float64)
        cur = by_id[cur].parent
    assert np.allclose(rep, total)


def test_chain_prefix_recurrence(texts):
    s = make_sample("p1", comments=[
        make_comment("c1", "a", "p1"),
        make_comment("c2", "b", "c1"),
        make_comment("c3", "c", "c1"),
        make_comment("c4", "d", "c2"),
    ])
    by_id = {c.id: c for c in s.comments}
    for c in s.comments:
        rep = chain_prefix_representation(s, c.id, texts)
        if c.parent == "p1":
            assert np.allclose(rep, texts(c.text_key))
        else:
            parent_rep = chain_prefix_representation(s, c.parent, texts)
            assert np.allclose(rep, parent_rep + np.asarray(texts(c.text_key),
                                                            dtype=np.float64))
    assert by_id  # silence unused warning


def test_chain_missing_comment_raises(texts):
    s = chain_sample("p1", depth=1)
    with pytest.raises(KeyError, match="nope"):
        chain_prefix_representation(s, "nope", texts)


def test_assemble_deterministic(texts):
    s = star_sample("p1", author="u1", commenters=("u2", "u3"))
    users = random_user_table(["u1", "u2", "u3"], d1=8)
    resolver = table_mean_resolver(users)
    g1 = assemble(s, texts, resolver)
    g2 = assemble(s, texts, resolver)
    assert np.array_equal(g1.features, g2.features)
    assert g1.edges == g2.edges


def test_assembled_features_are_float32_only(texts):
    """Every node row is stored once, in float32: a split's features take
    nodes x in_dim x 4 bytes."""
    from uen import experiment
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    corpus = generate(SynthConfig(n_samples=60, n_users=20, seed=5,
                                  cold_user_rate_test=0.5))
    split = temporal_split(corpus)
    users = random_user_table(sorted({u for s in split.train for u in s.users()}), d1=8)
    resolver = experiment.variant_resolver("full", users, split.train, texts, None,
                                           ColdMapConfig(k1=3, k2=4))
    graphs = [assemble(s, texts, resolver) for s in split.train + split.val + split.test]
    nodes = sum(len(g.node_order) for g in graphs)
    assert sum(g.features.nbytes for g in graphs) == nodes * (256 + 8) * 4


def _cold_serve_setup(texts):
    """A full {h1, h2, h3} mapper over a small train split, and test cascades
    that each have a cold post author and a cold commenter."""
    from uen.coldmap import build_train_side
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    split = temporal_split(generate(SynthConfig(n_samples=60, n_users=20, seed=5,
                                                cold_user_rate_test=0.5)))
    users = random_user_table(sorted({u for s in split.train for u in s.users()}), d1=8)
    resolver = make_resolver("cold-mapper", users, build_train_side(list(split.train), texts),
                             texts, ColdMapConfig(k1=3, k2=4))
    cold = [s for s in split.test
            if s.author not in users and any(c.author not in users for c in s.comments)]
    assert cold
    return resolver, split, cold


def test_assemble_hashes_a_fresh_sample_in_one_batch(texts, monkeypatch):
    from uen import text

    resolver, _, cold = _cold_serve_setup(texts)
    batches = []
    hash_many = text.hash_embed_many

    def counted_many(keys, *args):  # every hashing path, one text or many, ends here
        batches.append(list(keys))
        return hash_many(keys, *args)

    monkeypatch.setattr(text, "hash_embed_many", counted_many)
    s = cold[0]
    assemble(s, texts, resolver)
    assert len(batches) == 1
    assert set(batches[0]) <= {s.text_key, *(c.text_key for c in s.comments)}
    batches.clear()
    assemble(s, texts, resolver)
    assert not batches


def test_resolver_hashes_a_fresh_cold_sample_in_one_batch(monkeypatch):
    """Called on its own, with no `assemble` or pre-fetch before it, the cold
    mapper hashes each cold cascade's fresh texts in one call."""
    from uen import text
    from uen.assembly import occurrences, text_keys

    texts = text.make_hash_provider()
    resolver, split, cold = _cold_serve_setup(texts)
    seen = {k for s in split.train for k in text_keys(s)}
    batches = []
    hash_many = text.hash_embed_many

    def counted_many(keys, *args):  # every hashing path, one text or many, ends here
        batches.append(set(keys))
        return hash_many(keys, *args)

    monkeypatch.setattr(text, "hash_embed_many", counted_many)
    largest = 0
    for s in cold:
        fresh = set(text_keys(s)) - seen
        batches.clear()
        for occurrence in occurrences(s):
            resolver(*occurrence)
        assert batches == ([fresh] if fresh else [])
        seen |= fresh
        largest = max(largest, len(fresh))
    assert largest > 1  # a per-key fetch would make several calls


def test_plain_function_provider_gives_identical_features():
    """A provider without `many`, as a wrapping closure is, takes the per-key path."""
    from uen.text import make_hash_provider

    batched = make_hash_provider()
    inner = make_hash_provider()

    def plain(key):
        return inner(key)

    graphs = []
    for provider in (batched, plain):
        resolver, split, _ = _cold_serve_setup(provider)
        graphs.append([assemble(s, provider, resolver) for s in split.test])
    for a, b in zip(*graphs):
        assert a.features.tobytes() == b.features.tobytes()
