"""Exact top-k retrieval and the three cold-user heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uen.assembly import all_chain_representations, chain_prefix_representation
from uen.coldmap import (
    ColdMapConfig,
    SimIndex,
    TrainSideData,
    _concat,
    build_index,
    build_train_side,
    map_cold_author,
    map_cold_commenter,
    make_resolver,
    topk,
)
from uen.embedding import FormatError

from conftest import make_comment, make_sample, random_user_table, star_sample


def brute_topk(index, query, k):
    """Independent exhaustive scan with explicit normalization and sorting."""
    q = np.asarray(query, dtype=np.float64)
    if np.linalg.norm(q) > 0:
        q = q / np.linalg.norm(q)
    scored = []
    for key, vec, owner in zip(index.keys, index.vectors, index.owners):
        scored.append((key, owner, float(np.asarray(vec, dtype=np.float64) @ q)))
    scored.sort(key=lambda t: (-t[2], t[0]))
    return scored[: min(k, len(scored))]


def test_build_index_normalizes_rows():
    rng = np.random.Generator(np.random.PCG64(0))
    entries = [(f"k{i}", rng.normal(size=8) * (i + 1), f"u{i}") for i in range(3)]
    idx = build_index(entries)
    assert len(idx) == 3
    assert np.allclose(np.linalg.norm(idx.vectors, axis=1), 1.0, atol=1e-6)


def test_build_index_keeps_zero_rows():
    idx = build_index([("a", np.zeros(4), "u"), ("b", np.ones(4), "v")])
    assert np.linalg.norm(idx.vectors[0]) == 0.0
    hits = topk(idx, np.ones(4), 2)
    assert hits[0][0] == "b"
    assert hits[1][2] == pytest.approx(0.0)


def test_build_index_rejects_mixed_dims():
    with pytest.raises(FormatError, match="dimension"):
        build_index([("a", np.zeros(4), "u"), ("b", np.zeros(5), "v")])


def test_topk_self_similarity():
    rng = np.random.Generator(np.random.PCG64(1))
    entries = [(f"k{i}", rng.normal(size=16), f"u{i}") for i in range(20)]
    idx = build_index(entries)
    key, owner, score = topk(idx, entries[7][1], 1)[0]
    assert key == "k7" and owner == "u7"
    assert score == pytest.approx(1.0, abs=1e-6)


def test_topk_truncates_to_index_size():
    idx = build_index([("a", np.ones(4), "u"), ("b", -np.ones(4), "v")])
    assert len(topk(idx, np.ones(4), 10)) == 2
    assert topk(idx, np.ones(4), 0) == []


def test_topk_tie_break_by_key_ascending():
    v = np.ones(4)
    idx = build_index([("zz", v, "a"), ("aa", v, "b"), ("mm", v, "c")])
    assert [k for k, _, _ in topk(idx, v, 3)] == ["aa", "mm", "zz"]


def test_topk_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(2))
    entries = [(f"k{i:03d}", rng.normal(size=32), f"u{i % 17}") for i in range(500)]
    idx = build_index(entries)
    for trial in range(10):
        query = rng.normal(size=32)
        got = topk(idx, query, 10)
        want = brute_topk(idx, query, 10)
        assert [(k, o) for k, o, _ in got] == [(k, o) for k, o, _ in want]
        assert [s for _, _, s in got] == pytest.approx([s for _, _, s in want])


def test_topk_errors():
    idx = build_index([("a", np.ones(4), "u")])
    empty = SimIndex(keys=(), vectors=np.zeros((0, 4), dtype=np.float32), owners=())
    with pytest.raises(FormatError, match="empty"):
        topk(empty, np.ones(4), 1)
    with pytest.raises(FormatError, match="dim"):
        topk(idx, np.ones(5), 1)
    with pytest.raises(FormatError, match="non-finite"):
        topk(idx, np.array([np.inf, 0.0, 0.0, 0.0]), 1)
    with pytest.raises(FormatError, match="non-finite"):
        build_index([("a", np.array([np.nan, 1.0]), "u")])


@st.composite
def index_and_query(draw):
    """Rows and a query over {-1, 0, 1}: duplicate rows, zero rows and tied
    scores are common, so ties straddle the k-th place often."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    cells = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    keys = draw(st.permutations([f"k{i:02d}" for i in range(n)]))
    query = draw(cells)
    k = draw(st.integers(1, n + 3))
    idx = build_index(zip(keys, np.array(rows, dtype=float), keys))
    return idx, np.array(query, dtype=float), k


@settings(max_examples=300, deadline=None)
@given(index_and_query())
def test_topk_equals_full_sort_property(case):
    idx, query, k = case
    # the same scores ranked by a full (-score, key) sort of every row
    norm = np.linalg.norm(query)
    scores = idx.vectors.astype(np.float64) @ (query / norm if norm > 0 else query)
    order = sorted(range(len(idx)), key=lambda i: (-scores[i], idx.keys[i]))
    want = [(idx.keys[i], idx.owners[i], float(scores[i])) for i in order[:k]]
    assert topk(idx, query, k) == want


@st.composite
def blocks_and_query(draw):
    """Like index_and_query, with the rows cut into blocks as H2 pools are."""
    idx, query, k = draw(index_and_query())
    cuts = sorted(draw(st.lists(st.integers(0, len(idx)), max_size=4)))
    bounds = [0, *cuts, len(idx)]
    blocks = [SimIndex(keys=idx.keys[a:b], vectors=idx.vectors[a:b],
                       owners=idx.owners[a:b]) for a, b in zip(bounds, bounds[1:])]
    return blocks, query, k


@settings(max_examples=200, deadline=None)
@given(blocks_and_query())
def test_topk_over_concatenated_blocks_equals_full_sort(case):
    blocks, query, k = case
    pool = _concat(blocks)
    # one product over the stacked blocks scores every row as topk does
    keys = [key for b in blocks for key in b.keys]
    owners = [owner for b in blocks for owner in b.owners]
    norm = np.linalg.norm(query)
    scores = np.concatenate([b.vectors for b in blocks]).astype(np.float64) @ (
        query / norm if norm > 0 else query)
    want = sorted(zip(keys, owners, scores.tolist()), key=lambda t: (-t[2], t[0]))[:k]
    assert topk(pool, query, k) == want


# ---------------------------------------------------------------------------
# H1: cold post author


def test_map_cold_author_single_neighbor():
    users = random_user_table(["u1", "u2"], d1=8)
    idx = build_index([("p1", np.ones(4), "u1"), ("p2", -np.ones(4), "u2")])
    out = map_cold_author(np.ones(4), idx, users, k1=1)
    assert np.allclose(out, users.vector("u1"))


def test_map_cold_author_full_index_mean_is_order_independent():
    users = random_user_table(["u1", "u2", "u3"], d1=8)
    rng = np.random.Generator(np.random.PCG64(3))
    entries = [(f"p{i}", rng.normal(size=4), f"u{i + 1}") for i in range(3)]
    idx_a = build_index(entries)
    idx_b = build_index(entries[::-1])
    query = rng.normal(size=4)
    expected = np.mean([users.vector(f"u{i + 1}") for i in range(3)], axis=0)
    assert np.allclose(map_cold_author(query, idx_a, users, 3), expected)
    assert np.allclose(map_cold_author(query, idx_b, users, 3), expected)


def test_map_cold_author_duplicate_owner_multiplicity():
    users = random_user_table(["u1", "u2"], d1=4)
    v = np.ones(4)
    idx = build_index([("p1", v, "u1"), ("p2", v, "u1"), ("p3", v, "u2")])
    out = map_cold_author(v, idx, users, k1=3)
    expected = (2 * users.vector("u1").astype(np.float64)
                + users.vector("u2")) / 3.0
    assert np.allclose(out, expected)


def test_map_cold_author_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(4))
    users = random_user_table([f"u{i}" for i in range(30)], d1=8)
    entries = [(f"p{i:02d}", rng.normal(size=16), f"u{i % 30}") for i in range(60)]
    idx = build_index(entries)
    query = rng.normal(size=16)
    out = map_cold_author(query, idx, users, k1=19)
    hits = brute_topk(idx, query, 19)
    expected = np.mean([users.vector(owner) for _, owner, _ in hits], axis=0)
    assert np.allclose(out, expected, atol=1e-5)


def test_map_cold_author_empty_index_falls_back_to_mean():
    users = random_user_table(["u1", "u2"], d1=4)
    empty = SimIndex(keys=(), vectors=np.zeros((0, 4), dtype=np.float32), owners=())
    assert np.allclose(map_cold_author(np.ones(4), empty, users, 3),
                       users.mean_vector())


# ---------------------------------------------------------------------------
# H2/H3: cold commenter


def train_samples_fixture():
    s1 = make_sample("t1", author="a1", timestamp=1, comments=[
        make_comment("t1c0", "b1", "t1", text_key="alpha beta"),
        make_comment("t1c1", "b2", "t1c0", text_key="gamma delta"),
    ], text_key="shared topic words")
    s2 = make_sample("t2", author="a2", timestamp=2, comments=[
        make_comment("t2c0", "b3", "t2", text_key="epsilon zeta"),
    ], text_key="different subject entirely")
    return [s1, s2]


def all_users():
    return random_user_table(["a1", "a2", "b1", "b2", "b3"], d1=8)


def test_map_cold_commenter_forced_selection(texts):
    train = [train_samples_fixture()[1]]  # one post, one comment by b3
    users = all_users()
    side = build_train_side(train, texts)
    cold = make_sample("q", author="x", comments=[
        make_comment("qc0", "y", "q", text_key="anything at all")])
    out = map_cold_commenter(cold, "qc0", side, texts, users,
                             ColdMapConfig(k1=1, k2=1))
    assert np.allclose(out, users.vector("b3"))


def test_map_cold_commenter_k2_truncation(texts):
    train = train_samples_fixture()
    users = all_users()
    side = build_train_side(train, texts)
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    out = map_cold_commenter(cold, "qc0", side, texts, users,
                             ColdMapConfig(k1=2, k2=50))
    # k2 exceeds the collected pool (3 comments) so all authors average
    expected = np.mean([users.vector(u) for u in ("b1", "b2", "b3")], axis=0)
    assert np.allclose(out, expected)


def test_owner_missing_from_table_raises_only_among_hits(texts):
    """The owner-row arrays hold every owner up front, but a training user
    without a table row is an error only for an occurrence whose hits use it."""
    side = build_train_side(train_samples_fixture(), texts)
    cfg = ColdMapConfig(k1=2, k2=1)
    users = random_user_table(["a1", "b1", "b2"], d1=8)  # no a2, no b3

    def query(post_text, comment_text):
        return make_sample("q", author="x", text_key=post_text, comments=[
            make_comment("qc0", "y", "q", text_key=comment_text)])

    near_t1, near_t2 = query("shared topic words", "alpha beta"), query(
        "different subject entirely", "epsilon zeta")
    one_post = ColdMapConfig(k1=1, k2=1)
    assert np.array_equal(
        make_resolver("cold-mapper", users, side, texts, one_post)("x", ("post", near_t1)),
        users.vector("a1").astype(np.float64))
    with pytest.raises(FormatError, match="training user 'a2' has no row in the user table"):
        make_resolver("cold-mapper", users, side, texts, one_post)("x", ("post", near_t2))
    with pytest.raises(FormatError, match="training user 'a2'"):
        map_cold_author(texts(near_t2.text_key), side.post_index, users, k1=1)
    assert np.array_equal(
        map_cold_author(texts(near_t1.text_key), side.post_index, users, k1=1),
        users.vector("a1").astype(np.float64))
    # both posts' comments (b1, b2, b3) are in the H2 pool; only the hit matters
    resolver = make_resolver("cold-mapper", users, side, texts, cfg)
    assert np.array_equal(resolver("y", ("comment", near_t1, "qc0")),
                          users.vector("b1").astype(np.float64))
    with pytest.raises(FormatError, match="training user 'b3' has no row in the user table"):
        resolver("y", ("comment", near_t2, "qc0"))


def oracle_map_cold_commenter(sample, comment_id, train, texts, users, cfg):
    """Monolithic re-implementation of steps 1-5 with full sorts."""
    post_vec = np.asarray(texts(sample.text_key), dtype=np.float64)

    def norm(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    q = norm(post_vec)
    scored_posts = sorted(
        ((float(norm(np.asarray(texts(s.text_key), dtype=np.float64)).astype(
            np.float32).astype(np.float64) @ q), s) for s in train),
        key=lambda t: (-t[0], t[1].post_id),
    )
    top_posts = [s for _, s in scored_posts[: cfg.k1]]
    collected = []
    for s in top_posts:
        for c in s.comments:
            collected.append((c.id, chain_prefix_representation(s, c.id, texts),
                              c.author))
    if not collected:
        return None
    cold_rep = chain_prefix_representation(sample, comment_id, texts)
    qc = norm(cold_rep)
    scored = sorted(
        ((float(norm(vec).astype(np.float32).astype(np.float64) @ norm(qc)), key,
          owner) for key, vec, owner in collected),
        key=lambda t: (-t[0], t[1]),
    )
    top = scored[: min(cfg.k2, len(scored))]
    return np.mean([users.vector(owner) for _, _, owner in top], axis=0)


def test_map_cold_commenter_matches_monolithic_oracle(texts):
    from uen.synth import SynthConfig, generate
    from uen.corpus import temporal_split

    corpus = generate(SynthConfig(n_samples=40, n_users=20, seed=6))
    split = temporal_split(corpus)
    train = list(split.train)
    users = random_user_table(
        sorted({u for s in train for u in s.users()}), d1=8)
    side = build_train_side(train, texts)
    cfg = ColdMapConfig(k1=3, k2=4)
    checked = 0
    for s in split.test[:6]:
        for c in s.comments[:2]:
            out = map_cold_commenter(s, c.id, side, texts, users, cfg)
            oracle = oracle_map_cold_commenter(s, c.id, train, texts, users, cfg)
            assert np.allclose(out, oracle, atol=1e-5)
            checked += 1
    assert checked >= 6


def test_map_cold_commenter_empty_pool_falls_back_to_author(texts):
    # train posts exist but carry no comments in the retrieval pool
    users = all_users()
    train = train_samples_fixture()
    side = build_train_side(train, texts)
    empty = {k: build_index([]) for k in side.comments_by_post}
    side = TrainSideData(post_index=side.post_index, comments_by_post=empty)
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    out = map_cold_commenter(cold, "qc0", side, texts, users,
                             ColdMapConfig(k1=1, k2=2))
    expected = map_cold_author(np.asarray(texts(cold.text_key), dtype=np.float64),
                               side.post_index, users, 1)
    assert np.allclose(out, expected)


def test_h3_off_equals_h3_on_for_flat_trees(texts):
    # single-level comment trees: chains of length 1 equal raw text vectors
    train = [star_sample("t1", author="a1", commenters=("b1", "b2"), timestamp=1),
             star_sample("t2", author="a2", commenters=("b3",), timestamp=2)]
    users = all_users()
    cold = star_sample("q", author="x", commenters=("y",))
    with_h3 = map_cold_commenter(
        cold, "qc0", build_train_side(train, texts, use_chains=True), texts,
        users, ColdMapConfig(k1=2, k2=2, heuristics=frozenset({"h1", "h2", "h3"})))
    without_h3 = map_cold_commenter(
        cold, "qc0", build_train_side(train, texts, use_chains=False), texts,
        users, ColdMapConfig(k1=2, k2=2, heuristics=frozenset({"h1", "h2"})))
    assert np.allclose(with_h3, without_h3)


def test_h1_disabled_pools_all_train_comments(texts):
    train = train_samples_fixture()
    users = all_users()
    side = build_train_side(train, texts)
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    out = map_cold_commenter(cold, "qc0", side, texts, users,
                             ColdMapConfig(k1=1, k2=100,
                                           heuristics=frozenset({"h2", "h3"})))
    # every train comment participates regardless of post similarity
    expected = np.mean([users.vector(u) for u in ("b1", "b2", "b3")], axis=0)
    assert np.allclose(out, expected)


def test_mean_output_within_convex_hull_norm_bound():
    users = random_user_table([f"u{i}" for i in range(10)], d1=8, seed=9)
    rng = np.random.Generator(np.random.PCG64(10))
    idx = build_index([(f"p{i}", rng.normal(size=4), f"u{i}") for i in range(10)])
    out = map_cold_author(rng.normal(size=4), idx, users, k1=5)
    max_norm = max(np.linalg.norm(users.vector(f"u{i}")) for i in range(10))
    assert np.linalg.norm(out) <= max_norm + 1e-9


# ---------------------------------------------------------------------------
# resolver contract


def test_known_user_always_direct_lookup(texts):
    users = all_users()
    train = train_samples_fixture()
    side = build_train_side(train, texts)
    cfg = ColdMapConfig(k1=1, k2=1)
    sample = train[0]
    for resolver in (
        make_resolver("mean-fallback", users),
        make_resolver("cold-mapper", users, train_side=side, texts=texts, cfg=cfg),
    ):
        assert np.allclose(resolver("a1", ("post", sample)), users.vector("a1"))


def test_mean_fallback_for_cold_user(texts):
    users = all_users()
    resolver = make_resolver("mean-fallback", users)
    sample = train_samples_fixture()[0]
    assert np.allclose(resolver("stranger", ("post", sample)), users.mean_vector())


def test_cold_user_gets_context_dependent_vectors(texts):
    users = all_users()
    train = train_samples_fixture()
    side = build_train_side(train, texts)
    cfg = ColdMapConfig(k1=1, k2=1)
    resolver = make_resolver("cold-mapper", users, train_side=side, texts=texts,
                             cfg=cfg)
    cold = make_sample("q", author="ghost", text_key="shared topic words", comments=[
        make_comment("qc0", "ghost", "q", text_key="gamma delta")])
    as_author = resolver("ghost", ("post", cold))
    as_commenter = resolver("ghost", ("comment", cold, "qc0"))
    assert not np.allclose(as_author, as_commenter)


def test_resolver_determinism(texts):
    users = all_users()
    side = build_train_side(train_samples_fixture(), texts)
    cfg = ColdMapConfig(k1=2, k2=2)
    resolver = make_resolver("cold-mapper", users, train_side=side, texts=texts,
                             cfg=cfg)
    cold = make_sample("q", author="ghost", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    a = resolver("ghost", ("post", cold))
    b = resolver("ghost", ("post", cold))
    assert np.array_equal(a, b)


def test_resolver_reduces_the_table_once_for_mean_fallbacks(texts, monkeypatch, caplog):
    from uen.embedding import EmbeddingTable

    users = all_users()
    want = users.mean_vector().astype(np.float64)
    calls = []
    mean_vector = EmbeddingTable.mean_vector
    monkeypatch.setattr(EmbeddingTable, "mean_vector",
                        lambda self: calls.append(1) or mean_vector(self))
    cold = make_sample("q", author="ghost", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    occurrences = [("ghost", ("post", cold)), ("y", ("comment", cold, "qc0"))] * 2
    empty_side = build_train_side([], texts)
    # an empty post index logs each fallback; the sample's author vector is reused
    for side, heuristics, logged in ((empty_side, {"h1", "h2", "h3"}, 3),
                                     (build_train_side(train_samples_fixture(), texts),
                                      set(), 0)):
        calls.clear()
        caplog.clear()
        resolver = make_resolver("cold-mapper", users, train_side=side, texts=texts,
                                 cfg=ColdMapConfig(heuristics=frozenset(heuristics)))
        for user_id, context in occurrences:
            assert np.array_equal(resolver(user_id, context), want)
        assert calls == [1]
        assert sum("global mean" in r.getMessage() for r in caplog.records) == logged


def test_make_resolver_validation():
    users = all_users()
    with pytest.raises(ValueError, match="unknown resolver"):
        make_resolver("bogus", users)
    with pytest.raises(ValueError, match="needs"):
        make_resolver("cold-mapper", users)


def test_coldmap_config_validation():
    with pytest.raises(ValueError):
        ColdMapConfig(k1=0)
    with pytest.raises(ValueError):
        ColdMapConfig(k2=0)  # h2 enabled by default
    with pytest.raises(ValueError):
        ColdMapConfig(heuristics=frozenset({"h9"}))
    ColdMapConfig(k2=0, heuristics=frozenset({"h1"}))  # fine with h2 off



# ---------------------------------------------------------------------------
# the resolver against a per-occurrence reference


def _ref_top(entries, query, k):
    """(key, owner) of the k best entries: a fresh index, every row scored
    and fully sorted by (-score, key)."""
    index = build_index(entries)
    q = np.asarray(query, dtype=np.float64)
    norm = np.linalg.norm(q)
    scores = index.vectors.astype(np.float64) @ (q / norm if norm > 0 else q)
    order = sorted(range(len(index)), key=lambda i: (-scores[i], index.keys[i]))
    return [(index.keys[i], index.owners[i]) for i in order[:k]]


def _ref_mean(users, hits):
    rows = np.stack([users.vector(owner) for _, owner in hits]).astype(np.float64)
    return rows.mean(axis=0)


def reference_resolve(user_id, context, train, texts, users, cfg):
    """One cold occurrence resolved on its own, sharing nothing with others."""
    if user_id in users:
        return users.vector(user_id).astype(np.float64)
    sample = context[1]
    h1, h2, h3 = (h in cfg.heuristics for h in ("h1", "h2", "h3"))
    global_mean = users.mean_vector().astype(np.float64)
    post_hits = _ref_top([(s.post_id, texts(s.text_key), s.author) for s in train],
                         texts(sample.text_key), cfg.k1)
    if context[0] == "post" or not h2:
        return _ref_mean(users, post_hits) if h1 else global_mean
    by_post = {s.post_id: s for s in train}
    posts = [by_post[key] for key, _ in post_hits] if h1 else train
    pool = []
    for s in posts:
        reps = all_chain_representations(s, texts)
        pool += [(c.id, reps[c.id] if h3 else texts(c.text_key), c.author)
                 for c in s.comments]
    if not pool:
        return _ref_mean(users, post_hits) if h1 else global_mean
    comment_id = context[2]
    if h3:
        rep = chain_prefix_representation(sample, comment_id, texts)
    else:
        rep = texts(next(c.text_key for c in sample.comments if c.id == comment_id))
    return _ref_mean(users, _ref_top(pool, rep, cfg.k2))


@pytest.mark.parametrize("heuristics", [{"h1", "h2", "h3"}, {"h2", "h3"}, {"h1", "h2"}],
                         ids=["default", "h1-off", "h3-off"])
def test_resolver_equals_per_occurrence_reference(texts, heuristics):
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    corpus = generate(SynthConfig(n_samples=60, n_users=20, seed=5,
                                  cold_user_rate_test=0.5))
    split = temporal_split(corpus)
    train = list(split.train)
    users = random_user_table(sorted({u for s in train for u in s.users()}), d1=8)
    cfg = ColdMapConfig(k1=3, k2=4, heuristics=frozenset(heuristics))
    side = build_train_side(train, texts, use_chains="h3" in heuristics)
    resolver = make_resolver("cold-mapper", users, train_side=side, texts=texts, cfg=cfg)
    per_sample = [
        [(s.author, ("post", s))] + [(c.author, ("comment", s, c.id)) for c in s.comments]
        for s in split.val + split.test
    ]
    in_order = [o for occ in per_sample for o in occ]
    # round-robin over samples, so consecutive occurrences switch samples
    interleaved = [occ[i] for i in range(max(map(len, per_sample)))
                   for occ in per_sample if i < len(occ)]
    cold = [(u, ctx) for u, ctx in in_order + interleaved if u not in users]
    assert len(cold) >= 40
    for user_id, context in cold:
        got = resolver(user_id, context)
        want = reference_resolve(user_id, context, train, texts, users, cfg)
        assert np.array_equal(got, want), (user_id, context[0], context[1].post_id)


def test_resolver_equals_reference_at_acceptance_k(texts):
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    corpus = generate(SynthConfig(n_samples=300, n_users=60, seed=11,
                                  cold_user_rate_test=0.5))
    split = temporal_split(corpus)
    train = list(split.train)
    users = random_user_table(sorted({u for s in train for u in s.users()}), d1=8)
    cfg = ColdMapConfig(k1=7, k2=40)
    side = build_train_side(train, texts)
    resolver = make_resolver("cold-mapper", users, train_side=side, texts=texts, cfg=cfg)
    cold = [(u, ctx) for s in split.val + split.test
            for u, ctx in [(s.author, ("post", s))]
            + [(c.author, ("comment", s, c.id)) for c in s.comments]
            if u not in users]
    # H1 always partitions (k1 < train posts); H2 pools must fall on both sides of k2
    n_comments = {s.post_id: len(s.comments) for s in train}
    pool_sizes = set()
    for _, ctx in cold:
        if ctx[0] == "comment":
            hits = topk(side.post_index, texts(ctx[1].text_key), cfg.k1)
            pool_sizes.add(sum(n_comments[key] for key, _, _ in hits))
    assert len(side.post_index) > cfg.k1
    assert min(pool_sizes) <= cfg.k2 < max(pool_sizes)
    assert len(cold) >= 100
    for user_id, context in cold:
        got = resolver(user_id, context)
        want = reference_resolve(user_id, context, train, texts, users, cfg)
        assert np.array_equal(got, want), (user_id, context[0], context[1].post_id)


def test_full_variant_builds_train_side_on_first_cold_occurrence(texts, monkeypatch):
    from uen import experiment
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    corpus = generate(SynthConfig(n_samples=60, n_users=20, seed=5,
                                  cold_user_rate_test=0.5))
    split = temporal_split(corpus)
    train = list(split.train)
    users = random_user_table(sorted({u for s in train for u in s.users()}), d1=8)
    cfg = ColdMapConfig(k1=3, k2=4)
    built = []

    def counting_build(*args, **kwargs):
        built.append(1)
        return build_train_side(*args, **kwargs)

    monkeypatch.setattr(experiment, "build_train_side", counting_build)
    resolver = experiment.variant_resolver("full", users, train, texts, None, cfg)
    for s in train:  # every training user is in the table
        resolver(s.author, ("post", s))
        for c in s.comments:
            resolver(c.author, ("comment", s, c.id))
    assert built == []

    eager = make_resolver("cold-mapper", users, texts=texts, cfg=cfg,
                          train_side=build_train_side(train, texts, use_chains=True))
    cold = [(c.author, ("comment", s, c.id)) for s in split.test for c in s.comments
            if c.author not in users]
    cold += [(s.author, ("post", s)) for s in split.test if s.author not in users]
    assert len(cold) >= 10
    for user_id, context in cold:
        assert np.array_equal(resolver(user_id, context), eager(user_id, context))
    assert built == [1]
