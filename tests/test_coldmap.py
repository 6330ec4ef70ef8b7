"""Exact top-k retrieval and the three cold-user heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uen.coldmap import (
    HEURISTIC_LEVELS,
    INDEX_BLOCK,
    ColdMapConfig,
    SimIndex,
    TrainSideData,
    _mean_user,
    build_index,
    build_train_side,
    certified_topk_rows,
    comment_representations,
    make_resolver,
    topk_rows,
)
from uen.embedding import FormatError

from conftest import (
    chain_prefix_representation,
    make_comment,
    make_sample,
    random_user_table,
    star_sample,
    table_mean_resolver,
)


def owner_rows(users, index):
    """Each row's owner's row in `users`, as `_mean_user` takes them."""
    return np.array([users.index[o] for o in index.owners], dtype=np.intp)


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
    rows, scores = topk_rows(idx, np.ones(4), 2)
    assert idx.keys[rows[0]] == "b"
    assert scores[1] == pytest.approx(0.0)


def row_by_row_index(rows):
    """build_index's matrix, one row at a time: float64, np.linalg.norm,
    divide unless zero, float32."""
    out = []
    for row in rows:
        row = np.asarray(row, dtype=np.float64)
        norm = np.linalg.norm(row)
        out.append((row / norm if norm > 0 else row).astype(np.float32))
    return np.stack(out) if out else np.zeros((0, 0), dtype=np.float32)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([0, 1, INDEX_BLOCK - 1, INDEX_BLOCK, INDEX_BLOCK + 1, 600]),
    d=st.integers(1, 40),
    dtype=st.sampled_from([np.float32, np.float64]),
    zero_rate=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_index_equals_row_by_row_normalization(n, d, dtype, zero_rate, seed):
    """Blocks of rows normalize to the same bits as each row on its own, at
    and around the block size, with zero rows and over magnitudes from 1e-30
    to 1e30."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 10.0 ** rng.integers(-30, 31, size=(n, 1))
    rows = (rng.normal(size=(n, d)) * scale * (rng.random((n, 1)) >= zero_rate)).astype(dtype)
    idx = build_index((f"k{i}", row, f"u{i}") for i, row in enumerate(rows))
    assert idx.vectors.dtype == np.float32
    assert idx.vectors.tobytes() == row_by_row_index(rows).tobytes()
    assert idx.keys == tuple(f"k{i}" for i in range(n))


@pytest.mark.parametrize("nan_at, short_at, bad", [
    (INDEX_BLOCK + 44, INDEX_BLOCK + 144, "non-finite"),
    (2 * INDEX_BLOCK + 10, INDEX_BLOCK + 14, "dimension"),
    (None, 2 * INDEX_BLOCK, "dimension"),
])
def test_build_index_names_first_bad_entry_in_a_later_block(nan_at, short_at, bad):
    rows = [np.ones(4) for _ in range(3 * INDEX_BLOCK)]
    if nan_at is not None:
        rows[nan_at] = np.array([1.0, np.nan, 0.0, 0.0])
    rows[short_at] = np.ones(3)
    first = min(i for i in (nan_at, short_at) if i is not None)
    with pytest.raises(FormatError, match=f"^index entry 'k{first}': {bad}"):
        build_index((f"k{i}", row, "u") for i, row in enumerate(rows))


def test_build_index_rejects_mixed_dims():
    with pytest.raises(FormatError, match="dimension"):
        build_index([("a", np.zeros(4), "u"), ("b", np.zeros(5), "v")])


def test_topk_self_similarity():
    rng = np.random.Generator(np.random.PCG64(1))
    entries = [(f"k{i}", rng.normal(size=16), f"u{i}") for i in range(20)]
    idx = build_index(entries)
    rows, scores = topk_rows(idx, entries[7][1], 1)
    assert rows.tolist() == [7]
    assert scores[0] == pytest.approx(1.0, abs=1e-6)


def test_topk_truncates_to_index_size():
    idx = build_index([("a", np.ones(4), "u"), ("b", -np.ones(4), "v")])
    assert len(topk_rows(idx, np.ones(4), 10)[0]) == 2
    rows, scores = topk_rows(idx, np.ones(4), 0)
    assert rows.size == scores.size == 0


def test_topk_tie_break_by_key_ascending():
    v = np.ones(4)
    idx = build_index([("zz", v, "a"), ("aa", v, "b"), ("mm", v, "c")])
    assert [idx.keys[r] for r in topk_rows(idx, v, 3)[0]] == ["aa", "mm", "zz"]


def test_topk_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(2))
    entries = [(f"k{i:03d}", rng.normal(size=32), f"u{i % 17}") for i in range(500)]
    idx = build_index(entries)
    for trial in range(10):
        query = rng.normal(size=32)
        rows, scores = topk_rows(idx, query, 10)
        want = brute_topk(idx, query, 10)
        assert [(idx.keys[r], idx.owners[r]) for r in rows] == [(k, o) for k, o, _ in want]
        assert scores.tolist() == pytest.approx([s for _, _, s in want])


def test_topk_errors():
    idx = build_index([("a", np.ones(4), "u")])
    empty = SimIndex(keys=(), vectors=np.zeros((0, 4), dtype=np.float32), owners=())
    with pytest.raises(FormatError, match="empty"):
        topk_rows(empty, np.ones(4), 1)
    with pytest.raises(FormatError, match="dim"):
        topk_rows(idx, np.ones(5), 1)
    with pytest.raises(FormatError, match="non-finite"):
        topk_rows(idx, np.array([np.inf, 0.0, 0.0, 0.0]), 1)
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
    order = sorted(range(len(idx)), key=lambda i: (-scores[i], idx.keys[i]))[:k]
    rows, got = topk_rows(idx, query, k)
    assert rows.tolist() == order
    assert got.tolist() == scores[order].tolist()
    proven = certified_topk_rows(idx, query, k)
    assert proven is None or proven.tolist() == order


def assert_certified_rows_are_the_scans(idx, queries, ks):
    """certified_topk_rows gives None or topk_rows' rows; returns how many
    it proved, of how many it was asked."""
    proven = asked = 0
    for query in queries:
        for k in ks:
            rows = certified_topk_rows(idx, query, k)
            asked += 1
            if rows is not None:
                proven += 1
                assert rows.tolist() == topk_rows(idx, query, k)[0].tolist(), k
    return proven, asked


def test_certified_rows_of_hash_text():
    """d = 256 hash rows over a small vocabulary: ±1 counts that tie often."""
    from uen.text import hash_embed_many

    rng = np.random.Generator(np.random.PCG64(3))
    vocab = [f"w{i}" for i in range(12)]

    def phrases(count):
        return [" ".join(rng.choice(vocab, size=rng.integers(1, 8))) for _ in range(count)]

    rows = hash_embed_many(phrases(300))
    idx = build_index((f"p{i:03d}", row, "u") for i, row in enumerate(rows))
    queries = [*hash_embed_many(phrases(40)), rows[5], rows[5] + rows[9]]
    proven, asked = assert_certified_rows_are_the_scans(idx, queries, (1, 7, 19, len(idx) - 1))
    assert 0 < proven < asked


@pytest.mark.parametrize("seed", range(4))
def test_certified_rows_of_a_hand_built_index(seed):
    """Rows of norm 0.1 to 3, some parallel, some duplicated and some on an
    integer grid, against dense and sparse queries."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, d = 80, 32
    vectors = rng.normal(size=(n, d))
    vectors[::7] = rng.integers(-1, 2, size=vectors[::7].shape)
    vectors[1::9] = vectors[0]
    vectors *= rng.uniform(0.1, 3.0, size=(n, 1)) / np.maximum(
        np.linalg.norm(vectors, axis=1, keepdims=True), 1e-9)
    vectors[2::9] = vectors[0]
    idx = SimIndex(keys=tuple(f"k{i:02d}" for i in rng.permutation(n)),
                   vectors=vectors.astype(np.float32), owners=("u",) * n)
    sparse = np.zeros((10, d))
    sparse[np.arange(10), rng.integers(0, d, size=10)] = 1.0
    sparse[:5, 3] = rng.normal(size=5)
    queries = [*rng.normal(size=(10, d)), *sparse, vectors[1], vectors[7]]
    proven, asked = assert_certified_rows_are_the_scans(idx, queries, (1, 3, 10, n - 1))
    assert 0 < proven < asked


def test_certified_rows_need_a_proof():
    rng = np.random.Generator(np.random.PCG64(4))
    idx = build_index((f"k{i:02d}", rng.normal(size=16), "u") for i in range(50))
    query = rng.normal(size=16)
    # well separated Gaussian rows prove their top 5, so the fast path runs
    for q in rng.normal(size=(10, 16)):
        assert certified_topk_rows(idx, q, 5).tolist() == topk_rows(idx, q, 5)[0].tolist()
    # a zero query ties every row; k <= 0 and k >= n are not proven
    assert certified_topk_rows(idx, np.zeros(16), 5) is None
    # the first and last rows tie at 0 exactly, their rounded float32 scores do not
    rows = np.array([[0, 1, 1], [-1, -1, 0], [-1, -1, -1]], dtype=float)
    tied = build_index(zip(("k00", "k02", "k01"), rows, "uvw"))
    assert certified_topk_rows(tied, np.array([0.0, 1.0, -1.0]), 2) is None
    for k in (0, 50, 51):
        assert certified_topk_rows(idx, query, k) is None
    with pytest.raises(FormatError, match="dim"):
        certified_topk_rows(idx, np.ones(15), 5)


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
    """H2 over a pool made of blocks, one per training post, ranks its rows
    as a full (-score, key) sort of every row of every block does."""
    blocks, query, k = case
    # tied post vectors: H1 returns every post, in key order, so the pool
    # holds the blocks in order
    posts = [f"p{i:02d}" for i in range(len(blocks))]
    side = TrainSideData(post_index=build_index((p, np.ones(2), "a") for p in posts),
                         comments_by_post=dict(zip(posts, blocks)), chains=False)
    keys = [key for b in blocks for key in b.keys]
    owners = [owner for b in blocks for owner in b.owners]
    users = random_user_table(sorted({"a", *owners}), d1=3)
    cold = make_sample("q", text_key="post", comments=[
        make_comment("qc0", "ghost", "q", text_key="comment")])
    resolver = make_resolver("cold-mapper", users, side, {"post": np.ones(2), "comment": query}.get,
                             ColdMapConfig(k1=len(posts), k2=k, heuristics=HEURISTIC_LEVELS[2]))
    # one product over the stacked blocks scores every row as the pool does
    norm = np.linalg.norm(query)
    scores = np.concatenate([b.vectors for b in blocks]).astype(np.float64) @ (
        query / norm if norm > 0 else query)
    want = sorted(zip(keys, owners, scores.tolist()), key=lambda t: (-t[2], t[0]))[:k]
    rows = users.matrix[[users.index[o] for _, o, _ in want]].astype(np.float64)
    assert resolver("ghost", ("comment", cold, "qc0")).tobytes() == (
        np.add.reduce(rows, axis=0) / len(want)).tobytes()


# ---------------------------------------------------------------------------
# H1: cold post author


def h1_author(query, index, users, k1):
    """The resolved vector of a cold post author whose post text has the
    vector `query`, under H1 alone over the hand-built post index `index`."""
    side = TrainSideData(post_index=index, comments_by_post={}, chains=True)
    resolver = make_resolver("cold-mapper", users, side, {"q": query}.__getitem__,
                             ColdMapConfig(k1=k1, heuristics=frozenset({"h1"})))
    return resolver("<cold>", ("post", make_sample("q", text_key="q")))


def test_map_cold_author_single_neighbor():
    users = random_user_table(["u1", "u2"], d1=8)
    idx = build_index([("p1", np.ones(4), "u1"), ("p2", -np.ones(4), "u2")])
    out = h1_author(np.ones(4), idx, users, k1=1)
    assert np.allclose(out, users.vector("u1"))


def test_map_cold_author_full_index_mean_is_order_independent():
    users = random_user_table(["u1", "u2", "u3"], d1=8)
    rng = np.random.Generator(np.random.PCG64(3))
    entries = [(f"p{i}", rng.normal(size=4), f"u{i + 1}") for i in range(3)]
    idx_a = build_index(entries)
    idx_b = build_index(entries[::-1])
    query = rng.normal(size=4)
    expected = np.mean([users.vector(f"u{i + 1}") for i in range(3)], axis=0)
    assert np.allclose(h1_author(query, idx_a, users, 3), expected)
    assert np.allclose(h1_author(query, idx_b, users, 3), expected)


def test_map_cold_author_duplicate_owner_multiplicity():
    users = random_user_table(["u1", "u2"], d1=4)
    v = np.ones(4)
    idx = build_index([("p1", v, "u1"), ("p2", v, "u1"), ("p3", v, "u2")])
    out = h1_author(v, idx, users, k1=3)
    expected = (2 * users.vector("u1").astype(np.float64)
                + users.vector("u2")) / 3.0
    assert np.allclose(out, expected)


def test_map_cold_author_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(4))
    users = random_user_table([f"u{i}" for i in range(30)], d1=8)
    entries = [(f"p{i:02d}", rng.normal(size=16), f"u{i % 30}") for i in range(60)]
    idx = build_index(entries)
    query = rng.normal(size=16)
    out = h1_author(query, idx, users, k1=19)
    hits = brute_topk(idx, query, 19)
    expected = np.mean([users.vector(owner) for _, owner, _ in hits], axis=0)
    assert np.allclose(out, expected, atol=1e-5)


def test_map_cold_author_empty_index_falls_back_to_mean():
    users = random_user_table(["u1", "u2"], d1=4)
    empty = SimIndex(keys=(), vectors=np.zeros((0, 4), dtype=np.float32), owners=())
    assert np.allclose(h1_author(np.ones(4), empty, users, 3),
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
    resolver = make_resolver("cold-mapper", users, side, texts, ColdMapConfig(k1=1, k2=1))
    assert np.allclose(resolver("y", ("comment", cold, "qc0")), users.vector("b3"))


def test_map_cold_commenter_k2_truncation(texts):
    train = train_samples_fixture()
    users = all_users()
    side = build_train_side(train, texts)
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    resolver = make_resolver("cold-mapper", users, side, texts, ColdMapConfig(k1=2, k2=50))
    out = resolver("y", ("comment", cold, "qc0"))
    # k2 exceeds the collected pool (3 comments) so all authors average
    expected = np.mean([users.vector(u) for u in ("b1", "b2", "b3")], axis=0)
    assert np.allclose(out, expected)


def test_owner_missing_from_table_is_refused_at_first_cold_occurrence(texts):
    """Every training owner's table row is looked up at the first cold
    occurrence that needs retrieval, so a table without one is refused
    there, naming the first owner it lacks (in the post index, then in each
    post's comments), even when the hits' owners are all in it. A user in
    the table is looked up before that as always."""
    side = build_train_side(train_samples_fixture(), texts)
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])  # its hits: t1, a1, b1
    for present, missing in ((["a1", "b1", "b2"], "a2"), (["a1", "a2", "b1", "b2"], "b3")):
        users = random_user_table(present, d1=8)
        for cfg in (ColdMapConfig(k1=1, k2=1, heuristics=HEURISTIC_LEVELS[1]),
                    ColdMapConfig(k1=1, k2=1)):
            for user, context in (("x", ("post", cold)), ("y", ("comment", cold, "qc0"))):
                resolver = make_resolver("cold-mapper", users, side, texts, cfg)
                assert np.array_equal(resolver("a1", context),
                                      users.vector("a1").astype(np.float64))
                for _ in range(2):
                    with pytest.raises(FormatError, match=f"training user '{missing}' has no "
                                       "row in the user table"):
                        resolver(user, context)


def test_no_heuristics_resolver_gives_table_mean_without_train_side(texts):
    """No-mapper needs no owner: over a table without some training owners,
    every cold user gets the table mean and the train side is never built."""
    users = random_user_table(["a1", "b1", "b2"], d1=8)

    def train_side():
        raise AssertionError("the train side was built")

    resolver = make_resolver("cold-mapper", users, train_side, texts,
                             ColdMapConfig(heuristics=HEURISTIC_LEVELS[0]))
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    mean = users.mean_vector().astype(np.float64).tobytes()
    assert resolver("x", ("post", cold)).tobytes() == mean
    assert resolver("y", ("comment", cold, "qc0")).tobytes() == mean
    assert np.array_equal(resolver("b1", ("comment", cold, "qc0")),
                          users.vector("b1").astype(np.float64))


def per_comment_h2(resolver_args, sample, comment_id):
    """One comment mapped as the per-comment mapper did: H1's `topk_rows`,
    the hit posts' comment indices stacked into one pool, the comment's own
    `topk_rows` over it and `_mean_user`; H1's author mapping when the pool
    is empty."""
    users, side, texts, cfg = resolver_args
    post_hits = topk_rows(side.post_index, texts(sample.text_key), cfg.k1)[0]
    blocks = [side.comments_by_post[side.post_index.keys[i]] for i in post_hits.tolist()]
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return _mean_user(users, owner_rows(users, side.post_index), post_hits)
    pool = SimIndex(keys=tuple(k for b in blocks for k in b.keys),
                    vectors=np.concatenate([b.vectors for b in blocks], dtype=np.float64),
                    owners=tuple(o for b in blocks for o in b.owners))
    rep = comment_representations(sample, texts, "h3" in cfg.heuristics)[comment_id]
    return _mean_user(users, owner_rows(users, pool), topk_rows(pool, rep, cfg.k2)[0])


@pytest.mark.parametrize("use_chains", [True, False], ids=["h3-on", "h3-off"])
def test_batched_h2_equals_per_comment_oracle(use_chains):
    """Every cold commenter of a cascade, mapped in one pass, gets the bytes
    the per-comment mapper gives, as does a warm comment asked for as cold:
    pools with tied scores, a comment id under two training posts, k2 below
    and at or above the pool size, and a user table one column wide."""
    rng = np.random.Generator(np.random.PCG64(17))
    checked = {"cold": 0, "warm": 0, "k2 >= pool": 0}
    for trial in range(150):
        d = int(rng.integers(1, 4))
        n_posts = int(rng.integers(1, 5))
        posts, by_post, n = [], {}, 0
        for p in range(n_posts):
            entries = []
            for _ in range(int(rng.integers(0, 6))):
                # the first comment of post 1 reuses the id of post 0's first
                cid = "c0" if p == 1 and not entries else f"c{n}"
                n += 1
                entries.append((cid, rng.integers(-1, 2, size=d).astype(float),
                                f"u{rng.integers(0, 6)}"))
            by_post[f"p{p}"] = build_index(entries)
            posts.append((f"p{p}", rng.integers(-1, 2, size=2).astype(float), "u0"))
        side = TrainSideData(post_index=build_index(posts), comments_by_post=by_post,
                             chains=use_chains)
        users = random_user_table([f"u{i}" for i in range(6)], d1=int(rng.choice([1, 3, 8])),
                                  seed=trial)
        vecs = {"post": rng.integers(-1, 2, size=2).astype(float)}
        comments = []
        for i in range(int(rng.integers(1, 7))):
            vecs[f"t{i}"] = rng.integers(-1, 2, size=d).astype(float)
            parent = comments[int(rng.integers(0, i))].id if i and rng.random() < 0.5 else "q"
            author = "u1" if rng.random() < 0.3 else f"x{i}"
            comments.append(make_comment(f"q{i}", author, parent, text_key=f"t{i}"))
        sample = make_sample("q", author="x", text_key="post", comments=comments)
        cfg = ColdMapConfig(k1=int(rng.integers(1, n_posts + 1)), k2=int(rng.integers(1, 12)),
                            heuristics=HEURISTIC_LEVELS[3 if use_chains else 2])
        args = (users, side, vecs.__getitem__, cfg)
        resolver = make_resolver("cold-mapper", *args)
        asks = [(c.author, c.id) for c in comments if c.author not in users]
        asks += [("<cold>", c.id) for c in comments if c.author in users]
        for i in rng.permutation(len(asks)).tolist():
            user_id, comment_id = asks[i]
            got = resolver(user_id, ("comment", sample, comment_id))
            want = per_comment_h2(args, sample, comment_id)
            assert got.tobytes() == want.tobytes(), (trial, comment_id)
            checked["warm" if user_id == "<cold>" else "cold"] += 1
        hits = topk_rows(side.post_index, vecs["post"], cfg.k1)[0]
        checked["k2 >= pool"] += cfg.k2 >= sum(len(by_post[f"p{i}"]) for i in hits.tolist())
    assert min(checked.values()) >= 20, checked


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
    resolver = make_resolver("cold-mapper", users, side, texts, cfg)
    checked = 0
    for s in split.test[:6]:
        for c in s.comments[:2]:
            out = resolver("<cold>", ("comment", s, c.id))
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
    side = TrainSideData(post_index=side.post_index, comments_by_post=empty, chains=side.chains)
    cold = make_sample("q", author="x", text_key="shared topic words", comments=[
        make_comment("qc0", "y", "q", text_key="alpha beta")])
    resolver = make_resolver("cold-mapper", users, side, texts, ColdMapConfig(k1=1, k2=2))
    expected = h1_author(texts(cold.text_key), side.post_index, users, 1)
    assert np.array_equal(resolver("y", ("comment", cold, "qc0")), expected)


def test_resolver_replaces_its_sample_state_between_empty_and_full_pools(texts):
    """One H2 resolver over a train side where one post's comments are gone
    answers, in turn, a cascade whose H1 post has no comments, one whose H1
    post has, the first again, a third whose comments share the second's
    ids, the second's cold author and a warm comment of the second asked
    for as cold, each as a fresh resolver does."""
    users = all_users()
    side = build_train_side(train_samples_fixture(), texts)
    by_post = {"t1": side.comments_by_post["t1"], "t2": build_index([])}
    side = TrainSideData(post_index=side.post_index, comments_by_post=by_post, chains=side.chains)
    cfg = ColdMapConfig(k1=1, k2=1)

    def cascade(post_id, post_text, comment_text):
        return make_sample(post_id, author="x", text_key=post_text, comments=[
            make_comment("c0", "y", post_id, text_key=comment_text),
            make_comment("c1", "b1", "c0", text_key="gamma delta")])

    a = cascade("qa", "different subject entirely", "alpha beta")
    b = cascade("qb", "shared topic words", "alpha beta")
    c = cascade("qc", "shared topic words", "gamma delta")
    resolver = make_resolver("cold-mapper", users, side, texts, cfg)
    asked = [("y", ("comment", a, "c0")), ("y", ("comment", b, "c0")),
             ("y", ("comment", a, "c0")), ("y", ("comment", c, "c0")),
             ("x", ("post", b)), ("<cold>", ("comment", b, "c1"))]
    got = []
    for user_id, context in asked:
        fresh = make_resolver("cold-mapper", users, side, texts, cfg)(user_id, context)
        got.append(resolver(user_id, context))
        assert got[-1].tobytes() == fresh.tobytes()
    # H1's author vector, then H2's nearest comment author, then each again
    want = ["a2", "b1", "a2", "b2", "a1", "b2"]
    assert [g.tobytes() for g in got] == [
        users.vector(u).astype(np.float64).tobytes() for u in want]


def test_h3_off_equals_h3_on_for_flat_trees(texts):
    # single-level comment trees: chains of length 1 equal raw text vectors
    train = [star_sample("t1", author="a1", commenters=("b1", "b2"), timestamp=1),
             star_sample("t2", author="a2", commenters=("b3",), timestamp=2)]
    users = all_users()
    cold = star_sample("q", author="x", commenters=("y",))
    with_h3 = make_resolver(
        "cold-mapper", users, build_train_side(train, texts, use_chains=True), texts,
        ColdMapConfig(k1=2, k2=2, heuristics=frozenset({"h1", "h2", "h3"})))
    without_h3 = make_resolver(
        "cold-mapper", users, build_train_side(train, texts, use_chains=False), texts,
        ColdMapConfig(k1=2, k2=2, heuristics=frozenset({"h1", "h2"})))
    assert np.allclose(with_h3("y", ("comment", cold, "qc0")),
                       without_h3("y", ("comment", cold, "qc0")))


@pytest.mark.parametrize("use_chains", [True, False])
def test_train_side_of_the_other_representation_is_rejected(texts, use_chains):
    # a chain-sum side under H2 without H3, or a raw-text side under H3,
    # would score comments against vectors of the other kind
    side = build_train_side(train_samples_fixture(), texts, use_chains=use_chains)
    heuristics = frozenset({"h1", "h2"} if use_chains else {"h1", "h2", "h3"})
    cfg = ColdMapConfig(k1=2, k2=2, heuristics=heuristics)
    cold = star_sample("q", author="x", commenters=("y",))
    resolver = make_resolver("cold-mapper", all_users(), train_side=side, texts=texts, cfg=cfg)
    with pytest.raises(ValueError, match="reply-chain sums.*raw comment texts|"
                                         "raw comment texts.*reply-chain sums"):
        resolver("y", ("comment", cold, "qc0"))
    with pytest.raises(ValueError, match=f"use_chains={not use_chains}"):
        resolver("y", ("comment", cold, "qc0"))
    # a resolver without H2 never reads the comment representation
    h1_only = make_resolver("cold-mapper", all_users(), train_side=side, texts=texts,
                            cfg=ColdMapConfig(k1=2, k2=2, heuristics=frozenset({"h1"})))
    assert np.array_equal(
        h1_only("y", ("comment", cold, "qc0")),
        h1_author(texts(cold.text_key), side.post_index, all_users(), 2))


@pytest.mark.parametrize("heuristics", [{"h2"}, {"h3"}, {"h2", "h3"}, {"h1", "h3"}])
def test_non_nested_heuristics_are_rejected(heuristics):
    """H2 searches the comments under H1's posts and H3 is how H2 represents
    them, so a heuristic without the ones before it is refused."""
    with pytest.raises(ValueError, match="must be one of .*H2 searches the comments under"):
        ColdMapConfig(heuristics=frozenset(heuristics))


def test_mean_output_within_convex_hull_norm_bound():
    users = random_user_table([f"u{i}" for i in range(10)], d1=8, seed=9)
    rng = np.random.Generator(np.random.PCG64(10))
    idx = build_index([(f"p{i}", rng.normal(size=4), f"u{i}") for i in range(10)])
    out = h1_author(rng.normal(size=4), idx, users, k1=5)
    max_norm = max(np.linalg.norm(users.vector(f"u{i}")) for i in range(10))
    assert np.linalg.norm(out) <= max_norm + 1e-9


def test_chain_representations_match_single_calls(texts):
    s = make_sample("p1", comments=[
        make_comment("c1", "a", "p1"),
        make_comment("c2", "b", "c1"),
        make_comment("c3", "c", "c2"),
        make_comment("c4", "d", "p1"),
    ])
    reps = comment_representations(s, texts, True)
    assert set(reps) == {"c1", "c2", "c3", "c4"}
    for cid, rep in reps.items():
        assert np.allclose(rep, chain_prefix_representation(s, cid, texts))


def test_chain_representations_of_replies_listed_before_their_parents(texts):
    """A reply may come before its parent in input order; each chain sum is
    the one the parent-first order gives, bit for bit."""
    comments = [make_comment("c1", "a", "p1"), make_comment("c2", "b", "c1"),
                make_comment("c3", "c", "c2"), make_comment("c4", "d", "p1"),
                make_comment("c5", "e", "c4")]
    in_order = comment_representations(make_sample("p1", comments=comments), texts, True)
    shuffled = make_sample("p1", comments=[comments[i] for i in (2, 4, 1, 3, 0)])
    reps = comment_representations(shuffled, texts, True)
    assert {cid: rep.tobytes() for cid, rep in reps.items()} == {
        cid: rep.tobytes() for cid, rep in in_order.items()}
    for cid, rep in reps.items():
        assert np.allclose(rep, chain_prefix_representation(shuffled, cid, texts))
    raw = comment_representations(shuffled, texts, False)
    assert all(np.array_equal(raw[c.id], texts(c.text_key)) for c in comments)


def test_chain_representations_reject_a_reply_cycle(texts):
    # a loaded corpus cannot hold a cycle (validate_sample); a sample built in
    # code can, and its chain sums are an error, not an endless loop
    s = make_sample("p1", comments=[make_comment("c1", "a", "p1"),
                                    make_comment("c2", "b", "c3"),
                                    make_comment("c3", "c", "c2")])
    with pytest.raises(ValueError, match="'p1': a reply chain never reaches the post"):
        comment_representations(s, texts, True)


# ---------------------------------------------------------------------------
# resolver contract


def test_known_user_always_direct_lookup(texts):
    users = all_users()
    train = train_samples_fixture()
    side = build_train_side(train, texts)
    cfg = ColdMapConfig(k1=1, k2=1)
    sample = train[0]
    for resolver in (
        table_mean_resolver(users),
        make_resolver("cold-mapper", users, train_side=side, texts=texts, cfg=cfg),
    ):
        assert np.allclose(resolver("a1", ("post", sample)), users.vector("a1"))


def test_mean_fallback_for_cold_user(texts):
    users = all_users()
    resolver = table_mean_resolver(users)
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
    # an empty post index is logged once, when the resolver obtains its train side
    for side, heuristics, logged in ((empty_side, {"h1", "h2", "h3"}, 1),
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


def test_resolver_and_its_sample_state_form_no_reference_cycle(texts):
    """The resolver holds its last sample's retrieval itself and nothing
    refers back to it, so with the cycle collector off, dropping the
    resolver frees the train side at once."""
    import gc
    import weakref

    side = build_train_side(train_samples_fixture(), texts)
    resolver = make_resolver("cold-mapper", all_users(), train_side=side, texts=texts,
                             cfg=ColdMapConfig(k1=2, k2=2))
    cold = make_sample("q", author="a1", comments=[
        make_comment("qc0", "ghost", "q", text_key="alpha beta")])
    gc.disable()
    try:
        resolver("ghost", ("comment", cold, "qc0"))
        side_ref = weakref.ref(side)
        del resolver, side
        assert side_ref() is None
    finally:
        gc.enable()


def test_resolver_stops_trying_float32_proofs_after_misses_in_a_row(monkeypatch):
    """H1 asks certified_topk_rows first; after MISS_LIMIT misses in a row
    it runs only the float64 scan, and one proof resets the count."""
    import uen.coldmap as coldmap

    rng = np.random.Generator(np.random.PCG64(5))
    posts = [(f"p{i:02d}", rng.normal(size=8), f"a{i % 6}") for i in range(30)]
    users = random_user_table(sorted({o for _, _, o in posts}), d1=4)
    side = TrainSideData(post_index=build_index(posts), comments_by_post={}, chains=True)
    queries = {f"q{i}": rng.normal(size=8) for i in range(60)}
    cfg = ColdMapConfig(k1=3, heuristics=HEURISTIC_LEVELS[1])

    def expected(key):
        rows = topk_rows(side.post_index, queries[key], cfg.k1)[0]
        return _mean_user(users, owner_rows(users, side.post_index), rows)

    for proofs, calls_wanted in (((), coldmap.MISS_LIMIT),
                                 ((coldmap.MISS_LIMIT - 1,), 2 * coldmap.MISS_LIMIT)):
        calls = []

        def certified(index, query, k):
            calls.append(k)
            return topk_rows(index, query, k)[0] if len(calls) - 1 in proofs else None

        monkeypatch.setattr(coldmap, "certified_topk_rows", certified)
        resolver = make_resolver("cold-mapper", users, side, lambda key: queries[key], cfg)
        for key in queries:
            got = resolver("<cold>", ("post", make_sample(key, text_key=key)))
            assert got.tobytes() == expected(key).tobytes()
        assert len(calls) == calls_wanted


def test_make_resolver_validation(texts):
    users = all_users()
    side = build_train_side(train_samples_fixture(), texts)
    with pytest.raises(ValueError, match="unknown resolver"):
        make_resolver("bogus", users)
    with pytest.raises(ValueError, match="needs train_side, texts, and cfg"):
        make_resolver("cold-mapper", users)
    for heuristics in HEURISTIC_LEVELS[1:]:
        cfg = ColdMapConfig(heuristics=heuristics)
        for kwargs in ({}, {"train_side": side}, {"texts": texts}):
            with pytest.raises(ValueError, match="needs train_side, texts, and cfg"):
                make_resolver("cold-mapper", users, cfg=cfg, **kwargs)
    # with no heuristics nothing is retrieved, so nothing is needed for it
    bare = make_resolver("cold-mapper", users, cfg=ColdMapConfig(heuristics=HEURISTIC_LEVELS[0]))
    cold = train_samples_fixture()[0]
    assert bare("stranger", ("post", cold)).tobytes() == (
        users.mean_vector().astype(np.float64).tobytes())


def test_no_mapper_variant_is_the_mean_fallback_without_a_train_side(texts, monkeypatch):
    """Under no-mapper every occurrence gets the table row of a known user and
    the float64 table mean for a cold one, and no train side is built."""
    from uen import experiment
    from uen.assembly import occurrences
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    corpus = generate(SynthConfig(n_samples=60, n_users=20, seed=5, cold_user_rate_test=0.5))
    split = temporal_split(corpus)
    users = random_user_table(sorted({u for s in split.train for u in s.users()}), d1=8)

    def build_train_side(*args, **kwargs):
        raise AssertionError("no-mapper built a train side")

    monkeypatch.setattr(experiment, "build_train_side", build_train_side)
    resolver = experiment.variant_resolver("no-mapper", users, split.train, texts, None,
                                           ColdMapConfig(k1=3, k2=4))
    mean = users.mean_vector().astype(np.float64)
    n_cold = 0
    for s in split.train + split.val + split.test:
        for user_id, context in occurrences(s):
            want = users.vector(user_id).astype(np.float64) if user_id in users else mean
            n_cold += user_id not in users
            got = resolver(user_id, context)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert n_cold >= 20


def test_coldmap_config_validation():
    with pytest.raises(ValueError):
        ColdMapConfig(k1=0)
    with pytest.raises(ValueError):
        ColdMapConfig(k2=0)  # h2 enabled by default
    with pytest.raises(ValueError):
        ColdMapConfig(heuristics=frozenset({"h9"}))
    ColdMapConfig(k2=0, heuristics=frozenset({"h1"}))  # fine with h2 off
    for heuristics in HEURISTIC_LEVELS:
        assert ColdMapConfig(heuristics=heuristics).heuristics == heuristics



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
    pool = []
    for key, _ in post_hits:
        reps = comment_representations(by_post[key], texts, h3)
        pool += [(c.id, reps[c.id], c.author) for c in by_post[key].comments]
    if not pool:
        return _ref_mean(users, post_hits)
    comment_id = context[2]
    if h3:
        rep = chain_prefix_representation(sample, comment_id, texts)
    else:
        rep = texts(next(c.text_key for c in sample.comments if c.id == comment_id))
    return _ref_mean(users, _ref_top(pool, rep, cfg.k2))


@pytest.mark.parametrize("heuristics", [{"h1", "h2", "h3"}, {"h1", "h2"}],
                         ids=["default", "h3-off"])
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
            rows, _ = topk_rows(side.post_index, texts(ctx[1].text_key), cfg.k1)
            pool_sizes.add(sum(n_comments[side.post_index.keys[r]] for r in rows))
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


@pytest.mark.parametrize("heuristics", [{"h1"}, {"h1", "h2"}, {"h1", "h2", "h3"}])
def test_map_cold_commenter_equals_resolver(texts, heuristics):
    """A cold commenter mapped by a fresh resolver, which shares nothing with
    other occurrences, gets the bytes that one resolver serving the whole
    test split gives, H2 off included."""
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate

    corpus = generate(SynthConfig(n_samples=200, n_users=40, seed=1,
                                  cold_user_rate_test=0.5))
    split = temporal_split(corpus)
    train = list(split.train)
    users = random_user_table(sorted({u for s in train for u in s.users()}), d1=8)
    cfg = ColdMapConfig(k1=3, k2=5, heuristics=frozenset(heuristics))
    side = build_train_side(train, texts, use_chains="h3" in heuristics)
    resolver = make_resolver("cold-mapper", users, train_side=side, texts=texts, cfg=cfg)
    cold = [(s, c) for s in split.test for c in s.comments if c.author not in users]
    assert len(cold) >= 100
    for s, c in cold:
        fresh = make_resolver("cold-mapper", users, side, texts, cfg)
        got = fresh(c.author, ("comment", s, c.id))
        assert got.tobytes() == resolver(c.author, ("comment", s, c.id)).tobytes(), c.id


# sha256 of the rows the resolver gives every cold occurrence of
# `pinned_cold_rows`'s test split, in node order, keyed by (H3 on, k2), as the
# mapper that scored and ranked each cold commenter on its own with
# `topk_rows` produced them. The H2 pools hold 17 to 28 comments: k2 = 3 is
# below every one, k2 = 20 between them and k2 = 400 above every one.
PINNED_COLD_ROWS_SHA256 = {
    (True, 3): "200bbb5d19dafd96915baf33f63ddf5aeedd3ad5d20d2ea3d6fdf932da15ab77",
    (True, 20): "3375c9bac1558baef7712f144627fdb756747ea8385cff39c7b7071a26ea565d",
    (True, 400): "d9c37a72029da4738c33a3ae9dc5a9b03f9ea699ebdfe3d6c8bd1a2113d8770e",
    (False, 3): "0b9068f3247b640d97d89c7e0642cd1ee34670270c239d0ebfca69ad2652f63e",
    (False, 20): "2fec20073e65ccbaf853a7d7fc54c2ae26e2f7113a283ca61e48965aeff06677",
    (False, 400): "d9c37a72029da4738c33a3ae9dc5a9b03f9ea699ebdfe3d6c8bd1a2113d8770e",
}


def pinned_cold_rows(use_chains, k2):
    """The cold occurrences' rows and the pool sizes their H2 searched."""
    from uen.assembly import occurrences
    from uen.corpus import temporal_split
    from uen.synth import SynthConfig, generate
    from uen.text import TextEmbedConfig, make_hash_provider

    texts = make_hash_provider(TextEmbedConfig())
    split = temporal_split(generate(SynthConfig(n_samples=120, n_users=24, seed=7,
                                                cold_user_rate_test=0.5)))
    train = list(split.train)
    users = random_user_table(sorted({u for s in train for u in s.users()}), d1=8, seed=2)
    heuristics = HEURISTIC_LEVELS[3 if use_chains else 2]
    cfg = ColdMapConfig(k1=3, k2=k2, heuristics=heuristics)
    side = build_train_side(train, texts, use_chains=use_chains)
    resolver = make_resolver("cold-mapper", users, side, texts, cfg)
    rows, pools = [], set()
    for s in split.test:
        for user_id, context in occurrences(s):
            if user_id not in users:
                rows.append(resolver(user_id, context))
                if context[0] == "comment":
                    hits = topk_rows(side.post_index, texts(s.text_key), cfg.k1)[0]
                    pools.add(sum(len(side.comments_by_post[side.post_index.keys[r]])
                                  for r in hits))
    return np.stack(rows), pools


@pytest.mark.parametrize("use_chains", [True, False], ids=["h3-on", "h3-off"])
@pytest.mark.parametrize("k2", [3, 20, 400])
def test_cold_rows_are_pinned(use_chains, k2):
    import hashlib

    rows, pools = pinned_cold_rows(use_chains, k2)
    assert rows.dtype == np.float64 and len(rows) >= 100
    assert (min(pools), max(pools)) == (17, 28)
    digest = hashlib.sha256(rows.tobytes()).hexdigest()
    assert digest == PINNED_COLD_ROWS_SHA256[use_chains, k2], (use_chains, k2)
