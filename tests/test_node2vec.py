"""Biased walks and skip-gram training for user embeddings."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uen.graph import build_interaction_graph
from uen.node2vec import (
    MINIBATCH,
    Node2VecConfig,
    _SgnsWork,
    _sigmoid,
    sample_walks,
    sgns_step,
    train_skipgram,
    walk_rng,
    window_pairs,
)

from conftest import next_step_distribution, star_sample


def graph_from_edges(edges):
    """Build an InteractionGraph from (u, v, w) triples via synthetic samples."""
    samples = []
    for i, (u, v, w) in enumerate(edges):
        for j in range(w):
            samples.append(star_sample(f"p{i}_{j}", author=u, commenters=(v,)))
    return build_interaction_graph(samples)


def embed(g, cfg):
    """The user table of g: SGNS over its walks."""
    return train_skipgram(sample_walks(g, cfg), cfg)


def test_first_step_proportional_to_weights():
    g = graph_from_edges([("a", "b", 3), ("a", "c", 1)])
    dist = next_step_distribution(g, None, "a", p=2.0, q=0.5)
    assert dist["b"] == pytest.approx(0.75)
    assert dist["c"] == pytest.approx(0.25)


def test_biased_step_on_path():
    # path a-b-c with unit weights, at b having come from a
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1)])
    dist = next_step_distribution(g, "a", "b", p=4.0, q=0.25)
    assert dist["a"] == pytest.approx(1 / 17)
    assert dist["c"] == pytest.approx(16 / 17)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_common_neighbor_gets_unit_alpha():
    # triangle a-b-c plus pendant d on b: from a via b, c is a common
    # neighbor (alpha 1), a is the return (1/p), d is outward (1/q)
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("b", "d", 1)])
    dist = next_step_distribution(g, "a", "b", p=2.0, q=4.0)
    weights = {"a": 0.5, "c": 1.0, "d": 0.25}
    total = sum(weights.values())
    for node, w in weights.items():
        assert dist[node] == pytest.approx(w / total)


def test_isolated_node_has_empty_distribution():
    g = build_interaction_graph([star_sample("p1", author="a", commenters=("b",)),
                                 star_sample("p2", author="z", commenters=())])
    assert "z" in g.nodes
    assert next_step_distribution(g, None, "z", 1.0, 1.0) == {}


def oracle_walk(g, start, cfg, rng):
    """One walk drawn the plain way: a `choice` call per step."""
    walk = [start]
    while len(walk) < cfg.walk_length:
        cur = walk[-1]
        prev = walk[-2] if len(walk) > 1 else None
        dist = next_step_distribution(g, prev, cur, cfg.p, cfg.q)
        if not dist:
            break  # dead end: truncate, no restart
        nodes = list(dist.keys())
        probs = np.fromiter(dist.values(), dtype=np.float64)
        walk.append(nodes[rng.choice(len(nodes), p=probs)])
    return walk


def oracle_walks(g, cfg):
    walks = []
    for node in sorted(g.nodes):
        rng = walk_rng(node, cfg.seed)
        walks += [oracle_walk(g, node, cfg, rng) for _ in range(cfg.walks_per_node)]
    return walks


NAMES = st.sampled_from("abcdef")


@settings(max_examples=60, deadline=None)
@example(  # p = q = 1 skips the bias pass; the drawn floats almost never hit it
    edges=[("a", "b", 3), ("b", "c", 1), ("a", "c", 2), ("c", "d", 1), ("d", "d", 2),
           ("e", "a", 1)],
    isolated={"x"}, p=1.0, q=1.0, walk_length=7, walks_per_node=3, seed=1,
)
@given(
    edges=st.lists(st.tuples(NAMES, NAMES, st.integers(1, 3)), max_size=10),
    isolated=st.sets(st.sampled_from("xyz"), max_size=2),
    p=st.floats(0.1, 10.0),
    q=st.floats(0.1, 10.0),
    walk_length=st.integers(2, 7),
    walks_per_node=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_walks_equal_per_step_choice_oracle(edges, isolated, p, q, walk_length,
                                            walks_per_node, seed):
    samples = [star_sample(f"p{i}_{j}", author=u, commenters=(v,))
               for i, (u, v, w) in enumerate(edges) for j in range(w)]
    samples += [star_sample(f"i{u}", author=u, commenters=()) for u in sorted(isolated)]
    g = build_interaction_graph(samples)
    cfg = Node2VecConfig(d1=4, p=p, q=q, walk_length=walk_length,
                         walks_per_node=walks_per_node, seed=seed)
    assert sample_walks(g, cfg) == oracle_walks(g, cfg)


def test_walks_equal_oracle_on_a_wide_graph():
    # more start nodes than one walker chunk holds, with a hub and a self-loop
    edges = [("hub", f"u{i:03d}", 1 + i % 3) for i in range(120)]
    edges += [(f"u{i:03d}", f"u{i + 1:03d}", 1) for i in range(0, 119, 2)] + [("u007", "u007", 2)]
    g = graph_from_edges(edges)
    cfg = Node2VecConfig(d1=4, p=0.5, q=2.0, walk_length=6, walks_per_node=3, seed=11)
    assert sample_walks(g, cfg) == oracle_walks(g, cfg)


def test_single_edge_walks_alternate():
    g = graph_from_edges([("a", "b", 1)])
    cfg = Node2VecConfig(d1=4, walk_length=3, walks_per_node=2, epochs=1)
    for walk in sample_walks(g, cfg):
        assert walk in (["a", "b", "a"], ["b", "a", "b"])


def test_walks_deterministic_under_seed():
    g = graph_from_edges([("a", "b", 2), ("b", "c", 1), ("c", "a", 1)])
    cfg = Node2VecConfig(d1=4, walk_length=10, walks_per_node=3, seed=7)
    assert sample_walks(g, cfg) == sample_walks(g, cfg)


def test_empirical_transitions_match_analytic():
    g = graph_from_edges([("a", "b", 3), ("a", "c", 1), ("b", "c", 2), ("c", "d", 1)])
    p, q = 2.0, 0.5
    prev, cur = "a", "b"
    dist = next_step_distribution(g, prev, cur, p, q)
    rng = np.random.Generator(np.random.PCG64(0))
    nodes = list(dist.keys())
    probs = np.array([dist[n] for n in nodes])
    n_steps = 100_000
    draws = rng.choice(len(nodes), size=n_steps, p=probs)
    counts = np.bincount(draws, minlength=len(nodes)) / n_steps
    for i, node in enumerate(nodes):
        assert abs(counts[i] - dist[node]) < 0.01


def test_uniform_transition_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    g = graph_from_edges([("x", "a", 1), ("x", "b", 1), ("x", "c", 1)])
    dist = next_step_distribution(g, None, "x", 1.0, 1.0)
    assert all(v == pytest.approx(1 / 3) for v in dist.values())
    rng = np.random.Generator(np.random.PCG64(1))
    draws = rng.choice(3, size=100_000, p=list(dist.values()))
    observed = np.bincount(draws, minlength=3)
    _, pval = scipy_stats.chisquare(observed)
    assert pval > 0.01


def sgns_loss_and_grads(vc, ctx_matrix, labels):
    """Reference negative-sampling logistic loss for one center vs a stack of
    targets: (loss, grad wrt center, grad wrt each context row). Duplicated
    target rows each contribute their own gradient term. train_skipgram's
    update applies these gradients, scaled by its learning rate."""
    probs = 1.0 / (1.0 + np.exp(-(ctx_matrix @ vc)))
    eps = 1e-12
    loss = -float(
        np.sum(labels * np.log(probs + eps) + (1 - labels) * np.log(1 - probs + eps))
    )
    g = probs - labels  # (k+1,)
    return loss, g @ ctx_matrix, g[:, None] * vc[None, :]


def test_sgns_gradients_match_finite_differences():
    rng = np.random.Generator(np.random.PCG64(0))
    vc = rng.normal(size=6)
    ctx = rng.normal(size=(4, 6))
    labels = np.array([1.0, 0.0, 0.0, 0.0])
    _, grad_c, grad_ctx = sgns_loss_and_grads(vc, ctx, labels)
    h = 1e-5

    def loss_at(vc_, ctx_):
        return sgns_loss_and_grads(vc_, ctx_, labels)[0]

    for i in range(6):
        dv = np.zeros(6)
        dv[i] = h
        num = (loss_at(vc + dv, ctx) - loss_at(vc - dv, ctx)) / (2 * h)
        assert num == pytest.approx(grad_c[i], rel=1e-4, abs=1e-8)
    for r in range(4):
        for i in range(6):
            dm = np.zeros_like(ctx)
            dm[r, i] = h
            num = (loss_at(vc, ctx + dm) - loss_at(vc, ctx - dm)) / (2 * h)
            assert num == pytest.approx(grad_ctx[r, i], rel=1e-4, abs=1e-8)


def oracle_pairs(index_walks, window):
    """(center, context) pairs by plain loops over walks, centers, contexts."""
    pairs = []
    for wi in index_walks:
        for i, c in enumerate(wi):
            lo = max(0, i - window)
            hi = min(len(wi), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((c, wi[j]))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def padded(index_walks):
    lengths = np.array([len(w) for w in index_walks])
    seqs = np.full((len(index_walks), lengths.max()), -1, dtype=np.int64)
    for r, w in enumerate(index_walks):
        seqs[r, : len(w)] = w
    return seqs, lengths


@settings(max_examples=80, deadline=None)
@given(
    index_walks=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=9),
                         min_size=1, max_size=6),
    window=st.integers(1, 10),
)
def test_window_pairs_equal_loops(index_walks, window):
    got = window_pairs(*padded(index_walks), window)
    assert np.array_equal(got, oracle_pairs(index_walks, window))


@pytest.mark.parametrize("index_walks, window", [
    ([[0, 0, 0, 0]], 5),  # one-node graph: a self-loop walk shorter than the window
    ([[0], [1], [2]], 3),  # isolated nodes only: no pairs
    ([[0, 1], [2, 3, 4, 5, 6, 7, 8, 9, 10, 11], [5]], 4),
])
def test_window_pairs_edge_cases(index_walks, window):
    got = window_pairs(*padded(index_walks), window)
    want = oracle_pairs(index_walks, window)
    assert got.shape == want.shape and np.array_equal(got, want)


def oracle_step(table, centers, contexts, negatives, lr):
    """One minibatch by a loop over pairs, in float64: every pair scores its
    context and the batch's shared negatives at the pre-batch rows."""
    v = len(table) // 2
    before = table.astype(np.float64)
    want = before.copy()
    labels = np.r_[1.0, np.zeros(len(negatives))]
    for c, x, rate in zip(centers, contexts, lr):
        targets = np.r_[x, negatives]
        _, grad_c, grad_ctx = sgns_loss_and_grads(before[c], before[v + targets], labels)
        want[c] -= rate * grad_c
        for t, grad in zip(targets, grad_ctx):
            want[v + t] -= rate * grad
    return want


def test_minibatch_step_sums_per_pair_gradients():
    rng = np.random.Generator(np.random.PCG64(5))
    v, d = 4, 6
    table = rng.normal(size=(2 * v, d))
    # row 0 is the center of three pairs; context row 1 recurs across pairs
    # and among the negatives, and negative 2 is drawn twice
    centers = np.array([0, 1, 0, 3, 0])
    contexts = np.array([1, 1, 2, 0, 1])
    negatives = np.array([1, 2, 2])
    lr = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    want = oracle_step(table, centers, contexts, negatives, lr)
    got = table.copy()
    sgns_step(got, centers, contexts, negatives, lr)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    # a float32 table is stepped in float32: each product rounds to 24 bits
    table32 = table.astype(np.float32)
    want = oracle_step(table32, centers, contexts, negatives, lr)
    sgns_step(table32, centers, contexts, negatives, lr)
    assert table32.dtype == np.float32
    np.testing.assert_allclose(table32, want, rtol=1e-6, atol=1e-6)


def allocating_step(table, centers, contexts, negatives, lr):
    """One SGNS step with every array made fresh: the reference that
    `sgns_step` on reused buffers must match bit for bit."""
    v, d = len(table) // 2, table.shape[1]
    lr = lr.astype(table.dtype)
    vc, uo, un = table[centers], table[v + contexts], table[v + negatives]
    go = (_sigmoid(np.einsum("bd,bd->b", vc, uo)) - 1.0) * lr
    gn = _sigmoid(vc @ un.T) * lr[:, None]
    rows = np.concatenate([centers, v + contexts, v + negatives])
    grads = np.concatenate([go[:, None] * uo + gn @ un, go[:, None] * vc, gn.T @ vc])
    uniq, inv = np.unique(rows, return_inverse=True)
    cells = (inv * d)[:, None] + np.arange(d)
    table[uniq] -= np.bincount(cells.ravel(), grads.ravel(), len(uniq) * d).reshape(-1, d)


@settings(max_examples=60, deadline=None)
@example(v=1, d=1, k=5, sizes=[171], tail=False, draw="uniform", spread=False,
         dtype=np.float32, seed=0)  # one context row takes the whole batch
@given(
    v=st.integers(1, 40),
    d=st.integers(1, 130),
    k=st.integers(1, 6),
    sizes=st.lists(st.integers(1, MINIBATCH), min_size=1, max_size=4),
    tail=st.booleans(),
    draw=st.sampled_from(["uniform", "skewed", "one-row"]),
    spread=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_buffered_steps_equal_allocating_steps(v, d, k, sizes, tail, draw, spread, dtype, seed):
    """A run of batches through one shared `_SgnsWork`, with a short batch
    after a full one when `tail` is set, so the buffers hold stale rows past
    the batch; small vocabularies repeat centers, contexts and negatives.
    `skewed` draws rows from a steep law and `one-row` sends every index to
    row 0, so one context row takes a whole batch. A `spread` table holds
    magnitudes from 1e-40 to 1e3 and -0.0 entries. The scatter's buffers
    start as NaN, so a step that reads a row it did not write in that step
    fails."""
    if tail:
        sizes = [MINIBATCH, *sizes[:-1], min(sizes[-1], MINIBATCH - 1)]
    rng = np.random.Generator(np.random.PCG64(seed))
    table = rng.normal(size=(2 * v, d))
    if spread:
        table *= 10.0 ** rng.uniform(-40, 3, size=table.shape)
        table[rng.random(table.shape) < 0.2] = -0.0
    table = table.astype(dtype)
    want = table.copy()
    work = _SgnsWork(max(sizes), k, d, table.dtype)
    for buf in (work.picked, work.sums, work.touched):
        buf.fill(np.nan)
    law = rng.random(v) ** 8 + 1e-3
    law /= law.sum()

    def draw_rows(n):
        if draw == "one-row":
            return np.zeros(n, np.int64)
        if draw == "skewed":
            return rng.choice(v, size=n, p=law)
        return rng.integers(v, size=n)

    for b in sizes:
        centers, contexts, negatives = draw_rows(b), draw_rows(b), draw_rows(k)
        lr = rng.uniform(1e-3, 0.5, size=b)
        allocating_step(want, centers, contexts, negatives, lr)
        sgns_step(table, centers, contexts, negatives, lr, work)
        assert table.tobytes() == want.tobytes()


def test_diverging_sgns_is_one_value_error():
    """Every learning rate too large for float32 ends in one error that names
    SGNS, with no numpy warning on the way."""
    g = graph_from_edges([("a", "b", 1), ("b", "c", 2), ("a", "c", 1), ("c", "d", 1)])
    for lr in (1e30, 1e38, 1e300):
        cfg = Node2VecConfig(d1=8, walk_length=6, walks_per_node=2, epochs=2,
                             learning_rate=lr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^SGNS diverged in epoch \d at learning_rate "
                                                 + re.escape(f"{lr:g}: ")):
                embed(g, cfg)


def test_degenerate_sgns_table_is_one_value_error():
    """A learning rate that leaves the table finite but thousands of times
    past any trained scale ends in the same error, with no numpy warning."""
    g = graph_from_edges([("a", "b", 1), ("b", "c", 2), ("a", "c", 1), ("c", "d", 1)])
    for lr in (10.0, 100.0, 1e5):
        cfg = Node2VecConfig(d1=8, walk_length=6, walks_per_node=2, epochs=2,
                             learning_rate=lr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^SGNS diverged in epoch 0 at learning_rate "
                                                 + re.escape(f"{lr:g}: ")):
                embed(g, cfg)


def test_diverging_sgns_names_the_node_in_most_pairs():
    """A star's hub is in most of the epoch's pairs and takes most updates:
    the divergence error names it and its share, not only the rate."""
    g = build_interaction_graph([star_sample("p", author="hub",
                                             commenters=tuple(f"u{i}" for i in range(200)))])
    with pytest.raises(ValueError, match=r"^SGNS diverged in epoch 0 at learning_rate 0\.025: "
                                         r".*; node 'hub' is in 80\.0% of the epoch's pairs$"):
        embed(g, Node2VecConfig())


def test_batched_negative_draws_equal_one_choice_call():
    # searching the cdf batch by batch equals one rng.choice call over all
    # the batches: the draw train_skipgram's negatives are made with
    probs = np.array([1.0, 4.0, 0.5, 2.5]) ** 0.75
    probs /= probs.sum()
    want = np.random.Generator(np.random.PCG64(3)).choice(4, size=(10, 3), p=probs)
    rng = np.random.Generator(np.random.PCG64(3))
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    got = np.concatenate([cdf.searchsorted(rng.random((n, 3)), side="right")
                          for n in (4, 4, 2)])
    assert np.array_equal(got, want)


def test_shared_negatives_equal_one_choice_call_per_batch():
    # train_skipgram shuffles the pairs each epoch, then draws one set of k
    # negatives per batch: rng.choice(v, size=k, p=probs), batch by batch
    probs = np.array([1.0, 4.0, 0.5, 2.5, 3.0]) ** 0.75
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    want_rng = np.random.Generator(np.random.PCG64(3))
    got_rng = np.random.Generator(np.random.PCG64(3))
    for _epoch in range(2):
        assert np.array_equal(want_rng.permutation(7), got_rng.permutation(7))
        for _batch in range(3):
            want = want_rng.choice(5, size=4, p=probs)
            got = cdf.searchsorted(got_rng.random(4), side="right")
            assert np.array_equal(got, want)


def clique_graph(members, tag):
    samples = []
    for i, u in enumerate(members):
        others = tuple(v for v in members if v != u)
        samples.append(star_sample(f"{tag}{i}", author=u, commenters=others))
    return samples


def test_disconnected_cliques_separate():
    left = [f"l{i}" for i in range(8)]
    right = [f"r{i}" for i in range(8)]
    g = build_interaction_graph(clique_graph(left, "pl") + clique_graph(right, "pr"))
    cfg = Node2VecConfig(d1=8, walk_length=10, walks_per_node=5, window=3,
                         epochs=2, seed=0)
    table = embed(g, cfg)
    m = table.matrix / np.linalg.norm(table.matrix, axis=1, keepdims=True)
    rows = {u: m[table.index[u]] for u in left + right}
    intra, inter = [], []
    for i, u in enumerate(left):
        for v in left[i + 1:]:
            intra.append(rows[u] @ rows[v])
        for v in right:
            inter.append(rows[u] @ rows[v])
    assert np.mean(intra) > np.mean(inter)


def test_one_node_graph_yields_finite_row():
    s = star_sample("p1", author="a", commenters=("a",))  # self-loop only
    g = build_interaction_graph([s])
    cfg = Node2VecConfig(d1=8, walk_length=4, walks_per_node=1, epochs=1)
    table = embed(g, cfg)
    assert len(table) == 1
    assert np.all(np.isfinite(table.matrix))


def test_table_shape_default_dim():
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1), ("c", "d", 2)])
    cfg = Node2VecConfig(walk_length=5, walks_per_node=2, epochs=1)
    table = embed(g, cfg)
    assert table.matrix.shape == (4, 128)
    assert np.all(np.isfinite(table.matrix))


def test_training_bit_identical_under_seed():
    g = graph_from_edges([("a", "b", 1), ("b", "c", 2), ("a", "c", 1)])
    cfg = Node2VecConfig(d1=8, walk_length=6, walks_per_node=2, epochs=2, seed=3)
    t1 = embed(g, cfg)
    t2 = embed(g, cfg)
    assert t1.ids == t2.ids
    assert np.array_equal(t1.matrix, t2.matrix)


def test_table_is_centred():
    """The column mean is removed in float64 before the float32 cast, so
    what is left of it is float32 rounding of the rows."""
    left = [f"l{i}" for i in range(8)]
    right = [f"r{i}" for i in range(8)]
    g = build_interaction_graph(clique_graph(left, "pl") + clique_graph(right, "pr"))
    table = embed(g, Node2VecConfig(d1=16, walk_length=8, walks_per_node=3,
                                                    epochs=2, seed=4))
    mean = table.matrix.mean(axis=0, dtype=np.float64)
    assert np.all(np.abs(mean) <= np.finfo(np.float32).eps * np.abs(table.matrix).max(axis=0))
    assert np.abs(table.matrix).max() > 0


def test_empty_walk_corpus_rejected():
    with pytest.raises(ValueError):
        train_skipgram([], Node2VecConfig(d1=4))


def test_mean_vector_examples():
    from uen.embedding import EmbeddingTable, FormatError

    t = EmbeddingTable.from_rows(["a", "b"], np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert np.allclose(t.mean_vector(), [2.0, 2.0])
    single = EmbeddingTable.from_rows(["a"], np.array([[5.0, -1.0]]))
    assert np.allclose(single.mean_vector(), [5.0, -1.0])
    with pytest.raises(FormatError):
        EmbeddingTable.from_rows([], np.zeros((0, 2))).mean_vector()


def test_mean_vector_against_compensated_sum():
    from uen.embedding import EmbeddingTable

    rng = np.random.Generator(np.random.PCG64(4))
    matrix = rng.normal(size=(200, 16)).astype(np.float32)
    t = EmbeddingTable.from_rows([f"u{i}" for i in range(200)], matrix)
    oracle = np.zeros(16, dtype=np.float64)
    comp = np.zeros(16, dtype=np.float64)
    for row in matrix.astype(np.float64):
        y = row - comp
        s = oracle + y
        comp = (s - oracle) - y
        oracle = s
    assert np.allclose(t.mean_vector(), oracle / 200, atol=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        Node2VecConfig(d1=0)
    with pytest.raises(ValueError):
        Node2VecConfig(walk_length=1)
    with pytest.raises(ValueError):
        Node2VecConfig(epochs=0)
    # NaN fails every comparison, so `<= 0` alone would let it reach the walker
    for name in ("p", "q", "learning_rate"):
        for value in (0.0, -0.025, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
                Node2VecConfig(**{name: value})
