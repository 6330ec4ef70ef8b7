"""GNN forward/backward correctness, readout boundaries, and training."""

import warnings
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uen.assembly import SampleGraph
from uen.gnn import (
    ARCHS,
    DivergenceError,
    GnnConfig,
    ModelParams,
    forward,
    init_params,
    load_model,
    loss_and_grads,
    predict,
    save_history,
    save_model,
    train,
)

from conftest import MODEL_DEFECTS, evaluate_loss, zeros_like


def make_graph(features, edges, label=0, sample_id="s"):
    return SampleGraph(
        node_order=tuple(f"n{i}" for i in range(len(features))),
        features=np.asarray(features, dtype=np.float64),
        edges=tuple(edges),
        label=label,
        sample_id=sample_id,
    )


def random_graph(rng, n_nodes, in_dim, label=None):
    feats = rng.normal(size=(n_nodes, in_dim))
    edges = [(rng.integers(0, i), i) for i in range(1, n_nodes)]  # random tree
    return make_graph(feats, edges,
                      label=int(rng.integers(2)) if label is None else label)


def make_params(arch, in_dim=6, hidden=5, layers=2, lam=0.5, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    cfg = GnnConfig(arch=arch, layers=layers, hidden=hidden, lam=lam)
    return init_params(cfg, in_dim, rng)


def flatten(params):
    return np.concatenate([params.tensors[k].reshape(-1) for k in sorted(params.tensors)])


def set_flat(params, vec):
    offset = 0
    for k in sorted(params.tensors):
        t = params.tensors[k]
        t[...] = vec[offset: offset + t.size].reshape(t.shape)
        offset += t.size


# ---------------------------------------------------------------------------
# reference oracle: one sample at a time on dense per-graph matrices, the
# forward and backward pass the padded batch replaced


def oracle_operator(arch, g):
    """The graph's (n, n) propagation operator, built for one graph at a time:
    GCN's normalized Â, SAGE's neighbour mean (an isolated node aggregates
    itself) or GAT's mask of neighbours plus self."""
    n = len(g.node_order)
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * len(g.edges))
    a = np.zeros((n, n))
    a[ends[0::2], ends[1::2]] = a[ends[1::2], ends[0::2]] = 1.0
    if arch == "gcn":
        a.flat[:: n + 1] += 1.0  # Â = A + I
        d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    deg = a.sum(axis=1)[:, None]
    if arch == "sage":
        return np.where(deg > 0, a / np.maximum(deg, 1.0), np.eye(n))
    return (a > 0) | np.eye(n, dtype=bool)


def oracle_loss_and_grads(params, g):
    """Cross-entropy of one labeled sample and its gradients, from dense
    per-sample operators built with a loop over the edges."""
    n = len(g.node_order)
    adj = np.zeros((n, n))
    for i, j in g.edges:
        adj[i, j] = adj[j, i] = 1.0
    a_hat = adj + np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    prop = a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    deg = adj.sum(axis=1)
    mean = np.zeros_like(adj)
    for i in range(n):
        if deg[i] > 0:
            mean[i] = adj[i] / deg[i]
        else:
            mean[i, i] = 1.0
    mask = adj.astype(bool) | np.eye(n, dtype=bool)
    t = params.tensors

    def leaky(x):
        return np.where(x > 0, x, 0.2 * x)

    h = np.asarray(g.features, dtype=np.float64)
    cache = {"h0": h}
    for l in range(params.layers):
        if params.arch == "gcn":
            cache[f"ah{l}"] = prop @ h
            z = cache[f"ah{l}"] @ t[f"layer{l}.W"]
        elif params.arch == "sage":
            cache[f"mh{l}"] = mean @ h
            z = h @ t[f"layer{l}.W_self"] + cache[f"mh{l}"] @ t[f"layer{l}.W_neigh"]
        else:
            p = h @ t[f"layer{l}.W"]
            pre = (p @ t[f"layer{l}.a_src"])[:, None] + (p @ t[f"layer{l}.a_dst"])[None, :]
            e = np.where(mask, leaky(pre), -np.inf)
            ex = np.exp(e - e.max(axis=1, keepdims=True))
            ex[~mask] = 0.0
            alpha = ex / ex.sum(axis=1, keepdims=True)
            z = alpha @ p
            cache[f"p{l}"], cache[f"pre{l}"], cache[f"alpha{l}"] = p, pre, alpha
        cache[f"z{l}"] = z
        h = cache[f"h{l + 1}"] = np.maximum(z, 0.0)
    pooled = params.lam * h[0] + (1.0 - params.lam) * h[1:].mean(axis=0)
    logits = t["cls.W"] @ pooled + t["cls.b"]
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    loss = -float(np.log(probs[g.label] + 1e-300))

    grads = zeros_like(params)
    dlogits = probs.copy()
    dlogits[g.label] -= 1.0
    grads.tensors["cls.W"] = np.outer(dlogits, pooled)
    grads.tensors["cls.b"] = dlogits
    d_pooled = t["cls.W"].T @ dlogits
    dh = np.zeros_like(h)
    dh[0] = params.lam * d_pooled
    dh[1:] += (1.0 - params.lam) / (n - 1) * d_pooled
    for l in reversed(range(params.layers)):
        dz = dh * (cache[f"z{l}"] > 0)
        h_in = cache[f"h{l}"]
        if params.arch == "gcn":
            grads.tensors[f"layer{l}.W"] = cache[f"ah{l}"].T @ dz
            dh = prop.T @ (dz @ t[f"layer{l}.W"].T)
        elif params.arch == "sage":
            grads.tensors[f"layer{l}.W_self"] = h_in.T @ dz
            grads.tensors[f"layer{l}.W_neigh"] = cache[f"mh{l}"].T @ dz
            dh = dz @ t[f"layer{l}.W_self"].T + mean.T @ (dz @ t[f"layer{l}.W_neigh"].T)
        else:
            p, alpha = cache[f"p{l}"], cache[f"alpha{l}"]
            d_alpha = dz @ p.T
            de = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
            dpre = de * np.where(cache[f"pre{l}"] > 0, 1.0, 0.2)
            dpre[~mask] = 0.0
            ds, dt = dpre.sum(axis=1), dpre.sum(axis=0)
            dp = alpha.T @ dz + ds[:, None] * t[f"layer{l}.a_src"][None, :]
            dp += dt[:, None] * t[f"layer{l}.a_dst"][None, :]
            grads.tensors[f"layer{l}.a_src"] = p.T @ ds
            grads.tensors[f"layer{l}.a_dst"] = p.T @ dt
            grads.tensors[f"layer{l}.W"] = h_in.T @ dp
            dh = dp @ t[f"layer{l}.W"].T
    return loss, grads, logits


def oracle_batch(params, batch):
    """Mean of the oracle's per-sample losses and gradients."""
    results = [oracle_loss_and_grads(params, g) for g in batch]
    loss = float(np.mean([r[0] for r in results]))
    grads = {k: np.mean([r[1].tensors[k] for r in results], axis=0) for k in params.tensors}
    return loss, grads


def graph_with_isolated_node(rng, n_nodes, in_dim):
    """A random tree over all nodes but the last, which has no edge."""
    g = random_graph(rng, n_nodes - 1, in_dim)
    feats = np.vstack([g.features, rng.normal(size=(1, in_dim))])
    return make_graph(feats, g.edges, label=g.label, sample_id="isolated")


@st.composite
def mixed_batches(draw):
    """1 to 6 graphs of 2 to 12 nodes, sometimes one with an isolated node."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=6))
    batch = [random_graph(rng, n, 6) for n in sizes]
    if draw(st.booleans()):
        batch.insert(draw(st.integers(0, len(batch))),
                     graph_with_isolated_node(rng, draw(st.integers(3, 12)), 6))
    return batch, draw(st.integers(0, 2**16)), draw(st.sampled_from([0.0, 0.62, 1.0]))


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=60, deadline=None)
@given(case=mixed_batches())
def test_batch_equals_per_sample_oracle(arch, case):
    batch, seed, lam = case
    params = make_params(arch, hidden=5, layers=3, lam=lam, seed=seed)
    loss, grads = loss_and_grads(params, batch)
    ref_loss, ref_grads = oracle_batch(params, batch)
    assert abs(loss - ref_loss) <= 1e-10
    for k in params.tensors:
        assert np.max(np.abs(grads.tensors[k] - ref_grads[k])) <= 1e-10, k
    for g in batch:
        assert np.max(np.abs(forward(params, g)[1] - oracle_loss_and_grads(params, g)[2])) <= 1e-10


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=60, deadline=None)
@given(case=mixed_batches())
def test_packed_operators_equal_per_graph_oracle(arch, case):
    from uen.gnn import _pack, _split

    batch, seed, lam = case
    # the batch packed from a split that holds its graphs in another order
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(len(batch))
    split = _split([batch[i] for i in perm], 6, labeled=False)
    _, cache = _pack(make_params(arch, lam=lam, seed=seed), split, np.argsort(perm).tolist())
    op = cache["op"]
    n_max = op.shape[1]
    for b, g in enumerate(batch):
        n = len(g.node_order)
        assert np.array_equal(op[b, :n, :n], oracle_operator(arch, g))
        assert not op[b, :n, n:].any()
        # a pad slot is an isolated node: its row is self-only
        assert np.array_equal(op[b, n:], np.eye(n_max, dtype=op.dtype)[n:])


@pytest.mark.parametrize("arch", ARCHS)
def test_shuffled_batch_gives_same_result(arch):
    rng = np.random.Generator(np.random.PCG64(41))
    batch = [random_graph(rng, n, 6) for n in (2, 9, 4, 12, 3, 7, 5)]
    params = make_params(arch, hidden=5, layers=3, lam=0.62)
    loss, grads = loss_and_grads(params, batch)
    shuffled_loss, shuffled = loss_and_grads(params, [batch[i] for i in rng.permutation(7)])
    assert abs(loss - shuffled_loss) <= 1e-12
    for k in params.tensors:
        assert np.max(np.abs(grads.tensors[k] - shuffled.tensors[k])) <= 1e-12


@pytest.mark.parametrize("arch", ARCHS)
def test_pad_slots_change_no_logit(arch):
    from uen.gnn import _forward, _pack, _split

    rng = np.random.Generator(np.random.PCG64(43))
    graphs = [random_graph(rng, n, 6) for n in (3, 5, 8)]
    params = make_params(arch, hidden=5, layers=3, lam=0.3)
    x, cache = _pack(params, _split(graphs, 6, labeled=False), range(3))
    _, logits = _forward(params, x, dict(cache))
    # four more pad slots per graph: isolated zero-feature nodes
    wide = {"real": np.zeros((3, 12), dtype=bool), "readout": np.zeros((3, 12)),
            "op": np.zeros((3, 12, 12), dtype=cache["op"].dtype)}
    for k in wide:
        wide[k][(slice(None),) + (slice(8),) * (wide[k].ndim - 1)] = cache[k]
    wide["op"][:, np.arange(8, 12), np.arange(8, 12)] = 1
    h, wide_logits = _forward(params, x, wide)
    np.testing.assert_allclose(wide_logits, logits, rtol=0, atol=1e-13)
    assert not np.any(h[~wide["real"]])


@pytest.mark.parametrize("arch", ARCHS)
def test_evaluate_loss_equals_per_sample_oracle(arch):
    rng = np.random.Generator(np.random.PCG64(47))
    graphs = [random_graph(rng, int(rng.integers(2, 13)), 6) for _ in range(70)]
    params = make_params(arch, hidden=5, layers=3, lam=0.62)
    loss, acc = evaluate_loss(params, graphs)  # two full batches and a part
    ref = [oracle_loss_and_grads(params, g) for g in graphs]
    assert abs(loss - np.mean([r[0] for r in ref])) <= 1e-10
    assert acc == np.mean([int(r[2][1] >= r[2][0]) == g.label for r, g in zip(ref, graphs)])


def test_evaluate_loss_rejects_empty():
    with pytest.raises(ValueError, match="no samples"):
        evaluate_loss(make_params("gcn"), [])


@pytest.mark.parametrize("batch_size", [1, 4, 32])
def test_evaluate_loss_rejects_unlabeled_by_name(batch_size):
    rng = np.random.Generator(np.random.PCG64(53))
    graphs = [random_graph(rng, 4, 6) for _ in range(6)]
    graphs[4] = make_graph(graphs[4].features, graphs[4].edges, label=None,
                           sample_id="unlabeled-one")
    with pytest.raises(ValueError, match="sample unlabeled-one is unlabeled"):
        evaluate_loss(make_params("gcn"), graphs, batch_size)


def test_unlabeled_val_sample_fails_training_by_name():
    rng = np.random.Generator(np.random.PCG64(59))
    graphs = separable_graphs(rng, 20)
    graphs[17] = make_graph(graphs[17].features, graphs[17].edges, label=None,
                            sample_id="no-label")
    with pytest.raises(ValueError, match="sample no-label is unlabeled"):
        train(graphs[:16], graphs[16:], GnnConfig(epochs=1), in_dim=6)


# ---------------------------------------------------------------------------
# readout boundaries


def readout_logits(params, h):
    """Recompute the lambda-mix readout and head from final node embeddings."""
    pooled = params.lam * h[0] + (1.0 - params.lam) * h[1:].mean(axis=0)
    return params.tensors["cls.W"] @ pooled + params.tensors["cls.b"]


@pytest.mark.parametrize("arch", ARCHS)
def test_lambda_one_readout_ignores_comment_embeddings(arch):
    rng = np.random.Generator(np.random.PCG64(1))
    params = make_params(arch, lam=1.0, seed=2)
    g = random_graph(rng, 5, 6)
    h, logits = forward(params, g)
    assert np.allclose(readout_logits(params, h), logits)
    perturbed = h.copy()
    perturbed[1:] += rng.normal(size=perturbed[1:].shape)
    assert np.max(np.abs(readout_logits(params, perturbed) - logits)) <= 1e-6


@pytest.mark.parametrize("arch", ARCHS)
def test_lambda_one_pooled_is_post_row(arch):
    rng = np.random.Generator(np.random.PCG64(3))
    params = make_params(arch, lam=1.0)
    g = random_graph(rng, 6, 6)
    cache = {}
    h, _ = forward(params, g, cache)
    assert np.array_equal(cache["pooled"], h[0])


@pytest.mark.parametrize("arch", ARCHS)
def test_lambda_zero_identical_comments_pool_exactly(arch):
    params = make_params(arch, lam=0.0)
    # two comments attached symmetrically to the post with equal features
    feats = np.zeros((3, 6))
    feats[0] = np.arange(6)
    feats[1] = feats[2] = np.arange(6)[::-1] * 0.5
    g = make_graph(feats, [(0, 1), (0, 2)])
    cache = {}
    h, _ = forward(params, g, cache)
    assert np.array_equal(h[1], h[2])
    assert np.array_equal(cache["pooled"], h[1])


def test_gcn_single_layer_matches_hand_computation():
    # 3-node path; identity weights isolate the propagation operator
    feats = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 1.0]])
    g = make_graph(feats, [(0, 1), (1, 2)])
    params = ModelParams(
        "gcn", 0.5, 3, 3, 1,
        {"layer0.W": np.eye(3), "cls.W": np.zeros((2, 3)), "cls.b": np.zeros(2)},
    )
    h, _ = forward(params, g)
    a_hat = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    d = a_hat.sum(axis=1)
    prop = a_hat / np.sqrt(np.outer(d, d))
    assert np.allclose(h, np.maximum(prop @ feats, 0.0))


# ---------------------------------------------------------------------------
# loss and gradients


def test_uniform_logits_loss_is_ln2():
    params = make_params("gcn")
    for k in params.tensors:
        params.tensors[k][...] = 0.0
    g = random_graph(np.random.Generator(np.random.PCG64(0)), 4, 6, label=0)
    loss, _ = loss_and_grads(params, [g])
    assert loss == pytest.approx(np.log(2.0))


def test_confident_samples_keep_their_loss():
    """At a logit gap of 40 the softmax of the label rounds to 1 in float64;
    the loss of a confident correct sample is still exp(-40), not 0, and a
    confident wrong one costs the gap. The gradient is softmax - one-hot."""
    from uen.gnn import _nll

    logits = np.array([[40.0, 0.0], [0.0, 40.0], [40.0, 0.0]], dtype=np.float32)
    losses, grad = _nll(logits, np.array([0, 1, 1]))
    assert losses.dtype == np.float64
    assert losses[0] > 0 and losses[1] > 0
    assert losses[:2] == pytest.approx([np.exp(-40.0)] * 2, rel=1e-12)
    assert losses[2] == pytest.approx(40.0, rel=1e-12)
    p = np.exp(-40.0) / (1 + np.exp(-40.0))
    want = np.array([[1 - p, p], [p, 1 - p], [1 - p, p]]) - np.eye(2)[[0, 1, 1]]
    assert grad.dtype == np.float32
    np.testing.assert_allclose(grad, want.astype(np.float32), rtol=1e-6, atol=0)


@pytest.mark.parametrize("arch", ARCHS)
def test_gradients_match_finite_differences(arch):
    rng = np.random.Generator(np.random.PCG64(7))
    params = make_params(arch, in_dim=5, hidden=4, layers=2, lam=0.4)
    g = random_graph(rng, 5, 5, label=1)
    _, grads = loss_and_grads(params, [g])
    analytic = flatten(grads)
    theta = flatten(params)
    h = 1e-4
    numeric = np.zeros_like(theta)
    probe = make_params(arch, in_dim=5, hidden=4, layers=2, lam=0.4)
    for i in range(len(theta)):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            t = theta.copy()
            t[i] += sign * h
            set_flat(probe, t)
            loss, _ = loss_and_grads(probe, [g])
            numeric[i] += sign * loss
    numeric /= 2 * h
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    assert np.max(rel) < 1e-3


def test_duplicated_sample_batch_keeps_loss():
    rng = np.random.Generator(np.random.PCG64(9))
    params = make_params("sage")
    g = random_graph(rng, 4, 6, label=0)
    single, _ = loss_and_grads(params, [g])
    doubled, _ = loss_and_grads(params, [g, g])
    assert doubled == pytest.approx(single)


def test_unlabeled_sample_rejected():
    params = make_params("gcn")
    g = make_graph(np.zeros((2, 6)), [(0, 1)], label=None)
    with pytest.raises(ValueError, match="unlabeled"):
        loss_and_grads(params, [g])


@pytest.mark.parametrize("arch", ARCHS)
def test_permutation_equivariance(arch):
    rng = np.random.Generator(np.random.PCG64(11))
    params = make_params(arch)
    g = random_graph(rng, 6, 6)
    _, logits = forward(params, g)
    # permute comment nodes (post stays node 0), relabel edges
    perm = [0] + list(1 + rng.permutation(5))
    inv = np.argsort(perm)
    feats = g.features[perm]
    edges = [(int(inv[i]), int(inv[j])) for i, j in g.edges]
    _, logits_p = forward(params, make_graph(feats, edges, label=g.label))
    assert np.allclose(logits, logits_p, atol=1e-6)


def attention_weights(params, g, layer):
    """GAT attention coefficients (n, n) of one graph at `layer`."""
    cache = {}
    forward(params, g, cache)
    return cache[f"alpha{layer}"]


def test_gat_attention_rows_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(13))
    params = make_params("gat")
    g = random_graph(rng, 6, 6)
    for layer in range(params.layers):
        alpha = attention_weights(params, g, layer)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
        # attention is confined to the neighborhood plus self
        mask = np.eye(6, dtype=bool)
        for i, j in g.edges:
            mask[i, j] = mask[j, i] = True
        assert np.all(alpha[~mask] == 0.0)


def test_forward_reports_nan():
    params = make_params("gcn")
    g = make_graph(np.full((3, 6), np.nan), [(0, 1), (0, 2)])
    with pytest.raises(DivergenceError, match="layer 0"):
        forward(params, g)


def test_forward_reports_logits_beyond_float32():
    # finite float32 weights whose logits overflow: an error, not a NaN probability
    params = ModelParams("gcn", 0.5, 2, 2, 1, {
        "layer0.W": np.eye(2, dtype=np.float32), "cls.W": np.full((2, 2), 3e38, np.float32),
        "cls.b": np.zeros(2, np.float32)})
    g = make_graph([[4.0, 4.0], [4.0, 4.0]], [(0, 1)])
    with pytest.raises(DivergenceError, match="classifier head"):
        predict(params, g)


# ---------------------------------------------------------------------------
# prediction and training


def test_predict_examples():
    # zero weights and a fixed bias pin the logits exactly
    def pinned(logit0, logit1):
        return ModelParams("gcn", 1.0, 2, 2, 1, {
            "layer0.W": np.zeros((2, 2)), "cls.W": np.zeros((2, 2)),
            "cls.b": np.array([logit0, logit1])})

    g = make_graph([[1.0, 0.0], [0.0, 0.0]], [(0, 1)])
    label, prob = predict(pinned(2.0, -2.0), g)
    assert label == 0
    assert prob == pytest.approx(1 / (1 + np.exp(-4.0)))
    label, prob = predict(pinned(0.0, 0.0), g)
    assert label == 1
    assert prob == pytest.approx(0.5)


def separable_graphs(rng, n, in_dim=6):
    graphs = []
    for i in range(n):
        label = i % 2
        base = np.ones(in_dim) if label else -np.ones(in_dim)
        feats = base + 0.1 * rng.normal(size=(3, in_dim))
        graphs.append(make_graph(feats, [(0, 1), (0, 2)], label=label,
                                 sample_id=f"s{i}"))
    return graphs


def test_training_learns_separable_data():
    rng = np.random.Generator(np.random.PCG64(17))
    graphs = separable_graphs(rng, 200)
    cfg = GnnConfig(arch="gcn", lam=0.5, epochs=8, seed=0)
    model, history = train(graphs[:160], graphs[160:], cfg, in_dim=6)
    losses = [h["train_loss"] for h in history]
    assert all(losses[i + 1] < losses[i] for i in range(4))
    _, acc = evaluate_loss(model, graphs[:160])
    assert acc >= 0.95


def test_training_deterministic_history():
    rng = np.random.Generator(np.random.PCG64(19))
    graphs = separable_graphs(rng, 60)
    cfg = GnnConfig(arch="sage", lam=0.3, epochs=3, seed=5)
    _, h1 = train(graphs[:48], graphs[48:], cfg, in_dim=6)
    _, h2 = train(graphs[:48], graphs[48:], cfg, in_dim=6)
    assert h1 == h2


def oracle_train(train_graphs, val_graphs, cfg, in_dim):
    """train() with its Adam step taken tensor by tensor, on the float32 cast
    of the same draws."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    params = init_params(cfg, in_dim, rng)
    params.tensors = {k: t.astype(np.float32) for k, t in params.tensors.items()}
    m, v = zeros_like(params), zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history, best, best_val, step = [], None, np.inf, 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_graphs))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_graphs[i] for i in order[start : start + cfg.batch_size]]
            loss, grads = loss_and_grads(params, batch)
            losses.append(loss)
            step += 1
            for k, gk in grads.tensors.items():
                m.tensors[k] = beta1 * m.tensors[k] + (1 - beta1) * gk
                v.tensors[k] = beta2 * v.tensors[k] + (1 - beta2) * gk * gk
                m_hat = m.tensors[k] / (1 - beta1**step)
                v_hat = v.tensors[k] / (1 - beta2**step)
                params.tensors[k] -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        val_loss, val_acc = evaluate_loss(params, val_graphs)
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_loss": val_loss, "val_acc": val_acc})
        if val_loss < best_val:
            best_val, best = val_loss, {k: t.copy() for k, t in params.tensors.items()}
    return best, history


@pytest.mark.parametrize("arch", ARCHS)
def test_flat_adam_equals_per_tensor_adam(arch):
    rng = np.random.Generator(np.random.PCG64(37))
    graphs = [random_graph(rng, int(rng.integers(2, 6)), 6) for _ in range(60)]
    cfg = GnnConfig(arch=arch, hidden=5, lam=0.4, epochs=3, seed=2)
    model, history = train(graphs[:44], graphs[44:], cfg, in_dim=6)
    want, want_history = oracle_train(graphs[:44], graphs[44:], cfg, in_dim=6)
    assert history == want_history
    assert model.tensors.keys() == want.keys()
    for k, t in want.items():
        assert np.array_equal(model.tensors[k], t), k


def test_training_with_paper_lambda_completes():
    rng = np.random.Generator(np.random.PCG64(23))
    graphs = separable_graphs(rng, 40)
    cfg = GnnConfig(arch="gcn", lam=0.62, epochs=2, seed=0)
    model, history = train(graphs[:32], graphs[32:], cfg, in_dim=6)
    assert len(history) == 2
    for t in model.tensors.values():
        assert np.all(np.isfinite(t))


def test_divergence_carries_history():
    rng = np.random.Generator(np.random.PCG64(29))
    graphs = separable_graphs(rng, 20)
    cfg = GnnConfig(arch="gcn", lam=0.5, epochs=3, seed=0)
    # a non-finite feature poisons the forward pass mid-training
    bad = graphs[3].features.copy()
    bad[1, 2] = np.inf
    graphs[3] = make_graph(bad, graphs[3].edges, label=graphs[3].label)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as exc:
        train(graphs[:16], graphs[16:], cfg, in_dim=6)
    assert isinstance(exc.value.history, list)


@pytest.mark.parametrize("arch", ARCHS)
def test_adam_overflow_is_divergence_without_warning(arch):
    rng = np.random.Generator(np.random.PCG64(61))
    graphs = separable_graphs(rng, 40)
    cfg = GnnConfig(arch=arch, lam=0.5, lr=1e60, epochs=3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="Adam update diverged") as exc:
            train(graphs[:32], graphs[32:], cfg, in_dim=6)
    assert isinstance(exc.value.history, list)


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(31))
    params = make_params("gat", in_dim=6, hidden=4, layers=2, lam=0.7)
    g = random_graph(rng, 5, 6)
    path = tmp_path / "model.mdl"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.arch == "gat" and loaded.lam == 0.7
    assert sorted(loaded.tensors) == sorted(params.tensors)
    _, logits_a = forward(params, g)
    _, logits_b = forward(loaded, g)
    assert np.allclose(logits_a, logits_b, atol=1e-4)  # float32 checkpoint
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.mdl"
    save_model(loaded, path2)
    save_model(load_model(path2), tmp_path / "model3.mdl")
    assert (tmp_path / "model2.mdl").read_bytes() == (tmp_path / "model3.mdl").read_bytes()


# sha256 of model.mdl and history.csv that `train_pinned` writes, as the
# allocating forms of the forward, backward and Adam steps produced them:
# any change to the rounding of a step changes them. They hold for numpy's
# bundled OpenBLAS; another BLAS may round its products differently.
PINNED_TRAINING_SHA256 = {
    "gcn": ("3d9926853c4792bbdffaf21d5c6adbfd925457ae8aca8f01a70313556e7f78ea",
            "fd4345281f173588063611b4d2b855bfbf7be847ee78446e32871fc0263e40e2"),
    "sage": ("0b62fe66122a2781b9dcd580b731754e20b70a87490fa23c2579cbc3d0f46929",
             "94cd98f0ad4f6fae2deb760ddb58adcdf2d96523a7d45245a10cfca53577f599"),
    "gat": ("eae6655b7a95fcb46416b863a56d4bb1175f8109939254759c2e30910032d50f",
            "43804dfb59db82d3d966335f7108afb3a298899c24ab1b76a3ea98a61345de95"),
}


def train_pinned(arch, out):
    """Train a small model on fixed graphs, with padded batches of 8, and
    write its model.mdl and history.csv into `out`. At this width the
    products round as at full size: e.g. `dp @ W.T` taken as one 2-D
    product changes the gcn and gat digests."""
    rng = np.random.Generator(np.random.PCG64(79))
    graphs = [random_graph(rng, int(rng.integers(2, 10)), 6) for _ in range(48)]
    cfg = GnnConfig(arch=arch, hidden=32, lam=0.62, epochs=3, batch_size=8, seed=4)
    model, history = train(graphs[:40], graphs[40:], cfg, in_dim=6)
    save_model(model, out / "model.mdl")
    save_history(history, out / "history.csv")


@pytest.mark.parametrize("arch", ARCHS)
def test_trained_model_bytes_are_pinned(arch, tmp_path):
    import hashlib

    train_pinned(arch, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("model.mdl", "history.csv"))
    assert digests == PINNED_TRAINING_SHA256[arch]


def test_training_leaves_validation_layouts_as_built(monkeypatch):
    """train's in-place work never writes into the validation layouts it
    built once: after training they equal freshly built ones."""
    import uen.gnn as gnn

    eval_batches, built = gnn._eval_batches, []
    monkeypatch.setattr(gnn, "_eval_batches",
                        lambda *args: built.append(eval_batches(*args)) or built[-1])
    rng = np.random.Generator(np.random.PCG64(83))
    graphs = [random_graph(rng, int(rng.integers(2, 9)), 6) for _ in range(40)]
    for arch in ARCHS:
        cfg = GnnConfig(arch=arch, hidden=5, epochs=2, batch_size=8)
        model, _ = train(graphs[:30], graphs[30:], cfg, in_dim=6)
        (_, kept), (_, fresh) = built[-1], eval_batches(model, graphs[30:], 8)
        assert len(kept) == len(fresh)
        for (idx, layout), (fresh_idx, fresh_layout) in zip(kept, fresh):
            assert list(idx) == list(fresh_idx) and layout.keys() == fresh_layout.keys()
            for k, v in layout.items():
                assert np.array_equal(v, fresh_layout[k]) and v.dtype == fresh_layout[k].dtype, k


@pytest.mark.parametrize("arch", ARCHS)
def test_loss_and_grads_leaves_captured_forward_arrays(arch):
    """The arrays forward() captured for a graph do not change when
    loss_and_grads later runs on the same graph and model."""
    rng = np.random.Generator(np.random.PCG64(89))
    params = make_params(arch, hidden=5, layers=3, lam=0.62)
    g = random_graph(rng, 7, 6, label=1)
    cache = {}
    forward(params, g, cache)
    names = [f"h{l + 1}" for l in range(3)]
    if arch == "gat":
        names += [f"{k}{l}" for k in ("p", "pre", "alpha") for l in range(3)]
    before = {k: cache[k].copy() for k in names}
    loss_and_grads(params, [g])
    loss_and_grads(params, [g, g])
    for k in names:
        assert np.array_equal(cache[k], before[k]), k


@pytest.mark.parametrize("arch", ARCHS)
def test_trained_model_round_trips_bit_for_bit(arch, tmp_path):
    """train's float32 tensors are what the checkpoint holds, so a loaded
    model gives exactly the logits of the model train returned."""
    rng = np.random.Generator(np.random.PCG64(67))
    graphs = [random_graph(rng, int(rng.integers(2, 8)), 6) for _ in range(40)]
    model, _ = train(graphs[:32], graphs[32:], GnnConfig(arch=arch, hidden=5, epochs=2),
                     in_dim=6)
    save_model(model, tmp_path / "model.mdl")
    loaded = load_model(tmp_path / "model.mdl")
    for g in graphs:
        assert np.array_equal(forward(loaded, g)[1], forward(model, g)[1])


@pytest.mark.parametrize("arch", ARCHS)
def test_train_computes_in_float32_and_init_params_in_float64(arch):
    rng = np.random.Generator(np.random.PCG64(71))
    graphs = [random_graph(rng, int(rng.integers(2, 8)), 6) for _ in range(20)]
    model, _ = train(graphs[:16], graphs[16:], GnnConfig(arch=arch, hidden=5, epochs=1),
                     in_dim=6)
    assert all(t.dtype == np.float32 for t in model.tensors.values())
    assert forward(model, graphs[0])[1].dtype == np.float32
    params = make_params(arch)
    _, grads = loss_and_grads(params, graphs[:4])
    assert all(t.dtype == np.float64 for t in grads.tensors.values())


@pytest.mark.parametrize("arch", ARCHS)
def test_feature_storage_precision_changes_nothing(arch):
    """train computes in float32, so graphs whose features are stored in
    float64 and their float32 casts train to the same bytes."""
    rng = np.random.Generator(np.random.PCG64(73))
    wide = [random_graph(rng, int(rng.integers(2, 9)), 6) for _ in range(50)]
    narrow = [replace(g, features=g.features.astype(np.float32)) for g in wide]
    cfg = GnnConfig(arch=arch, hidden=5, epochs=3, batch_size=8)
    model_a, history_a = train(wide[:40], wide[40:], cfg, in_dim=6)
    model_b, history_b = train(narrow[:40], narrow[40:], cfg, in_dim=6)
    assert history_a == history_b
    for k, t in model_a.tensors.items():
        assert t.tobytes() == model_b.tensors[k].tobytes(), k


def test_save_refuses_weights_beyond_float32_by_name(tmp_path):
    from uen.embedding import FormatError

    params = make_params("gcn")
    params.tensors["layer1.W"][0, 0] = 1e50
    path = tmp_path / "model.mdl"
    with pytest.raises(FormatError, match="tensor 'layer1.W'.*beyond the float32 range"):
        save_model(params, path)
    assert not path.exists() and not (tmp_path / "model.mdl.json").exists()


def test_model_load_rejects_corruption(tmp_path):
    from uen.embedding import FormatError

    params = make_params("gcn")
    path = tmp_path / "model.mdl"
    save_model(params, path)
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        load_model(path)


def test_model_load_rejects_truncation_and_padding(tmp_path):
    from uen.embedding import FormatError

    path = tmp_path / "model.mdl"
    save_model(make_params("gcn"), path)
    (tmp_path / "model.mdl.json").unlink()  # no sidecar: the loader's own checks
    raw = path.read_bytes()
    header_end = 11 + int.from_bytes(raw[7:11], "little")
    for cut in range(header_end + 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_model(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(FormatError, match="payload"):
        load_model(path)
    path.write_bytes(raw)
    assert sorted(load_model(path).tensors) == sorted(make_params("gcn").tensors)


# sha256 of model.mdl for make_params(arch) with arange-filled tensors, as
# written before the artifact codec existed: existing checkpoints stay valid.
PINNED_MODEL_SHA256 = {
    "gcn": "1ef07cdca5d0396600d666083b33a951b6270f99061e0f65a968b9903da73490",
    "sage": "737961ebd9f067ceabd6dc8951712648016c05134a2b25b25d558048097ac1dc",
    "gat": "2521ecc758b9ecc44f89262aef53338281b16649ba788f65cda678b98c714320",
}


@pytest.mark.parametrize("arch", ARCHS)
def test_model_file_bytes_are_pinned(arch, tmp_path):
    import hashlib
    import json

    params = make_params(arch)
    for t in params.tensors.values():
        t[...] = np.arange(t.size).reshape(t.shape) / 8 - 1
    path = tmp_path / "model.mdl"
    save_model(params, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_MODEL_SHA256[arch]
    assert json.loads((tmp_path / "model.mdl.json").read_text()) == {"sha256": digest}


@pytest.mark.parametrize("size, value", [("in_dim", 0), ("hidden", 0), ("layers", 0),
                                         ("lam", "0.5"), ("hidden", 8.0)],
                         ids=["in_dim", "hidden", "layers", "lam-str", "hidden-float"])
def test_model_load_rejects_zero_sizes(size, value, tmp_path):
    """Zero sizes and a mistyped header field; GnnConfig types all but in_dim."""
    from uen.embedding import FormatError

    params = make_params("gcn")
    setattr(params, size, value)
    path = tmp_path / "model.mdl"
    save_model(params, path)
    with pytest.raises(FormatError, match="bad model header"):
        load_model(path)


@pytest.mark.parametrize("corrupt", MODEL_DEFECTS)
def test_model_load_rejects_bad_layout(corrupt, tmp_path):
    """Checkpoints with a matching sidecar whose model does not hold together."""
    from uen.embedding import FormatError

    params = make_params("gcn", layers=3)
    corrupt(params)
    path = tmp_path / "model.mdl"
    save_model(params, path)
    with pytest.raises(FormatError, match=str(path)):
        load_model(path)


def test_zero_comment_sample_rejected(texts):
    from uen.assembly import assemble
    from uen.embedding import FormatError

    from conftest import make_sample

    g = assemble(make_sample("lonely"), texts, None)
    params = make_params("gcn", in_dim=g.features.shape[1])
    with pytest.raises(FormatError, match="lonely"):
        predict(params, g)


@pytest.mark.parametrize("edges", [[(0, 0)], [(0, 3)], [(-1, 1)], [(0, 1), (1, 0)],
                                   [(0, 1), (0, 2), (0, 1)]])
def test_bad_edges_rejected_by_name(edges):
    """An edge must join two distinct nodes of its graph, once: a self-loop,
    an end outside the graph or a repeated edge fails naming the sample."""
    from uen.embedding import FormatError

    params = make_params("gcn")
    g = make_graph(np.ones((3, 6)), edges, sample_id="knotted")
    with pytest.raises(FormatError, match="sample knotted: .*edge"):
        predict(params, g)


def per_edge_entries(graphs):
    """The operator entries, node starts and entry starts of `graphs`, one
    edge at a time: each graph's diagonal, then each edge both ways."""
    rows, cols, node_start, entry_start, s = [], [], [], [0], 0
    for g in graphs:
        n = g.features.shape[0]
        rows += range(s, s + n)
        cols += range(s, s + n)
        for i, j in g.edges:
            rows += (s + i, s + j)
            cols += (s + j, s + i)
        node_start.append(s)
        entry_start.append(len(rows))
        s += n
    return np.array([rows, cols]).T, node_start, entry_start


@pytest.mark.parametrize("sizes", [[2], [7], [2, 2], [3, 9, 2, 5], list(range(2, 40))])
def test_split_entries_equal_per_edge_layout(sizes):
    from uen.gnn import _split

    rng = np.random.Generator(np.random.PCG64(len(sizes)))
    graphs = [random_graph(rng, n, 6) for n in sizes]
    graphs.append(make_graph(np.ones((4, 6)), [(2, 3), (0, 1), (3, 0)], label=1))  # any order
    for part in (graphs[:1], graphs):
        split = _split(part, 6, labeled=True)
        entries, node_start, entry_start = per_edge_entries(part)
        assert split.entries.dtype == np.intp and (split.entries == entries).all()
        assert split.node_start.tolist() == node_start
        assert split.entry_start.tolist() == entry_start


@pytest.mark.parametrize("edges", [[(0, 0)], [(0, 3)], [(-1, 1)], [(0, 1), (1, 0)],
                                   [(0, 1), (0, 2), (0, 1)], [(0, 2**70)], [(0, 1, 2)],
                                   [(0, 1, 2), (1,)], [(0, None)]])
def test_bad_edges_in_a_batch_rejected_as_for_one_graph(edges):
    """A batch names the first graph at fault, with the error that graph
    gets alone, whatever faults later graphs have."""
    from uen.embedding import FormatError

    params = make_params("gcn")
    good = make_graph(np.ones((3, 6)), [(0, 1), (1, 2)], sample_id="good")
    bad = make_graph(np.ones((3, 6)), edges, sample_id="knotted")
    later = make_graph(np.ones((1, 6)), [], sample_id="lonely")
    with pytest.raises((TypeError, ValueError)) as alone:
        predict(params, bad)
    for batch in ([good, bad], [good, bad, later], [bad, good, bad]):
        with pytest.raises((TypeError, ValueError)) as err:
            loss_and_grads(params, batch)
        assert (type(err.value), str(err.value)) == (type(alone.value), str(alone.value))
    with pytest.raises(FormatError, match="sample lonely: no comment nodes"):
        loss_and_grads(params, [good, later, bad])


def test_history_csv(tmp_path):
    history = [{"epoch": 0, "train_loss": 0.5, "val_loss": 0.6, "val_acc": 0.7}]
    path = tmp_path / "history.csv"
    save_history(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc"
    assert lines[1] == "0,0.5,0.6,0.7"


def test_config_validation():
    with pytest.raises(ValueError):
        GnnConfig(arch="mlp")
    with pytest.raises(ValueError):
        GnnConfig(lam=1.5)
    for name in ("layers", "hidden", "epochs", "batch_size"):
        with pytest.raises(ValueError, match=name):
            GnnConfig(**{name: 0})
    for lr in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            GnnConfig(lr=lr)


@pytest.mark.parametrize("name", ["layers", "hidden", "epochs", "batch_size", "seed"])
def test_config_rejects_non_integer_sizes_by_name(name):
    """A size that is not an integer fails when the config is made, before
    any stage runs, not inside train; a bool is not an integer here."""
    for bad in (2.5, 8.0, True, "3", None):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GnnConfig(**{name: bad})
    assert getattr(GnnConfig(**{name: np.int64(3)}), name) == 3
