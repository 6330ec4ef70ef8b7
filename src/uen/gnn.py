"""Three-layer GCN / GraphSAGE / GAT with hand-written backward passes.

Per-sample graphs are tiny trees. Each call lays its graphs out once, as a
split: checked, with node counts and labels, each graph's feature array
referenced rather than copied, and each graph's propagation operator kept
as its nonzero entries (one per node, two per edge), whose values are
computed once per split and arch. A batch of a split's graphs is packed by
index arithmetic into dense (B, n_max, ·) arrays: its operators are one
scatter of its graphs' entries, its rows one concatenation. Each layer is
a weight product over the batch's nodes and one batched matmul for
propagation or attention. A single graph takes the same path, as a split
and batch of one. Readout blends the post node with the comment mean
through lambda, then a dense head produces two logits. Training is Adam on
mean cross-entropy with min-validation-loss model selection. A training
step gathers its rows into one reused buffer, writes every gradient into
one flat buffer laid out as the parameters, and updates Adam's moments and
the parameters in place; attention's mask, softmax and gradient also work
in place, as the same numpy operations on the same operands.

Every pass computes in the dtype of the model's tensors. `train` casts the
float64 draws of `init_params` to float32 once, so training, checkpoints
and prediction run in float32. The softmax and cross-entropy of the (B, 2)
logits are taken in float64 and their gradient cast back, as in
mixed-precision training, so a confident float32 logit pair still has a
nonzero loss. `init_params` output used directly keeps every pass in
float64, which the finite-difference gradient checks rely on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .assembly import SampleGraph
from .corpus import check_fields
from .embedding import FormatError, read_artifact, write_artifact

MODEL_MAGIC = b"UENMDL1"

ARCHS = ("gcn", "sage", "gat")


@dataclass(frozen=True)
class GnnConfig:
    arch: str = "gcn"
    layers: int = 3
    hidden: int = 64
    lam: float = 0.5
    lr: float = 0.01
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}")
        check_fields(self, minimum={"seed": 0}, positive=("lr",), unit=("lam",))


class DivergenceError(RuntimeError):
    def __init__(self, msg, history):
        super().__init__(msg)
        self.history = history


@dataclass
class ModelParams:
    arch: str
    lam: float
    in_dim: int
    hidden: int
    layers: int
    tensors: dict = field(default_factory=dict)  # name -> ndarray; all share the compute dtype


def param_shapes(cfg: GnnConfig, in_dim: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model tensor, in the order init_params draws them."""
    dims = [in_dim] + [cfg.hidden] * cfg.layers
    weights = ("W_self", "W_neigh") if cfg.arch == "sage" else ("W",)
    shapes = {}
    for l in range(cfg.layers):
        for w in weights:
            shapes[f"layer{l}.{w}"] = (dims[l], dims[l + 1])
        if cfg.arch == "gat":
            shapes[f"layer{l}.a_src"] = (dims[l + 1],)
            shapes[f"layer{l}.a_dst"] = (dims[l + 1],)
    shapes["cls.W"] = (2, cfg.hidden)
    shapes["cls.b"] = (2,)
    return shapes


def init_params(cfg: GnnConfig, in_dim: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights; zero biases and attention vectors start small."""

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def draw(name, shape):
        if name == "cls.W":  # drawn as (hidden, 2), stored transposed
            return np.ascontiguousarray(glorot(shape[1], shape[0]).T)
        if name == "cls.b":
            return np.zeros(shape)
        if len(shape) == 1:  # GAT attention vectors
            return rng.uniform(-0.1, 0.1, size=shape)
        return glorot(*shape)

    tensors = {name: draw(name, shape) for name, shape in param_shapes(cfg, in_dim).items()}
    return ModelParams(cfg.arch, cfg.lam, in_dim, cfg.hidden, cfg.layers, tensors)


# ---------------------------------------------------------------------------
# packed splits and padded batches


@dataclass
class _Split:
    """Graphs checked and laid out once, so that any batch of them packs by
    index arithmetic. Each graph's feature array is referenced, not copied,
    and its operator is kept as its nonzero entries, one per node and two
    per edge. Node ids are split-wide: graph k's are node_start[k] on."""

    features: list  # each graph's (n, in_dim) array
    counts: list  # node counts
    node_start: np.ndarray
    entry_start: np.ndarray  # graph k's operator entries are entries[entry_start[k]:...[k + 1]]
    entries: np.ndarray  # (M, 2) row and column ids: each node's diagonal, each edge both ways
    labels: np.ndarray | None  # kept when the caller needs them
    values: dict = field(default_factory=dict)  # (arch, dtype) -> the entries' values


def _check_graph(g: SampleGraph, in_dim: int) -> None:
    """Raise the FormatError of the first rule `g` breaks: at least two
    nodes, rows `in_dim` wide, each edge joining two distinct nodes of the
    graph, and no other edge of it the same two."""
    n = g.features.shape[0]
    if n < 2:
        raise FormatError(f"sample {g.sample_id}: no comment nodes, so the readout's "
                          "comment mean is undefined")
    if g.features.shape[1] != in_dim:
        raise FormatError(f"sample {g.sample_id}: feature dim "
                          f"{g.features.shape[1]} != model dim {in_dim}")
    for i, j in g.edges:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise FormatError(f"sample {g.sample_id}: edge ({i}, {j}) does not join two "
                              f"of its {n} nodes")
    if len({(i, j) if i < j else (j, i) for i, j in g.edges}) < len(g.edges):
        raise FormatError(f"sample {g.sample_id}: an edge is repeated")


def _split(graphs, in_dim: int, labeled: bool) -> _Split:
    """Check `graphs` against a model of width `in_dim` (see `_check_graph`)
    and lay them out; `labeled` also requires every graph's label. Graph k's
    operator entries are its nodes' diagonal, then each edge both ways."""
    features = [g.features for g in graphs]
    counts = [x.shape[0] for x in features]
    if len(graphs) == 1:  # a few Python steps beat a dozen array calls on one small graph
        (g,), n = graphs, counts[0]
        _check_graph(g, in_dim)
        ends = [*chain.from_iterable(g.edges)]
        back = ends.copy()  # each edge the other way
        back[::2], back[1::2] = ends[1::2], ends[::2]
        entries = np.fromiter(chain(range(n), ends, range(n), back), np.intp,
                              2 * (n + len(ends))).reshape(2, -1)
        node_start, entry_start = np.zeros(1, np.intp), np.array([0, entries.shape[1]])
    else:
        node_start, entry_start, entries = _layout_entries(graphs, in_dim, features, counts)
    labels = None
    if labeled:
        labels = [g.label for g in graphs]
        if None in labels:
            raise ValueError(f"sample {graphs[labels.index(None)].sample_id} is unlabeled")
        labels = np.array(labels)
    return _Split(features, counts, node_start, entry_start, entries.T, labels)


def _layout_entries(graphs, in_dim: int, features, counts):
    """`_split`'s node starts, entry starts and (2, entries) operator entries
    of several graphs, from array operations over all their edges at once.
    Only graphs that break a rule are walked one by one, so that the error
    names the first graph and edge at fault."""
    sizes = [len(g.edges) for g in graphs]
    node_start, edge_start = np.cumsum([0, *counts]), np.cumsum([0, *sizes])
    n, m = node_start[-1], edge_start[-1]
    try:
        ends = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                           np.intp).reshape(m, 2)
    except (OverflowError, TypeError, ValueError):  # an end past intp, not an int, or no pair
        for g in graphs:
            _check_graph(g, in_dim)
        raise
    owner = np.repeat(np.arange(len(graphs)), sizes)
    edges = ends + node_start[owner, None]  # split-wide node ids
    pairs = np.sort(edges, axis=1) @ (n, 1)  # one key per unordered pair
    pairs.sort()
    if (min(counts, default=2) < 2 or any(x.shape[1] != in_dim for x in features)
            or not {len(e) for g in graphs for e in g.edges} <= {2}  # ends paired up
            or (ends.view(np.uintp) >= np.diff(node_start)[owner, None]).any()
            or (ends[:, 0] == ends[:, 1]).any() or (pairs[1:] == pairs[:-1]).any()):
        for g in graphs:
            _check_graph(g, in_dim)
    entries = np.empty((2, n + 2 * m), np.intp)
    diagonal = np.arange(n) + np.repeat(2 * edge_start[:-1], counts)
    entries[:, diagonal] = np.arange(n)
    both_ways = np.arange(2 * m) + np.repeat(node_start[1:], 2 * np.array(sizes, np.intp))
    entries[0, both_ways] = edges.ravel()
    entries[1, both_ways] = edges[:, ::-1].ravel()
    return node_start[:-1], node_start + 2 * edge_start, entries


def _entry_values(arch: str, split: _Split, dtype) -> np.ndarray | None:
    """The values in `dtype` of the operator entries of `split`, computed on
    first use: GCN's normalized Â, SAGE's neighbour mean (an isolated node
    aggregates itself) or, as None, GAT's mask of neighbours plus self,
    whose every entry is True."""
    key = (arch, np.dtype(dtype))
    if arch != "gat" and key not in split.values:
        rows, cols = split.entries.T
        a_hat_deg = np.bincount(rows).astype(dtype)  # neighbours + self
        if arch == "gcn":  # D^-½ Â D^-½, where Â = A + I is 1 at every entry
            d_inv_sqrt = 1.0 / np.sqrt(a_hat_deg)
            split.values[key] = d_inv_sqrt[rows] * d_inv_sqrt[cols]
        else:  # an edge's entry is 1 / degree; a diagonal one 1 when the node is isolated
            deg = a_hat_deg - 1.0
            split.values[key] = np.where(rows == cols, deg[rows] == 0,
                                         (1.0 / np.maximum(deg, 1.0))[rows])
    return split.values.get(key)


def _operators(arch: str, split: _Split, idx, real: np.ndarray, dtype) -> np.ndarray:
    """The (B, n_max, n_max) propagation operators in `dtype` (GAT's mask
    is bool) of the graphs `idx` of `split`, whose real slots are `real`:
    one scatter of their entries. A pad slot is an isolated node, so its
    operator row is self-only in every arch."""
    values = _entry_values(arch, split, dtype)
    b, n_max = real.shape
    start = split.entry_start
    op = np.zeros((b, n_max, n_max), dtype=bool if values is None else dtype)
    # entry (i, j) of graph k, in batch slot b, lands at b n_max² + (i - s_k) n_max + j - s_k
    if b == 1:  # one graph: one slice of entries, no pad slot
        sel = slice(start[idx[0]], start[idx[0] + 1])
        pos = split.entries[sel] @ (n_max, 1) - split.node_start[idx[0]] * (n_max + 1)
    else:  # one gather: each graph's run, padded to the longest by repeating its last entry
        idx = np.asarray(idx)
        first, last = start[idx], start[idx + 1] - 1
        sel = np.minimum(first[:, None] + np.arange((last - first).max() + 1), last[:, None])
        pos = split.entries[sel] @ (n_max, 1)
        pos += (np.arange(b) * n_max * n_max - split.node_start[idx] * (n_max + 1))[:, None]
        op.reshape(b, -1)[:, :: n_max + 1] = ~real
    op.reshape(-1)[pos] = True if values is None else values[sel]  # a repeat rewrites its value
    return op


def _rows(params: ModelParams, split: _Split, idx, out=None) -> np.ndarray:
    """The real node rows (R, in_dim) of the graphs `idx` of `split`, in
    batch order and in the model's dtype; written into the head of `out`,
    which must hold that many rows, when it is given."""
    rows = [split.features[k] for k in idx]
    if out is None:
        return np.concatenate(rows, dtype=params.tensors["cls.W"].dtype)
    return np.concatenate(rows, out=out[: sum(split.counts[k] for k in idx)])


def _layout(params: ModelParams, split: _Split, idx) -> dict:
    """The padded (B, n_max) layout of the graphs `idx` of `split`: the mask
    of real slots, operators (B, n_max, n_max) and readout weights (lambda on
    the post, the rest spread over the real comments). A pad slot is an
    isolated zero-feature node: its self-only operator row gives it exactly
    zero output and gradient in every arch, and its readout weight is zero."""
    counts = [split.counts[k] for k in idx]
    real = np.greater.outer(counts, np.arange(max(counts)))
    dtype = params.tensors["cls.W"].dtype
    readout = real * np.array([(1.0 - params.lam) / (n - 1) for n in counts], dtype)[:, None]
    readout[:, 0] = params.lam
    return {"real": real, "op": _operators(params.arch, split, idx, real, dtype),
            "readout": readout}


def _pack(params: ModelParams, split: _Split, idx, rows=None) -> tuple[np.ndarray, dict]:
    """The graphs `idx` (a sequence of ints) of `split` as a batch: its rows
    (in `rows` when given, as in `_rows`) and a cache holding its layout.
    One graph is a batch of one, with no pad slots."""
    return _rows(params, split, idx, rows), _layout(params, split, idx)


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in the DivergenceError below
def _forward(params: ModelParams, x, cache: dict):
    """Final node embeddings (B, n_max, hidden) and logits (B, 2) of the rows
    and cache of a packed batch; the cache also keeps what backward needs."""
    t = params.tensors
    real, op = cache["real"], cache["op"]
    masked = ~op if params.arch == "gat" else None  # attention's non-neighbours
    h = None

    def product(w):  # h @ w; layer 0 multiplies only the real rows, its input is the widest
        if h is not None:
            return h @ w
        if len(x) == real.size:
            return (x @ w).reshape(real.shape + w.shape[1:])
        out = np.zeros(real.shape + w.shape[1:], dtype=x.dtype)
        out[real] = x @ w
        return out

    for l in range(params.layers):
        if params.arch == "gcn":
            p = product(t[f"layer{l}.W"])
            z = op @ p
        elif params.arch == "sage":
            p = product(t[f"layer{l}.W_neigh"])
            z = product(t[f"layer{l}.W_self"]) + op @ p
        else:
            p = product(t[f"layer{l}.W"])
            pre = (p @ t[f"layer{l}.a_src"])[:, :, None] + (p @ t[f"layer{l}.a_dst"])[:, None, :]
            alpha = np.multiply(pre, 0.2)
            np.maximum(pre, alpha, out=alpha)  # leaky ReLU
            np.putmask(alpha, masked, -np.inf)
            # the row max, exact in any order, as a max over axis 1 of a transposed
            # copy, elementwise over whole rows; reducing each short row is slower
            alpha -= np.ascontiguousarray(alpha.transpose(0, 2, 1)).max(axis=1)[:, :, None]
            np.exp(alpha, out=alpha)
            alpha /= alpha.sum(axis=2, keepdims=True)
            z = alpha @ p
            cache[f"p{l}"], cache[f"pre{l}"], cache[f"alpha{l}"] = p, pre, alpha
        if not _all_finite(z):
            raise DivergenceError(f"NaN in forward at layer {l}", None)
        h = cache[f"h{l + 1}"] = np.maximum(z, 0.0, out=z)
    pooled = cache["pooled"] = (cache["readout"][:, None, :] @ h)[:, 0]
    logits = pooled @ t["cls.W"].T + t["cls.b"]
    if not _all_finite(logits):
        raise DivergenceError("NaN in forward at the classifier head", None)
    return h, logits


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), without the Python layer of ndarray.all."""
    return np.count_nonzero(np.isfinite(a)) == a.size


@np.errstate(over="ignore", invalid="ignore")  # train checks the Adam state it feeds
def _backward(params: ModelParams, x, cache: dict, dlogits: np.ndarray, grads: dict) -> None:
    """Write the gradient of sum(dlogits * logits) for every tensor into
    `grads` (name -> array of the tensor's shape), given the packed rows `x`
    and the cache of their forward pass; layer 0 computes no input
    gradient."""
    t = params.tensors
    real = cache["real"]
    op_t = cache["op"].transpose(0, 2, 1)
    np.matmul(dlogits.T, cache["pooled"], out=grads["cls.W"])
    np.sum(dlogits, axis=0, out=grads["cls.b"])
    dh = cache["readout"][:, :, None] * (dlogits @ t["cls.W"])[:, None, :]

    def w_grad(l, d, name):  # (layer l's input)ᵀ @ d; pad rows of the input are zero
        if l == 0:
            np.matmul(x.T, d[real], out=grads[name])
        else:
            h_in = cache[f"h{l}"]
            np.matmul(h_in.reshape(-1, h_in.shape[2]).T, d.reshape(-1, d.shape[2]),
                      out=grads[name])

    def v_grad(d, p, name):  # np.tensordot(d, p, 2), the dot of the views it takes
        np.dot(d.reshape(1, -1), p.reshape(-1, p.shape[2]), out=grads[name].reshape(1, -1))

    for l in reversed(range(params.layers)):
        dz = np.multiply(dh, cache[f"h{l + 1}"] > 0, out=dh)  # ReLU: h > 0 exactly where z > 0
        if params.arch != "gat":
            dp = op_t @ dz
        else:
            p, alpha = cache[f"p{l}"], cache[f"alpha{l}"]
            de = dz @ p.transpose(0, 2, 1)  # d alpha, then de in place
            dpre = alpha * de
            de -= dpre.sum(axis=2, keepdims=True)
            np.multiply(alpha, de, out=de)
            np.multiply(de, 0.2, out=dpre)
            np.putmask(dpre, cache[f"pre{l}"] > 0, de)
            ds, dt = dpre.sum(axis=2), dpre.sum(axis=1)
            v_grad(ds, p, f"layer{l}.a_src")
            v_grad(dt, p, f"layer{l}.a_dst")
            dp = alpha.transpose(0, 2, 1) @ dz
            term = np.multiply(t[f"layer{l}.a_src"], ds[..., None])
            dp += term
            dp += np.multiply(t[f"layer{l}.a_dst"], dt[..., None], out=term)
        if params.arch == "sage":  # dp is the gradient of the neighbour product
            w_grad(l, dz, f"layer{l}.W_self")
            w_grad(l, dp, f"layer{l}.W_neigh")
            dh = dz @ t[f"layer{l}.W_self"].T + dp @ t[f"layer{l}.W_neigh"].T if l else None
        else:
            w_grad(l, dp, f"layer{l}.W")
            dh = dp @ t[f"layer{l}.W"].T if l else None


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax, in float64 whatever the logits' dtype."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _nll(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy (float64) and its gradient with respect to
    the logits (in their dtype). The loss is softplus(other logit - label's
    logit), which stays above 0 where -log(softmax) rounds to 0."""
    rows, z = np.arange(len(labels)), np.asarray(logits, dtype=np.float64)
    dlogits = _softmax(z)
    dlogits[rows, labels] -= 1.0
    return np.logaddexp(0.0, z[rows, 1 - labels] - z[rows, labels]), dlogits.astype(logits.dtype)


def forward(params: ModelParams, g: SampleGraph, cache: dict | None = None):
    """Run the stack on one graph; returns (node_embeddings, logits).

    Pass a dict as `cache` to capture the intermediates, batch axis dropped.
    """
    x, store = _pack(params, _split([g], params.in_dim, labeled=False), [0])
    h, logits = _forward(params, x, store)
    if cache is not None:
        cache.update({k: v[0] for k, v in store.items()})
    return h[0], logits[0]


def _loss_and_grads(params: ModelParams, split: _Split, idx, grads: dict, rows=None) -> float:
    """Mean cross-entropy over the graphs `idx` of a labeled split, from one
    padded pass; its gradients go into `grads` (see `_backward`) and its rows
    into `rows` when given (see `_rows`)."""
    x, cache = _pack(params, split, idx, rows)
    _, logits = _forward(params, x, cache)
    losses, dlogits = _nll(logits, split.labels[idx])
    _backward(params, x, cache, dlogits * (1.0 / len(idx)), grads)
    return float(losses.mean())


def loss_and_grads(params: ModelParams, batch: list[SampleGraph]):
    """Mean cross-entropy over a batch and its gradients, from one padded pass."""
    if not batch:
        raise ValueError("empty batch")
    flat = np.empty(sum(t.size for t in params.tensors.values()), params.tensors["cls.W"].dtype)
    grads = _views(params.tensors, flat)
    loss = _loss_and_grads(params, _split(batch, params.in_dim, labeled=True),
                           range(len(batch)), grads)
    return loss, replace(params, tensors=grads)


def predict(params: ModelParams, g: SampleGraph) -> tuple[int, float]:
    """Argmax over softmax; exact logit tie resolves to label 1."""
    _, logits = forward(params, g)
    probs = _softmax(logits)
    label = 1 if logits[1] >= logits[0] else 0
    return label, float(probs[label])


def _eval_batches(params: ModelParams, samples: list[SampleGraph], batch_size: int):
    """Labeled `samples` as a split and, for each `batch_size` run of it in
    order, its indices and layout. The rows are left out: an evaluation
    gathers them each time, so kept batches hold no copy of the features."""
    if not samples:
        raise ValueError("no samples to evaluate")
    split = _split(samples, params.in_dim, labeled=True)
    runs = (range(start, min(start + batch_size, len(samples)))
            for start in range(0, len(samples), batch_size))
    return split, [(idx, _layout(params, split, idx)) for idx in runs]


def _evaluate(params: ModelParams, split: _Split, batches, rows=None) -> tuple[float, float]:
    """(mean loss, accuracy) over the batches of `_eval_batches`; their rows
    go into `rows` when given (see `_rows`)."""
    losses, correct = [], 0
    for idx, layout in batches:
        _, logits = _forward(params, _rows(params, split, idx, rows), dict(layout))
        labels = split.labels[idx]
        losses.append(_nll(logits, labels)[0])
        correct += int(np.sum((logits[:, 1] >= logits[:, 0]) == labels))
    return float(np.mean(np.concatenate(losses))), correct / len(split.counts)


def train(
    train_graphs: list[SampleGraph],
    val_graphs: list[SampleGraph],
    cfg: GnnConfig,
    in_dim: int,
) -> tuple[ModelParams, list[dict]]:
    """Adam training in float32 with per-epoch shuffles; returns the
    min-val-loss params. Both splits are checked and laid out once, and the
    validation batches' layouts are built once, not every epoch. A step
    packs its rows into one reused buffer and its gradients into one flat
    buffer laid out as the parameters, and Adam updates its moments and the
    parameters in place."""
    if not train_graphs or not val_graphs:
        raise ValueError("train and val splits must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, in_dim, rng)
    flat = _flatten(params, np.float32)
    split = _split(train_graphs, in_dim, labeled=True)
    val = _eval_batches(params, val_graphs, cfg.batch_size)
    most = max(sum(sorted(s.counts)[-cfg.batch_size:]) for s in (split, val[0]))
    rows = np.empty((most, in_dim), flat.dtype)  # the most node rows a batch can hold
    g, m, v, s1, s2 = (np.zeros_like(flat) for _ in range(5))  # s1, s2: Adam's scratch
    grads = _views(params.tensors, g)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history: list[dict] = []
    best_val = np.inf
    best = _copy_params(params)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_graphs)).tolist()
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            try:
                loss = _loss_and_grads(params, split, order[start : start + cfg.batch_size],
                                       grads, rows)
            except DivergenceError as exc:
                raise DivergenceError(str(exc), history) from exc
            if not np.isfinite(loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}", history)
            epoch_losses.append(loss)
            step += 1
            # m = β1 m + (1 - β1) g, v = β2 v + (1 - β2) g g, flat -= lr m̂ / (√v̂ + ε),
            # each operation rounded in the order written, in place
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                m *= beta1
                m += np.multiply(g, 1 - beta1, out=s1)
                v *= beta2
                np.multiply(g, 1 - beta2, out=s1)
                v += np.multiply(s1, g, out=s1)
                np.divide(m, 1 - beta1**step, out=s1)  # m_hat
                np.divide(v, 1 - beta2**step, out=s2)  # v_hat
                s1 *= cfg.lr
                np.sqrt(s2, out=s2)
                s2 += eps
                flat -= np.divide(s1, s2, out=s1)  # lr * m_hat / (sqrt(v_hat) + eps)
            if not (_all_finite(v) and _all_finite(flat)):
                raise DivergenceError(f"Adam update diverged at epoch {epoch}", history)
        val_loss, val_acc = _evaluate(params, *val, rows)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)),
                "val_loss": val_loss,
                "val_acc": val_acc,
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            best = _copy_params(params)
    return best, history


def _views(tensors: dict, flat: np.ndarray) -> dict:
    """Name -> view of `flat` with the shape of each of `tensors`, laid out
    back to back in their order."""
    views, start = {}, 0
    for k, t in tensors.items():
        views[k] = flat[start : start + t.size].reshape(t.shape)
        start += t.size
    return views


def _flatten(params: ModelParams, dtype) -> np.ndarray:
    """Move the tensors into one flat buffer of `dtype` and leave views of it
    in params.tensors, so an elementwise update of the buffer updates them
    all."""
    flat = np.concatenate([t.ravel() for t in params.tensors.values()], dtype=dtype)
    params.tensors = _views(params.tensors, flat)
    return flat


def _copy_params(params: ModelParams) -> ModelParams:
    return replace(params, tensors={k: v.copy() for k, v in params.tensors.items()})


def save_history(history: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, ["epoch", "train_loss", "val_loss", "val_acc"])
        writer.writeheader()
        writer.writerows(history)


def save_model(params: ModelParams, path) -> None:
    fields = {
        "arch": params.arch,
        "lambda": params.lam,
        "in_dim": params.in_dim,
        "hidden": params.hidden,
        "layers": params.layers,
    }
    write_artifact(path, MODEL_MAGIC, fields, params.tensors)


def load_model(path) -> ModelParams:
    """A checkpoint whose header forms a valid GnnConfig and whose tensors
    have exactly the names and shapes init_params gives that config."""
    fields, tensors = read_artifact(path, MODEL_MAGIC)
    try:
        arch, lam, in_dim, hidden, layers = (
            fields[k] for k in ("arch", "lambda", "in_dim", "hidden", "layers"))
        if type(in_dim) is not int or in_dim < 1:
            raise ValueError(f"in_dim must be an integer >= 1, not {in_dim!r}")
        cfg = GnnConfig(arch=arch, layers=layers, hidden=hidden, lam=lam)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad model header ({exc})") from None
    if {k: v.shape for k, v in tensors.items()} != param_shapes(cfg, in_dim):
        raise FormatError(
            f"{path}: tensors do not match a {layers}-layer {arch} model "
            f"with in_dim {in_dim} and hidden {hidden}")
    return ModelParams(arch, lam, in_dim, hidden, layers, tensors)
