"""Three-layer GCN / GraphSAGE / GAT with hand-written backward passes.

Per-sample graphs are tiny trees. Each call lays its graphs out once, as a
split: checked, with node counts, labels and every edge in one int array,
each graph's feature array referenced rather than copied. A batch of a
split's graphs is packed by index arithmetic into dense (B, n_max, ·)
arrays, its propagation operators built from its edges: each layer is a
weight product over the batch's nodes and one batched matmul for
propagation or attention. A single graph takes the same path, as a split
and batch of one. Readout blends the post node with the comment mean
through lambda, then a dense head produces two logits. Training is Adam on
mean cross-entropy with min-validation-loss model selection.

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
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0,1]")
        for name in ("layers", "hidden", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError("lr must be finite and > 0")


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
    index arithmetic. Each graph's feature array is referenced, not copied."""

    features: list  # each graph's (n, in_dim) array
    counts: list  # node counts
    edge_start: list  # graph k's edges are edge_start[k]:edge_start[k + 1]
    ends: np.ndarray  # every edge as flat (i, j) pairs: graph k's are ends[2 * edge_start[k]:...]
    labels: np.ndarray | None  # kept when the caller needs them


def _split(graphs, in_dim: int, labeled: bool) -> _Split:
    """Check `graphs` against a model of width `in_dim` and lay them out;
    `labeled` also requires every graph's label."""
    features, counts, edge_start = [], [], [0]
    for g in graphs:
        if g.features.shape[0] < 2:
            raise FormatError(f"sample {g.sample_id}: no comment nodes, so the readout's "
                              "comment mean is undefined")
        if g.features.shape[1] != in_dim:
            raise FormatError(f"sample {g.sample_id}: feature dim "
                              f"{g.features.shape[1]} != model dim {in_dim}")
        features.append(g.features)
        counts.append(len(g.features))
        edge_start.append(edge_start[-1] + len(g.edges))
    labels = None
    if labeled:
        labels = [g.label for g in graphs]
        if None in labels:
            raise ValueError(f"sample {graphs[labels.index(None)].sample_id} is unlabeled")
        labels = np.array(labels)
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                       dtype=np.intp, count=2 * edge_start[-1])
    return _Split(features, counts, edge_start, ends, labels)


def _operators(arch: str, split: _Split, idx, n_max: int, dtype) -> np.ndarray:
    """The (B, n_max, n_max) propagation operators in `dtype` of the graphs
    `idx` of `split`: GCN's normalized Â, SAGE's neighbour mean (an isolated
    node aggregates itself) or GAT's mask of neighbours plus self. A pad slot
    is an isolated node, so its operator row is self-only in every arch."""
    start = split.edge_start
    ends = np.concatenate([split.ends[2 * start[k] : 2 * start[k + 1]] for k in idx])
    b, i, j = (np.arange(len(idx)).repeat([start[k + 1] - start[k] for k in idx]),
               ends[0::2], ends[1::2])
    a = np.zeros((len(idx), n_max, n_max), dtype=dtype)
    a[b, i, j] = a[b, j, i] = 1.0
    if arch == "sage":
        deg = a.sum(axis=2)[:, :, None]
        return np.where(deg > 0, a / np.maximum(deg, 1.0), np.eye(n_max, dtype=dtype))
    a.reshape(len(idx), -1)[:, :: n_max + 1] += 1.0  # Â = A + I
    if arch == "gat":
        return a > 0
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=2))
    return a * d_inv_sqrt[:, :, None] * d_inv_sqrt[:, None, :]


def _rows(params: ModelParams, split: _Split, idx) -> np.ndarray:
    """The real node rows (R, in_dim) of the graphs `idx` of `split`, in
    batch order and in the model's dtype."""
    dtype = params.tensors["cls.W"].dtype
    return np.concatenate([split.features[k] for k in idx], dtype=dtype)


def _layout(params: ModelParams, split: _Split, idx) -> dict:
    """The padded (B, n_max) layout of the graphs `idx` of `split`: the mask
    of real slots, operators (B, n_max, n_max) and readout weights (lambda on
    the post, the rest spread over the real comments). A pad slot is an
    isolated zero-feature node: its self-only operator row gives it exactly
    zero output and gradient in every arch, and its readout weight is zero."""
    counts = [split.counts[k] for k in idx]
    n_max = max(counts)
    real = np.greater.outer(counts, np.arange(n_max))
    dtype = params.tensors["cls.W"].dtype
    readout = real * np.array([(1.0 - params.lam) / (n - 1) for n in counts], dtype)[:, None]
    readout[:, 0] = params.lam
    return {"real": real, "op": _operators(params.arch, split, idx, n_max, dtype),
            "readout": readout}


def _pack(params: ModelParams, split: _Split, idx) -> tuple[np.ndarray, dict]:
    """The graphs `idx` (a sequence of ints) of `split` as a batch: its rows
    and a cache holding its layout. One graph is a batch of one, with no pad
    slots."""
    return _rows(params, split, idx), _layout(params, split, idx)


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in the DivergenceError below
def _forward(params: ModelParams, x, cache: dict):
    """Final node embeddings (B, n_max, hidden) and logits (B, 2) of the rows
    and cache of a packed batch; the cache also keeps what backward needs."""
    t = params.tensors
    real, op = cache["real"], cache["op"]
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
            e = np.where(op, np.where(pre > 0, pre, 0.2 * pre), -np.inf)  # leaky ReLU
            ex = np.exp(e - e.max(axis=2, keepdims=True))
            alpha = ex / ex.sum(axis=2, keepdims=True)
            z = alpha @ p
            cache[f"p{l}"], cache[f"pre{l}"], cache[f"alpha{l}"] = p, pre, alpha
        if not np.isfinite(z).all():
            raise DivergenceError(f"NaN in forward at layer {l}", None)
        h = cache[f"h{l + 1}"] = np.maximum(z, 0.0)
    pooled = cache["pooled"] = (cache["readout"][:, None, :] @ h)[:, 0]
    logits = pooled @ t["cls.W"].T + t["cls.b"]
    if not np.isfinite(logits).all():
        raise DivergenceError("NaN in forward at the classifier head", None)
    return h, logits


@np.errstate(over="ignore", invalid="ignore")  # train checks the Adam state it feeds
def _backward(params: ModelParams, x, cache: dict, dlogits: np.ndarray) -> dict:
    """Gradient of sum(dlogits * logits) for every tensor, given the packed
    rows `x` and the cache of their forward pass; layer 0 computes no input
    gradient."""
    t = params.tensors
    real = cache["real"]
    op_t = cache["op"].transpose(0, 2, 1)
    grads = {"cls.W": dlogits.T @ cache["pooled"], "cls.b": dlogits.sum(axis=0)}
    dh = cache["readout"][:, :, None] * (dlogits @ t["cls.W"])[:, None, :]

    def w_grad(l, d):  # (layer l's input)ᵀ @ d; pad rows of the input are zero
        if l == 0:
            return x.T @ d[real]
        h_in = cache[f"h{l}"]
        return h_in.reshape(-1, h_in.shape[2]).T @ d.reshape(-1, d.shape[2])

    for l in reversed(range(params.layers)):
        dz = dh * (cache[f"h{l + 1}"] > 0)  # ReLU: h > 0 exactly where z > 0
        if params.arch != "gat":
            dp = op_t @ dz
        else:
            p, alpha = cache[f"p{l}"], cache[f"alpha{l}"]
            d_alpha = dz @ p.transpose(0, 2, 1)
            de = alpha * (d_alpha - (alpha * d_alpha).sum(axis=2, keepdims=True))
            dpre = np.where(cache[f"pre{l}"] > 0, de, 0.2 * de)
            ds, dt = dpre.sum(axis=2), dpre.sum(axis=1)
            grads[f"layer{l}.a_src"] = np.tensordot(ds, p, 2)
            grads[f"layer{l}.a_dst"] = np.tensordot(dt, p, 2)
            dp = (alpha.transpose(0, 2, 1) @ dz + ds[..., None] * t[f"layer{l}.a_src"]
                  + dt[..., None] * t[f"layer{l}.a_dst"])
        if params.arch == "sage":  # dp is the gradient of the neighbour product
            grads[f"layer{l}.W_self"] = w_grad(l, dz)
            grads[f"layer{l}.W_neigh"] = w_grad(l, dp)
            dh = dz @ t[f"layer{l}.W_self"].T + dp @ t[f"layer{l}.W_neigh"].T if l else None
        else:
            grads[f"layer{l}.W"] = w_grad(l, dp)
            dh = dp @ t[f"layer{l}.W"].T if l else None
    return grads


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


def _loss_and_grads(params: ModelParams, split: _Split, idx) -> tuple[float, dict]:
    """Mean cross-entropy over the graphs `idx` of a labeled split and its
    gradients, by tensor name, from one padded pass."""
    x, cache = _pack(params, split, idx)
    _, logits = _forward(params, x, cache)
    losses, dlogits = _nll(logits, split.labels[idx])
    return float(losses.mean()), _backward(params, x, cache, dlogits * (1.0 / len(idx)))


def loss_and_grads(params: ModelParams, batch: list[SampleGraph]):
    """Mean cross-entropy over a batch and its gradients, from one padded pass."""
    if not batch:
        raise ValueError("empty batch")
    loss, grads = _loss_and_grads(params, _split(batch, params.in_dim, labeled=True),
                                  range(len(batch)))
    return loss, replace(params, tensors={k: grads[k] for k in params.tensors})


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


def _evaluate(params: ModelParams, split: _Split, batches) -> tuple[float, float]:
    """(mean loss, accuracy) over the batches of `_eval_batches`."""
    losses, correct = [], 0
    for idx, layout in batches:
        _, logits = _forward(params, _rows(params, split, idx), dict(layout))
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
    validation batches' layouts are built once, not every epoch."""
    if not train_graphs or not val_graphs:
        raise ValueError("train and val splits must be non-empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    params = init_params(cfg, in_dim, rng)
    flat = _flatten(params, np.float32)
    split = _split(train_graphs, in_dim, labeled=True)
    val = _eval_batches(params, val_graphs, cfg.batch_size)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
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
                loss, grads = _loss_and_grads(params, split,
                                              order[start : start + cfg.batch_size])
            except DivergenceError as exc:
                raise DivergenceError(str(exc), history) from exc
            if not np.isfinite(loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}", history)
            epoch_losses.append(loss)
            step += 1
            g = np.concatenate([grads[k].ravel() for k in params.tensors])
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g * g
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                flat -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
            if not (np.isfinite(v).all() and np.isfinite(flat).all()):
                raise DivergenceError(f"Adam update diverged at epoch {epoch}", history)
        val_loss, val_acc = _evaluate(params, *val)
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


def _flatten(params: ModelParams, dtype) -> np.ndarray:
    """Move the tensors into one flat buffer of `dtype` and leave views of it
    in params.tensors, so an elementwise update of the buffer updates them
    all."""
    flat = np.concatenate([t.ravel() for t in params.tensors.values()], dtype=dtype)
    start = 0
    for k, t in params.tensors.items():
        params.tensors[k] = flat[start : start + t.size].reshape(t.shape)
        start += t.size
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
        if type(lam) not in (int, float) or not all(
                type(v) is int for v in (in_dim, hidden, layers)) or in_dim < 1:
            raise ValueError("mistyped field or in_dim below 1")
        cfg = GnnConfig(arch=arch, layers=layers, hidden=hidden, lam=lam)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad model header ({exc})") from None
    if {k: v.shape for k, v in tensors.items()} != param_shapes(cfg, in_dim):
        raise FormatError(
            f"{path}: tensors do not match a {layers}-layer {arch} model "
            f"with in_dim {in_dim} and hidden {hidden}")
    return ModelParams(arch, lam, in_dim, hidden, layers, tensors)
