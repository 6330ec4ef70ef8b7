"""Three-layer GCN / GraphSAGE / GAT with hand-written backward passes.

Per-sample graphs are tiny trees, so every layer works on dense matrices.
Readout blends the post node with the comment mean through lambda, then a
dense head produces two logits. Training is Adam on mean cross-entropy
with min-validation-loss model selection.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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
    tensors: dict = field(default_factory=dict)  # name -> float64 ndarray

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            self.arch,
            self.lam,
            self.in_dim,
            self.hidden,
            self.layers,
            {k: np.zeros_like(v) for k, v in self.tensors.items()},
        )

    def names(self) -> list[str]:
        return sorted(self.tensors)


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
# per-sample dense operators


def _adjacency_matrix(g: SampleGraph) -> np.ndarray:
    n = len(g.node_order)
    a = np.zeros((n, n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def _gcn_propagation(g: SampleGraph) -> np.ndarray:
    a_hat = _adjacency_matrix(g) + np.eye(len(g.node_order))
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def _sage_mean_matrix(g: SampleGraph) -> np.ndarray:
    a = _adjacency_matrix(g)
    deg = a.sum(axis=1)
    m = np.zeros_like(a)
    for i in range(len(deg)):
        if deg[i] > 0:
            m[i] = a[i] / deg[i]
        else:
            m[i, i] = 1.0  # isolated node aggregates itself
    return m


def _leaky(x):
    return np.where(x > 0, x, 0.2 * x)


def _leaky_grad(x):
    return np.where(x > 0, 1.0, 0.2)


def forward(params: ModelParams, g: SampleGraph, cache: dict | None = None):
    """Run the stack; returns (node_embeddings, logits).

    Pass a dict as `cache` to capture intermediates for the backward pass.
    """
    h = np.asarray(g.features, dtype=np.float64)
    if h.shape[0] < 2:
        raise FormatError(
            f"sample {g.sample_id}: no comment nodes, so the readout's comment "
            "mean is undefined"
        )
    if h.shape[1] != params.in_dim:
        raise FormatError(
            f"sample {g.sample_id}: feature dim {h.shape[1]} != model dim {params.in_dim}"
        )
    n = h.shape[0]
    store = cache if cache is not None else {}
    store["h0"] = h
    if params.arch == "gcn":
        store["prop"] = _gcn_propagation(g)
    elif params.arch == "sage":
        store["mean"] = _sage_mean_matrix(g)
    else:
        mask = _adjacency_matrix(g).astype(bool) | np.eye(n, dtype=bool)
        store["mask"] = mask

    for l in range(params.layers):
        if params.arch == "gcn":
            ah = store["prop"] @ h
            z = ah @ params.tensors[f"layer{l}.W"]
            store[f"ah{l}"] = ah
        elif params.arch == "sage":
            mh = store["mean"] @ h
            z = h @ params.tensors[f"layer{l}.W_self"] + mh @ params.tensors[
                f"layer{l}.W_neigh"
            ]
            store[f"mh{l}"] = mh
        else:
            w = params.tensors[f"layer{l}.W"]
            p = h @ w
            s = p @ params.tensors[f"layer{l}.a_src"]
            t = p @ params.tensors[f"layer{l}.a_dst"]
            pre = s[:, None] + t[None, :]
            e = np.where(store["mask"], _leaky(pre), -np.inf)
            e_max = e.max(axis=1, keepdims=True)
            ex = np.exp(e - e_max)
            ex[~store["mask"]] = 0.0
            alpha = ex / ex.sum(axis=1, keepdims=True)
            z = alpha @ p
            store[f"p{l}"] = p
            store[f"pre{l}"] = pre
            store[f"alpha{l}"] = alpha
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"NaN in forward at layer {l}", None)
        store[f"z{l}"] = z
        h = np.maximum(z, 0.0)
        store[f"h{l + 1}"] = h

    lam = params.lam
    pooled = lam * h[0] + (1.0 - lam) * h[1:].mean(axis=0)
    logits = params.tensors["cls.W"] @ pooled + params.tensors["cls.b"]
    store["pooled"] = pooled
    return h, logits


def attention_weights(params: ModelParams, g: SampleGraph, layer: int) -> np.ndarray:
    if params.arch != "gat":
        raise ValueError("attention weights only exist for GAT")
    cache: dict = {}
    forward(params, g, cache)
    return cache[f"alpha{layer}"]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def sample_loss_and_grads(params: ModelParams, g: SampleGraph):
    """Cross-entropy loss of one labeled sample plus analytic gradients."""
    if g.label is None:
        raise ValueError(f"sample {g.sample_id} is unlabeled")
    cache: dict = {}
    h, logits = forward(params, g, cache)
    probs = _softmax(logits)
    loss = -float(np.log(probs[g.label] + 1e-300))

    grads = params.zeros_like()
    dlogits = probs.copy()
    dlogits[g.label] -= 1.0
    grads.tensors["cls.W"] = np.outer(dlogits, cache["pooled"])
    grads.tensors["cls.b"] = dlogits
    d_pooled = params.tensors["cls.W"].T @ dlogits

    n = h.shape[0]
    dh = np.zeros_like(h)
    dh[0] = params.lam * d_pooled
    dh[1:] += (1.0 - params.lam) / (n - 1) * d_pooled

    for l in reversed(range(params.layers)):
        dz = dh * (cache[f"z{l}"] > 0)
        h_in = cache[f"h{l}"] if l > 0 else cache["h0"]
        if params.arch == "gcn":
            grads.tensors[f"layer{l}.W"] = cache[f"ah{l}"].T @ dz
            dh = cache["prop"].T @ (dz @ params.tensors[f"layer{l}.W"].T)
        elif params.arch == "sage":
            grads.tensors[f"layer{l}.W_self"] = h_in.T @ dz
            grads.tensors[f"layer{l}.W_neigh"] = cache[f"mh{l}"].T @ dz
            dh = dz @ params.tensors[f"layer{l}.W_self"].T + cache["mean"].T @ (
                dz @ params.tensors[f"layer{l}.W_neigh"].T
            )
        else:
            w = params.tensors[f"layer{l}.W"]
            a_src = params.tensors[f"layer{l}.a_src"]
            a_dst = params.tensors[f"layer{l}.a_dst"]
            p = cache[f"p{l}"]
            alpha = cache[f"alpha{l}"]
            mask = cache["mask"]
            d_alpha = dz @ p.T
            de = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
            dpre = de * _leaky_grad(cache[f"pre{l}"])
            dpre[~mask] = 0.0
            ds = dpre.sum(axis=1)
            dt = dpre.sum(axis=0)
            dp = alpha.T @ dz
            dp += ds[:, None] * a_src[None, :]
            dp += dt[:, None] * a_dst[None, :]
            grads.tensors[f"layer{l}.a_src"] = p.T @ ds
            grads.tensors[f"layer{l}.a_dst"] = p.T @ dt
            grads.tensors[f"layer{l}.W"] = h_in.T @ dp
            dh = dp @ w.T
    return loss, grads


def loss_and_grads(params: ModelParams, batch: list[SampleGraph]):
    """Mean cross-entropy over a batch with summed-then-scaled gradients."""
    if not batch:
        raise ValueError("empty batch")
    total = params.zeros_like()
    loss_sum = 0.0
    for g in batch:
        loss, grads = sample_loss_and_grads(params, g)
        loss_sum += loss
        for k in total.tensors:
            total.tensors[k] += grads.tensors[k]
    scale = 1.0 / len(batch)
    for k in total.tensors:
        total.tensors[k] *= scale
    return loss_sum * scale, total


def predict(params: ModelParams, g: SampleGraph) -> tuple[int, float]:
    """Argmax over softmax; exact logit tie resolves to label 1."""
    _, logits = forward(params, g)
    probs = _softmax(logits)
    label = 1 if logits[1] >= logits[0] else 0
    return label, float(probs[label])


def evaluate_loss(params: ModelParams, samples: list[SampleGraph]) -> tuple[float, float]:
    """(mean loss, accuracy) over labeled samples."""
    losses = []
    correct = 0
    for g in samples:
        _, logits = forward(params, g)
        probs = _softmax(logits)
        losses.append(-float(np.log(probs[g.label] + 1e-300)))
        pred = 1 if logits[1] >= logits[0] else 0
        correct += int(pred == g.label)
    return float(np.mean(losses)), correct / len(samples)


def train(
    train_graphs: list[SampleGraph],
    val_graphs: list[SampleGraph],
    cfg: GnnConfig,
    in_dim: int,
) -> tuple[ModelParams, list[dict]]:
    """Adam training with per-epoch shuffles; returns the min-val-loss params."""
    if not train_graphs or not val_graphs:
        raise ValueError("train and val splits must be non-empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    params = init_params(cfg, in_dim, rng)
    m = params.zeros_like()
    v = params.zeros_like()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history: list[dict] = []
    best_val = np.inf
    best = _copy_params(params)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_graphs))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_graphs[i] for i in order[start : start + cfg.batch_size]]
            try:
                loss, grads = loss_and_grads(params, batch)
            except DivergenceError as exc:
                raise DivergenceError(str(exc), history) from exc
            if not np.isfinite(loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}", history)
            epoch_losses.append(loss)
            step += 1
            for k in params.tensors:
                gk = grads.tensors[k]
                m.tensors[k] = beta1 * m.tensors[k] + (1 - beta1) * gk
                v.tensors[k] = beta2 * v.tensors[k] + (1 - beta2) * gk * gk
                m_hat = m.tensors[k] / (1 - beta1**step)
                v_hat = v.tensors[k] / (1 - beta2**step)
                params.tensors[k] -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        val_loss, val_acc = evaluate_loss(params, val_graphs)
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


def _copy_params(params: ModelParams) -> ModelParams:
    return ModelParams(
        params.arch,
        params.lam,
        params.in_dim,
        params.hidden,
        params.layers,
        {k: v.copy() for k, v in params.tensors.items()},
    )


def save_history(history: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_acc"])
        for row in history:
            writer.writerow(
                [row["epoch"], row["train_loss"], row["val_loss"], row["val_acc"]]
            )


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
                type(v) is int and v > 0 for v in (in_dim, hidden, layers)):
            raise ValueError("mistyped or non-positive field")
        cfg = GnnConfig(arch=arch, layers=layers, hidden=hidden, lam=lam)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad model header ({exc})") from None
    if {k: v.shape for k, v in tensors.items()} != param_shapes(cfg, in_dim):
        raise FormatError(
            f"{path}: tensors do not match a {layers}-layer {arch} model "
            f"with in_dim {in_dim} and hidden {hidden}")
    tensors = {k: v.astype(np.float64) for k, v in tensors.items()}
    return ModelParams(arch, lam, in_dim, hidden, layers, tensors)
