"""End-to-end variant runs: split, embed, train, resolve cold users, report.

This module is the only place the pipeline is wired: `run_variant` (which
the demos and the ablation harness call) and the CLI's commands call its
stages `prepare_user_embeddings`, `variant_resolver`, `assemble_graphs`,
`fit` and `evaluate`. One resolver per variant maps the users of the
train, val and test graphs alike. Variants:
  full      - cold users resolved by the mapper heuristics
  no-mapper - cold users get the global mean user vector
  no-user   - nodes carry text features only (narrower input layer)
`mapper_fidelity` measures the cold mapper itself: how close it comes to
the vectors of warm users hidden from training.

On a host where this process may run on two CPUs or more, `run_variant`
overlaps its independent stages through `overlap`: the user table is
trained in a forked child while the parent hashes the train and val texts,
and the test graphs are assembled in a second child while the parent
trains the classifier. Every output is the same as the inline run's.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from .assembly import SampleGraph, UserResolver, assemble, occurrences, text_keys
from .coldmap import (HEURISTIC_LEVELS, ColdMapConfig, TrainSideData, build_train_side,
                      make_resolver)
from .corpus import (Corpus, Sample, Split, corpus_users, overlap_ratio, reply_order,
                     temporal_split)
from .embedding import EmbeddingTable
from .evaluation import EvalReport, bucketed_report
from .gnn import GnnConfig, ModelParams, predict, train
from .graph import build_interaction_graph
from .node2vec import Node2VecConfig, sample_walks, train_skipgram
from .text import TextEmbedConfig, TextProvider, embed_many, make_hash_provider

logger = logging.getLogger(__name__)

VARIANTS = ("full", "no-mapper", "no-user")


@dataclass
class PipelineConfig:
    gnn: GnnConfig = field(default_factory=GnnConfig)
    node2vec: Node2VecConfig = field(default_factory=Node2VecConfig)
    text: TextEmbedConfig = field(default_factory=TextEmbedConfig)
    coldmap: ColdMapConfig = field(default_factory=ColdMapConfig)
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class RunResult:
    report: EvalReport
    model: ModelParams
    history: list
    users: EmbeddingTable | None
    preds: list
    labels: list
    ratios: list


def prepare_user_embeddings(train_samples, cfg: Node2VecConfig, common_author=None,
                            weighted: bool = True) -> EmbeddingTable:
    """The user table learned from the interaction graph of `train_samples`:
    node2vec walks over it, then SGNS over the walks."""
    graph = build_interaction_graph(train_samples, common_author, weighted=weighted)
    return train_skipgram(sample_walks(graph, cfg), cfg)


def cold_train_side(train_samples, texts: TextProvider, common_author,
                    coldmap: ColdMapConfig) -> TrainSideData:
    """The cold mapper's retrieval index over the training samples."""
    return build_train_side(list(train_samples), texts, common_author,
                            use_chains="h3" in coldmap.heuristics)


def variant_resolver(variant: str, users: EmbeddingTable | None, train_samples,
                     texts: TextProvider, common_author, coldmap: ColdMapConfig,
                     train_side: TrainSideData | None = None) -> UserResolver | None:
    """The one user resolver of a variant: None for no-user, else the cold
    mapper over `train_samples`, with no heuristics under no-mapper, so that
    every cold user gets the table mean. It reuses `train_side` when given,
    else builds it on the first cold occurrence that needs retrieval."""
    if variant == "no-user":
        return None
    if variant == "no-mapper":
        coldmap = replace(coldmap, heuristics=frozenset())
    if train_side is None:
        train_side = partial(cold_train_side, train_samples, texts, common_author, coldmap)
    return make_resolver("cold-mapper", users, train_side=train_side, texts=texts,
                         cfg=coldmap)


def fit(train_graphs: list[SampleGraph], val_graphs: list[SampleGraph],
        gnn: GnnConfig) -> tuple[ModelParams, list]:
    """Train a classifier on `train_graphs`, its epoch chosen on `val_graphs`;
    the model is as wide as their node rows. Returns (model, history)."""
    in_dim = train_graphs[0].features.shape[1] if train_graphs else 0  # train rejects empty
    return train(train_graphs, val_graphs, gnn, in_dim)


def evaluate(model: ModelParams, train_samples, test_samples, graphs, common_author,
             user_features: bool, metadata: dict) -> tuple[EvalReport, list, list, list]:
    """Classify the test samples' `graphs` (an iterable in `test_samples`
    order) and bucket the results by train-user overlap.

    Returns the report, whose metadata adds the model's `arch`, `feature_dim`
    and `user_features` to `metadata`, and the per-sample predictions,
    labels and ratios.
    """
    known = corpus_users(train_samples, common_author)
    preds, labels, ratios = [], [], []
    for s, g in zip(test_samples, graphs, strict=True):
        if s.label is None:
            raise ValueError(f"test sample {s.post_id!r} is unlabeled, so it cannot be scored")
        label, _ = predict(model, g)
        preds.append(label)
        labels.append(s.label)
        ratios.append(overlap_ratio(s, known, common_author))
    metadata = {"arch": model.arch, "feature_dim": model.in_dim,
                "user_features": user_features, **metadata}
    report = bucketed_report(preds, labels, ratios, metadata=metadata)
    return report, preds, labels, ratios


def assemble_graphs(samples, texts: TextProvider, resolver: UserResolver | None,
                    common_author) -> list[SampleGraph]:
    """The graphs of `samples` whose users `resolver` maps: `run_variant`'s
    test-graph stage, and the CLI's train and val graphs for `fit`."""
    return [assemble(s, texts, resolver, common_author) for s in samples]


def _forks() -> bool:
    """Whether `overlap` runs its stage in a child: on a platform with CPU
    affinity masks, when this process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


@contextmanager
def overlap(stage: str, fn, *args):
    """Run `fn(*args)` beside the with-block; yields a call that returns its
    value or raises its exception.

    Where `_forks`, `fn` runs in a forked child, which pickles (ok, value or
    exception) into a pipe and ends with `os._exit`; the call unpickles it
    from the pipe, reads the pipe to its end, then reaps the child. An
    exception that does not survive pickling arrives as a RuntimeError
    naming its type and message, and a child that ends without a whole
    result as a RuntimeError naming `stage`. A child not reaped when the
    block ends is killed and reaped then, so none outlives the block.
    Elsewhere the call runs `fn(*args)` itself.
    """
    if not _forks():
        yield partial(fn, *args)
        return
    _flush_std()  # so the child has no copy of pending output
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(stage, write_fd, fn, args)
    os.close(write_fd)
    pipe, running = open(read_fd, "rb"), [pid]

    def result():
        try:  # unpickled from the stream, so no copy of the whole pickle is held
            outcome = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # the child sent nothing, or part of it
            outcome = None
        pipe.read()
        pipe.close()
        _, status = os.waitpid(running.pop(), 0)
        if outcome is None:
            raise RuntimeError(f"{stage}: the child process ended without a result "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        ok, value = outcome
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _flush_std() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _child(stage: str, write_fd: int, fn, args) -> None:
    """The forked side of `overlap`: send `fn(*args)`'s outcome and exit."""
    code = 1
    try:
        try:
            outcome = (True, fn(*args))
        except BaseException as exc:  # the parent raises it
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[0]:
                pickle.loads(data)  # some exceptions pickle but do not unpickle
        except Exception as exc:
            cause = exc if outcome[0] else outcome[1]
            data = pickle.dumps((False, RuntimeError(
                f"{stage}: {type(cause).__name__}: {cause}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        _flush_std()
        code = 0
    finally:
        os._exit(code)


def run_variant(
    corpus: Corpus,
    cfg: PipelineConfig,
    split: Split | None = None,
    users: EmbeddingTable | None = None,
    texts: TextProvider | None = None,
) -> RunResult:
    """Train and evaluate one variant on a labeled corpus.

    `split`, `users` and `texts` can be passed in to share work across
    variants of the same seed (none of them depends on the variant); `texts`
    defaults to a hash provider under `cfg.text`. The user table (when it is
    trained here) and the test graphs are made beside the parent's work, in
    children when `overlap` forks; the parent's text cache gains the train
    and val texts, not the test texts. The variant's resolver is made once,
    before the test-graph stage, so a child inherits it before its train
    side is built, and an inline run builds that side at most once.
    """
    common = corpus.common_author
    if split is None:
        split = temporal_split(corpus)
    if texts is None:
        texts = make_hash_provider(cfg.text)
    if cfg.variant != "no-user" and users is None:
        with overlap("user embeddings", prepare_user_embeddings, split.train, cfg.node2vec,
                     common) as table:
            for s in chain(split.train, split.val):  # one batch per sample, as `assemble`
                embed_many(texts, text_keys(s))
            users = table()
    resolver = variant_resolver(cfg.variant, users, split.train, texts, common, cfg.coldmap)
    with overlap("test graphs", assemble_graphs, split.test, texts, resolver, common) as graphs:
        # the train and val graphs die with the call, so evaluation reuses their memory; the
        # parent assembles them itself, as `assemble_graphs` is the test-graph stage
        model, history = fit([assemble(s, texts, resolver, common) for s in split.train],
                             [assemble(s, texts, resolver, common) for s in split.val], cfg.gnn)
        graphs = graphs()
    metadata = {"variant": cfg.variant, "seed": cfg.gnn.seed}
    report, preds, labels, ratios = evaluate(model, split.train, split.test, graphs, common,
                                             cfg.variant != "no-user", metadata)
    return RunResult(
        report=report, model=model, history=history, users=users,
        preds=preds, labels=labels, ratios=ratios,
    )


def run_ablation(corpus: Corpus, base: PipelineConfig) -> dict[str, RunResult]:
    """Run every variant on one corpus, reusing the split, the user
    embeddings and one text provider, so each train and val text is hashed
    once (the test texts once per variant, where its test graphs are made)."""
    split = temporal_split(corpus)
    texts = make_hash_provider(base.text)
    users = None
    results: dict[str, RunResult] = {}
    for variant in VARIANTS:
        logger.info("running variant %s", variant)
        results[variant] = run_variant(corpus, replace(base, variant=variant), split=split,
                                       users=users, texts=texts)
        users = results[variant].users
    return results


# ---------------------------------------------------------------------------
# mapper fidelity


HEURISTIC_SETS = HEURISTIC_LEVELS[1:]  # every level that retrieves


@dataclass
class FidelityReport:
    users: int  # warm users hidden
    occurrences: int  # their occurrences in the test split
    alignment: float  # mean cosine of the shared users' rows after the rotation
    cosine: dict  # row name -> mean cosine of the resolved vectors to the real ones


def without_users(samples, hidden: set, common_author=None) -> list[Sample]:
    """`samples` as if the `hidden` users had never posted: their posts are
    dropped, and so are their comments with every reply below them."""
    out = []
    for s in samples:
        if s.resolved_author(common_author) in hidden:
            continue
        cut = set()
        for c in reply_order(s):
            if c.author in hidden or c.parent in cut:
                cut.add(c.id)
        out.append(replace(s, comments=tuple(c for c in s.comments if c.id not in cut)))
    return out


def _procrustes(source: EmbeddingTable, target: EmbeddingTable) -> tuple[np.ndarray, float]:
    """The orthogonal R that best maps the rows of `source` onto `target`'s
    rows of the same users (Schoenemann 1966), so that `source` rows @ R
    are in `target`'s coordinates, and the mean cosine of those users'
    rotated rows to their `target` rows."""
    shared = [u for u in source.ids if u in target]
    a = source.matrix[[source.index[u] for u in shared]].astype(np.float64)
    b = target.matrix[[target.index[u] for u in shared]].astype(np.float64)
    u, _, vt = np.linalg.svd(a.T @ b)
    rotation = u @ vt
    return rotation, _mean_cosine(a @ rotation, b)


def _mean_cosine(got: np.ndarray, want: np.ndarray) -> float:
    """Mean row-wise cosine; a zero row scores 0."""
    norms = np.linalg.norm(got, axis=1) * np.linalg.norm(want, axis=1)
    dots = np.einsum("nd,nd->n", got, want)
    return float(np.mean(np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)))


def mapper_fidelity(corpus: Corpus, cfg: PipelineConfig, hide_fraction: float,
                    seed: int) -> FidelityReport:
    """How close the cold mapper comes to the vectors of users it never saw.

    A seeded `hide_fraction` of the warm users (training users who also
    occur in the test split) is hidden: the training samples are rebuilt
    without them (`without_users`), and so are the user table and the
    mapper's index. Each test occurrence of a hidden user is then resolved
    as a cold user under each of `HEURISTIC_SETS` (with `cfg.coldmap`'s k1
    and k2) and scored by its cosine to the user's row in the table trained
    with them. The two tables are separate SGNS runs, so the rebuilt one is
    first rotated onto the full one over the users they share; `alignment`
    is how well that rotation fits them. Baselines: the rebuilt table's
    mean, which the no-mapper variant gives every cold user, and a random
    user of the rebuilt table per occurrence.
    """
    if not 0 < hide_fraction < 1:
        raise ValueError("hide_fraction must lie in (0, 1)")
    common = corpus.common_author
    split = temporal_split(corpus)
    full = prepare_user_embeddings(split.train, cfg.node2vec, common)
    warm = sorted(u for u in corpus_users(split.test, common) if u in full and u != common)
    if not warm:
        raise ValueError("no training user occurs in the test split")
    rng = np.random.default_rng(seed)
    hidden = set(rng.choice(warm, size=max(1, round(hide_fraction * len(warm))),
                            replace=False).tolist())
    train = without_users(split.train, hidden, common)
    kept = prepare_user_embeddings(train, cfg.node2vec, common)
    rotation, alignment = _procrustes(kept, full)
    texts = make_hash_provider(cfg.text)
    targets = [(u, ctx) for s in split.test for u, ctx in occurrences(s, common)
               if u in hidden]
    truth = np.stack([full.vector(u) for u, _ in targets]).astype(np.float64)
    rows, sides = {}, {}  # one train side per comment representation
    for heuristics in HEURISTIC_SETS:
        coldmap = replace(cfg.coldmap, heuristics=heuristics)
        chains = "h3" in heuristics
        if chains not in sides:
            sides[chains] = cold_train_side(train, texts, common, coldmap)
        resolver = variant_resolver("full", kept, train, texts, common, coldmap, sides[chains])
        rows["+".join(sorted(heuristics))] = np.stack([resolver(u, ctx) for u, ctx in targets])
    rows["global-mean"] = np.tile(kept.mean_vector().astype(np.float64), (len(targets), 1))
    rows["random-user"] = kept.matrix[rng.integers(len(kept), size=len(targets))]
    cosine = {name: _mean_cosine(vecs @ rotation, truth) for name, vecs in rows.items()}
    return FidelityReport(users=len(hidden), occurrences=len(targets),
                          alignment=alignment, cosine=cosine)
