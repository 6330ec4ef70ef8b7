"""End-to-end variant runs: split, embed, train, resolve cold users, report.

This module is the only place the pipeline is wired: `run_variant` (which
the demos and the ablation harness call) and the CLI's train, tune,
map-cold and eval commands compose the same stages. One resolver per
variant maps the users of the train, val and test graphs alike. Variants:
  full      - cold users resolved by the mapper heuristics
  no-mapper - cold users get the global mean user vector
  no-user   - nodes carry text features only (narrower input layer)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

from .assembly import SampleGraph, UserResolver, assemble
from .coldmap import ColdMapConfig, TrainSideData, build_train_side, make_resolver
from .corpus import Corpus, Split, corpus_users, overlap_ratio, temporal_split
from .embedding import EmbeddingTable
from .evaluation import EvalReport, bucketed_report
from .gnn import GnnConfig, ModelParams, predict, train
from .graph import build_interaction_graph
from .node2vec import Node2VecConfig, learn_user_embeddings
from .text import TextEmbedConfig, TextProvider, make_hash_provider

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


def prepare_user_embeddings(split: Split, cfg: PipelineConfig, common_author=None):
    graph = build_interaction_graph(split.train, common_author)
    return learn_user_embeddings(graph, cfg.node2vec)


def cold_train_side(train_samples, texts: TextProvider, common_author,
                    coldmap: ColdMapConfig) -> TrainSideData:
    """The cold mapper's retrieval index over the training samples."""
    return build_train_side(list(train_samples), texts, common_author,
                            use_chains="h3" in coldmap.heuristics)


def variant_resolver(variant: str, users: EmbeddingTable | None, train_samples,
                     texts: TextProvider, common_author, coldmap: ColdMapConfig,
                     train_side: TrainSideData | None = None) -> UserResolver | None:
    """The one user resolver of a variant: None for no-user, the table mean
    for cold users under no-mapper, the cold mapper over `train_samples`
    under full (reusing `train_side` when given, else building it on the
    first cold occurrence)."""
    if variant == "no-user":
        return None
    if variant == "no-mapper":
        return make_resolver("mean-fallback", users)
    if train_side is None:
        train_side = partial(cold_train_side, train_samples, texts, common_author, coldmap)
    return make_resolver("cold-mapper", users, train_side=train_side, texts=texts,
                         cfg=coldmap)


def assemble_splits(texts: TextProvider, resolver: UserResolver | None, common_author,
                    *parts) -> tuple[list[SampleGraph], ...]:
    """The graphs of each list of samples, every user mapped by `resolver`."""
    return tuple([assemble(s, texts, resolver, common_author) for s in samples]
                 for samples in parts)


def evaluate(model: ModelParams, train_samples, test_samples, texts: TextProvider,
             resolver: UserResolver | None, common_author,
             metadata: dict) -> tuple[EvalReport, list, list, list]:
    """Classify each test sample and bucket the results by train-user overlap.

    Returns the report and the per-sample predictions, labels and ratios.
    """
    known = corpus_users(train_samples, common_author)
    preds, labels, ratios = [], [], []
    for s in test_samples:
        if s.label is None:
            raise ValueError(f"test sample {s.post_id!r} is unlabeled, so it cannot be scored")
        label, _ = predict(model, assemble(s, texts, resolver, common_author))
        preds.append(label)
        labels.append(s.label)
        ratios.append(overlap_ratio(s, known, common_author))
    report = bucketed_report(preds, labels, ratios, metadata=metadata)
    return report, preds, labels, ratios


def run_variant(
    corpus: Corpus,
    cfg: PipelineConfig,
    split: Split | None = None,
    users: EmbeddingTable | None = None,
) -> RunResult:
    """Train and evaluate one variant on a labeled corpus.

    `split` and `users` can be passed in to share work across variants of
    the same seed (the embeddings do not depend on the variant).
    """
    common = corpus.common_author
    if split is None:
        split = temporal_split(corpus)
    texts = make_hash_provider(cfg.text)
    in_dim = cfg.text.d2
    if cfg.variant != "no-user":
        if users is None:
            users = prepare_user_embeddings(split, cfg, common)
        in_dim += users.dim
    resolver = variant_resolver(cfg.variant, users, split.train, texts, common, cfg.coldmap)
    # the graphs die with the call, so evaluation reuses their memory
    model, history = train(*assemble_splits(texts, resolver, common, split.train, split.val),
                           cfg.gnn, in_dim)
    metadata = {
        "arch": cfg.gnn.arch,
        "variant": cfg.variant,
        "seed": cfg.gnn.seed,
        "feature_dim": in_dim,
        "user_features": cfg.variant != "no-user",
    }
    report, preds, labels, ratios = evaluate(model, split.train, split.test, texts,
                                             resolver, common, metadata)
    return RunResult(
        report=report, model=model, history=history, users=users,
        preds=preds, labels=labels, ratios=ratios,
    )


def run_ablation(
    corpus: Corpus, base: PipelineConfig, variants=VARIANTS
) -> dict[str, RunResult]:
    """Run several variants on one corpus, reusing the split and embeddings."""
    split = temporal_split(corpus)
    users = None
    results: dict[str, RunResult] = {}
    for variant in variants:
        cfg = PipelineConfig(
            gnn=base.gnn, node2vec=base.node2vec, text=base.text,
            coldmap=base.coldmap, variant=variant,
        )
        if variant != "no-user" and users is None:
            users = prepare_user_embeddings(split, cfg, corpus.common_author)
        logger.info("running variant %s", variant)
        results[variant] = run_variant(corpus, cfg, split=split, users=users)
    return results
