"""Pipeline command line: one subcommand per stage, explicit seeds, provenance.

Every stage validates its input artifacts (magic + checksum), writes its
outputs plus a resolved run_config.json with input checksums, and exits
nonzero with a structured error line on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiment
from .coldmap import ColdMapConfig
from .corpus import Corpus, CorpusError, load_corpus, save_corpus, temporal_split
from .embedding import EmbeddingTable, FormatError, sha256_file
from .evaluation import SearchSpace, save_trials, tune
from .gnn import GnnConfig, load_model, save_history, save_model, train
from .graph import build_interaction_graph, export_edge_list, graph_stats
from .node2vec import Node2VecConfig, learn_user_embeddings
from .synth import SynthConfig, describe, generate
from .text import TextEmbedConfig, build_text_table, make_hash_provider, table_provider

# CLI variant name -> experiment.VARIANTS; reports keep the CLI name.
VARIANTS = {"uen": "full", "no-mapper": "no-mapper", "no-user": "no-user"}


def _write_provenance(out_dir: Path, args: argparse.Namespace, inputs: list) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}
    config["inputs"] = {str(p): sha256_file(p) for p in inputs if Path(p).exists()}
    config["version"] = __version__
    with open(out_dir / "run_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_split_dir(args, *names) -> list[Corpus]:
    return [load_corpus(Path(args.splits) / f"{name}.jsonl", args.mode)[0] for name in names]


def _text_provider(args):
    if getattr(args, "texts", None):
        table = EmbeddingTable.load(args.texts, expect_dim=args.d2)
        return table_provider(table)
    return make_hash_provider(TextEmbedConfig(d2=args.d2, hash_seed=args.hash_seed))


def _coldmap(args) -> ColdMapConfig:
    heuristics = frozenset(h.strip().lower() for h in args.heuristics.split(",") if h.strip())
    return ColdMapConfig(k1=args.k1, k2=args.k2, heuristics=heuristics)


def _gnn_config(args, lam: float) -> GnnConfig:
    return GnnConfig(arch=args.arch, lam=lam, lr=args.lr, epochs=args.epochs,
                     batch_size=args.batch_size, hidden=args.hidden, seed=args.seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    out = _out_dir(args)
    cfg = SynthConfig(
        n_users=args.n_users,
        n_communities=args.n_communities,
        n_samples=args.n_samples,
        comments_per_sample=(args.min_comments, args.max_comments),
        max_chain_depth=args.max_chain_depth,
        fake_fraction=args.fake_fraction,
        text_signal_strength=args.text_signal,
        user_signal_strength=args.user_signal,
        cold_user_rate_test=args.cold_rate,
        seed=args.seed,
    )
    corpus = generate(cfg)
    save_corpus(corpus, out / "corpus.jsonl")
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(describe(corpus), fh, indent=2, sort_keys=True)
    _write_provenance(out, args, [])
    print(json.dumps({"samples": len(corpus), "out": str(out / "corpus.jsonl")}))


def cmd_ingest(args):
    out = _out_dir(args)
    corpus, report = load_corpus(args.input, args.mode)
    save_corpus(corpus, out / "corpus.jsonl")
    _write_provenance(out, args, [args.input])
    print(report.to_json())


def cmd_split(args):
    out = _out_dir(args)
    corpus, _ = load_corpus(args.input, args.mode)
    split = temporal_split(corpus, (args.train_ratio, args.val_ratio, args.test_ratio))
    for name, samples in (("train", split.train), ("val", split.val), ("test", split.test)):
        save_corpus(Corpus(samples=samples, common_author=corpus.common_author),
                    out / f"{name}.jsonl")
    _write_provenance(out, args, [args.input])
    print(json.dumps({"train": len(split.train), "val": len(split.val),
                      "test": len(split.test)}))


def cmd_graph(args):
    out = _out_dir(args)
    corpus, _ = load_corpus(args.train, args.mode)
    g = build_interaction_graph(corpus.samples, corpus.common_author,
                                weighted=not args.unweighted)
    export_edge_list(g, out / "edges.txt", out / "nodes.txt")
    stats = graph_stats(g)
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    _write_provenance(out, args, [args.train])
    print(json.dumps({k: stats[k] for k in ("node_count", "edge_count", "total_weight")}))


def cmd_embed_users(args):
    out = _out_dir(args)
    corpus, _ = load_corpus(args.train, args.mode)
    g = build_interaction_graph(corpus.samples, corpus.common_author,
                                weighted=not args.unweighted)
    cfg = Node2VecConfig(
        d1=args.d1, p=args.p, q=args.q, walk_length=args.walk_length,
        walks_per_node=args.walks_per_node, window=args.window,
        negatives_per_positive=args.negatives, epochs=args.epochs,
        learning_rate=args.lr, seed=args.seed,
    )
    table = learn_user_embeddings(g, cfg)
    table.save(out / "users.emb")
    _write_provenance(out, args, [args.train])
    print(json.dumps({"rows": len(table), "dim": table.dim}))


def cmd_embed_text(args):
    out = _out_dir(args)
    corpus, _ = load_corpus(args.corpus, args.mode)
    texts = {}
    for s in corpus.samples:
        texts[s.text_key] = s.text_key
        for c in s.comments:
            texts[c.text_key] = c.text_key
    table = build_text_table(texts, TextEmbedConfig(d2=args.d2, hash_seed=args.hash_seed))
    table.save(out / "texts.emb")
    _write_provenance(out, args, [args.corpus])
    print(json.dumps({"rows": len(table), "dim": table.dim}))


def _train_val_graphs(args):
    """The train and val graphs and their feature width.

    Only the graphs leave this scope, so the parsed splits, the text
    provider, the resolver and its train-side index are freed before
    training starts.
    """
    train_corpus, val_corpus = _load_split_dir(args, "train", "val")
    common = train_corpus.common_author
    texts = _text_provider(args)
    users = None if args.variant == "no-user" else EmbeddingTable.load(args.users)
    resolver = experiment.variant_resolver(VARIANTS[args.variant], users,
                                           train_corpus.samples, texts, common, _coldmap(args))
    graphs = experiment.assemble_splits(texts, resolver, common, train_corpus.samples,
                                        val_corpus.samples)
    return graphs, args.d2 + (0 if users is None else users.dim)


def cmd_train(args):
    _check_variant_conflicts(args)
    out = _out_dir(args)
    (train_graphs, val_graphs), in_dim = _train_val_graphs(args)
    model, history = train(train_graphs, val_graphs, _gnn_config(args, args.lam), in_dim)
    save_model(model, out / "model.mdl")
    save_history(history, out / "history.csv")
    _write_provenance(out, args, [Path(args.splits) / "train.jsonl",
                                  Path(args.splits) / "val.jsonl"]
                      + ([args.users] if args.users else []))
    print(json.dumps({"best_val_loss": min(h["val_loss"] for h in history),
                      "epochs": len(history)}))


def cmd_tune(args):
    out = _out_dir(args)
    train_corpus, val_corpus = _load_split_dir(args, "train", "val")
    train_samples, val_samples = train_corpus.samples, val_corpus.samples
    common = train_corpus.common_author
    texts = _text_provider(args)
    users = EmbeddingTable.load(args.users)
    side = experiment.cold_train_side(train_samples, texts, common, ColdMapConfig())

    def objective(params):
        coldmap = ColdMapConfig(k1=params["k1"], k2=params["k2"])
        resolver = experiment.variant_resolver("full", users, train_samples, texts, common,
                                               coldmap, train_side=side)
        graphs = experiment.assemble_splits(texts, resolver, common, train_samples, val_samples)
        _, history = train(*graphs, _gnn_config(args, params["lam"]), args.d2 + users.dim)
        return min(h["val_loss"] for h in history)

    space = SearchSpace(k1=(1, max(2, len(train_samples))),
                        k2=(1, max(2, 2 * len(train_samples))))
    best, trials = tune(objective, space, budget=args.budget, seed=args.seed)
    save_trials(trials, out / "trials.csv")
    with open(out / "best.json", "w", encoding="utf-8") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
    _write_provenance(out, args, [args.users])
    print(json.dumps(best))


def cmd_map_cold(args):
    out = _out_dir(args)
    train_corpus, _ = load_corpus(args.train, args.mode)
    test_corpus, _ = load_corpus(args.test, args.mode)
    texts = _text_provider(args)
    users = EmbeddingTable.load(args.users)
    resolver = experiment.variant_resolver("full", users, train_corpus.samples, texts,
                                           train_corpus.common_author, _coldmap(args))
    ids, rows = [], []
    for s in test_corpus.samples:
        author = s.resolved_author(test_corpus.common_author)
        if author not in users:
            ids.append(f"{s.post_id}/post/{author}")
            rows.append(resolver(author, ("post", s)))
        for c in s.comments:
            if c.author not in users:
                ids.append(f"{s.post_id}/{c.id}/{c.author}")
                rows.append(resolver(c.author, ("comment", s, c.id)))
    if rows:
        table = EmbeddingTable.from_rows(ids, np.stack(rows).astype(np.float32))
    else:
        table = EmbeddingTable.from_rows([], np.zeros((0, users.dim), dtype=np.float32))
    table.save(out / "cold.emb")
    _write_provenance(out, args, [args.train, args.test, args.users])
    print(json.dumps({"cold_occurrences": len(table)}))


def cmd_eval(args):
    _check_variant_conflicts(args)
    out = _out_dir(args)
    train_corpus, test_corpus = _load_split_dir(args, "train", "test")
    common = train_corpus.common_author
    texts = _text_provider(args)
    model = load_model(args.model)
    users = None if args.variant == "no-user" else EmbeddingTable.load(args.users)
    if users is None and model.in_dim != args.d2:
        raise FormatError(
            f"model input dim {model.in_dim} incompatible with no-user d2={args.d2}"
        )
    resolver = experiment.variant_resolver(VARIANTS[args.variant], users,
                                           train_corpus.samples, texts, common, _coldmap(args))
    metadata = {
        "arch": model.arch,
        "variant": args.variant,
        "feature_dim": model.in_dim,
        "user_features": users is not None,
        "user_feature_width": 0 if users is None else users.dim,
    }
    report, *_ = experiment.evaluate(model, train_corpus.samples, test_corpus.samples,
                                     texts, resolver, common, metadata)
    report.save_json(out / "report.json")
    report.save_csv(out / "report.csv")
    _write_provenance(out, args, [args.model])
    print(json.dumps({"accuracy": report.overall.accuracy,
                      "macro_f1": report.overall.macro_f1}))


def cmd_report(args):
    rows = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        meta = data.get("metadata", {})
        label = f"{meta.get('variant', '?')}/{meta.get('arch', '?')}"
        rows.append((label, data))
    lines = [
        "| Variant | Bucket | n | Accuracy | Macro-F1 |",
        "|---|---|---|---|---|",
    ]
    for label, data in rows:
        o = data["overall"]
        lines.append(f"| {label} | overall | {o['n']} | {o['accuracy']:.4f} | "
                     f"{o['macro_f1']:.4f} |")
        for bucket in ("high", "low", "zero"):
            b = data["buckets"][bucket]
            if b["n"]:
                lines.append(f"| {label} | {bucket} | {b['n']} | {b['accuracy']:.4f} | "
                             f"{b['macro_f1']:.4f} |")
            else:
                lines.append(f"| {label} | {bucket} | 0 | - | - |")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")


def _check_variant_conflicts(args):
    """Flag checks shared by train and eval: the user table goes with the variant."""
    if args.variant != "no-user":
        if not args.users:
            raise FormatError("--users is required unless --variant no-user")
        return
    if args.users:
        raise FormatError("--variant no-user conflicts with --users")
    for flag in ("k1", "k2"):
        if getattr(args, f"_{flag}_set", False):
            raise FormatError(f"--variant no-user conflicts with --{flag}")


class _TrackK(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"_{self.dest}_set", True)


# ---------------------------------------------------------------------------
# parser


def _add_common_text_flags(p):
    p.add_argument("--d2", type=int, default=256)
    p.add_argument("--hash-seed", type=int, default=0)
    p.add_argument("--texts", default=None, help="precomputed text table (UENEMB2)")


def _add_mode(p):
    p.add_argument("--mode", choices=("reddit-style", "tweet-style"),
                   default="reddit-style")


def _add_cold_flags(p):
    p.add_argument("--k1", type=int, default=19, action=_TrackK)
    p.add_argument("--k2", type=int, default=72, action=_TrackK)
    p.add_argument("--heuristics", default="h1,h2,h3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uen",
                                     description="user-evidence cascade pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-users", type=int, default=300)
    p.add_argument("--n-communities", type=int, default=6)
    p.add_argument("--n-samples", type=int, default=2000)
    p.add_argument("--min-comments", type=int, default=4)
    p.add_argument("--max-comments", type=int, default=10)
    p.add_argument("--max-chain-depth", type=int, default=3)
    p.add_argument("--fake-fraction", type=float, default=0.5)
    p.add_argument("--text-signal", type=float, default=0.3)
    p.add_argument("--user-signal", type=float, default=0.8)
    p.add_argument("--cold-rate", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a JSONL corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_mode(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="temporal 70/10/20 split")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-ratio", type=float, default=0.70)
    p.add_argument("--val-ratio", type=float, default=0.10)
    p.add_argument("--test-ratio", type=float, default=0.20)
    _add_mode(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("graph", help="build the global interaction graph")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unweighted", action="store_true")
    _add_mode(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("embed-users", help="node2vec user embeddings")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d1", type=int, default=128)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--walk-length", type=int, default=40)
    p.add_argument("--walks-per-node", type=int, default=10)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unweighted", action="store_true")
    _add_mode(p)
    p.set_defaults(func=cmd_embed_users)

    p = sub.add_parser("embed-text", help="hash-embed all text keys")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d2", type=int, default=256)
    p.add_argument("--hash-seed", type=int, default=0)
    _add_mode(p)
    p.set_defaults(func=cmd_embed_text)

    p = sub.add_parser("train", help="train a GNN classifier")
    p.add_argument("--splits", required=True)
    p.add_argument("--users", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", choices=("gcn", "sage", "gat"), default="gcn")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=tuple(VARIANTS), default="uen")
    _add_common_text_flags(p)
    _add_cold_flags(p)
    _add_mode(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="random search over lambda/k1/k2")
    p.add_argument("--splits", required=True)
    p.add_argument("--users", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", choices=("gcn", "sage", "gat"), default="gcn")
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_common_text_flags(p)
    _add_mode(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("map-cold", help="resolve cold users to vectors")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--users", required=True)
    p.add_argument("--out", required=True)
    _add_common_text_flags(p)
    _add_cold_flags(p)
    _add_mode(p)
    p.set_defaults(func=cmd_map_cold)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--users", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=tuple(VARIANTS), default="uen")
    _add_common_text_flags(p)
    _add_cold_flags(p)
    _add_mode(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="markdown summary of eval reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CorpusError, FormatError, ValueError, FileNotFoundError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
