"""Pipeline command line: one subcommand per stage, explicit seeds, provenance.

Every stage validates its input artifacts (magic + checksum), writes its
outputs plus a resolved run_config.json with input checksums, and exits
nonzero with a structured error line on failure. The flags that set a
config dataclass are made from its fields, so each default is written once,
in the dataclass.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, experiment
from .assembly import assemble, occurrences, text_keys
from .coldmap import ColdMapConfig
from .corpus import SPLIT_RATIOS, Corpus, CorpusError, load_corpus, save_corpus, temporal_split
from .embedding import EmbeddingTable, FormatError, sha256_file
from .evaluation import SearchSpace, TuneError, save_trials, tune
from .gnn import (ARCHS, DivergenceError, GnnConfig, kept_epoch, load_model, save_history,
                  save_model)
from .node2vec import Node2VecConfig
from .synth import SynthConfig, describe, generate
from .text import TextEmbedConfig, build_text_table, make_hash_provider, table_provider

# CLI variant name -> experiment.VARIANTS; reports keep the CLI name.
VARIANTS = {"uen": "full", "no-mapper": "no-mapper", "no-user": "no-user"}


def _write_provenance(out_dir: Path, args: argparse.Namespace, inputs: list, *configs) -> None:
    """The parsed flags, the resolved `configs` and the checksum of every input
    read, `--users` and `--texts` included."""
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    config["configs"] = {type(c).__name__: asdict(c) for c in configs}
    inputs = [*inputs, getattr(args, "users", None), getattr(args, "texts", None)]
    config["inputs"] = {str(p): sha256_file(p) for p in inputs if p and Path(p).exists()}
    config["version"] = __version__
    with open(out_dir / "run_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True,
                  default=lambda v: sorted(v) if isinstance(v, frozenset) else str(v))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_paths(args, *names) -> list[Path]:
    return [Path(args.splits) / f"{name}.jsonl" for name in names]


def _load_split_dir(args, *names) -> list[Corpus]:
    """The named parts of `--splits`, each refused when it holds no samples."""
    parts = []
    for path in _split_paths(args, *names):
        parts.append(load_corpus(path, args.mode)[0])
        if not parts[-1].samples:
            raise CorpusError(f"{path}: no samples")
    return parts


def _config(args, cls, **override):
    """A `cls` from the parsed flags named after its fields; `override` wins."""
    values = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**values, **override})


def _text_provider(args):
    if getattr(args, "texts", None):
        table = EmbeddingTable.load(args.texts, expect_dim=args.d2)
        return table_provider(table)
    return make_hash_provider(_config(args, TextEmbedConfig))


def _users(args) -> EmbeddingTable | None:
    """The `--users` table, None when it is not given (the no-user variant)."""
    return EmbeddingTable.load(args.users) if args.users else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    cfg = _config(args, SynthConfig)
    corpus = generate(cfg)
    stats = describe(corpus)  # refuses a corpus too small to split before --out is made
    out = _out_dir(args)
    save_corpus(corpus, out / "corpus.jsonl")
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    _write_provenance(out, args, [], cfg)
    print(json.dumps({"samples": len(corpus), "out": str(out / "corpus.jsonl")}))


def cmd_ingest(args):
    corpus, report = load_corpus(args.input, args.mode)
    out = _out_dir(args)
    save_corpus(corpus, out / "corpus.jsonl")
    _write_provenance(out, args, [args.input])
    print(report.to_json())


def cmd_split(args):
    corpus, _ = load_corpus(args.input, args.mode)
    split = temporal_split(corpus, (args.train_ratio, args.val_ratio, args.test_ratio))
    out = _out_dir(args)
    for name, samples in (("train", split.train), ("val", split.val), ("test", split.test)):
        save_corpus(Corpus(samples=samples, common_author=corpus.common_author),
                    out / f"{name}.jsonl")
    _write_provenance(out, args, [args.input])
    print(json.dumps({"train": len(split.train), "val": len(split.val),
                      "test": len(split.test)}))


def cmd_embed_users(args):
    corpus, _ = load_corpus(args.train, args.mode)
    cfg = _config(args, Node2VecConfig)
    table = experiment.prepare_user_embeddings(corpus.samples, cfg, corpus.common_author,
                                               weighted=not args.unweighted)
    out = _out_dir(args)
    table.save(out / "users.emb")
    _write_provenance(out, args, [args.train], cfg)
    print(json.dumps({"rows": len(table), "dim": table.dim}))


def cmd_embed_text(args):
    cfg = _config(args, TextEmbedConfig)
    corpus, _ = load_corpus(args.corpus, args.mode)
    out = _out_dir(args)
    table = build_text_table({k: k for s in corpus.samples for k in text_keys(s)}, cfg)
    table.save(out / "texts.emb")
    _write_provenance(out, args, [args.corpus], cfg)
    print(json.dumps({"rows": len(table), "dim": table.dim}))


def _train_val_graphs(args, coldmap: ColdMapConfig) -> tuple[list, list]:
    """The graphs of the train and val parts of `--splits`, whose users
    `--variant`'s resolver maps. The resolver, its train side and the text
    provider's cache die with this call, so training holds none of them."""
    train_corpus, val_corpus = _load_split_dir(args, "train", "val")
    texts, common = _text_provider(args), train_corpus.common_author
    resolver = experiment.variant_resolver(VARIANTS[args.variant], _users(args),
                                           train_corpus.samples, texts, common, coldmap)
    return (experiment.assemble_graphs(train_corpus.samples, texts, resolver, common),
            experiment.assemble_graphs(val_corpus.samples, texts, resolver, common))


def cmd_train(args):
    _check_variant_conflicts(args)
    cfg, coldmap = _config(args, GnnConfig), _config(args, ColdMapConfig)
    graphs = _train_val_graphs(args, coldmap)
    model, history = experiment.fit(*graphs, cfg)
    out = _out_dir(args)
    save_model(model, out / "model.mdl")
    save_history(history, out / "history.csv")
    _write_provenance(out, args, _split_paths(args, "train", "val"), cfg, coldmap,
                      _config(args, TextEmbedConfig))
    best = kept_epoch(history)
    print(json.dumps({"best_val_loss": history[best]["val_loss"], "best_epoch": best,
                      "epochs": len(history)}))


def cmd_tune(args):
    cfg = _config(args, GnnConfig)  # validated here; each trial sets its own lambda
    train_corpus, val_corpus = _load_split_dir(args, "train", "val")
    train_samples, val_samples = train_corpus.samples, val_corpus.samples
    common = train_corpus.common_author
    texts, users = _text_provider(args), EmbeddingTable.load(args.users)
    side = experiment.cold_train_side(train_samples, texts, common, ColdMapConfig())

    def objective(params):
        resolver = experiment.variant_resolver(
            "full", users, train_samples, texts, common,
            ColdMapConfig(k1=params["k1"], k2=params["k2"]), side)
        _, history = experiment.fit(
            experiment.assemble_graphs(train_samples, texts, resolver, common),
            experiment.assemble_graphs(val_samples, texts, resolver, common),
            replace(cfg, lam=params["lam"]))
        return min(h["val_loss"] for h in history)

    space = SearchSpace(k1=(1, max(2, len(train_samples))),
                        k2=(1, max(2, 2 * len(train_samples))))
    best, trials = tune(objective, space, budget=args.budget, seed=args.seed)
    out = _out_dir(args)
    save_trials(trials, out / "trials.csv")
    with open(out / "best.json", "w", encoding="utf-8") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
    _write_provenance(out, args, _split_paths(args, "train", "val"),
                      replace(cfg, lam=best["lam"]), ColdMapConfig(k1=best["k1"], k2=best["k2"]),
                      _config(args, TextEmbedConfig))
    print(json.dumps(best))


def cmd_map_cold(args):
    train_corpus, _ = load_corpus(args.train, args.mode)
    test_corpus, _ = load_corpus(args.test, args.mode)
    coldmap = _config(args, ColdMapConfig)
    texts, users = _text_provider(args), EmbeddingTable.load(args.users)
    resolver = experiment.variant_resolver("full", users, train_corpus.samples, texts,
                                           train_corpus.common_author, coldmap)
    ids, rows = [], []
    for s in test_corpus.samples:
        for user, context in occurrences(s, test_corpus.common_author):
            if user in users:
                continue
            node = context[2] if context[0] == "comment" else "post"
            ids.append(f"{s.post_id}/{node}/{user}")
            rows.append(resolver(user, context))
    table = EmbeddingTable.from_rows(ids, np.reshape(rows, (len(rows), users.dim)))
    out = _out_dir(args)
    table.save(out / "cold.emb")
    _write_provenance(out, args, [args.train, args.test], coldmap, _config(args, TextEmbedConfig))
    print(json.dumps({"cold_occurrences": len(table)}))


def cmd_eval(args):
    _check_variant_conflicts(args)
    coldmap = _config(args, ColdMapConfig)
    train_corpus, test_corpus = _load_split_dir(args, "train", "test")
    common = train_corpus.common_author
    texts, users, model = _text_provider(args), _users(args), load_model(args.model)
    resolver = experiment.variant_resolver(VARIANTS[args.variant], users, train_corpus.samples,
                                           texts, common, coldmap)
    metadata = {"variant": args.variant,
                "user_feature_width": 0 if users is None else users.dim}
    graphs = (assemble(s, texts, resolver, common) for s in test_corpus.samples)
    report, *_ = experiment.evaluate(model, train_corpus.samples, test_corpus.samples, graphs,
                                     common, resolver is not None, metadata)
    out = _out_dir(args)
    report.save_json(out / "report.json")
    report.save_csv(out / "report.csv")
    _write_provenance(out, args, [args.model, *_split_paths(args, "train", "test")], coldmap,
                      _config(args, TextEmbedConfig))
    print(json.dumps({"accuracy": report.overall.accuracy,
                      "macro_f1": report.overall.macro_f1}))


def cmd_report(args):
    lines = ["| Variant | Bucket | n | Accuracy | Macro-F1 |", "|---|---|---|---|---|"]
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            meta = data.get("metadata", {})
            label = f"{meta.get('variant', '?')}/{meta.get('arch', '?')}"
            for bucket in ("overall", "high", "low", "zero"):
                b = data["overall"] if bucket == "overall" else data["buckets"][bucket]
                if b["n"] or bucket == "overall":
                    lines.append(f"| {label} | {bucket} | {b['n']} | {b['accuracy']:.4f} | "
                                 f"{b['macro_f1']:.4f} |")
                else:
                    lines.append(f"| {label} | {bucket} | 0 | - | - |")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: not an eval report "
                              f"({type(exc).__name__}: {exc})") from None
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")


def _check_variant_conflicts(args):
    """Flag checks shared by train and eval: the user table goes with the
    variant, and the cold-mapper flags with the one variant that maps."""
    if args.variant == "no-user":
        if args.users:
            raise FormatError("--variant no-user conflicts with --users")
    elif not args.users:
        raise FormatError("--users is required unless --variant no-user")
    if args.variant != "uen":
        for flag in ("k1", "k2", "heuristics"):
            if getattr(args, f"_{flag}_set", False):
                raise FormatError(f"--variant {args.variant} conflicts with --{flag}")
    elif not args.heuristics:
        raise FormatError('--variant uen conflicts with --heuristics "" (use --variant no-mapper)')


class _TrackK(argparse.Action):
    """Stores the value and marks the flag as given, as `_<dest>_set`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"_{self.dest}_set", True)


# ---------------------------------------------------------------------------
# parser

_TEXTS_HELP = "precomputed text table (UENEMB2)"
# Flag names of the config fields whose flag is not --field-name.
_FLAG_NAMES = {
    "text_signal_strength": ("--text-signal",),
    "user_signal_strength": ("--user-signal",),
    "cold_user_rate_test": ("--cold-rate",),
    "negatives_per_positive": ("--negatives",),
    "learning_rate": ("--lr",),
    "lam": ("--lam", "--lambda"),
}
# Extra add_argument keywords per config field; None keeps a field off the command line.
_FLAG_EXTRAS = {
    "arch": {"choices": ARCHS},
    "heuristics": {"type": lambda v: frozenset(h.strip().lower() for h in v.split(",")
                                               if h.strip()),
                   "action": _TrackK},
    "k1": {"action": _TrackK},
    "k2": {"action": _TrackK},
    "layers": None,
}


def _add_config_flags(p, cls, skip=()):
    """One flag per field of `cls`, with the field's default and that default's type."""
    for f in fields(cls):
        extras = _FLAG_EXTRAS.get(f.name, {})
        if extras is None or f.name in skip:
            continue
        names = _FLAG_NAMES.get(f.name, ("--" + f.name.replace("_", "-"),))
        p.add_argument(*names, dest=f.name, default=f.default,
                       **{"type": type(f.default), **extras})


def _subcommand(sub, name, func, help, *required, configs=(), mode=True):
    """A subparser with its required path flags, --out, the flags of each
    class in `configs` and (if `mode`) --mode."""
    p = sub.add_parser(name, help=help)
    for flag in (*required, "--out"):
        p.add_argument(flag, required=True)
    for cls in configs:
        _add_config_flags(p, cls)
    if mode:
        p.add_argument("--mode", choices=("reddit-style", "tweet-style"), default="reddit-style")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uen",
                                     description="user-evidence cascade pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "synth", cmd_synth, "generate a synthetic corpus", configs=[SynthConfig],
                mode=False)

    _subcommand(sub, "ingest", cmd_ingest, "validate a JSONL corpus", "--input")

    p = _subcommand(sub, "split", cmd_split, "temporal train/val/test split", "--input")
    for part, ratio in zip(("train", "val", "test"), SPLIT_RATIOS):
        p.add_argument(f"--{part}-ratio", type=float, default=ratio)

    p = _subcommand(sub, "embed-users", cmd_embed_users, "node2vec user embeddings", "--train",
                    configs=[Node2VecConfig])
    p.add_argument("--unweighted", action="store_true")

    _subcommand(sub, "embed-text", cmd_embed_text, "hash-embed all text keys", "--corpus",
                configs=[TextEmbedConfig])

    p = _subcommand(sub, "train", cmd_train, "train a GNN classifier", "--splits",
                    configs=[GnnConfig, TextEmbedConfig, ColdMapConfig])
    p.add_argument("--users", default=None)
    p.add_argument("--variant", choices=tuple(VARIANTS), default="uen")
    p.add_argument("--texts", default=None, help=_TEXTS_HELP)

    p = _subcommand(sub, "tune", cmd_tune, "random search over lambda/k1/k2",
                    "--splits", "--users", configs=[TextEmbedConfig])
    p.add_argument("--budget", type=int, default=20)
    _add_config_flags(p, GnnConfig, skip=("lam",))  # tune searches lambda
    p.add_argument("--texts", default=None, help=_TEXTS_HELP)
    p.set_defaults(epochs=5)

    p = _subcommand(sub, "map-cold", cmd_map_cold, "resolve cold users to vectors",
                    "--train", "--test", "--users", configs=[TextEmbedConfig, ColdMapConfig])
    p.add_argument("--texts", default=None, help=_TEXTS_HELP)

    p = _subcommand(sub, "eval", cmd_eval, "evaluate a trained model", "--model", "--splits",
                    configs=[TextEmbedConfig, ColdMapConfig])
    p.add_argument("--users", default=None)
    p.add_argument("--variant", choices=tuple(VARIANTS), default="uen")
    p.add_argument("--texts", default=None, help=_TEXTS_HELP)

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
    except (CorpusError, DivergenceError, FormatError, TuneError, ValueError,
            OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
