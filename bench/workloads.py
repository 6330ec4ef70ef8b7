"""The three benchmark workloads, built only from public uen calls.

train-acceptance  one `run_variant("full")` on the acceptance config: the
                  loop every ablation and tuning run repeats (SGNS and GNN
                  training dominate; retrieval is a minor share).
cold-serve        a model trained in set-up classifies a stream of fresh
                  cascades one at a time (closed loop, one client): the
                  deployed use, almost all cold-user retrieval.
cli-artifacts     `uen.cli.main` in-process for split, embed-users,
                  train --arch gat and eval: artifact codecs, the CLI's own
                  wiring and the GAT path.

Each workload returns a `Result`. Untraced runs fill the end-to-end fields
with marks of `run.speed` (see hostspeed.py), which the runner turns into
seconds once the run ends; traced runs also do the work once under
`tracing.instrument` and fill `per_layer`. The module functions are looked
up on their modules at call time (`gnn.train`, not `train`) so that
instrumentation reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from uen import assembly, cli, coldmap, corpus, evaluation, experiment, gnn, graph, node2vec, text
from uen.coldmap import ColdMapConfig
from uen.embedding import EmbeddingTable, sha256_file
from uen.gnn import GnnConfig
from uen.node2vec import Node2VecConfig
from uen.synth import SynthConfig, generate

from hostspeed import HostSpeed, Mark
from tracing import Tracer, instrument, nearest_rank


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the measured benchmark, SMOKE a toy run of seconds."""

    n_samples: int = 2000
    n_users: int = 300
    stream_samples: int = 5000  # its 20% test region is the served stream
    walk_length: int = 15
    walks_per_node: int = 4
    n2v_epochs: int = 2
    gnn_epochs: int = 20  # the acceptance config; cold-serve trains its model the same way
    cli_gnn_epochs: int = 10
    setup_repeats: int = 7  # the median of 7 shrugs off a 1-2 s burst of host load


FULL = Sizes()
SMOKE = Sizes(n_samples=400, n_users=60, stream_samples=600, walk_length=8,
              walks_per_node=2, n2v_epochs=1, gnn_epochs=2, cli_gnn_epochs=2,
              setup_repeats=2)

LAMBDA, WINDOW, K1, K2 = 0.62, 4, 7, 40
STREAM_SEED_OFFSET = 1000
STREAM_COLD_RATE = 0.5


Pieces = list[tuple[Mark, Mark]]  # the timed stretches of one set-up, pass or request


@dataclass
class Result:
    setup: list[Pieces] = field(default_factory=list)
    work: list[Pieces] = field(default_factory=list)  # one entry per full pass of the work
    latency: list[Pieces] = field(default_factory=list)  # one entry per request
    attempted: int = 0  # operations: variant runs, cascades or subcommands
    failed: int = 0
    accuracy: float = float("nan")
    zero_macro_f1: float = float("nan")
    aliases: dict = field(default_factory=dict)  # workload-specific name -> runner's metric name
    per_layer: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)


@dataclass
class Run:
    seed: int
    seconds: float
    sizes: Sizes
    work_dir: Path
    tracer: Tracer | None
    speed: HostSpeed

    def wall(self, pieces: Pieces) -> float:
        return sum(self.speed.wall(a, b) for a, b in pieces)


def pipeline_config(seed: int, sizes: Sizes) -> experiment.PipelineConfig:
    """The acceptance config of the test suite, at the given sizes."""
    return experiment.PipelineConfig(
        gnn=GnnConfig(arch="gcn", lam=LAMBDA, epochs=sizes.gnn_epochs, seed=seed),
        node2vec=Node2VecConfig(walk_length=sizes.walk_length,
                                walks_per_node=sizes.walks_per_node,
                                epochs=sizes.n2v_epochs, window=WINDOW, seed=seed),
        coldmap=ColdMapConfig(k1=K1, k2=K2),
    )


def _synth(seed: int, sizes: Sizes, **kwargs) -> SynthConfig:
    return SynthConfig(seed=seed, n_samples=sizes.n_samples, n_users=sizes.n_users, **kwargs)


def _timed(run: Run, fn, *args):
    start = run.speed.mark()
    out = fn(*args)
    return out, [(start, run.speed.mark())]


def _buckets_populated(report: dict) -> bool:
    """A report (as `EvalReport.to_dict` or report.json) with all three buckets non-empty."""
    return all(report["buckets"][b]["n"] > 0 for b in ("high", "low", "zero"))


def _stderr_traceback() -> None:
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# train-acceptance


@dataclass
class Fit:
    split: corpus.Split
    texts: object
    side: object
    resolver: object
    users: EmbeddingTable
    model: object


def _stage(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def fit(data, cfg, tracer: Tracer | None = None) -> Fit:
    """The training half of run_variant("full"), one public call at a time."""
    common = data.common_author
    with _stage(tracer, "stage.split"):
        split = corpus.temporal_split(data)
    with _stage(tracer, "stage.embed_users"):
        g = graph.build_interaction_graph(split.train, common)
        users = node2vec.train_skipgram(node2vec.sample_walks(g, cfg.node2vec), cfg.node2vec)
    with _stage(tracer, "stage.train"):
        texts = text.make_hash_provider(cfg.text)
        side = coldmap.build_train_side(list(split.train), texts, common,
                                        use_chains="h3" in cfg.coldmap.heuristics)
        resolver = coldmap.make_resolver("cold-mapper", users, train_side=side,
                                         texts=texts, cfg=cfg.coldmap)
        train_graphs = [assembly.assemble(s, texts, resolver, common) for s in split.train]
        val_graphs = [assembly.assemble(s, texts, resolver, common) for s in split.val]
        model, _ = gnn.train(train_graphs, val_graphs, cfg.gnn, cfg.text.d2 + cfg.node2vec.d1)
    return Fit(split, texts, side, resolver, users, model)


def decomposed_variant(data, cfg, tracer: Tracer) -> tuple[list, Fit]:
    """run_variant("full") rebuilt from the public calls, one stage span each.

    Its predictions must equal run_variant's; the per-layer numbers are only
    trustworthy while they do.
    """
    f = fit(data, cfg, tracer)
    common = data.common_author
    with tracer.span("stage.eval"):
        known = corpus.corpus_users(f.split.train, common)
        preds, labels, ratios = [], [], []
        for s in f.split.test:
            label, _ = gnn.predict(f.model, assembly.assemble(s, f.texts, f.resolver, common))
            preds.append(label)
            labels.append(s.label)
            ratios.append(corpus.overlap_ratio(s, known, common))
        evaluation.bucketed_report(preds, labels, ratios)
    return preds, f


def _artifact_round_trip(data, model, users, out: Path) -> bool:
    """Write the run's corpus, user table and model and read them back."""
    out.mkdir(parents=True)
    corpus.save_corpus(data, out / "corpus.jsonl")
    users.save(out / "users.emb")
    gnn.save_model(model, out / "model.mdl")
    loaded, _ = corpus.load_corpus(out / "corpus.jsonl")
    table = EmbeddingTable.load(out / "users.emb")
    back = gnn.load_model(out / "model.mdl")
    return (loaded.samples == data.samples and table.ids == users.ids
            and (table.matrix == users.matrix).all()
            and all((back.tensors[k] == model.tensors[k].astype("f4")).all()
                    for k in model.tensors))


def train_acceptance(run: Run) -> Result:
    res = Result()
    for _ in range(run.sizes.setup_repeats):
        data, piece = _timed(run, generate, _synth(run.seed, run.sizes))
        res.setup.append(piece)
    cfg = pipeline_config(run.seed, run.sizes)

    start = time.perf_counter()
    while True:
        t0 = run.speed.mark()
        try:
            out = experiment.run_variant(data, cfg)
            ok = _buckets_populated(out.report.to_dict()) and set(out.preds) <= {0, 1}
        except Exception:
            _stderr_traceback()
            out, ok = None, False
        piece = [(t0, run.speed.mark())]
        res.attempted += 1
        res.latency.append(piece)
        if not ok:
            res.fail("run_variant")
            break
        res.work.append(piece)
        res.accuracy = out.report.overall.accuracy
        res.zero_macro_f1 = out.report.buckets["zero"].macro_f1
        if run.tracer is not None or time.perf_counter() - start >= run.seconds:
            break
    res.aliases["pipeline_s"] = "work_s"

    tracer = run.tracer
    if tracer is not None and res.work:
        t0 = run.speed.mark()
        with instrument(tracer):
            try:
                preds, f = decomposed_variant(data, cfg, tracer)
                traced = [(t0, run.speed.mark())]
                if preds != out.preds:
                    res.fail("decomposed pipeline disagrees with run_variant")
                elif not _artifact_round_trip(data, f.model, f.users,
                                              run.work_dir / "artifacts"):
                    res.fail("artifact round trip changed the data")
            except Exception:
                _stderr_traceback()
                res.fail("decomposed pipeline")
                traced = [(t0, run.speed.mark())]
            res.attempted += 1
        res.per_layer = layer_metrics(tracer, run.wall(traced) / run.wall(res.work[0]) - 1,
                                      _dir_bytes(run.work_dir / "artifacts"), run.speed)
    return res


# ---------------------------------------------------------------------------
# cold-serve


@dataclass
class Server:
    """A trained classifier loaded from its artifacts, plus the mapper's index."""

    model: object
    users: EmbeddingTable
    side: object
    cfg: experiment.PipelineConfig
    known: set
    common: str | None

    def classify(self, stream, speed: HostSpeed):
        """Classify each cascade on its own, as it would arrive, with a fresh text cache.

        Yields (cascade, label, probability, (start, end) marks); label and
        probability are None when classifying raised.
        """
        texts = text.make_hash_provider(self.cfg.text)
        resolver = coldmap.make_resolver("cold-mapper", self.users, train_side=self.side,
                                         texts=texts, cfg=self.cfg.coldmap)
        for s in stream:
            t0 = speed.mark()
            try:
                label, prob = gnn.predict(self.model, assembly.assemble(s, texts, resolver,
                                                                        self.common))
            except Exception:
                _stderr_traceback()
                label, prob = None, None
            yield s, label, prob, (t0, speed.mark())

    def report(self, stream, preds):
        ratios = [corpus.overlap_ratio(s, self.known, self.common) for s in stream]
        return evaluation.bucketed_report(preds, [s.label for s in stream], ratios)


def _serve_setup(run: Run) -> tuple[Server, list]:
    sizes = run.sizes
    cfg = pipeline_config(run.seed, sizes)
    data = generate(_synth(run.seed, sizes))
    f = fit(data, cfg, run.tracer)

    # Deploy: the server reads its model, user table and incoming cascades from disk.
    deploy = run.work_dir / "deploy"
    deploy.mkdir(parents=True)
    gnn.save_model(f.model, deploy / "model.mdl")
    f.users.save(deploy / "users.emb")
    stream_data = generate(SynthConfig(
        seed=run.seed + STREAM_SEED_OFFSET, n_samples=sizes.stream_samples,
        n_users=sizes.n_users, cold_user_rate_test=STREAM_COLD_RATE))
    stream_split = corpus.temporal_split(stream_data)
    corpus.save_corpus(corpus.Corpus(samples=stream_split.test), deploy / "stream.jsonl")
    server = Server(model=gnn.load_model(deploy / "model.mdl"),
                    users=EmbeddingTable.load(deploy / "users.emb"), side=f.side, cfg=cfg,
                    known=corpus.corpus_users(f.split.train, data.common_author),
                    common=data.common_author)
    stream, _ = corpus.load_corpus(deploy / "stream.jsonl")
    return server, list(stream.samples)


def cold_serve(run: Run) -> Result:
    res = Result()
    tracer = run.tracer
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        (server, stream), piece = _timed(run, _serve_setup, run)
    res.setup.append(piece)

    passes: list[list] = []

    def serve_pass():
        labels = []
        for s, label, prob, piece in server.classify(stream, run.speed):
            res.attempted += 1
            res.latency.append([piece])
            if label not in (0, 1) or not (math.isfinite(prob) and 0.5 <= prob <= 1.0):
                res.fail(f"cascade {s.post_id}: label={label} prob={prob}")
            labels.append(label)
        passes.append(labels)

    start = time.perf_counter()
    while not passes or (
            tracer is None and time.perf_counter() - start < run.seconds):
        _, piece = _timed(run, serve_pass)
        res.work.append(piece)
    if None not in passes[0]:
        report = server.report(stream, passes[0])
        res.accuracy = report.overall.accuracy
        res.zero_macro_f1 = report.buckets["zero"].macro_f1
    res.aliases.update({
        "serve_cascades": "requests",
        "serve_cascades_per_s": "requests_per_s",
        "serve_p50_ms": "latency_p50_ms",
        "serve_p99_ms": "latency_p99_ms",
    })

    if tracer is not None:
        with instrument(tracer), tracer.span("stage.eval"):
            _, piece = _timed(run, serve_pass)
            if None not in passes[-1]:
                server.report(stream, passes[-1])
        res.per_layer = layer_metrics(tracer, run.wall(piece) / run.wall(res.work[0]) - 1,
                                      _dir_bytes(run.work_dir / "deploy"), run.speed)
    if any(p != passes[0] for p in passes[1:]):
        res.fail("a later pass over the stream gave other labels than the first")
    return res


# ---------------------------------------------------------------------------
# cli-artifacts


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def _sidecar_ok(path: Path) -> bool:
    sidecar = Path(str(path) + ".json")
    return sidecar.exists() and json.loads(sidecar.read_text())["sha256"] == sha256_file(path)


def _cli_chain(run: Run, corpus_path: Path, d: Path, res: Result, tracer: Tracer | None):
    """split -> embed-users -> train (GAT) -> eval; returns (pieces, report or None)."""
    s = run.sizes
    splits, users, model, report = d / "splits", d / "users", d / "model", d / "eval"
    steps = [
        ("split", ["split", "--input", corpus_path, "--out", splits], None),
        ("embed_users", ["embed-users", "--train", splits / "train.jsonl", "--out", users,
                         "--walk-length", s.walk_length, "--walks-per-node", s.walks_per_node,
                         "--window", WINDOW, "--epochs", s.n2v_epochs, "--seed", run.seed],
         lambda: _sidecar_ok(users / "users.emb") and len(EmbeddingTable.load(
             users / "users.emb")) > 0),
        ("train", ["train", "--splits", splits, "--users", users / "users.emb", "--out", model,
                   "--arch", "gat", "--epochs", s.cli_gnn_epochs, "--lam", LAMBDA,
                   "--seed", run.seed],
         lambda: _sidecar_ok(model / "model.mdl")
         and gnn.load_model(model / "model.mdl").arch == "gat"),
        ("eval", ["eval", "--model", model / "model.mdl", "--splits", splits,
                  "--users", users / "users.emb", "--out", report, "--k1", K1, "--k2", K2],
         lambda: _buckets_populated(json.loads((report / "report.json").read_text()))),
    ]
    pieces = []
    for name, argv, check in steps:
        t0 = run.speed.mark()
        with _stage(tracer, f"stage.{name}"):
            rc, _, err = _cli(argv)
        pieces.append((t0, run.speed.mark()))
        res.attempted += 1
        try:
            ok = rc == 0 and err == "" and (check is None or check())
        except Exception:
            _stderr_traceback()
            ok = False
        if not ok:
            res.fail(f"uen {argv[0]}: exit {rc}, stderr {err.strip()[:500]!r}")
    path = report / "report.json"
    return pieces, (json.loads(path.read_text()) if path.exists() else None)


def cli_artifacts(run: Run) -> Result:
    res = Result()
    sizes = run.sizes
    for i in range(sizes.setup_repeats):
        out = run.work_dir / f"synth{i}"
        (rc, _, err), piece = _timed(run, _cli, [
            "synth", "--out", out, "--seed", run.seed,
            "--n-samples", sizes.n_samples, "--n-users", sizes.n_users])
        res.setup.append(piece)
        if rc != 0 or err:
            raise RuntimeError(f"uen synth failed in set-up: {err.strip()}")
    corpus_path = out / "corpus.jsonl"

    start, chain = time.perf_counter(), 0
    while True:
        d = run.work_dir / f"chain{chain}"
        chain += 1
        pieces, report = _cli_chain(run, corpus_path, d, res, None)
        res.work.append(pieces)
        res.latency.append(pieces)
        if report is not None:
            res.accuracy = report["overall"]["accuracy"]
            res.zero_macro_f1 = report["buckets"]["zero"]["macro_f1"]
        if run.tracer is not None or time.perf_counter() - start >= run.seconds:
            break
        shutil.rmtree(d)
    res.aliases["cli_s"] = "work_s"

    if run.tracer is not None:
        d = run.work_dir / "traced"
        with instrument(run.tracer):
            pieces, _ = _cli_chain(run, corpus_path, d, res, run.tracer)
        res.per_layer = layer_metrics(run.tracer, run.wall(pieces) / run.wall(res.work[0]) - 1,
                                      _dir_bytes(d), run.speed)
    return res


WORKLOADS = {
    "train-acceptance": train_acceptance,
    "cold-serve": cold_serve,
    "cli-artifacts": cli_artifacts,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(t: Tracer, overhead_ratio: float, artifact_bytes: int,
                  speed: HostSpeed) -> dict:
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    c, smp = t.counts, t.samples
    walks_s, sgns_s, train_s = (t.total(n) for n in
                                ("node2vec.walks", "node2vec.sgns", "gnn.train"))
    cold = smp["coldmap.cold_self"]
    cold_s = sum(cold)
    return {
        "node2vec.walks_s": (walks_s, "s"),
        "node2vec.walk_steps": (c["node2vec.walk_steps"], "count"),
        "node2vec.walk_steps_per_s": (_rate(c["node2vec.walk_steps"], walks_s), "1/s"),
        "node2vec.walk_truncated_ratio": (
            c["node2vec.walks_truncated"] / max(1, c["node2vec.walks"]), "ratio"),
        "node2vec.sgns_s": (sgns_s, "s"),
        "node2vec.sgns_pairs": (c["node2vec.sgns_pairs"], "count"),
        "node2vec.sgns_pairs_per_s": (_rate(c["node2vec.sgns_pairs"], sgns_s), "1/s"),
        "gnn.train_s": (train_s, "s"),
        "gnn.sample_epochs": (c["gnn.sample_epochs"], "count"),
        "gnn.sample_epochs_per_s": (_rate(c["gnn.sample_epochs"], train_s), "1/s"),
        "gnn.predict_ms_p50": (nearest_rank(smp["gnn.predict"], 0.5) * 1e3, "ms"),
        "gnn.load_model_ms": (t.mean("gnn.load_model") * 1e3, "ms"),
        "coldmap.build_train_side_s": (t.total("coldmap.build_train_side"), "s"),
        "coldmap.cold_post": (c["coldmap.cold_post"], "count"),
        "coldmap.cold_comment": (c["coldmap.cold_comment"], "count"),
        "coldmap.known_lookups": (c["coldmap.known_lookups"], "count"),
        "coldmap.cold_resolve_s": (cold_s, "s"),
        "coldmap.ms_per_1k_cold": (_rate(cold_s, len(cold)) * 1e6, "ms"),
        "coldmap.cold_resolve_p99_ms": (
            nearest_rank(cold, 0.99) * 1e3 if cold else 0.0, "ms"),
        "assembly.self_s": (t.self_time("assembly.assemble"), "s"),
        "assembly.graphs": (c["assembly.graphs"], "count"),
        "assembly.nodes": (c["assembly.nodes"], "count"),
        "text.calls": (c["text.calls"], "count"),
        "text.miss_ratio": (c["text.misses"] / max(1, c["text.calls"]), "ratio"),
        "text.miss_s": (sum(smp["text.miss"]), "s"),
        "graph.build_s": (t.total("graph.build"), "s"),
        "graph.nodes": (c["graph.nodes"], "count"),
        "graph.edges": (c["graph.edges"], "count"),
        "corpus.split_s": (t.total("corpus.split"), "s"),
        "corpus.load_s": (t.total("corpus.load"), "s"),
        "embedding.load_ms": (t.mean("embedding.load") * 1e3, "ms"),
        "artifact_bytes": (artifact_bytes, "bytes"),
        "stage.split_s": (t.total("stage.split"), "s"),
        "stage.embed_users_s": (t.total("stage.embed_users"), "s"),
        "stage.train_s": (t.total("stage.train"), "s"),
        "stage.eval_s": (t.total("stage.eval"), "s"),
        "evaluation.report_ms": (t.total("evaluation.report") * 1e3, "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "host.slowdown": (speed.mean_slowdown(), "ratio"),
    }
