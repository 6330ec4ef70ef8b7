"""Spans and counts recorded from outside the program, around calls into uen.

`instrument(tracer)` swaps each traced public function of the uen modules
for a wrapper that opens a span and records counts, in every uen module
namespace that binds it, and restores the originals on exit. So the CLI,
the decomposed pipeline and the serving loop are all measured at the same
module boundaries without a line of tracing inside `src/`.

A span is [name, parent index, start, end, child seconds]; a span's self
time is its duration minus the time its child spans cover. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, PARENT, START, END, CHILD = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self) -> list:
        rec = self.spans[self._stack.pop()]
        rec[END] = time.perf_counter()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]
        return rec

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def durations(self, name: str) -> list[float]:
        return [r[END] - r[START] for r in self.spans if r[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def mean(self, name: str) -> float:
        d = self.durations(name)
        return sum(d) / len(d) if d else 0.0

    def self_time(self, name: str) -> float:
        return sum(r[END] - r[START] - r[CHILD] for r in self.spans if r[NAME] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "self": end - start - child}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _duration(rec) -> float:
    return rec[END] - rec[START]


def nearest_rank(values, q: float) -> float:
    """The q-quantile as the smallest sample with at least q of the data at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sgns_pairs(walks, window: int) -> int:
    """(center, context) pairs train_skipgram builds from these walks per epoch."""
    total = 0
    for w in walks:
        n = len(w)
        for i in range(n):
            total += min(n, i + window + 1) - max(0, i - window) - 1
    return total


def _wrappers(tracer: Tracer) -> dict:
    from uen import assembly, coldmap, corpus, evaluation, gnn, graph, node2vec, text

    def spanned(name, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(out, rec, *args, **kwargs)
            return out

        return wrapper

    counts, samples = tracer.counts, tracer.samples
    hash_provider, resolver_factory = text.make_hash_provider, coldmap.make_resolver

    def after_graph(g, rec, *args, **kwargs):
        counts["graph.nodes"] += len(g.nodes)
        counts["graph.edges"] += len(g.edges)

    def after_walks(walks, rec, g, cfg):
        counts["node2vec.walks"] += len(walks)
        counts["node2vec.walk_steps"] += sum(len(w) - 1 for w in walks)
        counts["node2vec.walks_truncated"] += sum(len(w) < cfg.walk_length for w in walks)

    def skipgram(walks, cfg):
        counts["node2vec.sgns_pairs"] += sgns_pairs(walks, cfg.window) * cfg.epochs
        return sgns(walks, cfg)

    sgns = spanned("node2vec.sgns", node2vec.train_skipgram)

    def after_assemble(g, rec, *args, **kwargs):
        counts["assembly.graphs"] += 1
        counts["assembly.nodes"] += len(g.node_order)

    def after_train(out, rec, train_graphs, *args, **kwargs):
        counts["gnn.sample_epochs"] += len(train_graphs) * len(out[1])

    def after_predict(out, rec, *args, **kwargs):
        samples["gnn.predict"].append(_duration(rec))

    def make_hash_provider(*args, **kwargs):
        inner = hash_provider(*args, **kwargs)
        seen = set()

        def provider(key):
            miss = key not in seen
            rec = tracer.begin("text.embed")
            try:
                return inner(key)
            finally:
                tracer.end()
                counts["text.calls"] += 1
                if miss:
                    seen.add(key)
                    counts["text.misses"] += 1
                    samples["text.miss"].append(_duration(rec))

        return provider

    def make_resolver(mode, users, *args, **kwargs):
        inner = resolver_factory(mode, users, *args, **kwargs)

        def resolver(user_id, context):
            known = user_id in users
            rec = tracer.begin("coldmap.resolve")
            try:
                return inner(user_id, context)
            finally:
                tracer.end()
                if known:
                    counts["coldmap.known_lookups"] += 1
                else:
                    counts[f"coldmap.cold_{context[0]}"] += 1
                    samples["coldmap.cold_self"].append(_duration(rec) - rec[CHILD])

        return resolver

    return {
        corpus.temporal_split: spanned("corpus.split", corpus.temporal_split),
        corpus.load_corpus: spanned("corpus.load", corpus.load_corpus),
        graph.build_interaction_graph: spanned(
            "graph.build", graph.build_interaction_graph, after_graph),
        node2vec.sample_walks: spanned("node2vec.walks", node2vec.sample_walks, after_walks),
        node2vec.train_skipgram: skipgram,
        hash_provider: make_hash_provider,
        coldmap.build_train_side: spanned(
            "coldmap.build_train_side", coldmap.build_train_side),
        resolver_factory: make_resolver,
        assembly.assemble: spanned("assembly.assemble", assembly.assemble, after_assemble),
        gnn.train: spanned("gnn.train", gnn.train, after_train),
        gnn.predict: spanned("gnn.predict", gnn.predict, after_predict),
        gnn.load_model: spanned("gnn.load_model", gnn.load_model),
        evaluation.bucketed_report: spanned("evaluation.report", evaluation.bucketed_report),
    }


@contextmanager
def instrument(tracer: Tracer):
    """Route the traced uen functions through `tracer` until the block exits."""
    from uen.embedding import EmbeddingTable

    wrappers = _wrappers(tracer)
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "uen" or name.startswith("uen.")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    load = EmbeddingTable.__dict__["load"]

    def traced_load(cls, *args, **kwargs):
        with tracer.span("embedding.load"):
            return load.__func__(cls, *args, **kwargs)

    EmbeddingTable.load = classmethod(traced_load)
    try:
        yield tracer
    finally:
        EmbeddingTable.load = load
        for module, attr, value in patched:
            setattr(module, attr, value)
