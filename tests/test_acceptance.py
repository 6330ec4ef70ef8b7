"""Acceptance gate: ten end-to-end criteria with explicit tolerances.

Each test prints a single PASS/FAIL line so the gate can be read off the
pytest -s output directly. The heavy ablation runs are shared via
module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from uen.cli import main as cli_main
from uen.coldmap import ColdMapConfig, build_index, build_train_side, make_resolver, topk_rows
from uen.corpus import temporal_split
from uen.embedding import EmbeddingTable
from uen.evaluation import bucketed_report, mann_whitney_u
from uen.experiment import PipelineConfig, prepare_user_embeddings, run_ablation, run_variant
from uen.gnn import GnnConfig, SampleGraph, forward, init_params, load_model, loss_and_grads, save_model
from uen.graph import build_interaction_graph
from uen.node2vec import Node2VecConfig, sample_walks
from uen.synth import SynthConfig, generate
from uen.text import make_hash_provider

from conftest import (
    chain_prefix_representation,
    next_step_distribution,
    random_user_table,
    star_sample,
)


def _verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _experiment_cfg(seed):
    """Frozen experiment configuration used by the ablation criteria."""
    return PipelineConfig(
        gnn=GnnConfig(arch="gcn", lam=0.62, epochs=20, seed=seed),
        node2vec=Node2VecConfig(walk_length=15, walks_per_node=4, epochs=2,
                                window=4, seed=seed),
        coldmap=ColdMapConfig(k1=7, k2=40),
    )


@pytest.fixture(scope="module")
def ablation():
    t0 = time.perf_counter()
    runs = {}
    for seed in (0, 1, 2):
        corpus = generate(SynthConfig(seed=seed))
        runs[seed] = run_ablation(corpus, _experiment_cfg(seed))
    return runs, time.perf_counter() - t0


# criterion 1 -- exact retrieval equals an exhaustive scan


def test_criterion_01_topk_matches_exhaustive_scan():
    rng = np.random.Generator(np.random.PCG64(0))
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(50):
        n = int(rng.integers(100, 2001))
        d = 256
        k = int(rng.integers(1, 51))
        matrix = rng.normal(size=(n, d))
        idx = build_index((f"k{i:05d}", matrix[i], f"u{i % 97}") for i in range(n))
        query = rng.normal(size=d)
        rows, scores = topk_rows(idx, query, k)
        # exhaustive scan computed row by row, fully independently
        qn = query / np.linalg.norm(query)
        scored = []
        for i in range(n):
            scored.append((float(np.dot(idx.vectors[i].astype(np.float64), qn)),
                           idx.keys[i], idx.owners[i]))
        scored.sort(key=lambda t: (-t[0], t[1]))
        want = scored[:k]
        if [(idx.keys[r], idx.owners[r]) for r in rows] != [(a, b) for _, a, b in want]:
            mismatches += 1
        elif not np.allclose(scores, [s for s, _, _ in want], atol=1e-9):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict("criterion-01 exact-topk", ok,
             f"mismatches={mismatches}/50, elapsed={elapsed:.2f}s (limit 10s)")


# criterion 2 -- cold-commenter mapping equals a monolithic oracle


def test_criterion_02_cold_mapper_matches_oracle():
    t0 = time.perf_counter()
    corpus = generate(SynthConfig(n_samples=80, n_users=40, seed=1))
    split = temporal_split(corpus)
    train = list(split.train)
    texts = make_hash_provider()
    users = random_user_table(
        sorted({u for s in train for u in s.users()}), d1=16, seed=2)
    side = build_train_side(train, texts)
    cfg = ColdMapConfig(k1=3, k2=4)
    resolver = make_resolver("cold-mapper", users, side, texts, cfg)

    def norm(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    def oracle(sample, comment_id):
        # steps 1-5 re-derived in one pass: score posts, gather comments,
        # chain-sum them, rank, average the authors
        q = norm(np.asarray(texts(sample.text_key), dtype=np.float64))
        posts = sorted(
            ((float(norm(np.asarray(texts(s.text_key), dtype=np.float64))
                    .astype(np.float32).astype(np.float64) @ q), s.post_id, s)
             for s in train),
            key=lambda t: (-t[0], t[1]),
        )[: cfg.k1]
        pool = []
        for _, _, s in posts:
            for c in s.comments:
                pool.append((c.id, chain_prefix_representation(s, c.id, texts),
                             c.author))
        qc = norm(chain_prefix_representation(sample, comment_id, texts))
        ranked = sorted(
            ((float(norm(vec).astype(np.float32).astype(np.float64) @ qc), key,
              owner) for key, vec, owner in pool),
            key=lambda t: (-t[0], t[1]),
        )[: min(cfg.k2, len(pool))]
        return np.mean([users.vector(owner) for _, _, owner in ranked], axis=0)

    worst = 0.0
    checked = 0
    for s in split.test:
        for c in s.comments:
            if checked == 20:
                break
            got = resolver("<cold>", ("comment", s, c.id))
            worst = max(worst, float(np.max(np.abs(got - oracle(s, c.id)))))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 20 and worst <= 1e-5 and elapsed < 30.0
    _verdict("criterion-02 cold-mapper-oracle", ok,
             f"samples={checked}, max-abs-diff={worst:.2e} (tol 1e-5), "
             f"elapsed={elapsed:.2f}s (limit 30s)")


# criterion 3 -- analytic gradients match finite differences


def _random_graph(rng, n_nodes, in_dim):
    edges = tuple((int(rng.integers(0, i)), i) for i in range(1, n_nodes))
    return SampleGraph(
        node_order=tuple(f"n{i}" for i in range(n_nodes)),
        features=rng.normal(size=(n_nodes, in_dim)).astype(np.float32),
        edges=edges,
        label=int(rng.integers(0, 2)),
        sample_id="g",
    )


def test_criterion_03_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(3))
    in_dim, step = 6, 1e-5
    total = passed = 0
    for arch in ("gcn", "sage", "gat"):
        for trial in range(10):
            n = int(rng.integers(5, 11))
            g = _random_graph(rng, n, in_dim)
            cfg = GnnConfig(arch=arch, hidden=5, layers=3, seed=trial)
            params = init_params(cfg, in_dim, rng)
            _, grads = loss_and_grads(params, [g])
            for name in sorted(params.tensors):
                tensor = params.tensors[name]
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    orig = tensor[i]
                    tensor[i] = orig + step
                    lp, _ = loss_and_grads(params, [g])
                    tensor[i] = orig - step
                    lm, _ = loss_and_grads(params, [g])
                    tensor[i] = orig
                    numeric = (lp - lm) / (2 * step)
                    analytic = grads.tensors[name][i]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    total += 1
                    if abs(numeric - analytic) / denom <= 1e-3:
                        passed += 1
    elapsed = time.perf_counter() - t0
    ok = passed / total >= 0.99 and elapsed < 120.0
    _verdict("criterion-03 gradient-check", ok,
             f"{passed}/{total} params within rel 1e-3 "
             f"({passed / total:.4%}, need >=99%), elapsed={elapsed:.1f}s "
             f"(limit 120s)")


# criterion 4 -- readout boundary behavior at lambda 1 and 0


def test_criterion_04_readout_boundaries():
    rng = np.random.Generator(np.random.PCG64(4))
    in_dim = 6

    # lambda = 1: the readout ignores comment embeddings entirely
    g = _random_graph(rng, 7, in_dim)
    cfg = GnnConfig(arch="gcn", hidden=5, layers=2, lam=1.0, seed=0)
    params = init_params(cfg, in_dim, rng)
    h, logits = forward(params, g)
    h_pert = h.copy()
    h_pert[1:] += rng.normal(size=h_pert[1:].shape)
    pooled = params.lam * h_pert[0] + (1.0 - params.lam) * h_pert[1:].mean(axis=0)
    logits_pert = params.tensors["cls.W"] @ pooled + params.tensors["cls.b"]
    lam1_dev = float(np.max(np.abs(logits_pert - logits)))

    # lambda = 0 with identical comment embeddings e: pooled equals e exactly
    s = star_sample("p1", author="a", commenters=("b", "c"))
    feats = rng.normal(size=(3, in_dim)).astype(np.float32)
    feats[2] = feats[1]  # both comments share one embedding
    g0 = SampleGraph(node_order=("p1", "p1c0", "p1c1"),
                     features=feats, edges=((0, 1), (0, 2)),
                     label=s.label, sample_id="p1")
    cfg0 = GnnConfig(arch="gcn", hidden=5, layers=2, lam=0.0, seed=1)
    params0 = init_params(cfg0, in_dim, rng)
    cache: dict = {}
    h0, _ = forward(params0, g0, cache)
    symmetric = np.array_equal(h0[1], h0[2])
    pooled_exact = np.array_equal(cache["pooled"], h0[1])

    ok = lam1_dev <= 1e-6 and symmetric and pooled_exact
    _verdict("criterion-04 readout-boundaries", ok,
             f"lam=1 logit deviation={lam1_dev:.2e} (tol 1e-6), "
             f"lam=0 pooled==comment exactly: {pooled_exact}")


# criterion 5 -- walk transitions obey the biased law; cliques separate


def test_criterion_05_walk_law_and_clique_separation():
    t0 = time.perf_counter()
    samples = []
    for i, (u, v, w) in enumerate([("a", "b", 3), ("a", "c", 1),
                                   ("b", "c", 2), ("c", "d", 1)]):
        for j in range(w):
            samples.append(star_sample(f"p{i}_{j}", author=u, commenters=(v,)))
    g = build_interaction_graph(samples)
    p_param, q_param = 2.0, 0.5
    cfg = Node2VecConfig(d1=4, p=p_param, q=q_param, walk_length=26,
                         walks_per_node=4000, seed=0)
    walks = sample_walks(g, cfg)
    # first-step law gets its own dense sample of length-2 walks
    short_cfg = Node2VecConfig(d1=4, p=p_param, q=q_param, walk_length=2,
                               walks_per_node=30_000, seed=1)
    short_walks = sample_walks(g, short_cfg)
    n_steps = sum(len(w) - 1 for w in walks + short_walks)
    first: dict = {}
    biased: dict = {}
    for walk in short_walks:
        first.setdefault(walk[0], []).append(walk[1])
    for walk in walks:
        for t in range(1, len(walk) - 1):
            biased.setdefault((walk[t - 1], walk[t]), []).append(walk[t + 1])
    worst = 0.0
    for start, nexts in first.items():
        dist = next_step_distribution(g, None, start, p_param, q_param)
        for node, prob in dist.items():
            emp = nexts.count(node) / len(nexts)
            worst = max(worst, abs(emp - prob))
    for (prev, cur), nexts in biased.items():
        dist = next_step_distribution(g, prev, cur, p_param, q_param)
        for node, prob in dist.items():
            emp = nexts.count(node) / len(nexts)
            worst = max(worst, abs(emp - prob))

    def clique(members, tag):
        return [star_sample(f"{tag}{i}", author=u,
                            commenters=tuple(v for v in members if v != u))
                for i, u in enumerate(members)]

    left = [f"l{i}" for i in range(8)]
    right = [f"r{i}" for i in range(8)]
    cliques = clique(left, "pl") + clique(right, "pr")
    separations = 0
    for seed in (0, 1, 2):
        table = prepare_user_embeddings(
            cliques, Node2VecConfig(d1=8, walk_length=10, walks_per_node=5,
                                    window=3, epochs=2, seed=seed))
        m = table.matrix / np.linalg.norm(table.matrix, axis=1, keepdims=True)
        rows = {u: m[table.index[u]] for u in left + right}
        intra = [rows[u] @ rows[v] for i, u in enumerate(left)
                 for v in left[i + 1:]]
        inter = [rows[u] @ rows[v] for u in left for v in right]
        separations += int(np.mean(intra) > np.mean(inter))
    elapsed = time.perf_counter() - t0
    ok = n_steps >= 100_000 and worst <= 0.01 and separations == 3 and elapsed < 60.0
    _verdict("criterion-05 walk-law", ok,
             f"steps={n_steps}, worst transition error={worst:.4f} (tol 0.01), "
             f"clique separation {separations}/3 seeds, elapsed={elapsed:.1f}s "
             f"(limit 60s)")


# criteria 6 and 7 -- ablation ordering and zero-bucket gain


def test_criterion_06_ablation_ordering(ablation):
    runs, elapsed = ablation
    accs = {v: [runs[s][v].report.overall.accuracy for s in (0, 1, 2)]
            for v in ("full", "no-mapper", "no-user")}
    means = {v: float(np.mean(a)) for v, a in accs.items()}
    gap = means["no-mapper"] - means["no-user"]
    ok = (means["no-user"] < means["no-mapper"]
          and means["no-mapper"] <= means["full"] + 0.01
          and gap >= 0.03
          and elapsed < 900.0)
    _verdict("criterion-06 ablation-ordering", ok,
             f"mean acc full={means['full']:.4f} no-mapper={means['no-mapper']:.4f} "
             f"no-user={means['no-user']:.4f}, user gap={gap:.4f} (need >=0.03), "
             f"elapsed={elapsed:.0f}s (limit 900s)")


def test_criterion_07_zero_bucket_gain(ablation):
    runs, _ = ablation
    gains = []
    for s in (0, 1, 2):
        full = runs[s]["full"].report.buckets["zero"].macro_f1
        base = runs[s]["no-mapper"].report.buckets["zero"].macro_f1
        gains.append(full - base)
    mean_gain = float(np.mean(gains))
    ok = mean_gain >= 0.02
    _verdict("criterion-07 zero-bucket-gain", ok,
             f"zero-bucket macro-F1 gain per seed={[f'{g:+.4f}' for g in gains]}, "
             f"mean={mean_gain:+.4f} (need >=+0.02)")


# criterion 8 -- rank-sum exactness and bucket population shape


def test_criterion_08_significance_and_buckets():
    u, p_sep = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    _, p_same = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    counts = {"high": 31_327, "low": 63_915, "zero": 21_397}
    ratios = np.concatenate([
        np.zeros(counts["zero"]),
        np.full(counts["low"], 0.25),
        np.full(counts["high"], 0.75),
    ])
    n = ratios.shape[0]
    report = bucketed_report([i % 2 for i in range(n)], [0] * n, ratios.tolist())
    got = {k: b.n for k, b in report.buckets.items()}
    ok = (u == 0.0 and abs(p_sep - 0.1) < 1e-12 and p_same == 1.0
          and got == counts)
    _verdict("criterion-08 mwu-and-buckets", ok,
             f"separated p={p_sep} (expect 0.1), identical p={p_same} "
             f"(expect 1.0), bucket counts={got}")


# criterion 9 -- byte-identical reruns and checksum round-trips


def test_criterion_09_determinism(tmp_path):
    artifacts = ("data/corpus.jsonl", "users/users.emb", "model/model.mdl",
                 "eval/report.json")
    for tag in ("a", "b"):
        root = tmp_path / tag
        for argv in (
            ["synth", "--out", str(root / "data"), "--n-samples", "60",
             "--n-users", "30", "--seed", "0"],
            ["split", "--input", str(root / "data" / "corpus.jsonl"),
             "--out", str(root / "splits")],
            ["embed-users", "--train", str(root / "splits" / "train.jsonl"),
             "--out", str(root / "users"), "--d1", "8", "--walk-length", "5",
             "--walks-per-node", "2", "--epochs", "1", "--seed", "0"],
            ["train", "--splits", str(root / "splits"),
             "--users", str(root / "users" / "users.emb"),
             "--out", str(root / "model"), "--epochs", "2", "--hidden", "8",
             "--seed", "0"],
            ["eval", "--model", str(root / "model" / "model.mdl"),
             "--splits", str(root / "splits"),
             "--users", str(root / "users" / "users.emb"),
             "--out", str(root / "eval"), "--k1", "3", "--k2", "5"],
        ):
            assert cli_main(argv) == 0
    identical = [
        rel for rel in artifacts
        if (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    ]
    # checksum round-trips: loading validates the sidecar, re-saving is stable
    users = EmbeddingTable.load(tmp_path / "a" / "users" / "users.emb")
    users.save(tmp_path / "resaved.emb")
    emb_stable = (tmp_path / "resaved.emb").read_bytes() == (
        tmp_path / "a" / "users" / "users.emb").read_bytes()
    model = load_model(tmp_path / "a" / "model" / "model.mdl")
    save_model(model, tmp_path / "resaved.mdl")
    mdl_stable = (tmp_path / "resaved.mdl").read_bytes() == (
        tmp_path / "a" / "model" / "model.mdl").read_bytes()
    ok = len(identical) == len(artifacts) and emb_stable and mdl_stable
    _verdict("criterion-09 determinism", ok,
             f"byte-identical artifacts {len(identical)}/{len(artifacts)}, "
             f"checksum round-trips: embeddings={emb_stable} model={mdl_stable}")


# criterion 10 -- no better than chance without planted signal


def test_criterion_10_null_signal():
    accs = []
    for seed in (0, 1, 2):
        corpus = generate(SynthConfig(text_signal_strength=0.0,
                                      user_signal_strength=0.0, seed=seed))
        result = run_variant(corpus, _experiment_cfg(seed))
        accs.append(result.report.overall.accuracy)
    ok = all(0.42 <= a <= 0.58 for a in accs)
    _verdict("criterion-10 null-signal", ok,
             f"null-signal accuracy per seed={[f'{a:.4f}' for a in accs]} "
             f"(band [0.42, 0.58])")
