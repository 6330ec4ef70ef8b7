"""Variant runs wired by `experiment`."""

import os
import pickle
import time

import numpy as np
import pytest

from uen.coldmap import ColdMapConfig
from uen.corpus import Split, corpus_users, temporal_split
from uen import experiment
from uen.experiment import (PipelineConfig, mapper_fidelity, overlap, prepare_user_embeddings,
                            run_variant, without_users)
from uen.gnn import GnnConfig
from uen.node2vec import Node2VecConfig
from uen.synth import SynthConfig, generate
from uen.text import TextEmbedConfig

from conftest import make_comment, make_sample, random_user_table


@pytest.mark.parametrize("variant", ["full", "no-mapper"])
def test_run_variant_takes_feature_width_from_users(variant):
    """A user table narrower than `cfg.node2vec.d1` sets the model's input width."""
    corpus = generate(SynthConfig(n_users=30, n_samples=60, seed=0))
    split = temporal_split(corpus)
    users = random_user_table(sorted(corpus_users(split.train, corpus.common_author)), d1=16)
    cfg = PipelineConfig(gnn=GnnConfig(epochs=1, hidden=8), variant=variant)
    assert cfg.node2vec.d1 != users.dim
    result = run_variant(corpus, cfg, split=split, users=users)
    assert result.model.in_dim == result.report.metadata["feature_dim"] == cfg.text.d2 + 16
    assert result.report.overall.n == len(split.test)


def test_without_users_drops_posts_and_reply_subtrees():
    kept = make_sample("p1", author="a", comments=[
        make_comment("c1", "h", "p1"),
        make_comment("c2", "b", "c1"),  # a reply to the hidden user goes with it
        make_comment("c3", "b", "p1"),
        make_comment("c4", "c", "c3"),
    ])
    gone = make_sample("p2", author="h", comments=[make_comment("c5", "a", "p2")])
    (out,) = without_users([kept, gone], {"h"})
    assert out.post_id == "p1" and [c.id for c in out.comments] == ["c3", "c4"]
    assert without_users([kept, gone], set()) == [kept, gone]


# Fixed from the probe at the per-pair-negative SGNS, before the shared
# negatives were measured: {h1,h2,h3} beat the global mean by 0.174, 0.271
# and 0.193 cosine at seeds 0-2. The margin asks for a bit over half of the
# smallest of those gaps.
FIDELITY_MARGIN = 0.10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mapper_fidelity_beats_global_mean(seed):
    cfg = PipelineConfig(
        gnn=GnnConfig(arch="gcn", lam=0.62, epochs=20, seed=seed),
        node2vec=Node2VecConfig(walk_length=15, walks_per_node=4, epochs=2, window=4,
                                seed=seed),
        coldmap=ColdMapConfig(k1=7, k2=40),
    )
    report = mapper_fidelity(generate(SynthConfig(seed=seed)), cfg, 0.2, seed)
    assert report.users > 0 and report.occurrences >= report.users
    assert set(report.cosine) == {"h1", "h1+h2", "h1+h2+h3", "global-mean", "random-user"}
    gain = report.cosine["h1+h2+h3"] - report.cosine["global-mean"]
    print(f"seed {seed}: {report}")
    assert gain >= FIDELITY_MARGIN, report


def test_mapper_fidelity_rejects_bad_fraction():
    corpus = generate(SynthConfig(n_users=30, n_samples=60, seed=0))
    for fraction in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="hide_fraction"):
            mapper_fidelity(corpus, PipelineConfig(), fraction, 0)


# sha256 of the user table (ids, then the float32 matrix bytes) that
# `prepare_user_embeddings` learns from `pinned_table`'s training split, keyed
# by (p, q, weighted), as the walker that converted the graph to a CSR per
# call and the SGNS step that summed rows by `np.bincount` produced it. At
# p = q = 1 the walker skips its bias pass.
PINNED_USER_TABLE_SHA256 = {
    (0.5, 2.0, True): "abb156f557ac6c7c5f276ebda382f5596f0bf1e52ce79ce29a3cc9d1023d5bb8",
    (0.5, 2.0, False): "078f70dbb7d588347287c085a5c2566cc64ace01b3ebd5e014c56cdcba1234c5",
    (1.0, 1.0, True): "b7be34896ee96ec78a037e93d9b2c2d5a2b088d674b09608c805056eb3da3cba",
    (1.0, 1.0, False): "b95b32bc2b77008959e65e0f579a5766d66af4a59535df718abc27265cd8a3fb",
}


def pinned_table(p, q, weighted):
    corpus = generate(SynthConfig(n_users=40, n_samples=120, seed=3))
    cfg = Node2VecConfig(d1=16, p=p, q=q, walk_length=8, walks_per_node=3, window=3,
                         epochs=2, seed=5)
    return prepare_user_embeddings(temporal_split(corpus).train, cfg, corpus.common_author,
                                   weighted=weighted)


@pytest.mark.parametrize("weighted", [True, False])
def test_user_table_bytes_are_pinned(weighted):
    import hashlib

    for p, q in ((0.5, 2.0), (1.0, 1.0)):
        table = pinned_table(p, q, weighted)
        digest = hashlib.sha256("\n".join(table.ids).encode("utf-8") + table.matrix.tobytes())
        assert digest.hexdigest() == PINNED_USER_TABLE_SHA256[p, q, weighted], (p, q)


def test_acceptance_corpus_at_too_large_a_learning_rate_is_rejected():
    """At learning rate 0.1 the acceptance corpus's table reaches entries in
    the thousands while staying finite; trained at 0.025 it stays below 2."""
    corpus = generate(SynthConfig(seed=0))
    cfg = Node2VecConfig(walk_length=15, walks_per_node=4, epochs=2, window=4, seed=0,
                         learning_rate=0.1)
    with pytest.raises(ValueError, match=r"^SGNS diverged in epoch 0 at learning_rate 0\.1: "):
        prepare_user_embeddings(temporal_split(corpus).train, cfg, corpus.common_author)


INT_FIELDS = [
    *((GnnConfig, name) for name in ("layers", "hidden", "epochs", "batch_size", "seed")),
    *((Node2VecConfig, name) for name in ("d1", "walk_length", "walks_per_node", "window",
                                          "negatives_per_positive", "epochs", "seed")),
    (ColdMapConfig, "k1"), (ColdMapConfig, "k2"),
    (TextEmbedConfig, "d2"), (TextEmbedConfig, "hash_seed"),
    *((SynthConfig, name) for name in ("n_users", "n_communities", "n_samples",
                                       "min_comments", "max_comments", "max_chain_depth",
                                       "seed")),
]


BAD_VALUES = [
    (SynthConfig, "seed", -1, "seed must be >= 0, got -1"),
    (Node2VecConfig, "seed", -1, "seed must be >= 0, got -1"),
    (GnnConfig, "seed", -1, "seed must be >= 0, got -1"),
    (GnnConfig, "lr", "0.1", "lr must be a real number, not '0.1'"),
    (Node2VecConfig, "p", None, "p must be a real number, not None"),
    (GnnConfig, "lam", True, "lam must be a real number, not True"),
    (SynthConfig, "fake_fraction", False, "fake_fraction must be a real number, not False"),
    (GnnConfig, "lam", 1.5, "lam must be in [0, 1], got 1.5"),
    (SynthConfig, "cold_user_rate_test", float("nan"),
     "cold_user_rate_test must be in [0, 1], got nan"),
]


@pytest.mark.parametrize("cls, name, bad, message", BAD_VALUES,
                         ids=[f"{cls.__name__}.{name}-{bad!r}" for cls, name, bad, _ in
                              BAD_VALUES])
def test_config_rejects_out_of_range_or_non_real_values_by_name(cls, name, bad, message):
    """Every seed is >= 0; a positive or unit field takes a real number,
    and a bool, a string or None is not one."""
    with pytest.raises(ValueError) as exc:
        cls(**{name: bad})
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("cls, name", INT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in INT_FIELDS])
def test_config_rejects_non_integer_fields_by_name(cls, name, bad):
    """A non-integer count, size or seed fails when the config is made, not
    in the stage that reads it; a bool is not an integer here."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {bad!r}$"):
        cls(**{name: bad})


@pytest.mark.parametrize("config, canonical, name, kind", [
    (ColdMapConfig(heuristics={"h1"}), ColdMapConfig(heuristics=frozenset({"h1"})),
     "heuristics", frozenset),
])
def test_config_hashes_as_its_canonical_form(config, canonical, name, kind):
    """A frozen config keeps a set it was given in its immutable form, so
    it hashes, and equals the config made from that form."""
    assert type(getattr(config, name)) is kind
    assert config == canonical and hash(config) == hash(canonical)


# ---------------------------------------------------------------------------
# run_variant's stages in forked children

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def set_cpus(monkeypatch, n):
    """Make `overlap` see `n` usable CPUs; with two it forks on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles by its one message argument, so it does not unpickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_two_arg_error():
    raise TwoArgError("left", "right")


@needs_fork
def test_overlap_returns_the_childs_value_or_raises_its_error(monkeypatch):
    set_cpus(monkeypatch, 2)
    with overlap("probe", os.getpid) as pid:
        assert pid() != os.getpid()
    with overlap("probe", divmod, 7, 2) as result:
        assert result() == (3, 1)
    with overlap("probe", divmod, 1, 0) as result:
        with pytest.raises(ZeroDivisionError):
            result()
    with overlap("probe", raise_two_arg_error) as result:
        with pytest.raises(RuntimeError, match="^probe: TwoArgError: left and right$"):
            result()
    assert_no_child_left()


@needs_fork
def test_overlap_names_the_stage_of_a_child_that_exits(monkeypatch):
    set_cpus(monkeypatch, 2)
    with overlap("probe", os._exit, 3) as result:
        with pytest.raises(RuntimeError, match=r"^probe: .* without a result \(exit code 3\)"):
            result()
    dumps = pickle.dumps  # a child that sends part of its result
    monkeypatch.setattr(pickle, "dumps", lambda *args: dumps(*args)[:-3])
    with overlap("probe", divmod, 7, 2) as result:
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match=r"^probe: .* without a result \(exit code 0\)"):
            result()
    assert_no_child_left()


@needs_fork
def test_overlap_kills_a_child_whose_result_is_not_read(monkeypatch):
    set_cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(KeyError):
        with overlap("probe", time.sleep, 60):
            raise KeyError("the parent's own work failed")
    with overlap("probe", time.sleep, 60):
        pass
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_overlap_runs_inline_on_one_cpu(monkeypatch):
    set_cpus(monkeypatch, 1)
    with overlap("probe", os.getpid) as pid:
        assert pid() == os.getpid()


def small_run_config(variant, **node2vec):
    return PipelineConfig(gnn=GnnConfig(epochs=2, hidden=8, seed=1),
                          node2vec=Node2VecConfig(d1=16, walk_length=6, walks_per_node=2,
                                                  epochs=1, seed=1, **node2vec),
                          coldmap=ColdMapConfig(k1=3, k2=6), variant=variant)


def run_counting_forks(monkeypatch, cpus, corpus, cfg):
    """run_variant at `cpus` usable CPUs; returns its result and its forks."""
    set_cpus(monkeypatch, cpus)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    try:
        return run_variant(corpus, cfg), len(forks)
    finally:
        monkeypatch.setattr(os, "fork", fork)


@needs_fork
@pytest.mark.parametrize("variant, forks", [("full", 2), ("no-mapper", 2), ("no-user", 1)])
def test_forked_run_variant_equals_the_inline_run_byte_for_byte(monkeypatch, variant, forks):
    """The user table and the test graphs made in children give the inline
    run's predictions, report, model, history and user table, bit for bit;
    the test split has cold users, so the child builds the train side."""
    corpus = generate(SynthConfig(n_users=40, n_samples=150, seed=2))
    cfg = small_run_config(variant)
    inline, none = run_counting_forks(monkeypatch, 1, corpus, cfg)
    forked, made = run_counting_forks(monkeypatch, 2, corpus, cfg)
    assert (none, made) == (0, forks)
    assert_no_child_left()
    assert forked.report.buckets["zero"].n > 0
    assert forked.report.to_dict() == inline.report.to_dict()
    assert (forked.preds, forked.labels, forked.ratios) == (inline.preds, inline.labels,
                                                             inline.ratios)
    assert forked.history == inline.history
    assert forked.model.tensors.keys() == inline.model.tensors.keys()
    for name, tensor in forked.model.tensors.items():
        assert tensor.dtype == inline.model.tensors[name].dtype
        assert tensor.tobytes() == inline.model.tensors[name].tobytes(), name
    if variant == "no-user":
        assert forked.users is inline.users is None
    else:
        assert forked.users.ids == inline.users.ids
        assert forked.users.matrix.tobytes() == inline.users.matrix.tobytes()


@needs_fork
def test_sgns_divergence_is_one_error_forked_or_inline(monkeypatch):
    corpus = generate(SynthConfig(n_users=40, n_samples=150, seed=2))
    cfg = small_run_config("full", learning_rate=1e5)
    messages = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=r"^SGNS diverged in epoch 0 at learning_rate") as err:
            run_variant(corpus, cfg)
        messages.append(str(err.value))
        assert_no_child_left()
    assert messages[0] == messages[1]


@needs_fork
@pytest.mark.parametrize("stage, name", [("user embeddings", "prepare_user_embeddings"),
                                         ("test graphs", "assemble_graphs")])
def test_run_variant_names_the_stage_whose_child_exits(monkeypatch, stage, name):
    corpus = generate(SynthConfig(n_users=40, n_samples=150, seed=2))
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiment, name, lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match=f"^{stage}: .*exit code 3"):
        run_variant(corpus, small_run_config("full"))
    assert_no_child_left()


def test_run_variant_builds_the_train_side_once_inline(monkeypatch):
    """The test graphs share the resolver `fit` used, so an inline run whose
    validation part has cold users builds the cold mapper's train side once."""
    corpus = generate(SynthConfig(n_samples=200, n_users=40, seed=1))
    whole = temporal_split(corpus)
    split = Split(whole.train, whole.test[:10], whole.test)
    assert corpus_users(split.val) - corpus_users(split.train)  # 15 cold users
    built, build = [], experiment.build_train_side
    monkeypatch.setattr(experiment, "build_train_side",
                        lambda *args, **kwargs: built.append(1) or build(*args, **kwargs))
    set_cpus(monkeypatch, 1)
    result = run_variant(corpus, small_run_config("full"), split=split)
    assert len(built) == 1
    assert result.report.overall.n == len(split.test)


@needs_fork
def test_a_failed_fit_leaves_no_test_graph_child(monkeypatch):
    corpus = generate(SynthConfig(n_users=40, n_samples=150, seed=2))
    set_cpus(monkeypatch, 2)

    def fail(*args):
        raise np.linalg.LinAlgError("fit failed")

    monkeypatch.setattr(experiment, "fit", fail)
    with pytest.raises(np.linalg.LinAlgError, match="fit failed"):
        run_variant(corpus, small_run_config("no-user"))
    assert_no_child_left()
