"""End-to-end runs of the pipeline command line."""

import argparse
import contextlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uen.__main__ as entry
from uen import cli, experiment
from uen.assembly import occurrences, text_keys
from uen.cli import main
from uen.coldmap import ColdMapConfig
from uen.corpus import Split, load_corpus
from uen.embedding import EmbeddingTable
from uen.gnn import GnnConfig, load_model, save_history, save_model
from uen.text import make_hash_provider

from conftest import MODEL_DEFECTS


def run_ok(argv):
    assert main(argv) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small full pipeline: synth -> split -> embeddings -> train -> eval."""
    root = tmp_path_factory.mktemp("pipeline")
    run_ok(["synth", "--out", str(root / "data"), "--n-samples", "60",
            "--n-users", "30", "--seed", "0"])
    run_ok(["split", "--input", str(root / "data" / "corpus.jsonl"),
            "--out", str(root / "splits")])
    run_ok(["embed-users", "--train", str(root / "splits" / "train.jsonl"),
            "--out", str(root / "users"), "--d1", "8", "--walk-length", "5",
            "--walks-per-node", "2", "--epochs", "1", "--seed", "0"])
    run_ok(["embed-text", "--corpus", str(root / "data" / "corpus.jsonl"),
            "--out", str(root / "texts")])
    run_ok(["train", "--splits", str(root / "splits"),
            "--users", str(root / "users" / "users.emb"),
            "--out", str(root / "model"), "--epochs", "2", "--hidden", "8",
            "--seed", "0"])
    run_ok(["eval", "--model", str(root / "model" / "model.mdl"),
            "--splits", str(root / "splits"),
            "--users", str(root / "users" / "users.emb"),
            "--out", str(root / "eval"), "--k1", "3", "--k2", "5"])
    return root


@pytest.fixture(scope="module")
def cold_val(pipeline):
    """The pipeline's split with its test part as val as well, so val has cold users."""
    root = pipeline / "cold_val"
    root.mkdir()
    shutil.copy(pipeline / "splits" / "train.jsonl", root / "train.jsonl")
    for name in ("val", "test"):
        shutil.copy(pipeline / "splits" / "test.jsonl", root / f"{name}.jsonl")
    return root


def test_synth_outputs(pipeline):
    stats = json.loads((pipeline / "data" / "stats.json").read_text())
    assert stats["samples"] == 60
    assert (pipeline / "data" / "run_config.json").exists()


def test_split_outputs(pipeline):
    for name, n in (("train", 42), ("val", 6), ("test", 12)):
        lines = (pipeline / "splits" / f"{name}.jsonl").read_text().splitlines()
        assert len(lines) == n


def test_embedding_artifacts_have_sidecars(pipeline):
    for rel in ("users/users.emb", "texts/texts.emb"):
        assert (pipeline / rel).exists()
        sidecar = json.loads((pipeline / (rel + ".json")).read_text())
        assert "sha256" in sidecar


def test_train_outputs(pipeline):
    assert (pipeline / "model" / "model.mdl").exists()
    history = (pipeline / "model" / "history.csv").read_text().splitlines()
    assert len(history) == 3  # header + 2 epochs


def test_eval_report_structure(pipeline):
    report = json.loads((pipeline / "eval" / "report.json").read_text())
    assert report["overall"]["n"] == 12
    assert 0.0 <= report["overall"]["accuracy"] <= 1.0
    assert report["metadata"]["variant"] == "uen"
    assert report["metadata"]["user_feature_width"] == 8
    assert set(report["buckets"]) == {"zero", "low", "high"}


def test_provenance_records_input_checksums(pipeline, tmp_path, monkeypatch):
    """run_config.json holds the checksum of every input a command read and
    the configs it resolved."""
    splits, users = pipeline / "splits", pipeline / "users" / "users.emb"
    texts = pipeline / "texts" / "texts.emb"
    config = json.loads((pipeline / "eval" / "run_config.json").read_text())
    assert set(config["inputs"]) == {str(p) for p in (
        pipeline / "model" / "model.mdl", splits / "train.jsonl", splits / "test.jsonl", users)}
    assert all(len(digest) == 64 for digest in config["inputs"].values())
    assert config["configs"]["ColdMapConfig"] == {"k1": 3, "k2": 5,
                                                  "heuristics": ["h1", "h2", "h3"]}
    assert not [key for key in config if key.startswith("_")]  # no parser bookkeeping
    config = json.loads((pipeline / "model" / "run_config.json").read_text())
    assert config["configs"]["GnnConfig"] == {"arch": "gcn", "layers": 3, "hidden": 8,
                                              "lam": 0.5, "lr": 0.01, "epochs": 2,
                                              "batch_size": 32, "seed": 0}
    config = json.loads((pipeline / "data" / "run_config.json").read_text())
    synth = config["configs"]["SynthConfig"]
    assert (synth["min_comments"], synth["max_comments"]) == (4, 10)

    best = {"lam": 0.25, "k1": 2, "k2": 3}
    monkeypatch.setattr(cli, "tune", lambda objective, space, budget, seed: (best, []))
    run_ok(["tune", "--splits", str(splits), "--users", str(users), "--texts", str(texts),
            "--out", str(tmp_path / "tune")])
    config = json.loads((tmp_path / "tune" / "run_config.json").read_text())
    assert set(config["inputs"]) == {str(p) for p in (
        splits / "train.jsonl", splits / "val.jsonl", users, texts)}
    assert config["configs"]["GnnConfig"]["lam"] == 0.25
    assert config["configs"]["GnnConfig"]["epochs"] == 5
    assert config["configs"]["ColdMapConfig"]["k1"] == 2


def test_report_command(pipeline, tmp_path, capsys):
    out = tmp_path / "summary.md"
    run_ok(["report", str(pipeline / "eval" / "report.json"), "--out", str(out)])
    text = out.read_text()
    assert text.startswith("| Variant | Bucket |")
    assert "uen/gcn" in text


def test_no_user_variant(pipeline, tmp_path):
    run_ok(["train", "--splits", str(pipeline / "splits"),
            "--out", str(tmp_path / "model"), "--variant", "no-user",
            "--epochs", "1", "--hidden", "8", "--seed", "0"])
    run_ok(["eval", "--model", str(tmp_path / "model" / "model.mdl"),
            "--splits", str(pipeline / "splits"),
            "--out", str(tmp_path / "eval"), "--variant", "no-user"])
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["metadata"]["feature_dim"] == 256
    assert report["metadata"]["user_feature_width"] == 0


@pytest.mark.parametrize("variant, flag, value", [
    ("no-user", "--k1", "5"), ("no-user", "--k2", "5"), ("no-user", "--heuristics", "h1"),
    ("no-mapper", "--k1", "5"), ("no-mapper", "--k2", "5"),
    ("no-mapper", "--heuristics", "h1"), ("uen", "--heuristics", ""),
])
def test_no_user_conflicts_with_k_flags(pipeline, tmp_path, capsys, variant, flag, value):
    """A variant without the cold mapper rejects its flags instead of ignoring
    them; the mapper's variant rejects an empty heuristic set, which would run
    no-mapper under its name."""
    users = [] if variant == "no-user" else ["--users", str(pipeline / "users" / "users.emb")]
    for argv in (["eval", "--model", str(pipeline / "model" / "model.mdl")], ["train"]):
        rc = main([*argv, "--splits", str(pipeline / "splits"), *users,
                   "--out", str(tmp_path / argv[0]), "--variant", variant, flag, value])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        want = f"--variant {variant} conflicts with {flag}"
        if variant == "uen":
            want += ' "" (use --variant no-mapper)'
        assert err == {"error": "FormatError", "message": want}
        assert not (tmp_path / argv[0]).exists()


def test_train_without_users_fails(pipeline, tmp_path, capsys):
    rc = main(["train", "--splits", str(pipeline / "splits"),
               "--out", str(tmp_path / "model"), "--epochs", "1"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "--users" in err["message"]


def test_missing_input_is_structured_error(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"


def test_eval_truncated_model_is_structured_error(pipeline, tmp_path, capsys):
    model = tmp_path / "model.mdl"
    # cut inside the header-length field, with no sidecar to catch it first
    model.write_bytes((pipeline / "model" / "model.mdl").read_bytes()[:9])
    rc = main(["eval", "--model", str(model), "--splits", str(pipeline / "splits"),
               "--users", str(pipeline / "users" / "users.emb"),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FormatError"


@pytest.mark.parametrize("corrupt", [*MODEL_DEFECTS, pytest.param(None, id="bad_utf8_id")])
def test_eval_bad_artifact_is_structured_error(pipeline, tmp_path, capsys, corrupt):
    """A model that does not hold together, or (None) a user table with an
    invalid UTF-8 byte inside an id and no sidecar: one JSON line naming it."""
    model, users = tmp_path / "model.mdl", tmp_path / "users.emb"
    params = load_model(pipeline / "model" / "model.mdl")
    raw = (pipeline / "users" / "users.emb").read_bytes()
    if corrupt is None:
        at = raw.index(b'"ids": ["') + len(b'"ids": ["')
        raw = raw[:at] + b"\xff" + raw[at + 1:]
    else:
        corrupt(params)
    save_model(params, model)
    users.write_bytes(raw)
    rc = main(["eval", "--model", str(model), "--splits", str(pipeline / "splits"),
               "--users", str(users), "--out", str(tmp_path / "eval")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "FormatError"
    assert str(users if corrupt is None else model) in err["message"]


def test_eval_no_user_on_user_model_is_structured_error(pipeline, tmp_path, capsys):
    rc = main(["eval", "--model", str(pipeline / "model" / "model.mdl"),
               "--splits", str(pipeline / "splits"), "--out", str(tmp_path / "eval"),
               "--variant", "no-user"])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "FormatError"
    assert "model dim 264" in err["message"]


@pytest.mark.parametrize("command, flag, value, field", [
    ("train", "--hidden", "0", "hidden"),
    ("train", "--epochs", "0", "epochs"),
    ("train", "--batch-size", "0", "batch_size"),
    ("train", "--lr", "-1", "lr"),
    ("train", "--lr", "nan", "lr"),
    ("tune", "--batch-size", "0", "batch_size"),
    ("embed-users", "--lr", "-1", "learning_rate"),
    ("embed-users", "--lr", "inf", "learning_rate"),
    ("embed-users", "--p", "nan", "p"),
    ("embed-users", "--q", "inf", "q"),
    ("train", "--seed", "-1", "seed"),
    ("embed-users", "--seed", "-1", "seed"),
])
def test_bad_config_value_is_structured_error(pipeline, tmp_path, command, flag, value, field):
    inputs = {"embed-users": ["--train", str(pipeline / "splits" / "train.jsonl")]}.get(
        command, ["--splits", str(pipeline / "splits"),
                  "--users", str(pipeline / "users" / "users.emb")])
    rc, err = run_captured([command, *inputs, "--out", str(tmp_path / "out"), flag, value])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{field} must be")


@pytest.mark.parametrize("argv, message", [
    (["split", "--train-ratio", "-0.5", "--val-ratio", "1.0", "--test-ratio", "0.5"],
     "train split ratio must be finite and >= 0, got -0.5"),
    (["split", "--val-ratio", "nan"], "val split ratio must be finite and >= 0, got nan"),
    (["synth", "--n-users", "3"], "n_users (3) must be >= n_communities (6)"),
    (["synth", "--min-comments", "5", "--max-comments", "3"],
     "max_comments (3) must be >= min_comments (5)"),
    (["split", "--train-ratio", "0.9", "--val-ratio", "0", "--test-ratio", "0.1"],
     "val split ratio must be > 0: every part needs a sample"),
    (["synth", "--max-chain-depth", "0"], "max_chain_depth must be >= 1, got 0"),
])
def test_bad_split_or_synth_value_is_structured_error(pipeline, tmp_path, argv, message):
    """Values that numpy or `round` used to reject from deep inside the run;
    a rejected value leaves no `--out` directory behind."""
    out = ["--out", str(tmp_path / "out")]
    if argv[0] == "split":
        out += ["--input", str(pipeline / "data" / "corpus.jsonl")]
    rc, err = run_captured([*argv, *out])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["tune", "--budget", "0"], "budget must be >= 1"),
    (["synth", "--n-samples", "5"], "corpus of 5 samples is too small to split"),
])
def test_refused_value_leaves_no_out_dir(pipeline, tmp_path, argv, message):
    """A value refused after the inputs are read (the search budget, a corpus
    too small to split) exits 1 with one JSON line and no `--out`, as one
    refused by a config does."""
    inputs = {"synth": []}.get(argv[0], ["--splits", str(pipeline / "splits"),
                                         "--users", str(pipeline / "users" / "users.emb"),
                                         "--hidden", "8", "--epochs", "1"])
    rc, err = run_captured([*argv, *inputs, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err)["message"].startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("value", ["h2,h3", "h3", "h1,h3"])
def test_non_nested_heuristics_are_structured_error(pipeline, tmp_path, command, value):
    """H2 needs H1 and H3 needs H2, so such a --heuristics fails before any
    input is read and leaves no `--out` directory behind."""
    model = ["--model", str(pipeline / "model" / "model.mdl")] if command == "eval" else []
    rc, err = run_captured([command, *model, "--splits", str(pipeline / "splits"),
                            "--users", str(pipeline / "users" / "users.emb"),
                            "--out", str(tmp_path / "out"), "--heuristics", value])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"heuristics {sorted(value.split(','))} must be one of")
    assert not (tmp_path / "out").exists()


def test_divergence_is_structured_error(pipeline, tmp_path):
    rc, err = run_captured(["train", "--splits", str(pipeline / "splits"),
                            "--users", str(pipeline / "users" / "users.emb"),
                            "--out", str(tmp_path / "model"), "--hidden", "8",
                            "--lr", "1e300"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err)["error"] == "DivergenceError"


def test_adam_overflow_is_structured_error(pipeline, tmp_path):
    """A GAT lr whose Adam step overflows float32 before the forward pass does.

    On this pipeline's tables, gat diverges in the Adam step at epoch 0 for
    every lr from 3e5 to 1e8 and in the forward pass from 1e9; 1e7 sits well
    inside that window."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_captured(["train", "--splits", str(pipeline / "splits"),
                                "--users", str(pipeline / "users" / "users.emb"),
                                "--out", str(tmp_path / "model"), "--arch", "gat",
                                "--lr", "1e7", "--epochs", "3"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err) == {"error": "DivergenceError",
                               "message": "Adam update diverged at epoch 0"}


def test_float32_overflow_checkpoint_is_structured_error(pipeline, tmp_path):
    """Training computes in float32, so a step past the float32 range is a
    divergence, and no checkpoint with out-of-range weights is left behind
    (the save's own refusal is tested in test_gnn)."""
    out = tmp_path / "model"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_captured(["train", "--splits", str(pipeline / "splits"),
                                "--users", str(pipeline / "users" / "users.emb"),
                                "--out", str(out), "--lr", "1e50", "--epochs", "3",
                                "--hidden", "8"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err) == {"error": "DivergenceError",
                               "message": "Adam update diverged at epoch 0"}
    assert not out.exists()


@pytest.mark.parametrize("case", ["split-input-dir", "synth-out-under-file",
                                  "train-users-dir", "eval-model-dir"])
def test_os_errors_are_structured_errors(pipeline, tmp_path, case):
    """A directory where a file is read, or a file where a directory is made."""
    a_file = tmp_path / "plain"
    a_file.write_text("x")
    splits, users = ["--splits", str(pipeline / "splits")], str(pipeline / "users" / "users.emb")
    argv, error = {
        "split-input-dir": (["split", "--input", str(tmp_path), "--out", str(tmp_path / "o")],
                            "IsADirectoryError"),
        "synth-out-under-file": (["synth", "--out", str(a_file / "x"), "--n-samples", "20"],
                                 "NotADirectoryError"),
        "train-users-dir": (["train", *splits, "--users", str(tmp_path), "--epochs", "1",
                             "--out", str(tmp_path / "o")], "IsADirectoryError"),
        "eval-model-dir": (["eval", "--model", str(tmp_path), *splits, "--users", users,
                            "--out", str(tmp_path / "o")], "IsADirectoryError"),
    }[case]
    rc, err = run_captured(argv)
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("command", ["train", "eval", "tune", "map-cold", "embed-text",
                                     "ingest"])
def test_missing_input_leaves_no_out_dir(pipeline, tmp_path, command):
    """The last input each command reads is missing: one JSON line, and
    --out is not created, since it is made only once every input has loaded."""
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    splits, users = str(pipeline / "splits"), str(pipeline / "users" / "users.emb")
    argv = {
        "train": ["train", "--splits", splits, "--users", missing],
        "eval": ["eval", "--splits", splits, "--users", users, "--model", missing],
        "tune": ["tune", "--splits", splits, "--users", missing],
        "map-cold": ["map-cold", "--train", str(pipeline / "splits" / "train.jsonl"),
                     "--test", str(pipeline / "splits" / "test.jsonl"), "--users", missing],
        "embed-text": ["embed-text", "--corpus", missing],
        "ingest": ["ingest", "--input", missing],
    }[command]
    rc, err = run_captured([*argv, "--out", str(out)])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert not out.exists()


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    """A user table embedded from a 10-user corpus: it lacks most of the
    pipeline's training owners."""
    root = tmp_path_factory.mktemp("small-table")
    run_ok(["synth", "--out", str(root / "data"), "--n-samples", "60", "--n-users", "10",
            "--seed", "0"])
    run_ok(["split", "--input", str(root / "data" / "corpus.jsonl"),
            "--out", str(root / "splits")])
    run_ok(["embed-users", "--train", str(root / "splits" / "train.jsonl"),
            "--out", str(root / "users"), "--d1", "8", "--walk-length", "5",
            "--walks-per-node", "2", "--epochs", "1", "--seed", "0"])
    return str(root / "users" / "users.emb")


@pytest.mark.parametrize("command", ["train", "eval", "map-cold"])
def test_table_without_training_owners_leaves_no_out_dir(pipeline, small_table, tmp_path,
                                                         command):
    """The cold mapper refuses a table that lacks a training owner, and the
    command fails after reading every input: one JSON line, and --out is not
    created, since it is made only once the model, report or cold rows exist."""
    out, splits = tmp_path / "out", str(pipeline / "splits")
    argv = {
        "train": ["train", "--splits", splits, "--epochs", "1", "--hidden", "8"],
        "eval": ["eval", "--splits", splits, "--model", str(pipeline / "model" / "model.mdl")],
        "map-cold": ["map-cold", "--train", str(pipeline / "splits" / "train.jsonl"),
                     "--test", str(pipeline / "splits" / "test.jsonl")],
    }[command]
    rc, err = run_captured([*argv, "--users", small_table, "--out", str(out)])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert re.fullmatch(r"training user '.+' has no row in the user table; embed the users "
                        r"of this training split", error["message"])
    assert not out.exists()


def test_embed_text_unusable_hash_seed_fails_before_any_work(pipeline, tmp_path):
    """A 71-digit seed cannot key blake2b: one JSON line, no output directory."""
    out = tmp_path / "texts"
    rc, err = run_captured(["embed-text", "--corpus", str(pipeline / "data" / "corpus.jsonl"),
                            "--out", str(out), "--hash-seed", str(10**70)])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "ValueError" and err["message"].startswith("hash_seed")
    assert not out.exists()


def test_tune_with_every_trial_failing_is_structured_error(pipeline, tmp_path):
    rc, err = run_captured(["tune", "--splits", str(pipeline / "splits"),
                            "--users", str(pipeline / "users" / "users.emb"),
                            "--out", str(tmp_path / "tune"), "--hidden", "8",
                            "--epochs", "1", "--budget", "2", "--lr", "1e300"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "TuneError"
    assert err["message"].startswith("all trials failed; the last one with DivergenceError")


def unlabel_one(splits, name, tmp_path):
    """A copy of `splits` whose `name` part has its second sample unlabeled;
    returns the copy and that sample's post id."""
    root = tmp_path / "unlabeled"
    shutil.copytree(splits, root)
    lines = (root / f"{name}.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    rec["label"] = None
    lines[1] = json.dumps(rec)
    (root / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
    return root, rec["post_id"]


def test_train_unlabeled_val_sample_is_structured_error(pipeline, tmp_path):
    splits, post_id = unlabel_one(pipeline / "splits", "val", tmp_path)
    rc, err = run_captured(["train", "--splits", str(splits),
                            "--users", str(pipeline / "users" / "users.emb"),
                            "--out", str(tmp_path / "model"), "--epochs", "1",
                            "--hidden", "8"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"sample {post_id} is unlabeled"}


def test_eval_unlabeled_test_sample_is_structured_error(pipeline, tmp_path):
    splits, post_id = unlabel_one(pipeline / "splits", "test", tmp_path)
    rc, err = run_captured(["eval", "--model", str(pipeline / "model" / "model.mdl"),
                            "--splits", str(splits),
                            "--users", str(pipeline / "users" / "users.emb"),
                            "--out", str(tmp_path / "eval"), "--k1", "3", "--k2", "5"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert repr(post_id) in err["message"] and "unlabeled" in err["message"]


@pytest.mark.parametrize("command, part", [("train", "val"), ("eval", "test"), ("tune", "train")])
def test_empty_split_part_is_refused_before_any_work(pipeline, tmp_path, caplog, command, part):
    """A part of --splits with no samples is one JSON line naming its path,
    given before any work (no tune trial runs) and before --out is made."""
    splits, out = tmp_path / "splits", tmp_path / "out"
    shutil.copytree(pipeline / "splits", splits)
    (splits / f"{part}.jsonl").write_text("")
    extra = {"train": ["--epochs", "1", "--hidden", "8"],
             "eval": ["--model", str(pipeline / "model" / "model.mdl")],
             "tune": ["--budget", "3", "--epochs", "1", "--hidden", "8"]}[command]
    rc, err = run_captured([command, "--splits", str(splits), *extra,
                            "--users", str(pipeline / "users" / "users.emb"), "--out", str(out)])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err) == {"error": "CorpusError",
                               "message": f"{splits / part}.jsonl: no samples"}
    assert not out.exists()
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("content", ['{"a": 1}', "[1]", '{"overall": {"n": 1}}', "not json"])
def test_report_rejects_non_report(tmp_path, content):
    path = tmp_path / "report.json"
    path.write_text(content)
    rc, err = run_captured(["report", str(path)])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "FormatError"
    assert str(path) in err["message"]


REQUIRED = "<required>"
TEXT_FLAGS = {"--d2": 256, "--hash-seed": 0, "--texts": None}
COLD_FLAGS = {"--k1": 19, "--k2": 72, "--heuristics": frozenset({"h1", "h2", "h3"})}
MODE = {"--mode": "reddit-style"}
# Every flag of every subcommand and its parsed default, as the parser had them
# before the flags were made from the config dataclasses; `--heuristics` then
# parsed to the string "h1,h2,h3", which named the same set.
CLI_SURFACE = {
    "synth": {
        "--out": REQUIRED, "--n-users": 300, "--n-communities": 6, "--n-samples": 2000,
        "--min-comments": 4, "--max-comments": 10, "--max-chain-depth": 3,
        "--fake-fraction": 0.5, "--text-signal": 0.3, "--user-signal": 0.8,
        "--cold-rate": 0.3, "--seed": 0,
    },
    "ingest": {"--input": REQUIRED, "--out": REQUIRED, **MODE},
    "split": {"--input": REQUIRED, "--out": REQUIRED, "--train-ratio": 0.7,
              "--val-ratio": 0.1, "--test-ratio": 0.2, **MODE},
    "embed-users": {
        "--train": REQUIRED, "--out": REQUIRED, "--d1": 128, "--p": 1.0, "--q": 1.0,
        "--walk-length": 40, "--walks-per-node": 10, "--window": 5, "--negatives": 5,
        "--epochs": 3, "--lr": 0.025, "--seed": 0, "--unweighted": False, **MODE,
    },
    "embed-text": {"--corpus": REQUIRED, "--out": REQUIRED, "--d2": 256, "--hash-seed": 0,
                   **MODE},
    "train": {
        "--splits": REQUIRED, "--users": None, "--out": REQUIRED, "--arch": "gcn",
        "--lam --lambda": 0.5, "--lr": 0.01, "--epochs": 20, "--batch-size": 32,
        "--hidden": 64, "--seed": 0, "--variant": "uen", **TEXT_FLAGS, **COLD_FLAGS, **MODE,
    },
    "tune": {
        "--splits": REQUIRED, "--users": REQUIRED, "--out": REQUIRED, "--arch": "gcn",
        "--budget": 20, "--epochs": 5, "--lr": 0.01, "--batch-size": 32, "--hidden": 64,
        "--seed": 0, **TEXT_FLAGS, **MODE,
    },
    "map-cold": {"--train": REQUIRED, "--test": REQUIRED, "--users": REQUIRED,
                 "--out": REQUIRED, **TEXT_FLAGS, **COLD_FLAGS, **MODE},
    "eval": {"--model": REQUIRED, "--splits": REQUIRED, "--users": None, "--out": REQUIRED,
             "--variant": "uen", **TEXT_FLAGS, **COLD_FLAGS, **MODE},
    "report": {"inputs": REQUIRED, "--out": None},
}


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_cli_surface_is_pinned(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_SURFACE)
    actions = [a for a in sub.choices[command]._actions
               if not isinstance(a, argparse._HelpAction)]
    surface = {" ".join(a.option_strings) or a.dest: a for a in actions}
    assert set(surface) == set(CLI_SURFACE[command])
    argv = [command]
    for a in actions:
        if a.required:
            argv += [*a.option_strings[:1], "x"]
    args = parser.parse_args(argv)
    for flag, expected in CLI_SURFACE[command].items():
        action = surface[flag]
        assert action.required == (expected is REQUIRED), flag
        if expected is not REQUIRED:
            parsed = getattr(args, action.dest)
            assert (type(parsed), parsed) == (type(expected), expected), flag


def test_unknown_flag_exits(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--out", "x", "--bogus"])


def test_map_cold_command(pipeline, tmp_path):
    run_ok(["map-cold", "--train", str(pipeline / "splits" / "train.jsonl"),
            "--test", str(pipeline / "splits" / "test.jsonl"),
            "--users", str(pipeline / "users" / "users.emb"),
            "--out", str(tmp_path / "cold"), "--k1", "3", "--k2", "5"])
    table = EmbeddingTable.load(tmp_path / "cold" / "cold.emb")
    assert table.dim == 8
    assert len(table) > 0  # default synth config plants cold users
    # one row per cold occurrence, in node order, each the vector the full
    # variant's resolver gives that occurrence
    train = load_corpus(pipeline / "splits" / "train.jsonl")[0]
    test = load_corpus(pipeline / "splits" / "test.jsonl")[0]
    users = EmbeddingTable.load(pipeline / "users" / "users.emb")
    resolver = experiment.variant_resolver("full", users, train.samples, make_hash_provider(),
                                           train.common_author, ColdMapConfig(k1=3, k2=5))
    expected = []
    for s in test.samples:
        author = s.resolved_author(test.common_author)
        expected.append((f"{s.post_id}/post/{author}", author, ("post", s)))
        expected += [(f"{s.post_id}/{c.id}/{c.author}", c.author, ("comment", s, c.id))
                     for c in s.comments]
    expected = [(key, user, ctx) for key, user, ctx in expected if user not in users]
    assert table.ids == [key for key, _, _ in expected]
    for row, (_, user, ctx) in zip(table.matrix, expected):
        assert np.array_equal(row, resolver(user, ctx).astype(np.float32))


def test_ingest_round_trip(pipeline, tmp_path, capsys):
    run_ok(["ingest", "--input", str(pipeline / "data" / "corpus.jsonl"),
            "--out", str(tmp_path / "ingested")])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report == {"loaded": 60, "dropped_zero_comment": 0}
    assert (pipeline / "data" / "corpus.jsonl").read_bytes() == (
        tmp_path / "ingested" / "corpus.jsonl").read_bytes()


def test_reruns_are_byte_identical(pipeline, tmp_path):
    for tag in ("a", "b"):
        run_ok(["embed-users", "--train", str(pipeline / "splits" / "train.jsonl"),
                "--out", str(tmp_path / tag), "--d1", "8", "--walk-length", "5",
                "--walks-per-node", "2", "--epochs", "1", "--seed", "0"])
        run_ok(["train", "--splits", str(pipeline / "splits"),
                "--users", str(tmp_path / tag / "users.emb"),
                "--out", str(tmp_path / tag / "model"), "--epochs", "2",
                "--hidden", "8", "--seed", "0"])
    assert (tmp_path / "a" / "users.emb").read_bytes() == (
        tmp_path / "b" / "users.emb").read_bytes()
    assert (tmp_path / "a" / "model" / "model.mdl").read_bytes() == (
        tmp_path / "b" / "model" / "model.mdl").read_bytes()


def test_train_no_user_rejects_users(pipeline, tmp_path, capsys):
    rc = main(["train", "--splits", str(pipeline / "splits"),
               "--users", str(pipeline / "users" / "users.emb"),
               "--out", str(tmp_path / "model"), "--variant", "no-user", "--epochs", "1"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FormatError"
    assert "--users" in err["message"]


def test_eval_truncated_users_is_structured_error(pipeline, tmp_path, capsys):
    users = tmp_path / "users.emb"
    # cut inside the id table, with no sidecar to catch it first
    users.write_bytes((pipeline / "users" / "users.emb").read_bytes()[:17])
    rc = main(["eval", "--model", str(pipeline / "model" / "model.mdl"),
               "--splits", str(pipeline / "splits"), "--users", str(users),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FormatError"


def test_train_equals_experiment_stages(pipeline, cold_val, tmp_path):
    """`uen train` trains what `run_variant` trains on the same split and table."""
    users_path = pipeline / "users" / "users.emb"
    run_ok(["train", "--splits", str(cold_val), "--users", str(users_path),
            "--out", str(tmp_path / "cli"), "--epochs", "3", "--hidden", "8",
            "--seed", "0", "--k1", "3", "--k2", "5"])
    train, val, test = (load_corpus(cold_val / f"{name}.jsonl")[0]
                        for name in ("train", "val", "test"))
    cfg = experiment.PipelineConfig(gnn=GnnConfig(epochs=3, hidden=8, seed=0),
                                    coldmap=ColdMapConfig(k1=3, k2=5))
    run = experiment.run_variant(train, cfg, split=Split(train.samples, val.samples,
                                                         test.samples),
                                 users=EmbeddingTable.load(users_path))
    save_model(run.model, tmp_path / "library.mdl")
    save_history(run.history, tmp_path / "library.csv")
    assert (tmp_path / "cli" / "model.mdl").read_bytes() == (
        tmp_path / "library.mdl").read_bytes()
    assert (tmp_path / "cli" / "history.csv").read_bytes() == (
        tmp_path / "library.csv").read_bytes()


def test_train_reports_the_epoch_it_keeps(pipeline, tmp_path, capsys, monkeypatch):
    """stdout names the epoch model.mdl holds, its val loss and the epochs
    run, one row each in history.csv; here training stops one epoch after
    its best."""
    from uen import gnn

    monkeypatch.setattr(gnn, "_PATIENCE", 1)
    argv = ["train", "--splits", str(pipeline / "splits"),
            "--users", str(pipeline / "users" / "users.emb"), "--hidden", "8", "--lr", "0.05"]
    run_ok([*argv, "--out", str(tmp_path / "model"), "--epochs", "8"])
    line = json.loads(capsys.readouterr().out)
    rows = (tmp_path / "model" / "history.csv").read_text().splitlines()
    assert set(line) == {"best_val_loss", "best_epoch", "epochs"}
    assert line["epochs"] == len(rows) - 1 == line["best_epoch"] + 2 < 8
    assert line["best_val_loss"] == float(rows[1 + line["best_epoch"]].split(",")[2])
    # a run that ends at the named epoch keeps that epoch's params
    run_ok([*argv, "--out", str(tmp_path / "short"), "--epochs", str(line["best_epoch"] + 1)])
    assert json.loads(capsys.readouterr().out)["best_epoch"] == line["best_epoch"]
    assert ((tmp_path / "model" / "model.mdl").read_bytes()
            == (tmp_path / "short" / "model.mdl").read_bytes())


def test_train_holds_no_train_side_or_text_cache_while_training(pipeline, cold_val, tmp_path,
                                                              monkeypatch):
    """Once the train and val graphs are made, `uen train` drops the cold
    mapper's train side (built here, since val has cold users) and the text
    provider with its cache, so neither is live during `gnn.train`."""
    import gc
    import weakref

    from uen.coldmap import TrainSideData

    sides, providers, checked = [], [], []
    build, provide, train = (experiment.build_train_side, cli.make_hash_provider,
                             experiment.train)

    def tracked_side(*args, **kwargs):
        side = build(*args, **kwargs)
        sides.append(weakref.ref(side))
        return side

    def tracked_provider(*args):
        provider = provide(*args)
        providers.append(weakref.ref(provider))
        return provider

    def checked_train(*args):
        assert len(sides) == 1 and len(providers) == 1
        assert sides[0]() is None and providers[0]() is None  # freed without a collection
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, TrainSideData)]
        checked.append(1)
        return train(*args)

    monkeypatch.setattr(experiment, "build_train_side", tracked_side)
    monkeypatch.setattr(cli, "make_hash_provider", tracked_provider)
    monkeypatch.setattr(experiment, "train", checked_train)
    run_ok(["train", "--splits", str(cold_val), "--users", str(pipeline / "users" / "users.emb"),
            "--out", str(tmp_path / "model"), "--epochs", "1", "--hidden", "8"])
    assert checked == [1]


def test_train_k1_shapes_cold_val(pipeline, cold_val, tmp_path):
    val_losses = {}
    for k1 in ("1", "3"):
        run_ok(["train", "--splits", str(cold_val),
                "--users", str(pipeline / "users" / "users.emb"),
                "--out", str(tmp_path / k1), "--epochs", "2", "--hidden", "8",
                "--seed", "0", "--k1", k1, "--k2", "5"])
        rows = (tmp_path / k1 / "history.csv").read_text().splitlines()
        val_losses[k1] = [row.split(",")[2] for row in rows[1:]]
    assert val_losses["1"] != val_losses["3"]


def test_tune_objective_uses_k1(pipeline, cold_val, tmp_path, monkeypatch):
    losses = {}

    def two_trials(objective, space, budget, seed):
        for k1 in (1, 3):
            losses[k1] = objective({"lam": 0.5, "k1": k1, "k2": 5})
        return {"lam": 0.5, "k1": 1, "k2": 5}, []

    monkeypatch.setattr(cli, "tune", two_trials)
    run_ok(["tune", "--splits", str(cold_val),
            "--users", str(pipeline / "users" / "users.emb"),
            "--out", str(tmp_path / "tune"), "--epochs", "1", "--hidden", "8"])
    assert losses[1] != losses[3]


def test_map_cold_hashes_each_fresh_test_sample_in_one_call(pipeline, tmp_path, monkeypatch):
    """A test sample with a cold occurrence has its texts hashed in one batch
    before any of them is resolved; only train samples' texts are hashed
    apart from those batches."""
    from uen import text

    calls = []
    hash_many = text.hash_embed_many

    def counted_many(texts, *args):  # every hashing path, one text or many, ends here
        calls.append(set(texts))
        return hash_many(texts, *args)

    monkeypatch.setattr(text, "hash_embed_many", counted_many)
    run_ok(["map-cold", "--train", str(pipeline / "splits" / "train.jsonl"),
            "--test", str(pipeline / "splits" / "test.jsonl"),
            "--users", str(pipeline / "users" / "users.emb"),
            "--out", str(tmp_path / "cold"), "--k1", "3", "--k2", "5"])
    train = load_corpus(pipeline / "splits" / "train.jsonl")[0]
    test = load_corpus(pipeline / "splits" / "test.jsonl")[0]
    users = EmbeddingTable.load(pipeline / "users" / "users.emb")
    seen = {k for s in train.samples for k in text_keys(s)}
    fresh = []  # test samples with a cold occurrence and a text not hashed before
    for s in test.samples:
        if any(u not in users for u, _ in occurrences(s, test.common_author)):
            if not set(text_keys(s)) <= seen:
                fresh.append(set(text_keys(s)))
            seen |= set(text_keys(s))
    test_calls = [c for c in calls if not c <= {k for s in train.samples for k in text_keys(s)}]
    assert fresh and len(test_calls) == len(fresh)
    assert all(call <= keys for call, keys in zip(test_calls, fresh))


def test_diverging_embed_users_is_one_error_and_no_output(pipeline, tmp_path):
    """A learning rate that overflows float32 is one JSON line naming SGNS,
    with no numpy warning and no --out directory left behind."""
    out = tmp_path / "users"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_captured(["embed-users", "--train", str(pipeline / "splits" / "train.jsonl"),
                                "--out", str(out), "--d1", "8", "--walk-length", "5",
                                "--walks-per-node", "2", "--epochs", "1", "--lr", "1e30"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("SGNS diverged in epoch 0 at learning_rate 1e+30: ")
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
RECORD_FIELDS = ("post_id", "author", "text_key", "timestamp", "comments", "label")
COMMENT_FIELDS = ("id", "author", "parent", "text_key", "timestamp")


def run_captured(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def assert_ok_or_one_json_line(rc, err):
    assert rc in (0, 1), rc
    if rc == 1:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) == {"error", "message"}
    assert "Traceback" not in err


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_split_and_eval_on_damaged_corpus_keep_error_contract(pipeline, data):
    """One record, one of its fields, or one field of one of its comments
    becomes an arbitrary JSON value; split, train and eval exit 0, or exit 1
    with one JSON line on stderr."""
    lines = (pipeline / "data" / "corpus.jsonl").read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="record")
    value = data.draw(JSON_VALUES, label="value")
    rec = json.loads(lines[i])
    where = data.draw(st.sampled_from(("record", "field", "comment")), label="where")
    if where == "record":
        rec = value
    elif where == "field":
        rec[data.draw(st.sampled_from(RECORD_FIELDS), label="field")] = value
    else:
        comment = data.draw(st.sampled_from(rec["comments"]), label="comment")
        comment[data.draw(st.sampled_from(COMMENT_FIELDS), label="field")] = value
    lines[i] = json.dumps(rec)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, err = run_captured(["split", "--input", str(root / "corpus.jsonl"),
                                "--out", str(root / "splits")])
        assert_ok_or_one_json_line(rc, err)
        if rc == 0:
            rc, err = run_captured(["train", "--splits", str(root / "splits"),
                                    "--users", str(pipeline / "users" / "users.emb"),
                                    "--out", str(root / "model"), "--epochs", "1",
                                    "--hidden", "8"])
            assert_ok_or_one_json_line(rc, err)
            rc, err = run_captured(["eval", "--model", str(pipeline / "model" / "model.mdl"),
                                    "--splits", str(root / "splits"),
                                    "--users", str(pipeline / "users" / "users.emb"),
                                    "--out", str(root / "eval"), "--k1", "3", "--k2", "5"])
            assert_ok_or_one_json_line(rc, err)


ENTRY_PROBE = """
import json, os, sys
import uen.__main__ as entry

names = entry.BLAS_THREAD_VARS
at_numpy = []


class NumpyImportSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy:
            at_numpy.append({n: os.environ.get(n) for n in names})


before = {n: os.environ.get(n) for n in names}
numpy_before = "numpy" in sys.modules
sys.meta_path.insert(0, NumpyImportSpy())
rc = entry.main(["report", sys.argv[1]])
print(json.dumps({"before": before, "numpy_before": numpy_before, "at_numpy": at_numpy,
                  "rc": rc}))
"""


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "3"}])
def test_entry_point_caps_blas_threads_before_numpy(tmp_path, preset):
    """The console entry sets each unset BLAS thread variable to 1 before
    numpy is imported, and keeps a value the caller set."""
    env = {k: v for k, v in os.environ.items() if k not in entry.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(entry.__file__).resolve().parents[1])
    env.update(preset)
    done = subprocess.run([sys.executable, "-c", ENTRY_PROBE, str(tmp_path / "missing.json")],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    assert out["before"] == {n: preset.get(n) for n in entry.BLAS_THREAD_VARS}
    assert not out["numpy_before"]
    assert out["at_numpy"] == [{n: preset.get(n, "1") for n in entry.BLAS_THREAD_VARS}]
    assert out["rc"] == 1
    assert json.loads(done.stderr)["error"] == "FileNotFoundError"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(entry.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "uen", "--help"], env=env,
                          capture_output=True, text=True, check=True)
    assert "embed-users" in done.stdout
