"""End-to-end runs of the pipeline command line."""

import argparse
import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uen import cli, experiment
from uen.cli import main
from uen.coldmap import ColdMapConfig
from uen.corpus import load_corpus
from uen.embedding import EmbeddingTable
from uen.gnn import GnnConfig, load_model, save_history, save_model, train
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
    config = json.loads((pipeline / "model" / "run_config.json").read_text())
    assert config["configs"]["GnnConfig"] == {"arch": "gcn", "layers": 3, "hidden": 8,
                                              "lam": 0.5, "lr": 0.01, "epochs": 2,
                                              "batch_size": 32, "seed": 0}
    config = json.loads((pipeline / "data" / "run_config.json").read_text())
    assert config["configs"]["SynthConfig"]["comments_per_sample"] == [4, 10]

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


def test_no_user_conflicts_with_k_flags(pipeline, tmp_path, capsys):
    rc = main(["eval", "--model", str(pipeline / "model" / "model.mdl"),
               "--splits", str(pipeline / "splits"),
               "--out", str(tmp_path / "eval"), "--variant", "no-user",
               "--k1", "5"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FormatError"
    assert "--k1" in err["message"]


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


def test_divergence_is_structured_error(pipeline, tmp_path):
    rc, err = run_captured(["train", "--splits", str(pipeline / "splits"),
                            "--users", str(pipeline / "users" / "users.emb"),
                            "--out", str(tmp_path / "model"), "--hidden", "8",
                            "--lr", "1e300"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err)["error"] == "DivergenceError"


def test_adam_overflow_is_structured_error(pipeline, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_captured(["train", "--splits", str(pipeline / "splits"),
                                "--users", str(pipeline / "users" / "users.emb"),
                                "--out", str(tmp_path / "model"), "--arch", "gat",
                                "--lr", "1e30", "--epochs", "3"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    assert json.loads(err) == {"error": "DivergenceError",
                               "message": "Adam update diverged at epoch 1"}


def test_float32_overflow_checkpoint_is_structured_error(pipeline, tmp_path):
    """Training stays finite in float64 but leaves weights float32 cannot hold:
    the save refuses them by tensor name and leaves no checkpoint behind."""
    out = tmp_path / "model"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_captured(["train", "--splits", str(pipeline / "splits"),
                                "--users", str(pipeline / "users" / "users.emb"),
                                "--out", str(out), "--lr", "1e50", "--epochs", "3",
                                "--hidden", "8"])
    assert rc == 1
    assert_ok_or_one_json_line(rc, err)
    err = json.loads(err)
    assert err["error"] == "FormatError"
    assert "beyond the float32 range" in err["message"]
    assert "tensor '" in err["message"]
    assert not (out / "model.mdl").exists() and not (out / "model.mdl.json").exists()


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
    from uen.embedding import EmbeddingTable

    table = EmbeddingTable.load(tmp_path / "cold" / "cold.emb")
    assert table.dim == 8
    assert len(table) > 0  # default synth config plants cold users


def test_ingest_round_trip(pipeline, tmp_path, capsys):
    run_ok(["ingest", "--input", str(pipeline / "data" / "corpus.jsonl"),
            "--out", str(tmp_path / "ingested")])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["loaded"] == 60
    assert report["errors"] == 0
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
    users_path = pipeline / "users" / "users.emb"
    run_ok(["train", "--splits", str(cold_val), "--users", str(users_path),
            "--out", str(tmp_path / "cli"), "--epochs", "3", "--hidden", "8",
            "--seed", "0", "--k1", "3", "--k2", "5"])
    train_corpus, _ = load_corpus(cold_val / "train.jsonl")
    val_corpus, _ = load_corpus(cold_val / "val.jsonl")
    users = EmbeddingTable.load(users_path)
    texts = make_hash_provider()
    common = train_corpus.common_author
    resolver = experiment.variant_resolver("full", users, train_corpus.samples, texts,
                                           common, ColdMapConfig(k1=3, k2=5))
    graphs = experiment.assemble_splits(texts, resolver, common, train_corpus.samples,
                                        val_corpus.samples)
    cfg = GnnConfig(arch="gcn", lam=0.5, lr=0.01, epochs=3, batch_size=32, hidden=8, seed=0)
    model, history = train(*graphs, cfg, 256 + users.dim)
    save_model(model, tmp_path / "stages.mdl")
    save_history(history, tmp_path / "stages.csv")
    assert (tmp_path / "cli" / "model.mdl").read_bytes() == (
        tmp_path / "stages.mdl").read_bytes()
    assert (tmp_path / "cli" / "history.csv").read_bytes() == (
        tmp_path / "stages.csv").read_bytes()


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
