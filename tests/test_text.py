"""Feature-hashing text vectors and the external table loader."""

import json

import numpy as np
import pytest

from uen.embedding import EmbeddingTable, FormatError, sha256_file
from uen.text import (
    TextEmbedConfig,
    build_text_table,
    hash_embed,
    make_hash_provider,
    table_provider,
)


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_empty_string_is_zero_vector():
    v = hash_embed("")
    assert v.shape == (256,)
    assert np.all(v == 0.0)


def test_determinism():
    assert np.array_equal(hash_embed("breaking news"), hash_embed("breaking news"))


def test_cosine_ordering_on_shared_tokens():
    a = hash_embed("breaking news")
    b = hash_embed("breaking news today")
    c = hash_embed("weather forecast sunny")
    assert cosine(a, b) > cosine(a, c)


def test_norm_is_zero_or_one():
    for text in ("", "one", "one two three", "a a a a", "x y z w " * 10):
        norm = np.linalg.norm(hash_embed(text))
        assert norm == 0.0 or norm == pytest.approx(1.0, abs=1e-6)


def test_tokenization_is_case_insensitive():
    assert np.array_equal(hash_embed("Breaking News"), hash_embed("breaking news"))


def test_hash_seed_changes_embedding():
    a = hash_embed("breaking news", TextEmbedConfig(hash_seed=0))
    b = hash_embed("breaking news", TextEmbedConfig(hash_seed=1))
    assert not np.array_equal(a, b)


def test_ngram_range_controls_features():
    uni = TextEmbedConfig(ngram_range=(1, 1))
    v1 = hash_embed("alpha beta", uni)
    # unigram-only embedding of a two-token text has mass in <= 2 buckets
    assert np.count_nonzero(v1) <= 2
    v2 = hash_embed("alpha beta", TextEmbedConfig(ngram_range=(1, 2)))
    assert not np.array_equal(v1, v2)


def test_statelessness_across_call_order():
    provider = make_hash_provider()
    first = provider("alpha beta").copy()
    provider("gamma delta")
    provider("alpha beta gamma")
    assert np.array_equal(provider("alpha beta"), first)
    assert np.array_equal(first, hash_embed("alpha beta"))


def test_pairwise_collision_rate_is_small():
    cfg = TextEmbedConfig(ngram_range=(1, 1))
    words = [f"word{i}" for i in range(10_000)]
    # a unigram vector is determined by its (bucket, sign) slot
    slots = {}
    for w in words:
        v = hash_embed(w, cfg)
        bucket = int(np.flatnonzero(v)[0])
        slots.setdefault((bucket, float(v[bucket])), []).append(w)
    colliding_pairs = sum(len(g) * (len(g) - 1) // 2 for g in slots.values())
    total_pairs = len(words) * (len(words) - 1) // 2
    assert colliding_pairs / total_pairs < 0.05


def test_table_save_load_round_trip(tmp_path):
    table = build_text_table({"k1": "breaking news", "k2": "weather"}, TextEmbedConfig())
    path = tmp_path / "texts.emb"
    table.save(path)
    loaded = EmbeddingTable.load(path, expect_dim=256)
    assert len(loaded) == 2
    assert np.array_equal(loaded.vector("k1"), table.vector("k1"))


def test_load_rejects_dimension_mismatch(tmp_path):
    table = build_text_table({"k1": "a"}, TextEmbedConfig(d2=300))
    path = tmp_path / "texts.emb"
    table.save(path)
    with pytest.raises(FormatError, match="dimension"):
        EmbeddingTable.load(path, expect_dim=256)


def test_load_rejects_corrupted_payload(tmp_path):
    table = build_text_table({"k1": "a", "k2": "b"}, TextEmbedConfig())
    path = tmp_path / "texts.emb"
    table.save(path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=str(path)):
        EmbeddingTable.load(path, expect_dim=256)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        EmbeddingTable.load(path)


def _table_without_sidecar(tmp_path):
    table = build_text_table({"k1": "a", "k2": "b"}, TextEmbedConfig(d2=4))
    path = tmp_path / "texts.emb"
    table.save(path)
    (tmp_path / "texts.emb.json").unlink()
    return path, path.read_bytes()


def test_load_rejects_every_truncation_without_sidecar(tmp_path):
    path, raw = _table_without_sidecar(tmp_path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match=str(path)):
            EmbeddingTable.load(path)


def test_load_rejects_padding_without_sidecar(tmp_path):
    path, raw = _table_without_sidecar(tmp_path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="1 bytes past the end"):
        EmbeddingTable.load(path)


def test_sidecar_reports_shape(tmp_path):
    """The shape lives in the header; the sidecar holds the file's sha256."""
    table = build_text_table({"k1": "a", "k2": "b", "k3": "c"}, TextEmbedConfig())
    path = tmp_path / "texts.emb"
    table.save(path)
    loaded = EmbeddingTable.load(path)
    assert (len(loaded), loaded.dim) == (3, 256)
    sidecar = json.loads((tmp_path / "texts.emb.json").read_text())
    assert sidecar == {"sha256": sha256_file(path)}


def test_table_provider_missing_key():
    table = build_text_table({"k1": "a"}, TextEmbedConfig())
    provider = table_provider(table)
    assert np.array_equal(provider("k1"), table.vector("k1"))
    with pytest.raises(FormatError, match="k2"):
        provider("k2")


def test_config_rejects_bad_dim():
    with pytest.raises(ValueError):
        TextEmbedConfig(d2=0)
