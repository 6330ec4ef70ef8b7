"""Text vectors via the hashing trick, plus a loader for precomputed tables.

The hashing embedder is the fully offline default provider: tokenize on
word boundaries, hash unigrams and bigrams into d2 signed buckets,
L2-normalize. External encoder outputs can be substituted as an
EmbeddingTable (EmbeddingTable.load) without touching the rest of the
pipeline.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedding import EmbeddingTable, FormatError

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

# Provider contract: text string -> float32 vector of fixed dim.
TextProvider = Callable[[str], np.ndarray]


@dataclass(frozen=True)
class TextEmbedConfig:
    d2: int = 256
    hash_seed: int = 0
    ngram_range: tuple[int, int] = (1, 2)

    def __post_init__(self):
        if self.d2 <= 0:
            raise ValueError("d2 must be positive")


def _tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def _bucket_sign(term: str, seed: int, d2: int) -> tuple[int, float]:
    digest = hashlib.blake2b(
        term.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    value = int.from_bytes(digest, "little")
    return (value >> 1) % d2, 1.0 if value & 1 else -1.0


def hash_embed(text: str, cfg: TextEmbedConfig = TextEmbedConfig()) -> np.ndarray:
    """Deterministic signed-bucket embedding; zero vector for empty text."""
    vec = np.zeros(cfg.d2, dtype=np.float64)
    toks = _tokens(text)
    lo, hi = cfg.ngram_range
    for n in range(lo, hi + 1):
        for i in range(len(toks) - n + 1):
            term = " ".join(toks[i : i + n])
            bucket, sign = _bucket_sign(term, cfg.hash_seed, cfg.d2)
            vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec.astype(np.float32)


def make_hash_provider(cfg: TextEmbedConfig = TextEmbedConfig()) -> TextProvider:
    cache: dict[str, np.ndarray] = {}

    def provider(text: str) -> np.ndarray:
        hit = cache.get(text)
        if hit is None:
            hit = cache[text] = hash_embed(text, cfg)
        return hit

    return provider


def build_text_table(
    texts: dict[str, str], cfg: TextEmbedConfig = TextEmbedConfig()
) -> EmbeddingTable:
    """Embed a text_key -> text map into a table keyed by text_key."""
    keys = sorted(texts)
    matrix = np.stack([hash_embed(texts[k], cfg) for k in keys]) if keys else np.zeros(
        (0, cfg.d2), dtype=np.float32
    )
    return EmbeddingTable.from_rows(keys, matrix)


def table_provider(table: EmbeddingTable) -> TextProvider:
    """Adapt a key-based table to the provider contract (keys, not raw text)."""

    def provider(text_key: str) -> np.ndarray:
        if text_key not in table:
            raise FormatError(f"text_key {text_key!r} missing from text table")
        return table.vector(text_key)

    return provider
