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
        if len(str(self.hash_seed).encode("utf-8")) > 64:
            raise ValueError("hash_seed must be at most 64 characters in decimal: it is "
                             "the blake2b key")
        lo, hi = self.ngram_range
        if lo < 1 or hi < lo:
            raise ValueError(f"ngram_range {self.ngram_range} must have 1 <= lo <= hi")


def _tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def hash_embed(text: str, cfg: TextEmbedConfig = TextEmbedConfig()) -> np.ndarray:
    """Deterministic signed-bucket embedding; zero vector for empty text.

    Each n-gram's 8-byte blake2b digest, keyed by the seed and read as a
    little-endian u64 v, adds +1 (odd v) or -1 to bucket (v >> 1) % d2.
    The keyed state is made once per call and copied per term. Each bucket
    and the squared norm are sums of small integers, so they are exact
    whatever order they are summed in.
    """
    toks = _tokens(text)
    lo, hi = cfg.ngram_range
    keyed = hashlib.blake2b(digest_size=8, key=str(cfg.hash_seed).encode("utf-8"))
    digests = []
    for n in range(lo, hi + 1):
        for i in range(len(toks) - n + 1):
            h = keyed.copy()
            h.update(" ".join(toks[i : i + n]).encode("utf-8"))
            digests.append(h.digest())
    v = np.frombuffer(b"".join(digests), dtype="<u8")
    vec = np.bincount(((v >> 1) % cfg.d2).astype(np.intp),
                      weights=(v & 1) * 2.0 - 1.0, minlength=cfg.d2)
    norm = np.sqrt(vec @ vec)
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
