"""Text vectors via the hashing trick, plus a loader for precomputed tables.

The hashing embedder, `hash_embed_many`, is the fully offline default
provider: tokenize on word boundaries, hash unigrams and bigrams into d2
signed buckets, L2-normalize, a batch of texts per call. External encoder
outputs can be substituted as an EmbeddingTable (EmbeddingTable.load)
without touching the rest of the pipeline.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import check_fields
from .embedding import EmbeddingTable, FormatError

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

# Provider contract: text string -> float32 vector of fixed dim. A provider
# may also have `many(keys) -> list of vectors`, a batch call `embed_many`
# uses when present; plain callables without it work everywhere.
TextProvider = Callable[[str], np.ndarray]


@dataclass(frozen=True)
class TextEmbedConfig:
    d2: int = 256
    hash_seed: int = 0

    def __post_init__(self):
        check_fields(self, minimum={"hash_seed": None})
        if len(str(self.hash_seed).encode("utf-8")) > 64:
            raise ValueError("hash_seed must be at most 64 characters in decimal: it is "
                             "the blake2b key")


def _tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def _digest(keyed, term: str) -> bytes:
    h = keyed.copy()
    h.update(term.encode("utf-8"))
    return h.digest()


def hash_embed_many(texts, cfg: TextEmbedConfig = TextEmbedConfig(),
                    words: dict | None = None) -> np.ndarray:
    """The hash vector of each text, as the rows of one (len(texts), d2)
    float32 matrix; an empty text's row is zero.

    Each term's 8-byte blake2b digest, keyed by the seed and read as a
    little-endian u64 v, adds +1 (odd v) or -1 to bucket (v >> 1) % d2 of
    its text's row; a text's terms are its unigrams, then its bigrams. The
    keyed state is made once per call and copied per term; one bincount
    over row * d2 + bucket fills every row. Each bucket and each squared
    norm is a sum of small integers, so exact in any order or batch.

    `words` maps unigrams to their digests under `cfg` and gains the new
    ones, so a caller that passes one dict to many calls hashes each
    distinct word once. Words recur across texts and bigrams mostly do not,
    so bigrams are not kept.
    """
    keyed = hashlib.blake2b(digest_size=8, key=str(cfg.hash_seed).encode("utf-8"))
    words = {} if words is None else words
    digests, counts = [], []
    for text in texts:
        toks = _tokens(text)
        for t in toks:
            d = words.get(t)
            if d is None:
                d = words[t] = _digest(keyed, t)
            digests.append(d)
        digests += [_digest(keyed, f"{a} {b}") for a, b in zip(toks, toks[1:])]
        counts.append(max(2 * len(toks) - 1, 0))  # n unigrams, n - 1 bigrams
    v = np.frombuffer(b"".join(digests), dtype="<u8")
    cells = np.arange(len(counts) * cfg.d2, step=cfg.d2).repeat(counts)
    cells += ((v >> 1) % cfg.d2).astype(np.intp)
    # The result is allocated before the float64 block, so freeing that block
    # leaves no hole under it: callers keep many results alive.
    out = np.empty((len(counts), cfg.d2), dtype=np.float32)
    mat = np.bincount(cells, weights=(v & 1) * 2.0 - 1.0, minlength=len(counts) * cfg.d2
                      ).reshape(len(counts), cfg.d2)
    norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
    # a nonzero norm is at least 1, so this only lets a zero row divide by 1;
    # the quotient is taken in float64 and rounded once into `out`
    return np.divide(mat, np.maximum(norms, 1.0, out=norms)[:, None], out=out)


def make_hash_provider(cfg: TextEmbedConfig = TextEmbedConfig()) -> TextProvider:
    """A caching `hash_embed_many` provider with a batch call, `provider.many(texts)`."""
    cache: dict[str, np.ndarray] = {}
    words: dict[str, bytes] = {}  # unigram digests, as long as the cache lives

    def provider(text: str) -> np.ndarray:
        hit = cache.get(text)
        return many([text])[0] if hit is None else hit

    def many(texts) -> list[np.ndarray]:
        """The vectors of `texts`, the uncached ones hashed in one call and
        cached as rows of its matrix."""
        missing = [t for t in dict.fromkeys(texts) if t not in cache]
        if missing:
            cache.update(zip(missing, hash_embed_many(missing, cfg, words)))
        return [cache[t] for t in texts]

    provider.many = many
    return provider


def embed_many(texts: TextProvider, keys) -> list[np.ndarray]:
    """The vectors of `keys`: one `texts.many` call when the provider has it,
    else one call per key."""
    many = getattr(texts, "many", None)
    return many(keys) if many is not None else [texts(k) for k in keys]


def build_text_table(
    texts: dict[str, str], cfg: TextEmbedConfig = TextEmbedConfig()
) -> EmbeddingTable:
    """Embed a text_key -> text map into a table keyed by text_key."""
    keys = sorted(texts)
    return EmbeddingTable.from_rows(keys, hash_embed_many([texts[k] for k in keys], cfg))


def table_provider(table: EmbeddingTable) -> TextProvider:
    """Adapt a key-based table to the provider contract (keys, not raw text)."""

    def provider(text_key: str) -> np.ndarray:
        if text_key not in table:
            raise FormatError(f"text_key {text_key!r} missing from text table")
        return table.vector(text_key)

    return provider
