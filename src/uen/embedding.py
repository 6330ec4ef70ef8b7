"""Dense embedding tables and the shared binary table format.

Layout (little-endian): magic b"UENEMB1", u32 row count, u32 dim, an id
table of length-prefixed UTF-8 strings, then rows*dim float32. A JSON
sidecar (<path>.json) mirrors {rows, dim, sha256} where sha256 covers the
full file; loads verify it when present.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

EMB_MAGIC = b"UENEMB1"


class FormatError(ValueError):
    """Raised on bad magic, shape mismatch, or checksum failure."""


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pack_ids(ids) -> bytes:
    parts = []
    for s in ids:
        raw = s.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def unpack_ids(buf: bytes, count: int, offset: int = 0) -> tuple[list[str], int]:
    """Inverse of pack_ids; FormatError if `buf` ends inside the id table."""
    ids = []
    for _ in range(count):
        if offset + 4 > len(buf):
            raise FormatError("truncated id table")
        (n,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if offset + n > len(buf):
            raise FormatError("truncated id table")
        ids.append(buf[offset : offset + n].decode("utf-8"))
        offset += n
    return ids, offset


@dataclass
class EmbeddingTable:
    ids: list[str]
    matrix: np.ndarray  # (len(ids), dim) float32
    index: dict  # id -> row

    @classmethod
    def from_rows(cls, ids, matrix) -> "EmbeddingTable":
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        ids = list(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise FormatError(
                f"matrix shape {matrix.shape} does not match {len(ids)} ids"
            )
        index = {s: i for i, s in enumerate(ids)}
        if len(index) != len(ids):
            raise FormatError("duplicate ids in embedding table")
        if not np.all(np.isfinite(matrix)):
            raise FormatError("non-finite entries in embedding table")
        return cls(ids=ids, matrix=matrix, index=index)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def vector(self, key: str) -> np.ndarray:
        return self.matrix[self.index[key]]

    def mean_vector(self) -> np.ndarray:
        """Column mean; the w/o-mapper stand-in for cold users."""
        if len(self.ids) == 0:
            raise FormatError("mean of an empty embedding table")
        return self.matrix.mean(axis=0, dtype=np.float64).astype(np.float32)

    def save(self, path) -> None:
        path = str(path)
        with open(path, "wb") as fh:
            fh.write(EMB_MAGIC)
            fh.write(struct.pack("<II", len(self.ids), self.dim))
            fh.write(pack_ids(self.ids))
            fh.write(self.matrix.astype("<f4").tobytes())
        sidecar = {
            "rows": len(self.ids),
            "dim": self.dim,
            "sha256": sha256_file(path),
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh)

    @classmethod
    def load(cls, path, expect_dim: int | None = None) -> "EmbeddingTable":
        path = str(path)
        with open(path, "rb") as fh:
            buf = fh.read()
        if buf[: len(EMB_MAGIC)] != EMB_MAGIC:
            raise FormatError(f"{path}: bad magic, not an embedding table")
        header = len(EMB_MAGIC) + 8
        if len(buf) < header:
            raise FormatError(f"{path}: truncated header")
        rows, dim = struct.unpack_from("<II", buf, len(EMB_MAGIC))
        try:
            with open(path + ".json", "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except FileNotFoundError:
            sidecar = None
        if sidecar is not None and sidecar.get("sha256") != sha256_file(path):
            raise FormatError(f"{path}: checksum mismatch against sidecar")
        if expect_dim is not None and dim != expect_dim:
            raise FormatError(f"{path}: dimension {dim}, expected {expect_dim}")
        try:
            ids, offset = unpack_ids(buf, rows, header)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        extra = len(buf) - offset - rows * dim * 4
        if extra < 0:
            raise FormatError(f"{path}: truncated payload")
        if extra > 0:
            raise FormatError(f"{path}: {extra} bytes past the end of the payload")
        matrix = np.frombuffer(buf, dtype="<f4", count=rows * dim, offset=offset)
        matrix = matrix.reshape(rows, dim).copy()
        return cls.from_rows(ids, matrix)
