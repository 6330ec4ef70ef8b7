"""Dense embedding tables and the one binary container for artifacts.

Every artifact (embedding tables, UENEMB2; model checkpoints, UENMDL1)
has one layout, little-endian throughout: the format's magic, a u32
header length, a UTF-8 JSON header (sorted keys) holding the format's
fields plus "tensors": [[name, shape], ...] in sorted name order, then
each tensor as float32 in that order. A JSON sidecar (<path>.json) holds
{"sha256": ...} of the whole file; reads verify it when present.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

EMB_MAGIC = b"UENEMB2"


class FormatError(ValueError):
    """Raised on bad magic, shape mismatch, or checksum failure."""


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_artifact(path, magic: bytes, fields: dict, tensors: dict) -> None:
    """Write `fields` and float32 `tensors` under `magic`, plus the sidecar.

    A tensor with a finite value beyond the float32 range is a FormatError
    naming it, raised before any file is opened: its cast would be inf,
    which `read_artifact` rejects.
    """
    path = str(path)
    names = sorted(tensors)
    header = dict(fields, tensors=[[k, list(tensors[k].shape)] for k in names])
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [magic, struct.pack("<I", len(raw)), raw]
    for k in names:
        with np.errstate(over="ignore"):
            f4 = tensors[k].astype("<f4")
        if (np.isinf(f4) & np.isfinite(tensors[k])).any():
            raise FormatError(f"{path}: tensor {k!r} has finite values beyond the float32 "
                              "range; nothing was written")
        parts.append(f4.tobytes())
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            digest.update(part)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"sha256": digest.hexdigest()}, fh)


def read_artifact(path, magic: bytes) -> tuple[dict, dict]:
    """Inverse of write_artifact: (fields, name -> float32 array).

    Every defect is a FormatError naming `path`: wrong magic, a sidecar
    that does not match, a cut or undecodable header, a payload of any
    other length than the header gives, or a non-finite value.
    """
    path = str(path)
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic, expected {magic.decode()}")
    try:
        with open(path + ".json", "rb") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        sidecar = None
    except ValueError as exc:
        raise FormatError(f"{path}: corrupt sidecar ({exc})") from None
    if sidecar is not None and (
        not isinstance(sidecar, dict)
        or sidecar.get("sha256") != hashlib.sha256(buf).hexdigest()
    ):
        raise FormatError(f"{path}: checksum mismatch against sidecar")
    offset = len(magic) + 4
    if len(buf) < offset:
        raise FormatError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", buf, len(magic))
    if len(buf) < offset + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        fields = json.loads(buf[offset : offset + hlen].decode("utf-8"))
        shapes = {}
        for name, shape in fields.pop("tensors"):
            if not (isinstance(name, str) and isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"bad tensor entry {[name, shape]!r}")
            if name in shapes:
                raise ValueError(f"tensor {name!r} listed twice")
            shapes[name] = tuple(shape)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: corrupt header ({exc!r})") from None
    offset += hlen
    have, need = len(buf) - offset, 4 * sum(map(math.prod, shapes.values()))
    if have > need:
        raise FormatError(f"{path}: {have - need} bytes past the end of the payload")
    if have < need:
        raise FormatError(f"{path}: truncated payload ({have} bytes, header needs {need})")
    tensors = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: non-finite values in tensor {name!r}")
        tensors[name] = arr.reshape(shape).astype(np.float32)
        offset += 4 * count
    return fields, tensors


@dataclass
class EmbeddingTable:
    ids: list[str]
    matrix: np.ndarray  # (len(ids), dim) float32
    index: dict  # id -> row

    @classmethod
    def from_rows(cls, ids, matrix) -> "EmbeddingTable":
        with np.errstate(over="ignore"):  # an overflow is the non-finite error below
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
        write_artifact(path, EMB_MAGIC, {"ids": self.ids}, {"matrix": self.matrix})

    @classmethod
    def load(cls, path, expect_dim: int | None = None) -> "EmbeddingTable":
        fields, tensors = read_artifact(path, EMB_MAGIC)
        ids = fields.get("ids")
        if (set(fields) != {"ids"} or set(tensors) != {"matrix"}
                or not isinstance(ids, list) or not all(isinstance(s, str) for s in ids)):
            raise FormatError(f"{path}: not an embedding table")
        try:
            table = cls.from_rows(ids, tensors["matrix"])
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if expect_dim is not None and table.dim != expect_dim:
            raise FormatError(f"{path}: dimension {table.dim}, expected {expect_dim}")
        return table
