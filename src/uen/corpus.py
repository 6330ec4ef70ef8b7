"""Cascade corpus: data model, JSONL ingestion, temporal splits, overlap buckets.

A sample is one post plus the tree of comments underneath it. Samples are
loaded from UTF-8 JSONL (one sample per line), validated structurally
(referential integrity, tree shape, non-empty ids) and split strictly by
time so test posts never precede training posts.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Iterable, Optional


COMMON_AUTHOR = "__common__"  # the author a tweet-style corpus gives authorless posts


class CorpusError(ValueError):
    """Raised on malformed corpus files or invalid samples."""


@dataclass(frozen=True)
class Comment:
    id: str
    author: str
    parent: str  # post_id or another comment id within the same sample
    text_key: str
    timestamp: int


@dataclass(frozen=True)
class Sample:
    post_id: str
    text_key: str
    timestamp: int
    comments: tuple[Comment, ...]
    author: Optional[str] = None  # None => corpus-level common author
    label: Optional[int] = None  # 0=fake, 1=true

    def resolved_author(self, common_author: Optional[str]) -> str:
        if self.author is not None:
            return self.author
        if common_author is None:
            raise CorpusError(
                f"sample {self.post_id!r} has no author and no common author is set"
            )
        return common_author

    def users(self, common_author: Optional[str] = None) -> set[str]:
        """U_i: the post author plus every commenter."""
        out = {c.author for c in self.comments}
        if self.author is not None or common_author is not None:
            out.add(self.resolved_author(common_author))
        return out

    def edges(self) -> list[tuple[str, str]]:
        """Local edge list: one (parent, child) edge per comment."""
        return [(c.parent, c.id) for c in self.comments]


@dataclass(frozen=True)
class Corpus:
    samples: tuple[Sample, ...]
    common_author: Optional[str] = None

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class Split:
    train: tuple[Sample, ...]
    val: tuple[Sample, ...]
    test: tuple[Sample, ...]


@dataclass
class LoadReport:
    loaded: int = 0
    dropped_zero_comment: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


class Bucket(str, Enum):
    ZERO = "zero"
    LOW = "low"
    HIGH = "high"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CorpusError(msg)


def validate_sample(sample: Sample) -> None:
    """Check id uniqueness, referential integrity, and the tree invariant."""
    _require(bool(sample.post_id), "empty post_id")
    _require(bool(sample.text_key), f"sample {sample.post_id!r}: empty text_key")
    _require(
        sample.author is None or bool(sample.author),
        f"sample {sample.post_id!r}: empty author string",
    )
    _require(sample.label in (None, 0, 1),
             f"sample {sample.post_id!r}: label {sample.label} is neither 0 nor 1")
    seen: set[str] = {sample.post_id}
    for c in sample.comments:
        _require(bool(c.id), f"sample {sample.post_id!r}: comment with empty id")
        _require(c.id not in seen, f"duplicate id {c.id!r} in sample {sample.post_id!r}")
        _require(bool(c.author), f"comment {c.id!r}: empty author string")
        _require(bool(c.text_key), f"comment {c.id!r}: empty text_key")
        seen.add(c.id)
    ids = {c.id: c for c in sample.comments}
    for c in sample.comments:
        _require(
            c.parent == sample.post_id or c.parent in ids,
            f"comment {c.id!r}: dangling parent reference {c.parent!r}",
        )
        # Walk parents to the post; a visited-set bounds the walk so a
        # malformed cycle is reported rather than looping forever.
        cur = c
        visited = {c.id}
        while cur.parent != sample.post_id:
            cur = ids[cur.parent]
            _require(cur.id not in visited, f"comment {c.id!r}: parent cycle")
            visited.add(cur.id)


_JSON_NAMES = {int: "integer", str: "string"}


def _json(value, kind: type, what: str):
    """`value` if it is a JSON value of `kind` (int or str); a float, bool,
    null, list or object is an error, not a value to convert."""
    if type(value) is not kind:  # bool is an int subclass, JSON true is not an integer
        raise CorpusError(f"{what} {value!r} is not a JSON {_JSON_NAMES[kind]}")
    return value


def require_int_fields(cfg) -> None:
    """Reject, by name, a value of dataclass `cfg` in a field annotated `int`
    that is not an integer; a bool is not one here."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in (int, "int") and (isinstance(value, bool)
                                       or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, not {value!r}")


def sample_from_record(rec: dict) -> Sample:
    if not isinstance(rec, dict):
        raise CorpusError(f"record is a JSON {type(rec).__name__}, not an object")
    try:
        comments = tuple(
            Comment(
                id=_json(c["id"], str, "comment id"),
                author=_json(c["author"], str, "comment author"),
                parent=_json(c["parent"], str, "comment parent"),
                text_key=_json(c["text_key"], str, "comment text_key"),
                timestamp=_json(c["timestamp"], int, "comment timestamp"),
            )
            for c in rec.get("comments", [])
        )
        author = rec.get("author")
        return Sample(
            post_id=_json(rec["post_id"], str, "post_id"),
            author=None if author is None else _json(author, str, "author"),
            text_key=_json(rec["text_key"], str, "text_key"),
            timestamp=_json(rec["timestamp"], int, "timestamp"),
            comments=comments,
            label=None if rec.get("label") is None else _json(rec["label"], int, "label"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed record: {exc}") from exc


def sample_to_record(sample: Sample) -> dict:
    """The sample's fields, a None author or label left out, and each comment
    as a dict of its own fields."""
    rec = {k: v for k, v in vars(sample).items() if v is not None}
    rec["comments"] = [vars(c).copy() for c in sample.comments]
    return rec


def load_corpus(path, mode: str = "reddit-style") -> tuple[Corpus, LoadReport]:
    """Load and validate a JSONL corpus.

    mode "reddit-style" requires a per-post author; "tweet-style" assigns the
    corpus-level common author, `COMMON_AUTHOR`, to posts that lack one. Zero-comment samples
    are dropped and counted in the report.
    """
    if mode not in ("reddit-style", "tweet-style"):
        raise ValueError(f"unknown mode {mode!r}")
    report = LoadReport()
    samples: list[Sample] = []
    post_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                sample = sample_from_record(rec)
                if mode == "reddit-style" and sample.author is None:
                    raise CorpusError(
                        f"sample {sample.post_id!r}: reddit-style corpus requires an author"
                    )
                if sample.post_id in post_ids:
                    raise CorpusError(f"duplicate post_id {sample.post_id!r}")
                validate_sample(sample)
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
            if not sample.comments:
                report.dropped_zero_comment += 1
                continue
            post_ids.add(sample.post_id)
            samples.append(sample)
            report.loaded += 1
    corpus = Corpus(
        samples=tuple(samples),
        common_author=COMMON_AUTHOR if mode == "tweet-style" else None,
    )
    return corpus, report


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus.samples:
            fh.write(json.dumps(sample_to_record(s), sort_keys=True) + "\n")


def temporal_split(
    corpus: Corpus, ratios: tuple[float, float, float] = (0.70, 0.10, 0.20)
) -> Split:
    """Sort by post timestamp (ties by post_id) and cut contiguous 70/10/20."""
    for name, ratio in zip(("train", "val", "test"), ratios):
        if not (math.isfinite(ratio) and ratio >= 0):
            raise ValueError(f"{name} split ratio must be finite and >= 0, got {ratio}")
        if ratio == 0:
            raise ValueError(f"{name} split ratio must be > 0: every part needs a sample")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    if len(corpus.samples) < 10:
        raise CorpusError(
            f"corpus of {len(corpus.samples)} samples is too small to split"
        )
    for s in corpus.samples:
        if s.label is None:
            raise CorpusError(f"sample {s.post_id!r} is unlabeled; cannot split")
    ordered = sorted(corpus.samples, key=lambda s: (s.timestamp, s.post_id))
    n = len(ordered)
    n_train = round(n * ratios[0])
    n_val = round(n * ratios[1])
    n_train = max(1, min(n_train, n - 2))
    n_val = max(1, min(n_val, n - n_train - 1))
    return Split(
        train=tuple(ordered[:n_train]),
        val=tuple(ordered[n_train : n_train + n_val]),
        test=tuple(ordered[n_train + n_val :]),
    )


def overlap_ratio(
    sample: Sample, known_users: set[str], common_author: Optional[str] = None
) -> float:
    """|U_i ∩ known| / |U_i| for one sample."""
    users = sample.users(common_author)
    if not users:
        raise CorpusError(f"sample {sample.post_id!r} has no users")
    return len(users & known_users) / len(users)


def bucket_of(ratio: float) -> Bucket:
    """Zero=0, Low=(0,0.5], High=(0.5,1]."""
    if ratio < 0.0 or ratio > 1.0:
        raise ValueError(f"overlap ratio {ratio} outside [0,1]")
    if ratio == 0.0:
        return Bucket.ZERO
    if ratio <= 0.5:
        return Bucket.LOW
    return Bucket.HIGH


def corpus_users(samples: Iterable[Sample], common_author: Optional[str] = None) -> set[str]:
    """Union of U_i over the given samples."""
    out: set[str] = set()
    for s in samples:
        out |= s.users(common_author)
    return out
