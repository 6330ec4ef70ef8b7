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
SPLIT_RATIOS = (0.70, 0.10, 0.20)  # train, val, test shares of a temporal split


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


def validate_sample(sample: Sample) -> None:
    """Check id uniqueness, referential integrity, and the tree invariant.
    A message is formatted only for the check that fails."""
    pid = sample.post_id
    if not pid:
        raise CorpusError("empty post_id")
    if not sample.text_key:
        raise CorpusError(f"sample {pid!r}: empty text_key")
    if sample.author is not None and not sample.author:
        raise CorpusError(f"sample {pid!r}: empty author string")
    if sample.label not in (None, 0, 1):
        raise CorpusError(f"sample {pid!r}: label {sample.label} is neither 0 nor 1")
    seen: set[str] = {pid}
    for c in sample.comments:
        if not c.id:
            raise CorpusError(f"sample {pid!r}: comment with empty id")
        if c.id in seen:
            raise CorpusError(f"duplicate id {c.id!r} in sample {pid!r}")
        if not c.author:
            raise CorpusError(f"comment {c.id!r}: empty author string")
        if not c.text_key:
            raise CorpusError(f"comment {c.id!r}: empty text_key")
        seen.add(c.id)
    for c in sample.comments:
        if c.parent not in seen:
            raise CorpusError(f"comment {c.id!r}: dangling parent reference {c.parent!r}")
    reply_order(sample)


def reply_order(sample: Sample) -> tuple[Comment, ...]:
    """`sample.comments` with each comment after its parent: in input order
    when every parent comes first, else a reply listed before its parent
    moves to a later pass. A comment whose chain of parents never reaches
    the post (a cycle, or a parent outside the sample) is a CorpusError."""
    order: list[Comment] = []
    placed = {sample.post_id}
    pending = sample.comments
    while pending:
        later = []
        for c in pending:
            if c.parent in placed:
                order.append(c)
                placed.add(c.id)
            else:
                later.append(c)
        if len(later) == len(pending):
            parent = {c.id: c.parent for c in later}
            walk = [later[0].id]  # up from a stuck comment to a repeat or a missing id
            while walk[-1] in parent and walk.count(walk[-1]) == 1:
                walk.append(parent[walk[-1]])
            end = "cycle" if walk[-1] in parent else "parent outside the sample"
            raise CorpusError(f"sample {sample.post_id!r}: a reply chain never reaches the "
                              f"post ({end}: {' -> '.join(map(repr, walk))})")
        pending = later
    return tuple(order)


_JSON_NAMES = {int: "integer", str: "string"}


def _json(value, kind: type, what: str):
    """`value` if it is a JSON value of `kind` (int or str); a float, bool,
    null, list or object is an error, not a value to convert."""
    if type(value) is not kind:  # bool is an int subclass, JSON true is not an integer
        raise CorpusError(f"{what} {value!r} is not a JSON {_JSON_NAMES[kind]}")
    return value


def check_fields(cfg, minimum=None, positive=(), unit=()) -> None:
    """Reject, by name, a bad value of dataclass `cfg`. A field annotated
    `int` must be an integer of at least `minimum.get(name, 1)` (None: any
    integer); a field named in `positive` a finite real > 0, one in `unit` a
    real in [0, 1]. A bool is neither an integer nor a real here."""
    minimum = minimum or {}
    for f in fields(cfg):
        name, value = f.name, getattr(cfg, f.name)
        if f.type in (int, "int"):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            low = minimum.get(name, 1)
            if low is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        elif name in positive or name in unit:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
            if name in positive and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
            if name in unit and not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


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


def temporal_split(corpus: Corpus, ratios: tuple[float, float, float] = SPLIT_RATIOS) -> Split:
    """Sort by post timestamp (ties by post_id) and cut contiguous train,
    val and test parts of the given shares."""
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
    if not 0.0 <= ratio <= 1.0:  # NaN fails it too
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
