"""Metrics, overlap-bucket reports, Mann-Whitney U, sign test, random search.

Macro-F1 uses the conservative convention that a class absent from both
predictions and labels scores F1 = 0. The rank-sum test, for two
independent samples, ranks ties by their midrank. For small groups its
p-value is exact, ties included: one table counts the subsets of the pooled
values by rank sum. For larger groups it is the tie-corrected normal
approximation. Paired outcomes, such as two variants' hits on the same
test cascades, take the exact sign test instead.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import Bucket, bucket_of

logger = logging.getLogger(__name__)


_CELLS = {(0, 0): "tp", (0, 1): "fp", (1, 0): "fn", (1, 1): "tn"}


def _count(preds: Sequence[int], labels: Sequence[int]) -> dict[str, int]:
    """The outcome count, fake (class 0) as the positive class: tp, fp, fn, tn
    by (pred, label) pair. Every metric of this module reads it."""
    if len(preds) != len(labels):
        raise ValueError("preds and labels differ in length")
    if not preds:
        raise ValueError("empty input")
    pairs = Counter(zip(preds, labels))
    for pred, label in pairs:
        if (pred, label) not in _CELLS:
            raise ValueError(f"preds and labels must be 0 or 1, got pred {pred!r} "
                             f"with label {label!r}")
    return {cell: pairs[pair] for pair, cell in _CELLS.items()}


def _accuracy(count: dict[str, int]) -> float:
    return (count["tp"] + count["tn"]) / sum(count.values())


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    return _accuracy(_count(preds, labels))


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _macro_f1(count: dict[str, int]) -> float:
    scores = []
    # each class's (tp, fp, fn): class 1's are class 0's tn, fn and fp
    for cls, cells in enumerate((("tp", "fp", "fn"), ("tn", "fn", "fp"))):
        tp, fp, fn = (count[c] for c in cells)
        if tp == fp == fn == 0:
            logger.info("class %d absent from preds and labels; F1 set to 0", cls)
            scores.append(0.0)
        else:
            scores.append(_f1(tp, fp, fn))
    return float(np.mean(scores))


def macro_f1(preds: Sequence[int], labels: Sequence[int]) -> float:
    return _macro_f1(_count(preds, labels))


@dataclass
class BucketMetrics:
    n: int = 0
    n_true: int = 0
    n_fake: int = 0
    accuracy: float = float("nan")
    macro_f1: float = float("nan")


@dataclass
class EvalReport:
    overall: BucketMetrics
    buckets: dict  # Bucket value -> BucketMetrics
    confusion: dict  # "tp"/"fp"/"tn"/"fn" with fake=positive-class 0 counts
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bucket", "n", "n_true", "n_fake", "accuracy", "macro_f1"])
            for name, b in [("overall", self.overall)] + sorted(self.buckets.items()):
                writer.writerow([name, b.n, b.n_true, b.n_fake, b.accuracy, b.macro_f1])


def _metrics(count: dict[str, int]) -> BucketMetrics:
    return BucketMetrics(
        n=sum(count.values()),
        n_true=count["fp"] + count["tn"],
        n_fake=count["tp"] + count["fn"],
        accuracy=_accuracy(count),
        macro_f1=_macro_f1(count),
    )


def bucketed_report(
    preds: Sequence[int],
    labels: Sequence[int],
    ratios: Sequence[float],
    metadata: dict | None = None,
) -> EvalReport:
    if not (len(preds) == len(labels) == len(ratios)):
        raise ValueError("preds, labels, ratios differ in length")
    groups: dict[Bucket, tuple[list, list]] = {b: ([], []) for b in Bucket}
    for p, y, r in zip(preds, labels, ratios):
        ps, ys = groups[bucket_of(r)]
        ps.append(p)
        ys.append(y)
    buckets = {}
    for b, (ps, ys) in groups.items():
        buckets[b.value] = _metrics(_count(ps, ys)) if ps else BucketMetrics()
    confusion = _count(list(preds), list(labels))
    return EvalReport(
        overall=_metrics(confusion),
        buckets=buckets,
        confusion=confusion,
        metadata=metadata or {},
    )


# ---------------------------------------------------------------------------
# Mann-Whitney U


EXACT_LIMIT = 400


def mann_whitney_u(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sided Mann-Whitney test on midranks: (U of `x`, p).

    For n1 * n2 <= EXACT_LIMIT, p is exact, ties included: the share of all
    equal-size subsets of the pooled values whose U lies at least as far
    from n1 * n2 / 2 as the observed one, counted with the shift algorithm
    of Streitberg & Roehmel (1986). Above it, p is the tie-corrected normal
    approximation with continuity correction.
    """
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both groups must be non-empty")
    pooled = np.asarray([*x, *y], dtype=np.float64)
    if not np.isfinite(pooled).all():
        raise ValueError("values must be finite")
    _, group, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks2 = (2 * np.cumsum(counts) - counts + 1)[group]  # doubled midranks
    u = float(ranks2[:n1].sum()) / 2.0 - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    if n1 * n2 <= EXACT_LIMIT:
        # ways[j, s]: j-subsets whose doubled midranks (each <= 2n) sum to s.
        # |U - n1*n2/2| is the same for either group, so counting subsets of
        # the smaller group's size m keeps the table at m + 1 rows.
        m = min(n1, n2)
        ways = np.zeros((m + 1, 2 * m * n + 1), dtype=np.int64)
        ways[0, 0] = 1
        for r in ranks2.tolist():
            ways[1:, r:] += ways[:-1, :-r]
        dev2 = np.abs(np.arange(ways.shape[1]) - m * (m + 1) - n1 * n2)
        hits = ways[m, dev2 >= abs(2.0 * u - n1 * n2)].sum()
        return u, float(hits / ways[m].sum())
    ties = sum(t**3 - t for t in counts.tolist())
    sd = math.sqrt(n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1))))
    z = max(abs(u - n1 * n2 / 2.0) - 0.5, 0.0) / sd if sd else 0.0  # sd 0: all equal
    return u, math.erfc(z / math.sqrt(2.0))


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign test (McNemar's exact test) on paired outcomes.

    `wins` and `losses` count the pairs on which only the first or only the
    second system is right; agreements carry no information and are left
    out. Under the null each disagreement goes either way with probability
    1/2, so p = min(1, 2 P(W <= min(wins, losses))) for W ~ Bin(wins + losses,
    1/2), summed in integers. No disagreements give p = 1.
    """
    wins, losses = operator.index(wins), operator.index(losses)
    if wins < 0 or losses < 0:
        raise ValueError("counts must be >= 0")
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


# ---------------------------------------------------------------------------
# hyperparameter search


@dataclass(frozen=True)
class SearchSpace:
    lam: tuple[float, float] = (0.0, 1.0)
    k1: tuple[int, int] = (1, 100)
    k2: tuple[int, int] = (1, 200)


@dataclass
class Trial:
    number: int
    params: dict
    loss: float | None
    failed: bool = False


class TuneError(RuntimeError):
    """Every trial of a search failed."""


def tune(
    objective: Callable[[dict], float],
    space: SearchSpace,
    budget: int,
    seed: int = 0,
) -> tuple[dict, list[Trial]]:
    """Seeded random search: uniform lambda, log-uniform integer k1/k2. A
    trial whose objective raises or returns a non-finite loss fails; when
    every trial fails, TuneError names the last failure."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    trials: list[Trial] = []
    best_params: dict | None = None
    best_loss = np.inf
    for t in range(budget):
        params = {
            "lam": float(rng.uniform(*space.lam)),
            "k1": _log_uniform_int(rng, *space.k1),
            "k2": _log_uniform_int(rng, *space.k2),
        }
        try:
            loss = float(objective(params))
            if not math.isfinite(loss):
                raise ValueError(f"non-finite loss {loss}")
        except Exception as exc:  # noqa: BLE001 - a failed trial must not kill the search
            logger.warning("trial %d failed: %s", t, exc)
            trials.append(Trial(t, params, None, failed=True))
            last_error = exc
            continue
        trials.append(Trial(t, params, loss))
        if loss < best_loss:
            best_loss = loss
            best_params = params
    if best_params is None:
        raise TuneError(f"all trials failed; the last one with "
                        f"{type(last_error).__name__}: {last_error}")
    return best_params, trials


def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    u = rng.uniform(math.log(lo), math.log(hi))
    return int(min(max(round(math.exp(u)), lo), hi))


def save_trials(trials: list[Trial], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "lam", "k1", "k2", "loss", "failed"])
        for t in trials:
            writer.writerow(
                [t.number, t.params["lam"], t.params["k1"], t.params["k2"],
                 "" if t.loss is None else t.loss, int(t.failed)]
            )
