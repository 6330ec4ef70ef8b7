"""Metrics, bucket reports, the rank-sum test, and random search."""

import csv
import json
import math

import numpy as np
import pytest

from uen.corpus import bucket_of
from uen.evaluation import (
    EXACT_LIMIT,
    SearchSpace,
    Trial,
    TuneError,
    accuracy,
    bucketed_report,
    macro_f1,
    mann_whitney_u,
    save_trials,
    sign_test,
    tune,
)


def test_accuracy_examples():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.75)
    assert accuracy([1, 1], [1, 1]) == 1.0
    assert accuracy([0], [1]) == 0.0


def test_accuracy_errors():
    with pytest.raises(ValueError, match="length"):
        accuracy([0, 1], [0])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])


def test_macro_f1_hand_example():
    # class 0: tp=1 fp=1 fn=0 -> 2/3; class 1: tp=2 fp=0 fn=1 -> 4/5
    assert macro_f1([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx((2 / 3 + 4 / 5) / 2)


def test_macro_f1_degenerate_predictor():
    # all-one predictions: class 0 scores zero, class 1 scores 2/3
    assert macro_f1([1, 1, 1, 1], [0, 1, 0, 1]) == pytest.approx(1 / 3)


def test_macro_f1_absent_class_scores_zero():
    assert macro_f1([1, 1], [1, 1]) == pytest.approx(0.5)


def test_macro_f1_symmetric_under_relabeling():
    rng = np.random.Generator(np.random.PCG64(0))
    preds = rng.integers(0, 2, size=50).tolist()
    labels = rng.integers(0, 2, size=50).tolist()
    flipped = macro_f1([1 - p for p in preds], [1 - y for y in labels])
    assert macro_f1(preds, labels) == pytest.approx(flipped)


def test_bucketed_report_recount_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    n = 200
    preds = rng.integers(0, 2, size=n).tolist()
    labels = rng.integers(0, 2, size=n).tolist()
    ratios = rng.choice([0.0, 0.1, 0.5, 0.51, 1.0], size=n).tolist()
    report = bucketed_report(preds, labels, ratios)
    for name in ("zero", "low", "high"):
        idx = [i for i, r in enumerate(ratios) if bucket_of(r).value == name]
        b = report.buckets[name]
        assert b.n == len(idx)
        assert b.accuracy == pytest.approx(
            accuracy([preds[i] for i in idx], [labels[i] for i in idx]))
        assert b.macro_f1 == pytest.approx(
            macro_f1([preds[i] for i in idx], [labels[i] for i in idx]))
    assert report.overall.n == n
    assert sum(b.n for b in report.buckets.values()) == n
    assert sum(report.confusion.values()) == n


def test_bucketed_report_all_zero_ratios():
    report = bucketed_report([0, 1], [0, 1], [0.0, 0.0])
    assert report.buckets["zero"].n == 2
    assert report.buckets["low"].n == 0
    assert math.isnan(report.buckets["low"].accuracy)
    assert report.buckets["zero"].accuracy == 1.0


def test_bucketed_report_class_counts():
    report = bucketed_report([0, 0, 1], [0, 1, 1], [0.7, 0.7, 0.7])
    b = report.buckets["high"]
    assert (b.n_fake, b.n_true) == (1, 2)


def test_bucket_population_shape():
    counts = {"high": 31_327, "low": 63_915, "zero": 21_397}
    ratios = np.concatenate([
        np.zeros(counts["zero"]),
        np.full(counts["low"], 0.25),
        np.full(counts["high"], 0.75),
    ])
    n = ratios.shape[0]
    preds = [i % 2 for i in range(n)]
    labels = [0] * n
    report = bucketed_report(preds, labels, ratios.tolist())
    assert {k: b.n for k, b in report.buckets.items()} == counts
    assert report.overall.n == 116_639


def test_report_serialization(tmp_path):
    report = bucketed_report([0, 1, 1], [0, 1, 0], [0.0, 0.3, 0.8],
                             metadata={"variant": "full"})
    jpath = tmp_path / "report.json"
    report.save_json(jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["overall"]["n"] == 3
    assert loaded["metadata"]["variant"] == "full"
    cpath = tmp_path / "report.csv"
    report.save_csv(cpath)
    rows = list(csv.reader(cpath.open()))
    assert rows[0][0] == "bucket"
    assert [r[0] for r in rows[1:]] == ["overall", "high", "low", "zero"]


def test_bucketed_report_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        bucketed_report([0], [0, 1], [0.5, 0.5])


@pytest.mark.parametrize("metric", [
    accuracy, macro_f1, lambda p, y: bucketed_report(p, y, [1.0] * len(p))],
    ids=["accuracy", "macro_f1", "bucketed_report"])
@pytest.mark.parametrize("preds, labels", [([2], [2]), ([0, 1], [1, -1]), ([0.5], [0])])
def test_metrics_reject_values_outside_0_1(metric, preds, labels):
    """A class outside {0, 1} fits no confusion cell, so it is an error: it
    used to count as a hit of an accuracy of 1.0 over n=1 with zero cells."""
    with pytest.raises(ValueError, match="must be 0 or 1"):
        metric(preds, labels)


# ---------------------------------------------------------------------------
# Mann-Whitney U


def test_mwu_fully_separated_small_groups():
    u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert u == 0.0
    assert p == pytest.approx(0.1)


def test_mwu_identical_groups():
    _, p = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0])
    assert p == 1.0


def test_mwu_u_statistics_are_complementary():
    rng = np.random.Generator(np.random.PCG64(2))
    x = rng.normal(size=9).tolist()
    y = rng.normal(size=11).tolist()
    u1, p_xy = mann_whitney_u(x, y)
    u2, p_yx = mann_whitney_u(y, x)
    assert u1 + u2 == pytest.approx(len(x) * len(y))
    assert p_xy == pytest.approx(p_yx)


def test_mwu_separated_large_groups():
    x = list(np.linspace(0.0, 1.0, 25))
    y = list(np.linspace(10.0, 11.0, 25))
    assert 25 * 25 > EXACT_LIMIT  # forces the normal path
    _, p = mann_whitney_u(x, y)
    assert p < 1e-6


def test_mwu_exact_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.Generator(np.random.PCG64(3))
    for n1, n2 in [(3, 3), (5, 8), (8, 12), (10, 20)]:
        x = rng.normal(size=n1).tolist()
        y = rng.normal(loc=0.5, size=n2).tolist()
        u, p = mann_whitney_u(x, y)
        ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="exact")
        assert u == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_mwu_normal_path_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.integers(0, 6, size=40).astype(float).tolist()
    y = rng.integers(1, 7, size=40).astype(float).tolist()
    u, p = mann_whitney_u(x, y)
    ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided",
                                   method="asymptotic")
    assert u == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue, rel=1e-6)


def test_mwu_tied_exact_permutation_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    x = [1.0, 2.0, 2.0, 3.0]
    y = [2.0, 4.0, 5.0]
    u, p = mann_whitney_u(x, y)
    ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
    assert u == pytest.approx(ref.statistic)
    # scipy's exact method ignores ties; agreement is approximate here
    assert p == pytest.approx(ref.pvalue, abs=0.05)
    assert 0.0 < p <= 1.0


def test_mwu_exact_vs_normal_agreement():
    # for moderate untied groups the two paths should nearly coincide
    rng = np.random.Generator(np.random.PCG64(5))
    for n1 in (8, 14, 20):
        x = rng.normal(size=n1).tolist()
        y = rng.normal(loc=0.3, size=n1).tolist()
        _, p_exact = mann_whitney_u(x, y)
        n = 2 * n1
        pooled = sorted(x + y)
        ranks = {v: i + 1 for i, v in enumerate(pooled)}
        r1 = sum(ranks[v] for v in x)
        u1 = r1 - n1 * (n1 + 1) / 2.0
        sd = math.sqrt(n1 * n1 * (n + 1) / 12.0)
        z = (abs(u1 - n1 * n1 / 2.0) - 0.5) / sd
        p_norm = 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0))
        assert abs(p_exact - min(p_norm, 1.0)) < 0.02


def test_sign_test_matches_scipy_binomtest():
    scipy_stats = pytest.importorskip("scipy.stats")
    grid = [(w, l) for w in range(13) for l in range(13) if w + l]
    grid += [(47, 5), (5, 47), (60, 60), (200, 171), (0, 900)]
    for wins, losses in grid:
        ref = scipy_stats.binomtest(wins, wins + losses, 0.5).pvalue
        assert sign_test(wins, losses) == pytest.approx(ref, rel=1e-12, abs=1e-300), (wins, losses)


def test_sign_test_edge_cases():
    assert sign_test(0, 0) == 1.0  # no disagreements: nothing to test
    assert sign_test(7, 7) == 1.0
    assert sign_test(np.int64(3), 0) == 0.25  # the two all-one-way outcomes of 3
    for wins, losses in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            sign_test(wins, losses)
    with pytest.raises(TypeError):
        sign_test(2.5, 1)


def test_mwu_empty_group_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


def _enumerated_mwu(x, y):
    """(U, p) by brute force: every n1-subset of the pooled values is a
    possible group x, and p is the share at least as far from n1*n2/2."""
    pooled = np.array([*x, *y], dtype=np.float64)
    n1, n = len(x), len(pooled)
    ranks = np.array([(pooled < v).sum() + ((pooled == v).sum() + 1) / 2 for v in pooled])
    masks = np.arange(1 << n)
    masks = masks[sum((masks >> i) & 1 for i in range(n)) == n1]
    offset, mean = n1 * (n1 + 1) / 2, n1 * (n - n1) / 2
    u = ranks[:n1].sum() - offset
    us = sum(((masks >> i) & 1) * ranks[i] for i in range(n)) - offset
    return float(u), np.count_nonzero(np.abs(us - mean) >= abs(u - mean)) / len(masks)


def test_mwu_equals_subset_enumeration():
    rng = np.random.Generator(np.random.PCG64(6))
    for case in range(60):
        n1 = int(rng.integers(1, 16))
        n2 = int(rng.integers(1, 17 - n1))
        if case % 2:  # tied: a few levels
            levels = int(rng.integers(1, 5))
            x = rng.integers(0, levels, size=n1).astype(float).tolist()
            y = rng.integers(0, levels, size=n2).astype(float).tolist()
        else:
            x = rng.normal(size=n1).tolist()
            y = rng.normal(loc=0.5, size=n2).tolist()
        u, p = mann_whitney_u(x, y)
        assert (type(u), type(p)) == (float, float)
        assert (u, p) == _enumerated_mwu(x, y), (x, y)


def test_mwu_tied_ten_by_ten_is_exact():
    # comb(20, 10) = 184 756 subsets: exact, where a cap on enumeration would
    # have fallen back to the normal approximation (p = 0.184 here, 0.218 exact)
    x = [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
    y = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert mann_whitney_u(x, y) == _enumerated_mwu(x, y)


@pytest.mark.parametrize("swap", [False, True])
def test_mwu_one_against_four_hundred(swap):
    tied = [0.0] * 200 + [1.0] * 100 + [2.0] * 100
    cases = [([398.5], list(range(400)), 399.0, 4 / 401),
             ([2.0], tied, 350.0, 101 / 401)]
    for x, y, u, p in cases:
        if swap:
            assert mann_whitney_u(y, x) == (400 - u, p)
        else:
            assert mann_whitney_u(x, y) == (u, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mwu_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        mann_whitney_u([1.0, bad], [2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        mann_whitney_u([1.0], [bad])


# ---------------------------------------------------------------------------
# random search


def test_tune_budget_one_returns_single_trial():
    best, trials = tune(lambda p: p["lam"], SearchSpace(), budget=1, seed=0)
    assert len(trials) == 1
    assert best == trials[0].params


def test_tune_convex_objective():
    best, trials = tune(lambda p: (p["lam"] - 0.62) ** 2, SearchSpace(),
                        budget=200, seed=0)
    assert abs(best["lam"] - 0.62) < 0.05
    assert len(trials) == 200


def test_tune_respects_space_bounds():
    space = SearchSpace(lam=(0.2, 0.4), k1=(5, 10), k2=(30, 60))
    _, trials = tune(lambda p: 0.0, space, budget=50, seed=1)
    for t in trials:
        assert 0.2 <= t.params["lam"] <= 0.4
        assert 5 <= t.params["k1"] <= 10
        assert 30 <= t.params["k2"] <= 60


def test_tune_deterministic_under_seed():
    obj = lambda p: (p["lam"] - 0.3) ** 2 + p["k1"]
    best_a, trials_a = tune(obj, SearchSpace(), budget=20, seed=7)
    best_b, trials_b = tune(obj, SearchSpace(), budget=20, seed=7)
    assert best_a == best_b
    assert [t.params for t in trials_a] == [t.params for t in trials_b]


def test_tune_survives_failed_trials():
    def flaky(params):
        if params["k1"] > 10:
            raise RuntimeError("boom")
        return params["lam"]

    best, trials = tune(flaky, SearchSpace(), budget=60, seed=2)
    assert any(t.failed for t in trials)
    assert any(not t.failed for t in trials)
    assert best["k1"] <= 10
    assert len(trials) == 60


def test_tune_all_failures_raise():
    def broken(params):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="all trials failed"):
        tune(broken, SearchSpace(), budget=5, seed=0)


def test_tune_all_failures_name_the_last_error():
    calls = []

    def broken(params):
        calls.append(params)
        raise ValueError(f"bad trial {len(calls)}")

    with pytest.raises(TuneError, match="all trials failed; the last one with "
                                        "ValueError: bad trial 3"):
        tune(broken, SearchSpace(), budget=3, seed=0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tune_non_finite_losses_fail_their_trials(tmp_path, bad):
    with pytest.raises(TuneError, match=f"^all trials failed; the last one with "
                                        f"ValueError: non-finite loss {bad}$"):
        tune(lambda p: bad, SearchSpace(), budget=4, seed=0)
    losses = iter([bad, 0.7, -math.inf, math.nan])  # a mix: the finite trial wins
    best, trials = tune(lambda p: next(losses), SearchSpace(), budget=4, seed=0)
    assert best == trials[1].params
    assert [(t.loss, t.failed) for t in trials] == [(None, True), (0.7, False),
                                                    (None, True), (None, True)]
    save_trials(trials, tmp_path / "trials.csv")
    rows = list(csv.reader((tmp_path / "trials.csv").open()))
    assert [(r[4], r[5]) for r in rows[1:]] == [("", "1"), ("0.7", "0"), ("", "1"), ("", "1")]


def test_tune_rejects_zero_budget():
    with pytest.raises(ValueError):
        tune(lambda p: 0.0, SearchSpace(), budget=0)


def test_save_trials_csv(tmp_path):
    trials = [
        Trial(0, {"lam": 0.5, "k1": 3, "k2": 10}, 0.25),
        Trial(1, {"lam": 0.1, "k1": 7, "k2": 20}, None, failed=True),
    ]
    path = tmp_path / "trials.csv"
    save_trials(trials, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["trial", "lam", "k1", "k2", "loss", "failed"]
    assert rows[1][4] == "0.25" and rows[1][5] == "0"
    assert rows[2][4] == "" and rows[2][5] == "1"
