"""Corpus loading, validation, temporal splits, and overlap buckets."""

import json
import re
from dataclasses import replace

import pytest

from uen.corpus import (
    Bucket,
    Corpus,
    CorpusError,
    bucket_of,
    corpus_users,
    load_corpus,
    overlap_ratio,
    reply_order,
    sample_to_record,
    save_corpus,
    temporal_split,
    validate_sample,
)
from uen.synth import SynthConfig, generate

from conftest import chain_sample, make_comment, make_sample, star_sample, toy_corpus


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(post_id, comments, author="u_post", label=0, timestamp=10):
    return {
        "post_id": post_id,
        "author": author,
        "text_key": f"text {post_id}",
        "timestamp": timestamp,
        "label": label,
        "comments": comments,
    }


def comment_rec(cid, parent, author="u_c"):
    return {"id": cid, "author": author, "parent": parent,
            "text_key": f"text {cid}", "timestamp": 11}


def test_load_drops_zero_comment_samples(tmp_path):
    recs = [record(f"p{i}", [comment_rec(f"p{i}c0", f"p{i}")]) for i in range(3)]
    recs.append(record("p_empty", []))
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, recs)
    corpus, report = load_corpus(path)
    assert len(corpus) == 3
    assert report.loaded == 3
    assert report.dropped_zero_comment == 1
    assert json.loads(report.to_json())["dropped_zero_comment"] == 1


def test_load_dangling_parent_names_comment(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("p1", [comment_rec("c1", "nope")])])
    with pytest.raises(CorpusError, match="c1"):
        load_corpus(path)


def test_tweet_style_assigns_common_author(tmp_path):
    recs = [record(f"p{i}", [comment_rec(f"p{i}c0", f"p{i}")]) for i in range(2)]
    del recs[0]["author"]
    recs[1]["author"] = None  # a JSON null author counts as absent
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, recs)
    corpus, _ = load_corpus(path, mode="tweet-style")
    assert corpus.common_author == "__common__"
    for s in corpus.samples:
        assert s.author is None
        assert s.resolved_author(corpus.common_author) == "__common__"


def test_reddit_style_requires_author(tmp_path):
    rec = record("p1", [comment_rec("c1", "p1")])
    del rec["author"]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError, match="author"):
        load_corpus(path, mode="reddit-style")


def test_load_reports_line_number_on_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record("p1", [comment_rec("c1", "p1")])) + "\n")
        fh.write("{not json\n")
    with pytest.raises(CorpusError, match=":2"):
        load_corpus(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "null", "3"])
def test_load_rejects_json_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record("p1", [comment_rec("c1", "p1")])) + "\n" + line + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"corpus.jsonl:2: record is a JSON \w+, not an object"):
        load_corpus(path)


@pytest.mark.parametrize("field,value", [("label", 2), ("label", -1), ("label", 7.5),
                                         ("timestamp", float("inf")), ("label", float("-inf")),
                                         ("label", 0.7), ("label", True), ("label", "1"),
                                         ("timestamp", 1.5)])
def test_load_rejects_bad_label_or_timestamp(tmp_path, field, value):
    """A label or timestamp must be a JSON integer: no float, bool or string
    is truncated or parsed into one."""
    rec = record("p1", [comment_rec("c1", "p1")])
    rec[field] = value
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError, match="corpus.jsonl:1: "):
        load_corpus(path)


@pytest.mark.parametrize("where,field,value", [
    ("post", "post_id", 7), ("post", "text_key", None), ("post", "text_key", ["a"]),
    ("post", "author", {"k": 1}), ("post", "author", 3), ("comment", "id", 1),
    ("comment", "author", None), ("comment", "author", {"k": 1}),
    ("comment", "parent", ["p1"]), ("comment", "text_key", None),
    ("comment", "text_key", ["a"]),
])
def test_load_rejects_ids_and_keys_that_are_not_strings(tmp_path, where, field, value):
    """Ids, authors, parents and text keys must be JSON strings: a null, number,
    list or object is not turned into the user or key "None", "3" or "['a']"."""
    rec = record("p1", [comment_rec("c1", "p1")])
    (rec if where == "post" else rec["comments"][0])[field] = value
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError, match=rf"corpus.jsonl:1: .*{field} .* is not a JSON string"):
        load_corpus(path)


def test_load_rejects_duplicate_post_id(tmp_path):
    recs = [record("p1", [comment_rec("c1", "p1")]),
            record("p1", [comment_rec("c2", "p1")])]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, recs)
    with pytest.raises(CorpusError, match="duplicate post_id"):
        load_corpus(path)


def test_validate_rejects_duplicate_comment_id():
    s = make_sample("p1", comments=[
        make_comment("c1", "a", "p1"), make_comment("c1", "b", "p1")])
    with pytest.raises(CorpusError, match="duplicate id"):
        validate_sample(s)


def test_validate_rejects_empty_author():
    s = make_sample("p1", comments=[make_comment("c1", "", "p1")])
    with pytest.raises(CorpusError, match="empty author"):
        validate_sample(s)


@pytest.mark.parametrize("sample, message", [
    (make_sample(""), "empty post_id"),
    (replace(make_sample("p1"), text_key=""), "sample 'p1': empty text_key"),
    (make_sample("p1", author=""), "sample 'p1': empty author string"),
    (make_sample("p1", label=2), "sample 'p1': label 2 is neither 0 nor 1"),
    (make_sample("p1", comments=[make_comment("", "a", "p1")]),
     "sample 'p1': comment with empty id"),
    (make_sample("p1", comments=[make_comment("p1", "a", "p1")]),
     "duplicate id 'p1' in sample 'p1'"),
    (make_sample("p1", comments=[make_comment("c1", "", "p1")]),
     "comment 'c1': empty author string"),
    (make_sample("p1", comments=[replace(make_comment("c1", "a", "p1"), text_key="")]),
     "comment 'c1': empty text_key"),
    (make_sample("p1", comments=[make_comment("c1", "a", "p1"),
                                 make_comment("c2", "a", "c9")]),
     "comment 'c2': dangling parent reference 'c9'"),
    # the first failing check is the one reported: ids before parents
    (make_sample("p1", comments=[make_comment("c1", "a", "c9"),
                                 make_comment("c1", "a", "p1")]),
     "duplicate id 'c1' in sample 'p1'"),
], ids=["post-id", "text-key", "author", "label", "comment-id", "duplicate",
        "comment-author", "comment-text-key", "dangling", "duplicate-first"])
def test_validate_names_the_first_failing_check(sample, message):
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        validate_sample(sample)


def test_validate_rejects_parent_cycle():
    s = make_sample("p1", comments=[
        make_comment("c1", "a", "c2"), make_comment("c2", "b", "c1")])
    with pytest.raises(CorpusError, match="cycle"):
        validate_sample(s)


def test_reply_order_puts_each_comment_after_its_parent():
    in_order = [make_comment("c1", "a", "p1"), make_comment("c2", "b", "c1"),
                make_comment("c3", "c", "p1")]
    assert reply_order(make_sample("p1", comments=in_order)) == tuple(in_order)
    shuffled = make_sample("p1", comments=[in_order[1], in_order[2], in_order[0]])
    assert [c.id for c in reply_order(shuffled)] == ["c3", "c1", "c2"]


@pytest.mark.parametrize("comments, end", [
    ([("c1", "p1"), ("c2", "c3"), ("c3", "c2")], "cycle: 'c2' -> 'c3' -> 'c2'"),
    ([("c1", "c1")], "cycle: 'c1' -> 'c1'"),
    ([("c4", "c2"), ("c2", "c3"), ("c3", "c2")], "cycle: 'c4' -> 'c2' -> 'c3' -> 'c2'"),
    ([("c1", "p1"), ("c2", "nope")], "parent outside the sample: 'c2' -> 'nope'"),
])
def test_reply_order_names_a_chain_that_never_reaches_the_post(comments, end):
    s = make_sample("p1", comments=[make_comment(cid, "a", parent) for cid, parent in comments])
    with pytest.raises(CorpusError, match=f"^sample 'p1': a reply chain never reaches the "
                                          f"post \\({end}\\)$"):
        reply_order(s)


def test_round_trip(tmp_path):
    corpus = toy_corpus()
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded, _ = load_corpus(path)
    assert loaded.samples == corpus.samples


def test_sample_edges_form_tree():
    s = chain_sample(depth=4)
    edges = s.edges()
    assert len(edges) == len(s.comments)
    # every comment reaches the post: node count = edge count + 1
    nodes = {s.post_id} | {c.id for c in s.comments}
    assert len(nodes) == len(edges) + 1
    validate_sample(s)


def test_temporal_split_sizes_and_order():
    samples = [star_sample(f"p{i}", timestamp=i + 1) for i in range(10)]
    split = temporal_split(Corpus(samples=tuple(samples)))
    assert [len(split.train), len(split.val), len(split.test)] == [7, 1, 2]
    assert [s.timestamp for s in split.train] == list(range(1, 8))
    assert [s.timestamp for s in split.test] == [9, 10]


def test_temporal_split_tie_break_by_post_id():
    samples = [star_sample(f"p{i}", timestamp=5) for i in range(10)]
    split = temporal_split(Corpus(samples=tuple(samples)))
    ordered = [s.post_id for s in split.train + split.val + split.test]
    assert ordered == sorted(ordered)
    assert len(split.train) == 7


def test_temporal_split_partition_and_monotonicity():
    corpus = generate(SynthConfig(n_samples=1000, n_users=60, seed=3))
    split = temporal_split(corpus)
    assert [len(split.train), len(split.val), len(split.test)] == [700, 100, 200]
    all_ids = sorted(s.post_id for s in corpus.samples)
    split_ids = sorted(
        s.post_id for part in (split.train, split.val, split.test) for s in part
    )
    assert all_ids == split_ids
    assert max(s.timestamp for s in split.train) <= min(s.timestamp for s in split.val)
    assert max(s.timestamp for s in split.val) <= min(s.timestamp for s in split.test)


@pytest.mark.parametrize("ratios, name", [
    ((-0.5, 1.0, 0.5), "train"),
    ((0.7, float("nan"), 0.2), "val"),
    ((0.5, 0.5, float("inf")), "test"),
    ((0.5, 0.5, -0.0 - 1e-12), "test"),
])
def test_temporal_split_rejects_negative_and_non_finite_ratios(ratios, name):
    corpus = Corpus(samples=tuple(star_sample(f"p{i}", timestamp=i) for i in range(50)))
    with pytest.raises(ValueError, match=f"^{name} split ratio must be finite and >= 0"):
        temporal_split(corpus, ratios)


@pytest.mark.parametrize("ratios, name", [
    ((1.0, 0.0, 0.0), "val"),
    ((0.0, 0.0, 1.0), "train"),
    ((0.5, 0.5, 0.0), "test"),
    ((0.7, -0.0, 0.3), "val"),
])
def test_temporal_split_rejects_zero_ratios(ratios, name):
    """A zero part used to be clamped to one sample without a word."""
    corpus = Corpus(samples=tuple(star_sample(f"p{i}", timestamp=i) for i in range(50)))
    with pytest.raises(ValueError, match=f"^{name} split ratio must be > 0: every part "
                                         "needs a sample$"):
        temporal_split(corpus, ratios)


@pytest.mark.parametrize("ratios", [(0.9, 0.1), (0.5, 0.2, 0.2, 0.1), (1.0,), ()])
def test_temporal_split_rejects_ratios_not_three(ratios):
    """Two shares used to give parts of 90/9/1 on 100 samples, and a fourth
    share was ignored."""
    corpus = Corpus(samples=tuple(star_sample(f"p{i}", timestamp=i) for i in range(100)))
    with pytest.raises(ValueError, match="^split ratios must be three shares \\(train, val, "
                                         f"test\\), got {len(ratios)}$"):
        temporal_split(corpus, ratios)


def test_temporal_split_rejects_small_and_unlabeled():
    with pytest.raises(CorpusError, match="too small"):
        temporal_split(Corpus(samples=tuple([star_sample("p1")])))
    samples = [star_sample(f"p{i}", timestamp=i) for i in range(10)]
    samples[3] = make_sample("px", comments=[make_comment("cx", "a", "px")],
                             timestamp=3, label=None)
    with pytest.raises(CorpusError, match="unlabeled"):
        temporal_split(Corpus(samples=tuple(samples)))


def test_overlap_ratio_examples():
    s = star_sample("p1", author="a", commenters=("b",))
    assert overlap_ratio(s, {"a", "b", "c"}) == 1.0
    assert overlap_ratio(s, {"c"}) == 0.0
    s4 = star_sample("p2", author="a", commenters=("b", "c", "d"))
    assert overlap_ratio(s4, {"a", "c"}) == 0.5


def test_bucket_of_boundaries():
    assert bucket_of(0.5) is Bucket.LOW
    assert bucket_of(0.0) is Bucket.ZERO
    assert bucket_of(0.51) is Bucket.HIGH
    assert bucket_of(1.0) is Bucket.HIGH
    with pytest.raises(ValueError):
        bucket_of(1.01)
    with pytest.raises(ValueError):
        bucket_of(-0.1)
    with pytest.raises(ValueError, match="outside"):
        bucket_of(float("nan"))


def test_bucket_counts_sum_to_test_size():
    corpus = generate(SynthConfig(n_samples=200, n_users=40, seed=1))
    split = temporal_split(corpus)
    known = corpus_users(split.train)
    counts = {b: 0 for b in Bucket}
    for s in split.test:
        counts[bucket_of(overlap_ratio(s, known))] += 1
    assert sum(counts.values()) == len(split.test)


def test_corpus_users_union_oracle():
    corpus = toy_corpus()
    expected = set()
    for s in corpus.samples:
        expected |= {s.author} | {c.author for c in s.comments}
    assert corpus_users(corpus.samples) == expected


def test_sample_to_record_omits_optional_fields():
    comment = {"id": "c1", "author": "a", "parent": "p1", "text_key": "text c1",
               "timestamp": 100}
    s = make_sample("p1", comments=[make_comment("c1", "a", "p1")])
    assert sample_to_record(s) == {"post_id": "p1", "author": "poster", "text_key": "text p1",
                                   "timestamp": 10, "label": 0, "comments": [comment]}
    bare = make_sample("p1", author=None, label=None,
                       comments=[make_comment("c1", "a", "p1")])
    assert sample_to_record(bare) == {"post_id": "p1", "text_key": "text p1",
                                      "timestamp": 10, "comments": [comment]}


def test_save_load_roundtrip_tweet_style_without_author_or_label(tmp_path):
    samples = (make_sample("p1", author=None, label=None,
                           comments=[make_comment("c1", "a", "p1"),
                                     make_comment("c2", "b", "c1", timestamp=101)]),
               make_sample("p2", author=None, label=None, timestamp=11,
                           comments=[make_comment("c3", "a", "p2")]))
    save_corpus(Corpus(samples=samples), tmp_path / "corpus.jsonl")
    loaded, report = load_corpus(tmp_path / "corpus.jsonl", mode="tweet-style")
    assert loaded.samples == samples and report.loaded == 2
