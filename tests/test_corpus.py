import json

import pytest

from ecrkit import (
    CorpusError,
    load_corpus,
    load_lexicons,
    resolve_nested_links,
    subset,
)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def make_record(mid, gold="A", doc="d1", sid=0, annotations=None, **overrides):
    sentence = "HP acquired EYP today."
    rec = {
        "mention_id": mid, "topic_id": "t1", "doc_id": doc,
        "sentence_id": sid, "sentence": sentence,
        "trigger_text": "acquired", "trigger_start": 3, "trigger_end": 11,
        "lemma": "acquire", "gold_cluster": gold, "split": "dev",
        "annotations": annotations or {
            "A1": {"roleset": "acquire.01", "arg0": "HP",
                   "arg1": {"kind": "entity", "text": "EYP"}}
        },
    }
    rec.update(overrides)
    return rec


def test_gold_partition_from_labels(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [make_record("m1", "A"), make_record("m2", "A"),
                       make_record("m3", "B"), make_record("m4", 7)])
    corpus = load_corpus(path)
    assert corpus.gold.as_sets() == {frozenset({"m1", "m2"}), frozenset({"m3"}),
                                     frozenset({"m4"})}
    assert corpus.mention_ids() == ["m1", "m2", "m3", "m4"]


def test_inverted_span_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [make_record("m1", trigger_start=5, trigger_end=2)])
    with pytest.raises(CorpusError, match="line 1.*span start exceeds end"):
        load_corpus(path)


def test_span_must_slice_trigger(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [make_record("m1", trigger_start=0, trigger_end=2)])
    with pytest.raises(CorpusError, match="trigger span slices"):
        load_corpus(path)


def test_duplicate_mention_id_names_both_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [make_record("m1"), make_record("m1")])
    with pytest.raises(CorpusError, match="line 2.*first seen at line 1"):
        load_corpus(path)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"mention_id": "m1"\nnot json\n')
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


def test_roundtrip_identical(tmp_path, acq_corpus):
    out = tmp_path / "round.jsonl"
    acq_corpus.save(out)
    reloaded = load_corpus(out)
    resolve_nested_links(reloaded)  # resolution state is derived, not serialized
    assert reloaded.to_jsonl() == acq_corpus.to_jsonl()
    assert reloaded.mention_ids() == acq_corpus.mention_ids()
    for mid in reloaded.by_id:
        a, b = reloaded.by_id[mid], acq_corpus.by_id[mid]
        assert a.annotations == {k: v for k, v in b.annotations.items()}


def test_gold_partition_is_exhaustive_and_disjoint(acq_corpus):
    covered = [m for cluster in acq_corpus.gold.clusters for m in cluster]
    assert sorted(covered) == sorted(acq_corpus.mention_ids())
    assert len(covered) == len(set(covered))


def test_lexicon_parse(tmp_path):
    vn = tmp_path / "vn.tsv"
    vn.write_text("# comment\nacquire.01\t13.5.1\nacquire.01\t13.5.2\n")
    alias = tmp_path / "alias.tsv"
    alias.write_text("hewlett-packard\tHP\nhp\tHP\n")
    lex = load_lexicons(vn, alias)
    assert lex.vn_classes["acquire.01"] == {"13.5.1", "13.5.2"}
    assert lex.aliases["hewlett-packard"] == "HP"
    assert lex.aliases["hp"] == "HP"


def test_lexicon_blank_field_rejected(tmp_path):
    vn = tmp_path / "vn.tsv"
    vn.write_text("acquire.01\t\n")
    alias = tmp_path / "alias.tsv"
    alias.write_text("")
    with pytest.raises(CorpusError, match="line 1"):
        load_lexicons(vn, alias)


class TestNestedResolution:
    def test_same_document_roleset_match(self, acq_corpus):
        arg1 = acq_corpus.by_id["m4"].annotations["A1"].arg1
        assert arg1.linked_mention == "m4s"
        sign_arg1 = acq_corpus.by_id["m4s"].annotations["A1"].arg1
        assert sign_arg1.linked_mention == "m1"

    def test_unresolved_reported(self, tmp_path):
        records = [make_record("m1", annotations={
            "A1": {"roleset": "announce.01",
                   "arg1": {"kind": "event", "roleset": "sign.02"}}
        })]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, records)
        corpus = load_corpus(path)
        _, report = resolve_nested_links(corpus)
        assert report.unresolved == [
            ("m1", "A1", "sign.02", "no same-document match")
        ]

    def test_nearest_sentence_tiebreak(self, tmp_path):
        target_ann = {"A1": {"roleset": "sign.02", "arg0": "HP"}}
        records = [
            make_record("far", sid=9, annotations=target_ann),
            make_record("near", sid=2, annotations=target_ann),
            make_record("src", sid=1, annotations={
                "A1": {"roleset": "announce.01",
                       "arg1": {"kind": "event", "roleset": "sign.02"}}
            }),
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, records)
        corpus = load_corpus(path)
        _, report = resolve_nested_links(corpus)
        assert corpus.by_id["src"].annotations["A1"].arg1.linked_mention == "near"
        assert len(report.ambiguous) == 1

    def test_cycle_broken_and_reported(self, tmp_path):
        records = [
            make_record("a", annotations={
                "A1": {"roleset": "announce.01",
                       "arg1": {"kind": "event", "roleset": "sign.02"}}}),
            make_record("b", annotations={
                "A1": {"roleset": "sign.02",
                       "arg1": {"kind": "event", "roleset": "announce.01"}}}),
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, records)
        corpus = load_corpus(path)
        _, report = resolve_nested_links(corpus)
        links = {
            mid: corpus.by_id[mid].annotations["A1"].arg1.linked_mention
            for mid in ("a", "b")
        }
        assert links["a"] == "b"
        assert links["b"] is None
        assert any("cycle" in entry[3] for entry in report.unresolved)

    def test_idempotent(self, acq_corpus):
        def snapshot(c):
            return {
                (m.mention_id, a): ann.arg1.linked_mention
                for m in c.mentions for a, ann in m.annotations.items()
                if ann.arg1 is not None and ann.arg1.kind == "event"
            }

        _, report1 = resolve_nested_links(acq_corpus)
        first = snapshot(acq_corpus)
        _, report2 = resolve_nested_links(acq_corpus)
        assert snapshot(acq_corpus) == first
        assert report1.resolved == report2.resolved
        assert report1.unresolved == report2.unresolved

    def test_chains_terminate(self, acq_corpus):
        for m in acq_corpus.mentions:
            for annotator, ann in m.annotations.items():
                steps = 0
                current = ann
                while (current.arg1 is not None and current.arg1.kind == "event"
                       and current.arg1.linked_ref is not None):
                    current = current.arg1.linked_ref.annotations[annotator]
                    steps += 1
                    assert steps <= len(acq_corpus)


class TestSubset:
    def test_identity(self, acq_corpus):
        sub = subset(acq_corpus, acq_corpus.mention_ids())
        assert sub.mention_ids() == acq_corpus.mention_ids()
        assert sub.gold == acq_corpus.gold

    def test_gold_restricted(self, acq_corpus):
        sub = subset(acq_corpus, ["m1", "m4"])
        assert sub.gold.as_sets() == {frozenset({"m1"}), frozenset({"m4"})}

    def test_unknown_id_listed(self, acq_corpus):
        with pytest.raises(ValueError, match="nope"):
            subset(acq_corpus, ["m1", "nope"])

    def test_split_selector(self, acq_corpus):
        sub = subset(acq_corpus, "dev")
        assert len(sub) == len(acq_corpus)

    def test_empty_selector_rejected(self, acq_corpus):
        with pytest.raises(ValueError, match="empty"):
            subset(acq_corpus, [])
