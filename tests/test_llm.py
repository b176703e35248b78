import json

import pytest

from ecrkit import EidConfig, MethodSpec, cluster
from ecrkit.llm import (
    G1,
    G2,
    AnnotationResponse,
    EventDescriptionPool,
    PoolEntry,
    ReplayTransport,
    ResponseError,
    TransportError,
    annotate_corpus,
    build_g1_prompt,
    build_g2_prompt,
    build_pool,
    dedupe_pool,
    marked_sentence,
    parse_response,
    run_to_corpus,
)


def bundle_text(bundle):
    return bundle.system_text + "\n---\n" + bundle.user_text


class TestPromptConstruction:
    def test_marked_sentence(self, acq_corpus):
        m1 = acq_corpus.by_id["m1"]
        marked = marked_sentence(m1)
        assert "<m> " + m1.trigger_text + " </m>" in marked
        assert marked.replace("<m> ", "").replace(" </m>", "") == m1.sentence

    def test_marked_sentence_span_mismatch(self, acq_corpus):
        from ecrkit.corpus import copy_mention
        from ecrkit.llm import PromptError
        broken = copy_mention(acq_corpus.by_id["m1"])
        broken.trigger_text = "XYZZY"
        with pytest.raises(PromptError):
            marked_sentence(broken)

    def test_g1_golden(self, acq_corpus, data_dir):
        m1 = acq_corpus.by_id["m1"]
        bundle = build_g1_prompt(m1, acq_corpus.document_text(m1.doc_id))
        golden = (data_dir / "golden" / "m1.G1.txt").read_text(encoding="utf-8")
        assert bundle_text(bundle) == golden
        assert bundle.strategy == G1

    def test_g2_golden(self, acq_corpus, data_dir, lexicons):
        transport = ReplayTransport(data_dir / "replay_g1.jsonl")
        g1_run = annotate_corpus(acq_corpus, transport, G1)
        pool = dedupe_pool(build_pool(acq_corpus, g1_run), EidConfig(), lexicons)
        bundle = build_g2_prompt(acq_corpus.by_id["m1"], pool)
        golden = (data_dir / "golden" / "m1.G2.txt").read_text(encoding="utf-8")
        assert bundle_text(bundle) == golden
        assert bundle.strategy == G2

    def test_g2_excludes_own_description(self, acq_corpus):
        pool = EventDescriptionPool([
            PoolEntry("m1", "t39", "own description", complete=True),
            PoolEntry("m2", "t39", "other description", complete=True),
            PoolEntry("mX", "t99", "other topic", complete=True),
        ])
        bundle = build_g2_prompt(acq_corpus.by_id["m1"], pool)
        assert "1. other description" in bundle.user_text
        assert "own description\n" in bundle.user_text  # as target, at the end
        assert "other topic" not in bundle.user_text

    def test_g2_empty_pool_marker(self, acq_corpus):
        bundle = build_g2_prompt(acq_corpus.by_id["m1"], EventDescriptionPool())
        assert "(no event descriptions available)" in bundle.user_text

    def test_request_hash_is_content_keyed(self, acq_corpus):
        m1 = acq_corpus.by_id["m1"]
        a = build_g1_prompt(m1, acq_corpus.document_text(m1.doc_id))
        b = build_g1_prompt(m1, acq_corpus.document_text(m1.doc_id))
        c = build_g1_prompt(m1, "different document")
        assert a.request_hash() == b.request_hash()
        assert a.request_hash() != c.request_hash()


class TestParseResponse:
    def test_roundtrip_fixtures(self, data_dir):
        payloads = json.loads(
            (data_dir / "parse_fixtures.json").read_text(encoding="utf-8"))
        assert len(payloads) == 20
        for raw in payloads:
            parsed = parse_response(raw)
            again = parse_response(parsed.render())
            assert again.render() == parsed.render()

    def test_fenced_payload(self):
        raw = 'Sure!\n```json\n{"Roleset ID": "buy.01", "ARG-0": "Acme"}\n```\n'
        r = parse_response(raw)
        assert r.roleset == "buy.01"
        assert r.arg0 == "Acme"

    def test_prose_wrapped_payload(self):
        raw = 'Here is the annotation {"Roleset ID": "sell.01"} as requested.'
        assert parse_response(raw).roleset == "sell.01"

    def test_missing_roleset_is_error(self):
        with pytest.raises(ResponseError, match="Roleset ID"):
            parse_response('{"ARG-0": "Acme"}')

    def test_no_json_is_error(self):
        with pytest.raises(ResponseError, match="JSON"):
            parse_response("I could not annotate this event.")

    def test_bad_time_warns_but_keeps_raw(self):
        r = parse_response(
            '{"Roleset ID": "x.01", "ARG-Time": "sometime in 2007"}')
        assert r.arg_time == "sometime in 2007"
        assert any("ARG-Time" in w for w in r.warnings)

    def test_good_times_accepted(self):
        for t in ("11-12-2007", "1-1-2000", "March-5-1999", "december-31-2020"):
            r = parse_response(
                json.dumps({"Roleset ID": "x.01", "ARG-Time": t}))
            assert r.warnings == [], t

    def test_non_wiki_coref_warns(self):
        r = parse_response(
            '{"Roleset ID": "x.01", "ARG-0 Coreference": "Hewlett-Packard"}')
        assert any("arg0_coref" in w for w in r.warnings)

    def test_extra_keys_ignored(self):
        r = parse_response(
            '{"Roleset ID": "x.01", "Is it a Nested Event?": "No"}')
        assert r.roleset == "x.01"

    def test_is_complete(self):
        full = AnnotationResponse(roleset="x.01", arg0="a", arg1="b",
                                  arg_location="l", arg_time="1-1-2000")
        assert full.is_complete()
        assert not AnnotationResponse(roleset="x.01").is_complete()
        nested = AnnotationResponse(roleset="x.01", arg0="a",
                                    arg1_roleset="y.01", arg_location="l",
                                    arg_time="1-1-2000")
        assert nested.is_complete()


class TestDedupe:
    @staticmethod
    def entry(mid, topic, roleset, arg0, arg1, time="1-1-2000"):
        ann = AnnotationResponse(
            roleset=roleset, arg0=arg0, arg1=arg1,
            arg_location="/wiki/X", arg_time=time,
        ).to_annotation()
        return PoolEntry(mid, topic, f"desc {mid}", complete=True,
                         annotation=ann)

    def test_coreferent_entries_collapse_to_earliest(self, lexicons):
        pool = EventDescriptionPool([
            self.entry("a", "t1", "buy.01", "HP", "EYP"),
            self.entry("b", "t1", "buy.01", "HP", "EYP"),
            self.entry("c", "t1", "sell.01", "HP", "EYP"),
        ])
        deduped = dedupe_pool(pool, EidConfig(), lexicons)
        assert [e.mention_id for e in deduped.entries] == ["a", "c"]

    def test_cross_topic_never_collapses(self, lexicons):
        pool = EventDescriptionPool([
            self.entry("a", "t1", "buy.01", "HP", "EYP"),
            self.entry("b", "t2", "buy.01", "HP", "EYP"),
        ])
        deduped = dedupe_pool(pool, EidConfig(), lexicons)
        assert len(deduped.entries) == 2

    def test_chain_collapses_to_earliest(self, lexicons):
        # a~b share an eid_lt identifier, b~c an eid_n one; a and c share none
        pool = EventDescriptionPool([
            self.entry("a", "t1", "buy.01", "HP", "EYP"),
            self.entry("b", "t1", "buy.01", "HP", "IBM"),
            self.entry("c", "t1", "buy.01", "HP", "IBM", time="2-2-2000"),
        ])
        deduped = dedupe_pool(pool, EidConfig(), lexicons)
        assert [e.mention_id for e in deduped.entries] == ["a"]
        assert len(dedupe_pool(EventDescriptionPool(
            [pool.entries[0], pool.entries[2]]), EidConfig(),
            lexicons).entries) == 2

    def test_idempotent(self, lexicons):
        pool = EventDescriptionPool([
            self.entry("a", "t1", "buy.01", "HP", "EYP"),
            self.entry("b", "t1", "buy.01", "HP", "EYP"),
            self.entry("c", "t1", "sell.01", "EDS", "HP"),
        ])
        once = dedupe_pool(pool, EidConfig(), lexicons)
        twice = dedupe_pool(once, EidConfig(), lexicons)
        assert [e.mention_id for e in once.entries] == \
            [e.mention_id for e in twice.entries]


class TestAnnotateCorpus:
    def test_replay_g1_deterministic(self, acq_corpus, data_dir):
        transport = ReplayTransport(data_dir / "replay_g1.jsonl")
        run1 = annotate_corpus(acq_corpus, transport, G1)
        run2 = annotate_corpus(acq_corpus, transport, G1)
        assert run1.stable_hash() == run2.stable_hash()
        assert not run1.failures
        assert set(run1.responses) == set(acq_corpus.by_id)

    def test_replay_g2_deterministic(self, acq_corpus, data_dir, lexicons):
        transport = ReplayTransport(data_dir / "replay_g1.jsonl")
        run1 = annotate_corpus(acq_corpus, transport, G2, lexicons=lexicons)
        run2 = annotate_corpus(acq_corpus, transport, G2, lexicons=lexicons)
        assert run1.stable_hash() == run2.stable_hash()
        assert not run1.failures

    def test_missing_recording_becomes_failure(self, acq_corpus, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        run = annotate_corpus(acq_corpus, ReplayTransport(empty), G1)
        assert not run.responses
        assert len(run.failures) == len(acq_corpus.mentions)
        assert all(f.retries == 2 for f in run.failures)

    def test_unknown_strategy_rejected(self, acq_corpus, data_dir):
        transport = ReplayTransport(data_dir / "replay_g1.jsonl")
        with pytest.raises(ValueError, match="strategy"):
            annotate_corpus(acq_corpus, transport, "G3")

    def test_run_to_corpus_is_clusterable(self, acq_corpus, data_dir, lexicons):
        transport = ReplayTransport(data_dir / "replay_g1.jsonl")
        run = annotate_corpus(acq_corpus, transport, G1)
        annotated = run_to_corpus(acq_corpus, run)
        part = cluster(annotated,
                       MethodSpec(base="eid_n", annotator=G1), lexicons)
        assert part.index["m1"] == part.index["m2"]

    def test_parse_failure_recorded(self, acq_corpus, data_dir):
        class Garbage:
            def __call__(self, prompt):
                from ecrkit.llm import TransportResult
                return TransportResult(text="not json at all")

        run = annotate_corpus(acq_corpus, Garbage(), G1)
        assert not run.responses
        assert all("JSON" in f.error for f in run.failures)
