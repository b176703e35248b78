import json

import pytest

from ecrkit import (
    MethodSpec,
    Partition,
    cluster,
    diagnose,
    pairwise_oracle,
    run_bench,
    synth_expand,
)
from ecrkit.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, _specs_from_file, \
    main
from ecrkit.cluster import bucket_keys, pair_mass
from ecrkit.corpus import ArgValue, EventAnnotation
from ecrkit.harness import _bench_corpora
from ecrkit.synthetic import random_corpus, synthetic_lexicons
from test_cluster import METHOD_MATRIX

LEX = synthetic_lexicons()


def piece_walk_pairs(gold, pred):
    """Reference mismatch pairs: each cluster's members grouped into pieces
    by their cluster on the other side, each piece represented by its first
    (smallest) member, pieces in the other side's order; gold clusters give
    the "split" pairs, then predicted clusters the "merged" pairs."""
    pairs = []
    for kind, outer, inner in (("split", gold, pred), ("merged", pred, gold)):
        for members in outer.clusters:
            pieces = {}
            for mid in members:
                pieces.setdefault(inner.index[mid], mid)
            reps = [pieces[k] for k in sorted(pieces)]
            pairs += [(kind, reps[i], reps[j])
                      for i in range(len(reps)) for j in range(i + 1, len(reps))]
    return pairs


class TestSynthExpand:
    def test_identity_at_source_size(self):
        corpus = random_corpus(30, seed=2)
        assert synth_expand(corpus, 30) is corpus

    def test_exact_target_count(self):
        corpus = random_corpus(30, seed=2)
        for target in (31, 45, 60, 97):
            assert len(synth_expand(corpus, target)) == target

    def test_shrinking_rejected(self):
        corpus = random_corpus(30, seed=2)
        with pytest.raises(ValueError, match="smaller"):
            synth_expand(corpus, 10)

    def test_guard(self):
        corpus = random_corpus(30, seed=2)
        with pytest.raises(ValueError, match="guard"):
            synth_expand(corpus, 10_000_000)

    def test_duplicates_cluster_with_source(self):
        from ecrkit import bucket_keys
        corpus = random_corpus(40, seed=7)
        expanded = synth_expand(corpus, 90)
        for spec in (MethodSpec(base="eid_n", annotator="A1"),
                     MethodSpec(base="eid_lt", annotator="A1")):
            part = pairwise_oracle(expanded, spec, LEX)
            keys = bucket_keys(expanded, spec, LEX)
            for m in expanded.mentions:
                src, _, _ = m.mention_id.partition("_dup")
                if keys[m.mention_id]:
                    assert part.index[m.mention_id] == part.index[src]
                else:
                    # identifier-less mentions stay singletons, duplicate or not
                    assert len(part.clusters[part.index[m.mention_id]]) == 1

    def test_expansion_preserves_gold_labels(self):
        corpus = random_corpus(40, seed=7)
        expanded = synth_expand(corpus, 90)
        for m in expanded.mentions:
            src, _, _ = m.mention_id.partition("_dup")
            assert m.gold_cluster == expanded.by_id[src].gold_cluster


class TestBench:
    def test_small_run_shape(self):
        corpus = random_corpus(50, seed=4)
        sizes = [100, 200, 300]
        result = run_bench(corpus, sizes,
                           MethodSpec(base="eid_n", annotator="A1"), LEX,
                           repeats=1)
        assert result.sizes == sizes
        assert len(result.wall_times_s) == 3
        assert len(result.cpu_times_s) == 3
        assert all(t > 0 for t in result.wall_times_s)
        assert len(result.pair_mass) == 3
        assert -1.0 <= result.r_squared <= 1.0
        csv_text = result.to_csv()
        assert "slope_s_per_mention" in csv_text
        assert "r_squared" in csv_text

    def test_unsorted_sizes_rejected(self):
        corpus = random_corpus(50, seed=4)
        with pytest.raises(ValueError, match="increasing"):
            run_bench(corpus, [200, 100],
                      MethodSpec(base="lem"), LEX, repeats=1)

    def test_size_below_corpus_rejected(self):
        corpus = random_corpus(50, seed=4)
        with pytest.raises(ValueError, match="smaller"):
            run_bench(corpus, [40, 100], MethodSpec(base="lem"), LEX,
                      repeats=1)

    @pytest.mark.parametrize("spec, masses", [
        (MethodSpec(base="eid_n", annotator="A1"), [45, 270, 675]),
        (MethodSpec(base="eid_lt_vn", combiner="or", second="pb",
                    annotator="A1", annotator_mode="or",
                    second_annotator="A2"), [936, 4032, 9288]),
        (MethodSpec(base="lem"), [1018, 4172, 9462]),
    ])
    def test_pair_mass_unchanged(self, spec, masses):
        # Values recorded from the benchmark when it still expanded the
        # corpus afresh for every size.
        corpus = random_corpus(50, seed=4)
        sizes = [100, 200, 300]
        result = run_bench(corpus, sizes, spec, LEX, repeats=2)
        assert result.pair_mass == masses
        assert masses == [
            pair_mass(bucket_keys(synth_expand(corpus, size), spec, LEX))
            for size in sizes
        ]


def _self_linking_corpus(tmp_path):
    """Two same-document mentions; m0's eventive ARG-1 names its own
    roleset, so once m0 is duplicated its link moves from m1 to its nearer
    duplicate."""
    from ecrkit import load_corpus, resolve_nested_links

    def record(mid, sentence_id, arg0, arg1):
        return {"mention_id": mid, "topic_id": "t", "doc_id": "d",
                "sentence_id": sentence_id, "sentence": "X said it.",
                "trigger_text": "said", "trigger_start": 2, "trigger_end": 6,
                "lemma": "say", "gold_cluster": "g", "split": "dev",
                "annotations": {"A1": {"roleset": "say.01", "arg0": arg0,
                                       "arg1": arg1}}}

    path = tmp_path / "self_link.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in [
        record("m0", 0, "X", {"kind": "event", "roleset": "say.01"}),
        record("m1", 5, "Y", {"kind": "entity", "text": "Z"}),
    ]) + "\n")
    corpus = load_corpus(path)
    resolve_nested_links(corpus)
    return corpus


class TestBenchCorpora:
    SPECS = (
        MethodSpec(base="eid_n", annotator="A1"),
        MethodSpec(base="eid_lt", annotator="A1"),
        MethodSpec(base="eid_n_vn", combiner="or", second="eid_lt",
                   annotator="A1", annotator_mode="or",
                   second_annotator="A2"),
    )

    def assert_prefixes_match_fresh(self, corpus, sizes, repeats=2):
        seen = []
        largest = synth_expand(corpus, sizes[-1])
        for rnd, size, expanded in _bench_corpora(corpus, largest, sizes,
                                                  repeats):
            seen.append((rnd, size))
            fresh = synth_expand(corpus, size)
            assert expanded.mention_ids() == fresh.mention_ids()
            for spec in self.SPECS:
                keys = bucket_keys(expanded, spec, LEX)
                assert keys == bucket_keys(fresh, spec, LEX)
                assert pair_mass(keys) == pair_mass(
                    bucket_keys(fresh, spec, LEX))
                assert cluster(expanded, spec, LEX) == \
                    cluster(fresh, spec, LEX)
        assert seen == [(r, s) for r in range(repeats) for s in sizes]

    def test_prefixes_equal_fresh_expansion(self):
        self.assert_prefixes_match_fresh(random_corpus(60, seed=3),
                                         [60, 97, 150, 240])

    def test_prefix_links_resolved_again(self, tmp_path):
        corpus = _self_linking_corpus(tmp_path)
        small = synth_expand(corpus, 2).by_id["m0"].annotations["A1"]
        large = synth_expand(corpus, 4).by_id["m0"].annotations["A1"]
        # the largest expansion alone would give m0 another link target
        assert small.arg1.linked_mention == "m1"
        assert large.arg1.linked_mention != "m1"
        self.assert_prefixes_match_fresh(corpus, [2, 3, 4], repeats=3)


class TestDiagnose:
    def test_perfect_run_has_no_mismatches(self):
        corpus = random_corpus(30, seed=9)
        report = diagnose(corpus, corpus.gold,
                          MethodSpec(base="eid_n", annotator="A1"), LEX)
        assert report.mismatches == []

    def test_split_and_merge_detected(self, acq_corpus, lexicons):
        # put coreferent m1/m2 apart and unrelated m1/m3 together
        others = [m for m in acq_corpus.mention_ids()
                  if m not in ("m1", "m2", "m3")]
        pred = Partition([["m1", "m3"], ["m2"]] + [[m] for m in others])
        spec = MethodSpec(base="eid_n_vn", annotator="A1")
        report = diagnose(acq_corpus, pred, spec, lexicons)
        kinds = {(e.kind, e.mention_a, e.mention_b) for e in report.mismatches}
        assert ("split", "m1", "m2") in kinds
        assert ("merged", "m1", "m3") in kinds

    def test_no_vn_class_category(self, lexicons):
        corpus = random_corpus(60, seed=12)
        spec = MethodSpec(base="pb_vn", annotator="A1")
        pred = cluster(corpus, spec, LEX)
        report = diagnose(corpus, pred, spec, lexicons)
        # synthetic vocabulary includes rolesets absent from the VN fixture
        cats = {c for e in report.mismatches for c in e.categories}
        assert "no VN class" in cats

    @pytest.mark.parametrize("spec", [
        MethodSpec(base="pb", annotator="A1"),
        MethodSpec(base="eid_n", combiner="or", second="eid_lt",
                   annotator="A1"),
    ], ids=MethodSpec.name)
    def test_no_vn_class_only_for_vn_methods(self, spec, lexicons):
        corpus = random_corpus(60, seed=12)
        report = diagnose(corpus, cluster(corpus, spec, LEX), spec, lexicons)
        assert report.mismatches
        cats = {c for e in report.mismatches for c in e.categories}
        assert "no VN class" not in cats

    def test_hints_read_every_annotator(self, lexicons):
        # A1's roleset has a VN class and A1 has no arguments; only A2's
        # annotations give "no VN class" and "alias miss" hints
        corpus = random_corpus(60, seed=12)
        for i, m in enumerate(corpus.mentions):
            loc = ArgValue("New York" if i % 2 else "New York City")
            m.annotations = {"A1": EventAnnotation(roleset="acquire.01"),
                             "A2": EventAnnotation(roleset="zz.01",
                                                   arg_loc=loc)}
        pred = Partition([[mid] for mid in corpus.mention_ids()])

        def categories(**annotators):
            spec = MethodSpec(base="eid_n_vn", **annotators)
            report = diagnose(corpus, pred, spec, lexicons)
            assert report.mismatches
            return {c for e in report.mismatches for c in e.categories}

        assert categories(annotator="A1") == {"missing slot"}
        assert categories(annotator="A2") == \
            {"no VN class", "missing slot", "alias miss"}
        assert categories(annotator="A1", annotator_mode="or",
                          second_annotator="A2") == \
            {"no VN class", "missing slot", "alias miss"}

    @pytest.mark.parametrize("spec", [
        MethodSpec(base="lem"),
        MethodSpec(base="pb", annotator="A1"),
        MethodSpec(base="eid_n", annotator="A1", annotator_mode="and",
                   second_annotator="A2"),
    ], ids=MethodSpec.name)
    def test_reported_keys_are_the_methods_bucket_keys(self, spec):
        corpus = random_corpus(60, seed=12)
        keys = bucket_keys(corpus, spec, LEX)
        report = diagnose(corpus, cluster(corpus, spec, LEX), spec, LEX)
        assert report.mismatches
        for e in report.mismatches:
            assert e.keys_a == sorted(keys[e.mention_a])
            assert e.keys_b == sorted(keys[e.mention_b])
        tsv = report.to_tsv()
        assert "\x1e" not in tsv and "\x1f" not in tsv
        assert len(tsv.splitlines()) == len(report.mismatches) + 1

    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_match_piece_walk(self, seed):
        corpus = random_corpus(100 + 150 * seed, seed=seed)
        for spec in METHOD_MATRIX:
            pred = cluster(corpus, spec, LEX)
            want = piece_walk_pairs(corpus.gold, pred)
            for cap in (len(want) + 1, 7):
                report = diagnose(corpus, pred, spec, LEX, max_entries=cap)
                assert [(e.kind, e.mention_a, e.mention_b)
                        for e in report.mismatches] == want[:cap]

    def test_max_entries_cap(self):
        corpus = random_corpus(80, seed=14)
        spec = MethodSpec(base="lem")
        pred = cluster(corpus, spec, LEX)
        report = diagnose(corpus, pred, spec, LEX, max_entries=3)
        assert len(report.mismatches) <= 3

    def test_tsv_rendering(self, acq_corpus, lexicons):
        pred = Partition([[m] for m in acq_corpus.mention_ids()])
        spec = MethodSpec(base="eid_n", annotator="A1")
        tsv = diagnose(acq_corpus, pred, spec, lexicons).to_tsv()
        assert tsv.startswith("kind\tmention_a")
        assert "split" in tsv


class TestCli:
    @pytest.fixture
    def corpus_path(self, data_dir):
        return str(data_dir / "acquisition_corpus.jsonl")

    @pytest.fixture
    def lex_args(self, data_dir):
        return ["--vn-map", str(data_dir / "vn_map.tsv"),
                "--alias-map", str(data_dir / "alias_map.tsv")]

    def test_cluster_then_score(self, corpus_path, lex_args, tmp_path, capsys):
        part_path = tmp_path / "part.tsv"
        rc = main(["cluster", "--corpus", corpus_path, *lex_args,
                   "--method", "eid_n", "--annotator", "A1",
                   "--out", str(part_path)])
        assert rc == EXIT_OK
        parsed = Partition.parse(part_path.read_text())
        assert parsed.index["m1"] == parsed.index["m2"]

        rc = main(["score", "--corpus", corpus_path,
                   "--partition", str(part_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "CoNLL" in out

    def test_cluster_determinism(self, corpus_path, lex_args, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for p in paths:
            rc = main(["cluster", "--corpus", corpus_path, *lex_args,
                       "--method", "eid_n", "--or", "eid_lt",
                       "--annotator", "A1", "--out", str(p)])
            assert rc == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_matrix(self, corpus_path, lex_args, tmp_path, capsys):
        specs = [
            {"base": "lem"},
            {"base": "eid_n", "annotator": "A1", "max_depth": 2},
            {"base": "eid_n", "combiner": "or", "second": "eid_lt",
             "annotator": "A1"},
        ]
        specs_path = tmp_path / "specs.json"
        specs_path.write_text(json.dumps(specs))
        out_path = tmp_path / "matrix.csv"
        rc = main(["matrix", "--corpus", corpus_path, *lex_args,
                   "--specs", str(specs_path), "--out", str(out_path)])
        assert rc == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("lem,")
        assert "CoNLL" in capsys.readouterr().out

    def test_bench(self, tmp_path, capsys):
        corpus_path = tmp_path / "synth.jsonl"
        random_corpus(40, seed=5).save(corpus_path)
        out_path = tmp_path / "bench.csv"
        rc = main(["bench", "--corpus", corpus_path.as_posix(),
                   "--method", "lem", "--sizes", "80,160",
                   "--repeats", "1", "--out", str(out_path)])
        assert rc == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "size,wall_time_s,cpu_time_s,pair_mass"
        assert [line.split(",")[0] for line in lines[1:3]] == ["80", "160"]
        assert capsys.readouterr().err.startswith("slope=")

    def test_cluster_annotator_and_pair_mass(self, corpus_path, lexicons,
                                             lex_args, acq_corpus, capsys):
        rc = main(["cluster", "--corpus", corpus_path, *lex_args,
                   "--method", "eid_n", "--annotator", "A1",
                   "--annotator-and", "A2"])
        assert rc == EXIT_OK
        spec = MethodSpec(base="eid_n", annotator="A1", annotator_mode="and",
                          second_annotator="A2")
        part = cluster(acq_corpus, spec, lexicons)
        singletons = sum(1 for c in part.clusters if len(c) == 1)
        mass = pair_mass(bucket_keys(acq_corpus, spec, lexicons))
        captured = capsys.readouterr()
        assert captured.out == part.dump()
        assert captured.err == (f"clusters={len(part)} singletons={singletons} "
                                f"pair_mass={mass}\n")

    def test_diagnose(self, corpus_path, lex_args, tmp_path):
        part_path = tmp_path / "part.tsv"
        main(["cluster", "--corpus", corpus_path, *lex_args,
              "--method", "pb", "--annotator", "A1", "--out", str(part_path)])
        out_path = tmp_path / "diag.tsv"
        rc = main(["diagnose", "--corpus", corpus_path, *lex_args,
                   "--method", "pb", "--annotator", "A1",
                   "--partition", str(part_path), "--out", str(out_path)])
        assert rc == EXIT_OK
        assert out_path.read_text().startswith("kind\t")

    def test_diagnose_pads_partial_partition(self, corpus_path, lex_args,
                                             tmp_path, capsys):
        part_path = tmp_path / "part.tsv"
        part_path.write_text("0\tm1,m2\n1\tm3\n")
        rc = main(["diagnose", "--corpus", corpus_path, *lex_args,
                   "--method", "pb", "--annotator", "A1",
                   "--partition", str(part_path),
                   "--out", str(tmp_path / "diag.tsv")])
        assert rc == EXIT_OK
        assert "missing from the partition" in capsys.readouterr().err

    def test_diagnose_unknown_mention(self, corpus_path, tmp_path, capsys):
        part_path = tmp_path / "part.tsv"
        part_path.write_text("0\tm1,nope\n")
        rc = main(["diagnose", "--corpus", corpus_path, "--method", "lem",
                   "--partition", str(part_path)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope" in err

    def test_spec_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([{"base": "eid_n", "anotator": "A1"}]))
        with pytest.raises(ValueError, match="anotator"):
            _specs_from_file(path)

    @pytest.mark.parametrize("specs, message", [
        ({"base": "lem"}, "JSON list"),
        ([{"base": "eid_n", "annotator": "A1", "max_depth": "2"}],
         "'max_depth' must be of type int"),
        ([{"base": "lem", "max_depth": True}], "'max_depth' must be of type int"),
        ([{"base": "lem", "allow_empty_slots": "no"}],
         "'allow_empty_slots' must be of type bool"),
        ([{"base": "eid_n", "annotator": 1}], "'annotator' must be of type str"),
        ([{"base": None}], "'base' must be of type str"),
        ([{"base": "eid_n_vn", "annotator": "A1", "roleset_mode": "verbatim"}],
         "roleset_mode"),
        ([{"base": "lem", "label": "mine"}], "label"),
        ([{"base": "lem", "tree": None}], "tree"),
        ([{"base": "eid_n", "combiner": "or", "annotator": "A1"}], "need one"),
    ], ids=["object", "str_depth", "bool_depth", "str_flag", "int_name",
            "null_name", "roleset_mode", "label", "tree", "no_second"])
    def test_bad_spec_file_fails_cleanly(self, corpus_path, tmp_path, capsys,
                                         specs, message):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs))
        rc = main(["matrix", "--corpus", corpus_path, "--specs", str(path)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_annotator_flags_exclusive(self, corpus_path, capsys):
        rc = main(["cluster", "--corpus", corpus_path, "--method", "eid_n",
                   "--annotator", "A1", "--annotator-and", "A2",
                   "--annotator-or", "A3"])
        assert rc == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["score", "diagnose"])
    def test_partition_line_without_tab(self, corpus_path, tmp_path, capsys,
                                        verb):
        part_path = tmp_path / "part.tsv"
        part_path.write_text("0\tm1,m2\nm3,m4\n")
        method = ["--method", "lem"] if verb == "diagnose" else []
        rc = main([verb, "--corpus", corpus_path, *method,
                   "--partition", str(part_path)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: expected cluster_id TAB")
        assert "'m3,m4'" in err

    def test_separator_in_event_arg1_roleset(self, corpus_path, tmp_path,
                                             capsys):
        first, second = open(corpus_path, encoding="utf-8").readlines()[:2]
        record = json.loads(second)
        record["annotations"]["A1"]["arg1"]["roleset"] = "zz\x1fqq.01"
        path = tmp_path / "bad.jsonl"
        path.write_text(first + json.dumps(record) + "\n", encoding="utf-8")
        rc = main(["cluster", "--corpus", str(path), "--method", "eid_n",
                   "--annotator", "A1"])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err.startswith(
            "error: line 2: invalid event arg1 roleset")

    @pytest.mark.parametrize("which, row", [
        ("vn", "purchase.01\t13.5\x1f1"),
        ("alias", "hp\tH\x1eP"),
    ])
    def test_separator_in_lexicon_value(self, corpus_path, data_dir, tmp_path,
                                        capsys, which, row):
        paths = {"vn": data_dir / "vn_map.tsv",
                 "alias": data_dir / "alias_map.tsv"}
        bad = tmp_path / f"{which}.tsv"
        bad.write_text(paths[which].read_text() + row + "\n")
        lines = bad.read_text().count("\n")
        paths[which] = bad
        rc = main(["cluster", "--corpus", corpus_path, "--method", "eid_n",
                   "--annotator", "A1", "--vn-map", str(paths["vn"]),
                   "--alias-map", str(paths["alias"])])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lines}:")
        assert "separator byte" in err

    @pytest.mark.parametrize("field,value", [
        ("gold_cluster", None),
        ("gold_cluster", True),
        (None, 5),
        ("mention_id", 7),
        ("sentence_id", "0"),
        ("sentence", 5),
        ("annotations", [{"roleset": "acquire.01"}]),
    ], ids=["gold_null", "gold_bool", "scalar_line", "int_mention_id",
            "str_sentence_id", "int_sentence", "annotations_list"])
    def test_malformed_mention_names_line(self, corpus_path, tmp_path,
                                          capsys, field, value):
        first, second = open(corpus_path, encoding="utf-8").readlines()[:2]
        record = json.loads(second)
        if field is None:
            record = value
        else:
            record[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(first + json.dumps(record) + "\n", encoding="utf-8")
        rc = main(["cluster", "--corpus", str(path), "--method", "lem"])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: line 2:")

    def test_prompts_g1(self, corpus_path, tmp_path, data_dir):
        out_dir = tmp_path / "prompts"
        rc = main(["prompts", "--corpus", corpus_path,
                   "--strategy", "G1", "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        written = (out_dir / "m1.G1.txt").read_text(encoding="utf-8")
        golden = (data_dir / "golden" / "m1.G1.txt").read_text(encoding="utf-8")
        assert written == golden

    def test_annotate_replay(self, corpus_path, lex_args, tmp_path, data_dir):
        out_path = tmp_path / "annotated.jsonl"
        rc = main(["annotate", "--corpus", corpus_path, *lex_args,
                   "--strategy", "G1",
                   "--replay", str(data_dir / "replay_g1.jsonl"),
                   "--out", str(out_path)])
        assert rc == EXIT_OK
        from ecrkit import load_corpus
        annotated = load_corpus(out_path)
        assert all("G1" in m.annotations for m in annotated.mentions)

    def test_usage_error_exit_code(self):
        assert main(["cluster"]) == EXIT_USAGE
        assert main(["no-such-verb"]) == EXIT_USAGE

    def test_runtime_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        rc = main(["cluster", "--corpus", str(missing), "--method", "lem"])
        assert rc == EXIT_FAILURE
