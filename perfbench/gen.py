"""Write one workload's inputs and expected outputs for one seed.

    python3 perfbench/gen.py --workload dup-200k --seed 1245 --dir DIR

DIR receives the corpus JSONL, the two lexicon TSVs, the matrix spec file,
``expected.json`` (cluster counts, pair mass, score fractions),
``expected_<i>.tsv`` (the expected partition of method i) and
``makeup.json`` (the input's make-up). ``run.py`` calls this in a child
process whenever a seed's directory is missing. For ``dup-200k`` it first
checks the expectation's key graph against ``pairwise_oracle`` on the
1245-mention seed corpus.

Generation is the benchmark's time, not the program's: this process turns
the cyclic garbage collector off while it builds the corpus, which more than
halves the time ``random_corpus`` takes at 200k mentions. No measured
process does so.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
from pathlib import Path

from common import DUP_SEED_SIZE, MATRIX_METHODS, WORKLOADS, corpus_seed, \
    expected_dump_path, input_paths
import expect

from ecrkit import MethodSpec, load_corpus, pairwise_oracle, \
    resolve_nested_links
from ecrkit.corpus import Lexicons
from ecrkit.synthetic import random_corpus, synthetic_lexicons

_ID_PREFIX = '{"mention_id": '


def write_lexicons(paths: dict) -> Lexicons:
    lexicons = synthetic_lexicons()
    with open(paths["vn_map"], "w", encoding="utf-8") as f:
        for roleset in sorted(lexicons.vn_classes):
            for class_id in sorted(lexicons.vn_classes[roleset]):
                f.write(f"{roleset}\t{class_id}\n")
    with open(paths["alias_map"], "w", encoding="utf-8") as f:
        for surface in sorted(lexicons.aliases):
            f.write(f"{surface}\t{lexicons.aliases[surface]}\n")
    return lexicons


def write_dup_jsonl(seed_corpus, n_total: int, path) -> None:
    """Write ``synth_expand(seed_corpus, n_total)`` as JSONL without building
    the expanded corpus: each copy's line is its source's line with the new
    mention id spliced in."""
    lines = seed_corpus.to_jsonl().splitlines(keepends=True)
    tails = []
    for m, line in zip(seed_corpus.mentions, lines):
        head = _ID_PREFIX + json.dumps(m.mention_id, ensure_ascii=False)
        if not line.startswith(head):
            raise ValueError(f"unexpected record layout: {line[:60]!r}")
        tails.append(line[len(head):])
    n_src = len(lines)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)
        for k in range(n_total - n_src):
            src = seed_corpus.mentions[k % n_src].mention_id
            new_id = json.dumps(f"{src}_dup{k // n_src}", ensure_ascii=False)
            f.write(_ID_PREFIX + new_id + tails[k % n_src])


def _corpus_makeup(corpus) -> dict:
    return {
        "mentions": len(corpus),
        "documents": len({m.doc_id for m in corpus.mentions}),
        "gold_clusters": len({m.gold_cluster for m in corpus.mentions}),
    }


def check_against_oracle(corpus, method: dict, lexicons) -> None:
    """The graph path must give ``pairwise_oracle``'s partition on a corpus
    small enough for the oracle."""
    got = graph_expectation(corpus, method, lexicons)["clusters"]
    want = pairwise_oracle(corpus, MethodSpec(**method), lexicons).clusters
    if expect.canonical_dump(got) != expect.canonical_dump(want):
        raise ValueError(f"key graph and pairwise_oracle disagree on {method}")


def off_source_copies(corpus, key_sets: list[set], n_src: int) -> int:
    """Copies whose keys differ from their source's. A link that closes a
    cycle is cut on the source but can stay on a copy, so copies do not
    always carry their source's identifiers."""
    return sum(1 for k in range(n_src, len(corpus))
               if key_sets[k] != key_sets[(k - n_src) % n_src])


def graph_expectation(corpus, method: dict, lexicons) -> dict:
    key_sets = [expect.method_keys(m, method, lexicons)
                for m in corpus.mentions]
    labels, buckets = expect.key_graph(key_sets)
    return {
        "clusters": expect.groups(corpus.mention_ids(), labels),
        "labels": labels,
        "key_sets": key_sets,
        "stats": expect.bucket_stats(key_sets, buckets),
    }


def _cluster_summary(clusters, stats: dict) -> dict:
    return {
        "clusters": len(clusters),
        "singletons": sum(1 for c in clusters if len(c) == 1),
        "pair_mass": stats["pair_mass"],
    }


def generate(workload: str, seed: int, out_dir: Path,
             mentions: int | None = None) -> None:
    """Write the workload's inputs and expectations into ``out_dir``.
    ``mentions`` overrides the workload's corpus size (the tests use it)."""
    spec = WORKLOADS[workload]
    n = mentions or spec["mentions"]
    paths = input_paths(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lexicons = write_lexicons(paths)
    shutil.copyfile(MATRIX_METHODS, paths["specs"])
    methods = ([spec["method"]] if spec["method"] is not None else
               json.loads(MATRIX_METHODS.read_text(encoding="utf-8")))

    gc.disable()
    try:
        if spec["corpus"] == "dup":
            seed_corpus = random_corpus(min(DUP_SEED_SIZE, n),
                                        seed=corpus_seed(workload, seed))
            check_against_oracle(seed_corpus, methods[0], lexicons)
            write_dup_jsonl(seed_corpus, n, paths["corpus"])
            corpus = load_corpus(paths["corpus"])
            resolve_nested_links(corpus)
            results = [graph_expectation(corpus, methods[0], lexicons)]
            makeup = _corpus_makeup(corpus)
            makeup["seed_mentions"] = len(seed_corpus)
            makeup["off_source_copies"] = off_source_copies(
                corpus, results[0]["key_sets"], len(seed_corpus))
        else:
            corpus = random_corpus(n, seed=seed)
            corpus.save(paths["corpus"])
            results = [graph_expectation(corpus, m, lexicons) for m in methods]
            makeup = _corpus_makeup(corpus)
            gold = [m.gold_cluster for m in corpus.mentions]
    finally:
        gc.enable()

    expected = {"workload": workload, "seed": seed, "methods": []}
    for i, (method, res) in enumerate(zip(methods, results)):
        expect_path = expected_dump_path(out_dir, i)
        expect_path.write_text(expect.canonical_dump(res["clusters"]),
                               encoding="utf-8")
        entry = {"name": MethodSpec(**method).name(),
                 **_cluster_summary(res["clusters"], res["stats"])}
        if spec["method"] is None:
            scores = expect.contingency_scores(gold, res["labels"])
            entry["scores"] = {k: f"{v.numerator}/{v.denominator}"
                               for k, v in scores.items()}
        expected["methods"].append(entry)
        makeup.setdefault("methods", {})[entry["name"]] = {
            "predicted_clusters": entry["clusters"], **res["stats"]}
    paths["expected"].write_text(json.dumps(expected, indent=1),
                                 encoding="utf-8")
    paths["makeup"].write_text(json.dumps(makeup, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
