"""Command-line front end.

Verbs: cluster, score, matrix, bench, diagnose, prompts, annotate.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields as dataclass_fields

from . import harness, llm, metrics
from .cluster import BASES, MethodSpec, bucket_keys, components_from_keys, \
    pair_mass
from .corpus import Corpus, CorpusError, Lexicons, load_corpus, load_lexicons, \
    resolve_nested_links, subset
from .eid import EidConfig
from .partition import Partition

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="mention JSONL file")
    parser.add_argument("--vn-map", help="roleset -> VerbNet class TSV")
    parser.add_argument("--alias-map", help="surface -> entity id TSV")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--split", help="restrict to a split before running")


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", required=True, choices=BASES)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--and", dest="second_and", choices=BASES,
                       help="require a second method to also match")
    group.add_argument("--or", dest="second_or", choices=BASES,
                       help="accept a second method matching instead")
    parser.add_argument("--annotator", help="annotator id, e.g. A1")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--annotator-and", dest="ann_and",
                       help="second annotator; both must match")
    group.add_argument("--annotator-or", dest="ann_or",
                       help="second annotator; either may match")
    parser.add_argument("--max-depth", type=int, default=3)
    parser.add_argument("--allow-empty-slots", action="store_true")


def _level_flags(and_value, or_value) -> tuple[str, str | None]:
    """One method level's (mode, second) from its exclusive and/or flags."""
    mode = "and" if and_value else "or" if or_value else "single"
    return mode, and_value or or_value


def _spec_from_args(args) -> MethodSpec:
    combiner, second = _level_flags(args.second_and, args.second_or)
    ann_mode, second_ann = _level_flags(args.ann_and, args.ann_or)
    cfg = EidConfig(max_depth=args.max_depth,
                    allow_empty_slots=args.allow_empty_slots)
    return MethodSpec(
        base=args.method, combiner=combiner, second=second,
        annotator=args.annotator, annotator_mode=ann_mode,
        second_annotator=second_ann, eid_cfg=cfg,
    )


def _load(args) -> tuple[Corpus, Lexicons]:
    corpus = load_corpus(args.corpus)
    resolve_nested_links(corpus)
    if args.split:
        corpus = subset(corpus, args.split)
    if args.vn_map and args.alias_map:
        lexicons = load_lexicons(args.vn_map, args.alias_map)
    elif args.vn_map or args.alias_map:
        raise ValueError("--vn-map and --alias-map go together")
    else:
        lexicons = Lexicons.empty()
    return corpus, lexicons


def _write(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_cluster(args) -> int:
    corpus, lexicons = _load(args)
    spec = _spec_from_args(args)
    keys = bucket_keys(corpus, spec, lexicons)
    partition = components_from_keys(corpus.mention_ids(), keys)
    mass = pair_mass(keys)
    _write(args.out, partition.dump())
    singletons = sum(1 for c in partition.clusters if len(c) == 1)
    print(f"clusters={len(partition)} singletons={singletons} pair_mass={mass}",
          file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


def _read_partition(path, corpus: Corpus) -> Partition:
    """Parse a partition file over ``corpus``: unknown mention ids are an
    error, corpus mentions left out become singletons (with a warning)."""
    with open(path, "r", encoding="utf-8") as f:
        pred = Partition.parse(f.read())
    mention_ids = set(corpus.mention_ids())
    extra = pred.mention_ids() - mention_ids
    if extra:
        raise ValueError(
            f"partition mentions not in corpus: {sorted(extra)}"
        )
    missing = mention_ids - pred.mention_ids()
    if missing:
        print(f"warning: {len(missing)} corpus mentions missing from the "
              "partition; taken as singletons", file=sys.stderr)
        pred = Partition(list(pred.clusters) + [[m] for m in missing])
    return pred


def cmd_score(args) -> int:
    corpus, _ = _load(args)
    pred = _read_partition(args.partition, corpus)
    report = metrics.score(corpus.gold, pred)
    row = metrics.MatrixRow("scored", report=report)
    text = metrics.render_matrix_text([row])
    print(text, end="")
    if args.out:
        _write(args.out, metrics.render_matrix_csv([row]))
    return EXIT_OK


def _specs_from_file(path) -> list[MethodSpec]:
    """Method specs from a JSON list of flat objects: ``MethodSpec`` fields,
    all strings, and ``EidConfig`` fields of their defaults' types, except
    ``roleset_mode``, which the ``_vn`` suffix of a base sets."""
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    if not isinstance(entries, list):
        raise ValueError("a method spec file must hold a JSON list")
    cfg_types = {f.name: type(f.default) for f in dataclass_fields(EidConfig)
                 if f.name != "roleset_mode"}
    types = cfg_types | {f.name: str for f in dataclass_fields(MethodSpec)
                         if f.init and f.name != "eid_cfg"}
    specs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"method spec must be an object, got {entry!r}")
        for key, value in entry.items():
            if key not in types:
                raise ValueError(f"unknown method spec key {key!r}")
            if type(value) is not types[key]:
                raise ValueError(f"method spec key {key!r} must be of type "
                                 f"{types[key].__name__}, got {value!r}")
        cfg = {k: entry.pop(k) for k in cfg_types.keys() & entry.keys()}
        specs.append(MethodSpec(eid_cfg=EidConfig(**cfg), **entry))
    return specs


def cmd_matrix(args) -> int:
    corpus, lexicons = _load(args)
    specs = _specs_from_file(args.specs)
    rows = metrics.score_matrix(corpus, specs, lexicons)
    print(metrics.render_matrix_text(rows), end="")
    if args.out:
        _write(args.out, metrics.render_matrix_csv(rows))
    return EXIT_OK


def cmd_bench(args) -> int:
    corpus, lexicons = _load(args)
    spec = _spec_from_args(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    result = harness.run_bench(corpus, sizes, spec, lexicons,
                               repeats=args.repeats)
    print(f"slope={result.slope:.3e} s/mention r2={result.r_squared:.4f}",
          file=sys.stderr)
    _write(args.out, result.to_csv())
    return EXIT_OK


def cmd_diagnose(args) -> int:
    corpus, lexicons = _load(args)
    spec = _spec_from_args(args)
    pred = _read_partition(args.partition, corpus)
    report = harness.diagnose(corpus, pred, spec, lexicons)
    _write(args.out, report.to_tsv())
    return EXIT_OK


def cmd_prompts(args) -> int:
    corpus, _ = _load(args)
    os.makedirs(args.out_dir, exist_ok=True)
    strategy = args.strategy
    pool = None
    if strategy == llm.G2:
        if not args.replay:
            raise ValueError("G2 prompts need --replay to seed descriptions")
        transport = llm.ReplayTransport(args.replay)
        g1_run = llm.annotate_corpus(corpus, transport, llm.G1)
        pool = llm.dedupe_pool(llm.build_pool(corpus, g1_run), EidConfig(),
                               Lexicons.empty())
    for m in corpus.mentions:
        if strategy == llm.G1:
            bundle = llm.build_g1_prompt(m, corpus.document_text(m.doc_id))
        else:
            bundle = llm.build_g2_prompt(m, pool)
        path = os.path.join(args.out_dir, f"{m.mention_id}.{strategy}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(bundle.system_text + "\n---\n" + bundle.user_text)
    print(f"wrote {len(corpus)} {strategy} prompts to {args.out_dir}")
    return EXIT_OK


def cmd_annotate(args) -> int:
    corpus, lexicons = _load(args)
    transport = llm.ReplayTransport(args.replay)
    run = llm.annotate_corpus(corpus, transport, args.strategy,
                              lexicons=lexicons)
    annotated = llm.run_to_corpus(corpus, run)
    _write(args.out, annotated.to_jsonl())
    print(f"annotated={len(run.responses)} failures={len(run.failures)} "
          f"hash={run.stable_hash()}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecrkit",
        description="Linear-time cross-document event coreference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a corpus and dump the partition")
    _add_common(p)
    _add_method_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("score", help="score a partition file against gold")
    _add_common(p)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("matrix", help="score a list of methods from a spec file")
    _add_common(p)
    p.add_argument("--specs", required=True, help="JSON list of method specs")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("bench", help="scaling benchmark on duplicated corpora")
    _add_common(p)
    _add_method_flags(p)
    p.add_argument("--sizes", default="60000,80000,100000,120000,140000,"
                   "160000,180000,200000")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diagnose", help="mismatch report for a clustering run")
    _add_common(p)
    _add_method_flags(p)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("prompts", help="emit annotation prompt files")
    _add_common(p)
    p.add_argument("--strategy", choices=[llm.G1, llm.G2], default=llm.G1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--replay", help="replay fixture (needed for G2)")
    p.set_defaults(func=cmd_prompts)

    p = sub.add_parser("annotate", help="batch-annotate through a transport")
    _add_common(p)
    p.add_argument("--strategy", choices=[llm.G1, llm.G2], default=llm.G1)
    p.add_argument("--replay", required=True, help="replay fixture JSONL")
    p.set_defaults(func=cmd_annotate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CorpusError, ValueError, OSError, llm.TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
