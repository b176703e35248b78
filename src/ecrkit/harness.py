"""Scaling benchmark and clustering diagnostics.

The benchmark duplicates a seed corpus to each target size and times the
clustering core (bucket keys and connected components; file I/O and
expansion excluded), reporting a least-squares linear fit over the sizes.
Pair mass is reported per size but computed outside the timed region.
"""

from __future__ import annotations

import csv
import gc
import io
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .cluster import TAG_SEP, MethodSpec, bucket_keys, components_from_keys, \
    leaves, pair_mass
from .corpus import Corpus, Lexicons, copy_mention, resolve_nested_links
from .eid import KEY_SEP, canonicalize_argument
from .partition import Partition, contingency

EXPAND_GUARD = 5_000_000


def synth_expand(corpus: Corpus, target_n: int) -> Corpus:
    """Duplicate mentions round-robin up to ``target_n``, with fresh ids.

    Duplicates keep their source's annotations and gold cluster label, but
    links are resolved afresh on the expanded corpus, so a duplicate need
    not cluster with its source: a link cut on the source because it would
    close a cycle can resolve on a copy, and a link can move to a nearer
    copy of its target. Either gives the two different identifiers.
    """
    if target_n < len(corpus):
        raise ValueError(
            f"target {target_n} is smaller than the corpus ({len(corpus)})"
        )
    if target_n > EXPAND_GUARD:
        raise ValueError(f"target {target_n} exceeds the {EXPAND_GUARD} guard")
    if target_n == len(corpus):
        return corpus
    mentions = [copy_mention(m) for m in corpus.mentions]
    n_src = len(corpus.mentions)
    for k in range(target_n - n_src):
        src = corpus.mentions[k % n_src]
        mentions.append(
            copy_mention(src, mention_id=f"{src.mention_id}_dup{k // n_src}")
        )
    expanded = Corpus(mentions)
    resolve_nested_links(expanded)
    return expanded


@dataclass
class BenchResult:
    sizes: list[int]
    wall_times_s: list[float]
    cpu_times_s: list[float]
    slope: float
    intercept: float
    r_squared: float
    pair_mass: list[int]
    repeats: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["size", "wall_time_s", "cpu_time_s", "pair_mass"])
        for size, wt, ct, mass in zip(self.sizes, self.wall_times_s,
                                      self.cpu_times_s, self.pair_mass):
            writer.writerow([size, f"{wt:.6f}", f"{ct:.6f}", mass])
        writer.writerow([])
        writer.writerow(["slope_s_per_mention", f"{self.slope:.3e}"])
        writer.writerow(["intercept_s", f"{self.intercept:.6f}"])
        writer.writerow(["r_squared", f"{self.r_squared:.6f}"])
        return buf.getvalue()


def _linear_fit(sizes, times) -> tuple[float, float, float]:
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(times, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared


def _bench_corpora(corpus: Corpus, largest: Corpus, sizes: list[int],
                   repeats: int):
    """Yield ``(round, size, synth_expand(corpus, size))`` for every round and
    size, in that order, from ``largest = synth_expand(corpus, sizes[-1])``.

    Round-robin expansion makes the first ``size`` mentions of the largest
    expansion the expansion to ``size``, up to nested links: the largest
    corpus may offer a nearer link target beyond the prefix. So links are
    resolved again on each prefix before it is yielded; once round 0 has
    shown that this changes no link, later rounds skip it.
    """
    links_agree = True
    for rnd in range(repeats):
        for size in sizes:
            expanded = largest
            if size < len(largest):
                expanded = Corpus(largest.mentions[:size])
            if largest is not corpus and (rnd == 0 or not links_agree):
                before = _event_links(expanded)
                resolve_nested_links(expanded)
                links_agree &= _event_links(expanded) == before
            yield rnd, size, expanded


def _event_links(corpus: Corpus) -> list[Optional[str]]:
    """Resolved target of every eventive ARG-1, in corpus order."""
    return [ann.arg1.linked_mention
            for m in corpus.mentions for ann in m.annotations.values()
            if ann.arg1 is not None and ann.arg1.kind == "event"]


def run_bench(corpus: Corpus, sizes: list[int], spec: MethodSpec,
              lexicons: Lexicons, repeats: int = 3) -> BenchResult:
    """Time the clustering core at each size, taking the minimum of
    ``repeats`` interleaved rounds.

    Timing protocol, chosen for noisy shared machines:

    - Repeats are interleaved round-robin across sizes (round 1 times every
      size, then round 2, ...) so a transient slowdown episode cannot poison
      every repeat of one size.
    - The per-size minimum is kept (as in ``timeit``): timing noise is
      strictly additive, so the fastest run best estimates true cost.
    - GC is collected then disabled around each timed run. The expanded
      corpus is frozen out of those collections, which would otherwise
      rescan it before every run.
    - Both wall and process CPU time are recorded; the linear fit uses CPU
      time. Expansion, I/O and pair mass stay outside the timed region.
    - The corpus is expanded once, to the largest size, and smaller sizes
      are timed on its prefixes (see ``_bench_corpora``).
    """
    if not sizes or sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be non-empty and strictly increasing")
    if sizes[0] < len(corpus):
        raise ValueError(
            f"target {sizes[0]} is smaller than the corpus ({len(corpus)})"
        )
    largest = synth_expand(corpus, sizes[-1])
    best_wall = {size: float("inf") for size in sizes}
    best_cpu = {size: float("inf") for size in sizes}
    masses: dict[int, int] = {}
    gc.freeze()
    try:
        for rnd, size, expanded in _bench_corpora(corpus, largest, sizes,
                                                  repeats):
            mention_ids = expanded.mention_ids()

            def core() -> dict[str, set[str]]:
                keys = bucket_keys(expanded, spec, lexicons)
                components_from_keys(mention_ids, keys)
                return keys

            if rnd == 0:
                # warm-up
                masses[size] = pair_mass(core())
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                w0 = time.perf_counter()
                c0 = time.process_time()
                core()
                cpu = time.process_time() - c0
                wall = time.perf_counter() - w0
            finally:
                if gc_was_enabled:
                    gc.enable()
            best_wall[size] = min(best_wall[size], wall)
            best_cpu[size] = min(best_cpu[size], cpu)
    finally:
        gc.unfreeze()
    wall_times = [best_wall[size] for size in sizes]
    cpu_times = [best_cpu[size] for size in sizes]
    slope, intercept, r_squared = _linear_fit(sizes, cpu_times)
    return BenchResult(
        sizes=list(sizes), wall_times_s=wall_times, cpu_times_s=cpu_times,
        slope=slope, intercept=intercept, r_squared=r_squared,
        pair_mass=[masses[size] for size in sizes], repeats=repeats,
    )


@dataclass
class MismatchEntry:
    kind: str  # "split" (gold pair separated) | "merged" (non-gold pair joined)
    mention_a: str
    mention_b: str
    keys_a: list[str]
    keys_b: list[str]
    categories: list[str]


@dataclass
class DiagnosticsReport:
    mismatches: list[MismatchEntry] = field(default_factory=list)

    def to_tsv(self) -> str:
        lines = ["kind\tmention_a\tmention_b\tcategories\tkeys_a\tkeys_b"]
        for e in self.mismatches:
            lines.append("\t".join([
                e.kind, e.mention_a, e.mention_b, ",".join(e.categories),
                "|".join(map(_printable, e.keys_a)),
                "|".join(map(_printable, e.keys_b)),
            ]))
        return "\n".join(lines) + "\n"


def _printable(key: str) -> str:
    """A bucket key with its separator bytes shown as ``:`` (between
    identifier tokens) and ``+`` (between combined parts)."""
    return key.replace(KEY_SEP, ":").replace(TAG_SEP, "+")


def _annotations(corpus, mid, annotators) -> list:
    """The mention's annotations by those of ``annotators`` it has."""
    anns = corpus.by_id[mid].annotations
    return [anns[x] for x in annotators if x in anns]


def _categorize(corpus, a, b, keys_a, keys_b, spec, lexicons) -> list[str]:
    """Hints for one mismatch pair from the annotations that the method
    tree's leaves read; "no VN class" from its ``_vn`` leaves only."""
    cats = []
    vn_annotators = {leaf.annotator for leaf in leaves(spec.tree)
                     if leaf.family.endswith("_vn")}
    if any(ann.roleset not in lexicons.vn_classes for mid in (a, b)
           for ann in _annotations(corpus, mid, vn_annotators)):
        cats.append("no VN class")
    if not keys_a or not keys_b:
        cats.append("missing slot")
    annotators = {leaf.annotator for leaf in leaves(spec.tree)}
    if _alias_miss(corpus, a, b, annotators, spec.eid_cfg, lexicons):
        cats.append("alias miss")
    if not cats:
        cats.append("other")
    return cats


def _alias_miss(corpus, a, b, annotators, cfg, lexicons) -> bool:
    """Near-identical argument surfaces that canonicalize apart, e.g. one
    location token contained in the other."""
    def arg_tokens(mid):
        tokens = set()
        for ann in _annotations(corpus, mid, annotators):
            values = [ann.arg0, ann.arg_loc, ann.arg_time]
            if ann.arg1 is not None and ann.arg1.kind == "entity":
                values.append(ann.arg1.entity)
            for value in values:
                if value is not None:
                    tokens.update(canonicalize_argument(value, lexicons, cfg))
        return tokens

    tokens_a, tokens_b = arg_tokens(a), arg_tokens(b)
    for ta in tokens_a:
        for tb in tokens_b:
            if ta != tb and (ta in tb or tb in ta):
                return True
    return False


def diagnose(corpus: Corpus, pred: Partition, spec: MethodSpec,
             lexicons: Lexicons, max_entries: int = 1000) -> DiagnosticsReport:
    """Mismatch pairs between gold and predicted clusterings, with the
    method's bucket keys of each mention and mechanical category hints.
    Each cell of the gold x pred contingency table is represented by its
    smallest mention id: two cells of one gold cluster give a "split" pair
    (in pred order), two cells of one pred cluster a "merged" pair (in gold
    order)."""
    g, p, _, first = contingency(corpus.gold, pred)
    report = DiagnosticsReport()
    keys = bucket_keys(corpus, spec, lexicons)
    for kind, owner, order in (("split", g, np.arange(len(g))),
                               ("merged", p, np.argsort(p, kind="stable"))):
        bounds = np.flatnonzero(np.diff(owner[order])) + 1
        for run in np.split(order, bounds):
            for a, b in combinations([first[i] for i in run], 2):
                if len(report.mismatches) >= max_entries:
                    return report
                ka, kb = sorted(keys[a]), sorted(keys[b])
                report.mismatches.append(MismatchEntry(
                    kind=kind, mention_a=a, mention_b=b, keys_a=ka, keys_b=kb,
                    categories=_categorize(corpus, a, b, ka, kb, spec,
                                           lexicons),
                ))
    return report
