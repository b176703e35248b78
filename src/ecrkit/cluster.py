"""Bucket-based clustering of mentions plus the quadratic pairwise oracle.

Every method is a set of bucket keys per mention, and two mentions match
under the method exactly when their key sets intersect. Families combine
by key algebra: ∧ takes the product of the two sides' keys, ∨ their
side-tagged union; annotators combine the same way. Clustering then takes
the connected components of bucket co-membership. Each bucket only needs
to join its members in a star, so the pipeline stays linear in total bucket
size even when buckets grow large.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import eid as eid_mod
from .corpus import Corpus, Lexicons
from .eid import EidConfig, MissingAnnotationError, identifier_key, normalize_surface
from .partition import Partition

BASES = ("lem", "pb", "pb_vn", "eid_n", "eid_lt", "eid_n_vn", "eid_lt_vn")

ORACLE_GUARD = 20_000

TAG_SEP = "\x1e"


@dataclass(frozen=True)
class MethodSpec:
    """One clustering method: a base key family, an optional and/or-combined
    second family, and a single/and/or annotator selection."""

    base: str
    combiner: str = "single"  # single | and | or
    second: Optional[str] = None
    annotator: Optional[str] = None
    annotator_mode: str = "single"  # single | and | or
    second_annotator: Optional[str] = None
    eid_cfg: EidConfig = field(default_factory=EidConfig)
    label: Optional[str] = None

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"unknown base {self.base!r}")
        if self.combiner not in ("single", "and", "or"):
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if self.combiner == "single" and self.second is not None:
            raise ValueError("second base given without and/or combiner")
        if self.combiner != "single":
            if self.second is None:
                raise ValueError(f"combiner {self.combiner!r} needs a second base")
            if self.second not in BASES:
                raise ValueError(f"unknown base {self.second!r}")
        if self.annotator_mode not in ("single", "and", "or"):
            raise ValueError(f"unknown annotator_mode {self.annotator_mode!r}")
        if self.annotator_mode != "single" and self.second_annotator is None:
            raise ValueError("annotator and/or needs a second annotator")
        needs_annotator = self.base != "lem" or self.second not in (None, "lem")
        if needs_annotator and self.annotator is None:
            raise ValueError(f"base {self.base!r} needs an annotator")

    def name(self) -> str:
        if self.label:
            return self.label
        parts = [self.base]
        if self.combiner != "single":
            parts = [self.base, self.combiner, self.second]
        name = "_".join(parts)
        if self.annotator:
            ann = self.annotator
            if self.annotator_mode != "single":
                ann = f"{self.annotator}_{self.annotator_mode}_{self.second_annotator}"
            name = f"{ann}:{name}"
        return name


def _base_cfg(base: str, cfg: EidConfig) -> EidConfig:
    mode = eid_mod.VN_CLASS if base.endswith("_vn") else eid_mod.VERBATIM
    return replace(cfg, roleset_mode=mode)


def _spec_cfgs(spec: MethodSpec) -> list[EidConfig]:
    """Per-family configs for the spec's base and (if any) second family."""
    return [_base_cfg(base, spec.eid_cfg)
            for base in (spec.base, spec.second) if base is not None]


def _base_keys(mention, base: str, annotator: Optional[str],
               bcfg: EidConfig, lexicons: Lexicons) -> set[str]:
    """Bucket keys for one mention under one base family, with ``bcfg`` the
    family's config from ``_base_cfg`` (computed once per corpus, not per
    mention). A mention lacking the needed annotation contributes no keys."""
    if base == "lem":
        return {normalize_surface(mention.lemma)}
    try:
        if base in ("pb", "pb_vn"):
            ann = mention.annotations[annotator]
            tokens = eid_mod.canonicalize_roleset(
                ann.roleset, bcfg.roleset_mode, lexicons
            )
            return set(tokens)
        if base in ("eid_n", "eid_n_vn"):
            ids = eid_mod.eid_n(mention, annotator, bcfg, lexicons)
        else:  # eid_lt, eid_lt_vn
            ids = eid_mod.eid_lt(mention, annotator, bcfg, lexicons)
        return {identifier_key(i) for i in ids}
    except (KeyError, MissingAnnotationError):
        return set()


def _combine(mode: str, keys1: set[str], keys2: set[str],
             tags: tuple[str, str] = ("1", "2")) -> set[str]:
    """Keys that two mentions share iff they share a key on both sides
    (``and``: the product) or on either side (``or``: the union, each side
    tagged so that its keys never meet the other side's)."""
    if mode == "and":
        return {k1 + TAG_SEP + k2 for k1 in keys1 for k2 in keys2}
    return ({tags[0] + TAG_SEP + k for k in keys1}
            | {tags[1] + TAG_SEP + k for k in keys2})


def _combined_keys(mention, spec: MethodSpec, annotator: Optional[str],
                   cfgs: list[EidConfig], lexicons: Lexicons) -> set[str]:
    keys = _base_keys(mention, spec.base, annotator, cfgs[0], lexicons)
    if spec.combiner == "single":
        return keys
    keys2 = _base_keys(mention, spec.second, annotator, cfgs[1], lexicons)
    return _combine(spec.combiner, keys, keys2)


def bucket_keys(corpus: Corpus, spec: MethodSpec,
                lexicons: Lexicons) -> dict[str, set[str]]:
    """Per-mention bucket key sets for the method: two mentions match under
    it exactly when their key sets intersect. The two annotators' key sets
    combine as the two families' do, with the annotator ids as the ``or``
    tags."""
    out: dict[str, set[str]] = {}
    cfgs = _spec_cfgs(spec)
    tags = (str(spec.annotator), str(spec.second_annotator))
    for m in corpus.mentions:
        keys = _combined_keys(m, spec, spec.annotator, cfgs, lexicons)
        if spec.annotator_mode != "single":
            keys2 = _combined_keys(m, spec, spec.second_annotator, cfgs,
                                   lexicons)
            keys = _combine(spec.annotator_mode, keys, keys2, tags)
        out[m.mention_id] = keys
    return out


def pair_mass(keys: dict[str, set[str]]) -> int:
    """Total within-bucket pair count, sum of b*(b-1)/2 over buckets."""
    sizes = Counter(key for key_set in keys.values() for key in key_set)
    return sum(b * (b - 1) // 2 for b in sizes.values())


def components_from_keys(mention_ids: list[str],
                         keys: dict[str, set[str]]) -> Partition:
    """Connected components over bucket co-membership. Each bucket becomes
    a star of edges from its first member to every other member, linear in
    total bucket size; mentions without keys stay singletons."""
    index = {mid: i for i, mid in enumerate(mention_ids)}
    head: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    for mid, key_set in keys.items():
        i = index[mid]
        for key in key_set:
            h = head.setdefault(key, i)
            if h != i:
                us.append(h)
                vs.append(i)
    n = len(mention_ids)
    graph = coo_matrix((np.ones(len(us)), (us, vs)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    groups: dict[int, list[str]] = {}
    for mid, label in zip(mention_ids, labels.tolist()):
        groups.setdefault(label, []).append(mid)
    return Partition(groups.values())


def cluster(corpus: Corpus, spec: MethodSpec, lexicons: Lexicons) -> Partition:
    """The method's partition: components of its bucket keys."""
    return components_from_keys(corpus.mention_ids(),
                                bucket_keys(corpus, spec, lexicons))


def _pair_match(keys_a: set[str], keys_b: set[str]) -> bool:
    return not keys_a.isdisjoint(keys_b)


def pairwise_oracle(corpus: Corpus, spec: MethodSpec,
                    lexicons: Lexicons) -> Partition:
    """Quadratic reference: evaluate the identifier-match relation for every
    mention pair, then take the transitive closure. Must always agree with
    ``cluster``; guarded to small corpora."""
    n = len(corpus)
    if n > ORACLE_GUARD:
        raise ValueError(
            f"pairwise oracle is quadratic; {n} mentions exceeds the "
            f"{ORACLE_GUARD} guard, use cluster() instead"
        )
    mention_ids = corpus.mention_ids()

    def per_annotator_sides(annotator):
        bases = [b for b in (spec.base, spec.second) if b is not None]
        return [
            {m.mention_id: _base_keys(m, base, annotator, bcfg, lexicons)
             for m in corpus.mentions}
            for base, bcfg in zip(bases, _spec_cfgs(spec))
        ]

    def method_match(sides, a, b):
        matches = [_pair_match(side[a], side[b]) for side in sides]
        if spec.combiner == "and":
            return all(matches)
        if spec.combiner == "or":
            return any(matches)
        return matches[0]

    annotators = [spec.annotator]
    if spec.annotator_mode != "single":
        annotators.append(spec.second_annotator)
    per_ann = [per_annotator_sides(a) for a in annotators]

    def linked(a, b):
        results = [method_match(sides, a, b) for sides in per_ann]
        if spec.annotator_mode == "and":
            return all(results)
        return any(results)

    # Transitive closure by repeated merging of small adjacency sets.
    parent = {mid: mid for mid in mention_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            a, b = mention_ids[i], mention_ids[j]
            if linked(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[str, list[str]] = {}
    for mid in mention_ids:
        groups.setdefault(find(mid), []).append(mid)
    return Partition(groups.values())
