"""Bucket-based clustering of mentions plus the quadratic pairwise oracle.

A ``MethodSpec`` compiles to a tree: (family, annotator) leaves under
and/or nodes, each annotator's families under a node tagged ("1", "2"), the
annotators under one tagged with their ids. ``bucket_keys`` folds the tree
per mention into a key set (a leaf's family keys, an ``and`` node's product,
an ``or`` node's side-tagged union), and two mentions match exactly when
their key sets intersect. ``pairwise_oracle`` walks the same tree pair by
pair, with ``all``/``any`` over per-leaf key-set intersections. Clustering
takes the components of bucket co-membership, each bucket a star, so it
stays linear in total bucket size.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

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
class Leaf:
    """One key family read from one annotator's annotations."""

    family: str
    annotator: Optional[str]
    cfg: EidConfig


@dataclass(frozen=True)
class Node:
    """Two sub-methods that must both match (``and``) or either (``or``)."""

    op: str
    left: Leaf | Node
    right: Leaf | Node
    tags: tuple[str, str]


def leaves(tree: Leaf | Node) -> Iterator[Leaf]:
    """The tree's leaves, left to right."""
    if isinstance(tree, Leaf):
        yield tree
    else:
        yield from leaves(tree.left)
        yield from leaves(tree.right)


def _level(mode: str, first, second, what: str) -> str:
    """Check one level of a method, its families or its annotators, as a
    (mode, first, second) triple, and return its name: ``first`` alone, or
    ``first_mode_second``."""
    if mode not in ("single", "and", "or"):
        raise ValueError(f"unknown {what} {mode!r}")
    if (mode == "single") != (second is None):
        raise ValueError(f"{what} {mode!r} with second {second!r}: 'single' "
                         "takes no second, 'and' and 'or' need one")
    return first if second is None else f"{first}_{mode}_{second}"


@dataclass(frozen=True)
class MethodSpec:
    """One clustering method: a base key family, an optional and/or-combined
    second family, and a single/and/or annotator selection, compiled into
    ``tree``."""

    base: str
    combiner: str = "single"  # single | and | or
    second: Optional[str] = None
    annotator: Optional[str] = None
    annotator_mode: str = "single"  # single | and | or
    second_annotator: Optional[str] = None
    eid_cfg: EidConfig = field(default_factory=EidConfig)
    tree: Leaf | Node = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.name()  # checks both levels' shapes

        def family_leaf(family, annotator) -> Leaf:
            if family not in BASES:
                raise ValueError(f"unknown base {family!r}")
            if family != "lem" and annotator is None:
                raise ValueError(f"base {family!r} needs an annotator")
            return Leaf(family, annotator, _base_cfg(family, self.eid_cfg))

        def families(annotator) -> Leaf | Node:
            if self.second is None:
                return family_leaf(self.base, annotator)
            return Node(self.combiner, family_leaf(self.base, annotator),
                        family_leaf(self.second, annotator), ("1", "2"))

        tree = families(self.annotator)
        if self.annotator_mode != "single":
            tree = Node(self.annotator_mode, tree,
                        families(self.second_annotator),
                        (str(self.annotator), str(self.second_annotator)))
        object.__setattr__(self, "tree", tree)

    def name(self) -> str:
        name = _level(self.combiner, self.base, self.second, "combiner")
        ann = _level(self.annotator_mode, self.annotator,
                     self.second_annotator, "annotator_mode")
        return f"{ann}:{name}" if self.annotator else name


def _base_cfg(base: str, cfg: EidConfig) -> EidConfig:
    mode = eid_mod.VN_CLASS if base.endswith("_vn") else eid_mod.VERBATIM
    return replace(cfg, roleset_mode=mode)


def _base_keys(mention, leaf: Leaf, lexicons: Lexicons) -> set[str]:
    """Bucket keys for one mention under one leaf's family and annotator. A
    mention lacking the needed annotation contributes no keys."""
    if leaf.family == "lem":
        return {normalize_surface(mention.lemma)}
    try:
        if leaf.family in ("pb", "pb_vn"):
            ann = mention.annotations[leaf.annotator]
            tokens = eid_mod.canonicalize_roleset(
                ann.roleset, leaf.cfg.roleset_mode, lexicons
            )
            return set(tokens)
        if leaf.family in ("eid_n", "eid_n_vn"):
            ids = eid_mod.eid_n(mention, leaf.annotator, leaf.cfg, lexicons)
        else:  # eid_lt, eid_lt_vn
            ids = eid_mod.eid_lt(mention, leaf.annotator, leaf.cfg, lexicons)
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


def _fold(tree: Leaf | Node, mention, lexicons: Lexicons) -> set[str]:
    """One mention's bucket keys under a method tree."""
    if isinstance(tree, Leaf):
        return _base_keys(mention, tree, lexicons)
    return _combine(tree.op, _fold(tree.left, mention, lexicons),
                    _fold(tree.right, mention, lexicons), tree.tags)


def bucket_keys(corpus: Corpus, spec: MethodSpec,
                lexicons: Lexicons) -> dict[str, set[str]]:
    """Per-mention bucket key sets for the method: two mentions match under
    it exactly when their key sets intersect."""
    return {m.mention_id: _fold(spec.tree, m, lexicons)
            for m in corpus.mentions}


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


def _linked(tree: Leaf | Node, leaf_keys: dict, a: str, b: str) -> bool:
    """The match relation of a method tree on one mention pair: a leaf
    matches when the pair's key sets intersect, a node when all (``and``) or
    any (``or``) of its children match."""
    if isinstance(tree, Leaf):
        keys = leaf_keys[tree]
        return not keys[a].isdisjoint(keys[b])
    matches = (_linked(child, leaf_keys, a, b)
               for child in (tree.left, tree.right))
    return all(matches) if tree.op == "and" else any(matches)


def pairwise_oracle(corpus: Corpus, spec: MethodSpec,
                    lexicons: Lexicons) -> Partition:
    """Quadratic reference: evaluate the method tree's match relation for
    every mention pair, then take the transitive closure. Must always agree
    with ``cluster``; guarded to small corpora."""
    if len(corpus) > ORACLE_GUARD:
        raise ValueError(
            f"pairwise oracle is quadratic; {len(corpus)} mentions exceeds the "
            f"{ORACLE_GUARD} guard, use cluster() instead"
        )
    leaf_keys = {leaf: {m.mention_id: _base_keys(m, leaf, lexicons)
                        for m in corpus.mentions}
                 for leaf in leaves(spec.tree)}
    # Transitive closure, merging the smaller cluster into the larger.
    cluster_of = {mid: {mid} for mid in corpus.mention_ids()}
    for a, b in combinations(corpus.mention_ids(), 2):
        big, small = cluster_of[a], cluster_of[b]
        if big is not small and _linked(spec.tree, leaf_keys, a, b):
            if len(big) < len(small):
                big, small = small, big
            big |= small
            for mid in small:
                cluster_of[mid] = big
    return Partition({id(c): c for c in cluster_of.values()}.values())
