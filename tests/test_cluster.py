import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecrkit import (
    MethodSpec,
    bucket_keys,
    cluster,
    pairwise_oracle,
    synth_expand,
)
from ecrkit.cluster import BASES, Node, _combine, components_from_keys, \
    pair_mass
from ecrkit.partition import Partition
from ecrkit.synthetic import random_corpus, synthetic_lexicons

LEX = synthetic_lexicons()

# The full method matrix: bases, VN variants, and/or combinations, and the
# annotator combinations.
METHOD_MATRIX = [
    MethodSpec(base="lem"),
    MethodSpec(base="pb", annotator="A1"),
    MethodSpec(base="pb_vn", annotator="A1"),
    MethodSpec(base="eid_n", annotator="A1"),
    MethodSpec(base="eid_lt", annotator="A1"),
    MethodSpec(base="eid_n_vn", annotator="A1"),
    MethodSpec(base="eid_lt_vn", annotator="A1"),
    MethodSpec(base="eid_n", combiner="and", second="eid_lt", annotator="A1"),
    MethodSpec(base="eid_n", combiner="or", second="eid_lt", annotator="A1"),
    MethodSpec(base="eid_n_vn", combiner="and", second="eid_lt_vn", annotator="A1"),
    MethodSpec(base="eid_n_vn", combiner="or", second="eid_lt_vn", annotator="A1"),
    MethodSpec(base="eid_n", annotator="A1", annotator_mode="or",
               second_annotator="A2"),
    MethodSpec(base="eid_n", annotator="A1", annotator_mode="and",
               second_annotator="A2"),
    MethodSpec(base="eid_n", combiner="or", second="eid_lt", annotator="A1",
               annotator_mode="or", second_annotator="A2"),
    MethodSpec(base="eid_n", combiner="or", second="eid_lt", annotator="A1",
               annotator_mode="and", second_annotator="A2"),
]


# The matrix CSV's ``method`` column: these names must never change.
METHOD_NAMES = [
    "lem", "A1:pb", "A1:pb_vn", "A1:eid_n", "A1:eid_lt", "A1:eid_n_vn",
    "A1:eid_lt_vn", "A1:eid_n_and_eid_lt", "A1:eid_n_or_eid_lt",
    "A1:eid_n_vn_and_eid_lt_vn", "A1:eid_n_vn_or_eid_lt_vn",
    "A1_or_A2:eid_n", "A1_and_A2:eid_n", "A1_or_A2:eid_n_or_eid_lt",
    "A1_and_A2:eid_n_or_eid_lt",
]


def union_find_components(ids, edges):
    """Reference labelling: a plain Python union-find over explicit edges."""
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for i in ids:
        groups.setdefault(find(i), []).append(i)
    return Partition(groups.values())


# Labellings that scipy's csgraph components must agree with.
REFERENCE_KERNELS = {"python": union_find_components}


def coarsens(fine, coarse):
    """Every cluster of ``fine`` lies inside one cluster of ``coarse``."""
    return all(len({coarse.index[m] for m in c}) == 1 for c in fine.clusters)


class TestMethodSpec:
    def test_matrix_names(self):
        assert [spec.name() for spec in METHOD_MATRIX] == METHOD_NAMES

    def test_tree_of_annotator_and_family_or(self):
        spec = MethodSpec(base="eid_n_vn", combiner="or", second="eid_lt",
                          annotator="A1", annotator_mode="and",
                          second_annotator="A2")
        tree = spec.tree
        assert (tree.op, tree.tags) == ("and", ("A1", "A2"))
        for side, annotator in ((tree.left, "A1"), (tree.right, "A2")):
            assert (side.op, side.tags) == ("or", ("1", "2"))
            assert [(leaf.family, leaf.annotator, leaf.cfg.roleset_mode)
                    for leaf in (side.left, side.right)] == [
                ("eid_n_vn", annotator, "vn_class"),
                ("eid_lt", annotator, "verbatim")]

    def test_tree_not_compared(self):
        assert MethodSpec(base="lem") == MethodSpec(base="lem")
        assert "tree" not in repr(MethodSpec(base="lem"))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(base="eid_x", annotator="A1"), "unknown base 'eid_x'"),
        (dict(base="eid_n", combiner="or", second="nope", annotator="A1"),
         "unknown base 'nope'"),
        (dict(base="eid_n", combiner="xor", second="eid_lt", annotator="A1"),
         "unknown combiner 'xor'"),
        (dict(base="eid_n", combiner="and", annotator="A1"), "need one"),
        (dict(base="eid_n", second="eid_lt", annotator="A1"), "takes no second"),
        (dict(base="eid_n", annotator="A1", annotator_mode="both",
              second_annotator="A2"), "unknown annotator_mode 'both'"),
        (dict(base="eid_n", annotator="A1", annotator_mode="or"), "need one"),
        (dict(base="eid_n", annotator="A1", second_annotator="A2"),
         "takes no second"),
        (dict(base="eid_n"), "base 'eid_n' needs an annotator"),
        (dict(base="lem", combiner="or", second="pb"),
         "base 'pb' needs an annotator"),
    ])
    def test_invalid_specs_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MethodSpec(**kwargs)


class TestBucketKeys:
    def test_lem_shares_key(self, acq_corpus, lexicons):
        keys = bucket_keys(acq_corpus, MethodSpec(base="lem"), lexicons)
        assert keys["m1"] == keys["m2"] == {"acquire"}

    def test_pb_distinguishes_rolesets(self, acq_corpus, lexicons):
        keys = bucket_keys(acq_corpus, MethodSpec(base="pb", annotator="A1"),
                           lexicons)
        assert keys["m1"] == {"acquire.01"}
        assert keys["m3"] == {"purchase.01"}
        assert keys["m1"] != keys["m3"]

    def test_pb_vn_merges_synonyms(self, acq_corpus, lexicons):
        keys = bucket_keys(acq_corpus, MethodSpec(base="pb_vn", annotator="A1"),
                           lexicons)
        assert keys["m1"] == keys["m3"] == {"13.5.1"}

    def test_and_with_empty_side_yields_nothing(self, acq_corpus, lexicons):
        spec = MethodSpec(base="eid_n", combiner="and", second="eid_lt",
                          annotator="A1")
        keys = bucket_keys(acq_corpus, spec, lexicons)
        # m4s has no ARG-Time, so its eid_lt side is empty
        assert keys["m4s"] == set()
        assert keys["m1"]

    def test_missing_annotator_contributes_no_keys(self, acq_corpus, lexicons):
        keys = bucket_keys(acq_corpus, MethodSpec(base="eid_n", annotator="A9"),
                           lexicons)
        assert all(v == set() for v in keys.values())


class TestEdges:
    """The pairs a bucket implies: counted by ``pair_mass``, joined by
    ``components_from_keys``."""

    def test_complete_subgraph(self):
        keys = {"a": {"k1"}, "b": {"k1"}, "c": {"k1"}}
        assert pair_mass(keys) == 3
        assert components_from_keys(list("abc"), keys).as_sets() == {
            frozenset("abc")
        }

    def test_singleton_buckets_no_edges(self):
        keys = {"a": {"k1"}, "b": {"k2"}}
        assert pair_mass(keys) == 0
        assert components_from_keys(["a", "b"], keys).as_sets() == {
            frozenset("a"), frozenset("b")
        }

    def test_or_union(self):
        # a~b on side 1, b~d on side 2; c holds side 1's key "x" on side 2,
        # which the side tags keep from matching side 1's "x"
        side1 = {"a": {"x"}, "b": {"x"}, "c": {"y"}, "d": {"q"}}
        side2 = {"a": {"z"}, "b": {"w"}, "c": {"x"}, "d": {"w"}}
        ids = list("abcd")

        def combined(mode):
            keys = {m: _combine(mode, side1[m], side2[m]) for m in ids}
            return components_from_keys(ids, keys).as_sets()

        assert combined("or") == {frozenset("abd"), frozenset("c")}
        assert combined("and") == {frozenset(m) for m in ids}

    def test_pair_mass_formula(self):
        rng = random.Random(0)
        for _ in range(20)             :
            b = rng.randint(1, 40)
            keys = {f"m{i}": {"k"} for i in range(b)}
            assert pair_mass(keys) == b * (b - 1) // 2


class TestConnectedComponents:
    def test_transitivity(self):
        ids = list("abcdef")
        keys = {"a": {"ab"}, "b": {"ab", "bc"}, "c": {"bc"},
                "d": {"de"}, "e": {"de"}, "f": {"f"}}
        part = components_from_keys(ids, keys)
        assert part.as_sets() == {
            frozenset("abc"), frozenset("de"), frozenset("f")
        }

    def test_no_edges_all_singletons(self):
        ids = ["x", "y", "z"]
        part = components_from_keys(ids, {"x": set(), "y": {"k"}})
        assert part.as_sets() == {frozenset({i}) for i in ids}

    @pytest.mark.parametrize("kernel", sorted(REFERENCE_KERNELS))
    def test_kernels_agree(self, kernel):
        # each random edge becomes a two-member bucket
        rng = random.Random(5)
        ids = [f"m{i}" for i in range(200)]
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(300)]
        keys = {}
        for k, (u, v) in enumerate(edges):
            keys.setdefault(u, set()).add(f"e{k}")
            keys.setdefault(v, set()).add(f"e{k}")
        assert components_from_keys(ids, keys) == \
            REFERENCE_KERNELS[kernel](ids, edges)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(KeyError, match="ghost"):
            components_from_keys(["a"], {"a": {"k"}, "ghost": {"k"}})


class TestCluster:
    def test_coreferent_acquisitions_merge(self, acq_corpus, lexicons):
        part = cluster(acq_corpus, MethodSpec(base="eid_n", annotator="A1"),
                       lexicons)
        assert part.index["m1"] == part.index["m2"]

    def test_related_but_distinct_stays_apart(self, acq_corpus, lexicons):
        part = cluster(acq_corpus, MethodSpec(base="eid_n", annotator="A1"),
                       lexicons)
        assert part.index["m3"] != part.index["m1"]

    def test_empty_corpus(self, lexicons):
        from ecrkit.corpus import Corpus
        part = cluster(Corpus([]), MethodSpec(base="lem"), lexicons)
        assert len(part) == 0

    def test_star_path_equals_edge_path(self, lexicons):
        # the star from each bucket's first member joins what the bucket's
        # complete subgraph joins
        corpus = random_corpus(150, seed=11)
        ids = corpus.mention_ids()
        for spec in METHOD_MATRIX:
            keys = bucket_keys(corpus, spec, LEX)
            members = {}
            for mid, key_set in keys.items():
                for key in key_set:
                    members.setdefault(key, []).append(mid)
            edges = [pair for group in members.values()
                     for pair in itertools.combinations(group, 2)]
            assert components_from_keys(ids, keys) == \
                union_find_components(ids, edges), spec.name()

    def test_csgraph_components_equal_oracle(self):
        corpus = random_corpus(150, seed=11)
        for spec in METHOD_MATRIX:
            keys = bucket_keys(corpus, spec, LEX)
            assert components_from_keys(corpus.mention_ids(), keys) == \
                pairwise_oracle(corpus, spec, LEX), spec.name()

    def test_determinism_under_shuffle(self):
        from ecrkit.corpus import Corpus, copy_mention, resolve_nested_links
        corpus = random_corpus(100, seed=13)
        spec = MethodSpec(base="eid_n", combiner="or", second="eid_lt",
                          annotator="A1")
        base = cluster(corpus, spec, LEX)
        rng = random.Random(99)
        shuffled_mentions = [copy_mention(m) for m in corpus.mentions]
        rng.shuffle(shuffled_mentions)
        shuffled = Corpus(shuffled_mentions)
        resolve_nested_links(shuffled)
        assert cluster(shuffled, spec, LEX) == base


def method_trees(depth):
    """Random method trees up to ``depth`` node levels: (family, annotator)
    leaves under and/or nodes."""
    leaf = st.builds(lambda family, annotator: MethodSpec(
        base=family, annotator=annotator).tree,
        st.sampled_from(BASES), st.sampled_from(["A1", "A2"]))
    if depth == 0:
        return leaf
    child = method_trees(depth - 1)
    return st.one_of(leaf, st.builds(
        Node, st.sampled_from(["and", "or"]), child, child,
        st.sampled_from([("1", "2"), ("A1", "A2")])))


class TestOracle:
    @settings(max_examples=100, deadline=None)
    @given(tree=method_trees(3), n=st.integers(1, 60),
           seed=st.integers(0, 10_000))
    def test_random_trees_equal_oracle(self, tree, n, seed):
        # the flat fields cannot spell every tree, so the random tree
        # replaces a spec's own; cluster() and the oracle read only the tree
        spec = MethodSpec(base="lem")
        object.__setattr__(spec, "tree", tree)
        corpus = random_corpus(n, seed=seed)
        assert cluster(corpus, spec, LEX) == pairwise_oracle(corpus, spec, LEX)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matrix_equivalence_small(self, seed):
        corpus = random_corpus(random.Random(seed).randint(30, 90), seed=seed)
        for spec in METHOD_MATRIX:
            assert cluster(corpus, spec, LEX) == \
                pairwise_oracle(corpus, spec, LEX), spec.name()

    def test_disjoint_identifiers_never_linked(self, acq_corpus, lexicons):
        part = pairwise_oracle(
            acq_corpus, MethodSpec(base="eid_lt", annotator="A1"), lexicons)
        assert part.index["m1"] != part.index["m3"]

    def test_guard(self, lexicons):
        corpus = random_corpus(10, seed=0)
        import importlib
        cmod = importlib.import_module("ecrkit.cluster")
        old = cmod.ORACLE_GUARD
        cmod.ORACLE_GUARD = 5
        try:
            with pytest.raises(ValueError, match="cluster\\(\\)"):
                pairwise_oracle(corpus, MethodSpec(base="lem"), lexicons)
        finally:
            cmod.ORACLE_GUARD = old


class TestCombinerMonotonicity:
    def test_or_coarsens_and_refines(self):
        corpus = random_corpus(120, seed=21)
        base_n = cluster(corpus, MethodSpec(base="eid_n", annotator="A1"), LEX)
        base_lt = cluster(corpus, MethodSpec(base="eid_lt", annotator="A1"), LEX)
        both_or = cluster(
            corpus, MethodSpec(base="eid_n", combiner="or", second="eid_lt",
                               annotator="A1"), LEX)
        both_and = cluster(
            corpus, MethodSpec(base="eid_n", combiner="and", second="eid_lt",
                               annotator="A1"), LEX)
        assert coarsens(base_n, both_or)
        assert coarsens(base_lt, both_or)
        assert coarsens(both_and, base_n)
        assert coarsens(both_and, base_lt)

    def test_annotator_combiners_at_scale(self):
        corpus = synth_expand(random_corpus(1245, seed=1245), 50_000)
        single = [cluster(corpus, MethodSpec(base="eid_n", annotator=a), LEX)
                  for a in ("A1", "A2")]
        both = {mode: cluster(corpus, MethodSpec(
                    base="eid_n", annotator="A1", annotator_mode=mode,
                    second_annotator="A2"), LEX)
                for mode in ("and", "or")}
        for part in single:
            assert coarsens(both["and"], part)
            assert coarsens(part, both["or"])
