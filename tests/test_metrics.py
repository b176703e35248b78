import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ecrkit import (
    MethodSpec,
    Partition,
    b_cubed,
    ceaf_e,
    cluster,
    format_score,
    muc,
    score,
    score_matrix,
)
from ecrkit.metrics import CSV_COLUMNS, PRF, render_matrix_csv, \
    render_matrix_text
from ecrkit.partition import contingency
from ecrkit.synthetic import random_corpus, synthetic_lexicons

TOL = 1e-12


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def reference_muc(gold, pred):
    """Set-based MUC: the response clusters met by each key cluster."""
    def side(key, response):
        num = den = 0
        for cluster_ in key.clusters:
            num += len(cluster_) - len({response.index[m] for m in cluster_})
            den += len(cluster_) - 1
        return _ratio(num, den)

    return PRF.from_pr(precision=side(pred, gold), recall=side(gold, pred))


def reference_b_cubed(gold, pred):
    """Per-mention B-cubed over the two clusters of every mention as sets."""
    mentions = gold.mention_ids()
    if not mentions:
        return PRF.from_pr(0.0, 0.0)
    recall = precision = 0.0
    for m in mentions:
        g = set(gold.clusters[gold.index[m]])
        p = set(pred.clusters[pred.index[m]])
        recall += len(g & p) / len(g)
        precision += len(g & p) / len(p)
    return PRF.from_pr(precision=precision / len(mentions),
                       recall=recall / len(mentions))


def reference_ceaf_e(gold, pred):
    """CEAF_e by a dense |gold| x |pred| phi4 matrix and a dense assignment."""
    if not gold.clusters or not pred.clusters:
        return PRF.from_pr(0.0, 0.0)
    sim = np.array([[2.0 * len(set(g) & set(p)) / (len(g) + len(p))
                     for p in pred.clusters] for g in gold.clusters])
    rows, cols = linear_sum_assignment(-sim)
    total = float(sim[rows, cols].sum())
    return PRF.from_pr(precision=total / len(pred.clusters),
                       recall=total / len(gold.clusters))


GOLD_ABC = Partition([["a", "b", "c"]])
PRED_AB_C = Partition([["a", "b"], ["c"]])


def random_partition(ids, rng):
    labels = {i: str(rng.randint(0, max(1, len(ids) // 2))) for i in ids}
    return Partition.from_labels(labels)


class TestFixedValues:
    """Hand-computed values for gold {abc} vs predicted {ab},{c}."""

    def test_muc(self):
        s = muc(GOLD_ABC, PRED_AB_C)
        assert s.precision == pytest.approx(1.0, abs=TOL)
        assert s.recall == pytest.approx(0.5, abs=TOL)
        assert s.f1 == pytest.approx(2 / 3, abs=TOL)

    def test_b_cubed(self):
        s = b_cubed(GOLD_ABC, PRED_AB_C)
        assert s.precision == pytest.approx(1.0, abs=TOL)
        assert s.recall == pytest.approx(5 / 9, abs=TOL)
        assert s.f1 == pytest.approx(5 / 7, abs=TOL)

    def test_ceaf_e(self):
        s = ceaf_e(GOLD_ABC, PRED_AB_C)
        # best alignment maps {abc} to {ab}: phi4 = 2*2/(3+2) = 0.8
        assert s.precision == pytest.approx(0.4, abs=TOL)
        assert s.recall == pytest.approx(0.8, abs=TOL)
        assert s.f1 == pytest.approx(8 / 15, abs=TOL)

    def test_report_aggregates(self):
        r = score(GOLD_ABC, PRED_AB_C)
        expect_conll = (2 / 3 + 5 / 7 + 8 / 15) / 3
        assert r.conll_f1 == pytest.approx(expect_conll, abs=TOL)
        # R_avg / P_avg average the link-based metrics (MUC and B-cubed)
        assert r.r_avg == pytest.approx((0.5 + 5 / 9) / 2, abs=TOL)
        assert r.p_avg == pytest.approx((1.0 + 1.0) / 2, abs=TOL)

    def test_all_singletons_vs_one_cluster(self):
        gold = Partition([["a", "b", "c", "d"]])
        pred = Partition([["a"], ["b"], ["c"], ["d"]])
        s = muc(gold, pred)
        # no links predicted: recall 0; precision 0/0 -> 0 by convention
        assert s.precision == 0.0
        assert s.recall == 0.0
        assert s.f1 == 0.0
        b = b_cubed(gold, pred)
        assert b.precision == pytest.approx(1.0, abs=TOL)
        assert b.recall == pytest.approx(0.25, abs=TOL)

    def test_empty_partitions(self):
        empty = Partition([])
        s = score(empty, empty)
        assert s.conll_f1 == 0.0


class TestCeafOracle:
    """CEAF_e against exhaustive enumeration of one-to-one cluster alignments."""

    @staticmethod
    def phi4(k, r):
        return 2 * len(k & r) / (len(k) + len(r))

    def exhaustive(self, gold, pred):
        ks = [set(c) for c in gold.clusters]
        rs = [set(c) for c in pred.clusters]
        small, large = (ks, rs) if len(ks) <= len(rs) else (rs, ks)
        best = 0.0
        for perm in itertools.permutations(range(len(large)), len(small)):
            best = max(best,
                       sum(self.phi4(small[i], large[j])
                           for i, j in enumerate(perm)))
        p = best / len(rs) if rs else 0.0
        r = best / len(ks) if ks else 0.0
        return p, r

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        ids = [f"m{i}" for i in range(rng.randint(2, 12))]
        gold = random_partition(ids, rng)
        pred = random_partition(ids, rng)
        if len(gold) > 6 or len(pred) > 6:
            pytest.skip("keep brute force tractable")
        s = ceaf_e(gold, pred)
        p, r = self.exhaustive(gold, pred)
        assert s.precision == pytest.approx(p, abs=TOL)
        assert s.recall == pytest.approx(r, abs=TOL)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_identity_is_perfect(self, seed):
        rng = random.Random(seed)
        ids = [f"m{i}" for i in range(rng.randint(1, 30))]
        part = random_partition(ids, rng)
        r = score(part, part)
        for prf in (r.muc, r.b3, r.ceaf_e):
            # MUC of all-singleton gold is 0/0 -> 0 by convention
            assert prf.f1 in (pytest.approx(1.0, abs=TOL), 0.0)
        assert r.b3.f1 == pytest.approx(1.0, abs=TOL)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_duality(self, seed):
        rng = random.Random(seed)
        ids = [f"m{i}" for i in range(rng.randint(1, 30))]
        gold = random_partition(ids, rng)
        pred = random_partition(ids, rng)
        fwd = score(gold, pred)
        rev = score(pred, gold)
        for prf in (fwd.muc, fwd.b3, fwd.ceaf_e):
            assert -TOL <= prf.precision <= 1 + TOL
            assert -TOL <= prf.recall <= 1 + TOL
            assert -TOL <= prf.f1 <= 1 + TOL
        # swapping gold and prediction swaps precision and recall
        assert fwd.muc.precision == pytest.approx(rev.muc.recall, abs=TOL)
        assert fwd.b3.precision == pytest.approx(rev.b3.recall, abs=TOL)
        assert fwd.ceaf_e.precision == pytest.approx(rev.ceaf_e.recall, abs=TOL)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = random.Random(seed)
        ids = [f"m{i}" for i in range(rng.randint(1, 25))]
        gold = random_partition(ids, rng)
        pred = random_partition(ids, rng)
        mapping = {i: f"x{k}" for k, i in enumerate(rng.sample(ids, len(ids)))}
        gold2 = Partition([[mapping[m] for m in c] for c in gold.clusters])
        pred2 = Partition([[mapping[m] for m in c] for c in pred.clusters])
        a, b = score(gold, pred), score(gold2, pred2)
        assert a.conll_f1 == pytest.approx(b.conll_f1, abs=TOL)
        assert a.r_avg == pytest.approx(b.r_avg, abs=TOL)
        assert a.p_avg == pytest.approx(b.p_avg, abs=TOL)

    def test_mention_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mention"):
            score(Partition([["a"]]), Partition([["b"]]))


class TestContingency:
    def test_cells(self):
        gold = Partition([["a", "b", "c", "e"], ["d", "f"]])
        pred = Partition([["c", "d"], ["a", "e"], ["b"], ["f"]])
        # pred ordinals by smallest member: {a,e}=0 {b}=1 {c,d}=2 {f}=3
        g, p, overlap, first = contingency(gold, pred)
        assert g.tolist() == [0, 0, 0, 1, 1]
        assert p.tolist() == [0, 1, 2, 2, 3]
        assert overlap.tolist() == [2, 1, 1, 1, 1]
        assert first == ["a", "b", "c", "d", "f"]

    def test_empty(self):
        g, p, overlap, first = contingency(Partition([]), Partition([]))
        assert len(g) == len(p) == len(overlap) == len(first) == 0

    def test_different_mentions_rejected(self):
        with pytest.raises(ValueError) as err:
            contingency(Partition([["a", "b"]]), Partition([["a"], ["c"]]))
        assert str(err.value) == ("partitions cover different mentions; "
                                  "symmetric difference: ['b', 'c']")


class TestReference:
    """The cell formulas against per-mention sets and a dense CEAF_e."""

    @given(st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)),
                    max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_cells_match_reference(self, labels):
        gold = Partition.from_labels({f"m{i}": str(g)
                                      for i, (g, _) in enumerate(labels)})
        pred = Partition.from_labels({f"m{i}": str(p)
                                      for i, (_, p) in enumerate(labels)})
        for fast, ref in ((muc, reference_muc), (b_cubed, reference_b_cubed),
                          (ceaf_e, reference_ceaf_e)):
            got, want = fast(gold, pred), ref(gold, pred)
            assert got.precision == pytest.approx(want.precision, abs=TOL)
            assert got.recall == pytest.approx(want.recall, abs=TOL)
            assert got.f1 == pytest.approx(want.f1, abs=TOL)

    def test_score_at_100k_mentions(self):
        # A dense |gold| x |pred| CEAF_e matrix would need about 7.4 GiB here.
        corpus = random_corpus(100_000)
        spec = MethodSpec(base="eid_n_vn", combiner="or", second="eid_lt_vn",
                          annotator="A1")
        pred = cluster(corpus, spec, synthetic_lexicons())
        fwd, rev = score(corpus.gold, pred), score(pred, corpus.gold)
        assert len(corpus.gold) > 30_000 and len(pred) > 30_000
        assert fwd.ceaf_e.precision == pytest.approx(rev.ceaf_e.recall,
                                                     abs=TOL)
        assert 0.0 < fwd.ceaf_e.f1 < 1.0


class TestFormatting:
    def test_format_score_rounding(self):
        assert format_score(0.66666) == "66.7"
        assert format_score(0.5) == "50.0"
        assert format_score(0.12345) == "12.3"
        # half-up, not banker's rounding
        assert format_score(0.8005) == "80.1"
        assert format_score(1.0) == "100.0"

    def test_matrix_csv(self):
        corpus = random_corpus(40, seed=3)
        lex = synthetic_lexicons()
        specs = [MethodSpec(base="lem"), MethodSpec(base="pb", annotator="A1")]
        rows = score_matrix(corpus, specs, lex)
        csv_text = render_matrix_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("lem,")

    def test_matrix_text_has_every_method(self):
        corpus = random_corpus(40, seed=3)
        lex = synthetic_lexicons()
        specs = [MethodSpec(base="eid_n", annotator="A1"),
                 MethodSpec(base="eid_lt", annotator="A1")]
        text = render_matrix_text(score_matrix(corpus, specs, lex))
        assert "A1:eid_n" in text
        assert "A1:eid_lt" in text
        assert "CoNLL" in text

    def test_matrix_row_error_capture(self):
        corpus = random_corpus(10, seed=3)
        lex = synthetic_lexicons()
        rows = score_matrix(
            corpus, [MethodSpec(base="eid_n", annotator="A1")], lex,
            gold=Partition([["not_in_corpus"]]))
        assert rows[0].error is not None
