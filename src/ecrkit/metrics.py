"""Coreference partition scoring: MUC, B-cubed, entity CEAF, and the
CoNLL/recall/precision averages, plus table rendering.

Each metric is a formula over the non-zero cells of the gold x pred
contingency table (``partition.contingency``), never a |gold| x |pred| matrix;
CEAF_e's alignment is a sparse bipartite matching over those cells.

Conventions: 0/0 ratios score 0, and table cells are reported x100 with one
decimal, rounded half-up.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .cluster import cluster
from .partition import Partition, contingency


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRF":
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        return cls(precision, recall, f1)


@dataclass(frozen=True)
class ScoreReport:
    muc: PRF
    b3: PRF
    ceaf_e: PRF
    conll_f1: float
    r_avg: float
    p_avg: float


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def muc(gold: Partition, pred: Partition) -> PRF:
    """Link-based metric: recall counts the links needed to reconnect each
    gold cluster after partitioning it by the prediction, i.e. each
    cluster's size minus its number of cells."""
    links = len(gold.index) - len(contingency(gold, pred)[2])
    return PRF.from_pr(precision=_ratio(links, len(gold.index) - len(pred)),
                       recall=_ratio(links, len(gold.index) - len(gold)))


def b_cubed(gold: Partition, pred: Partition) -> PRF:
    """Mention-based metric, macro-averaged per-mention overlap ratios:
    each cell adds overlap^2 / cluster size on either side."""
    g, p, overlap, _ = contingency(gold, pred)
    n = len(gold.index)
    if not n:
        return PRF.from_pr(0.0, 0.0)
    squares = overlap ** 2
    return PRF.from_pr(
        precision=float((squares / np.bincount(p, overlap)[p]).sum()) / n,
        recall=float((squares / np.bincount(g, overlap)[g]).sum()) / n,
    )


def ceaf_e(gold: Partition, pred: Partition) -> PRF:
    """Entity-based CEAF under the optimal one-to-one cluster alignment,
    found as a sparse minimum-cost matching: each overlapping (gold, pred)
    pair costs 2 - phi4, and each gold cluster has a private unmatched
    column at cost 2 so that a full matching always exists."""
    g, p, overlap, _ = contingency(gold, pred)
    n_gold, n_pred = len(gold), len(pred)
    if not n_gold or not n_pred:
        return PRF.from_pr(0.0, 0.0)
    phi4 = 2.0 * overlap / (np.bincount(g, overlap)[g]
                            + np.bincount(p, overlap)[p])
    own = np.arange(n_gold)
    cost = csr_matrix(
        (np.concatenate([2.0 - phi4, np.full(n_gold, 2.0)]),
         (np.concatenate([g, own]), np.concatenate([p, n_pred + own]))),
        shape=(n_gold, n_pred + n_gold),
    )
    # Every gold row is matched, so the returned rows are 0..n_gold-1.
    _, cols = min_weight_full_bipartite_matching(cost)
    total = float(phi4[cols[g] == p].sum())
    return PRF.from_pr(precision=total / n_pred, recall=total / n_gold)


def score(gold: Partition, pred: Partition) -> ScoreReport:
    m = muc(gold, pred)
    b = b_cubed(gold, pred)
    c = ceaf_e(gold, pred)
    return ScoreReport(
        muc=m,
        b3=b,
        ceaf_e=c,
        conll_f1=(m.f1 + b.f1 + c.f1) / 3.0,
        r_avg=(m.recall + b.recall) / 2.0,
        p_avg=(m.precision + b.precision) / 2.0,
    )


def format_score(value: float) -> str:
    """x100, one decimal, half-up: the table cell convention."""
    return str(
        (Decimal(str(value)) * 100).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    )


CSV_COLUMNS = [
    "method",
    "muc_p", "muc_r", "muc_f1",
    "b3_p", "b3_r", "b3_f1",
    "ceafe_p", "ceafe_r", "ceafe_f1",
    "r_avg", "p_avg", "conll_f1",
]


@dataclass
class MatrixRow:
    method: str
    report: ScoreReport | None = None
    error: str | None = None


def score_matrix(corpus, specs, lexicons,
                 gold: Partition | None = None) -> list[MatrixRow]:
    """One scored row per method spec; per-row failures are captured in the
    row instead of aborting the whole matrix."""
    if gold is None:
        gold = corpus.gold
    rows = []
    for spec in specs:
        try:
            pred = cluster(corpus, spec, lexicons)
            rows.append(MatrixRow(spec.name(), report=score(gold, pred)))
        except Exception as exc:  # captured per row by contract
            rows.append(MatrixRow(spec.name(), error=str(exc)))
    return rows


def render_matrix_csv(rows: list[MatrixRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        if row.report is None:
            writer.writerow([row.method] + ["error"] * (len(CSV_COLUMNS) - 2)
                            + [row.error])
            continue
        r = row.report
        writer.writerow([
            row.method,
            format_score(r.muc.precision), format_score(r.muc.recall),
            format_score(r.muc.f1),
            format_score(r.b3.precision), format_score(r.b3.recall),
            format_score(r.b3.f1),
            format_score(r.ceaf_e.precision), format_score(r.ceaf_e.recall),
            format_score(r.ceaf_e.f1),
            format_score(r.r_avg), format_score(r.p_avg),
            format_score(r.conll_f1),
        ])
    return buf.getvalue()


def render_matrix_text(rows: list[MatrixRow]) -> str:
    """Aligned text table with the headline R_avg / P_avg / CoNLL columns."""
    width = max([len("method")] + [len(r.method) for r in rows])
    lines = [f"{'method'.ljust(width)}  {'R_avg':>6}  {'P_avg':>6}  {'CoNLL':>6}"]
    for row in rows:
        if row.report is None:
            lines.append(f"{row.method.ljust(width)}  error: {row.error}")
            continue
        r = row.report
        lines.append(
            f"{row.method.ljust(width)}  {format_score(r.r_avg):>6}  "
            f"{format_score(r.p_avg):>6}  {format_score(r.conll_f1):>6}"
        )
    return "\n".join(lines) + "\n"
