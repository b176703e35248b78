"""Coreference partition scoring: MUC, B-cubed, entity CEAF, and the
CoNLL/recall/precision averages, plus table rendering.

Conventions: 0/0 ratios score 0, and table cells are reported x100 with one
decimal, rounded half-up.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
from scipy.optimize import linear_sum_assignment

from .partition import Partition


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


def _check_same_mentions(gold: Partition, pred: Partition) -> None:
    g, p = gold.mention_ids(), pred.mention_ids()
    if g != p:
        diff = sorted(g.symmetric_difference(p))
        raise ValueError(
            f"partitions cover different mentions; symmetric difference: {diff}"
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def muc(gold: Partition, pred: Partition) -> PRF:
    """Link-based metric: recall counts the links needed to reconnect each
    gold cluster after partitioning it by the prediction."""
    _check_same_mentions(gold, pred)

    def side(key: Partition, response: Partition) -> float:
        num = 0
        den = 0
        for cluster in key.clusters:
            partitions = {response.index[m] for m in cluster}
            num += len(cluster) - len(partitions)
            den += len(cluster) - 1
        return _ratio(num, den)

    return PRF.from_pr(precision=side(pred, gold), recall=side(gold, pred))


def b_cubed(gold: Partition, pred: Partition) -> PRF:
    """Mention-based metric, macro-averaged per-mention overlap ratios."""
    _check_same_mentions(gold, pred)
    mentions = gold.mention_ids()
    if not mentions:
        return PRF.from_pr(0.0, 0.0)
    recall = 0.0
    precision = 0.0
    for m in mentions:
        g = set(gold.cluster_of(m))
        p = set(pred.cluster_of(m))
        overlap = len(g & p)
        recall += overlap / len(g)
        precision += overlap / len(p)
    n = len(mentions)
    return PRF.from_pr(precision=precision / n, recall=recall / n)


def _ceaf_similarity(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    overlap = len(set(a) & set(b))
    return 2.0 * overlap / (len(a) + len(b))


def ceaf_e(gold: Partition, pred: Partition) -> PRF:
    """Entity-based CEAF under the optimal one-to-one cluster alignment."""
    _check_same_mentions(gold, pred)
    if not gold.clusters or not pred.clusters:
        return PRF.from_pr(0.0, 0.0)
    sim = np.array([
        [_ceaf_similarity(g, p) for p in pred.clusters]
        for g in gold.clusters
    ])
    rows, cols = linear_sum_assignment(-sim)
    total = float(sim[rows, cols].sum())
    return PRF.from_pr(
        precision=_ratio(total, len(pred.clusters)),
        recall=_ratio(total, len(gold.clusters)),
    )


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
    from .cluster import cluster  # local import to avoid a module cycle

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
