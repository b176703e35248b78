"""Expected outputs, computed apart from the code they check.

Partitions come from the identifier-sharing graph: mentions and keys are the
nodes of a bipartite graph, each mention is joined to each of its keys, and
``scipy.sparse.csgraph.connected_components`` groups it. Keys are built from
``ecrkit.eid``'s public identifier functions (``eid_n``, ``eid_lt``,
``identifier_key``, ``canonicalize_roleset``, ``normalize_surface``); neither
``bucket_keys`` nor the union-find is used. Combined methods use tuples:
family-∧ and annotator-∧ are products, family-∨ and annotator-∨ are tagged
unions.

Scores come from the gold × predicted contingency table: MUC, B³ and CEAF_e
are computed as exact fractions (CEAF_e's alignment by
``scipy.optimize.linear_sum_assignment`` over the table's φ4 similarities).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ecrkit import EidConfig, canonicalize_roleset, eid_lt, eid_n, identifier_key
from ecrkit.eid import VERBATIM, VN_CLASS, normalize_surface


def family_keys(mention, family: str, annotator, lexicons,
                cfg: EidConfig = EidConfig()) -> set:
    """Keys of one identifier family for one annotator. A mention without
    that annotator's annotation has none (``lem`` needs no annotation)."""
    if family == "lem":
        return {normalize_surface(mention.lemma)}
    ann = mention.annotations.get(annotator)
    if ann is None:
        return set()
    fcfg = replace(cfg, roleset_mode=VN_CLASS if family.endswith("_vn")
                   else VERBATIM)
    if family in ("pb", "pb_vn"):
        return set(canonicalize_roleset(ann.roleset, fcfg.roleset_mode,
                                        lexicons))
    ids = (eid_n if family.startswith("eid_n") else eid_lt)(
        mention, annotator, fcfg, lexicons)
    return {identifier_key(i) for i in ids}


def method_keys(mention, method: dict, lexicons) -> set:
    """Keys of a method given as a matrix spec entry: two mentions match
    exactly when their key sets intersect."""
    combiner = method.get("combiner", "single")

    def one_annotator(annotator):
        first = family_keys(mention, method["base"], annotator, lexicons)
        if combiner == "single":
            return first
        second = family_keys(mention, method["second"], annotator, lexicons)
        if combiner == "and":
            return {(a, b) for a in first for b in second}
        return {(1, a) for a in first} | {(2, b) for b in second}

    mode = method.get("annotator_mode", "single")
    keys = one_annotator(method.get("annotator"))
    if mode == "single":
        return keys
    other = one_annotator(method["second_annotator"])
    if mode == "and":
        return {(a, b) for a in keys for b in other}
    return {(1, a) for a in keys} | {(2, b) for b in other}


def key_graph(key_sets: list[set]) -> tuple[np.ndarray, np.ndarray]:
    """Component label per mention, and the size of every key bucket."""
    key_ids: dict = {}
    rows: list[int] = []
    cols: list[int] = []
    for i, keys in enumerate(key_sets):
        for key in keys:
            rows.append(i)
            cols.append(key_ids.setdefault(key, len(key_ids)))
    n = len(key_sets)
    size = n + len(key_ids)
    graph = coo_matrix(
        (np.ones(len(rows), dtype=np.int8),
         (np.asarray(rows, dtype=np.int64),
          np.asarray(cols, dtype=np.int64) + n)),
        shape=(size, size),
    )
    _, labels = connected_components(graph, directed=False)
    buckets = np.bincount(np.asarray(cols, dtype=np.int64),
                          minlength=len(key_ids))
    return labels[:n], buckets


def groups(ids: list[str], labels) -> list[list[str]]:
    by_label: dict = {}
    for mid, label in zip(ids, np.asarray(labels).tolist()):
        by_label.setdefault(label, []).append(mid)
    return list(by_label.values())


def canonical_dump(clusters) -> str:
    """The documented partition file: one line per cluster, ``ordinal TAB
    comma-joined ids``, ids sorted, clusters ordered by their smallest id."""
    canon = sorted(sorted(c) for c in clusters if c)
    return "".join(f"{i}\t{','.join(c)}\n" for i, c in enumerate(canon))


def pair_mass(buckets: np.ndarray) -> int:
    b = buckets.astype(np.int64)
    return int((b * (b - 1) // 2).sum())


def bucket_stats(key_sets: list[set], buckets: np.ndarray) -> dict:
    return {
        "buckets": int(len(buckets)),
        "pair_mass": pair_mass(buckets),
        "star_edges": int((buckets[buckets > 1] - 1).sum()),
        "max_bucket": int(buckets.max()) if len(buckets) else 0,
        "zero_key_mentions": sum(1 for k in key_sets if not k),
    }


# -- scores ------------------------------------------------------------------

def _ratio(num, den) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


def _f1(p: Fraction, r: Fraction) -> Fraction:
    return 2 * p * r / (p + r) if p + r else Fraction(0)


def contingency_scores(gold_labels: list, pred_labels: list) -> dict[str, Fraction]:
    """Every matrix CSV cell as an exact fraction in [0, 1], from the
    gold × predicted contingency table."""
    _, g = np.unique(np.asarray(gold_labels), return_inverse=True)
    _, p = np.unique(np.asarray(pred_labels), return_inverse=True)
    n = len(g)
    cells, counts = np.unique(np.stack([g, p], axis=1), axis=0,
                              return_counts=True)
    gi, pj = cells[:, 0], cells[:, 1]
    gsize, psize = np.bincount(g), np.bincount(p)
    # MUC: a cluster split into k parts by the other side misses k - 1 links.
    muc_r = _ratio(int((gsize - np.bincount(gi, minlength=len(gsize))).sum()),
                   int((gsize - 1).sum()))
    muc_p = _ratio(int((psize - np.bincount(pj, minlength=len(psize))).sum()),
                   int((psize - 1).sum()))
    # B³: mention m in cell (i, j) scores n_ij/|g_i| recall, n_ij/|p_j| precision.
    sq = counts.astype(np.int64) ** 2
    b3_r = sum(Fraction(int(s), int(gsize[i])) for i, s in
               enumerate(np.bincount(gi, weights=sq, minlength=len(gsize))
                         .astype(np.int64))) / n
    b3_p = sum(Fraction(int(s), int(psize[j])) for j, s in
               enumerate(np.bincount(pj, weights=sq, minlength=len(psize))
                         .astype(np.int64))) / n
    # CEAF_e: φ4 = 2 n_ij / (|g_i| + |p_j|), zero outside the table's cells.
    sim = np.zeros((len(gsize), len(psize)))
    sim[gi, pj] = 2.0 * counts / (gsize[gi] + psize[pj])
    rows, cols = linear_sum_assignment(sim, maximize=True)
    overlap = dict(zip(zip(gi.tolist(), pj.tolist()), counts.tolist()))
    total = sum(Fraction(2 * overlap.get((r, c), 0),
                         int(gsize[r] + psize[c]))
                for r, c in zip(rows.tolist(), cols.tolist()))
    ceaf_p, ceaf_r = total / len(psize), total / len(gsize)
    muc_f, b3_f, ceaf_f = _f1(muc_p, muc_r), _f1(b3_p, b3_r), _f1(ceaf_p, ceaf_r)
    return {
        "muc_p": muc_p, "muc_r": muc_r, "muc_f1": muc_f,
        "b3_p": b3_p, "b3_r": b3_r, "b3_f1": b3_f,
        "ceafe_p": ceaf_p, "ceafe_r": ceaf_r, "ceafe_f1": ceaf_f,
        "r_avg": (muc_r + b3_r) / 2, "p_avg": (muc_p + b3_p) / 2,
        "conll_f1": (muc_f + b3_f + ceaf_f) / 3,
    }
