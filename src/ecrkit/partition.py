"""Hard clusterings of mention ids, shared by the corpus, clustering and scoring code."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np


class Partition:
    """A disjoint, exhaustive clustering of mention ids.

    Clusters are kept in a canonical order (by smallest member id) so that
    equal partitions serialize byte-identically.
    """

    def __init__(self, clusters: Iterable[Iterable[str]]):
        seen: dict[str, int] = {}
        canon: list[tuple[str, ...]] = []
        for cluster in clusters:
            members = tuple(sorted(set(cluster)))
            if not members:
                continue
            canon.append(members)
        canon.sort(key=lambda c: c[0])
        for ordinal, members in enumerate(canon):
            for m in members:
                if m in seen:
                    raise ValueError(f"mention {m!r} appears in more than one cluster")
                seen[m] = ordinal
        self.clusters: list[tuple[str, ...]] = canon
        self.index: dict[str, int] = seen

    @classmethod
    def from_labels(cls, labels: Mapping[str, str]) -> "Partition":
        """Group mention ids by a shared (gold) label."""
        by_label: dict[str, list[str]] = {}
        for mid, label in labels.items():
            by_label.setdefault(label, []).append(mid)
        return cls(by_label.values())

    def mention_ids(self) -> set[str]:
        return set(self.index)

    def as_sets(self) -> set[frozenset[str]]:
        return {frozenset(c) for c in self.clusters}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(tuple(self.clusters))

    def __len__(self) -> int:
        return len(self.clusters)

    def __repr__(self) -> str:
        return f"Partition({len(self.clusters)} clusters, {len(self.index)} mentions)"

    def dump(self) -> str:
        """One line per cluster: ``cluster_id TAB comma-joined mention_ids``."""
        lines = []
        for ordinal, members in enumerate(self.clusters):
            lines.append(f"{ordinal}\t{','.join(members)}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Read ``dump``'s format; blank lines and ``#`` comments are skipped."""
        clusters = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            _, tab, members = line.partition("\t")
            if not tab:
                raise ValueError(f"line {lineno}: expected cluster_id TAB "
                                 f"comma-joined mention_ids, got {line!r}")
            clusters.append(members.split(","))
        return cls(clusters)


def contingency(gold: Partition, pred: Partition
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The non-zero cells of the gold x pred contingency table, sorted by
    (gold cluster, pred cluster), as parallel arrays of the gold and pred
    cluster ordinals and the overlap, plus a list of each cell's smallest
    mention id. Raises ``ValueError`` when the partitions cover different
    mentions."""
    if gold.index.keys() != pred.index.keys():
        diff = sorted(gold.index.keys() ^ pred.index.keys())
        raise ValueError(
            f"partitions cover different mentions; symmetric difference: {diff}"
        )
    ids = list(gold.index)
    g = np.fromiter(gold.index.values(), dtype=np.int64, count=len(ids))
    p = np.fromiter(map(pred.index.__getitem__, ids), dtype=np.int64,
                    count=len(ids))
    n_pred = len(pred)
    cells, at, overlap = np.unique(g * n_pred + p, return_index=True,
                                   return_counts=True)
    # gold.index lists each cluster's members in sorted order, so a cell's
    # first occurrence is its smallest mention id.
    return cells // n_pred, cells % n_pred, overlap, [ids[i] for i in at]
