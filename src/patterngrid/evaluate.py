"""Partition agreement metrics.

Agreement is judged over unordered variable pairs: a pair is positive in a
partition when both variables sit in the same cluster. Precision and recall
of the produced positives against the reference positives give a score that
does not care about cluster order, cluster count, or labels. Unassigned
variables count as singleton clusters on both sides, so they produce no
positive pairs but still take part in the universe.

Pairwise F1 is the headline number because reference clusterings here are
singleton heavy and the Rand index saturates; Rand is still computed for
completeness. When a side has no positive pairs at all its precision or
recall is 1 by convention (nothing claimed, nothing wrong).

Each produced cluster is also matched to the reference cluster it shares
the most members with, ties going to the earlier reference cluster. The
overlaps are read from the contingency table the pair counts are built
from, so matching costs one pass over its nonzero cells rather than an
intersection of every produced cluster with every reference cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from . import jsonout
from .model import DataError, Partition


@dataclass(frozen=True, slots=True)
class MatchRow:
    """One produced cluster against the reference cluster sharing the most
    members with it, the earlier one in the reference's cluster order on a
    tie, as read from the contingency table. Both sides cover every
    variable, so each produced cluster has one."""

    produced: frozenset[int]
    reference: frozenset[int]
    overlap: int


@dataclass(frozen=True, slots=True)
class AgreementReport:
    produced_pairs: int
    reference_pairs: int
    shared_pairs: int
    pairwise_precision: float
    pairwise_recall: float
    pairwise_f1: float
    rand_index: float
    exact_cluster_matches: int
    per_cluster_table: tuple[MatchRow, ...]


def pairwise_agreement(produced: Partition, reference: Partition) -> AgreementReport:
    """Score a produced partition against a reference over the same
    variable universe."""
    if produced.n != reference.n:
        raise DataError(
            f"partitions cover different universes ({produced.n} vs {reference.n} variables)"
        )
    prod = produced.with_singleton_clusters()
    ref = reference.with_singleton_clusters()
    n = prod.n

    produced_pairs = sum(len(c) * (len(c) - 1) // 2 for c in prod.clusters)
    reference_pairs = sum(len(c) * (len(c) - 1) // 2 for c in ref.clusters)

    pid = prod.cluster_ids()
    rid = ref.cluster_ids()
    contingency: dict[tuple[int, int], int] = {}
    for v in range(n):
        key = (pid[v], rid[v])
        contingency[key] = contingency.get(key, 0) + 1
    shared_pairs = sum(c * (c - 1) // 2 for c in contingency.values())

    precision = shared_pairs / produced_pairs if produced_pairs else 1.0
    recall = shared_pairs / reference_pairs if reference_pairs else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    total_pairs = n * (n - 1) // 2
    if total_pairs:
        agreements = total_pairs - produced_pairs - reference_pairs + 2 * shared_pairs
        rand = agreements / total_pairs
    else:
        rand = 1.0

    exact = len(set(prod.clusters) & set(ref.clusters))

    # each produced cluster's largest overlap, the lowest reference index on
    # a tie; every produced cluster has a cell, since both sides cover all ids
    best: dict[int, tuple[int, int]] = {}
    for (p, r), overlap in contingency.items():
        kept = best.get(p)
        if kept is None or overlap > kept[1] or overlap == kept[1] and r < kept[0]:
            best[p] = (r, overlap)
    rows = []
    for p, cluster in enumerate(prod.clusters):
        r, overlap = best[p]
        rows.append(MatchRow(cluster, ref.clusters[r], overlap))

    return AgreementReport(
        produced_pairs=produced_pairs,
        reference_pairs=reference_pairs,
        shared_pairs=shared_pairs,
        pairwise_precision=precision,
        pairwise_recall=recall,
        pairwise_f1=f1,
        rand_index=rand,
        exact_cluster_matches=exact,
        per_cluster_table=tuple(rows),
    )


def _names(ids: frozenset[int], labels: Sequence[str]) -> str:
    return "{" + ",".join(sorted(labels[i] for i in ids)) + "}"


def agreement_text(report: AgreementReport, labels: Sequence[str]) -> list[str]:
    lines = [
        f"pairs: produced={report.produced_pairs} reference={report.reference_pairs}"
        f" shared={report.shared_pairs}",
        f"pairwise: precision={report.pairwise_precision:.4f}"
        f" recall={report.pairwise_recall:.4f} f1={report.pairwise_f1:.4f}",
        f"rand_index={report.rand_index:.4f} exact_cluster_matches={report.exact_cluster_matches}",
        "best matches:",
    ]
    for row in report.per_cluster_table:
        produced, reference = _names(row.produced, labels), _names(row.reference, labels)
        lines.append(f"  {produced} ~ {reference} overlap={row.overlap}")
    return lines


def agreement_json(report: AgreementReport) -> dict:
    """The report's scores, every field but the per-cluster table in field
    order, with a ``"best_matches": null`` slot for ``best_matches_json``."""
    scores = {f.name: getattr(report, f.name) for f in fields(report)}
    del scores["per_cluster_table"]
    return {**scores, "best_matches": None}


def best_matches_json(report: AgreementReport, labels: Sequence[str], write, depth: int) -> None:
    """Write the per-cluster table as a JSON list ``depth`` levels in, in
    blocks."""
    name = jsonout.names(labels, depth + 2)
    row = jsonout.template(depth + 1, "produced", "reference", "overlap")
    table = report.per_cluster_table
    rows = (row % (name(r.produced), name(r.reference), r.overlap) for r in table)
    jsonout.write_list(rows, depth, write)
