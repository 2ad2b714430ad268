"""Count-based clustering for categorical event data.

Three engines over the same event model: per-variable reinforcement counts
with equal-count bands (the baseline), unique-instance counting with local
and global counters (coherence selection), and a cross-referenced
co-occurrence grid with gap-cut extraction and residual inter-pattern
links. A separate incremental pattern hierarchy grows, merges and splits
stored patterns as presentations arrive.
"""

import importlib

from .counting import (
    InstanceRecord,
    InstanceStore,
    coherence,
    present_all,
    select_clusters,
)
from .grid import CountMatrix, GridClusterResult, extract_clusters
from .ingest import (
    LabelPolicy,
    ReferenceClusters,
    load_fixture,
    parse_transactions,
    parse_transactions_path,
)
from .model import (
    ConfigError,
    DataError,
    Dataset,
    Event,
    InterPatternLink,
    Partition,
    Weights,
    build_vocabulary,
    partition_from_label_sets,
)
from .reinforce import ReinforceState, band_clusters, bands_to_partition

__version__ = "0.1.0"

# the hierarchy and evaluation names resolve on first use (PEP 562), so a
# command that runs neither never imports their modules
_LAZY = {"AgreementReport": ".evaluate", "pairwise_agreement": ".evaluate"}
_LAZY |= dict.fromkeys(("HierarchyStore", "PatternNode", "consolidate", "total_mass"), ".hierarchy")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    return value

__all__ = [
    "AgreementReport",
    "ConfigError",
    "CountMatrix",
    "DataError",
    "Dataset",
    "Event",
    "GridClusterResult",
    "HierarchyStore",
    "InstanceRecord",
    "InstanceStore",
    "InterPatternLink",
    "LabelPolicy",
    "Partition",
    "PatternNode",
    "ReferenceClusters",
    "ReinforceState",
    "Weights",
    "band_clusters",
    "bands_to_partition",
    "build_vocabulary",
    "coherence",
    "consolidate",
    "extract_clusters",
    "load_fixture",
    "pairwise_agreement",
    "parse_transactions",
    "parse_transactions_path",
    "partition_from_label_sets",
    "present_all",
    "select_clusters",
    "total_mass",
]
