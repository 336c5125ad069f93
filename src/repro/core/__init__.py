"""PRKB — the paper's primary contribution.

The past result knowledge base and the selection processors built on it:
single comparison predicates (Sec. 5), multi-dimensional range queries
(Sec. 6), BETWEEN (Appendix A), update handling (Sec. 7), and the
future-work extensions (MIN/MAX/TOP-k and skyline pruning, Sec. 9).
"""

from .partitions import Partition, PartialOrderPartitions
from .prkb import PRKBIndex, SelectionResult, QFilterOutcome, QScanOutcome
from .single import SingleDimensionProcessor, QueryCost
from .between import BetweenProcessor
from .multi import DimensionRange, MultiDimensionProcessor
from .updates import TableUpdater, InsertReceipt
from .aggregates import AggregateResolver
from .skyline import SkylineResolver
from .bootstrap import PrimingReport, generate_thresholds, prime_index

__all__ = [
    "Partition",
    "PartialOrderPartitions",
    "PRKBIndex",
    "SelectionResult",
    "QFilterOutcome",
    "QScanOutcome",
    "SingleDimensionProcessor",
    "QueryCost",
    "BetweenProcessor",
    "DimensionRange",
    "MultiDimensionProcessor",
    "TableUpdater",
    "InsertReceipt",
    "AggregateResolver",
    "SkylineResolver",
    "PrimingReport",
    "generate_thresholds",
    "prime_index",
]
