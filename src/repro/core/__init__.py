"""Core SPO-Join machinery: predicates, IE-Join, mutable/immutable tiers."""

from .bitset import BitSet
from .iejoin import (
    compute_offset_array,
    compute_offsets,
    compute_permutation,
    ie_join,
    ie_join_count,
    ie_self_join,
    ie_self_join_count,
    nested_loop_join,
    nested_loop_self_join,
)
from .immutable import ImmutableBatch, scalar_probe_batch
from .logical import LogicalAndOperator, LogicalResult
from .matches import MatchBatch
from .merge import MergeBatch, MergeSide, build_merge_batch, sorted_run_from_tree
from .mutable import MutableComponent
from .pojoin import BatchProbeOutcome, POJoinBatch, POJoinList, ProbeOutcome
from .pojoin_numpy import VectorPOJoinBatch
from .predicates import BandPredicate, Op, Predicate
from .query import JoinType, QuerySpec
from .spojoin import JoinStats, SPOJoin
from .sql import SQLParseError, parse_query
from .tuples import StreamTuple, make_tuple
from .window import MergePolicy, WindowKind, WindowSpec

__all__ = [
    "BitSet",
    "BandPredicate",
    "Op",
    "Predicate",
    "JoinType",
    "QuerySpec",
    "StreamTuple",
    "make_tuple",
    "WindowKind",
    "WindowSpec",
    "MergePolicy",
    "MutableComponent",
    "LogicalAndOperator",
    "LogicalResult",
    "MergeBatch",
    "MergeSide",
    "build_merge_batch",
    "sorted_run_from_tree",
    "ImmutableBatch",
    "scalar_probe_batch",
    "MatchBatch",
    "POJoinBatch",
    "POJoinList",
    "ProbeOutcome",
    "BatchProbeOutcome",
    "VectorPOJoinBatch",
    "SPOJoin",
    "JoinStats",
    "parse_query",
    "SQLParseError",
    "ie_join",
    "ie_join_count",
    "ie_self_join",
    "ie_self_join_count",
    "nested_loop_join",
    "nested_loop_self_join",
    "compute_permutation",
    "compute_offsets",
    "compute_offset_array",
]
