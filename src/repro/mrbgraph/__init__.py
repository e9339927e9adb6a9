"""MRBGraph abstraction and the on-disk MRBG-Store (paper §3.2–3.4, §5.2)."""

from repro.mrbgraph.compaction import (
    CompactionPolicy,
    CompactionStats,
    FullCompaction,
    LeveledCompaction,
    SizeTieredCompaction,
    compaction_policy,
)
from repro.mrbgraph.graph import (
    DeltaEdge,
    Edge,
    apply_delta,
    edges_from_columns,
    group_delta_by_key,
    merge_columns,
)
from repro.mrbgraph.sharding import (
    HashShardRouter,
    RangeShardRouter,
    ShardedMRBGStore,
    ShardRouter,
    StoreLike,
)
from repro.mrbgraph.store import MRBGStore, StoreMetrics
from repro.mrbgraph.wal import RecoveredState, WALReplay, WriteAheadLog
from repro.mrbgraph.windows import (
    ChunkLocation,
    IndexOnlyPolicy,
    MultiDynamicWindowPolicy,
    MultiFixedWindowPolicy,
    SingleFixedWindowPolicy,
    WindowPolicy,
    policy_by_name,
)

__all__ = [
    "CompactionPolicy",
    "CompactionStats",
    "FullCompaction",
    "LeveledCompaction",
    "SizeTieredCompaction",
    "compaction_policy",
    "DeltaEdge",
    "Edge",
    "apply_delta",
    "edges_from_columns",
    "group_delta_by_key",
    "merge_columns",
    "MRBGStore",
    "StoreMetrics",
    "RecoveredState",
    "WALReplay",
    "WriteAheadLog",
    "HashShardRouter",
    "RangeShardRouter",
    "ShardRouter",
    "ShardedMRBGStore",
    "StoreLike",
    "ChunkLocation",
    "IndexOnlyPolicy",
    "MultiDynamicWindowPolicy",
    "MultiFixedWindowPolicy",
    "SingleFixedWindowPolicy",
    "WindowPolicy",
    "policy_by_name",
]
