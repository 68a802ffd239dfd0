"""FFS-VA core: the stage-graph control plane, configuration, queues,
batching, traces, and metrics."""

from .batching import decide_batch
from .config import FFSVAConfig
from .metrics import (
    LatencyStats,
    RunMetrics,
    StageCounters,
    assert_stage_counts_equal,
)
from .pipeline import (
    CASCADES,
    STAGES,
    BatchRule,
    StageGraph,
    StageLogic,
    StageSpec,
    cascade,
    ffs_va_graph,
)
from .planner import CapacityPlan, offline_throughput_bound, plan_capacity
from .queues import FeedbackQueue, QueueClosed, SimQueue
from .trace import FrameTrace, build_trace
from .tracecache import cached_trace, workload_trace

__all__ = [
    "FFSVAConfig",
    "StageGraph",
    "StageSpec",
    "StageLogic",
    "BatchRule",
    "CASCADES",
    "STAGES",
    "cascade",
    "ffs_va_graph",
    "decide_batch",
    "FeedbackQueue",
    "SimQueue",
    "QueueClosed",
    "FrameTrace",
    "build_trace",
    "cached_trace",
    "workload_trace",
    "RunMetrics",
    "StageCounters",
    "LatencyStats",
    "assert_stage_counts_equal",
    "CapacityPlan",
    "plan_capacity",
    "offline_throughput_bound",
]
