"""The YOLOv2 baseline: run the full-feature model on every frame.

This is the system FFS-VA is evaluated against throughout Section 5: "the
state-of-the-art YOLOv2 system with the same hardware environment", i.e. the
reference model spread across **both** GPUs with no prepositive filtering.
A GTX1080-class GPU sustains ~56 FPS end-to-end, so the baseline tops out
around 112 FPS aggregate — enough for roughly four live 30 FPS streams
("the mainstream cost-effective servers ... can analyze up to four-way
streams using YOLOv2 in real-time") and ~134 raw FPS offline.

The baseline is not a runtime of its own: it is the ``ref-only`` cascade on
:func:`~repro.devices.placement.baseline_placement`, run by the same
:class:`~repro.sim.simulator.PipelineSimulator` as FFS-VA.  Cost model,
metrics, latency definition and telemetry schema are therefore shared by
construction, so every comparison in the benchmark suite is
apples-to-apples and :func:`~repro.obs.trace.overlay_chrome_trace` can put a
YOLOv2 run and an FFS-VA run on one timeline.
"""

from __future__ import annotations

from ..core.config import FFSVAConfig
from ..core.metrics import RunMetrics
from ..core.pipeline import REF
from ..core.trace import FrameTrace
from ..devices.costs import CostModel
from ..devices.placement import baseline_placement
from ..obs import Telemetry
from ..sim.simulator import simulate_offline, simulate_online

__all__ = ["baseline_offline", "baseline_online"]

#: Frames the decoder may buffer ahead of the two GPUs.  The queue is
#: bounded (unlike FFS-VA's Section 5.5 overflow-to-storage remedy) because
#: with no filter upstream it *is* the ingest path: back-pressure on it is
#: how an overloaded baseline falls behind its cameras.
_REF_QUEUE_DEPTH = 8


def _baseline_config(config: FFSVAConfig | None) -> FFSVAConfig:
    config = config or FFSVAConfig()
    return config.with_(
        cascade="ref-only",
        ref_overflow_to_storage=False,
        queue_depths={**config.queue_depths, REF: _REF_QUEUE_DEPTH},
    )


def baseline_offline(
    traces: list[FrameTrace],
    config: FFSVAConfig | None = None,
    cost_model: CostModel | None = None,
    *,
    telemetry: Telemetry | None = None,
) -> RunMetrics:
    """Offline YOLOv2-on-everything across both GPUs."""
    return simulate_offline(
        traces, _baseline_config(config), cost_model, baseline_placement(),
        telemetry=telemetry,
    )


def baseline_online(
    traces: list[FrameTrace],
    config: FFSVAConfig | None = None,
    cost_model: CostModel | None = None,
    *,
    horizon_slack: float = 2.0,
    telemetry: Telemetry | None = None,
) -> RunMetrics:
    """Online YOLOv2-on-everything across both GPUs (bounded horizon)."""
    return simulate_online(
        traces, _baseline_config(config), cost_model, baseline_placement(),
        horizon_slack=horizon_slack, telemetry=telemetry,
    )
