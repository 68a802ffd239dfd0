"""Device abstractions for the simulated heterogeneous server.

A :class:`Device` is a serial execution resource (one GPU, or the CPU pool
treated as one aggregate server for the lightweight SDD work).  The
discrete-event simulator advances each device's ``busy_until`` clock; the
threaded runtime reads the same objects as placement tags, running one batch
at a time on a ``gpu``-kind device (mirroring CUDA stream serialization per
device).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Device", "DeviceKind", "standard_server"]

DeviceKind = str  # "cpu" | "gpu"


@dataclass
class Device:
    """One serial compute resource."""

    name: str
    kind: DeviceKind
    memory_bytes: int = 8 * 2**30

    # -- simulation state ---------------------------------------------------
    busy_until: float = 0.0
    busy_time: float = 0.0  # accumulated service time, for utilization

    def reset(self) -> None:
        """Clear simulation accounting."""
        self.busy_until = 0.0
        self.busy_time = 0.0

    def run(self, now: float, service_time: float) -> float:
        """Schedule one service starting no earlier than ``now``.

        Returns the completion time and advances the device clock.  Used by
        the discrete-event simulator only.
        """
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        start = max(now, self.busy_until)
        end = start + service_time
        self.busy_until = end
        self.busy_time += service_time
        return end

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this device spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)


def standard_server() -> dict[str, Device]:
    """The paper's evaluation platform: dual-CPU + two GTX1080 GPUs.

    The dual 14-core Xeons are aggregated into one CPU device because the
    only CPU-resident stage (SDD) is ~300x faster than the pipeline
    bottleneck and never binds.
    """
    return {
        "cpu0": Device("cpu0", "cpu", memory_bytes=128 * 2**30),
        "gpu0": Device("gpu0", "gpu", memory_bytes=8 * 2**30),
        "gpu1": Device("gpu1", "gpu", memory_bytes=8 * 2**30),
    }
