"""Stage-to-device placement policies.

Section 3.1.2 fixes the paper's placement: "SDDs are executed on the CPUs,
and SNMs and T-YOLO are executed on a single GPU.  The powerful full-feature
model uses another GPU alone."  The baseline YOLOv2 system instead spreads
the reference model across both GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import Device, standard_server

__all__ = ["Placement", "ffs_va_placement", "baseline_placement"]


@dataclass
class Placement:
    """Maps each pipeline stage to the devices allowed to run it."""

    devices: dict[str, Device]
    stage_devices: dict[str, list[str]] = field(default_factory=dict)
    #: Stage names considered valid; None accepts the canonical set plus
    #: any custom stage a :class:`~repro.core.pipeline.StageGraph` declares.
    known_stages: tuple | None = None

    def __post_init__(self) -> None:
        if self.known_stages is None:
            # Deferred import: the devices layer loads before the core
            # package that owns the canonical stage names.
            from ..core.pipeline import STAGES

            self.known_stages = STAGES
        for stage, names in self.stage_devices.items():
            if stage not in self.known_stages:
                raise ValueError(f"unknown stage {stage!r}")
            for name in names:
                if name not in self.devices:
                    raise ValueError(f"stage {stage!r} mapped to unknown device {name!r}")
            if not names:
                raise ValueError(f"stage {stage!r} has no devices")

    def hosts(self, spec) -> list[str]:
        """Names of the devices hosting stage ``spec``, primary first; a
        stage this placement does not map runs on its spec's default device
        (how both runtimes place a custom graph's extra stages)."""
        return self.stage_devices.get(spec.name) or [spec.device]

    def devices_for(self, stage: str) -> list[Device]:
        """All devices allowed to execute ``stage``."""
        return [self.devices[n] for n in self.stage_devices[stage]]

    def device_for(self, stage: str) -> Device:
        """The primary device of ``stage`` (first in its list)."""
        return self.devices[self.stage_devices[stage][0]]

    def reset(self) -> None:
        for dev in self.devices.values():
            dev.reset()


def ffs_va_placement(devices: dict[str, Device] | None = None) -> Placement:
    """The paper's FFS-VA placement on the standard two-GPU server.

    Built from the default stage graph's device hints, so the placement and
    the cascade definition cannot drift apart.
    """
    from ..core.pipeline import ffs_va_graph

    devices = devices or standard_server()
    return Placement(
        devices=devices,
        stage_devices=ffs_va_graph().default_placement_map(),
    )


def baseline_placement(devices: dict[str, Device] | None = None) -> Placement:
    """The YOLOv2 baseline: the full-feature model on both GPUs."""
    from ..core.pipeline import REF

    devices = devices or standard_server()
    return Placement(
        devices=devices,
        stage_devices={REF: ["gpu0", "gpu1"]},
    )
