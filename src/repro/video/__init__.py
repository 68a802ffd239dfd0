"""Synthetic video substrate: frames, scenes, rendering, and workloads.

This package is the reproduction's stand-in for the surveillance footage
used in the paper's evaluation (Jackson / Coral webcams).  See DESIGN.md
section 2 for why a parameterized synthetic generator preserves the
behaviour FFS-VA's filters depend on.
"""

from .clipstore import StoredClip
from .diurnal import day_stream, make_day_script
from .frame import Frame, GroundTruthObject
from .ops import block_reduce_mean, normalize_unit, resize_bilinear, to_float01
from .scene import ObjectTrack, SceneScript, make_script, scenes_from_counts
from .stream import VideoStream
from .synth import Renderer, RenderOptions
from .workloads import WorkloadSpec, coral, jackson, make_stream, make_streams

__all__ = [
    "Frame",
    "GroundTruthObject",
    "ObjectTrack",
    "SceneScript",
    "make_script",
    "scenes_from_counts",
    "VideoStream",
    "Renderer",
    "RenderOptions",
    "WorkloadSpec",
    "jackson",
    "coral",
    "make_stream",
    "make_streams",
    "resize_bilinear",
    "block_reduce_mean",
    "to_float01",
    "normalize_unit",
    "StoredClip",
    "day_stream",
    "make_day_script",
]
