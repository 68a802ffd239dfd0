"""The YOLOv2-on-everything baseline system."""

from .yolo_all import baseline_offline, baseline_online

__all__ = ["baseline_offline", "baseline_online"]
