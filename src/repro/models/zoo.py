"""Per-stream model registry and training orchestration.

FFS-VA maintains, for every video stream, a specialized SDD and SNM, plus
two globally shared models (T-YOLO and the reference model).  This module
reproduces the Section 4.1 training pipeline:

1. label frames of the stream with the reference model (the paper uses
   YOLOv2 as the labelling oracle),
2. split into training and test subsets,
3. fit the SDD threshold and train the SNM on the training subset,
4. calibrate ``delta_diff``, ``c_low`` and ``c_high`` on the test subset.

It also tracks per-model memory footprints so the device layer can account
for model-switch costs (loading a different stream's SNM onto the GPU) and
the motivation for sharing one generic T-YOLO across streams: "sharing the
same model can reduce the switch overhead of loading different models
(e.g., 1.2 GB for T-YOLO)".
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn import TrainConfig, load_weights, save_weights
from ..video.stream import VideoStream
from .reference import ReferenceModel
from .sdd import SDD, calibrate_sdd
from .snm import SNM, SNMConfig, build_snm_network, train_snm
from .tyolo import TYolo

__all__ = ["StreamModels", "ModelZoo", "SNM_MEMORY_BYTES"]

#: Paper-reported SNM footprint: "about 200 KB GPU memory" — the figure the
#: device layer charges per resident SNM.  It counts the model.  What a
#: trained bundle holds here is ~125 KB: 15 KB of float32 weights and their
#: gradients, the rest the stream's background at frame, SDD and SNM size.
#: Not counted: the batch-sized scratch the layers grow on first use (0.2 MB
#: at batch 1, 2.5 MB at 16), which ``train_snm`` releases so that an idle
#: stream does not hold the tens of MB its training batches needed.
SNM_MEMORY_BYTES = 200 * 1024


@dataclass
class StreamModels:
    """The specialized models and scene reference for one stream."""

    stream_id: str
    kind: str
    background: np.ndarray
    sdd: SDD
    snm: SNM
    #: Diagnostics from training, useful for reporting.
    train_info: dict = field(default_factory=dict)


class ModelZoo:
    """Holds shared detectors plus the specialized models of every stream.

    Note on class labels: the evaluation (like the paper's) assumes a single
    target-object kind per stream, so detection counting defaults to
    ``kind=None`` (count every detected object).  The per-detection ``kind``
    attribute remains available for multi-class scenarios.
    """

    def __init__(
        self,
        tyolo: TYolo | None = None,
        reference: ReferenceModel | None = None,
    ):
        self.tyolo = tyolo or TYolo()
        self.reference = reference or ReferenceModel()
        self.streams: dict[str, StreamModels] = {}

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self.streams

    def __getitem__(self, stream_id: str) -> StreamModels:
        return self.streams[stream_id]

    # ------------------------------------------------------------------
    def train_for_stream(
        self,
        stream: VideoStream,
        *,
        n_train_frames: int = 600,
        stride: int = 2,
        snm_config: SNMConfig | None = None,
        train_config: TrainConfig | None = None,
        sdd_fn_budget: float = 0.01,
    ) -> StreamModels:
        """Train and register SDD + SNM for ``stream``.

        Samples ``n_train_frames`` frames (every ``stride``-th) from the
        front of the stream, labels them with the reference model, and runs
        the two-stage fit/calibrate recipe.  Returns the registered bundle.
        """
        span = min(len(stream), n_train_frames * stride)
        ts = np.arange(0, span, stride)
        if len(ts) < 8:
            raise ValueError(
                f"stream {stream.stream_id} too short to train on ({len(stream)} frames)"
            )
        frames = stream.pixel_batch(ts)
        background = stream.reference_image()
        labels = self.reference.label_frames(frames, background)
        # The label pass grew the detector's buffer to a bulk chunk (11 MB);
        # the pipeline's reference batches are a few frames.
        self.reference.detector.release()

        sdd = calibrate_sdd(
            background, frames, labels, fn_budget=sdd_fn_budget
        )
        # A stable per-stream seed (Python's str hash is salted per process).
        cfg = snm_config or SNMConfig(seed=zlib.crc32(stream.stream_id.encode()) % (2**31))
        snm = train_snm(frames, labels, background, cfg, train_config)

        bundle = StreamModels(
            stream_id=stream.stream_id,
            kind=stream.kind,
            background=background,
            sdd=sdd,
            snm=snm,
            train_info={
                "n_labelled": int(len(ts)),
                "positive_rate": float(labels.mean()),
                "sdd_threshold": sdd.threshold,
                "c_low": snm.c_low,
                "c_high": snm.c_high,
            },
        )
        self.streams[stream.stream_id] = bundle
        return bundle

    # ------------------------------------------------------------------
    # persistence (Section 5.5: reuse "saved models in the past that can
    # match the current environment" instead of retraining)
    # ------------------------------------------------------------------
    def save_stream(self, stream_id: str, directory: str | os.PathLike) -> Path:
        """Persist one stream's specialized models to ``directory``.

        Produces ``<stream_id>.snm.npz`` (network weights) and
        ``<stream_id>.meta.npz`` (background, SDD calibration, SNM
        thresholds and architecture).  Returns the metadata path.
        """
        bundle = self.streams[stream_id]
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_weights(bundle.snm.network, directory / f"{stream_id}.snm.npz")
        cfg = bundle.snm.config
        meta_path = directory / f"{stream_id}.meta.npz"
        np.savez(
            meta_path,
            kind=np.frombuffer(bundle.kind.encode(), dtype=np.uint8),
            background=bundle.background,
            sdd_reference=bundle.sdd.reference,
            sdd_threshold=np.float64(bundle.sdd.threshold),
            sdd_metric=np.frombuffer(bundle.sdd.metric.encode(), dtype=np.uint8),
            c_low=np.float64(bundle.snm.c_low),
            c_high=np.float64(bundle.snm.c_high),
            snm_input_size=np.int64(cfg.input_size),
            snm_conv1=np.int64(cfg.conv1_channels),
            snm_conv2=np.int64(cfg.conv2_channels),
            snm_temperature=np.float64(cfg.temperature),
        )
        return meta_path

    def load_stream(self, stream_id: str, directory: str | os.PathLike) -> StreamModels:
        """Restore a stream's specialized models saved by :meth:`save_stream`."""
        directory = Path(directory)
        meta_path = directory / f"{stream_id}.meta.npz"
        with np.load(meta_path) as z:
            kind = bytes(z["kind"].tobytes()).decode()
            background = z["background"]
            sdd = SDD(
                z["sdd_reference"],
                threshold=float(z["sdd_threshold"]),
                metric=bytes(z["sdd_metric"].tobytes()).decode(),
            )
            cfg = SNMConfig(
                input_size=int(z["snm_input_size"]),
                conv1_channels=int(z["snm_conv1"]),
                conv2_channels=int(z["snm_conv2"]),
                temperature=float(z["snm_temperature"]),
            )
            snm = SNM(build_snm_network(cfg), cfg, background=background)
            snm.c_low = float(z["c_low"])
            snm.c_high = float(z["c_high"])
        load_weights(snm.network, directory / f"{stream_id}.snm.npz")
        bundle = StreamModels(
            stream_id=stream_id,
            kind=kind,
            background=background,
            sdd=sdd,
            snm=snm,
            train_info={"restored_from": str(meta_path)},
        )
        self.streams[stream_id] = bundle
        return bundle

    # ------------------------------------------------------------------
    def memory_footprint(self) -> dict[str, int]:
        """Approximate bytes per resident model class (for device accounting)."""
        from .reference import REFERENCE_MEMORY_BYTES
        from .tyolo import TYOLO_MEMORY_BYTES

        return {
            "tyolo": TYOLO_MEMORY_BYTES,
            "reference": REFERENCE_MEMORY_BYTES,
            "snm_total": SNM_MEMORY_BYTES * len(self.streams),
        }
