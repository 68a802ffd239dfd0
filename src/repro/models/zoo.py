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
from ..video.ops import FRAME_CHUNK
from ..video.stream import VideoStream
from .reference import ReferenceModel
from .sdd import SDD, sdd_threshold
from .snm import SNM, SNMConfig, build_snm_network, fit_snm
from .tyolo import TYolo

__all__ = ["StreamModels", "ModelZoo", "SNM_MEMORY_BYTES"]

#: Paper-reported SNM footprint: "about 200 KB GPU memory" — the figure the
#: device layer charges per resident SNM.  It counts the model.  What a
#: trained bundle holds here is ~125 KB: 15 KB of float32 weights and their
#: gradients, the rest the stream's background at frame, SDD and SNM size.
#: Not counted: the batch-sized scratch its SDD and SNM grow on first use,
#: at most one ``FRAME_CHUNK`` deep (0.2 MB at batch 1, 3.2 MB at 16),
#: which :meth:`StreamModels.release` drops at the end of onboarding and of
#: ``build_trace``, so an idle stream holds none of it;
#: :meth:`ModelZoo.workspace_bytes` reports what is held.
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

    def release(self) -> None:
        """Drop the SDD and SNM workspaces a bulk pass grew; they re-grow,
        at most one chunk deep, on next use."""
        self.sdd.release()
        self.snm.release()

    def workspace_bytes(self) -> int:
        """Bytes of SDD and SNM scratch held right now."""
        return self.sdd.workspace_bytes() + self.snm.workspace_bytes()


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

        The clip is read :data:`~repro.video.ops.FRAME_CHUNK` frames at a
        time; each chunk leaves only its per-frame results (label, SDD
        distance, 50x50 SNM input), so the sampled frames are never held
        together, and every frame is preprocessed once.
        """
        span = min(len(stream), n_train_frames * stride)
        ts = np.arange(0, span, stride)
        if len(ts) < 8:
            raise ValueError(
                f"stream {stream.stream_id} too short to train on ({len(stream)} frames)"
            )
        background = stream.reference_image()
        # A stable per-stream seed (Python's str hash is salted per process).
        cfg = snm_config or SNMConfig(seed=zlib.crc32(stream.stream_id.encode()) % (2**31))
        snm = SNM(build_snm_network(cfg), cfg, background=background)
        probe = SDD(background, threshold=0.0)
        labels = np.empty(len(ts), dtype=np.int64)
        dist = np.empty(len(ts), dtype=np.float32)
        x = np.empty((len(ts), 1, cfg.input_size, cfg.input_size), dtype=np.float32)
        for start in range(0, len(ts), FRAME_CHUNK):
            stop = start + FRAME_CHUNK
            frames = stream.pixel_batch(ts[start:stop])
            labels[start:stop] = self.reference.label_frames(frames, background)
            dist[start:stop] = probe.distances(frames)
            x[start:stop] = snm.preprocess(frames)
        # The label pass grew the reference's workspace to a full chunk;
        # the engine's reference batches are often smaller.
        self.reference.detector.release()

        sdd = SDD(background, threshold=sdd_threshold(dist, labels, fn_budget=sdd_fn_budget))
        fit_snm(snm, x, labels, train_config)

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
        # Training grew the layers to its batches (tens of MB): an idle
        # stream holds weights, not workspace.
        bundle.release()
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

    def workspace_bytes(self) -> dict[str, int]:
        """Bytes of batch-sized scratch held right now, beside the model
        bytes of :meth:`memory_footprint`: the shared detectors' workspaces
        (``"tyolo"``, ``"reference"``) and each stream bundle's SDD and SNM
        scratch (``"stream/<id>"``).  No entry outgrows one ``FRAME_CHUNK``,
        and each reads 0 after onboarding or ``build_trace``."""
        held = {
            "tyolo": self.tyolo.detector.workspace_bytes(),
            "reference": self.reference.detector.workspace_bytes(),
        }
        for stream_id, bundle in self.streams.items():
            held[f"stream/{stream_id}"] = bundle.workspace_bytes()
        return held
