"""Persistent detection store and query plane.

The pipeline's other half: every frame disposition the runtimes produce
(analyzed, filtered, dropped, aborted) becomes a durable
:class:`DetectionRecord` row in an append-only, segmented, retention-bounded
store — and the query classes of *Video Monitoring Queries* (counts, top-k
busiest streams, windowed aggregates) run over those segments without the
pipeline in the loop.

* :mod:`repro.store.detstore` — the record type, its JSON/binary
  serializers, the segmented :class:`DetStore` writer and the
  retention/crash-aware :class:`DetStoreReader`;
* :mod:`repro.store.query` — pure query functions over a reader, plus
  :func:`open_store`, which transparently merges a cluster's per-instance
  stores;
* :mod:`repro.store.replay` — query-driven frame re-decode from the
  stream's stored clip;
* :mod:`repro.store.server` — the HTTP reply builders and the live
  :class:`SubscriptionHub` behind ``/query`` and ``/subscribe``.
"""

from .detstore import (
    DetectionRecord,
    DetStore,
    DetStoreReader,
    assert_store_rows_equal,
    recover_store,
)
from .query import MultiReader, count_detections, open_store, top_k_streams, window_aggregate
from .replay import ReplayResult, replay_detections
from .server import SubscriptionHub, query_reply, store_section

__all__ = [
    "DetectionRecord",
    "DetStore",
    "DetStoreReader",
    "MultiReader",
    "ReplayResult",
    "SubscriptionHub",
    "assert_store_rows_equal",
    "count_detections",
    "open_store",
    "query_reply",
    "recover_store",
    "replay_detections",
    "store_section",
    "top_k_streams",
    "window_aggregate",
]
