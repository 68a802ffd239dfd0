"""Training path: same bits as the formulas it replaced, and nothing retained.

Two promises of ``repro.nn``'s training half, checked on a trained stream:

* the slice-based pooling, ``np.maximum`` ReLU and parameter-only first-layer
  backward give the **same trained model** as the parent formulas in
  :mod:`tests.parent_training` — compared differentially on this host, so no
  BLAS-dependent digest is committed;
* a trained bundle holds weights, not workspace: the arrays reachable from
  it are a few hundred KB, and its buffers re-grow to the batch it is used on.
"""

import numpy as np
import pytest

import repro.models.snm as snm_module
from repro.models import ModelZoo
from repro.nn import MaxPool2D, ReLU, Sequential, TrainConfig, train_classifier
from repro.video import jackson, make_stream
from tests import parent_training as parent


def reachable_array_bytes(obj, seen=None) -> int:
    """Bytes of every distinct ndarray buffer reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif hasattr(obj, "__dict__"):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return sum(reachable_array_bytes(v, seen) for v in obj)
    return 0


def train_once(monkeypatch):
    """Onboard one short stream; everything a caller can read off the fit."""
    results = []
    monkeypatch.setattr(
        snm_module, "train_classifier", lambda *a, **kw: results.append(train_classifier(*a, **kw))
    )
    stream = make_stream(jackson(), 200, tor=0.5, seed=43)
    bundle = ModelZoo().train_for_stream(
        stream,
        n_train_frames=100,
        stride=2,
        train_config=TrainConfig(epochs=3, batch_size=32, seed=7),
    )
    idle_bytes = reachable_array_bytes(bundle)  # before any inference re-grows buffers
    px = stream.pixel_batch(np.arange(len(stream)))
    (result,) = results
    out = {f"state.{k}": v for k, v in bundle.snm.network.state_dict().items()}
    out.update(
        sdd_threshold=bundle.sdd.threshold,
        c_low=bundle.snm.c_low,
        c_high=bundle.snm.c_high,
        train_losses=result.train_losses,
        val_losses=result.val_losses,
        val_accuracies=result.val_accuracies,
        predict_proba=bundle.snm.predict_proba(px),
    )
    return bundle, px, idle_bytes, out


def test_trained_model_matches_parent_formulas(monkeypatch):
    *_, shipped = train_once(monkeypatch)
    assert len(shipped["train_losses"]) >= 2 and shipped["c_low"] < shipped["c_high"]

    used = set()

    def patch(cls, name, fn, tag):
        def method(self, *args, **kwargs):
            used.add(tag)
            return fn(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, method)

    patch(MaxPool2D, "forward", parent.pool_forward, "pool.forward")
    patch(MaxPool2D, "backward", parent.pool_backward, "pool.backward")
    patch(ReLU, "forward", parent.relu_forward, "relu.forward")
    patch(Sequential, "backward", parent.sequential_backward, "net.backward")
    *_, plain = train_once(monkeypatch)
    assert used == {"pool.forward", "pool.backward", "relu.forward", "net.backward"}
    assert shipped.keys() == plain.keys()
    for key, want in plain.items():
        assert np.array_equal(shipped[key], want), key


def test_trained_bundle_holds_weights_not_workspace(monkeypatch):
    bundle, px, idle_bytes, _ = train_once(monkeypatch)
    weights = sum(a.nbytes for a in bundle.snm.network.state_dict().values())
    # Weights, gradients, backgrounds; ~20 MB when training left its buffers.
    assert weights < idle_bytes <= 2**20

    # Buffers re-grow to the batch in use, and the answers do not move.
    def probs(batch):
        return np.concatenate(
            [bundle.snm.predict_proba(px[i : i + batch]) for i in range(0, 48, batch)]
        )

    for batch in (1, 16):
        want = probs(batch)
        bundle.snm.release()
        assert reachable_array_bytes(bundle) == idle_bytes
        assert np.array_equal(probs(batch), want)
        assert bundle.snm.network.layers[0]._bufs["cols"].shape[0] == batch * 23 * 23
        assert idle_bytes < reachable_array_bytes(bundle) < 4 * 2**20


def test_release_keeps_training_usable():
    rng = np.random.default_rng(0)
    net = snm_module.build_snm_network(snm_module.SNMConfig(input_size=30))
    x = rng.standard_normal((4, 1, 30, 30)).astype(np.float32)
    want = net.predict(x)
    net.forward(x)
    net.release()
    with pytest.raises(AssertionError, match="backward called before forward"):
        net.backward(np.ones((4, 2), dtype=np.float32))
    assert np.array_equal(net.predict(x), want)
    net.backward(net.forward(x), input_grad=False)
    assert float(np.abs(net.layers[0].grads["W"]).sum()) > 0
