"""Sequential network container."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .layers import Layer

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers with joint forward/backward passes."""

    def __init__(self, layers: Iterable[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
        """Back-propagate ``dout``; returns the gradient w.r.t. the input.

        ``input_grad=False`` (a training step: nobody reads that gradient)
        asks the first layer for its parameter gradients only and returns
        ``None``; every ``grads[...]`` is the same either way.
        """
        if not self.layers:
            return dout
        for layer in reversed(self.layers[1:]):
            dout = layer.backward(dout)
        dx = self.layers[0].backward(dout, input_grad=input_grad)
        return dx if input_grad else None

    def predict(self, x: np.ndarray, *, copy: bool = True) -> np.ndarray:
        """Inference fast path: ``forward`` outputs without backward caches.

        Runs every layer in inference mode (``training=False`` for the
        duration of the call; prior flags are restored) through its
        :meth:`~repro.nn.layers.Layer.infer` method, which reuses per-layer
        scratch buffers across calls instead of allocating.  Outputs are
        bit-identical to ``forward`` with ``set_training(False)``.

        Because the final activation lives in a scratch buffer the next call
        will overwrite, the result is copied by default; ``copy=False`` hands
        back the raw buffer for callers that consume it immediately.  Not
        re-entrant: one ``Sequential`` serves one thread at a time.
        """
        flags = [layer.training for layer in self.layers]
        try:
            for layer in self.layers:
                layer.training = False
                x = layer.infer(x)
        finally:
            for layer, flag in zip(self.layers, flags):
                layer.training = flag
        return x.copy() if copy else x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameter plumbing ---------------------------------------------------
    def parameters(self) -> list[tuple[str, dict[str, np.ndarray], dict[str, np.ndarray]]]:
        """Yield ``(layer_tag, params, grads)`` for every parameterized layer."""
        out = []
        for i, layer in enumerate(self.layers):
            if layer.params:
                out.append((f"{i}:{type(layer).__name__}", layer.params, layer.grads))
        return out

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def set_training(self, training: bool) -> None:
        for layer in self.layers:
            layer.training = training

    def release(self) -> None:
        """Drop every layer's backward cache and inference scratch (batch-sized
        workspace, re-grown on next use); parameters are untouched."""
        for layer in self.layers:
            layer.release()

    def workspace_bytes(self) -> int:
        """Bytes of batch-sized workspace :meth:`release` would drop."""
        return sum(layer.workspace_bytes() for layer in self.layers)

    def n_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for _, params, _ in self.parameters() for p in params.values())

    # -- (de)serialization -----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of ``"layerTag/paramName" -> array`` (copies)."""
        state = {}
        for tag, params, _ in self.parameters():
            for name, arr in params.items():
                state[f"{tag}/{name}"] = arr.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (strict shapes/keys)."""
        expected = {
            f"{tag}/{name}": arr
            for tag, params, _ in self.parameters()
            for name, arr in params.items()
        }
        if set(expected) != set(state):
            missing = set(expected) - set(state)
            extra = set(state) - set(expected)
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for key, arr in state.items():
            if expected[key].shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {key}: expected {expected[key].shape}, got {arr.shape}"
                )
            expected[key][...] = arr
