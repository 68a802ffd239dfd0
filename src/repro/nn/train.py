"""Mini-batch training loop with validation-based early stopping.

Reproduces the SNM training recipe of Section 4.1: labelled frames are split
into a training set and a test/validation set; the validation set is later
also used to pick the filter thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import SoftmaxCrossEntropy
from .network import Sequential
from .optim import SGD

__all__ = ["TrainConfig", "TrainResult", "train_classifier", "accuracy"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for :func:`train_classifier`."""

    epochs: int = 12
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 0.7  # multiplied in when validation loss stalls
    patience: int = 3  # epochs without val improvement before early stop
    val_fraction: float = 0.2
    seed: int = 0


@dataclass
class TrainResult:
    """Training diagnostics."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def accuracy(net: Sequential, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    """Top-1 accuracy of ``net`` on ``(x, y)``, evaluated in inference mode."""
    correct = 0
    for i in range(0, len(x), batch_size):
        logits = net.predict(x[i : i + batch_size], copy=False)
        correct += int((logits.argmax(axis=1) == y[i : i + batch_size]).sum())
    return correct / max(len(x), 1)


def train_classifier(
    net: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train ``net`` as a classifier on ``(x, y)`` with SGD + early stopping.

    The best-validation-loss parameters are restored before returning, so the
    caller always gets the early-stopped model.
    """
    cfg = config or TrainConfig()
    if len(x) != len(y):
        raise ValueError(f"x and y length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 4:
        raise ValueError("need at least 4 samples to train")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(x))
    n_val = max(1, int(len(x) * cfg.val_fraction))
    val_idx, train_idx = order[:n_val], order[n_val:]
    xt, yt = x[train_idx], y[train_idx]
    xv, yv = x[val_idx], y[val_idx]

    loss_fn = SoftmaxCrossEntropy()
    opt = SGD(net, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    result = TrainResult()
    best_state = net.state_dict()
    stall = 0

    net.set_training(True)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(xt))
        epoch_loss = 0.0
        n_batches = 0
        for i in range(0, len(xt), cfg.batch_size):
            idx = perm[i : i + cfg.batch_size]
            opt.zero_grad()
            logits = net.forward(xt[idx])
            loss = loss_fn(logits, yt[idx])
            net.backward(loss_fn.backward(), input_grad=False)
            opt.step()
            epoch_loss += loss
            n_batches += 1
        result.train_losses.append(epoch_loss / max(n_batches, 1))

        val_logits = net.predict(xv, copy=False)
        val_loss = loss_fn(val_logits, yv)
        val_acc = float((val_logits.argmax(axis=1) == yv).mean())
        result.val_losses.append(val_loss)
        result.val_accuracies.append(val_acc)

        if val_loss < result.best_val_loss - 1e-5:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best_state = net.state_dict()
            stall = 0
        else:
            stall += 1
            opt.lr *= cfg.lr_decay
            if stall >= cfg.patience:
                break

    net.load_state_dict(best_state)
    net.set_training(False)
    return result
