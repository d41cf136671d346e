"""Adam training on cross-entropy, plus accuracy/F1 evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, batches
from .network import (MaskedNetwork, backward, cross_entropy, flatten_params,
                      forward, param_views)


PREDICT_BATCH = 1024


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        if min(self.learning_rate, self.beta1, self.beta2, self.adam_eps) <= 0:
            raise ValueError("all rates must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    # two scratch arrays shaped like the parameters, reused by every step
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction, applied in place to `params`
    (train passes its flat parameter buffer) and the state's moments.

    In-place ufuncs evaluate m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g)
    and p -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps) in this operation order,
    so the update is bit-identical to the expressions as written. A position
    whose gradient has always been zero keeps zero moments and is left
    unchanged, so masked weights stay zero under masked gradients.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    m, v = state.m, state.v
    step, denom = state.scratch
    m *= cfg.beta1
    np.multiply(grads, 1.0 - cfg.beta1, out=step)
    m += step
    v *= cfg.beta2
    np.multiply(grads, grads, out=step)
    step *= 1.0 - cfg.beta2
    v += step
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.adam_eps
    np.divide(m, bc1, out=step)
    step *= cfg.learning_rate
    step /= denom
    params -= step
    return params, state


def train(net: MaskedNetwork, train_set: Dataset,
          cfg: TrainConfig) -> list[tuple[int, float, float]]:
    """Mini-batch Adam on cross-entropy for cfg.epochs passes.

    Mutates `net` in place and returns one (epoch, mean loss, accuracy) row
    per epoch: its weights and biases become views of one flat buffer, which
    backward fills through a gradient buffer of the same layout and adam_step
    updates whole. Deterministic for a fixed cfg.seed. Raises
    TrainingDivergedError if the loss goes non-finite; the mask invariant is
    asserted every epoch.
    """
    params = flatten_params(net)
    grads = np.empty_like(params)
    grad_views = param_views(net, grads)
    state = AdamState.for_params(params)

    history = []
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        correct = 0
        for batch_idx in batches(train_set, cfg.batch_size, cfg.seed + 1_000_003 * epoch):
            xb = train_set.images[batch_idx]
            yb = train_set.labels[batch_idx]
            logits, probs, cache = forward(net, xb)
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch}, t={state.t}")
            epoch_loss += loss * len(batch_idx)
            correct += int((probs.argmax(axis=1) == yb).sum())
            backward(net, cache, yb, grad_views, input_grad=False)
            adam_step(params, grads, state, cfg)
            net.mark_mutated()
        net.assert_mask_invariant()
        history.append((epoch, epoch_loss / train_set.n, correct / train_set.n))
    return history


@dataclass
class EvalReport:
    """Accuracy, F1 and confusion of a model on a test set, and the class it
    predicted for each image; to_dict holds every field but the predictions."""

    accuracy: float
    macro_f1: float
    precision: list[float]
    recall: list[float]
    f1_per_class: list[float]
    confusion: np.ndarray  # (classes, classes), rows = true class
    absent_classes: list[int]
    predictions: np.ndarray  # (n,) predicted class per image, int64

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "predictions"}
        d["confusion"] = self.confusion.tolist()
        return d


def predict(net: MaskedNetwork, images: np.ndarray) -> np.ndarray:
    """Class probabilities, in batches of PREDICT_BATCH images; returns
    (n, output_dim)."""
    outs = []
    for i in range(0, images.shape[0], PREDICT_BATCH):
        _, probs, _ = forward(net, images[i:i + PREDICT_BATCH])
        outs.append(probs)
    return np.concatenate(outs, axis=0)


def evaluate_f1(net: MaskedNetwork, test_set: Dataset) -> EvalReport:
    """Accuracy plus macro-averaged F1 (unweighted mean of per-class F1)
    over the net's output_dim classes.

    A class absent from both predictions and truth gets F1 = 0 and is listed
    in absent_classes.
    """
    probs = predict(net, test_set.images)
    return classification_report(test_set.labels, probs.argmax(axis=1), net.output_dim)


def classification_report(truth: np.ndarray, preds: np.ndarray,
                          n_classes: int = 10) -> EvalReport:
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)

    precision, recall, f1s, absent = [], [], [], []
    for c in range(n_classes):
        tp = confusion[c, c]
        support = confusion[c, :].sum()
        predicted = confusion[:, c].sum()
        if support == 0 and predicted == 0:
            absent.append(c)
            precision.append(0.0)
            recall.append(0.0)
            f1s.append(0.0)
            continue
        prec = tp / predicted if predicted else 0.0
        rec = tp / support if support else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
        precision.append(float(prec))
        recall.append(float(rec))
        f1s.append(float(f1))
    return EvalReport(
        accuracy=float((preds == truth).mean()),
        macro_f1=float(np.mean(f1s)),
        precision=precision,
        recall=recall,
        f1_per_class=f1s,
        confusion=confusion,
        absent_classes=absent,
        predictions=preds,
    )
