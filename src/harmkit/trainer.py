"""Deterministic mini-batch training with validation-F1 model selection.

All randomness flows from explicit seeds: parameter init from the model
seed, per-epoch shuffles from (train seed, epoch). Two runs with identical
configs and data produce identical reports. The checkpoint kept is the one
from the epoch with the best validation F1 (macro-F1 for the harm task,
micro-F1 over thresholded decisions for the targets task); ties keep the
earliest epoch. Training steps a float64 compact table, the rows of the
embedding table that the train and val documents hash to, with plain dense
optimizers. ``init_params`` draws only those rows, so the whole table is
never held. ``train`` returns the best epoch's compact rows as the float32
values the checkpoint stores, with their table ids in ``rows``; the other
arrays it returns are float64. The checkpoint stores the rows that training
changed.

The data around the step are plain arrays built once: each split's labels
are one array from ``_extract_labels``, and each epoch's batches are index
arrays from ``make_batches`` into the encoded documents and that array.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import LabeledExample, NUM_CLASSES
from .featurizer import EncodedDoc, FeatureConfig, batch_encode
from .losses import ContrastiveConfig, GradientSet, gradients
from .metrics import confusion, classification_report, multilabel_report
from .model import ModelConfig, ModelParams, forward_batch, init_params, predict, save_params

_GRAD_TOL = 1e-4
# Floor for the relative-error denominator: partials smaller than this are
# compared absolutely, which keeps finite-difference roundoff from
# registering as disagreement on near-zero gradients.
_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    optimizer: str = "adam"
    seed: int = 0
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    task: str = "harm"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.contrastive.lam > 0.0 and self.task == "harm" and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 when the contrastive weight is positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.task not in ("harm", "targets"):
            raise ValueError(f"task must be 'harm' or 'targets', got {self.task!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class TrainReport:
    task: str
    train_loss: list[float]
    val_f1: list[float]
    best_epoch: int
    best_val_f1: float
    checkpoint: str | None

    def to_dict(self) -> dict:
        return asdict(self) | {"epochs": len(self.train_loss)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: ModelParams, grads: GradientSet) -> None:
        for name, arr in params.arrays():
            arr -= self.learning_rate * getattr(grads, name)


class AdamOptimizer:
    """Adam (Kingma & Ba 2015), a dense step over every array it is handed.

    A row whose gradient has been zero since the start has m = v = 0, and the
    step subtracts exactly 0 from it, so a row no batch reaches keeps its value.
    """

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: ModelParams, grads: GradientSet) -> None:
        self.t += 1
        for name, arr in params.arrays():
            if name not in self._m:
                self._m[name] = np.zeros_like(arr)
                self._v[name] = np.zeros_like(arr)
                self._scratch[name] = (np.empty_like(arr), np.empty_like(arr))
            self._update(arr, self._m[name], self._v[name], getattr(grads, name), *self._scratch[name])

    def _update(self, arr: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                a: np.ndarray, b: np.ndarray) -> None:
        """The Adam rule in place on arr, m and v, with scratch a and b: the IEEE
        operations of ``arr -= lr * m_hat / (sqrt(v_hat) + eps)`` in its order."""
        np.multiply(g, 1.0 - self.beta1, out=a)
        m *= self.beta1
        m += a
        np.multiply(g, 1.0 - self.beta2, out=a)
        a *= g
        v *= self.beta2
        v += a
        np.divide(m, 1.0 - self.beta1**self.t, out=a)  # m_hat
        a *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        arr -= a


def _make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdOptimizer(cfg.learning_rate)
    return AdamOptimizer(cfg.learning_rate)


def make_batches(
    n: int,
    batch_size: int,
    seed: int,
    epoch: int,
    drop_singleton: bool = False,
) -> list[np.ndarray]:
    """Shuffle the indices 0..n-1 deterministically by (seed, epoch) and
    chunk them into index arrays.

    The trailing batch may be short; with drop_singleton a trailing batch of
    one index is dropped (a single document has no contrastive pairs).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(n)
    batches = [order[start : start + batch_size] for start in range(0, n, batch_size)]
    if drop_singleton and batches and len(batches[-1]) < 2:
        batches.pop()
    return batches


def train_epoch(
    params: ModelParams,
    docs: list[EncodedDoc],
    labels: np.ndarray,
    batches: list[np.ndarray],
    cfg: TrainConfig,
    optimizer,
) -> float:
    """Run one optimizer pass over the index batches of ``docs`` and their
    ``labels`` rows; returns the mean batch loss."""
    if not batches:
        raise ValueError("no batches to train on")
    losses = []
    for batch in batches:
        loss, grads = gradients(params, [docs[i] for i in batch], labels[batch], cfg.contrastive, task=cfg.task)
        optimizer.step(params, grads)
        losses.append(loss)
    return float(np.mean(losses))


def _extract_labels(examples: Sequence[LabeledExample], task: str) -> np.ndarray:
    """The labels ``task`` trains on, one row per example: (N,) int64 class
    indices for harm, (N, 5) float64 0/1 flags for targets."""
    attr, noun = ("harm", "harm label") if task == "harm" else ("targets", "target flags")
    labels = [getattr(ex, attr) for ex in examples]
    if None in labels:
        raise ValueError(f"example {examples[labels.index(None)].id!r} lacks the {noun} required for training")
    return np.array(labels, dtype=np.int64 if task == "harm" else np.float64)


def evaluate_params(params: ModelParams, docs: list[EncodedDoc], labels: np.ndarray, task: str) -> float:
    """Validation score over one ``forward_batch`` of every document: macro-F1
    over the ``predict`` decisions (harm), or micro-F1 over the sigmoids
    thresholded at 0.5 (targets)."""
    scores, decisions = predict(forward_batch(params, docs), task)
    if task == "harm":
        return classification_report(confusion(labels, decisions)).macro_f1
    return multilabel_report(labels, scores).micro_f1


def _compact_ids(docs: list[EncodedDoc]) -> tuple[np.ndarray, list[EncodedDoc]]:
    """The sorted distinct ids of ``docs``, and the documents with each id
    replaced by its index in that array."""
    rows, inverse = np.unique(np.concatenate([doc.ids for doc in docs]), return_inverse=True)
    ends = np.cumsum([doc.ids.size for doc in docs]).tolist()
    return rows, [EncodedDoc(ids=inverse[end - doc.ids.size : end]) for doc, end in zip(docs, ends)]


def train(
    train_set: Sequence[LabeledExample],
    val_set: Sequence[LabeledExample],
    model_cfg: ModelConfig,
    feature_cfg: FeatureConfig,
    train_cfg: TrainConfig,
    checkpoint_path: str | Path | None = None,
    progress=None,
) -> tuple[ModelParams, TrainReport]:
    """Fine-tune from scratch, keeping the epoch with the best validation F1."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")

    enc_train = batch_encode([ex.text for ex in train_set], feature_cfg)
    enc_val = batch_encode([ex.text for ex in val_set], feature_cfg)
    train_labels = _extract_labels(train_set, train_cfg.task)
    val_labels = _extract_labels(val_set, train_cfg.task)

    contrastive_on = train_cfg.task == "harm" and train_cfg.contrastive.lam > 0.0
    if contrastive_on:
        missing = sorted(set(range(NUM_CLASSES)) - set(train_labels.tolist()))
        if missing:
            warnings.warn(
                f"classes {missing} absent from the training set; their contrastive anchors are skipped",
                stacklevel=2,
            )
    if train_cfg.task == "targets" and train_cfg.contrastive.lam > 0.0:
        warnings.warn("the contrastive term does not apply to the targets task; ignoring lambda", stacklevel=2)

    # Train on a float64 compact table, the rows the documents hash to. A
    # dense step moves a row with zero gradient (every val-only row) by
    # exactly 0, so the compact table follows the full table's trajectory.
    rows, docs = _compact_ids([*enc_train, *enc_val])
    if rows.size and rows[-1] >= model_cfg.vocab_size:
        raise ValueError(f"token id out of range for vocab size {model_cfg.vocab_size}")
    enc_train, enc_val = docs[: len(enc_train)], docs[len(enc_train) :]
    params = init_params(model_cfg, rows)
    optimizer = _make_optimizer(train_cfg)

    loss_series: list[float] = []
    f1_series: list[float] = []
    best_epoch = -1
    best_f1 = -1.0
    for epoch in range(train_cfg.epochs):
        batches = make_batches(
            len(enc_train), train_cfg.batch_size, train_cfg.seed, epoch, drop_singleton=contrastive_on
        )
        mean_loss = train_epoch(params, enc_train, train_labels, batches, train_cfg, optimizer)
        val_f1 = evaluate_params(params, enc_val, val_labels, train_cfg.task)
        loss_series.append(mean_loss)
        f1_series.append(val_f1)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best = params.copy()
        if progress is not None:
            progress(epoch, mean_loss, val_f1)

    # F1 is never negative, so epoch 0 always took a snapshot. Its rows are
    # returned as the float32 values the checkpoint stores.
    params = replace(best, embed=best.embed.astype(np.float32))
    if checkpoint_path is not None:
        save_params(params, model_cfg, feature_cfg, checkpoint_path)
    report = TrainReport(
        task=train_cfg.task,
        train_loss=loss_series,
        val_f1=f1_series,
        best_epoch=best_epoch,
        best_val_f1=best_f1,
        checkpoint=str(checkpoint_path) if checkpoint_path is not None else None,
    )
    return params, report


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: tuple[int, ...]
    worst_combo: str
    analytic: float
    numeric: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < _GRAD_TOL


# (tau, lam, task) combinations cycled by grad_check; the targets row checks
# the BCE backward path, where the contrastive term plays no part.
_CHECK_COMBOS = [
    (0.05, 0.0, "harm"),
    (0.05, 0.5, "harm"),
    (0.05, 1.0, "harm"),
    (0.1, 0.0, "harm"),
    (0.1, 0.5, "harm"),
    (0.1, 1.0, "harm"),
    (1.0, 0.0, "harm"),
    (1.0, 0.5, "harm"),
    (1.0, 1.0, "harm"),
    (0.1, 0.0, "targets"),
]


def grad_check(trials: int = 30, seed: int = 0, step: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each trial draws a small random model (vocab 64, dims 8) and a batch of
    6 random documents, then perturbs every single parameter by +/-step. The
    relative error uses max(|analytic|, |numeric|, 1e-6) as denominator (see
    _REL_FLOOR).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    vocab_size, embed_dim, hidden_dim = 64, 8, 8
    worst = GradCheckReport(
        max_rel_error=0.0, worst_param="", worst_index=(), worst_combo="", analytic=0.0, numeric=0.0, trials=trials
    )
    for trial in range(trials):
        tau, lam, task = _CHECK_COMBOS[trial % len(_CHECK_COMBOS)]
        cfg = ContrastiveConfig(tau=tau, lam=lam)
        rng = np.random.default_rng([seed, trial])
        params = ModelParams(
            embed=rng.normal(0.0, 0.5, (vocab_size, embed_dim)),
            w1=rng.normal(0.0, 0.5, (embed_dim, hidden_dim)),
            b1=rng.normal(0.0, 0.5, hidden_dim),
            wc=rng.normal(0.0, 0.5, (hidden_dim, NUM_CLASSES)),
            bc=rng.normal(0.0, 0.5, NUM_CLASSES),
            wt=rng.normal(0.0, 0.5, (hidden_dim, 5)),
            bt=rng.normal(0.0, 0.5, 5),
        )
        docs = [EncodedDoc(ids=rng.integers(0, vocab_size, size=int(rng.integers(1, 9)))) for _ in range(6)]
        if task == "harm":
            # 6 draws from 3 classes guarantee at least one positive pair.
            labels = rng.integers(0, 3, size=6)
        else:
            labels = rng.integers(0, 2, size=(6, 5)).astype(np.float64)

        _, analytic = gradients(params, docs, labels, cfg, task=task)
        for name, arr in params.arrays():
            grad_arr = getattr(analytic, name)
            for index in np.ndindex(arr.shape):
                original = arr[index]
                arr[index] = original + step
                loss_plus, _ = gradients(params, docs, labels, cfg, task=task)
                arr[index] = original - step
                loss_minus, _ = gradients(params, docs, labels, cfg, task=task)
                arr[index] = original
                numeric = (loss_plus - loss_minus) / (2.0 * step)
                a = float(grad_arr[index])
                rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
                if rel > worst.max_rel_error:
                    worst = GradCheckReport(
                        max_rel_error=rel,
                        worst_param=name,
                        worst_index=index,
                        worst_combo=f"trial={trial} tau={tau} lam={lam} task={task}",
                        analytic=a,
                        numeric=numeric,
                        trials=trials,
                    )
    return worst
