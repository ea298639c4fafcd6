"""Deterministic mini-batch training with validation-F1 model selection.

All randomness flows from explicit seeds: parameter init from the model
seed, per-epoch shuffles from (model seed, epoch). Two runs with identical
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

The data around the step are plain arrays built once: each document is the
int64 array of its ids, each split's labels are one array from
``_extract_labels``, and each epoch's batches are index arrays from
``make_batches`` into the documents and that array. Documents are encoded
by ``model_cfg.features``, whose hash space is the model's vocabulary.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import LabeledExample, NUM_CLASSES, NUM_TARGETS
from .featurizer import batch_encode
from .losses import ContrastiveConfig, gradients
from .metrics import confusion, classification_report, multilabel_report
from .model import ModelConfig, ModelParams, forward_batch, init_params, predict, save_params

_GRAD_TOL = 1e-4
_GRAD_STEP = 1e-4  # grad_check's central-difference step
# Floor for the relative-error denominator: partials smaller than this are
# compared absolutely, which keeps finite-difference roundoff from
# registering as disagreement on near-zero gradients.
_REL_FLOOR = 1e-6

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    optimizer: str = "adam"
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

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        for name, arr in params.arrays():
            arr -= self.learning_rate * getattr(grads, name)


class AdamOptimizer:
    """Adam (Kingma & Ba 2015), a dense step over every array it is handed, with
    that paper's defaults ``_ADAM_BETA1`` 0.9, ``_ADAM_BETA2`` 0.999, ``_ADAM_EPS`` 1e-8.

    The step is fused: the gradients, m, v and the scratch are each one
    float64 vector over every value of every array, in ``FIELDS`` order.
    Each step gathers the gradients with ``np.concatenate``, runs ``_update``
    once over the vectors, and subtracts each array's part of the step from
    it. Every operation is elementwise, so the bits are those of a step
    array by array. Only float64 arrays are stepped: a float32 one would be
    computed in float64 here and in float32 array by array, so it is refused.

    A row whose gradient has been zero since the start has m = v = 0, and the
    step subtracts exactly 0 from it, so a row no batch reaches keeps its value.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        # The flat gradients, m, v and two scratch vectors.
        self._flat: tuple[np.ndarray, ...] = ()

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        arrays = params.arrays()
        grad_arrays = [(name, getattr(grads, name)) for name, _ in arrays]
        _refuse_non_float64(arrays, "params")
        _refuse_non_float64(grad_arrays, "grads")
        if not self._flat:
            self._flat = tuple(np.zeros(sum(arr.size for _, arr in arrays)) for _ in range(5))
        g, m, v, a, b = self._flat
        np.concatenate([arr.ravel() for _, arr in grad_arrays], out=g)
        self.t += 1
        self._update(m, v, g, a, b)
        offset = 0
        for _, arr in arrays:
            arr -= a[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size

    def _update(self, m: np.ndarray, v: np.ndarray, g: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """The Adam rule in place on m and v, leaving the step in a, with
        scratch b: the IEEE operations of ``lr * m_hat / (sqrt(v_hat) + eps)``
        in its order."""
        np.multiply(g, 1.0 - _ADAM_BETA1, out=a)
        m *= _ADAM_BETA1
        m += a
        np.multiply(g, 1.0 - _ADAM_BETA2, out=a)
        a *= g
        v *= _ADAM_BETA2
        v += a
        np.divide(m, 1.0 - _ADAM_BETA1**self.t, out=a)  # m_hat
        a *= self.learning_rate
        np.divide(v, 1.0 - _ADAM_BETA2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b


def _refuse_non_float64(arrays: list[tuple[str, np.ndarray]], owner: str) -> None:
    """Raise ValueError naming the first of ``owner``'s arrays that is not float64."""
    for name, arr in arrays:
        if arr.dtype != np.float64:
            raise ValueError(f"AdamOptimizer steps float64 arrays only; {owner}.{name} is {arr.dtype}")


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
    docs: list[np.ndarray],
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


def evaluate_params(params: ModelParams, docs: list[np.ndarray], labels: np.ndarray, task: str) -> float:
    """Validation score over one ``forward_batch`` of every document: macro-F1
    over the ``predict`` decisions (harm), or micro-F1 over the sigmoids
    thresholded at 0.5 (targets)."""
    scores, decisions = predict(forward_batch(params, docs), task)
    if task == "harm":
        return classification_report(confusion(labels, decisions)).macro_f1
    return multilabel_report(labels, scores).micro_f1


def _compact_ids(docs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted distinct ids of ``docs``, and the documents with each id
    replaced by its index in that array."""
    rows, inverse = np.unique(np.concatenate(docs), return_inverse=True)
    ends = np.cumsum([doc.size for doc in docs]).tolist()
    return rows, [inverse[end - doc.size : end] for doc, end in zip(docs, ends)]


def train(
    train_set: Sequence[LabeledExample],
    val_set: Sequence[LabeledExample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    checkpoint_path: str | Path | None = None,
    progress=None,
) -> tuple[ModelParams, TrainReport]:
    """Fine-tune from scratch, keeping the epoch with the best validation F1."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")

    enc_train = batch_encode([ex.text for ex in train_set], model_cfg.features)
    enc_val = batch_encode([ex.text for ex in val_set], model_cfg.features)
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
    enc_train, enc_val = docs[: len(enc_train)], docs[len(enc_train) :]
    params = init_params(model_cfg, rows)
    optimizer = _make_optimizer(train_cfg)

    loss_series: list[float] = []
    f1_series: list[float] = []
    best_epoch = -1
    best_f1 = -1.0
    for epoch in range(train_cfg.epochs):
        batches = make_batches(
            len(enc_train), train_cfg.batch_size, model_cfg.seed, epoch, drop_singleton=contrastive_on
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
        # ``path`` by keyword: bench/spans.py reads it from the keywords.
        save_params(params, model_cfg, path=checkpoint_path)
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


def grad_check(trials: int = 30, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each trial draws a small random model (vocab 64, dims 8) and a batch of
    6 random documents, then perturbs every single parameter by +/-1e-4. The
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
            wt=rng.normal(0.0, 0.5, (hidden_dim, NUM_TARGETS)),
            bt=rng.normal(0.0, 0.5, NUM_TARGETS),
        )
        docs = [rng.integers(0, vocab_size, size=int(rng.integers(1, 9))) for _ in range(6)]
        if task == "harm":
            # 6 draws from 3 classes guarantee at least one positive pair.
            labels = rng.integers(0, 3, size=6)
        else:
            labels = rng.integers(0, 2, size=(6, NUM_TARGETS)).astype(np.float64)

        _, analytic = gradients(params, docs, labels, cfg, task=task)
        for name, arr in params.arrays():
            grad_arr = getattr(analytic, name)
            for index in np.ndindex(arr.shape):
                original = arr[index]
                arr[index] = original + _GRAD_STEP
                loss_plus, _ = gradients(params, docs, labels, cfg, task=task)
                arr[index] = original - _GRAD_STEP
                loss_minus, _ = gradients(params, docs, labels, cfg, task=task)
                arr[index] = original
                numeric = (loss_plus - loss_minus) / (2.0 * _GRAD_STEP)
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
