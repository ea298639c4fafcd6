"""Training objectives and their exact analytic gradients.

Covers softmax cross-entropy (harm head), mean binary cross-entropy
(targets head), the supervised in-batch InfoNCE contrastive loss, and the
combined objective ce + lambda * nce. Each term has one implementation:
``gradients`` takes its loss values from ``cross_entropy``,
``binary_cross_entropy`` and ``_info_nce_backward`` (whose value is
``info_nce``), so the closed-form fixtures on those functions test the loss
that training minimizes. The backward pass is hand-derived;
`harmkit.trainer.grad_check` verifies every partial against central finite
differences. Documents are int64 id arrays, and gradients ``ModelParams``.

InfoNCE convention: for anchor i the positives are the other batch members
sharing its class label; the denominator runs over all j != i; anchors
without positives are skipped; the loss is the mean over contributing
anchors (0.0 when there are none). Similarities are cosine, computed as dot
products of the L2-normalized representations, so every exponent is bounded
by 1/tau. The representation is the tanh hidden vector ``z`` of the forward
pass; ``normalize_rows`` scales it here, in the loss, and only when the
contrastive weight is positive, so inference never computes it. A zero
representation stays zero under normalization and contributes zero
similarity and zero gradient (degenerate empty-document case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BatchActivations, ModelParams, forward_batch, sigmoid, softmax

_LOG_CLAMP = 1e-12


class NonFiniteLossError(RuntimeError):
    """Raised when a loss term evaluates to NaN or infinity."""


@dataclass(frozen=True)
class ContrastiveConfig:
    """Temperature tau and weight lam of the contrastive term."""

    tau: float = 0.1
    lam: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")


def cross_entropy(probs: np.ndarray, classes: np.ndarray | int) -> float:
    """Batch-mean negative log probability of the true class, clamped at 1e-12.

    probs is (B, C) with B class indices; a single (C,) row with one index is
    a batch of one.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    classes = np.atleast_1d(np.asarray(classes)).astype(np.int64)
    batch, num_classes = probs.shape
    if classes.shape != (batch,):
        raise ValueError(f"{batch} probability rows but {classes.size} class labels")
    if classes.min() < 0 or classes.max() >= num_classes:
        raise ValueError(f"class labels must be in 0..{num_classes - 1}")
    picked = probs[np.arange(batch), classes]
    return float(np.mean(-np.log(np.maximum(picked, _LOG_CLAMP))))


def binary_cross_entropy(sigmas: np.ndarray, targets: tuple[int, ...] | np.ndarray) -> float:
    """Batch mean over rows of the per-row mean binary cross-entropy.

    sigmas and targets share one shape: (B, T), or (T,) for a single row.
    """
    sigmas = np.clip(np.asarray(sigmas, dtype=np.float64), _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    t = np.asarray(targets, dtype=np.float64)
    if sigmas.shape != t.shape:
        raise ValueError(f"shape mismatch: {sigmas.shape} vs {t.shape}")
    return float(np.mean(-(t * np.log(sigmas) + (1.0 - t) * np.log(1.0 - sigmas)).mean(axis=-1)))


def info_nce(reps: np.ndarray, labels: np.ndarray, tau: float) -> float:
    """Supervised in-batch InfoNCE over cosine similarities (see module docstring)."""
    reps = np.asarray(reps, dtype=np.float64)
    labels = np.asarray(labels)
    if reps.ndim != 2 or reps.shape[0] != labels.shape[0]:
        raise ValueError(f"reps {reps.shape} and labels {labels.shape} are misaligned")
    n = reps.shape[0]
    if n < 2:
        raise ValueError(f"contrastive batch needs at least 2 members, got {n}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _info_nce_backward(normalize_rows(reps)[0], labels, tau)[0]


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x scaled to unit L2 norm, and the norms; zero rows stay zero."""
    norms = np.linalg.norm(x, axis=1)
    nonzero = norms > 0.0
    return np.divide(x, norms[:, None], out=np.zeros_like(x), where=nonzero[:, None]), norms


def _check_finite(value: float, term: str) -> None:
    if not np.isfinite(value):
        raise NonFiniteLossError(f"{term} term diverged (value {value})")


def gradients(
    params: ModelParams,
    docs: list[np.ndarray],
    labels: np.ndarray,
    cfg: ContrastiveConfig,
    task: str = "harm",
) -> tuple[float, ModelParams]:
    """Batch-mean combined loss and its exact gradient for every parameter.

    The gradient is a ``ModelParams`` of partial derivatives, each shaped
    like its parameter; ``embed`` is dense over the table handed in, with
    zero rows where no token of the batch hashes, and ``rows`` is None.

    For task='harm', labels is a (B,) array of class indices and the loss is
    mean cross-entropy plus lam * InfoNCE over the normalized hidden vectors.
    For task='targets', labels is a (B, num_targets) 0/1 matrix and the loss
    is the batch mean of the per-document BCE (the contrastive term does not
    apply to multi-label sets).
    """
    if task not in ("harm", "targets"):
        raise ValueError(f"unknown task {task!r}")
    batch = len(docs)
    if batch == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels)
    if labels.shape[0] != batch:
        raise ValueError(f"{batch} docs but {labels.shape[0]} label rows")

    acts = forward_batch(params, docs)
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays() if name != "embed"}

    if task == "harm":
        if cfg.lam > 0.0 and batch < 2:
            raise ValueError("contrastive loss needs batch size >= 2")
        loss, g_z = _harm_backward(params, acts, labels, cfg, grads)
    else:
        loss, g_z = _targets_backward(params, acts, labels, grads)

    # Shared trunk: tanh hidden layer, then mean pooling into embedding rows.
    g_a = g_z * (1.0 - acts.z**2)
    grads["w1"] += acts.h0.T @ g_a
    grads["b1"] += g_a.sum(axis=0)
    embed = _pool_backward(docs, g_a @ params.w1.T, params.embed.shape[0])
    return loss, ModelParams(embed=embed, **grads)


def _pool_backward(docs: list[np.ndarray], g_h0: np.ndarray, rows: int) -> np.ndarray:
    """Mean pooling's backward: the (rows, embed_dim) table whose row t sums
    g_h0[i] / length_i over the occurrences of id t in each document i.

    One bincount over (id, column) bins adds the batch's tokens into a zeroed
    table in document then token order, so each sum is the sequential one.
    """
    dim = g_h0.shape[1]
    lengths = np.array([doc.size for doc in docs], dtype=np.int64)
    ids = np.concatenate(docs)
    # An empty document's row is divided by 1 and then repeated 0 times.
    vals = np.repeat(g_h0 / np.maximum(lengths, 1)[:, None], lengths, axis=0)
    bins = (ids[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(bins, weights=vals.ravel(), minlength=rows * dim).reshape(rows, dim)


def _harm_backward(
    params: ModelParams,
    acts: BatchActivations,
    classes: np.ndarray,
    cfg: ContrastiveConfig,
    grads: dict[str, np.ndarray],
) -> tuple[float, np.ndarray]:
    batch = acts.z.shape[0]
    classes = classes.astype(np.int64)
    probs = softmax(acts.class_logits)
    mean_ce = cross_entropy(probs, classes)
    _check_finite(mean_ce, "cross-entropy")

    d_logits = probs.copy()
    d_logits[np.arange(batch), classes] -= 1.0
    d_logits /= batch
    grads["wc"] += acts.z.T @ d_logits
    grads["bc"] += d_logits.sum(axis=0)
    g_z = d_logits @ params.wc.T

    nce = 0.0
    if cfg.lam > 0.0:
        z_hat, z_norm = normalize_rows(acts.z)
        nce, g_zhat = _info_nce_backward(z_hat, classes, cfg.tau)
        _check_finite(nce, "contrastive")
        # Through the normalization z_hat = z / |z|: project out the radial
        # component. Zero-norm rows stay zero (documented degenerate case).
        nonzero = z_norm > 0.0
        radial = (g_zhat[nonzero] * z_hat[nonzero]).sum(axis=1, keepdims=True)
        g_z[nonzero] += cfg.lam * (g_zhat[nonzero] - radial * z_hat[nonzero]) / z_norm[nonzero, None]

    return mean_ce + cfg.lam * nce, g_z


def _info_nce_backward(z_hat: np.ndarray, classes: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """InfoNCE value plus its gradient with respect to the normalized reps."""
    n = z_hat.shape[0]
    sims = z_hat @ z_hat.T
    eye = np.eye(n, dtype=bool)
    pos_mask = (classes[:, None] == classes[None, :]) & ~eye
    pos_counts = pos_mask.sum(axis=1)
    anchors = pos_counts > 0
    n_anchors = int(anchors.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(z_hat)

    scaled = sims / tau
    scaled[eye] = -np.inf  # excludes the diagonal from every denominator
    row_max = scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled - row_max)
    denom = exp.sum(axis=1, keepdims=True)
    log_denom = np.log(denom) + row_max  # (n, 1) logsumexp over j != i

    per_anchor = np.zeros(n)
    per_anchor[anchors] = (
        log_denom[anchors, 0]
        - (sims * pos_mask).sum(axis=1)[anchors] / tau / pos_counts[anchors]
    )
    nce = float(per_anchor[anchors].mean())

    # dL/d sims[i, j] for contributing anchors: softmax weight minus the
    # positive indicator, averaged over anchors and scaled by 1/tau.
    softmax_w = exp / denom
    g_sims = np.zeros((n, n))
    g_sims[anchors] = (
        softmax_w[anchors] - pos_mask[anchors] / pos_counts[anchors, None]
    ) / (tau * n_anchors)
    g_sims[eye] = 0.0
    g_zhat = g_sims @ z_hat + g_sims.T @ z_hat
    return nce, g_zhat


def _targets_backward(
    params: ModelParams,
    acts: BatchActivations,
    target_rows: np.ndarray,
    grads: dict[str, np.ndarray],
) -> tuple[float, np.ndarray]:
    batch, n_targets = acts.target_logits.shape
    if target_rows.shape != (batch, n_targets):
        raise ValueError(f"target labels must be ({batch}, {n_targets}), got {target_rows.shape}")
    sigmas = sigmoid(acts.target_logits)
    t = target_rows.astype(np.float64)
    loss = binary_cross_entropy(sigmas, t)
    _check_finite(loss, "binary cross-entropy")

    d_logits = (sigmas - t) / (n_targets * batch)
    grads["wt"] += acts.z.T @ d_logits
    grads["bt"] += d_logits.sum(axis=0)
    return loss, d_logits @ params.wt.T
