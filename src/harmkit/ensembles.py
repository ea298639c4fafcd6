"""Combine per-document probability distributions from several trained models.

Three strategies: hard majority vote, elementwise averaging, and weighted
averaging with a convex weight vector. Each decision is one array rule over
the aligned (members, documents, classes) stack: vote ties are broken by the
highest summed probability among the tied labels, then by the smallest label
index; argmax ties in the soft strategies also resolve to the smallest index.
``align_members`` builds that stack; every combiner accepts it in place of
the member list, so several combinations of the same members align once.

``derive_weights`` gives w-avg the paper's weights: each member's macro-F1
on validation gold, scored over ``AlignedMembers.labels``, divided by their sum.

Member prediction files are UTF-8 JSONL: {"id": ..., "probs": [p0..p3]},
optionally with a "label" field (ignored on read). ``write_prediction_file``
is the one writer of prediction rows, for the ensemble and for ``predict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import NUM_CLASSES, id_list, read_records, read_rows

_ROW_SUM_TOL = 1e-6
_WEIGHT_SUM_TOL = 1e-9


def _distributions(probs: np.ndarray) -> np.ndarray:
    """Per row of a (N, C) array, whether it is a probability distribution: no
    entry below -tol and a sum within tol of 1, so NaN and infinities fail."""
    return np.all(probs >= -_ROW_SUM_TOL, axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= _ROW_SUM_TOL)


@dataclass
class MemberPrediction:
    """One model's probability rows, aligned with its document ids."""

    member_id: str
    doc_ids: list[str]
    probs: np.ndarray  # (N, num_classes)

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[0] != len(self.doc_ids):
            raise ValueError(
                f"member {self.member_id!r}: {len(self.doc_ids)} ids but probs shape {self.probs.shape}"
            )
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError(f"member {self.member_id!r}: duplicate document ids")
        if not np.all(_distributions(self.probs)):
            raise ValueError(f"member {self.member_id!r}: rows are not probability distributions")


def load_member_file(path: str | Path) -> MemberPrediction:
    """Read a member file, checking each row once and naming ``path:line``:
    the constructor's guard, for members built in memory, is not run again."""
    p = Path(path)
    doc_ids, probs = read_rows(p, "probs", NUM_CLASSES)
    bad = np.flatnonzero(~_distributions(probs))
    if bad.size:
        line_no = [n for n, _ in read_records(p)][bad[0]]
        raise ValueError(f"{p}:{line_no}: 'probs' is not a probability distribution (tolerance {_ROW_SUM_TOL:g})")
    member = object.__new__(MemberPrediction)
    member.member_id, member.doc_ids, member.probs = p.name, doc_ids, probs
    return member


_PREDICTION_KEYS = {"harm": ("probs", "label"), "targets": ("sigmas", "targets")}
# The encoder json.dumps applies to a str with its default ensure_ascii=True.
_encode_id = json.encoder.encode_basestring_ascii


def write_prediction_file(
    path: str | Path,
    doc_ids: Sequence[str],
    scores: np.ndarray,
    decisions: Sequence | np.ndarray,
    task: str = "harm",
) -> None:
    """One JSONL row per document: {"id", "probs", "label"} for harm,
    {"id", "sigmas", "targets"} for targets.

    Rows are the bytes ``json.dumps`` gives the same dict: the id through its
    string encoder, each score through ``float.__repr__`` (json's format for a
    finite float), an integer label through ``str`` and any other decision
    through ``json.dumps``. Scores must be finite floats: json writes ``NaN``
    where ``float.__repr__`` writes ``nan``.
    """
    score_key, decision_key = _PREDICTION_KEYS[task]
    scores = np.asarray(scores)
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"{path}: non-finite values in '{score_key}'")
    decisions = np.asarray(decisions)
    if decisions.ndim == 1 and decisions.dtype.kind in "iu":
        decision_texts = map(str, decisions)
    else:
        decision_texts = (json.dumps(d.tolist()) for d in decisions)
    with Path(path).open("w", encoding="utf-8") as fh:
        # Row by row, like the writes: a Python list of every row costs peak memory.
        for doc_id, row, decision in zip(doc_ids, scores, decision_texts):
            fh.write(f'{{"id": {_encode_id(doc_id)}, "{score_key}": [{", ".join(map(float.__repr__, row.tolist()))}], '
                     f'"{decision_key}": {decision}}}\n')


@dataclass(frozen=True)
class AlignedMembers:
    """Every member's rows reindexed to the first member's document order."""

    doc_ids: list[str]
    stack: np.ndarray  # (M, N, C)

    def mean(self) -> np.ndarray:
        """Elementwise mean of the member distributions, (N, C)."""
        return self.stack.sum(axis=0) / self.stack.shape[0]

    def labels(self) -> np.ndarray:
        """Each member's argmax labels, (M, N); np.argmax takes the first index on ties."""
        return np.argmax(self.stack, axis=2)


def align_members(members: Sequence[MemberPrediction] | AlignedMembers) -> AlignedMembers:
    """Reindex every member to the first member's document order; members
    that are already aligned are returned as they are, so a caller that needs
    several combinations aligns once."""
    if isinstance(members, AlignedMembers):
        return members
    if len(members) < 2:
        raise ValueError(f"ensembling needs at least 2 members, got {len(members)}")
    reference = members[0].doc_ids
    ref_set = set(reference)
    stacks = [members[0].probs]
    for member in members[1:]:
        member_set = set(member.doc_ids)
        if member_set != ref_set:
            missing = sorted(ref_set - member_set)
            extra = sorted(member_set - ref_set)
            parts = []
            if missing:
                parts.append(f"missing {id_list(missing)}")
            if extra:
                parts.append(f"unexpected {id_list(extra)}")
            raise ValueError(f"member {member.member_id!r} misaligned: " + "; ".join(parts))
        index = {doc_id: row for row, doc_id in enumerate(member.doc_ids)}
        stacks.append(member.probs[[index[d] for d in reference]])
    return AlignedMembers(list(reference), np.stack(stacks))


Members = Sequence[MemberPrediction] | AlignedMembers


def majority_vote(members: Members) -> tuple[list[str], list[int]]:
    """Hard vote over member argmax labels, per document; a tie goes to the
    highest summed probability, then to the smallest label."""
    aligned = align_members(members)
    stack = aligned.stack
    votes = (aligned.labels()[:, :, None] == np.arange(stack.shape[2])).sum(axis=0)
    tied = votes == votes.max(axis=1, keepdims=True)
    return aligned.doc_ids, np.argmax(np.where(tied, stack.sum(axis=0), -np.inf), axis=1).tolist()


def average_ensemble(members: Members) -> tuple[list[str], np.ndarray, list[int]]:
    """Elementwise mean of member distributions, then argmax."""
    aligned = align_members(members)
    mean = aligned.mean()
    return aligned.doc_ids, mean, np.argmax(mean, axis=1).tolist()


def weighted_average_ensemble(
    members: Members,
    weights: Sequence[float],
) -> tuple[list[str], np.ndarray, list[int]]:
    """Convex combination of member distributions, then argmax."""
    aligned = align_members(members)
    stack = aligned.stack
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (stack.shape[0],):
        raise ValueError(f"{stack.shape[0]} members but {w.size} weights")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite, got {list(weights)}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
    combined = np.zeros(stack.shape[1:])
    for m in range(stack.shape[0]):
        combined += w[m] * stack[m]
    return aligned.doc_ids, combined, np.argmax(combined, axis=1).tolist()


def derive_weights(val_f1s: Sequence[float]) -> list[float]:
    """Validation-F1-proportional weights; uniform when every F1 is zero."""
    f1s = [float(f1) for f1 in val_f1s]
    if any(f1 < 0.0 for f1 in f1s):
        raise ValueError("macro-F1 values must be nonnegative")
    total = sum(f1s)
    if total == 0.0:
        return [1.0 / len(f1s)] * len(f1s)
    return [f1 / total for f1 in f1s]
