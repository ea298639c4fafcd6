"""In-memory spans and counters recorded around harmkit's public functions.

The tracer patches module attributes at the names where callers look them
up (``harmkit.cli.forward_batch``, ``harmkit.trainer.gradients``, ...), so
the program itself is unchanged. Spans nest by call order: a span's parent
is the span open when it started, and every span carries the op id that was
current when it opened. Counters are computed after the wrapped call
returns, inside a ``trace.counters`` span, so their cost is excluded from
the self time of the layer that caused them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from harmkit import cli, corpus, ensembles, featurizer, losses, metrics, synth, trainer

COUNTER_SPAN = "trace.counters"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op_id: str


class Tracer:
    """Records spans and per-op counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = ""
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.tokens: dict[str, set[str]] = defaultdict(set)
        self.ids: dict[str, set[int]] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.op_id][name] += value

    def _wrap(self, owner: object, attr: str, name: str, counter: Callable | None = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                with self.span(COUNTER_SPAN):
                    counter(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # Counters, each measured from the arguments and results of one call.

    def _count_encode(self, args, kwargs, doc) -> None:
        tokens = args[0]
        self.count("featurizer.tokens", len(tokens))
        self.tokens[self.op_id].update(tokens)
        self.ids[self.op_id].update(doc.ids.tolist())

    def _count_records(self, args, kwargs, examples) -> None:
        self.count("corpus.records", len(examples))

    def _count_checkpoint(self, args, kwargs, result) -> None:
        path = args[3] if len(args) > 3 else kwargs["path"]
        self.count("model.checkpoint_bytes", Path(path).stat().st_size)

    def _count_step(self, args, kwargs, result) -> None:
        grad_embed = args[2].embed
        self.count("trainer.optimizer_steps", 1)
        # A dense step rewrites every row of the table it is handed.
        self.count("trainer.adam_rows_updated", grad_embed.shape[0])
        self.count("trainer.adam_rows_useful", int(np.count_nonzero(np.any(grad_embed != 0.0, axis=1))))

    def _count_call(self, name: str) -> Callable:
        return lambda args, kwargs, result: self.count(name, 1)

    def install(self) -> None:
        """Patch every traced function; undo with uninstall()."""
        targets = [
            (cli, "train", "trainer.train", None),
            (cli, "load_params", "model.load_params", None),
            (cli, "batch_encode", "featurizer.batch_encode", None),
            (cli, "forward_batch", "model.forward_batch_infer", self._count_call("model.forward_batch_calls")),
            (corpus, "load_jsonl", "corpus.load_jsonl", self._count_records),
            (corpus, "normalize_text", "corpus.normalize_text", None),
            (corpus, "save_jsonl", "corpus.save_jsonl", None),
            (featurizer, "tokenize", "featurizer.tokenize", None),
            (featurizer, "encode", "featurizer.encode", self._count_encode),
            (trainer, "batch_encode", "featurizer.batch_encode", None),
            (trainer, "make_batches", "trainer.make_batches", None),
            (trainer, "gradients", "losses.gradients", self._count_call("losses.gradients_calls")),
            (trainer, "evaluate_params", "trainer.evaluate_params", None),
            (trainer, "forward_batch", "model.forward_batch_infer", self._count_call("model.forward_batch_calls")),
            (trainer, "save_params", "model.save_params", self._count_checkpoint),
            (trainer, "confusion", "metrics.confusion", None),
            (trainer, "classification_report", "metrics.classification_report", None),
            (trainer.AdamOptimizer, "step", "trainer.optimizer_step", self._count_step),
            (trainer.SgdOptimizer, "step", "trainer.optimizer_step", self._count_step),
            (losses, "forward_batch", "model.forward_batch_train", self._count_call("model.forward_batch_calls")),
            (ensembles, "load_member_file", "ensembles.load_member_file", None),
            (ensembles, "majority_vote", "ensembles.majority_vote", None),
            (ensembles, "average_ensemble", "ensembles.average_ensemble", None),
            (ensembles, "weighted_average_ensemble", "ensembles.weighted_average_ensemble", None),
            (ensembles, "write_prediction_file", "ensembles.write_prediction_file", None),
            (metrics, "confusion", "metrics.confusion", None),
            (metrics, "classification_report", "metrics.classification_report", None),
            (synth, "generate_corpus", "synth.generate_corpus", None),
        ]
        for owner, attr, name, counter in targets:
            self._wrap(owner, attr, name, counter)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per op id, per span name: summed duration minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, children in zip(self.spans, child_time):
            out[span.op_id][span.name] += span.end - span.start - children
        return out

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "op_id": span.op_id}) + "\n")
