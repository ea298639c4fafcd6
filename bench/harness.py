"""harmkit benchmark: seeded inputs, a closed loop of CLI commands, output checks, metrics.

One client runs one command at a time through ``harmkit.cli.main`` in this
process; a round is the workload's command sequence, repeated until the
measuring time is used up. Workloads and why each was chosen:

  train-default  ``train`` on 2000 short synthetic docs (overlap 0.8), README
                 defaults with 3 epochs. The dense Adam step over the
                 32768x64 embedding table does most of the work while the
                 corpus has ~65 distinct tokens; overlap 0.8 keeps val
                 macro-F1 below 1.0 so the quality guard can move.
  predict-long   ``predict`` on 5000 held-out docs of 100-400 tokens from a
                 20000-word shared pool. Normalization, tokenization and
                 FNV-1a hashing dominate; the optimizer never runs. The large
                 vocabulary gives a realistic token-repeat ratio.
  ensemble-eval  ``ensemble`` vote / avg / w-avg over 3 members of 20000
                 rows each, then ``evaluate`` on the avg output. JSONL
                 readers and writers, the combiners, the vote tie-break and
                 the metrics layer, with no featurizer, model or optimizer.

End-to-end metrics come from untraced rounds. With tracing on, rounds
alternate untraced and traced; the traced ones give per-layer self times
and counters, and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import harmkit
from harmkit import cli, corpus, synth
from spans import COUNTER_SPAN, Tracer

NUM_CLASSES = 4

END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
    "ok_op_ratio": "ratio",
    "macro_f1": "ratio",
}

# Self times are seconds per traced round; counts are per traced round.
# synth.generate_corpus_s and corpus.save_jsonl_s are seconds per setup.
PER_LAYER = {
    "trainer.optimizer_step_s": "s",
    "trainer.optimizer_steps": "count",
    "trainer.adam_rows_updated": "count",
    "trainer.adam_rows_useful": "count",
    "trainer.adam_useful_row_ratio": "ratio",
    "trainer.evaluate_params_s": "s",
    "trainer.make_batches_s": "s",
    "trainer.train_self_s": "s",
    "losses.gradients_s": "s",
    "losses.gradients_calls": "count",
    "model.forward_batch_train_s": "s",
    "model.forward_batch_infer_s": "s",
    "model.forward_batch_calls": "count",
    "model.load_params_s": "s",
    "model.save_params_s": "s",
    "model.checkpoint_bytes": "bytes",
    "featurizer.batch_encode_s": "s",
    "featurizer.tokenize_s": "s",
    "featurizer.encode_s": "s",
    "featurizer.tokens": "count",
    "featurizer.distinct_tokens": "count",
    "featurizer.distinct_ids": "count",
    "featurizer.token_repeat_ratio": "ratio",
    "corpus.load_jsonl_s": "s",
    "corpus.normalize_text_s": "s",
    "corpus.records": "count",
    "corpus.save_jsonl_s": "s",
    "ensembles.load_member_file_s": "s",
    "ensembles.majority_vote_s": "s",
    "ensembles.average_ensemble_s": "s",
    "ensembles.weighted_average_ensemble_s": "s",
    "ensembles.write_prediction_file_s": "s",
    "metrics.confusion_s": "s",
    "metrics.classification_report_s": "s",
    "cli.self_s": "s",
    "synth.generate_corpus_s": "s",
    "trace.counters_s": "s",
    "trace.overhead_s": "s",
}

_SETUP_LAYERS = ("synth.generate_corpus", "corpus.save_jsonl")
_PROB_TOL = 1e-6
_EXACT_TOL = 1e-12
_ENSEMBLE_WEIGHTS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, the self-test uses tiny ones."""

    train_docs_per_class: int = 500
    train_epochs: int = 3
    predict_docs_per_class: int = 1250
    predict_doc_len: tuple[int, int] = (100, 400)
    predict_shared_pool: int = 20000
    checkpoint_docs_per_class: int = 50
    ensemble_docs_per_class: int = 5000
    setups: int = 3


FULL = Sizes()


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's checks."""


@dataclass
class Op:
    name: str
    argv: list[str]
    docs: int  # documents the op processes, for docs/s
    check: Callable[[str], tuple[dict[str, str], float]]  # stdout -> (digests, macro-F1)


# ---------------------------------------------------------------- checks


def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def macro_f1(gold: list[int], pred: list[int]) -> float:
    """Mean per-class F1 over all classes, 0/0 scored as 0 (harmkit.metrics' convention)."""
    if len(gold) != len(pred):
        raise CheckFailed(f"{len(gold)} gold labels but {len(pred)} predictions")
    f1s = []
    for c in range(NUM_CLASSES):
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / NUM_CLASSES


def first_argmax(row) -> int:
    best = 0
    for i, x in enumerate(row):
        if x > row[best]:
            best = i
    return best


def read_prediction_rows(path: str | Path, expected_ids: list[str]) -> tuple[list[list[float]], list[int]]:
    """Rows of a harm prediction file; one row per expected id, in order, valid distributions."""
    probs: list[list[float]] = []
    labels: list[int] = []
    ids: list[str] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            row = [float(x) for x in rec["probs"]]
            if len(row) != NUM_CLASSES or not all(math.isfinite(x) and x >= 0.0 for x in row):
                raise CheckFailed(f"{path}: bad probability row for {rec['id']!r}: {row}")
            if abs(sum(row) - 1.0) > _PROB_TOL:
                raise CheckFailed(f"{path}: probabilities of {rec['id']!r} sum to {sum(row)!r}")
            ids.append(rec["id"])
            probs.append(row)
            labels.append(int(rec["label"]))
    if ids != expected_ids:
        raise CheckFailed(f"{path}: {len(ids)} rows do not match the {len(expected_ids)} input ids in order")
    return probs, labels


def vote_labels(member_rows: list[list[list[float]]]) -> list[int]:
    """Documented vote rule: most member argmax votes, then highest summed probability, then smallest label."""
    labels = []
    for rows in zip(*member_rows):
        votes = [0] * NUM_CLASSES
        for row in rows:
            votes[first_argmax(row)] += 1
        tied = [c for c in range(NUM_CLASSES) if votes[c] == max(votes)]
        summed = [sum(row[c] for row in rows) for c in range(NUM_CLASSES)]
        best = max(summed[c] for c in tied)
        labels.append(min(c for c in tied if summed[c] == best))
    return labels


def last_json_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise CheckFailed("command printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- workloads


def _subseeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _cli_ok(argv: list[str]) -> str:
    """Run a setup command; setup must not fail."""
    rc, stdout, _, error = _run_command(argv)
    if rc != 0:
        raise RuntimeError(f"setup command {argv[0]} exited {rc}: {error}")
    return stdout


def _train_config(epochs: int, seed: int, prefix: str) -> str:
    return (
        f"train_file = {prefix}.train.jsonl\nval_file = {prefix}.val.jsonl\n"
        f"checkpoint = model.hpc\nreport = report.json\nepochs = {epochs}\nseed = {seed}\n"
    )


class TrainDefault:
    name = "train-default"
    quality_op, quality_name = "train", "val_macro_f1"
    rate_names = {"train": "train_docs_per_s"}

    def setup(self, seed: int, sizes: Sizes) -> dict:
        corpus_seed, split_seed, train_seed = _subseeds(seed, 3)
        examples = synth.generate_corpus(classes=NUM_CLASSES, docs_per_class=sizes.train_docs_per_class,
                                         overlap=0.8, seed=corpus_seed, with_targets=True)
        corpus.save_jsonl(examples, "corpus.jsonl")
        split = last_json_line(_cli_ok(["split", "--input", "corpus.jsonl", "--ratio", "4:1",
                                        "--seed", str(split_seed)]))
        Path("run.cfg").write_text(_train_config(sizes.train_epochs, train_seed, "corpus"), encoding="utf-8")
        return {"n_train": split["n_train"], "epochs": sizes.train_epochs}

    def ops(self, inputs: dict) -> list[Op]:
        epochs = inputs["epochs"]

        def check(stdout: str):
            report = json.loads(Path("report.json").read_text(encoding="utf-8"))
            if last_json_line(stdout) != report:
                raise CheckFailed("printed report differs from report.json")
            val_f1 = report["val_f1"]
            if report["epochs"] != epochs or len(val_f1) != epochs or len(report["train_loss"]) != epochs:
                raise CheckFailed(f"report covers {report['epochs']} epochs, expected {epochs}")
            if not all(math.isfinite(x) for x in report["train_loss"]) or not all(0.0 <= f <= 1.0 for f in val_f1):
                raise CheckFailed("report holds a non-finite loss or an F1 outside [0, 1]")
            if report["best_val_f1"] != max(val_f1) or report["best_epoch"] != val_f1.index(max(val_f1)):
                raise CheckFailed("best_epoch/best_val_f1 is not the earliest best validation epoch")
            return {"report": sha256("report.json"), "checkpoint": sha256("model.hpc")}, report["best_val_f1"]

        return [Op("train", ["train", "--config", "run.cfg"], inputs["n_train"] * epochs, check)]


class PredictLong:
    name = "predict-long"
    quality_op, quality_name = "predict", "predict_macro_f1"
    rate_names = {"predict": "predict_docs_per_s"}

    def setup(self, seed: int, sizes: Sizes) -> dict:
        heldout_seed, fit_seed, split_seed, train_seed = _subseeds(seed, 4)
        shape = dict(classes=NUM_CLASSES, overlap=0.5, shared_pool=sizes.predict_shared_pool,
                     doc_len=sizes.predict_doc_len, with_targets=True)
        heldout = synth.generate_corpus(docs_per_class=sizes.predict_docs_per_class, seed=heldout_seed, **shape)
        corpus.save_jsonl(heldout, "heldout.jsonl")
        fit = synth.generate_corpus(docs_per_class=sizes.checkpoint_docs_per_class, seed=fit_seed, **shape)
        corpus.save_jsonl(fit, "fit.jsonl")
        _cli_ok(["split", "--input", "fit.jsonl", "--ratio", "4:1", "--seed", str(split_seed)])
        Path("fit.cfg").write_text(_train_config(1, train_seed, "fit"), encoding="utf-8")
        _cli_ok(["train", "--config", "fit.cfg"])
        return {
            "ids": [ex.id for ex in heldout],
            "gold": [ex.harm for ex in heldout],
            # Synthetic text is single-space separated lowercase words, so its
            # tokens are its whitespace fields; no doc exceeds max_tokens.
            "tokens": sum(len(ex.text.split()) for ex in heldout),
        }

    def ops(self, inputs: dict) -> list[Op]:
        def check(stdout: str):
            summary = last_json_line(stdout)
            if summary["n"] != len(inputs["ids"]):
                raise CheckFailed(f"predict reports {summary['n']} docs, input has {len(inputs['ids'])}")
            probs, labels = read_prediction_rows("pred.jsonl", inputs["ids"])
            if labels != [first_argmax(row) for row in probs]:
                raise CheckFailed("pred.jsonl: a label is not the first argmax of its row")
            return {"predictions": sha256("pred.jsonl")}, macro_f1(inputs["gold"], labels)

        argv = ["predict", "--checkpoint", "model.hpc", "--input", "heldout.jsonl", "--task", "harm",
                "--output", "pred.jsonl"]
        return [Op("predict", argv, len(inputs["ids"]), check)]


class EnsembleEval:
    name = "ensemble-eval"
    quality_op, quality_name = "evaluate", "ensemble_macro_f1"
    rate_names = {"vote": "ensemble_vote_docs_per_s", "avg": "ensemble_avg_docs_per_s",
                  "wavg": "ensemble_wavg_docs_per_s", "evaluate": "evaluate_docs_per_s"}
    members = ("member1.jsonl", "member2.jsonl", "member3.jsonl")

    def setup(self, seed: int, sizes: Sizes) -> dict:
        gold_seed, member_seed = _subseeds(seed, 2)
        gold = synth.generate_corpus(classes=NUM_CLASSES, docs_per_class=sizes.ensemble_docs_per_class,
                                     overlap=0.8, seed=gold_seed, with_targets=False)
        corpus.save_jsonl(gold, "gold.jsonl")
        rng = np.random.default_rng(member_seed)
        ids = np.array([ex.id for ex in gold])
        gold_labels = np.array([ex.harm for ex in gold])
        n = len(gold)
        stacks = []
        for path in self.members:
            # Rows in sixteenths: exact in binary, so summed-probability
            # vote ties are exact ties. 40% of rows favour a random class,
            # which makes 3-way vote ties common.
            top = np.where(rng.random(n) < 0.6, gold_labels, rng.integers(0, NUM_CLASSES, n))
            top_units = rng.integers(5, 11, n)
            units = rng.multinomial(16 - top_units, [1.0 / NUM_CLASSES] * NUM_CLASSES)
            units[np.arange(n), top] += top_units
            probs = units / 16.0
            order = rng.permutation(n)
            with open(path, "w", encoding="utf-8") as fh:
                for i in order:
                    row = [float(x) for x in probs[i]]
                    fh.write(json.dumps({"id": str(ids[i]), "probs": row, "label": first_argmax(row)}) + "\n")
            stacks.append((order, probs))
        return {"ids": ids.tolist(), "gold": gold_labels.tolist(), "stacks": stacks}

    def ops(self, inputs: dict) -> list[Op]:
        ids, gold, stacks = inputs["ids"], inputs["gold"], inputs["stacks"]
        # Combined outputs follow the first member's row order.
        first_order = stacks[0][0]
        out_ids = [ids[i] for i in first_order]
        out_gold = [gold[i] for i in first_order]
        aligned = [probs[first_order] for _, probs in stacks]
        mean = np.stack(aligned).sum(axis=0) / len(aligned)
        weighted = np.zeros_like(mean)
        for w, probs in zip(_ENSEMBLE_WEIGHTS, aligned):
            weighted += w * probs
        expected_vote = vote_labels([p.tolist() for p in aligned])
        n = len(ids)

        def ensemble_check(output: str, expected_probs: np.ndarray, expected_labels: list[int] | None):
            def check(stdout: str):
                summary = last_json_line(stdout)
                probs, labels = read_prediction_rows(output, out_ids)
                if np.max(np.abs(np.asarray(probs) - expected_probs)) > _EXACT_TOL:
                    raise CheckFailed(f"{output}: probabilities differ from the expected combination")
                # Soft strategies label each row by its first argmax; vote by the tie-break rule.
                rule = expected_labels if expected_labels is not None else [first_argmax(row) for row in probs]
                if labels != rule:
                    raise CheckFailed(f"{output}: labels break the documented argmax or vote rule")
                f1 = macro_f1(out_gold, labels)
                if abs(summary["macro_f1"] - f1) > _EXACT_TOL:
                    raise CheckFailed(f"{output}: printed macro-F1 {summary['macro_f1']!r}, recomputed {f1!r}")
                return {output: sha256(output)}, f1
            return check

        def evaluate_check(stdout: str):
            report = json.loads(Path("eval.json").read_text(encoding="utf-8"))
            if last_json_line(stdout) != report:
                raise CheckFailed("printed report differs from eval.json")
            _, labels = read_prediction_rows("avg.jsonl", out_ids)
            f1 = macro_f1(out_gold, labels)
            if abs(report["macro_f1"] - f1) > _EXACT_TOL:
                raise CheckFailed(f"evaluate macro-F1 {report['macro_f1']!r}, recomputed {f1!r}")
            return {"eval.json": sha256("eval.json")}, f1

        def ensemble(strategy: str, output: str, *extra: str) -> list[str]:
            return ["ensemble", "--members", *self.members, "--strategy", strategy, *extra,
                    "--output", output, "--gold", "gold.jsonl"]

        weights = ",".join(str(w) for w in _ENSEMBLE_WEIGHTS)
        return [
            Op("vote", ensemble("vote", "vote.jsonl"), n, ensemble_check("vote.jsonl", mean, expected_vote)),
            Op("avg", ensemble("avg", "avg.jsonl"), n, ensemble_check("avg.jsonl", mean, None)),
            Op("wavg", ensemble("w-avg", "wavg.jsonl", "--weights", weights), n,
               ensemble_check("wavg.jsonl", weighted, None)),
            Op("evaluate", ["evaluate", "--gold", "gold.jsonl", "--pred", "avg.jsonl", "--task", "harm",
                            "--report", "eval.json"], n, evaluate_check),
        ]


WORKLOADS = {w.name: w for w in (TrainDefault(), PredictLong(), EnsembleEval())}


# ---------------------------------------------------------------- runner


def _fresh_state() -> None:
    """Give each command the caches a fresh CLI process would start with."""
    for name, module in list(sys.modules.items()):
        if name == "harmkit" or name.startswith("harmkit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def _run_command(argv: list[str]) -> tuple[int | None, str, float, str]:
    """Run one CLI command in-process: (exit code, stdout, wall seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash inside harmkit is a failed op, not a failed benchmark
        rc = None
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    return rc, out.getvalue(), wall, error or err.getvalue()[-500:]


def _setup_in_child(spec, seed: int, sizes: Sizes, inputs_path: Path) -> dict:
    """Run a setup in a forked child, so its memory peak stays out of peak_rss_mb.

    The child writes the setup's return value to inputs_path; the parent
    waits for it and reads it back.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            inputs = spec.setup(seed, sizes)
            with inputs_path.open("wb") as fh:
                pickle.dump(inputs, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{spec.name} setup failed in its child process")
    with inputs_path.open("rb") as fh:
        return pickle.load(fh)


def _digest_tree(path: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(path.iterdir()) if p.is_file()}


@dataclass
class RunState:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _execute(op: Op, state: RunState, tracer: Tracer | None, op_id: str) -> float:
    _fresh_state()
    state.attempted += 1
    if tracer is not None:
        tracer.op_id = op_id
        with tracer.span(f"cli.{op.argv[0]}"):
            rc, stdout, wall, error = _run_command(op.argv)
    else:
        rc, stdout, wall, error = _run_command(op.argv)
    if rc != 0:
        state.fail(f"{op.name}: exit {rc}: {error.strip()}")
        return wall
    try:
        digests, quality = op.check(stdout)
    except Exception as exc:  # any broken output fails this op; the run goes on
        state.fail(f"{op.name}: {type(exc).__name__}: {exc}")
        return wall
    for key, digest in digests.items():
        if state.digests.setdefault(key, digest) != digest:
            state.fail(f"{op.name}: {key} differs between repeats of the same inputs")
            return wall
    state.quality.setdefault(op.name, quality)
    if tracer is None:
        state.walls.setdefault(op.name, []).append(wall)
    return wall


def machine_info() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, sizes: Sizes = FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    spec = WORKLOADS[workload]
    work_parent = root / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_parent))
    tracer = Tracer() if trace else None
    state = RunState()
    old_cwd = os.getcwd()
    round_walls: list[float] = []
    traced_walls: list[float] = []
    try:
        setup_times, setup_digests = [], []
        for k in range(sizes.setups):
            setup_dir = work / f"setup{k}"
            setup_dir.mkdir()
            os.chdir(setup_dir)
            _fresh_state()
            start = time.perf_counter()
            if tracer is None:
                inputs = _setup_in_child(spec, seed, sizes, work / f"setup{k}.pickle")
            else:
                tracer.op_id = f"setup{k}"
                tracer.install()
                try:
                    inputs = spec.setup(seed, sizes)
                finally:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - start)
            setup_digests.append(_digest_tree(setup_dir))
        if any(d != setup_digests[0] for d in setup_digests):
            state.errors.append("setup: repeated setups of one seed wrote different files")

        ops = spec.ops(inputs)
        measure_start = time.perf_counter()
        r = 0
        while True:
            traced = tracer is not None and r % 2 == 1
            if traced:
                tracer.install()
            try:
                wall = sum(_execute(op, state, tracer if traced else None, f"{r}:{op.name}") for op in ops)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_walls if traced else round_walls).append(wall)
            r += 1
            min_rounds = 2 if tracer is not None else 1
            # Stop when another round would overrun the measuring time by more than half a round.
            if r >= min_rounds and time.perf_counter() - measure_start + wall / 2 > seconds:
                break
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(work, ignore_errors=True)

    correct = state.failed == 0 and not state.errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = _named_metrics(spec, ops, inputs, state, setup_times, peak_rss_mb)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(round_walls) + len(traced_walls),
        "harmkit": str(Path(harmkit.__file__).resolve().parent),
        "machine": machine_info(),
        "named_metrics": named,
        "op_walls_s": state.walls,
        "digests": state.digests,
        "setup_digests": setup_digests[0],
        "errors": state.errors,
    }
    if tracer is not None:
        metrics = _per_layer(tracer, len(traced_walls), sizes.setups, traced_walls, round_walls)
        spans_path = work_parent / f"spans-{workload}-{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        details["spans"] = str(spans_path.relative_to(root))
        units = PER_LAYER
    else:
        docs_per_round = sum(op.docs for op in ops)
        rates = [docs_per_round / w for w in round_walls]
        metrics = {
            "setup_s": _median(setup_times),
            "docs_per_s": _median(rates),
            "peak_rss_mb": peak_rss_mb,
            "ok_op_ratio": 1.0 - state.failed / state.attempted,
            "macro_f1": state.quality.get(spec.quality_op, 0.0),
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def _named_metrics(spec, ops: list[Op], inputs: dict, state: RunState, setup_times: list[float],
                   peak_rss_mb: float) -> dict:
    """Every per-command figure, with its unit and sample count."""
    def metric(value: float, unit: str, n: int) -> dict:
        return {"value": value, "unit": unit, "n": n}

    def rate(op_name: str, amount: float, unit: str = "docs/s") -> dict:
        walls = state.walls.get(op_name, [])
        return metric(_median([amount / w for w in walls]), unit, len(walls))

    named = {
        "setup_s": metric(_median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
        "failed_op_ratio": metric(state.failed / max(state.attempted, 1), "ratio", state.attempted),
        spec.quality_name: metric(state.quality.get(spec.quality_op, 0.0), "ratio", 1),
    }
    for op in ops:
        named[spec.rate_names[op.name]] = rate(op.name, op.docs)
    if "train" in spec.rate_names:
        walls = state.walls.get("train", [])
        named["train_wall_s"] = metric(_median(walls), "s", len(walls))
    if "tokens" in inputs:
        named["predict_tokens_per_s"] = rate("predict", inputs["tokens"], "tokens/s")
    return named


def _per_layer(tracer: Tracer, n_rounds: int, setups: int,
               traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """PER_LAYER values from the traced rounds; setup spans carry op ids 'setup<k>'."""
    times: dict[str, float] = {}
    setup_times: dict[str, float] = {}
    for op_id, by_name in tracer.self_times().items():
        target = setup_times if op_id.startswith("setup") else times
        for name, t in by_name.items():
            key = "cli.self" if name.startswith("cli.") else name
            target[key] = target.get(key, 0.0) + t
    counts: dict[str, float] = {}
    tokens: dict[str, set[str]] = {}
    ids: dict[str, set[int]] = {}
    for op_id in tracer.counts.keys() | tracer.tokens.keys():
        if op_id.startswith("setup"):
            continue
        for name, value in tracer.counts[op_id].items():
            counts[name] = counts.get(name, 0.0) + value
        round_id = op_id.split(":")[0]
        tokens.setdefault(round_id, set()).update(tracer.tokens[op_id])
        ids.setdefault(round_id, set()).update(tracer.ids[op_id])
    counts["featurizer.distinct_tokens"] = sum(len(t) for t in tokens.values())
    counts["featurizer.distinct_ids"] = sum(len(i) for i in ids.values())
    times["trainer.train_self"] = times.get("trainer.train", 0.0)
    times["trace.counters"] = times.get(COUNTER_SPAN, 0.0)

    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        base = name.removesuffix("_s")
        if base in _SETUP_LAYERS:
            out[name] = setup_times.get(base, 0.0) / setups
        elif unit == "s":
            out[name] = times.get(base, 0.0) / n_rounds
        elif unit != "ratio":
            out[name] = counts.get(name, 0.0) / n_rounds
    out["trace.overhead_s"] = _median(traced_walls) - _median(untraced_walls)
    n_tokens = out["featurizer.tokens"]
    out["featurizer.token_repeat_ratio"] = 1.0 - out["featurizer.distinct_tokens"] / n_tokens if n_tokens else 0.0
    rows = out["trainer.adam_rows_updated"]
    out["trainer.adam_useful_row_ratio"] = out["trainer.adam_rows_useful"] / rows if rows else 0.0
    return out
