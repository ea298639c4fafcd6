"""Command-line surface: split, train, predict, evaluate, ensemble, gradcheck, gen-synth.

Every command is deterministic given its inputs, config, and seeds; no
command mutates its input files. Exit codes: 0 success, 1 check failure,
2 usage or config error, 3 training divergence.

The training config is a strict flat key-value file (``key = value``, ``#``
comments). Unknown keys are rejected. Its keys are the path fields of
``RunConfig`` and the int, float and str fields of the four config
dataclasses, each named as its field but ``lambda`` for ``lam``:

  train_file, val_file, checkpoint   paths (report is optional)
  max_tokens, hash_bits, ngram       featurizer (FeatureConfig)
  embed_dim, hidden_dim, seed        model (ModelConfig)
  epochs, batch_size, learning_rate, optimizer, task   training (TrainConfig)
  tau, lambda                        contrastive loss (ContrastiveConfig)

The single ``seed`` is the ``ModelConfig`` seed, which drives both
parameter initialization and batch shuffling. The featurizer keys make the
``FeatureConfig`` that the ``ModelConfig`` carries, whose vocabulary size
is always 2**hash_bits. A path may not be empty, ``train_file`` and
``val_file`` must be regular files, and ``checkpoint`` and ``report`` must
name files in existing directories, so that a bad path fails before training.

Every number in a config file or a flag is read by one rule: an integer is
nonnegative ASCII digits, and a float is ASCII text with no ``_`` that
``float`` accepts. Any other value exits 2 naming its key or flag.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import typing
from dataclasses import MISSING, Field, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import corpus, ensembles, metrics, synth
from .featurizer import FeatureConfig, batch_encode
from .losses import ContrastiveConfig, NonFiniteLossError
from .model import (
    ModelConfig,
    ModelParams,
    forward_batch,  # noqa: F401  (not called here; bench/spans.py wraps cli.forward_batch)
    forward_pooled,
    load_params,
    mean_pool,
    predict,
)
from .trainer import TrainConfig, grad_check, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    """A config file or command precondition was violated."""


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    train_file: Path
    val_file: Path
    checkpoint: Path
    report: Path | None = None


def _typed_fields(cls: type) -> list[tuple[Field, object]]:
    """Each field of the dataclass ``cls`` with its annotated type."""
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


# The config file's keys. A path key is a Path field of RunConfig, required
# unless the field has a default. A value key is an int, float or str field of a
# config dataclass, read as its annotated type; ``lam``'s key is ``lambda``.
_PATHS = {f.name: f.default is MISSING for f, kind in _typed_fields(RunConfig) if Path in (kind, *typing.get_args(kind))}
_VALUES = {"lambda" if f.name == "lam" else f.name: (cls, f.name, kind)
           for cls in (FeatureConfig, ModelConfig, TrainConfig, ContrastiveConfig)
           for f, kind in _typed_fields(cls) if kind in (int, float, str)}


def _number(text: str, kind: type[int] | type[float], lead: str = "must be") -> int | float:
    """``text`` read by the number rule in the module docstring, which ``int`` and ``float``
    alone break: they take digits such as '٤' and ``_``. A refusal's ValueError starts with ``lead``."""
    if text.isascii() and "_" not in text and (kind is float or text.isdigit()):
        with contextlib.suppress(ValueError):
            return kind(text)
    raise ValueError(f"{lead} {'a nonnegative integer' if kind is int else 'a number'}, got {text!r}")


def parse_run_config(path: str | Path) -> RunConfig:
    """Parse and validate the strict flat key-value training config."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte starts the line after the last break in the valid prefix,
        # with breaks counted by str.splitlines as the parser below counts them.
        line_no = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ConfigError(f"{p}:{line_no}: not valid UTF-8: {exc.reason}") from exc
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{line_no}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _PATHS and key not in _VALUES:
            raise ConfigError(f"{p}:{line_no}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{p}:{line_no}: duplicate config key {key!r}")
        if key in _PATHS and not value:
            raise ConfigError(f"{p}:{line_no}: key '{key}' needs a path, got ''")
        raw[key] = value

    if missing := [key for key, required in _PATHS.items() if required and key not in raw]:
        raise ConfigError(f"{p}: missing required config key '{missing[0]}'")

    kwargs: dict[type, dict] = {cls: {} for cls, _, _ in _VALUES.values()}
    try:
        for key, (cls, name, kind) in _VALUES.items():
            if key in raw:
                kwargs[cls][name] = raw[key] if kind is str else _number(raw[key], kind, f"key '{key}' needs")
        model_cfg = ModelConfig(FeatureConfig(**kwargs[FeatureConfig]), **kwargs[ModelConfig])
        train_cfg = TrainConfig(contrastive=ContrastiveConfig(**kwargs[ContrastiveConfig]), **kwargs[TrainConfig])
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from exc

    # Every path is checked here, so that none fails only after training.
    paths = {key: Path(raw[key]) for key in _PATHS if key in raw}
    for key in ("train_file", "val_file"):
        if not paths[key].is_file():
            fault = "is not a regular file" if paths[key].exists() else "does not exist"
            raise ConfigError(f"{p}: {key} {fault}: {paths[key]}")
    for key in ("checkpoint", "report"):
        if key in paths and (paths[key].is_dir() or not paths[key].parent.is_dir()):
            raise ConfigError(f"{p}: {key} must name a file in an existing directory, got {paths[key]}")
    return RunConfig(model_cfg, train_cfg, **paths)


def _cmd_split(args: argparse.Namespace) -> int:
    try:
        ratio = tuple(_number(part, int) for part in args.ratio.split(":"))
    except ValueError:
        ratio = ()
    if len(ratio) != 2:
        raise ConfigError(f"--ratio must be two positive integers like '4:1', got {args.ratio!r}")
    data = corpus.load_jsonl(args.input, task=args.task)
    split = corpus.split_train_val(data, ratio=ratio, seed=args.seed, stratify=args.stratify)

    stem = Path(args.input)
    stem = stem.with_name(stem.name.removesuffix(".jsonl"))
    train_path = stem.with_name(stem.name + ".train.jsonl")
    val_path = stem.with_name(stem.name + ".val.jsonl")
    sidecar = stem.with_name(stem.name + ".split.json")
    corpus.save_jsonl(split.train, train_path)
    corpus.save_jsonl(split.val, val_path)
    sidecar.write_text(json.dumps({"seed": args.seed, "ratio": list(ratio), "stratify": args.stratify},
                                  sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"train": str(train_path), "val": str(val_path),
                      "n_train": len(split.train), "n_val": len(split.val)}, sort_keys=True))
    return EXIT_OK


def _nonempty(records: list, path: str | Path) -> list:
    """``records``, read from ``path``, unless there are none."""
    if not records:
        raise ConfigError(f"{path}: no records found")
    return records


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = parse_run_config(args.config)
    train_set = _nonempty(corpus.load_jsonl(cfg.train_file, task=cfg.train.task), cfg.train_file)
    val_set = _nonempty(corpus.load_jsonl(cfg.val_file, task=cfg.train.task), cfg.val_file)

    def progress(epoch: int, loss: float, val_f1: float) -> None:
        print(f"epoch {epoch + 1}/{cfg.train.epochs} loss={loss:.6f} val_f1={val_f1:.4f}", file=sys.stderr)

    try:
        _, report = train(
            train_set,
            val_set,
            cfg.model,
            cfg.train,
            checkpoint_path=cfg.checkpoint,
            progress=progress,
        )
    except MemoryError as exc:
        # Dims that fit the u32 header can still ask for more than any machine holds.
        raise ConfigError(f"{args.config}: the model does not fit in memory ({exc})") from exc
    report_json = report.to_json()
    if cfg.report is not None:
        cfg.report.write_text(report_json + "\n", encoding="utf-8")
    print(report_json)
    return EXIT_OK


# Documents that predict reads, encodes and pools before it reads the next
# ones. Only the ids and pooled rows of earlier chunks stay in memory.
_PREDICT_CHUNK = 1024


def _cmd_predict(args: argparse.Namespace) -> int:
    metrics.check_eta(args.eta)
    params, model_cfg = load_params(args.checkpoint)
    doc_ids, h0 = _pool_input(params, model_cfg.features, args.input, args.task)
    scores, decisions = predict(forward_pooled(params, h0), args.task, args.eta)
    ensembles.write_prediction_file(args.output, doc_ids, scores, decisions, args.task)
    print(json.dumps({"predictions": args.output, "n": len(doc_ids)}, sort_keys=True))
    return EXIT_OK


def _pool_input(params: ModelParams, features: FeatureConfig, path: str,
                task: str) -> tuple[list[str], np.ndarray]:
    """The ids and mean-pooled rows of an input file's documents, in file
    order. Each chunk is read and checked by ``corpus.iter_jsonl``, one
    record at a time, so the first faulty line in file order is the one
    reported; then its raw texts are encoded, which normalizes them
    (``batch_encode`` only lowercases an ASCII text with no mention or URL),
    then pooled. Nothing but the ids and pooled rows outlives its chunk, and
    the per-chunk blocks are freed on return, before the heads run."""
    documents = corpus.iter_jsonl(path, task, require_labels=False)
    doc_ids: list[str] = []
    pooled = [mean_pool(params, [])]  # (0, embed_dim): the shape of an empty input
    while chunk := list(itertools.islice(documents, _PREDICT_CHUNK)):
        doc_ids += [ex.id for ex in chunk]
        pooled.append(mean_pool(params, batch_encode([ex.text for ex in chunk], features)))
    return doc_ids, np.concatenate(pooled)


def _gold_for(doc_ids: list[str], gold_path: str, task: str) -> list:
    # Only the labels are scored, so the text is checked to be a string but not normalized.
    path = Path(gold_path)
    gold = {}
    for line_no, rec in corpus.read_records(path):
        harm, targets = corpus.parse_labels(rec, line_no, path, task)
        gold[rec["id"]] = harm if task == "harm" else targets
    missing = [d for d in doc_ids if d not in gold]
    if missing:
        raise ConfigError(f"gold file lacks {corpus.id_list(missing)}")
    return [gold[d] for d in doc_ids]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    metrics.check_eta(args.eta)
    pred_path = Path(args.pred)
    if args.task == "harm":
        doc_ids, labels = [], []
        for line_no, rec in corpus.read_records(pred_path):
            doc_ids.append(rec["id"])
            labels.append(corpus.parse_label(rec.get("label"), line_no, pred_path))
        _nonempty(doc_ids, pred_path)
        report = metrics.classification_report(metrics.confusion(_gold_for(doc_ids, args.gold, "harm"), labels))
    else:
        doc_ids, sigmas = corpus.read_rows(pred_path, "sigmas", corpus.NUM_TARGETS, low=0.0, high=1.0)
        report = metrics.multilabel_report(_gold_for(doc_ids, args.gold, "targets"), sigmas, eta=args.eta)

    report_json = report.to_json()
    if args.report:
        Path(args.report).write_text(report_json + "\n", encoding="utf-8")
    print(report_json)
    return EXIT_OK


def _cmd_ensemble(args: argparse.Namespace) -> int:
    if args.weights is not None and args.strategy != "w-avg":
        raise ConfigError(f"--weights applies only to --strategy w-avg, not {args.strategy}")
    if args.report and not args.gold:
        raise ConfigError("--report needs --gold: the report scores the ensemble against it")
    aligned = ensembles.align_members([ensembles.load_member_file(path) for path in args.members])
    gold = _gold_for(aligned.doc_ids, args.gold, "harm") if args.gold else None

    if args.strategy == "vote":
        doc_ids, labels = ensembles.majority_vote(aligned)
        # A vote has no combined distribution; emit the member mean so the
        # output format stays uniform across strategies.
        probs = aligned.mean()
    elif args.strategy == "avg":
        doc_ids, probs, labels = ensembles.average_ensemble(aligned)
    else:
        if args.weights is not None:
            try:
                weights = [_number(x, float) for x in args.weights.split(",")]
            except ValueError:
                raise ConfigError(f"--weights must be comma-separated numbers, got {args.weights!r}") from None
        elif gold is not None:
            weights = ensembles.derive_weights([metrics.classification_report(metrics.confusion(gold, member)).macro_f1
                                                for member in aligned.labels()])
        else:
            raise ConfigError("strategy w-avg requires --gold or --weights")
        doc_ids, probs, labels = ensembles.weighted_average_ensemble(aligned, weights)

    ensembles.write_prediction_file(args.output, doc_ids, probs, labels)
    summary = {"predictions": args.output, "strategy": args.strategy, "n": len(doc_ids)}
    if gold is not None:
        report = metrics.classification_report(metrics.confusion(gold, labels))
        if args.report:
            Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
        summary["macro_f1"] = report.macro_f1
        summary["micro_f1"] = report.micro_f1
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    report = grad_check(trials=args.trials, seed=args.seed)
    print(json.dumps(asdict(report) | {"passed": report.passed}, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_gen_synth(args: argparse.Namespace) -> int:
    examples = synth.generate_corpus(
        classes=args.classes,
        docs_per_class=args.docs_per_class,
        overlap=args.overlap,
        seed=args.seed,
        with_targets=args.targets,
    )
    corpus.save_jsonl(examples, args.output)
    print(json.dumps({"output": args.output, "n": len(examples)}, sort_keys=True))
    return EXIT_OK


def _flag(kind: type[int] | type[float]) -> typing.Callable[[str], int | float]:
    """The argparse ``type`` of a flag that takes one number of ``kind``."""
    def read(text: str) -> int | float:
        try:
            return _number(text, kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harmkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="deterministic stratified train/validation split")
    p.add_argument("--input", required=True)
    p.add_argument("--ratio", default="4:1")
    p.add_argument("--seed", type=_flag(int), default=0)
    p.add_argument("--stratify", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--task", choices=["harm", "targets", "both"], default="harm")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="write per-document predictions for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--task", choices=["harm", "targets"], default="harm")
    p.add_argument("--eta", type=_flag(float), default=0.5)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--task", choices=["harm", "targets"], default="harm")
    p.add_argument("--eta", type=_flag(float), default=0.5)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ensemble", help="aggregate member prediction files")
    p.add_argument("--members", nargs="+", required=True)
    p.add_argument("--strategy", choices=["vote", "avg", "w-avg"], required=True)
    p.add_argument("--weights", default=None,
                   help="comma-separated, w-avg only; overrides the weights derived from --gold, "
                        "each member's macro-F1 on it divided by their sum")
    p.add_argument("--gold", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=_flag(int), default=30)
    p.add_argument("--seed", type=_flag(int), default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("gen-synth", help="generate a seeded synthetic corpus")
    p.add_argument("--classes", type=_flag(int), default=4)
    p.add_argument("--docs-per-class", type=_flag(int), default=500)
    p.add_argument("--overlap", type=_flag(float), default=0.0)
    p.add_argument("--seed", type=_flag(int), default=0)
    p.add_argument("--targets", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
