"""Command-line surface: split, train, predict, evaluate, ensemble, gradcheck, gen-synth.

Every command is deterministic given its inputs, config, and seeds; no
command mutates its input files. Exit codes: 0 success, 1 check failure,
2 usage or config error, 3 training divergence.

The training config is a strict flat key-value file (``key = value``, ``#``
comments). Unknown keys are rejected. Keys:

  train_file, val_file, checkpoint   paths (report is optional)
  max_tokens, hash_bits, ngram       featurizer
  embed_dim, hidden_dim, seed        model
  epochs, batch_size, learning_rate, optimizer, task   training
  tau, lambda                        contrastive loss

The single ``seed`` is the ``ModelConfig`` seed, which drives both
parameter initialization and batch shuffling. The featurizer keys make the
``FeatureConfig`` that the ``ModelConfig`` carries, whose vocabulary size
is always 2**hash_bits. Every ``--seed`` flag takes a nonnegative integer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, dataclass
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


_PATH_KEYS = ("train_file", "val_file", "checkpoint", "report")
_INT_KEYS = ("max_tokens", "hash_bits", "ngram", "embed_dim", "hidden_dim", "epochs", "batch_size", "seed")
_FLOAT_KEYS = ("learning_rate", "tau", "lambda")
_STR_KEYS = ("optimizer", "task")
_REQUIRED_KEYS = ("train_file", "val_file", "checkpoint")


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    train_file: Path
    val_file: Path
    checkpoint: Path
    report: Path | None


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
        if key not in _PATH_KEYS + _INT_KEYS + _FLOAT_KEYS + _STR_KEYS:
            raise ConfigError(f"{p}:{line_no}: unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"{p}:{line_no}: duplicate config key '{key}'")
        raw[key] = value

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"{p}: missing required config key '{key}'")

    def number(key: str, kind: type, noun: str) -> int | float:
        try:
            return kind(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{p}: key '{key}' needs {noun}, got {raw[key]!r}") from exc

    values = {key: number(key, int, "an integer") for key in _INT_KEYS if key in raw}
    values |= {key: number(key, float, "a number") for key in _FLOAT_KEYS if key in raw}
    values |= {key: raw[key] for key in _STR_KEYS if key in raw}

    def given(*keys: str) -> dict:
        """The keys the file sets, named as their config fields; the rest keep the field defaults."""
        return {"lam" if key == "lambda" else key: values[key] for key in keys if key in values}

    try:
        features = FeatureConfig(**given("max_tokens", "hash_bits", "ngram"))
        model_cfg = ModelConfig(features, **given("embed_dim", "hidden_dim", "seed"))
        train_cfg = TrainConfig(
            contrastive=ContrastiveConfig(**given("tau", "lambda")),
            **given("epochs", "batch_size", "learning_rate", "optimizer", "task"),
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from exc

    train_file = Path(raw["train_file"])
    val_file = Path(raw["val_file"])
    for key, file_path in (("train_file", train_file), ("val_file", val_file)):
        if not file_path.exists():
            raise ConfigError(f"{p}: {key} does not exist: {file_path}")
    return RunConfig(
        model=model_cfg,
        train=train_cfg,
        train_file=train_file,
        val_file=val_file,
        checkpoint=Path(raw["checkpoint"]),
        report=Path(raw["report"]) if "report" in raw else None,
    )


def _cmd_split(args: argparse.Namespace) -> int:
    ratio_parts = args.ratio.split(":")
    if len(ratio_parts) != 2 or not all(map(_is_ascii_int, ratio_parts)):
        raise ConfigError(f"--ratio must be two positive integers like '4:1', got {args.ratio!r}")
    ratio = (int(ratio_parts[0]), int(ratio_parts[1]))
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
                weights = [float(x) for x in args.weights.split(",")]
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


def _is_ascii_int(text: str) -> bool:
    """Whether ``text`` is a nonnegative integer in ASCII digits; ``isdigit``
    alone also admits digits such as '²' and '٤'."""
    return text.isascii() and text.isdigit()


def _seed(text: str) -> int:
    """The value of a ``--seed`` flag: a nonnegative integer in ASCII digits."""
    if not _is_ascii_int(text):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harmkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="deterministic stratified train/validation split")
    p.add_argument("--input", required=True)
    p.add_argument("--ratio", default="4:1")
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--task", choices=["harm", "targets"], default="harm")
    p.add_argument("--eta", type=float, default=0.5)
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
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("gen-synth", help="generate a seeded synthetic corpus")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--docs-per-class", type=int, default=500)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
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
