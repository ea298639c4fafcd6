"""Golden digests: a fixed-seed train and predict run is pinned byte for byte.

The sha256 of the report JSON, the ``.hpc`` checkpoint and the prediction
file must not move unless a change re-baselines them on purpose and says so.
The best validation score in each report must also be reproducible from the
float32 checkpoint it names, and from the prediction file through ``evaluate``.
"""

import contextlib
import hashlib
import json
from pathlib import Path

import pytest

from harmkit import cli
from harmkit.corpus import load_jsonl, save_jsonl
from harmkit.featurizer import batch_encode
from harmkit.model import load_params
from harmkit.synth import generate_corpus
from harmkit.trainer import _extract_labels, evaluate_params

GOLDEN = {
    "harm": {
        "report.json": "9c05218b281e246ca3e5ae18586f3cd7202be553e2e4dea73a36b2bd6c39110a",
        "model.hpc": "b4714182444df078b600305bdbc463d1de5370e57812ac96d9e52ef3ca08420c",
        "pred.jsonl": "cdfc8ee94f89e763d88ffc1a6204aeec258efc7f2436ef919c9a5148ee844214",
    },
    "targets": {
        "report.json": "90509cee0f53a676d8e2944a4792d932025f5738a74c5cfd1508adaa514da445",
        "model.hpc": "063fca2a53da08a74e9f9dd57b5bf0db395bbd8774391be5928ffdc2b46539de",
        "pred.jsonl": "82b0f342fe30b2c810719460f2db37c569c7e68d0a884d0ca3cbd4b836f1c357",
    },
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def run(request, tmp_path_factory):
    """Split, train and predict inside a fresh directory with relative paths,
    so the checkpoint path recorded in the report is machine independent."""
    task = request.param
    root = tmp_path_factory.mktemp(f"golden_{task}")
    with contextlib.chdir(root):
        save_jsonl(generate_corpus(classes=4, docs_per_class=40, overlap=0.8, seed=0), "corpus.jsonl")
        assert cli.main(["split", "--input", "corpus.jsonl", "--seed", "0"]) == 0
        Path("run.cfg").write_text(
            "\n".join([
                "train_file = corpus.train.jsonl",
                "val_file = corpus.val.jsonl",
                "checkpoint = model.hpc",
                "report = report.json",
                "hash_bits = 10",
                "max_tokens = 32",
                "embed_dim = 16",
                "hidden_dim = 16",
                "epochs = 3",
                "seed = 0",
                f"lambda = {0.5 if task == 'harm' else 0.0}",
                f"task = {task}",
            ]) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", "run.cfg"]) == 0
        assert cli.main(["predict", "--checkpoint", "model.hpc", "--input", "corpus.val.jsonl",
                         "--task", task, "--output", "pred.jsonl"]) == 0
    return task, root


def test_output_digests(run):
    task, root = run
    assert {name: sha256(root / name) for name in GOLDEN[task]} == GOLDEN[task]


def test_best_val_f1_reproducible_from_checkpoint(run):
    task, root = run
    report = json.loads((root / "report.json").read_text(encoding="utf-8"))
    params, _, feature_cfg = load_params(root / report["checkpoint"])
    val = load_jsonl(root / "corpus.val.jsonl", task=task)
    docs = batch_encode([ex.text for ex in val], feature_cfg)
    assert evaluate_params(params, docs, _extract_labels(val, task), task) == report["best_val_f1"]


def test_best_val_f1_reproducible_from_predictions(run):
    # Validation and predict share one inference path, so evaluating the
    # predictions of the best checkpoint gives back the reported score.
    task, root = run
    report = json.loads((root / "report.json").read_text(encoding="utf-8"))
    with contextlib.chdir(root):
        assert cli.main(["evaluate", "--gold", "corpus.val.jsonl", "--pred", "pred.jsonl",
                         "--task", task, "--report", "eval.json"]) == 0
    scores = json.loads((root / "eval.json").read_text(encoding="utf-8"))
    assert scores["macro_f1" if task == "harm" else "micro_f1"] == report["best_val_f1"]
