"""Golden digests: fixed-seed train and predict runs are pinned byte for byte,
and so are the outputs of ``ensemble`` and ``evaluate`` on fixed member files.
The train runs cover Adam on both tasks, SGD, bigram features (``ngram = 2``,
with bigrams cut by ``max_tokens``), and the README defaults
(``hash_bits = 15``, 64-dim embeddings) that the benchmark trains with.

The sha256 of the report JSON, the ``.hpc`` checkpoint, the prediction file
and every ensemble and evaluate output must not move unless a change
re-baselines them on purpose and says so.
The best validation score in each report must also be reproducible from the
float32 checkpoint it names, and from the prediction file through ``evaluate``.
"""

import contextlib
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
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
    "sgd": {
        "report.json": "b0c088cf920320c279592bb74f42d7e3100dcb624c3c7fc7f6adf3d49f75db54",
        "model.hpc": "c428c5aa6075b909c3d52f40edf1282bcced79570d02a179699725c72f3c9e04",
        "pred.jsonl": "c595b6bbaa28ac1167837171ec66a030ca363afd1a2da340007a6b6f24d5af05",
    },
    "hash15": {
        "report.json": "6b1f71e13e0bb0b69072de1fbf9122fa4325babb7d9e11ebe9ace4cec264cb25",
        "model.hpc": "824d870a2665ed36b7abbe61b182fb316da1ee80fa9f050ba47239fb12ee5b8a",
        "pred.jsonl": "c459b086c775ad0dd4988e60b14710e07469ebac421fd92bee7b892d2d256c3b",
    },
    "ngram2": {
        "report.json": "d844ddbfcaeb2c2eb26140db9bc504926e53e904cb8f20a6aef0d39f0568fb05",
        "model.hpc": "3d40b0199712dc48bb004238d90ae397ceb041b7644b51f84285dbdef0aed4cf",
        "pred.jsonl": "3b134b6a450f34b334441280210399f1566b8f88551d48069c98c16f89b0579c",
    },
}

# The synthetic corpora themselves: the seed-0 corpus every run above splits,
# and the output of the README's ``gen-synth ... --seed 7`` command.
CORPUS_GOLDEN = {
    "corpus.jsonl": "0de5af7d323aa6cfe3fe8bd0ac5f0c95d6c14491fc54b5386acf1c4363c216ea",
    "readme.jsonl": "87214bf60f79ecc7c1a6736ee02c6da24df825e37c417fc9a7faa8741d08e7cc",
}

README = Path(__file__).resolve().parent.parent / "README.md"

# Config lines of each golden run beyond its file paths: (task, lines).
_SMALL = ["hash_bits = 10", "max_tokens = 32", "embed_dim = 16", "hidden_dim = 16", "epochs = 3", "seed = 0"]
RUNS = {
    "harm": ("harm", [*_SMALL, "lambda = 0.5", "task = harm"]),
    "targets": ("targets", [*_SMALL, "lambda = 0.0", "task = targets"]),
    "sgd": ("harm", [*_SMALL, "lambda = 0.5", "task = harm", "optimizer = sgd"]),
    "hash15": ("harm", ["epochs = 2", "seed = 0"]),
    "ngram2": ("harm", [*_SMALL, "ngram = 2", "lambda = 0.5", "task = harm"]),
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def run(request, tmp_path_factory):
    """Split, train and predict inside a fresh directory with relative paths,
    so the checkpoint path recorded in the report is machine independent."""
    name = request.param
    task, lines = RUNS[name]
    root = tmp_path_factory.mktemp(f"golden_{name}")
    with contextlib.chdir(root):
        save_jsonl(generate_corpus(classes=4, docs_per_class=40, overlap=0.8, seed=0), "corpus.jsonl")
        assert cli.main(["split", "--input", "corpus.jsonl", "--seed", "0"]) == 0
        Path("run.cfg").write_text(
            "\n".join([
                "train_file = corpus.train.jsonl",
                "val_file = corpus.val.jsonl",
                "checkpoint = model.hpc",
                "report = report.json",
                *lines,
            ]) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", "run.cfg"]) == 0
        assert cli.main(["predict", "--checkpoint", "model.hpc", "--input", "corpus.val.jsonl",
                         "--task", task, "--output", "pred.jsonl"]) == 0
    return name, task, root


def test_output_digests(run):
    name, _, root = run
    assert {file: sha256(root / file) for file in GOLDEN[name]} == GOLDEN[name]


def test_corpus_digest(run):
    _, _, root = run
    assert sha256(root / "corpus.jsonl") == CORPUS_GOLDEN["corpus.jsonl"]


def test_readme_gen_synth_digest(tmp_path):
    # The command and its backslash-continued lines.
    match = re.search(r"^harmkit (gen-synth (?:.*\\\n)*.*)$", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert match, "README has no gen-synth command"
    argv = shlex.split(match.group(1).replace("\\\n", " "))
    out = argv.index("--output") + 1
    argv[out] = str(tmp_path / argv[out])
    assert argv[argv.index("--seed") + 1] == "7"
    assert cli.main(argv) == 0
    assert sha256(argv[out]) == CORPUS_GOLDEN["readme.jsonl"]


def test_best_val_f1_reproducible_from_checkpoint(run):
    _, task, root = run
    report = json.loads((root / "report.json").read_text(encoding="utf-8"))
    params, _, feature_cfg = load_params(root / report["checkpoint"])
    val = load_jsonl(root / "corpus.val.jsonl", task=task)
    docs = batch_encode([ex.text for ex in val], feature_cfg)
    assert evaluate_params(params, docs, _extract_labels(val, task), task) == report["best_val_f1"]


def test_best_val_f1_reproducible_from_predictions(run):
    # Validation and predict share one inference path, so evaluating the
    # predictions of the best checkpoint gives back the reported score.
    _, task, root = run
    report = json.loads((root / "report.json").read_text(encoding="utf-8"))
    with contextlib.chdir(root):
        assert cli.main(["evaluate", "--gold", "corpus.val.jsonl", "--pred", "pred.jsonl",
                         "--task", task, "--report", "eval.json"]) == 0
    scores = json.loads((root / "eval.json").read_text(encoding="utf-8"))
    assert scores["macro_f1" if task == "harm" else "micro_f1"] == report["best_val_f1"]


FIXTURES = Path(__file__).parent / "fixtures"

# sha256 of every file `ensemble --gold --report` and `evaluate` write, on the
# committed 8-row fixtures and on a seeded 2000-row set in sixteenths, where
# exact vote and argmax ties are common. The w-avg-f1 files are w-avg with no
# --weights, so with the weights derived from the gold file; their digests are
# those of the explicit --weights run given the hand-normalized member macro-F1s.
ENSEMBLE_GOLDEN = {
    "fixtures": {
        "avg.eval.json": "fbe98da2f82e02a40019c44cb704852824880598e1d520248d8568901c5da46f",
        "avg.jsonl": "d647e7bc240bae439854c8307ce1ca48bf44d3c08772b326309c27f79a6c6e47",
        "avg.report.json": "fbe98da2f82e02a40019c44cb704852824880598e1d520248d8568901c5da46f",
        "vote.eval.json": "b97bfbd8dbd9c4f53d08a6698b3331c43ce89f1635d8a84916a81ee29a3afb75",
        "vote.jsonl": "ed3e3c96dfb7ac9f859b6b045d363288057830b9e980c552bd12a962e1183714",
        "vote.report.json": "b97bfbd8dbd9c4f53d08a6698b3331c43ce89f1635d8a84916a81ee29a3afb75",
        "w-avg.eval.json": "e0d9212ff07c02ce36614ee85b9298ae8ade0c09ac92e4e6b4e60a648e704f89",
        "w-avg.jsonl": "088499ae141fd87984df9198d11adba0101b60b09b1a51736a3ab31e0ffb6240",
        "w-avg.report.json": "e0d9212ff07c02ce36614ee85b9298ae8ade0c09ac92e4e6b4e60a648e704f89",
        "w-avg-f1.eval.json": "fbe98da2f82e02a40019c44cb704852824880598e1d520248d8568901c5da46f",
        "w-avg-f1.jsonl": "d5c7e5b046c7b74ae79fed09ac5aba1fd1c208b17be7aa03b4a7df4f4d4f3255",
        "w-avg-f1.report.json": "fbe98da2f82e02a40019c44cb704852824880598e1d520248d8568901c5da46f",
    },
    "sixteenths": {
        "avg.eval.json": "5a8c235958398d944d0a955ef3efd8335f70e2cf86fface28b3107a7d4e3f1d9",
        "avg.jsonl": "c1d4a0b7c2e8e46c5c2d8c0d1eb64dfe2163438012b145f666441667277a1489",
        "avg.report.json": "5a8c235958398d944d0a955ef3efd8335f70e2cf86fface28b3107a7d4e3f1d9",
        "sigmas.eval.json": "f72a6789bad65fdbb772a69412e466305b2f3b0e9f8670b59883584c503aa2bd",
        "vote.eval.json": "0b04f33300d8ea909262a93727f8e5fafbfa53a525d1bfe26291366e6013e8ab",
        "vote.jsonl": "74db95735a6bd09f539f833431405c01aa5af2201292f3a5798191f2300a3be5",
        "vote.report.json": "0b04f33300d8ea909262a93727f8e5fafbfa53a525d1bfe26291366e6013e8ab",
        "w-avg.eval.json": "a5c8a69954ccdd91d86524334608f8420689e452ac46d0743df9f72a8e6c40fe",
        "w-avg.jsonl": "2fe037a6d36456e6e981fcb1a34dd48957d9cc027725bce8afa7316aaeb945e3",
        "w-avg.report.json": "a5c8a69954ccdd91d86524334608f8420689e452ac46d0743df9f72a8e6c40fe",
        "w-avg-f1.eval.json": "0a8cd06b136ec1a062f00a2339805db33cb53a11aeaa68f6b0c7df8942cc0cc9",
        "w-avg-f1.jsonl": "719da98c3054ac55d9a7a0647378a278a80134f2aee5aef20f5d4ba9e9f4024b",
        "w-avg-f1.report.json": "0a8cd06b136ec1a062f00a2339805db33cb53a11aeaa68f6b0c7df8942cc0cc9",
    },
}


def write_sixteenths(root, n=2000, seed=7):
    """Three members over the same ids (in different orders), a harm gold file,
    and a targets gold/prediction pair, every number a multiple of 1/16."""
    rng = np.random.default_rng(seed)
    ids = [f"d{i}" for i in range(n)]
    for m in range(3):
        rows = rng.multinomial(16, [0.25] * 4, size=n) / 16
        order = rng.permutation(n) if m else np.arange(n)
        with open(root / f"member{m + 1}.jsonl", "w", encoding="utf-8") as fh:
            for i in order:
                fh.write(json.dumps({"id": ids[i], "probs": rows[i].tolist()}) + "\n")
    labels = rng.integers(0, 4, size=n)
    targets = rng.integers(0, 2, size=(n, 5))
    sigmas = rng.integers(0, 17, size=(n, 5)) / 16
    with open(root / "gold.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(json.dumps({"id": ids[i], "text": f"doc {i}", "label": int(labels[i]),
                                 "targets": targets[i].tolist()}) + "\n")
    with open(root / "sigmas.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(json.dumps({"id": ids[i], "sigmas": sigmas[i].tolist()}) + "\n")
    return "0.5,0.25,0.25"


@pytest.fixture(scope="module", params=sorted(ENSEMBLE_GOLDEN))
def ensemble_run(request, tmp_path_factory):
    name = request.param
    root = tmp_path_factory.mktemp(f"ensemble_{name}")
    if name == "fixtures":
        for file in ("member1.jsonl", "member2.jsonl", "member3.jsonl", "gold.jsonl"):
            (root / file).write_bytes((FIXTURES / file).read_bytes())
        weights = ",".join(str(w) for w in json.loads((FIXTURES / "expected.json").read_text())["weights"])
    else:
        weights = write_sixteenths(root)
    with contextlib.chdir(root):
        members = ["member1.jsonl", "member2.jsonl", "member3.jsonl"]
        for out, strategy, extra in (("vote", "vote", []), ("avg", "avg", []),
                                     ("w-avg", "w-avg", ["--weights", weights]), ("w-avg-f1", "w-avg", [])):
            assert cli.main(["ensemble", "--members", *members, "--strategy", strategy, *extra,
                             "--gold", "gold.jsonl", "--output", f"{out}.jsonl",
                             "--report", f"{out}.report.json"]) == 0
            assert cli.main(["evaluate", "--gold", "gold.jsonl", "--pred", f"{out}.jsonl",
                             "--report", f"{out}.eval.json"]) == 0
        if Path("sigmas.jsonl").exists():
            assert cli.main(["evaluate", "--gold", "gold.jsonl", "--pred", "sigmas.jsonl",
                             "--task", "targets", "--report", "sigmas.eval.json"]) == 0
    return name, root


def test_ensemble_and_evaluate_digests(ensemble_run):
    name, root = ensemble_run
    written = sorted(p.name for p in root.iterdir() if p.name.startswith(("vote", "avg", "w-avg", "sigmas.eval")))
    assert {file: sha256(root / file) for file in written} == ENSEMBLE_GOLDEN[name]
