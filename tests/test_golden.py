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
The ids ``batch_encode`` gives code-mixed posts are pinned too.
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
from harmkit.featurizer import FeatureConfig, batch_encode
from harmkit.model import load_params
from harmkit.synth import generate_corpus
from harmkit.trainer import _extract_labels, evaluate_params

GOLDEN = {
    "harm": {
        "report.json": "9c05218b281e246ca3e5ae18586f3cd7202be553e2e4dea73a36b2bd6c39110a",
        "model.hpc": "2b95cff2a5baaded1949ea28821f4ecadc5826b2e7d47e99efc9d9b2d95b3daf",
        "pred.jsonl": "cdfc8ee94f89e763d88ffc1a6204aeec258efc7f2436ef919c9a5148ee844214",
    },
    "targets": {
        "report.json": "90509cee0f53a676d8e2944a4792d932025f5738a74c5cfd1508adaa514da445",
        "model.hpc": "7428cd7dcc968e8e6f8cbc48bca14ff4def1bdf3654a6a09662e12574c1dbc37",
        "pred.jsonl": "82b0f342fe30b2c810719460f2db37c569c7e68d0a884d0ca3cbd4b836f1c357",
    },
    "sgd": {
        "report.json": "b0c088cf920320c279592bb74f42d7e3100dcb624c3c7fc7f6adf3d49f75db54",
        "model.hpc": "ae87b03a58556670efff8525c8d6e9d163bc85704df19093fab3dd1890ed3225",
        "pred.jsonl": "c595b6bbaa28ac1167837171ec66a030ca363afd1a2da340007a6b6f24d5af05",
    },
    "hash15": {
        "report.json": "6b1f71e13e0bb0b69072de1fbf9122fa4325babb7d9e11ebe9ace4cec264cb25",
        "model.hpc": "3a7fffb95bc4ec98d3db4ef7da10a94e25d079ac101cdfbd864e5395ee0d7134",
        "pred.jsonl": "c459b086c775ad0dd4988e60b14710e07469ebac421fd92bee7b892d2d256c3b",
    },
    "ngram2": {
        "report.json": "d844ddbfcaeb2c2eb26140db9bc504926e53e904cb8f20a6aef0d39f0568fb05",
        "model.hpc": "b3ae149afdbf88ff89e1aa1f0f6e4f9e11e9a6de7a90dac39d4a72c0dc91fa54",
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


# Code-mixed posts: Devanagari and Bangla words with virama and nukta, the
# nukta letters both precomposed (U+095E, U+09DF, U+09DD, which NFC
# decomposes) and decomposed, the danda and double danda, emoji with a
# variation selector and a skin tone, a zero-width joiner, mentions
# (one in Bangla), URLs, a no-break space, U+3000, decomposed Latin accents,
# tokens longer than the hash kernel's 32 byte columns, and empty and
# whitespace-only posts. Every character has the same Unicode category in
# Unicode 13.0, 14.0 and 15.0.
CODE_MIXED_POSTS = [
    "यह \u095eिल्म बहुत अच्छी है।  @ravi_k ने कहा \U0001f600",
    "আমি তোমাকে ভালোবাসি \u2764\ufe0f http://example.com/x?y=1 দেখো",
    "kya   bakwaas hai yaar!!! @Amit123 https://t.co/AbC",
    "স্বাধীনতা দিবসের শুভেচ্ছা। \U0001f64f\U0001f3fd",
    "नमस्ते\xa0दुनिया\u3000HELLO world",
    "cafe\u0301 और cha\u0304y",
    "\u0915\u093cर्ज\u093cा मा\u095eी???",
    "\u09dfে \u09a1\u09bcাক \u09dd",
    "अन्तर्राष्ट्रीयकरण संघर्ष",
    "प्रतिस्पर्धात्मकता bahut zaroori hai, www.Site.IN पर देखो",
    "superlongasciitokenthatexceedsthirtytwobytes!!!! वाह",
    "Tum log kuch nahi kar sakte, sab bekaar hai @pm_office #shame",
    "Hello WORLD, kaise ho?",
    "",
    "\xa0 \u3000",
    "@",
    "।।",
    "\U0001f600\U0001f600\U0001f600 \U0001f923",
    "Bhai\u200dजी ka jawab \U0001f44d",
    "HTTP://X.Y/Z दिल्ली। मुंबई॥",
    "আমরা @রহিম কে চিনি না। ক্ষমা করো।",
    "भारत\u2014पाक मैच!!!\U0001f3cf\U0001f3cf 10/10",
]

# sha256 of the JSON list of each post's ids, by (ngram, max_tokens), with
# hash_bits 15. max_tokens 7 cuts the long posts and leaves room for some
# bigrams in the short ones.
CODE_MIXED_GOLDEN = {
    (1, 7): "8f5adb9beedf5939b9e12f6a6f9adcabf1e164e4a260fc623b7c39707bdec801",
    (1, 512): "12200c3bece953987c2c37db7f30cbffea6466435b889945daca768edded7d1a",
    (2, 7): "9c62b8d3ba5960940158f77db6b7218dcf999e85cff6467ce196af240b573bab",
    (2, 512): "95a060f6cb71bc528a42d08273d36019eeb5f6ec7077754d054c7dd0d3055318",
}


@pytest.mark.parametrize("ngram, max_tokens", sorted(CODE_MIXED_GOLDEN))
def test_code_mixed_ids_digest(ngram, max_tokens):
    docs = batch_encode(CODE_MIXED_POSTS, FeatureConfig(max_tokens=max_tokens, ngram=ngram))
    ids = json.dumps([doc.ids.tolist() for doc in docs]).encode("utf-8")
    assert hashlib.sha256(ids).hexdigest() == CODE_MIXED_GOLDEN[ngram, max_tokens]
