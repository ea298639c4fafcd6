"""Command-line surface: exit codes, file outputs, strict config parsing."""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmkit import cli, corpus, trainer
from harmkit.corpus import load_jsonl, save_jsonl
from harmkit.ensembles import write_prediction_file
from harmkit.featurizer import FeatureConfig, batch_encode
from harmkit.metrics import classification_report, confusion
from harmkit.model import ModelConfig, ModelParams, forward_batch, init_params, load_params, predict, save_params
from harmkit.synth import generate_corpus
from harmkit.trainer import TrainConfig

FIXTURES = Path(__file__).parent / "fixtures"

# Raw text that normalization changes: uppercase, a mention, a URL,
# Devanagari, a capital with a mark that composes only with its lowercase
# letter, and runs of whitespace.
RAW_TEXTS = ["Hello @Name", "see HTTP://Ex.COM/x", "\u0928\u092e\u0938\u094d\u0924\u0947 OK", "J\u030cOSE",
             "  SPACED\tout  "]


def write_config(path, **overrides):
    base = {
        "train_file": "",
        "val_file": "",
        "checkpoint": "",
        "hash_bits": 10,
        "max_tokens": 32,
        "embed_dim": 16,
        "hidden_dim": 16,
        "epochs": 3,
        "batch_size": 32,
        "learning_rate": 0.05,
        "optimizer": "adam",
        "seed": 7,
        "tau": 0.1,
        "lambda": 0.5,
        "task": "harm",
    }
    base.update(overrides)
    lines = ["# test config"] + [f"{key} = {value}" for key, value in base.items() if value != ""]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "corpus.jsonl"
    save_jsonl(generate_corpus(classes=4, docs_per_class=60, overlap=0.1, seed=21), path)
    return path


@pytest.fixture(scope="module")
def split_files(corpus_file):
    code = cli.main(["split", "--input", str(corpus_file), "--seed", "3"])
    assert code == 0
    stem = str(corpus_file).removesuffix(".jsonl")
    return Path(stem + ".train.jsonl"), Path(stem + ".val.jsonl")


@pytest.fixture(scope="module")
def trained(tmp_path_factory, split_files):
    root = tmp_path_factory.mktemp("run")
    train_path, val_path = split_files
    config = write_config(
        root / "run.cfg",
        train_file=train_path,
        val_file=val_path,
        checkpoint=root / "model.hpc",
        report=root / "report.json",
        epochs=6,
    )
    code = cli.main(["train", "--config", str(config)])
    assert code == 0
    return root, config


class TestSplitCommand:
    def test_outputs_and_sidecar(self, corpus_file, split_files):
        train_path, val_path = split_files
        sidecar = Path(str(corpus_file).removesuffix(".jsonl") + ".split.json")
        assert train_path.exists() and val_path.exists() and sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta == {"seed": 3, "ratio": [4, 1], "stratify": True}
        train = load_jsonl(train_path, task="harm")
        val = load_jsonl(val_path, task="harm")
        assert len(train) + len(val) == 240
        assert not {ex.id for ex in train} & {ex.id for ex in val}

    def test_input_unchanged(self, corpus_file):
        digest = hashlib.sha256(corpus_file.read_bytes()).hexdigest()
        assert cli.main(["split", "--input", str(corpus_file), "--seed", "4"]) == 0
        assert hashlib.sha256(corpus_file.read_bytes()).hexdigest() == digest

    def test_bad_ratio(self, corpus_file):
        assert cli.main(["split", "--input", str(corpus_file), "--ratio", "oops"]) == 2

    def test_copies_text_verbatim(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        texts = {f"d{i}": f"{text} #{i}" for i, text in enumerate(RAW_TEXTS * 2)}
        path.write_text("".join(json.dumps({"id": doc_id, "text": text, "label": i % 4}, ensure_ascii=False) + "\n"
                                for i, (doc_id, text) in enumerate(texts.items())), encoding="utf-8")
        assert cli.main(["split", "--input", str(path), "--seed", "1"]) == 0
        written = {}
        for name in ("raw.train.jsonl", "raw.val.jsonl"):
            for line in (tmp_path / name).read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                written[rec["id"]] = rec["text"]
        assert written == texts

    def test_missing_file(self, tmp_path):
        assert cli.main(["split", "--input", str(tmp_path / "nope.jsonl")]) == 2


class TestConfigParsing:
    def test_unknown_key_names_it(self, tmp_path, split_files, capsys):
        train_path, val_path = split_files
        config = write_config(tmp_path / "bad.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc")
        config.write_text(config.read_text() + "foo = 1\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["num_classes", "num_targets"])
    def test_removed_shape_keys_rejected(self, tmp_path, split_files, capsys, key):
        # The corpus format fixes 4 classes and 5 targets; the keys are gone.
        train_path, val_path = split_files
        config = write_config(tmp_path / "shape.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc", **{key: 4 if key == "num_classes" else 5})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, split_files, capsys):
        train_path, val_path = split_files
        config = tmp_path / "missing.cfg"
        config.write_text(f"train_file = {train_path}\nval_file = {val_path}\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, split_files):
        train_path, val_path = split_files
        config = write_config(tmp_path / "bad.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc", epochs="many")
        assert cli.main(["train", "--config", str(config)]) == 2

    def test_duplicate_key(self, tmp_path, split_files):
        train_path, val_path = split_files
        config = write_config(tmp_path / "dup.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc")
        config.write_text(config.read_text() + "epochs = 4\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(config)]) == 2

    def test_unset_keys_take_the_dataclass_defaults(self, tmp_path, split_files):
        train_path, val_path = split_files
        config = tmp_path / "minimal.cfg"
        config.write_text(f"train_file = {train_path}\nval_file = {val_path}\ncheckpoint = m.hpc\n",
                          encoding="utf-8")
        cfg = cli.parse_run_config(config)
        assert cfg.feature == FeatureConfig()
        assert cfg.model == ModelConfig(vocab_size=FeatureConfig().vocab_size)
        assert cfg.train == TrainConfig()
        assert cfg.report is None

    @pytest.mark.parametrize("content, line_no", [
        (b"train_file = caf\xe9\n", 1),
        (b"# comment\r\nseed = 1\repochs = 2\n\ntrain_file = caf\xe9\n", 5),
    ], ids=["first-line", "mixed-line-breaks"])
    def test_non_utf8_config_names_path_and_line(self, tmp_path, capsys, content, line_no):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(content)
        assert cli.main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{config}:{line_no}: not valid UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["max_tokens", "embed_dim", "hidden_dim"])
    def test_u32_header_key_of_2_to_the_32_rejected(self, tmp_path, split_files, capsys, key):
        # The checkpoint header stores these as u32. max_tokens = 2**32 once
        # trained to the end and then failed to pack the header; the dims
        # failed to allocate the table. Both ended in a traceback and exit 1.
        train_path, val_path = split_files
        config = write_config(tmp_path / "u32.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc", **{key: 2**32})
        assert cli.main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: {key} must be < 2**32, got {2**32}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.hpc").exists()

    def test_dims_too_large_to_allocate_exit_2_naming_the_config(self, tmp_path, split_files, capsys, monkeypatch):
        # embed_dim = 2**32 - 1 fits the u32 header, but its arrays cannot be
        # allocated; it ended in an _ArrayMemoryError traceback and exit 1.
        # The MemoryError is injected where train first allocates at that width.
        def out_of_memory(cfg, rows=None):
            assert cfg.embed_dim == 2**32 - 1
            raise MemoryError(f"Unable to allocate 32.0 TiB for an array with shape (1024, {cfg.embed_dim})")

        monkeypatch.setattr(trainer, "init_params", out_of_memory)
        train_path, val_path = split_files
        config = write_config(tmp_path / "huge.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc", embed_dim=2**32 - 1)
        assert cli.main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: the model does not fit in memory (Unable to allocate")
        assert "Traceback" not in err
        assert not (tmp_path / "m.hpc").exists()

    def test_config_file_not_found(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "none.cfg")]) == 2

    @pytest.mark.parametrize("key", ["learning_rate", "tau", "lambda"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, tmp_path, split_files, capsys, key, value):
        # NaN once trained to a report holding the invalid JSON token NaN;
        # inf was accepted (tau) or ended in exit 3 (learning_rate, lambda).
        train_path, val_path = split_files
        config = write_config(tmp_path / "nonfinite.cfg", train_file=train_path, val_file=val_path,
                              checkpoint=tmp_path / "m.hpc", report=tmp_path / "r.json", **{key: value})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestTrainCommand:
    def test_artifacts_written(self, trained):
        root, _ = trained
        assert (root / "model.hpc").exists()
        report = json.loads((root / "report.json").read_text())
        assert report["best_val_f1"] >= 0.95
        assert len(report["train_loss"]) == 6
        assert report["checkpoint"].endswith("model.hpc")

    def test_byte_identical_reports_across_runs(self, trained):
        root, config = trained
        first = (root / "report.json").read_bytes()
        assert cli.main(["train", "--config", str(config)]) == 0
        assert (root / "report.json").read_bytes() == first

    def test_raw_corpus_trains_as_its_normalized_copy(self, tmp_path):
        examples = generate_corpus(classes=4, docs_per_class=20, overlap=0.1, seed=8)
        raw = [dataclasses.replace(ex, text=f"{RAW_TEXTS[i % len(RAW_TEXTS)]} {ex.text.upper()}")
               for i, ex in enumerate(examples)]
        runs = {}
        for name, data in (("raw", raw), ("normalized", [dataclasses.replace(ex, text=corpus.normalize_text(ex.text))
                                                        for ex in raw])):
            save_jsonl(data[::5], tmp_path / f"{name}.val.jsonl")
            save_jsonl([ex for i, ex in enumerate(data) if i % 5], tmp_path / f"{name}.train.jsonl")
            config = write_config(tmp_path / f"{name}.cfg", train_file=tmp_path / f"{name}.train.jsonl",
                                  val_file=tmp_path / f"{name}.val.jsonl", checkpoint=tmp_path / f"{name}.hpc",
                                  report=tmp_path / f"{name}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["train", "--config", str(config)]) == 0
            report = json.loads((tmp_path / f"{name}.json").read_text())
            assert report.pop("checkpoint") == str(tmp_path / f"{name}.hpc")
            runs[name] = (tmp_path / f"{name}.hpc").read_bytes(), report
        assert raw[0].text != corpus.normalize_text(raw[0].text)
        assert runs["raw"] == runs["normalized"]

    def test_divergence_maps_to_exit_3(self, trained, monkeypatch, capsys):
        from harmkit.losses import NonFiniteLossError

        def diverge(*args, **kwargs):
            raise NonFiniteLossError("cross-entropy term diverged (value nan)")

        monkeypatch.setattr(cli, "train", diverge)
        _, config = trained
        assert cli.main(["train", "--config", str(config)]) == 3
        assert "diverged" in capsys.readouterr().err


def predict_reference(checkpoint, input_path, task, output):
    """The whole-file predict path: every record loaded, encoded and run
    through one ``forward_batch``, with every loaded array as float64."""
    params, _, feature_cfg = load_params(checkpoint)
    params = ModelParams(**{name: arr.astype(np.float64) for name, arr in params.arrays()})
    data = load_jsonl(input_path, task=task, require_labels=False)
    docs = batch_encode([ex.text for ex in data], feature_cfg)
    scores, decisions = predict(forward_batch(params, docs), task)
    write_prediction_file(output, [ex.id for ex in data], scores, decisions, task)


WORDS = ["c0w1", "c1w2", "c2w0", "c3w4", "t0", "t3", "s1", "Hello", "@bob", "www.x.y", "!!", "é", "", "  "]


@pytest.fixture(scope="module")
def bigram_checkpoint(tmp_path_factory):
    """An untrained checkpoint whose featurizer hashes token pairs too."""
    path = tmp_path_factory.mktemp("bigram") / "model.hpc"
    feature_cfg = FeatureConfig(hash_bits=10, max_tokens=32, ngram=2)
    model_cfg = ModelConfig(vocab_size=feature_cfg.vocab_size, embed_dim=16, hidden_dim=16, seed=5)
    save_params(init_params(model_cfg), model_cfg, feature_cfg, path)
    return path


# Raw texts that normalization leaves as they are but for lowercasing and
# whitespace, and texts it changes otherwise: mentions, URLs in any letter
# case, non-ASCII text (Devanagari, a decomposed accent, capitals with marks
# that compose only with their lowercase letters) and bare markers.
KERNEL_SAFE_TEXTS = ["Hello WORLD", "  spaced   out\t\tTEXT  ", "C0W1 c1w2 T3", "", "a.b: c/d w.w"]
NORMALIZED_TEXTS = ["hi @Bob_1 and @amy!", "see HTTP://Example.COM/x?y=1 now", "WwW.Site.org rocks",
                    "\u0928\u092e\u0938\u094d\u0924\u0947 \u0926\u0941\u0928\u093f\u092f\u093e @ram C0W1",
                    "cafe\u0301 MENU", "@", "ftp://z.q", "J\u030cOSE T\u0308"]


class TestPredictCommand:
    def assert_matches_reference(self, root, texts, task, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(texts)),
                       encoding="utf-8")
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["predict", "--checkpoint", str(root / "model.hpc"), "--input", str(src),
                             "--task", task, "--output", str(got)]) == 0
        assert json.loads(out.getvalue())["n"] == len(texts)
        predict_reference(root / "model.hpc", src, task, want)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(chunk=st.integers(1, 5), chunks=st.integers(0, 3), offset=st.sampled_from([-1, 0, 1]),
           task=st.sampled_from(["harm", "targets"]), data=st.data())
    def test_streamed_output_matches_whole_file_path(self, trained, tmp_path_factory, chunk, chunks, offset,
                                                     task, data):
        # N = k*chunk - 1, k*chunk or k*chunk + 1 documents, N = 0 included.
        n = max(chunks * chunk + offset, 0)
        texts = data.draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join),
                                   min_size=n, max_size=n))
        with mock.patch.object(cli, "_PREDICT_CHUNK", chunk):
            self.assert_matches_reference(trained[0], texts, task, tmp_path_factory.mktemp("stream"))

    @pytest.mark.parametrize("task", ["harm", "targets"])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 1 + cli._PREDICT_CHUNK])
    def test_output_at_chunk_boundaries_matches_whole_file_path(self, trained, tmp_path, task, extra):
        n = cli._PREDICT_CHUNK + extra
        texts = [" ".join(WORDS[(i * j) % len(WORDS)] for j in range(i % 11)) for i in range(n)]
        self.assert_matches_reference(trained[0], texts, task, tmp_path)

    def run_predict(self, checkpoint, texts, tmp_path, name, task="harm"):
        src = tmp_path / f"{name}.jsonl"
        src.write_text("".join(json.dumps({"id": f"d{i}", "text": t}, ensure_ascii=False) + "\n"
                               for i, t in enumerate(texts)), encoding="utf-8")
        out = tmp_path / f"{name}.pred.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["predict", "--checkpoint", str(checkpoint), "--input", str(src), "--task", task,
                             "--output", str(out)]) == 0
        return src, out.read_bytes()

    @pytest.mark.parametrize("ngram", [1, 2])
    @pytest.mark.parametrize("task", ["harm", "targets"])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_raw_input_predicts_as_its_normalized_copy(self, trained, bigram_checkpoint, tmp_path, chunk, task,
                                                       ngram):
        checkpoint = trained[0] / "model.hpc" if ngram == 1 else bigram_checkpoint
        texts = [a + " " + b for a, b in zip(NORMALIZED_TEXTS, KERNEL_SAFE_TEXTS * 2)] + NORMALIZED_TEXTS
        texts += KERNEL_SAFE_TEXTS
        with mock.patch.object(cli, "_PREDICT_CHUNK", chunk):
            _, want = self.run_predict(checkpoint, texts, tmp_path, "raw", task)
            normalized = [corpus.normalize_text(text) for text in texts]
            assert normalized != texts
            _, got = self.run_predict(checkpoint, normalized, tmp_path, "normalized", task)
        assert got == want

    @pytest.mark.parametrize("ngram", [1, 2])
    def test_normalizes_each_text_once_and_only_where_it_could_change_a_token(
            self, trained, bigram_checkpoint, tmp_path, monkeypatch, ngram):
        seen, normalize_text = [], corpus.normalize_text

        def recording(text):
            seen.append(text)
            return normalize_text(text)

        monkeypatch.setattr(corpus, "normalize_text", recording)
        texts = [text for pair in zip(KERNEL_SAFE_TEXTS, NORMALIZED_TEXTS) for text in pair] + NORMALIZED_TEXTS[5:]
        self.run_predict(trained[0] / "model.hpc" if ngram == 1 else bigram_checkpoint, texts, tmp_path, "in")
        assert sorted(seen) == sorted(NORMALIZED_TEXTS)

    def test_pool_input_memory_does_not_grow_with_distinct_tokens(self, tmp_path):
        # Documents of Devanagari tokens that are all distinct, so nothing
        # kept to hash a token once would stop growing. Reading 4 chunks may
        # peak higher than reading 1 only by what the 3 more chunks leave:
        # each id string and its list slot, and each pooled row twice, in
        # its chunk's array and in the concatenation returned.
        chunk, tokens = 256, 40

        def word(k):
            # k's four lowest base-34 digits as Devanagari consonants, then a vowel sign.
            return "".join(chr(0x915 + k // 34**j % 34) for j in range(4)) + "\u093e"

        feature_cfg = FeatureConfig(hash_bits=10)
        params = init_params(ModelConfig(vocab_size=feature_cfg.vocab_size, embed_dim=16, hidden_dim=16))

        def pool(chunks):
            src = tmp_path / f"in{chunks}.jsonl"
            texts = [" ".join(word(d * tokens + t) for t in range(tokens)) for d in range(chunks * chunk)]
            src.write_text("".join(json.dumps({"id": f"d{d}", "text": text}, ensure_ascii=False) + "\n"
                                   for d, text in enumerate(texts)), encoding="utf-8")
            with mock.patch.object(cli, "_PREDICT_CHUNK", chunk):
                tracemalloc.start()
                try:
                    doc_ids, h0 = cli._pool_input(params, feature_cfg, str(src), "harm")
                    return tracemalloc.get_traced_memory()[1], doc_ids, h0
                finally:
                    tracemalloc.stop()

        one_peak, _, one_h0 = pool(1)
        four_peak, doc_ids, four_h0 = pool(4)
        assert len(set(word(k) for k in range(4 * chunk * tokens))) == 4 * chunk * tokens
        kept = sum(sys.getsizeof(doc_id) + 8 for doc_id in doc_ids[chunk:]) + 2 * (four_h0.nbytes - one_h0.nbytes)
        assert four_peak - one_peak <= kept

    def test_empty_input_writes_an_empty_file(self, trained, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("\n", encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--checkpoint", str(trained[0] / "model.hpc"),
                         "--input", str(src), "--output", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 0
        assert out.read_bytes() == b""

    def test_line_per_document(self, trained, split_files, tmp_path):
        root, _ = trained
        _, val_path = split_files
        out = tmp_path / "preds.jsonl"
        code = cli.main(["predict", "--checkpoint", str(root / "model.hpc"),
                         "--input", str(val_path), "--task", "harm", "--output", str(out)])
        assert code == 0
        preds = [json.loads(line) for line in out.read_text().splitlines()]
        val = load_jsonl(val_path, task="harm")
        assert [p["id"] for p in preds] == [ex.id for ex in val]
        for p in preds:
            assert abs(sum(p["probs"]) - 1.0) < 1e-9
            assert p["label"] == max(range(4), key=lambda c: (p["probs"][c], -c))

    def test_empty_text_document(self, trained, tmp_path):
        root, _ = trained
        src = tmp_path / "empty.jsonl"
        src.write_text('{"id": "e", "text": ""}\n', encoding="utf-8")
        out = tmp_path / "empty_preds.jsonl"
        code = cli.main(["predict", "--checkpoint", str(root / "model.hpc"),
                         "--input", str(src), "--task", "harm", "--output", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert abs(sum(rec["probs"]) - 1.0) < 1e-9

    def test_targets_output_shape(self, trained, tmp_path):
        root, _ = trained
        src = tmp_path / "in.jsonl"
        src.write_text('{"id": "x", "text": "c0w1 c0w2 t3"}\n', encoding="utf-8")
        out = tmp_path / "tgt.jsonl"
        code = cli.main(["predict", "--checkpoint", str(root / "model.hpc"),
                         "--input", str(src), "--task", "targets", "--output", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert len(rec["sigmas"]) == 5
        assert rec["targets"] == [int(s >= 0.5) for s in rec["sigmas"]]

    def test_evaluate_scores_the_written_flags(self, trained, split_files, tmp_path, capsys):
        # Flags are exactly sigma >= eta, empty rows included, so evaluate at
        # the same eta scores what predict wrote.
        root, _ = trained
        _, val_path = split_files
        out = tmp_path / "tgt.jsonl"
        args = ["predict", "--checkpoint", str(root / "model.hpc"), "--input", str(val_path),
                "--task", "targets", "--output", str(out)]
        assert cli.main(args) == 0
        eta = float(np.median([max(json.loads(line)["sigmas"]) for line in out.read_text().splitlines()]))
        assert cli.main(args + [f"--eta={eta!r}"]) == 0
        flags = np.array([json.loads(line)["targets"] for line in out.read_text().splitlines()])
        assert 0 < int((flags.sum(axis=1) == 0).sum()) < len(flags)
        gold = np.array([ex.targets for ex in load_jsonl(val_path, task="targets")])
        report_path = tmp_path / "rep.json"
        assert cli.main(["evaluate", "--gold", str(val_path), "--pred", str(out), "--task", "targets",
                         f"--eta={eta!r}", "--report", str(report_path)]) == 0
        tp = int((flags & gold).sum())
        fp, fn = int(flags.sum()) - tp, int(gold.sum()) - tp
        assert json.loads(report_path.read_text())["micro_f1"] == pytest.approx(2 * tp / (2 * tp + fp + fn), abs=1e-12)

    @pytest.mark.parametrize("eta", ["0", "1", "1.5", "-3", "nan"])
    def test_eta_outside_unit_interval_rejected(self, trained, tmp_path, capsys, eta):
        root, _ = trained
        src = tmp_path / "in.jsonl"
        src.write_text('{"id": "x", "text": "c0w1 c0w2 t3", "targets": [0, 0, 0, 1, 0]}\n', encoding="utf-8")
        out = tmp_path / "tgt.jsonl"
        args = ["predict", "--checkpoint", str(root / "model.hpc"), "--input", str(src), "--task", "targets"]
        code = cli.main(args + [f"--eta={eta}", "--output", str(out)])
        assert code == 2
        assert "eta must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(args + ["--output", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["evaluate", "--gold", str(src), "--pred", str(out), "--task", "targets", f"--eta={eta}"])
        assert code == 2
        assert "eta must be in (0, 1)" in capsys.readouterr().err

    def test_eta_checked_before_checkpoint_and_input(self, tmp_path, capsys):
        # Neither file exists, and the bad eta is what predict reports.
        code = cli.main(["predict", "--checkpoint", str(tmp_path / "nope.hpc"), "--input", str(tmp_path / "nope.jsonl"),
                         "--task", "targets", "--eta", "1.5", "--output", str(tmp_path / "out.jsonl")])
        assert code == 2
        assert "eta must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_non_finite_checkpoint_rejected(self, trained, split_files, tmp_path, capsys):
        root, _ = trained
        _, val_path = split_files
        params, model_cfg, feature_cfg = load_params(root / "model.hpc")
        params.embed[:] = np.nan
        bad = tmp_path / "nan.hpc"
        save_params(params, model_cfg, feature_cfg, bad)
        out = tmp_path / "preds.jsonl"
        assert cli.main(["predict", "--checkpoint", str(bad), "--input", str(val_path), "--output", str(out)]) == 2
        assert f"{bad}: non-finite values in embed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint(self, tmp_path, split_files):
        _, val_path = split_files
        assert cli.main(["predict", "--checkpoint", str(tmp_path / "no.hpc"),
                         "--input", str(val_path), "--output", str(tmp_path / "o.jsonl")]) == 2


class TestEnsembleCommand:
    def member_args(self):
        return [str(FIXTURES / f"member{i}.jsonl") for i in (1, 2, 3)]

    def test_fixture_expectations(self, tmp_path):
        expected = json.loads((FIXTURES / "expected.json").read_text())
        for strategy, flags in (("vote", []), ("avg", []),
                                ("w-avg", ["--weights", ",".join(str(w) for w in expected["weights"])])):
            out = tmp_path / f"{strategy}.jsonl"
            code = cli.main(["ensemble", "--members", *self.member_args(),
                             "--strategy", strategy, "--output", str(out), *flags])
            assert code == 0
            labels = [json.loads(line)["label"] for line in out.read_text().splitlines()]
            assert labels == expected[strategy]["labels"], strategy

    def test_wavg_equal_weights_matches_avg_byte_identical(self, tmp_path):
        # Two members: x/2 and 0.5x round identically, so files match bytewise.
        out_avg = tmp_path / "avg.jsonl"
        out_wavg = tmp_path / "wavg.jsonl"
        members = self.member_args()[:2]
        assert cli.main(["ensemble", "--members", *members, "--strategy", "avg",
                         "--output", str(out_avg)]) == 0
        assert cli.main(["ensemble", "--members", *members, "--strategy", "w-avg",
                         "--weights", "0.5,0.5", "--output", str(out_wavg)]) == 0
        assert out_avg.read_bytes() == out_wavg.read_bytes()

    def test_single_member_rejected(self, tmp_path):
        code = cli.main(["ensemble", "--members", self.member_args()[0],
                         "--strategy", "avg", "--output", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_gold_produces_report(self, tmp_path, capsys):
        out = tmp_path / "avg.jsonl"
        report_path = tmp_path / "report.json"
        code = cli.main(["ensemble", "--members", *self.member_args(), "--strategy", "avg",
                         "--gold", str(FIXTURES / "gold.jsonl"), "--output", str(out),
                         "--report", str(report_path)])
        assert code == 0
        expected = json.loads((FIXTURES / "expected.json").read_text())
        report = json.loads(report_path.read_text())
        assert report["micro_f1"] == pytest.approx(expected["accuracy"]["avg"], abs=1e-12)

    def test_vote_aligns_the_members_once(self, tmp_path, monkeypatch):
        from harmkit import ensembles

        align = ensembles.align_members
        built = []

        def counting(members):
            if not isinstance(members, ensembles.AlignedMembers):
                built.append(len(members))
            return align(members)

        monkeypatch.setattr(ensembles, "align_members", counting)
        assert cli.main(["ensemble", "--members", *self.member_args(), "--strategy", "vote",
                         "--output", str(tmp_path / "vote.jsonl")]) == 0
        assert built == [3]

    def test_gold_text_is_not_normalized(self, tmp_path, monkeypatch):
        # Only the gold labels are scored, so no gold text is normalized.
        from harmkit import corpus

        def refuse(text):
            raise AssertionError("gold text normalized")

        monkeypatch.setattr(corpus, "normalize_text", refuse)
        out = tmp_path / "avg.jsonl"
        assert cli.main(["ensemble", "--members", *self.member_args(), "--strategy", "avg",
                         "--gold", str(FIXTURES / "gold.jsonl"), "--output", str(out)]) == 0
        assert cli.main(["evaluate", "--gold", str(FIXTURES / "gold.jsonl"), "--pred", str(out)]) == 0

    def test_duplicated_member_avg_equals_direct_predictions(self, tmp_path):
        # Averaging a member file with itself reproduces its own labels
        # (single-model idempotence, run with the required two inputs).
        member = self.member_args()[0]
        out = tmp_path / "dup.jsonl"
        assert cli.main(["ensemble", "--members", member, member,
                         "--strategy", "avg", "--output", str(out)]) == 0
        source = [json.loads(line) for line in Path(member).read_text().splitlines()]
        combined = [json.loads(line) for line in out.read_text().splitlines()]
        for src, combo in zip(source, combined):
            assert combo["id"] == src["id"]
            assert combo["probs"] == src["probs"]

    def test_wavg_derived_weights_equal_explicit_macro_f1_weights(self, tmp_path, capsys):
        # Oracle: each member's macro-F1 over its first-argmax labels, normalized
        # by hand and passed as --weights in repr form, gives the same bytes.
        gold_path = FIXTURES / "gold.jsonl"
        gold = {rec["id"]: rec["label"] for rec in map(json.loads, gold_path.read_text().splitlines())}
        f1s = []
        for member in self.member_args():
            rows = [json.loads(line) for line in Path(member).read_text().splitlines()]
            labels = [row["probs"].index(max(row["probs"])) for row in rows]
            f1s.append(classification_report(confusion([gold[row["id"]] for row in rows], labels)).macro_f1)
        weights = ",".join(repr(f1 / sum(f1s)) for f1 in f1s)
        outputs = []
        for name, extra in (("derived", []), ("explicit", ["--weights", weights])):
            out, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.report.json"
            assert cli.main(["ensemble", "--members", *self.member_args(), "--strategy", "w-avg", *extra,
                             "--gold", str(gold_path), "--output", str(out), "--report", str(report)]) == 0
            summary = json.loads(capsys.readouterr().out)
            outputs.append((out.read_bytes(), report.read_bytes(), summary["macro_f1"], summary["micro_f1"]))
        assert outputs[0] == outputs[1]

    def test_wavg_derived_weights_need_every_member_id_in_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(line + "\n" for line in (FIXTURES / "gold.jsonl").read_text().splitlines()[1:]),
                        encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = cli.main(["ensemble", "--members", *self.member_args(), "--strategy", "w-avg",
                         "--gold", str(gold), "--output", str(out)])
        assert code == 2
        assert "gold file lacks ids ['d1']" in capsys.readouterr().err
        assert not out.exists()

    def test_many_missing_gold_ids_name_the_count_and_the_first_five(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"id": "g", "text": "t", "label": 0}\n', encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text("".join(f'{{"id": "d{i:05d}", "label": 0}}\n' for i in range(20000)), encoding="utf-8")
        assert cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--task", "harm"]) == 2
        err = capsys.readouterr().err
        assert "gold file lacks ids ['d00000', 'd00001', 'd00002', 'd00003', 'd00004'] (first 5 of 20000)" in err
        assert len(err) < 300

    def test_wavg_requires_weights(self, tmp_path):
        code = cli.main(["ensemble", "--members", *self.member_args(),
                         "--strategy", "w-avg", "--output", str(tmp_path / "o.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("weights", ["nan,1", "1,nan", "inf,0"])
    def test_wavg_non_finite_weights_rejected(self, tmp_path, capsys, weights):
        out = tmp_path / "o.jsonl"
        code = cli.main(["ensemble", "--members", *self.member_args()[:2], "--strategy", "w-avg",
                         "--weights", weights, "--output", str(out)])
        assert code == 2
        assert "weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["0.5,x", "0.5,", ""])
    def test_wavg_non_numeric_weights_named(self, tmp_path, capsys, weights):
        out = tmp_path / "o.jsonl"
        code = cli.main(["ensemble", "--members", *self.member_args()[:2], "--strategy", "w-avg",
                         "--weights", weights, "--output", str(out)])
        assert code == 2
        assert f"--weights must be comma-separated numbers, got {weights!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy, weights", [("vote", "x"), ("vote", "0.5,0.5,0"), ("avg", "0.9,0.1")])
    def test_weights_rejected_outside_wavg(self, tmp_path, capsys, strategy, weights):
        out = tmp_path / "o.jsonl"
        code = cli.main(["ensemble", "--members", *self.member_args(), "--strategy", strategy,
                         "--weights", weights, "--output", str(out)])
        assert code == 2
        assert "--weights applies only to --strategy w-avg" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateCommand:
    def test_known_report(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("\n".join(
            json.dumps({"id": f"d{i}", "text": "t", "label": label})
            for i, label in enumerate([0, 1, 2, 3, 0, 1])
        ) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text("\n".join(
            json.dumps({"id": f"d{i}", "label": label})
            for i, label in enumerate([0, 1, 2, 3, 0, 2])
        ) + "\n", encoding="utf-8")
        report_path = tmp_path / "rep.json"
        code = cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred),
                         "--task", "harm", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["micro_f1"] == pytest.approx(5 / 6)
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == report

    def test_missing_gold_id(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"id": "a", "text": "t", "label": 0}\n', encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "zz", "label": 0}\n', encoding="utf-8")
        assert cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 2

    @pytest.mark.parametrize("eta", ["5", "0", "1", "-3", "nan"])
    def test_harm_eta_outside_unit_interval_rejected(self, tmp_path, capsys, eta):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"id": "a", "text": "t", "label": 0}\n', encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "a", "label": 0}\n', encoding="utf-8")
        report = tmp_path / "rep.json"
        code = cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--task", "harm",
                         f"--eta={eta}", "--report", str(report)])
        assert code == 2
        assert "eta must be in (0, 1)" in capsys.readouterr().err
        assert not report.exists()


class TestMalformedInput:
    """Each case is a defect once seen in a reader: every one must exit 2
    with a message naming the offending path:line, never a traceback."""

    GOLD = [
        {"id": "a", "text": "t", "label": 0, "targets": [1, 0, 0, 0, 0]},
        {"id": "b", "text": "t", "label": 1, "targets": [0, 1, 0, 0, 0]},
    ]

    @pytest.mark.parametrize("task, record, message", [
        ("harm", {"id": "b", "label": 1}, "missing required field 'text'"),
        ("harm", {"id": "b", "text": None, "label": 1}, "field 'text' must be a string"),
        ("harm", {"id": "b", "text": "t", "label": 9}, "label 9 outside {0..3}"),
        ("harm", {"id": "b", "text": "t", "label": True}, "label True outside {0..3}"),
        ("harm", {"id": "b", "text": "t", "label": 1, "targets": [1]}, "targets must be an array of 5 0/1 flags"),
        ("harm", {"id": "b", "text": "t", "targets": [0, 1, 0, 0, 0]}, "record lacks 'label' required by task=harm"),
        ("harm", {"id": "a", "text": "t", "label": 1}, "duplicate id 'a'"),
        ("targets", {"id": "b", "text": "t", "label": 1}, "record lacks 'targets' required by task=targets"),
        ("targets", {"id": "b", "text": "t", "targets": [0, 2, 0, 0, 0]}, "targets must be an array of 5 0/1 flags"),
    ], ids=["missing-text", "null-text", "label-9", "label-bool", "short-targets", "missing-label", "duplicate-id",
            "missing-targets", "targets-flag-2"])
    def test_malformed_gold_names_path_and_line(self, tmp_path, capsys, task, record, message):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(self.GOLD[0]) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        rows = ({"id": i, "label": 0, "sigmas": [0.5] * 5} for i in ("a", "b"))
        pred.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--task", task]) == 2
        assert f"{gold}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, 7, 1.5, True, ["x"], {"a": "b"}],
                             ids=["null", "int", "float", "bool", "list", "object"])
    @pytest.mark.parametrize("command", ["predict", "train", "split"])
    def test_non_string_text_names_path_and_line(self, trained, split_files, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.jsonl"
        records = [{"id": "a", "text": "ok", "label": 0}, {"id": "b", "text": text, "label": 1}]
        bad.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        if command == "predict":
            argv = ["predict", "--checkpoint", str(trained[0] / "model.hpc"), "--input", str(bad),
                    "--output", str(tmp_path / "pred.jsonl")]
        elif command == "train":
            config = write_config(tmp_path / "run.cfg", train_file=bad, val_file=split_files[1],
                                  checkpoint=tmp_path / "model.hpc")
            argv = ["train", "--config", str(config)]
        else:
            argv = ["split", "--input", str(bad)]
        assert cli.main(argv) == 2
        assert f"{bad}:2: field 'text' must be a string" in capsys.readouterr().err
        assert not (tmp_path / "pred.jsonl").exists() and not (tmp_path / "model.hpc").exists()

    @pytest.mark.parametrize("field", ["text", "id"])
    @pytest.mark.parametrize("command", ["predict", "train", "split", "evaluate"])
    def test_lone_surrogate_names_path_and_line(self, trained, split_files, tmp_path, capsys, command, field):
        # json decodes the escape "\\ud800" to a lone surrogate, which no
        # UTF-8 output can hold; a surrogate pair is one valid character.
        bad = tmp_path / "bad.jsonl"
        records = [{"id": "a", "text": "ok \U0001f600", "label": 0}, {"id": "b", "text": "ok", "label": 1}]
        records[1][field] = "x \ud800 y"
        bad.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        assert "\\ud83d\\ude00" in bad.read_text(encoding="utf-8")
        if command == "predict":
            argv = ["predict", "--checkpoint", str(trained[0] / "model.hpc"), "--input", str(bad),
                    "--output", str(tmp_path / "pred.jsonl")]
        elif command == "train":
            config = write_config(tmp_path / "run.cfg", train_file=bad, val_file=split_files[1],
                                  checkpoint=tmp_path / "model.hpc")
            argv = ["train", "--config", str(config)]
        elif command == "evaluate":
            pred = tmp_path / "labels.jsonl"
            pred.write_text('{"id": "a", "label": 0}\n{"id": "b", "label": 1}\n', encoding="utf-8")
            argv = ["evaluate", "--gold", str(bad), "--pred", str(pred)]
        else:
            argv = ["split", "--input", str(bad)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}:2: field '{field}' holds a lone surrogate U+D800\n"
        assert not (tmp_path / "pred.jsonl").exists() and not (tmp_path / "model.hpc").exists()

    @pytest.mark.parametrize("command, lines, line_no", [
        pytest.param("ensemble", ['{"id": "a", "probs": [0.25, 0.25, 0.25, 0.25]}',
                                  '{"id": "b", "probs": [NaN, 0.5, 0.25, 0.25]}'], 2, id="member-nan-prob"),
        pytest.param("ensemble", ["5"], 1, id="member-scalar-line"),
        pytest.param("ensemble", ['["id", "probs"]'], 1, id="member-array-line"),
        pytest.param("ensemble", ['{"id": "a", "probs": [0.2, 0.2, 0.2, 0.2, 0.2]}'], 1, id="member-five-probs"),
        pytest.param("ensemble", ['{"id": "a", "probs": [0.5, "x", 0.25, 0.25]}'], 1, id="member-string-prob"),
        pytest.param("ensemble", ['{"probs": [0.25, 0.25, 0.25, 0.25]}'], 1, id="member-missing-id"),
        pytest.param("ensemble", ['{"id": "a", "probs": [0.25, 0.25, 0.25, 0.25]}',
                                  '{"id": "b", "probs": [0.5, 0.5, 0.5, 0.5]}'], 2, id="member-probs-sum-2"),
        pytest.param("ensemble", ['{"id": "a", "probs": [0.25, 0.25, 0.25, 0.25]}',
                                  '{"id": "b", "probs": [-0.5, 0.5, 0.5, 0.5]}'], 2, id="member-negative-prob"),
        pytest.param("evaluate", ["5"], 1, id="pred-scalar-line"),
        pytest.param("evaluate", ['["id", "label"]'], 1, id="pred-array-line"),
        pytest.param("evaluate", ['{"id": "a", "label": 0}', '{"id": "b", "label": 1}',
                                  '{"id": "a", "label": 1}'], 3, id="pred-duplicate-id"),
        pytest.param("evaluate", ['{"id": "a", "label": 0}', '{"id": "b", "label": "x"}'], 2, id="pred-string-label"),
        pytest.param("evaluate", ['{"id": "a", "label": 7}'], 1, id="pred-label-7"),
        pytest.param("evaluate", ['{"id": "a", "label": 0}', '{"id": "b", "label":'], 2, id="pred-bad-json"),
        pytest.param("evaluate", ['{"id": null, "label": 0}'], 1, id="pred-null-id"),
        pytest.param("evaluate-targets", ['{"id": "a", "sigmas": [NaN, 0.1, 0.1, 0.1, 0.1]}'], 1, id="sigmas-nan"),
        pytest.param("evaluate-targets", ['{"id": "a", "sigmas": [1.5, 0.1, 0.1, 0.1, 0.1]}'], 1, id="sigmas-above-1"),
        pytest.param("evaluate-targets", ["5"], 1, id="sigmas-scalar-line"),
        # "\udce9" is written as the lone byte 0xe9, which is not UTF-8.
        pytest.param("split", ['{"id": "a", "text": "ok", "label": 0}',
                               '{"id": "b", "text": "caf\udce9", "label": 1}'], 2, id="corpus-not-utf8"),
        pytest.param("split", [f'{{"id": "d{i}", "text": "ok", "label": 0}}' for i in range(400)]
                     + ['{"id": "z", "text": "\udcff", "label": 0}'], 401, id="corpus-not-utf8-past-first-chunk"),
        pytest.param("split", ['{"id": "a", "text": "ok", "label": 0}\r{"id": "b", "text": "\udce9", "label": 1}'],
                     2, id="corpus-not-utf8-cr-newlines"),
        pytest.param("ensemble", ['{"id": "a", "probs": [0.25, 0.25, 0.25, 0.25], "x": "\udce9"}'], 1,
                     id="member-not-utf8"),
    ])
    def test_exit_2_names_path_and_line(self, tmp_path, capsys, command, lines, line_no):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps(rec) + "\n" for rec in self.GOLD), encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        if command == "split":
            argv = ["split", "--input", str(bad)]
        elif command == "ensemble":
            argv = ["ensemble", "--members", str(bad), str(FIXTURES / "member1.jsonl"),
                    "--strategy", "avg", "--output", str(tmp_path / "o.jsonl")]
        else:
            task = "targets" if command == "evaluate-targets" else "harm"
            argv = ["evaluate", "--gold", str(gold), "--pred", str(bad), "--task", task]
        assert cli.main(argv) == 2
        assert f"{bad}:{line_no}:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_with_default_small_run(self, capsys):
        assert cli.main(["gradcheck", "--trials", "3", "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["passed"] is True
        assert out["max_rel_error"] < 1e-4

    def test_zero_trials_rejected(self, capsys):
        assert cli.main(["gradcheck", "--trials", "0"]) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"

    def test_stdout_bytes(self, capsys):
        assert cli.main(["gradcheck", "--trials", "2", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (
            '{"analytic": -0.021661729757273943, "max_rel_error": 7.73204930417764e-08, '
            '"numeric": -0.021661728082378318, "passed": true, "trials": 2, '
            '"worst_combo": "trial=1 tau=0.05 lam=0.5 task=harm", "worst_index": [7, 3], '
            '"worst_param": "embed"}\n')

    def test_injected_sign_flip_fails(self, monkeypatch, capsys):
        # Mutation sanity: corrupting one backward term must trip the checker.
        from harmkit import trainer as trainer_mod
        from harmkit import losses as losses_mod

        true_gradients = losses_mod.gradients

        def corrupted(params, docs, labels, cfg, task="harm"):
            loss, grads = true_gradients(params, docs, labels, cfg, task=task)
            grads.bc = -grads.bc
            return loss, grads

        monkeypatch.setattr(trainer_mod, "gradients", corrupted)
        assert cli.main(["gradcheck", "--trials", "1", "--seed", "0"]) == 1
        out = json.loads(capsys.readouterr().out.strip())
        assert out["passed"] is False


class TestGenSynthCommand:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            code = cli.main(["gen-synth", "--classes", "4", "--docs-per-class", "10",
                             "--overlap", "0.3", "--seed", "9", "--output", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_record_count(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert cli.main(["gen-synth", "--classes", "3", "--docs-per-class", "7",
                         "--seed", "0", "--output", str(out)]) == 0
        assert len(load_jsonl(out, task="both")) == 21
