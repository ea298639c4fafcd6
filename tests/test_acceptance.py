"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from harmkit import cli, ensembles
from harmkit.corpus import LabeledExample, split_train_val
from harmkit.featurizer import EncodedDoc, FeatureConfig, batch_encode
from harmkit.losses import ContrastiveConfig, binary_cross_entropy, cross_entropy, info_nce, normalize_rows
from harmkit.metrics import classification_report, confusion, multilabel_report
from harmkit.model import ModelConfig, forward_batch, init_params, softmax
from harmkit.synth import generate_corpus
from harmkit.trainer import (
    TrainConfig,
    _extract_labels,
    _make_optimizer,
    evaluate_params,
    grad_check,
    make_batches,
    train,
    train_epoch,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


def test_criterion_1_gradient_fidelity():
    with criterion(1, "analytic vs finite-difference gradients, rel error < 1e-4, < 60 s"):
        start = time.monotonic()
        # 30 trials cycle tau x lambda over {0.05,0.1,1.0} x {0,0.5,1.0} (27
        # harm trials) plus 3 targets-task trials for the BCE path.
        report = grad_check(trials=30, seed=12345, step=1e-4)
        elapsed = time.monotonic() - start
        assert report.max_rel_error < 1e-4, (
            f"max rel error {report.max_rel_error:.3e} on {report.worst_param}{report.worst_index} "
            f"({report.worst_combo})"
        )
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f} s"


def test_criterion_2_info_nce_closed_forms():
    with criterion(2, "InfoNCE fixtures 0 / ln 2 / ln(1+e^-1) within 1e-9"):
        pair = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert info_nce(pair, np.array([0, 0]), tau=0.7) == pytest.approx(0.0, abs=1e-9)

        identical = np.tile(np.array([0.6, 0.8]), (3, 1))
        for tau in (0.05, 0.1, 1.0):
            assert info_nce(identical, np.array([0, 0, 1]), tau=tau) == pytest.approx(
                math.log(2), abs=1e-9
            )

        orthogonal = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert info_nce(orthogonal, np.array([0, 0, 1]), tau=1.0) == pytest.approx(
            math.log(1 + math.exp(-1)), abs=1e-9
        )


def test_criterion_3_loss_fixtures():
    with criterion(3, "cross-entropy and BCE closed-form fixtures within 1e-9"):
        assert cross_entropy(np.full(4, 0.25), 1) == pytest.approx(math.log(4), abs=1e-9)
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), abs=1e-9)
        assert cross_entropy(np.array([0.0, 1.0]), 1) == pytest.approx(0.0, abs=1e-9)

        assert binary_cross_entropy(np.array([1.0, 0, 1, 0, 1]), (1, 0, 1, 0, 1)) <= 1e-9
        assert binary_cross_entropy(np.full(5, 0.5), (0, 1, 0, 1, 1)) == pytest.approx(
            math.log(2), abs=1e-9
        )
        hand_value = (2 * -math.log(0.9) + 3 * math.log(2)) / 5
        assert binary_cross_entropy(
            np.array([0.9, 0.1, 0.5, 0.5, 0.5]), (1, 0, 1, 0, 1)
        ) == pytest.approx(hand_value, abs=1e-9)


def _inter_class_cosine_distance(z_hat, labels):
    sims = z_hat @ z_hat.T
    different = labels[:, None] != labels[None, :]
    return float((1.0 - sims)[different].mean())


def test_criterion_4_contrastive_direction():
    with criterion(4, "contrastive run: macro-F1 within 0.005 of CE and larger inter-class distance, < 5 min"):
        start = time.monotonic()
        # Confusable corpus: 4 classes, 2000 docs, 60% of tokens drawn from the
        # class-shared pool; 20 keywords per class keep same-class documents
        # lexically diverse, so the CE-only encoder retains diffuse clusters.
        data = generate_corpus(
            classes=4, docs_per_class=500, overlap=0.6, seed=2024,
            words_per_class=20, shared_pool=40, doc_len=(8, 20), with_targets=False,
        )
        split = split_train_val(data, seed=11, stratify=True)
        feature_cfg = FeatureConfig(max_tokens=64, hash_bits=10)
        enc_train = batch_encode([ex.text for ex in split.train], feature_cfg)
        enc_val = batch_encode([ex.text for ex in split.val], feature_cfg)
        train_labels = _extract_labels(split.train, "harm")
        val_labels = _extract_labels(split.val, "harm")

        # Fixed 10-epoch SGD budget; both runs are compared on their final
        # models so the geometry reflects the objective actually optimized.
        results = {}
        for lam in (0.0, 0.5):
            model_cfg = ModelConfig(vocab_size=feature_cfg.vocab_size, embed_dim=64, hidden_dim=64, seed=5)
            train_cfg = TrainConfig(
                epochs=10, batch_size=32, learning_rate=0.2, optimizer="sgd", seed=5,
                contrastive=ContrastiveConfig(tau=0.1, lam=lam), task="harm",
            )
            params = init_params(model_cfg)
            optimizer = _make_optimizer(train_cfg)
            for epoch in range(train_cfg.epochs):
                batches = make_batches(len(enc_train), train_cfg.batch_size, train_cfg.seed, epoch,
                                       drop_singleton=lam > 0)
                train_epoch(params, enc_train, train_labels, batches, train_cfg, optimizer)
            z_hat = normalize_rows(forward_batch(params, enc_val).z)[0]
            results[lam] = (
                evaluate_params(params, enc_val, val_labels, "harm"),
                _inter_class_cosine_distance(z_hat, val_labels),
            )

        (f1_ce, dist_ce), (f1_con, dist_con) = results[0.0], results[0.5]
        elapsed = time.monotonic() - start
        assert f1_con >= f1_ce - 0.005, f"macro-F1 {f1_con:.4f} vs CE-only {f1_ce:.4f}"
        assert dist_con > dist_ce, f"inter-class distance {dist_con:.4f} vs CE-only {dist_ce:.4f}"
        assert elapsed < 300.0, f"experiment took {elapsed:.1f} s"


def test_criterion_5_ensemble_fixture_equivalence():
    with criterion(5, "vote/avg/w-avg outputs equal the hand-computed fixtures exactly"):
        expected = json.loads((FIXTURES / "expected.json").read_text())
        members = [ensembles.load_member_file(FIXTURES / f"member{i}.jsonl") for i in (1, 2, 3)]

        doc_ids, vote_labels = ensembles.majority_vote(members)
        assert doc_ids == expected["doc_ids"]
        assert vote_labels == expected["vote"]["labels"]

        _, avg_probs, avg_labels = ensembles.average_ensemble(members)
        assert avg_labels == expected["avg"]["labels"]
        assert np.array_equal(avg_probs, np.array(expected["avg"]["probs"]))

        _, wavg_probs, wavg_labels = ensembles.weighted_average_ensemble(members, expected["weights"])
        assert wavg_labels == expected["w-avg"]["labels"]
        assert np.array_equal(wavg_probs, np.array(expected["w-avg"]["probs"]))


def test_criterion_6_ensemble_gain():
    with criterion(6, "average ensemble macro-F1 >= best member macro-F1 - 0.01"):
        data = generate_corpus(classes=4, docs_per_class=250, overlap=0.1, seed=404, with_targets=False)
        split = split_train_val(data, seed=2, stratify=True)
        feature_cfg = FeatureConfig(max_tokens=32, hash_bits=10)
        enc_val = batch_encode([ex.text for ex in split.val], feature_cfg)
        val_labels = _extract_labels(split.val, "harm")
        doc_ids = [ex.id for ex in split.val]

        members = []
        member_f1 = []
        for seed in (101, 202, 303):
            model_cfg = ModelConfig(vocab_size=feature_cfg.vocab_size, embed_dim=32, hidden_dim=32, seed=seed)
            train_cfg = TrainConfig(epochs=12, batch_size=32, learning_rate=0.05, seed=seed,
                                    contrastive=ContrastiveConfig(tau=0.1, lam=0.5), task="harm")
            params, report = train(split.train, split.val, model_cfg, feature_cfg, train_cfg)
            # train returns the rows its documents reach; index them compactly.
            compact_val = [EncodedDoc(ids=np.searchsorted(params.rows, doc.ids)) for doc in enc_val]
            probs = softmax(forward_batch(params, compact_val).class_logits)
            members.append(ensembles.MemberPrediction(member_id=str(seed), doc_ids=doc_ids, probs=probs))
            member_f1.append(report.best_val_f1)

        _, _, ensemble_labels = ensembles.average_ensemble(members)
        ensemble_f1 = classification_report(confusion(val_labels, ensemble_labels)).macro_f1
        assert ensemble_f1 >= max(member_f1) - 0.01, (
            f"ensemble {ensemble_f1:.4f} vs members {[f'{f:.4f}' for f in member_f1]}"
        )


def test_criterion_7_split_contract():
    with criterion(7, "4:1 split exact to ±1 per stratum, disjoint, exhaustive, deterministic over 100 datasets"):
        rng = np.random.default_rng(777)
        for trial in range(100):
            counts = [int(rng.integers(2, 40)) for _ in range(4)]
            labels = [c for c, n in enumerate(counts) for _ in range(n)]
            rng.shuffle(labels)
            data = [LabeledExample(id=f"t{trial}-{i}", text="w", harm=h) for i, h in enumerate(labels)]
            seed = int(rng.integers(0, 2**63))
            split = split_train_val(data, ratio=(4, 1), seed=seed, stratify=True)

            train_ids = {ex.id for ex in split.train}
            val_ids = {ex.id for ex in split.val}
            assert not train_ids & val_ids
            assert train_ids | val_ids == {ex.id for ex in data}

            per_class_train = Counter(ex.harm for ex in split.train)
            for label, total in enumerate(counts):
                assert abs(per_class_train[label] - 0.8 * total) <= 1.0

            repeat = split_train_val(data, ratio=(4, 1), seed=seed, stratify=True)
            assert [ex.id for ex in repeat.train] == [ex.id for ex in split.train]
            assert [ex.id for ex in repeat.val] == [ex.id for ex in split.val]


def test_criterion_8_metrics_fixtures():
    with criterion(8, "metrics fixtures within 1e-9; micro-F1 = accuracy within 1e-12"):
        report = classification_report(confusion([0, 1, 1], [0, 0, 1]))
        assert report.precision[0] == pytest.approx(0.5, abs=1e-9)
        assert report.recall[0] == pytest.approx(1.0, abs=1e-9)
        assert report.f1[0] == pytest.approx(2 / 3, abs=1e-9)

        degenerate = classification_report(confusion([0, 1, 2] * 2, [0, 1, 2] * 2))
        assert degenerate.f1[3] == 0.0  # 0/0 convention, class included in macro
        assert degenerate.macro_f1 == pytest.approx(0.75, abs=1e-9)

        gold = [(1, 0, 1, 0, 0), (0, 1, 0, 0, 0)]
        sigmas = np.array([[0.9, 0.1, 0.2, 0.1, 0.1], [0.2, 0.8, 0.3, 0.6, 0.4]])
        assert multilabel_report(gold, sigmas, eta=0.5).micro_f1 == pytest.approx(
            2 / 3, abs=1e-9
        )

        rng = np.random.default_rng(88)
        gold_labels = [int(x) for x in rng.integers(0, 4, 1000)]
        pred_labels = [int(x) for x in rng.integers(0, 4, 1000)]
        rep = classification_report(confusion(gold_labels, pred_labels))
        accuracy = sum(g == p for g, p in zip(gold_labels, pred_labels)) / 1000
        assert abs(rep.micro_f1 - accuracy) <= 1e-12


def test_criterion_9_train_determinism(tmp_path):
    with criterion(9, "two identical train runs produce byte-identical report JSON"):
        corpus_path = tmp_path / "c.jsonl"
        assert cli.main(["gen-synth", "--docs-per-class", "100", "--overlap", "0.1",
                         "--seed", "31", "--output", str(corpus_path)]) == 0
        assert cli.main(["split", "--input", str(corpus_path), "--seed", "1"]) == 0
        stem = str(corpus_path).removesuffix(".jsonl")

        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join([
                f"train_file = {stem}.train.jsonl",
                f"val_file = {stem}.val.jsonl",
                f"checkpoint = {tmp_path / 'model.hpc'}",
                f"report = {tmp_path / 'report.json'}",
                "hash_bits = 10",
                "max_tokens = 32",
                "embed_dim = 16",
                "hidden_dim = 16",
                "epochs = 5",
                "batch_size = 32",
                "learning_rate = 0.05",
                "seed = 13",
                "tau = 0.1",
                "lambda = 0.5",
                "task = harm",
            ]) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", str(config)]) == 0
        first_report = (tmp_path / "report.json").read_bytes()
        first_checkpoint = (tmp_path / "model.hpc").read_bytes()
        assert cli.main(["train", "--config", str(config)]) == 0
        assert (tmp_path / "report.json").read_bytes() == first_report
        assert (tmp_path / "model.hpc").read_bytes() == first_checkpoint


def test_criterion_10_end_to_end(tmp_path):
    with criterion(10, "gen-synth → split → train ×3 → predict → ensemble avg → evaluate, macro-F1 >= 0.95, < 10 min"):
        start = time.monotonic()
        corpus_path = tmp_path / "easy.jsonl"
        assert cli.main(["gen-synth", "--classes", "4", "--docs-per-class", "500",
                         "--overlap", "0.0", "--seed", "555", "--output", str(corpus_path)]) == 0
        assert cli.main(["split", "--input", str(corpus_path), "--seed", "8"]) == 0
        stem = str(corpus_path).removesuffix(".jsonl")
        train_file = f"{stem}.train.jsonl"
        val_file = f"{stem}.val.jsonl"

        member_files = []
        for seed in (1, 2, 3):
            config = tmp_path / f"m{seed}.cfg"
            checkpoint = tmp_path / f"m{seed}.hpc"
            config.write_text(
                "\n".join([
                    f"train_file = {train_file}",
                    f"val_file = {val_file}",
                    f"checkpoint = {checkpoint}",
                    "hash_bits = 10",
                    "max_tokens = 40",
                    "embed_dim = 32",
                    "hidden_dim = 32",
                    "epochs = 12",
                    "batch_size = 32",
                    "learning_rate = 0.05",
                    f"seed = {seed}",
                    "tau = 0.1",
                    "lambda = 0.5",
                    "task = harm",
                ]) + "\n",
                encoding="utf-8",
            )
            assert cli.main(["train", "--config", str(config)]) == 0
            preds = tmp_path / f"m{seed}.preds.jsonl"
            assert cli.main(["predict", "--checkpoint", str(checkpoint), "--input", val_file,
                             "--task", "harm", "--output", str(preds)]) == 0
            member_files.append(str(preds))

        combined = tmp_path / "ensemble.jsonl"
        assert cli.main(["ensemble", "--members", *member_files, "--strategy", "avg",
                         "--output", str(combined)]) == 0
        report_path = tmp_path / "final_report.json"
        assert cli.main(["evaluate", "--gold", val_file, "--pred", str(combined),
                         "--task", "harm", "--report", str(report_path)]) == 0

        macro_f1 = json.loads(report_path.read_text())["macro_f1"]
        elapsed = time.monotonic() - start
        assert macro_f1 >= 0.95, f"end-to-end macro-F1 {macro_f1:.4f}"
        assert elapsed < 600.0, f"pipeline took {elapsed:.1f} s"
