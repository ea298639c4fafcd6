"""Self-test of the benchmark at tiny input sizes: output schema and correctness checks.

Timings are printed by the benchmark but never asserted here.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from harmkit import ensembles, metrics  # noqa: E402

TINY = harness.Sizes(
    train_docs_per_class=10,
    train_epochs=2,
    predict_docs_per_class=5,
    predict_doc_len=(20, 40),
    predict_shared_pool=200,
    checkpoint_docs_per_class=5,
    ensemble_docs_per_class=25,
    setups=2,
)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_harness():
    declared = _declared()
    assert {w["name"] for w in declared["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema_and_checks_pass(workload, trace, tmp_path):
    result, details = harness.run(workload, 5, 0.0, trace, tmp_path, TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])
    if not trace:
        assert result["metrics"]["ok_op_ratio"]["value"] == 1.0
        assert all(m["n"] >= 1 for m in details["named_metrics"].values())
    json.dumps(result)
    assert not any(p.is_dir() for p in (tmp_path / ".bench_work").iterdir())


def test_repeats_of_one_seed_give_identical_digests(tmp_path):
    digests = [harness.run("train-default", 9, 0.0, False, tmp_path, TINY)[1]["digests"] for _ in range(2)]
    assert digests[0] == digests[1] and set(digests[0]) == {"report", "checkpoint"}


def test_traced_train_counts_adam_rows(tmp_path):
    result, _ = harness.run("train-default", 2, 0.0, True, tmp_path, TINY)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trainer.optimizer_steps"] > 0
    assert 0 < values["trainer.adam_rows_useful"] <= values["trainer.adam_rows_updated"]
    assert values["featurizer.distinct_tokens"] <= values["featurizer.tokens"]


def test_a_wrong_vote_counts_as_a_failed_op(tmp_path, monkeypatch):
    original = ensembles.majority_vote

    def shifted_vote(members):
        doc_ids, labels = original(members)
        return doc_ids, [(label + 1) % 4 for label in labels]

    monkeypatch.setattr(ensembles, "majority_vote", shifted_vote)
    result, details = harness.run("ensemble-eval", 1, 0.0, False, tmp_path, TINY)
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"]["ok_op_ratio"]["value"] == pytest.approx(0.75)
    assert "vote" in details["errors"][0]


def test_vote_rule_breaks_ties_by_summed_probability_then_smallest_label():
    members = [
        [[0.5, 0.25, 0.25, 0.0], [0.5, 0.5, 0.0, 0.0]],
        [[0.25, 0.5, 0.25, 0.0], [0.0, 0.5, 0.5, 0.0]],
        [[0.0, 0.25, 0.75, 0.0], [0.0, 0.0, 0.0, 1.0]],
    ]
    # Doc 0: a 3-way vote tie; label 2 has the highest summed probability.
    # Doc 1: votes 0, 1, 3; labels 1 and 3 tie on summed probability 1.0.
    assert harness.vote_labels(members) == [2, 1]
    parsed = [ensembles.MemberPrediction(str(m), ["a", "b"], rows) for m, rows in enumerate(members)]
    assert ensembles.majority_vote(parsed)[1] == [2, 1]


def test_macro_f1_matches_harmkit_metrics():
    rng = np.random.default_rng(0)
    gold, pred = rng.integers(0, 4, 300).tolist(), rng.integers(0, 3, 300).tolist()
    expected = metrics.classification_report(metrics.confusion(gold, pred)).macro_f1
    assert harness.macro_f1(gold, pred) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rows, message", [
    (['{"id": "a", "probs": [0.5, 0.5, 0.0, 0.0], "label": 0}'], "do not match"),
    (['{"id": "b", "probs": [0.5, 0.5, 0.0, 0.0], "label": 0}',
      '{"id": "a", "probs": [0.5, 0.5, 0.0, 0.0], "label": 0}'], "do not match"),
    (['{"id": "a", "probs": [0.5, 0.6, 0.0, 0.0], "label": 1}',
      '{"id": "b", "probs": [0.5, 0.5, 0.0, 0.0], "label": 0}'], "sum to"),
    (['{"id": "a", "probs": [NaN, 0.5, 0.5, 0.0], "label": 1}',
      '{"id": "b", "probs": [0.5, 0.5, 0.0, 0.0], "label": 0}'], "bad probability row"),
])
def test_prediction_file_checks_reject_bad_rows(tmp_path, rows, message):
    path = tmp_path / "pred.jsonl"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(harness.CheckFailed, match=message):
        harness.read_prediction_rows(path, ["a", "b"])


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
