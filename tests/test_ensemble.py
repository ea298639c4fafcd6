"""Ensemble strategies against the committed fixtures and their invariants.

The fixture expectations in tests/fixtures/expected.json were derived with
exact rational arithmetic; rederive_expected() repeats that derivation here
so the frozen file itself stays auditable.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmkit.corpus import read_rows
from harmkit.ensembles import (
    MemberPrediction,
    align_members,
    average_ensemble,
    derive_weights,
    load_member_file,
    majority_vote,
    weighted_average_ensemble,
    write_prediction_file,
)
from harmkit.metrics import MetricsReport

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def members():
    return [load_member_file(FIXTURES / f"member{i}.jsonl") for i in (1, 2, 3)]


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "expected.json").read_text())


def rederive_expected(members, weights):
    """Exact-rational reapplication of the documented aggregation rules."""

    def argmax_smallest(row):
        best = max(row)
        return min(i for i, v in enumerate(row) if v == best)

    def vote_one(rows):
        votes = [argmax_smallest(r) for r in rows]
        counts = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        tied = [label for label, count in counts.items() if count == top]
        if len(tied) > 1:
            summed = [sum(r[c] for r in rows) for c in range(4)]
            best = max(summed[label] for label in tied)
            tied = [label for label in tied if summed[label] == best]
        return min(tied)

    w = [Fraction(x).limit_denominator(1 << 20) for x in weights]
    vote_labels, avg_labels, wavg_labels = [], [], []
    for d in range(len(members[0].doc_ids)):
        rows = [[Fraction(x).limit_denominator(1 << 20) for x in m.probs[d]] for m in members]
        vote_labels.append(vote_one(rows))
        avg = [sum(r[c] for r in rows) / 3 for c in range(4)]
        wavg = [sum(wi * r[c] for wi, r in zip(w, rows)) for c in range(4)]
        avg_labels.append(argmax_smallest(avg))
        wavg_labels.append(argmax_smallest(wavg))
    return vote_labels, avg_labels, wavg_labels


class TestFixtures:
    def test_frozen_file_matches_rational_rederivation(self, members, expected):
        vote_labels, avg_labels, wavg_labels = rederive_expected(members, expected["weights"])
        assert vote_labels == expected["vote"]["labels"]
        assert avg_labels == expected["avg"]["labels"]
        assert wavg_labels == expected["w-avg"]["labels"]

    def test_vote_matches_fixture(self, members, expected):
        doc_ids, labels = majority_vote(members)
        assert doc_ids == expected["doc_ids"]
        assert labels == expected["vote"]["labels"]

    def test_avg_matches_fixture(self, members, expected):
        doc_ids, probs, labels = average_ensemble(members)
        assert doc_ids == expected["doc_ids"]
        assert labels == expected["avg"]["labels"]
        assert np.array_equal(probs, np.array(expected["avg"]["probs"]))

    def test_wavg_matches_fixture(self, members, expected):
        doc_ids, probs, labels = weighted_average_ensemble(members, expected["weights"])
        assert doc_ids == expected["doc_ids"]
        assert labels == expected["w-avg"]["labels"]
        assert np.array_equal(probs, np.array(expected["w-avg"]["probs"]))


def make_member(member_id, doc_ids, rows):
    return MemberPrediction(member_id=member_id, doc_ids=list(doc_ids), probs=np.array(rows, dtype=np.float64))


def majority_vote_reference(members):
    """The per-document vote loop, kept as the oracle for the array rule."""
    doc_ids = list(members[0].doc_ids)
    index = [{d: row for row, d in enumerate(m.doc_ids)} for m in members]
    labels = []
    for doc_id in doc_ids:
        rows = np.stack([m.probs[ix[doc_id]] for m, ix in zip(members, index)])
        votes = Counter(int(np.argmax(row)) for row in rows)
        top = max(votes.values())
        tied = [label for label, count in votes.items() if count == top]
        if len(tied) > 1:
            summed = rows.sum(axis=0)
            best = max(summed[label] for label in tied)
            tied = [label for label in tied if summed[label] == best]
        labels.append(min(tied))
    return doc_ids, labels


class TestVote:
    def test_strict_majority(self):
        m = [
            make_member("a", ["x"], [[0.1, 0.1, 0.7, 0.1]]),
            make_member("b", ["x"], [[0.2, 0.1, 0.6, 0.1]]),
            make_member("c", ["x"], [[0.1, 0.6, 0.2, 0.1]]),
        ]
        assert majority_vote(m)[1] == [2]

    def test_unanimity(self):
        rows = [[0.1, 0.1, 0.1, 0.7]]
        m = [make_member(str(i), ["x"], rows) for i in range(3)]
        assert majority_vote(m)[1] == [3]

    def test_two_member_tie_broken_by_summed_probability(self):
        m = [
            make_member("a", ["x"], [[0.9, 0.1, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.2, 0.8, 0.0, 0.0]]),
        ]
        # Votes split 0 vs 1; summed p0 = 1.1 beats p1 = 0.9.
        assert majority_vote(m)[1] == [0]

    @pytest.mark.parametrize("rows", ["sixteenths", "dirichlet"])
    def test_matches_loop_reference(self, rows):
        # Sixteenths make exact vote and summed-probability ties common.
        rng = np.random.default_rng(67)
        for _ in range(150):
            n_members, n_docs = int(rng.integers(2, 6)), int(rng.integers(1, 40))
            ids = [f"d{i}" for i in range(n_docs)]
            m = []
            for k in range(n_members):
                if rows == "sixteenths":
                    probs = rng.multinomial(16, [0.25] * 4, size=n_docs) / 16
                else:
                    probs = rng.dirichlet(np.ones(4), size=n_docs)
                order = rng.permutation(n_docs)
                m.append(make_member(str(k), [ids[i] for i in order], probs[order]))
            expected = majority_vote_reference(m)
            got = majority_vote(m)
            assert got == expected
            assert all(type(label) is int for label in got[1])


class TestAverage:
    def test_hand_arithmetic(self):
        m = [
            make_member("a", ["x"], [[0.6, 0.4, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.2, 0.8, 0.0, 0.0]]),
        ]
        _, probs, labels = average_ensemble(m)
        assert np.allclose(probs[0], [0.4, 0.6, 0.0, 0.0], atol=1e-12)
        assert labels == [1]

    def test_idempotent_for_identical_members(self):
        # Labels are exactly idempotent; probabilities carry one rounding
        # from the division by 3.
        rows = [[0.3, 0.25, 0.25, 0.2], [0.1, 0.2, 0.3, 0.4]]
        m = [make_member(str(i), ["x", "y"], rows) for i in range(3)]
        _, probs, labels = average_ensemble(m)
        assert np.allclose(probs, np.array(rows), atol=1e-15)
        assert labels == [0, 3]

    def test_idempotent_bitwise_for_two_identical_members(self):
        # With two members the halving is exact, so idempotence is bitwise.
        rows = [[0.3, 0.25, 0.25, 0.2], [0.1, 0.2, 0.3, 0.4]]
        m = [make_member(str(i), ["x", "y"], rows) for i in range(2)]
        _, probs, labels = average_ensemble(m)
        assert np.array_equal(probs, np.array(rows))
        assert labels == [0, 3]

    def test_opposite_one_hots_tie_to_smallest(self):
        m = [
            make_member("a", ["x"], [[1.0, 0.0, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.0, 1.0, 0.0, 0.0]]),
        ]
        _, probs, labels = average_ensemble(m)
        assert np.allclose(probs[0], [0.5, 0.5, 0.0, 0.0])
        assert labels == [0]


class TestWeighted:
    def test_degenerate_weight_selects_member(self):
        m = [
            make_member("a", ["x"], [[0.7, 0.3, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.1, 0.9, 0.0, 0.0]]),
        ]
        _, probs, labels = weighted_average_ensemble(m, [1.0, 0.0])
        assert np.array_equal(probs[0], m[0].probs[0])
        assert labels == [0]

    def test_uniform_weights_equal_plain_average(self):
        rng = np.random.default_rng(53)
        rows = rng.dirichlet(np.ones(4), size=(3, 6))
        m = [make_member(str(i), [f"d{j}" for j in range(6)], rows[i]) for i in range(3)]
        _, avg_probs, avg_labels = average_ensemble(m)
        _, w_probs, w_labels = weighted_average_ensemble(m, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(w_probs, avg_probs, atol=1e-12)
        assert w_labels == avg_labels

    def test_hand_arithmetic(self):
        m = [
            make_member("a", ["x"], [[1.0, 0.0, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.0, 1.0, 0.0, 0.0]]),
        ]
        _, probs, labels = weighted_average_ensemble(m, [0.75, 0.25])
        assert np.allclose(probs[0], [0.75, 0.25, 0.0, 0.0], atol=1e-12)
        assert labels == [0]

    def test_weight_count_mismatch(self):
        m = [
            make_member("a", ["x"], [[1.0, 0.0, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.0, 1.0, 0.0, 0.0]]),
        ]
        with pytest.raises(ValueError, match="weights"):
            weighted_average_ensemble(m, [0.5, 0.25, 0.25])

    def test_weight_sum_validation(self):
        m = [
            make_member("a", ["x"], [[1.0, 0.0, 0.0, 0.0]]),
            make_member("b", ["x"], [[0.0, 1.0, 0.0, 0.0]]),
        ]
        with pytest.raises(ValueError, match="sum to 1"):
            weighted_average_ensemble(m, [0.7, 0.7])


class TestDeriveWeights:
    def test_reported_f1_pair(self):
        weights = derive_weights([0.700, 0.695])
        assert weights[0] == pytest.approx(0.700 / 1.395, abs=1e-9)
        assert weights[1] == pytest.approx(0.695 / 1.395, abs=1e-9)
        assert weights[0] == pytest.approx(0.50179, abs=1e-5)
        assert weights[1] == pytest.approx(0.49821, abs=1e-5)

    def test_equal_f1s_uniform(self):
        assert derive_weights([0.5, 0.5, 0.5]) == pytest.approx([1 / 3] * 3)

    def test_all_zero_fallback_uniform(self):
        assert derive_weights([0.0, 0.0]) == [0.5, 0.5]

    def test_accepts_reports(self):
        reports = [
            MetricsReport((1,), (1,), (1,), (1,), macro_f1=0.6, micro_f1=0.6, weighted_f1=0.6),
            MetricsReport((1,), (1,), (1,), (1,), macro_f1=0.2, micro_f1=0.2, weighted_f1=0.2),
        ]
        assert derive_weights(reports) == pytest.approx([0.75, 0.25])


class TestInvariants:
    def test_member_reordering_invariance(self, members, expected):
        rng = np.random.default_rng(59)
        for _ in range(6):
            order = rng.permutation(3)
            shuffled = [members[i] for i in order]
            assert majority_vote(shuffled)[1] == expected["vote"]["labels"]
            _, _, avg_labels = average_ensemble(shuffled)
            assert avg_labels == expected["avg"]["labels"]
            w = [expected["weights"][i] for i in order]
            _, _, wavg_labels = weighted_average_ensemble(shuffled, w)
            assert wavg_labels == expected["w-avg"]["labels"]

    def test_aligned_members_give_the_same_results(self, members, expected):
        # One alignment serves every combiner; each gives what it gives for the member list.
        shuffled = [members[0], *(MemberPrediction(m.member_id, m.doc_ids[::-1], m.probs[::-1]) for m in members[1:])]
        aligned = align_members(shuffled)
        assert align_members(aligned) is aligned
        assert majority_vote(aligned) == majority_vote(shuffled)
        for got, want in ((average_ensemble(aligned), average_ensemble(shuffled)),
                          (weighted_average_ensemble(aligned, expected["weights"]),
                           weighted_average_ensemble(shuffled, expected["weights"]))):
            assert got[0] == want[0] and got[2] == want[2]
            assert np.array_equal(got[1], want[1])
        assert np.array_equal(aligned.mean(), average_ensemble(members)[1])

    def test_outputs_are_distributions(self, members, expected):
        for probs in (average_ensemble(members)[1], weighted_average_ensemble(members, expected["weights"])[1]):
            assert np.all(probs >= 0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_consensus_preservation(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            label = int(rng.integers(0, 4))
            rows = []
            for _ in range(3):
                row = rng.dirichlet(np.ones(4)) * 0.4
                row[label] += 0.6
                row /= row.sum()
                rows.append(row)
            m = [make_member(str(i), ["x"], [rows[i]]) for i in range(3)]
            assert majority_vote(m)[1] == [label]
            assert average_ensemble(m)[2] == [label]
            assert weighted_average_ensemble(m, [0.5, 0.3, 0.2])[2] == [label]

    def test_misalignment_error_lists_ids(self):
        a = make_member("a", ["x", "y"], [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = make_member("b", ["x", "z"], [[1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(ValueError) as err:
            average_ensemble([a, b])
        assert "y" in str(err.value)
        assert "z" in str(err.value)

    def test_misalignment_error_bounds_its_id_lists(self):
        a = make_member("a", [f"x{i:05d}" for i in range(20000)], np.full((20000, 4), 0.25))
        b = make_member("b", [f"y{i:05d}" for i in range(20000)], np.full((20000, 4), 0.25))
        with pytest.raises(ValueError) as err:
            align_members([a, b])
        message = str(err.value)
        assert message == ("member 'b' misaligned: "
                           "missing ids ['x00000', 'x00001', 'x00002', 'x00003', 'x00004'] (first 5 of 20000); "
                           "unexpected ids ['y00000', 'y00001', 'y00002', 'y00003', 'y00004'] (first 5 of 20000)")
        assert len(message) < 300

    def test_alignment_by_id_not_position(self):
        a = make_member("a", ["x", "y"], [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = make_member("b", ["y", "x"], [[0, 1, 0, 0], [1, 0, 0, 0]])
        doc_ids, probs, labels = average_ensemble([a, b])
        assert doc_ids == ["x", "y"]
        assert labels == [0, 1]
        assert np.array_equal(probs[0], [1, 0, 0, 0])

    def test_single_member_rejected(self):
        a = make_member("a", ["x"], [[1, 0, 0, 0]])
        with pytest.raises(ValueError, match="at least 2"):
            majority_vote([a])

    def test_nan_row_rejected(self):
        # NaN compares false against both tolerances, so it needs its own check.
        with pytest.raises(ValueError, match="distribution"):
            make_member("a", ["x"], [[float("nan"), 0.5, 0.25, 0.25]])


def write_prediction_file_reference(path, doc_ids, scores, decisions, task="harm"):
    """The ``json.dumps`` row writer, kept as the oracle for the direct format."""
    score_key, decision_key = {"harm": ("probs", "label"), "targets": ("sigmas", "targets")}[task]
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc_id, row, decision in zip(doc_ids, scores, np.asarray(decisions)):
            fh.write(json.dumps({"id": doc_id, score_key: row.tolist(), decision_key: decision.tolist()}) + "\n")


# Ids with quotes, backslashes, control characters, non-ASCII, astral
# characters and a lone surrogate; scores that stress float formatting.
ID_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\xe9", "\u2028", "\ufeff", "\U0001f600", "\ud800", "a", "/"]
ODD_SCORES = [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1e308, -1e308, 1.0, 0.5, 2.0 ** -1074 * 3, 123456789.123]


@st.composite
def prediction_rows(draw):
    task = draw(st.sampled_from(["harm", "targets"]))
    width = 4 if task == "harm" else 5
    n = draw(st.integers(0, 6))
    doc_ids = draw(st.lists(st.text(alphabet=st.sampled_from(ID_CHARS), min_size=1, max_size=5) | st.text(max_size=5),
                            min_size=n, max_size=n))
    finite = st.sampled_from(ODD_SCORES) | st.floats(allow_nan=False, allow_infinity=False)
    scores = np.array(draw(st.lists(st.lists(finite, min_size=width, max_size=width), min_size=n, max_size=n)),
                      dtype=np.float64).reshape(n, width)
    if task == "harm":
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        decisions = draw(st.sampled_from([labels, np.array(labels, dtype=np.int64), np.array(labels, dtype=np.uint8),
                                          np.array(labels, dtype=bool)]))
    else:
        flags = scores >= 0.5
        decisions = draw(st.sampled_from([flags.astype(int).tolist(), flags.astype(np.int64), flags]))
    return task, doc_ids, scores, decisions


class TestIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
        write_prediction_file(path, ["a", "b"], probs, [0, 0])
        member = load_member_file(path)
        assert member.doc_ids == ["a", "b"]
        assert np.array_equal(member.probs, probs)
        assert [json.loads(line)["label"] for line in path.read_text().splitlines()] == [0, 0]

    def test_targets_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        sigmas = np.array([[0.5, 0.25, 0.75, 0.0, 1.0], [0.1, 0.2, 0.3, 0.4, 0.45]])
        flags = (sigmas >= 0.5).astype(np.int64)
        write_prediction_file(path, ["a", "b"], sigmas, flags, "targets")
        doc_ids, read = read_rows(path, "sigmas", 5, low=0.0, high=1.0)
        assert doc_ids == ["a", "b"]
        assert np.array_equal(read, sigmas)
        assert [json.loads(line)["targets"] for line in path.read_text().splitlines()] == flags.tolist()

    @settings(max_examples=300, deadline=None)
    @given(case=prediction_rows())
    def test_matches_reference_writer(self, tmp_path_factory, case):
        task, doc_ids, scores, decisions = case
        root = tmp_path_factory.mktemp("writer")
        write_prediction_file(root / "fast.jsonl", doc_ids, scores, decisions, task)
        write_prediction_file_reference(root / "ref.jsonl", doc_ids, scores, decisions, task)
        assert (root / "fast.jsonl").read_bytes() == (root / "ref.jsonl").read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, tmp_path, bad):
        path = tmp_path / "preds.jsonl"
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [bad, 0.5, 0.25, 0.25]])
        with pytest.raises(ValueError, match="non-finite values in 'probs'"):
            write_prediction_file(path, ["a", "b"], probs, [0, 1])
        assert not path.exists()

    def test_invalid_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "probs": [0.9, 0.9, 0.1, 0.1]}\n')
        with pytest.raises(ValueError, match="distribution"):
            load_member_file(path)
