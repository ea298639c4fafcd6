"""Loss values, invariances, and analytic-gradient correctness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmkit.featurizer import EncodedDoc
from harmkit.losses import (
    ContrastiveConfig,
    NonFiniteLossError,
    _pool_backward,
    binary_cross_entropy,
    cross_entropy,
    gradients,
    info_nce,
)
from harmkit.model import ModelConfig, forward_batch, init_params, sigmoid, softmax


def random_model(rng, vocab_size=64, embed_dim=8, hidden_dim=8):
    params = init_params(ModelConfig(vocab_size=vocab_size, embed_dim=embed_dim, hidden_dim=hidden_dim, seed=0))
    for _, arr in params.arrays():
        arr += rng.normal(0, 0.5, arr.shape)
    return params


def random_batch(rng, vocab_size=64, batch=6):
    docs = []
    for _ in range(batch):
        ids = rng.integers(0, vocab_size, size=int(rng.integers(1, 9)))
        docs.append(EncodedDoc(ids=ids, length=len(ids)))
    labels = rng.integers(0, 3, size=batch)
    return docs, labels


def info_nce_reference(reps, labels, tau):
    """Loop InfoNCE, one anchor at a time, as an oracle for the batched
    ``info_nce``: per-pair cosine (0 for a zero vector), logsumexp over every
    other member, mean over the anchors that have a positive."""
    n = len(reps)
    norms = [math.sqrt(sum(v * v for v in r)) for r in reps]

    def cos(i, j):
        if norms[i] == 0.0 or norms[j] == 0.0:
            return 0.0
        return sum(a * b for a, b in zip(reps[i], reps[j])) / (norms[i] * norms[j])

    per_anchor = []
    for i in range(n):
        positives = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not positives:
            continue
        logits = [cos(i, j) / tau for j in range(n) if j != i]
        top = max(logits)
        log_denom = top + math.log(sum(math.exp(x - top) for x in logits))
        per_anchor.append(sum(log_denom - cos(i, j) / tau for j in positives) / len(positives))
    return sum(per_anchor) / len(per_anchor) if per_anchor else 0.0


class TestCrossEntropy:
    def test_uniform_four(self):
        assert cross_entropy(np.full(4, 0.25), 3) == pytest.approx(math.log(4), abs=1e-9)

    def test_perfect(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), abs=1e-9)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.full(4, 0.25), 4)

    def test_clamped_at_zero_probability(self):
        assert cross_entropy(np.array([1.0, 0.0]), 1) == pytest.approx(-math.log(1e-12))

    def test_batch_mean_of_rows(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        expected = (math.log(4) - math.log(0.3)) / 2
        assert cross_entropy(probs, np.array([3, 2])) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(ValueError, match="2 probability rows but 3"):
            cross_entropy(probs, np.array([0, 1, 2]))


class TestBinaryCrossEntropy:
    def test_perfect_within_clamp(self):
        assert binary_cross_entropy(np.array([1.0, 0, 1, 0, 1]), (1, 0, 1, 0, 1)) <= 1e-11

    def test_all_half(self):
        assert binary_cross_entropy(np.full(5, 0.5), (1, 0, 1, 1, 0)) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_evaluated_fixture(self):
        # Terms: -ln 0.9, -ln 0.9, ln 2, ln 2, ln 2; mean computed by hand.
        expected = (2 * -math.log(0.9) + 3 * math.log(2)) / 5
        got = binary_cross_entropy(np.array([0.9, 0.1, 0.5, 0.5, 0.5]), (1, 0, 1, 0, 1))
        assert got == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.458032514599, abs=1e-9)

    def test_batch_mean_of_rows(self):
        sigmas = np.array([[0.9, 0.1, 0.5, 0.5, 0.5], [0.5] * 5])
        rows = np.array([[1, 0, 1, 0, 1], [1, 1, 0, 0, 1]])
        expected = ((2 * -math.log(0.9) + 3 * math.log(2)) / 5 + math.log(2)) / 2
        assert binary_cross_entropy(sigmas, rows) == pytest.approx(expected, abs=1e-12)


class TestInfoNce:
    def test_two_identical_members(self):
        reps = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert info_nce(reps, np.array([0, 0]), tau=0.3) == pytest.approx(0.0, abs=1e-12)

    def test_all_identical_two_positive_one_negative(self):
        reps = np.tile(np.array([0.6, 0.8]), (3, 1))
        for tau in (0.05, 0.5, 2.0):
            assert info_nce(reps, np.array([5, 5, 9]), tau=tau) == pytest.approx(math.log(2), abs=1e-9)

    def test_orthogonal_negative_closed_form(self):
        reps = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        expected = math.log(1 + math.exp(-1))
        assert info_nce(reps, np.array([0, 0, 1]), tau=1.0) == pytest.approx(expected, abs=1e-9)

    def test_no_positive_anchors(self):
        reps = np.eye(3)
        assert info_nce(reps, np.array([0, 1, 2]), tau=0.1) == 0.0

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            info_nce(np.ones((1, 4)), np.array([0]), tau=0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        reps = rng.normal(0, 1, (10, 6))
        reps /= np.linalg.norm(reps, axis=1, keepdims=True)
        labels = rng.integers(0, 3, 10)
        base = info_nce(reps, labels, tau=0.2)
        for _ in range(10):
            perm = rng.permutation(10)
            assert info_nce(reps[perm], labels[perm], tau=0.2) == pytest.approx(base, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        reps = rng.normal(0, 1, (8, 5))
        reps /= np.linalg.norm(reps, axis=1, keepdims=True)
        labels = rng.integers(0, 3, 8)
        mapping = {0: 7, 1: 42, 2: 13}
        renamed = np.array([mapping[int(l)] for l in labels])
        assert info_nce(reps, renamed, tau=0.5) == pytest.approx(info_nce(reps, labels, tau=0.5), abs=1e-12)

    def test_closer_positive_never_increases_loss(self):
        # Rotate the positive toward the anchor while the negative stays put.
        labels = np.array([0, 0, 1])
        previous = None
        for angle in np.linspace(math.pi / 2, 0.0, 12):
            reps = np.array([
                [1.0, 0.0],
                [math.cos(angle), math.sin(angle)],
                [-0.5, math.sqrt(3) / 2],
            ])
            value = info_nce(reps, labels, tau=0.2)
            if previous is not None:
                assert value <= previous + 1e-12
            previous = value

    @pytest.mark.parametrize("tau", [0.05, 0.1, 1.0])
    def test_matches_loop_reference(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        for trial in range(40):
            n = int(rng.integers(2, 12))
            reps = rng.normal(0, 1, (n, int(rng.integers(1, 7))))
            reps[rng.random(n) < 0.2] = 0.0  # zero rows: the empty-document case
            labels = rng.integers(0, int(rng.integers(1, n + 1)), n)  # some anchors lack positives
            assert info_nce(reps, labels, tau) == pytest.approx(
                info_nce_reference(reps, labels, tau), abs=1e-12), (trial, labels)


class TestCombinedLoss:
    """The harm training loss that ``gradients`` returns is ce + lam * nce."""

    @staticmethod
    def terms(lam, batch=8, labels=None):
        rng = np.random.default_rng(3)
        params = random_model(rng)
        docs, drawn = random_batch(rng, batch=batch)
        labels = drawn if labels is None else np.asarray(labels)
        loss, _ = gradients(params, docs, labels, ContrastiveConfig(tau=0.1, lam=lam), task="harm")
        acts = forward_batch(params, docs)
        return loss, cross_entropy(softmax(acts.class_logits), labels), info_nce(acts.z, labels, 0.1)

    def test_switch_off(self):
        loss, ce, nce = self.terms(0.0)
        assert nce > 0.0
        assert loss == pytest.approx(ce, abs=1e-12)

    def test_arithmetic(self):
        loss, ce, nce = self.terms(0.5)
        assert loss == pytest.approx(ce + 0.5 * nce, abs=1e-12)

    def test_zero_nce(self):
        # Distinct labels give no anchor a positive, so InfoNCE is 0.
        loss, ce, nce = self.terms(1.0, batch=4, labels=[0, 1, 2, 3])
        assert nce == 0.0
        assert loss == pytest.approx(ce, abs=1e-12)

    def test_linear_in_nce(self):
        base, _, nce = self.terms(0.0)
        for lam in np.random.default_rng(1).uniform(0, 3, 20):
            assert self.terms(lam)[0] - base == pytest.approx(lam * nce, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(tau=0.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(lam=-0.1)

    @pytest.mark.parametrize("field", ["tau", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ContrastiveConfig(**{field: value})


def ce_only_gradients_reference(params, docs, classes):
    """Independent loop-based cross-entropy backward pass (no vectorization)."""
    batch = len(docs)
    embed_dim = params.embed.shape[1]
    hidden_dim = params.w1.shape[1]
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays()}
    total = 0.0
    for doc, y in zip(docs, classes):
        h0 = np.zeros(embed_dim)
        if doc.length:
            for t in doc.ids:
                h0 += params.embed[int(t)]
            h0 /= doc.length
        a = h0 @ params.w1 + params.b1
        z = np.tanh(a)
        logits = z @ params.wc + params.bc
        p = softmax(logits)
        total += -math.log(max(p[int(y)], 1e-12))
        d_logits = p.copy()
        d_logits[int(y)] -= 1.0
        d_logits /= batch
        grads["wc"] += np.outer(z, d_logits)
        grads["bc"] += d_logits
        g_z = params.wc @ d_logits
        g_a = g_z * (1.0 - z**2)
        grads["w1"] += np.outer(h0, g_a)
        grads["b1"] += g_a
        g_h0 = params.w1 @ g_a
        if doc.length:
            for t in doc.ids:
                grads["embed"][int(t)] += g_h0 / doc.length
    return total / batch, grads


def add_at_pool_backward_table(docs, g_h0, rows):
    """Mean pooling's backward as one np.add.at over the batch's sorted unique
    ids, scattered into a zeroed (rows, embed_dim) table: the oracle for the
    bincount in ``_pool_backward``."""
    full = [i for i, doc in enumerate(docs) if doc.length]
    lengths = np.array([docs[i].length for i in full], dtype=np.int64)
    flat_ids = np.concatenate([docs[i].ids for i in full]) if full else np.zeros(0, dtype=np.int64)
    ids, inverse = np.unique(flat_ids, return_inverse=True)
    compact = np.zeros((ids.size, g_h0.shape[1]))
    np.add.at(compact, inverse, np.repeat(g_h0[full] / lengths[:, None], lengths, axis=0))
    table = np.zeros((rows, g_h0.shape[1]))
    table[ids] = compact
    return table


@st.composite
def pool_backward_cases(draw):
    """A table of 1-12 rows, documents with repeated ids and empty ones, and a
    g_h0 whose rows are sometimes exactly zero, of either sign."""
    rows = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    docs = [
        EncodedDoc(ids=np.array(ids, dtype=np.int64), length=len(ids))
        for ids in draw(st.lists(st.lists(st.integers(0, rows - 1), max_size=10), min_size=1, max_size=8))
    ]
    value = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    zero_row = st.sampled_from([[0.0] * dim, [-0.0] * dim])
    g_h0 = draw(st.lists(st.one_of(zero_row, st.lists(value, min_size=dim, max_size=dim)),
                         min_size=len(docs), max_size=len(docs)))
    return docs, np.array(g_h0, dtype=np.float64).reshape(len(docs), dim), rows


class TestPoolBackwardOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=pool_backward_cases())
    def test_bincount_matches_add_at_bitwise(self, case):
        docs, g_h0, rows = case
        got = _pool_backward(docs, g_h0, rows)
        assert got.shape == (rows, g_h0.shape[1])
        assert got.tobytes() == add_at_pool_backward_table(docs, g_h0, rows).tobytes()


class TestGradients:
    def test_lambda_zero_matches_ce_only_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            params = random_model(rng)
            docs, labels = random_batch(rng)
            loss, grads = gradients(params, docs, labels, ContrastiveConfig(tau=0.1, lam=0.0), task="harm")
            ref_loss, ref = ce_only_gradients_reference(params, docs, labels)
            assert loss == pytest.approx(ref_loss, abs=1e-12)
            for name, _ in params.arrays():
                assert np.allclose(getattr(grads, name), ref[name], atol=1e-12), name

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_harm_loss_is_ce_plus_lambda_info_nce(self, lam):
        # The training loss is built from the same functions the closed-form
        # fixtures check.
        rng = np.random.default_rng(41)
        params = random_model(rng)
        docs, labels = random_batch(rng, batch=8)
        cfg = ContrastiveConfig(tau=0.1, lam=lam)
        loss, _ = gradients(params, docs, labels, cfg, task="harm")
        acts = forward_batch(params, docs)
        expected = cross_entropy(softmax(acts.class_logits), labels) + lam * info_nce(acts.z, labels, cfg.tau)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_targets_loss_is_bce(self):
        rng = np.random.default_rng(43)
        params = random_model(rng)
        docs, _ = random_batch(rng, batch=8)
        target_rows = rng.integers(0, 2, size=(8, 5))
        loss, _ = gradients(params, docs, target_rows, ContrastiveConfig(), task="targets")
        sigmas = sigmoid(forward_batch(params, docs).target_logits)
        assert loss == pytest.approx(binary_cross_entropy(sigmas, target_rows), abs=1e-12)

    def test_unused_embedding_rows_have_zero_gradient(self):
        rng = np.random.default_rng(13)
        params = random_model(rng)
        docs, labels = random_batch(rng)
        used = set()
        for doc in docs:
            used.update(int(t) for t in doc.ids)
        _, grads = gradients(params, docs, labels, ContrastiveConfig(tau=0.1, lam=1.0), task="harm")
        unused = sorted(set(range(params.embed.shape[0])) - used)
        assert unused, "fixture needs untouched rows"
        assert grads.embed.shape == params.embed.shape
        assert np.flatnonzero(grads.embed.any(axis=1)).tolist() == sorted(used)
        assert not grads.embed[unused].any()

    def test_embedding_rows_match_dense_per_document_reference(self):
        # The table equals, bit for bit, the one that one np.add.at per
        # document builds, with ids repeated within and across documents and
        # empty documents in the batch.
        rng = np.random.default_rng(31)
        for trial in range(50):
            docs = []
            for _ in range(int(rng.integers(1, 12))):
                n = int(rng.integers(0, 10))
                docs.append(EncodedDoc(ids=rng.integers(0, 24, size=n), length=n))
            g_h0 = rng.normal(0.0, 1.0, (len(docs), 5))
            dense = np.zeros((24, 5))
            for i, doc in enumerate(docs):
                if doc.length:
                    np.add.at(dense, doc.ids, g_h0[i] / doc.length)
            assert _pool_backward(docs, g_h0, 24).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("tau", [0.05, 0.1, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_finite_difference_grid(self, tau, lam):
        # Central finite differences at step 1e-4 on a small random model; one
        # (tau, lam) cell per parametrization, every parameter checked.
        rng = np.random.default_rng(int(tau * 1000) + int(lam * 10))
        params = random_model(rng, vocab_size=16, embed_dim=4, hidden_dim=4)
        docs, labels = random_batch(rng, vocab_size=16, batch=5)
        cfg = ContrastiveConfig(tau=tau, lam=lam)
        _, grads = gradients(params, docs, labels, cfg, task="harm")
        step = 1e-4
        worst = 0.0
        for name, arr in params.arrays():
            grad_arr = getattr(grads, name)
            for index in np.ndindex(arr.shape):
                keep = arr[index]
                arr[index] = keep + step
                plus, _ = gradients(params, docs, labels, cfg, task="harm")
                arr[index] = keep - step
                minus, _ = gradients(params, docs, labels, cfg, task="harm")
                arr[index] = keep
                numeric = (plus - minus) / (2 * step)
                analytic = float(grad_arr[index])
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_targets_task_finite_difference(self):
        rng = np.random.default_rng(17)
        params = random_model(rng, vocab_size=16, embed_dim=4, hidden_dim=4)
        docs, _ = random_batch(rng, vocab_size=16, batch=5)
        target_rows = rng.integers(0, 2, size=(5, 5)).astype(np.float64)
        cfg = ContrastiveConfig()
        _, grads = gradients(params, docs, target_rows, cfg, task="targets")
        step = 1e-4
        for name, arr in params.arrays():
            grad_arr = getattr(grads, name)
            for index in np.ndindex(arr.shape):
                keep = arr[index]
                arr[index] = keep + step
                plus, _ = gradients(params, docs, target_rows, cfg, task="targets")
                arr[index] = keep - step
                minus, _ = gradients(params, docs, target_rows, cfg, task="targets")
                arr[index] = keep
                numeric = (plus - minus) / (2 * step)
                analytic = float(grad_arr[index])
                assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6) < 1e-4

    def test_contrastive_needs_pairs(self):
        rng = np.random.default_rng(19)
        params = random_model(rng)
        docs, labels = random_batch(rng, batch=1)
        with pytest.raises(ValueError, match="batch size"):
            gradients(params, docs, labels[:1], ContrastiveConfig(tau=0.1, lam=0.5), task="harm")

    def test_non_finite_diagnostic(self):
        rng = np.random.default_rng(23)
        params = random_model(rng)
        params.wc[0, 0] = np.nan
        docs, labels = random_batch(rng)
        with pytest.raises(NonFiniteLossError, match="cross-entropy"):
            gradients(params, docs, labels, ContrastiveConfig(tau=0.1, lam=0.5), task="harm")

    def test_empty_doc_in_contrastive_batch(self):
        # Empty documents produce the zero representation; the batch still
        # evaluates and differentiates (degenerate rows contribute nothing).
        rng = np.random.default_rng(29)
        params = random_model(rng)
        params.b1[:] = 0.0  # forces z = 0 exactly for the empty doc
        docs, labels = random_batch(rng, batch=5)
        docs.append(EncodedDoc(ids=np.array([], dtype=np.int64), length=0))
        labels = np.concatenate([labels, [0]])
        loss, grads = gradients(params, docs, labels, ContrastiveConfig(tau=0.1, lam=0.5), task="harm")
        assert np.isfinite(loss)
        for _, arr in grads.arrays():
            assert np.isfinite(arr).all()
