"""Forward pass, prediction rules, and checkpoint format."""

import math
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmkit.corpus import NUM_CLASSES, NUM_TARGETS
from harmkit.featurizer import FeatureConfig
from harmkit.losses import normalize_rows
from harmkit.model import (
    _CHUNK_ROWS,
    _SPAN_GAP,
    ModelConfig,
    ModelParams,
    _draw_initial,
    _spans,
    forward_batch,
    forward_pooled,
    init_params,
    load_params,
    mean_pool,
    predict,
    save_params,
    sigmoid,
    softmax,
)

EMPTY = np.array([], dtype=np.int64)


def small_cfg(seed=0):
    return ModelConfig(FeatureConfig(hash_bits=8), embed_dim=8, hidden_dim=6, seed=seed)


def random_doc(rng, vocab_size, min_len=1, max_len=12):
    return rng.integers(0, vocab_size, size=int(rng.integers(min_len, max_len + 1)))


def forward_reference(params, doc):
    """Straight-line single-document reimplementation used as an oracle."""
    embed_dim = params.embed.shape[1]
    h0 = np.zeros(embed_dim)
    if doc.size:
        for t in doc:
            h0 += params.embed[int(t)]
        h0 /= doc.size
    hidden_dim = params.w1.shape[1]
    a = np.zeros(hidden_dim)
    for j in range(hidden_dim):
        a[j] = params.b1[j] + sum(h0[i] * params.w1[i, j] for i in range(embed_dim))
    z = np.tanh(a)
    norm = math.sqrt(float(sum(v * v for v in z)))
    z_hat = z / norm if norm > 0 else np.zeros_like(z)
    class_logits = np.array(
        [params.bc[c] + sum(z[j] * params.wc[j, c] for j in range(hidden_dim)) for c in range(params.bc.size)]
    )
    target_logits = np.array(
        [params.bt[t] + sum(z[j] * params.wt[j, t] for j in range(hidden_dim)) for t in range(params.bt.size)]
    )
    return z, z_hat, class_logits, target_logits


def init_params_reference(cfg):
    """Oracle for init_params: each array drawn from the seed in one piece,
    cast to float32 and back."""
    rng = np.random.default_rng(cfg.seed)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32).astype(np.float64)

    return ModelParams(
        embed=glorot(cfg.vocab_size, cfg.embed_dim), w1=glorot(cfg.embed_dim, cfg.hidden_dim),
        b1=np.zeros(cfg.hidden_dim), wc=glorot(cfg.hidden_dim, NUM_CLASSES), bc=np.zeros(NUM_CLASSES),
        wt=glorot(cfg.hidden_dim, NUM_TARGETS), bt=np.zeros(NUM_TARGETS),
    )


ROW_SETS = ["empty", "single", "ends", "boundary", "every", "some", "near-gap", "sparse"]


@st.composite
def replay_cases(draw):
    """(seed, hash_bits, embed_dim, kind of row set); the tables of 256 and
    512 rows are one partial 1024-row piece, and those of 2048 and 4096 rows
    span several pieces."""
    seed = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    return seed, draw(st.integers(8, 12)), draw(st.integers(1, 3)), draw(st.sampled_from(ROW_SETS))


def replay_rows(case):
    """The case with its kind replaced by a sorted distinct row array: no row,
    one row, the first and last rows, rows on both sides of a piece boundary,
    every row, every third row from a seeded offset, four rows from a seeded
    start with gaps of _SPAN_GAP - 1, _SPAN_GAP and _SPAN_GAP + 1 unwanted
    rows between them, or four rows a quarter of the table apart."""
    seed, hash_bits, embed_dim, kind = case
    vocab_size = 2**hash_bits
    rng = np.random.default_rng([seed, vocab_size])
    boundary = 1024 * int(rng.integers(1, vocab_size // 1024 + 1)) if vocab_size > 1024 else vocab_size // 2
    start = int(rng.integers(0, vocab_size - 3 * _SPAN_GAP - 3))
    rows = {
        "empty": [],
        "single": [int(rng.integers(0, vocab_size))],
        "ends": sorted({0, vocab_size - 1}),
        "boundary": list(range(max(boundary - 2, 0), min(boundary + 2, vocab_size))),
        "every": range(vocab_size),
        "some": range(int(rng.integers(0, 3)), vocab_size, 3),
        "near-gap": np.cumsum([start, _SPAN_GAP, _SPAN_GAP + 1, _SPAN_GAP + 2]),
        "sparse": range(int(rng.integers(0, vocab_size // 4)), vocab_size, vocab_size // 4),
    }[kind]
    return seed, hash_bits, embed_dim, np.array(rows, dtype=np.int64)


class RecordingGenerator:
    """A Generator stand-in that records the ``uniform`` sizes and the
    ``advance`` steps a replay asks of the real one."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []
        self.bit_generator = self

    def advance(self, delta):
        self.calls.append(("advance", delta))
        self.rng.bit_generator.advance(delta)

    def uniform(self, low, high, size):
        self.calls.append(("uniform", size))
        return self.rng.uniform(low, high, size)


class TestSpans:
    # The literal rows pin _SPAN_GAP at 16.
    @pytest.mark.parametrize("rows, starts, stops", [
        ([], [], []),
        ([7], [7], [8]),
        ([0, 16], [0], [17]),           # 15 unwanted rows between: one span
        ([0, 17], [0, 17], [1, 18]),    # 16: two spans
        ([0, 18], [0, 18], [1, 19]),    # 17: two spans
        ([100, 110, 126, 143, 161], [100, 143, 161], [127, 144, 162]),
        ([1020, 1021, 1023, 1024, 1030], [1020], [1031]),  # across a 1024-row boundary
        ([0, 32767], [0, 32767], [1, 32768]),              # the last row of the default table
        (list(range(0, 3000, 16)), [0], [2993]),  # 15 unwanted rows between each
    ], ids=["empty", "one", "gap-below", "gap-at", "gap-above", "mixed", "piece-boundary", "last-row", "long"])
    def test_spans_of_hand_picked_rows(self, rows, starts, stops):
        got_starts, got_stops = _spans(np.array(rows, dtype=np.int64))
        assert got_starts.tolist() == starts and got_stops.tolist() == stops

    def test_whole_table_is_one_span_drawn_in_1024_row_pieces(self):
        cfg = ModelConfig(FeatureConfig(hash_bits=12), embed_dim=3, hidden_dim=2, seed=9)
        rng = RecordingGenerator(cfg.seed)
        _draw_initial(cfg, rng, np.empty((cfg.vocab_size, 3), np.float32))
        assert rng.calls == [("advance", 0), *[("uniform", (_CHUNK_ROWS, 3))] * 4, ("advance", 0)]

    def test_rows_draw_their_spans_and_skip_the_rest(self):
        cfg = ModelConfig(FeatureConfig(hash_bits=12), embed_dim=2, hidden_dim=2, seed=9)
        rows = np.array([5, 20, 1500, *range(2040, 3100, 7), 4095])
        rng = RecordingGenerator(cfg.seed)
        _draw_initial(cfg, rng, np.empty((rows.size, 2)), rows)
        # Spans [5, 21), [1500, 1501), [2040, 3098) in pieces of at most 1024
        # rows, and [4095, 4096); every skip is in values, 2 per row.
        assert rng.calls == [
            ("advance", 10), ("uniform", (16, 2)), ("advance", 2 * 1479), ("uniform", (1, 2)),
            ("advance", 2 * 539), ("uniform", (1024, 2)), ("uniform", (34, 2)),
            ("advance", 2 * 997), ("uniform", (1, 2)), ("advance", 0),
        ]


class TestInit:
    def test_deterministic_bitwise(self):
        a = init_params(small_cfg(seed=42))
        b = init_params(small_cfg(seed=42))
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_biases_zero(self):
        params = init_params(small_cfg())
        assert not params.b1.any()
        assert not params.bc.any()
        assert not params.bt.any()

    def test_glorot_bounds_recomputed_independently(self):
        cfg = small_cfg(seed=7)
        params = init_params(cfg)
        for arr, fan_in, fan_out in [
            (params.embed, cfg.vocab_size, cfg.embed_dim),
            (params.w1, cfg.embed_dim, cfg.hidden_dim),
            (params.wc, cfg.hidden_dim, NUM_CLASSES),
            (params.wt, cfg.hidden_dim, NUM_TARGETS),
        ]:
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(arr) < bound)

    def test_different_seeds_differ(self):
        a = init_params(small_cfg(seed=1))
        b = init_params(small_cfg(seed=2))
        assert not np.array_equal(a.embed, b.embed)

    @pytest.mark.parametrize("hash_bits", [8, 9, 10, 12], ids=lambda bits: str(2**bits))
    def test_matches_one_whole_draw_bitwise(self, hash_bits):
        cfg = ModelConfig(FeatureConfig(hash_bits=hash_bits), embed_dim=8, hidden_dim=6, seed=5)
        params, expected = init_params(cfg), init_params_reference(cfg)
        assert params.rows is None
        for (name, got), (_, want) in zip(params.arrays(), expected.arrays()):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), name

    @settings(max_examples=150, deadline=None)
    @given(case=replay_cases())
    @example(case=(0, 12, 3, "empty"))
    @example(case=(2**64 - 1, 12, 3, "empty"))
    @example(case=(0, 8, 2, "every"))
    @example(case=(0, 11, 2, "single"))
    @example(case=(2**64 - 1, 9, 3, "single"))
    @example(case=(0, 12, 2, "ends"))
    @example(case=(2**64 - 1, 12, 1, "ends"))
    @example(case=(0, 12, 3, "boundary"))
    @example(case=(2**64 - 1, 11, 2, "boundary"))
    @example(case=(0, 12, 2, "every"))
    @example(case=(2**64 - 1, 11, 3, "every"))
    @example(case=(0, 8, 2, "near-gap"))
    @example(case=(2**64 - 1, 12, 3, "near-gap"))
    @example(case=(0, 12, 1, "sparse"))
    @example(case=(2**64 - 1, 9, 2, "sparse"))
    def test_row_replay_matches_one_whole_draw_bitwise(self, case):
        # init_params(cfg, rows) draws only the spans of rows and skips the
        # rows between them; it must give their rows and the small arrays of
        # one draw of everything.
        seed, hash_bits, embed_dim, rows = replay_rows(case)
        cfg = ModelConfig(FeatureConfig(hash_bits=hash_bits), embed_dim=embed_dim, hidden_dim=3, seed=seed)
        expected = init_params_reference(cfg)
        params = init_params(cfg, rows)
        assert params.rows is rows
        assert params.embed.dtype == np.float64 and params.embed.shape == (rows.size, embed_dim)
        assert params.embed.tobytes() == expected.embed[rows].tobytes()
        for (name, got), (_, want) in list(zip(params.arrays(), expected.arrays()))[1:]:
            assert got.tobytes() == want.tobytes(), name

    def test_rows_must_be_sorted_distinct_ids_in_the_table(self):
        for rows in ([3, 2], [2, 2], [-1, 4], [0, 256]):
            with pytest.raises(ValueError, match="rows must be sorted distinct ids below vocab_size 256"):
                init_params(small_cfg(), np.array(rows))

    def test_peak_memory_is_one_table(self):
        tracemalloc.start()
        try:
            params = init_params(ModelConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * params.embed.nbytes


class TestForward:
    def test_empty_doc_zero_propagation(self):
        acts = forward_batch(init_params(small_cfg()), [EMPTY])
        assert acts.z.shape == (1, 6)
        for arr in (acts.h0, acts.z, *normalize_rows(acts.z), acts.class_logits, acts.target_logits):
            assert not arr.any()

    def test_repeated_token_mean_pooling(self):
        params = init_params(small_cfg(seed=3))
        docs = [np.array([17] * k) for k in (1, 2, 5)]
        class_logits = forward_batch(params, docs).class_logits
        assert np.allclose(class_logits[0], class_logits[1], atol=0)
        assert np.allclose(class_logits[0], class_logits[2], atol=0)

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(19)
        cfg = small_cfg()
        for trial in range(20):
            params = init_params(small_cfg(seed=trial))
            for name, arr in params.arrays():
                arr += rng.normal(0, 0.3, arr.shape)
            docs = [random_doc(rng, cfg.vocab_size) for _ in range(3)] + [EMPTY]
            acts = forward_batch(params, docs)
            z_hat = normalize_rows(acts.z)[0]
            for i, doc in enumerate(docs):
                z_ref, z_hat_ref, cls_ref, tgt_ref = forward_reference(params, doc)
                assert np.allclose(acts.z[i], z_ref, atol=1e-12)
                assert np.allclose(z_hat[i], z_hat_ref, atol=1e-12)
                assert np.allclose(acts.class_logits[i], cls_ref, atol=1e-12)
                assert np.allclose(acts.target_logits[i], tgt_ref, atol=1e-12)

    def test_out_of_range_id(self):
        params = init_params(small_cfg())
        vocab_size = params.embed.shape[0]
        for ids in ([9999], [vocab_size], [-1], [3, -2, 5], [np.iinfo(np.int64).min]):
            doc = np.array(ids, dtype=np.int64)
            with pytest.raises(ValueError, match="out of range"):
                forward_batch(params, [doc])
        forward_batch(params, [np.array([0, vocab_size - 1])])

    def test_z_hat_unit_norm_property(self):
        rng = np.random.default_rng(23)
        cfg = small_cfg(seed=2)
        params = init_params(cfg)
        docs = [random_doc(rng, cfg.vocab_size) for _ in range(200)]
        z_hat, z_norm = normalize_rows(forward_batch(params, docs).z)
        norms = np.linalg.norm(z_hat, axis=1)
        nonzero = z_norm > 0
        assert np.allclose(norms[nonzero], 1.0, atol=1e-6)

    def test_float32_table_pools_like_its_float64_copy(self, tmp_path):
        # A loaded table is float32; training's is float64. Every length
        # 0..max_tokens, plus one document far longer, must pool to the same
        # bits, and so give the same activations.
        fcfg = FeatureConfig(hash_bits=10)
        cfg = ModelConfig(fcfg, seed=4)
        path = tmp_path / "m.hpc"
        save_params(init_params(cfg), cfg, path)
        loaded, _ = load_params(path)
        as64 = ModelParams(**{name: arr.astype(np.float64) for name, arr in loaded.arrays()})
        rng = np.random.default_rng(8)
        lengths = [*range(fcfg.max_tokens + 1), 50_000]
        docs = [rng.integers(0, cfg.vocab_size, n) for n in lengths]
        assert loaded.embed.dtype == np.float32
        assert np.array_equal(mean_pool(loaded, docs), mean_pool(as64, docs))
        got, want = forward_batch(loaded, docs[-40:]), forward_batch(as64, docs[-40:])
        for name in ("h0", "z", "class_logits", "target_logits"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_forward_batch_is_mean_pool_then_heads(self):
        rng = np.random.default_rng(31)
        params = init_params(small_cfg(seed=5))
        docs = [random_doc(rng, 256) for _ in range(9)] + [EMPTY]
        h0 = mean_pool(params, docs)
        assert np.array_equal(forward_batch(params, docs).h0, h0)
        assert mean_pool(params, []).shape == (0, params.embed.shape[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mean_pool_is_each_rows_mean_bit_for_bit(self, dtype):
        rng = np.random.default_rng(41)
        params = init_params(ModelConfig(FeatureConfig(hash_bits=9), embed_dim=24, hidden_dim=4))
        for scale in (1e-3, 1.0, 1e3):
            params.embed = rng.normal(0, scale, params.embed.shape).astype(dtype)
            docs = [rng.integers(0, 512, n) for n in (0, 1, 2, 3, 17, 250, 513)]
            want = [params.embed.take(doc, axis=0).astype(np.float64).mean(axis=0) if doc.size
                    else np.zeros(24) for doc in docs]
            assert np.array_equal(mean_pool(params, docs), np.array(want))

    def test_forward_pooled_peak_is_about_one_hidden_array(self):
        # The tanh layer runs in place: one (N, hidden_dim) array, not the
        # three of ``np.tanh(h0 @ w1 + b1)``, and the same bits.
        cfg = ModelConfig(FeatureConfig(hash_bits=8))
        params = init_params(cfg)
        h0 = np.random.default_rng(37).normal(0, 0.5, (10_000, cfg.embed_dim))
        tracemalloc.start()
        try:
            acts = forward_pooled(params, h0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * h0.shape[0] * cfg.hidden_dim * 8
        assert np.array_equal(acts.z, np.tanh(h0 @ params.w1 + params.b1))

def normalize_rows_oracle(x):
    """normalize_rows through a masked copy and its quotient: the oracle for
    the divide into a zeroed output."""
    norms = np.linalg.norm(x, axis=1)
    out = np.zeros_like(x)
    nonzero = norms > 0.0
    out[nonzero] = x[nonzero] / norms[nonzero, None]
    return out, norms


@st.composite
def row_blocks(draw):
    """0-40 rows of 1-8 columns, some of them zero rows of either sign."""
    n, dim = draw(st.integers(0, 40)), draw(st.integers(1, 8))
    value = st.floats(-1e150, 1e150, allow_nan=False, width=64)
    zero_row = st.sampled_from([[0.0] * dim, [-0.0] * dim])
    rows = draw(st.lists(st.one_of(zero_row, st.lists(value, min_size=dim, max_size=dim)), min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64).reshape(n, dim)


class TestNormalizeRows:
    @settings(max_examples=400, deadline=None)
    @given(x=row_blocks())
    @example(x=np.zeros((0, 4)))
    @example(x=np.array([[3.0, -4.0]]))
    @example(x=np.array([[0.0, -0.0], [1e-300, 0.0], [5.0, 12.0]]))
    def test_matches_masked_copy_oracle_bitwise(self, x):
        got, norms = normalize_rows(x)
        want, want_norms = normalize_rows_oracle(x)
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes() and norms.tobytes() == want_norms.tobytes()


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_closed_form(self):
        p = softmax(np.array([np.log(2.0), 0.0]))
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            logits = rng.normal(0, 10, size=4)
            p = softmax(logits)
            assert abs(p.sum() - 1.0) < 1e-6
            perm = rng.permutation(4)
            assert np.allclose(softmax(logits[perm]), p[perm], atol=1e-12)


class TestSigmoid:
    def test_extremes_stable(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def harm_label(params, doc):
    return int(predict(forward_batch(params, [doc]), "harm")[1][0])


class TestPredict:
    def test_argmax(self):
        params = init_params(small_cfg())
        params.bc[:] = [0.1, 2.0, 0.3, 0.0]
        assert harm_label(params, EMPTY) == 1

    def test_tie_break_smallest(self):
        params = init_params(small_cfg())  # all logits of the empty doc are zero
        assert harm_label(params, EMPTY) == 0

    def test_shift_invariance(self):
        params = init_params(small_cfg(seed=4))
        doc = np.array([3, 4, 5])
        before = harm_label(params, doc)
        params.bc += 123.0
        assert harm_label(params, doc) == before

    def test_matches_forward_argmax(self):
        # Scores are the softmax of the forward pass's class logits and
        # decisions their argmax, row for row.
        rng = np.random.default_rng(31)
        cfg = small_cfg(seed=6)
        params = init_params(cfg)
        for name, arr in params.arrays():
            arr += rng.normal(0, 0.5, arr.shape)
        acts = forward_batch(params, [random_doc(rng, cfg.vocab_size) for _ in range(100)])
        probs, labels = predict(acts, "harm")
        assert np.array_equal(probs, softmax(acts.class_logits))
        assert np.array_equal(labels, np.argmax(acts.class_logits, axis=1))

    def test_unknown_task(self):
        acts = forward_batch(init_params(small_cfg()), [EMPTY])
        with pytest.raises(ValueError, match="unknown task 'both'"):
            predict(acts, "both")


class TestPredictMultilabel:
    def sigma_acts(self, *rows):
        # Target logits whose sigmoids are the requested rows (logit = bt
        # for an empty document, one document per row).
        params = init_params(small_cfg())
        acts = forward_batch(params, [EMPTY] * len(rows))
        sig = np.asarray(rows, dtype=np.float64)
        acts.target_logits = np.log(sig / (1.0 - sig))
        return acts

    def flags(self, *rows, eta=0.5):
        return predict(self.sigma_acts(*rows), "targets", eta)[1].tolist()

    def test_threshold_rule(self):
        assert self.flags([0.6, 0.5, 0.49, 0.7, 0.1]) == [[1, 1, 0, 1, 0]]

    def test_row_below_eta_flags_nothing(self):
        # Gold target sets may be empty, so a prediction may be too.
        assert self.flags([0.6, 0.1, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.45, 0.2]) == [
            [1, 0, 0, 0, 0], [0, 0, 0, 0, 0]]

    def test_saturation_all_selected(self):
        assert self.flags([0.99, 0.99, 0.99, 0.99, 0.99]) == [[1, 1, 1, 1, 1]]

    def test_scores_are_sigmoids(self):
        acts = self.sigma_acts([0.6, 0.5, 0.49, 0.7, 0.1])
        assert np.array_equal(predict(acts, "targets")[0], sigmoid(acts.target_logits))

    def test_eta_validation(self):
        acts = self.sigma_acts([0.5] * 5)
        for eta in (0.0, 1.0, 1.5, -3.0, float("nan"), float("inf")):
            for task in ("harm", "targets"):
                with pytest.raises(ValueError, match="eta must be in"):
                    predict(acts, task, eta)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=6, seed=12)
        params = init_params(cfg)
        path = tmp_path / "model.hpc"
        save_params(params, cfg, path)
        loaded, loaded_cfg = load_params(path)
        assert loaded_cfg == cfg
        for (_, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)

    def test_double_round_trip_stable(self, tmp_path):
        # Arbitrary float64 params quantize once on the first save and are
        # exact thereafter.
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=6, seed=1)
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        params.w1 += rng.normal(0, 1e-9, params.w1.shape)  # break f32 alignment
        p1 = tmp_path / "a.hpc"
        p2 = tmp_path / "b.hpc"
        save_params(params, cfg, p1)
        loaded1, _ = load_params(p1)
        save_params(loaded1, cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.hpc"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_params(path)

    def test_unsupported_version(self, tmp_path):
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        path = tmp_path / "other.hpc"
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        for version in (1, 3):
            blob[4] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(ValueError, match=f"{path}: unsupported checkpoint version {version}, expected 2"):
                load_params(path)

    @pytest.mark.parametrize("field, value, counts", [(6, 6, "6 classes, 5 targets"), (7, 4, "4 classes, 4 targets")])
    def test_header_shape_counts_fixed(self, tmp_path, field, value, counts):
        # Header slots 6 and 7 hold the class and target counts, which the
        # corpus format fixes at 4 and 5.
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        path = tmp_path / "shape.hpc"
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 9 + 4 * field, value)
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {counts}; expected 4, 5")):
            load_params(path)

    @pytest.mark.parametrize("field, value, message", [
        (1, 30, "hash_bits must be in 8..22, got 30"),
        (0, 0, "max_tokens must be >= 1, got 0"),
        (4, 0, "embed_dim must be >= 1, got 0"),
        (2, 3, "ngram must be 1 or 2, got 3"),
        (3, 512, "header vocab_size 512 inconsistent with hash_bits"),
    ])
    def test_bad_header_field_names_the_file(self, tmp_path, field, value, message):
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        path = tmp_path / "field.hpc"
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 9 + 4 * field, value)
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_params(path)

    def test_largest_header_dims_give_the_exact_expected_size(self, tmp_path):
        # embed_dim * hidden_dim = (2**32 - 1)**2 overflows an int64 product.
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        path = tmp_path / "huge.hpc"
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        dim = 2**32 - 1
        struct.pack_into("<2I", blob, 9 + 4 * 4, dim, dim)
        path.write_bytes(bytes(blob))
        # The saved initial table stores no rows: the file is the header, a
        # row count of 0, the small arrays and the CRC.
        floats = dim * dim + dim + dim * 4 + 4 + dim * 5 + 5
        expected = 49 + 4 + 4 * floats + 4
        with pytest.raises(ValueError, match=re.escape(f"{path}: file is {len(blob)} bytes, expected {expected} ")):
            load_params(path)

    def test_embed_loads_as_a_writable_c_contiguous_float32_array(self, tmp_path):
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=3)
        params = init_params(cfg)
        params.embed[[5, 200]] += 0.25
        path = tmp_path / "m.hpc"
        save_params(params, cfg, path)
        loaded, _ = load_params(path)
        assert loaded.embed.dtype == np.float32 and loaded.rows is None
        assert loaded.embed.flags.writeable and loaded.embed.flags.c_contiguous
        assert all(arr.dtype == np.float64 for name, arr in loaded.arrays() if name != "embed")
        assert np.array_equal(loaded.embed, params.embed.astype(np.float32))

    def test_load_peak_memory_is_one_table_and_a_block(self, tmp_path):
        # Every row differs from the initial table, so the file holds the
        # whole table too; a load that held the file beside the table would
        # peak at two tables.
        fcfg = FeatureConfig()
        cfg = ModelConfig(fcfg)
        params = init_params(cfg)
        params.embed += 0.5
        path = tmp_path / "m.hpc"
        save_params(params, cfg, path)
        assert path.stat().st_size > cfg.vocab_size * cfg.embed_dim * 4
        del params
        tracemalloc.start()
        try:
            loaded, _ = load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < loaded.embed.nbytes + 2**20

    def test_truncated_file(self, tmp_path):
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        path = tmp_path / "cut.hpc"
        save_params(init_params(cfg), cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated|bytes"):
            load_params(path)

    def test_crc_corruption(self, tmp_path):
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        path = tmp_path / "flip.hpc"
        save_params(init_params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="CRC"):
            load_params(path)

    @pytest.mark.parametrize("name, bad", [("embed", np.nan), ("w1", np.inf), ("bt", -np.inf)])
    def test_non_finite_values_rejected(self, tmp_path, name, bad):
        # The CRC covers the bytes, so it passes a checkpoint saved with NaN parameters.
        fcfg = FeatureConfig(hash_bits=8)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4, seed=0)
        params = init_params(cfg)
        getattr(params, name).flat[-1] = bad
        path = tmp_path / "nan.hpc"
        save_params(params, cfg, path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite values in {name}")):
            load_params(path)

    @pytest.mark.parametrize("name", ModelParams.FIELDS[1:])
    def test_signalling_nan_is_named_without_a_warning(self, tmp_path, name):
        # Widening a float32 signalling NaN to float64 warns "invalid value
        # encountered in cast", so an array that fails the check is not cast.
        cfg = ModelConfig(FeatureConfig(hash_bits=8), embed_dim=4, hidden_dim=4, seed=0)
        params = init_params(cfg)
        path = tmp_path / "snan.hpc"
        save_params(params, cfg, path)
        blob = bytearray(path.read_bytes())
        # The initial table stores no rows, so the small arrays start at byte 53.
        before = ModelParams.FIELDS[1 : ModelParams.FIELDS.index(name)]
        at = 53 + 4 * sum(getattr(params, field).size for field in before)
        struct.pack_into("<I", blob, at, 0x7F800001)
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite values in {name}")):
                load_params(path)

    def test_shapes_come_from_header(self, tmp_path):
        # Two checkpoints with different geometry load back with their own shapes.
        for bits, embed, hidden in [(8, 4, 6), (9, 10, 3)]:
            fcfg = FeatureConfig(hash_bits=bits)
            cfg = ModelConfig(fcfg, embed_dim=embed, hidden_dim=hidden, seed=bits)
            path = tmp_path / f"m{bits}.hpc"
            save_params(init_params(cfg), cfg, path)
            loaded, loaded_cfg = load_params(path)
            assert loaded_cfg.embed_dim == embed
            assert loaded.embed.shape == (1 << bits, embed)
            assert loaded.w1.shape == (embed, hidden)

    def test_format_layout_documented(self, tmp_path):
        # The byte layout of the module docstring: magic, version, header
        # length, header, row count, the changed rows' ids and values, the
        # small arrays, the CRC of everything before it.
        fcfg = FeatureConfig(hash_bits=8, max_tokens=20)
        cfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=3, seed=77)
        params = init_params(cfg)
        params.embed[[200, 7]] += 0.5
        params.embed[9] = params.embed[9]  # the same bits: not a changed row
        path = tmp_path / "layout.hpc"
        save_params(params, cfg, path)
        blob = path.read_bytes()
        assert blob[:4] == b"HPC1"
        assert blob[4] == 2
        (header_len,) = struct.unpack_from("<I", blob, 5)
        assert header_len == 40
        assert struct.unpack_from("<8IQ", blob, 9) == (20, 8, 1, 256, 4, 3, 4, 5, 77)
        (count,) = struct.unpack_from("<I", blob, 49)
        assert count == 2
        assert np.frombuffer(blob, "<u4", 2, 53).tolist() == [7, 200]
        offset = 61
        want = [params.embed[[7, 200]], params.w1, params.b1, params.wc, params.bc, params.wt, params.bt]
        for arr in want:
            assert blob[offset : offset + arr.size * 4] == arr.astype("<f4").tobytes()
            offset += arr.size * 4
        assert offset == len(blob) - 4
        (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
        assert stored_crc == zlib.crc32(blob[:-4])
