"""Batching, optimizer updates, the training loop, and the gradient checker."""

import contextlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmkit import cli, losses, trainer
from harmkit.corpus import LabeledExample, split_train_val
from harmkit.featurizer import FeatureConfig, batch_encode
from harmkit.losses import ContrastiveConfig
from harmkit.model import ModelConfig, ModelParams, init_params, load_params, save_params
from harmkit.synth import generate_corpus
from harmkit.trainer import (
    AdamOptimizer,
    GradCheckReport,
    SgdOptimizer,
    TrainConfig,
    _extract_labels,
    _make_optimizer,
    evaluate_params,
    grad_check,
    make_batches,
    train,
    train_epoch,
)
from test_losses import add_at_pool_backward_table


class QuadraticStub:
    """One-parameter stand-ins for params/grads, reusing the optimizer protocol."""

    FIELDS = ("p",)

    def __init__(self, value):
        self.p = np.array([value])

    def arrays(self):
        return [("p", self.p)]


def make_batches_oracle(data, batch_size, seed, epoch, drop_singleton=False):
    """The list-of-items batching that index batches replaced, kept as their oracle."""
    order = np.random.default_rng([seed, epoch]).permutation(len(data))
    batches = [[data[i] for i in order[start : start + batch_size]] for start in range(0, len(data), batch_size)]
    if drop_singleton and batches and len(batches[-1]) < 2:
        batches.pop()
    return batches


class TestMakeBatches:
    def test_partition_sizes(self):
        batches = make_batches(10, 4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_every_example_once(self):
        batches = make_batches(23, 5, seed=1, epoch=3)
        assert sorted(np.concatenate(batches).tolist()) == list(range(23))

    def test_deterministic(self):
        a = make_batches(20, 6, seed=9, epoch=2)
        b = make_batches(20, 6, seed=9, epoch=2)
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_epochs_permute_differently(self):
        a = make_batches(50, 50, seed=4, epoch=0)[0]
        b = make_batches(50, 50, seed=4, epoch=1)[0]
        assert not np.array_equal(a, b)

    def test_drop_singleton_tail(self):
        batches = make_batches(9, 4, seed=0, epoch=0, drop_singleton=True)
        assert [len(b) for b in batches] == [4, 4]
        kept = make_batches(10, 4, seed=0, epoch=0, drop_singleton=True)
        assert [len(b) for b in kept] == [4, 4, 2]

    @pytest.mark.parametrize("drop_singleton", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 70), batch_size=st.integers(1, 33), seed=st.integers(0, 2**64 - 1),
           epoch=st.integers(0, 50))
    def test_index_batches_select_the_oracle_batches(self, n, batch_size, seed, epoch, drop_singleton):
        data = [f"doc{i}" for i in range(n)]
        got = [[data[i] for i in b] for b in make_batches(n, batch_size, seed, epoch, drop_singleton)]
        assert got == make_batches_oracle(data, batch_size, seed, epoch, drop_singleton)


class TestExtractLabels:
    def test_one_array_per_split(self):
        examples = [LabeledExample(id="a", text="x", harm=2, targets=(1, 0, 0, 1, 0)),
                    LabeledExample(id="b", text="y", harm=0, targets=(0, 0, 1, 0, 0))]
        harm = _extract_labels(examples, "harm")
        assert harm.dtype == np.int64 and harm.tolist() == [2, 0]
        targets = _extract_labels(examples, "targets")
        assert targets.dtype == np.float64 and targets.tolist() == [[1, 0, 0, 1, 0], [0, 0, 1, 0, 0]]

    @pytest.mark.parametrize("task, noun", [("harm", "harm label"), ("targets", "target flags")])
    def test_missing_label_names_the_first_example(self, task, noun):
        examples = [LabeledExample(id="a", text="x", harm=1, targets=(0, 0, 0, 0, 1)),
                    LabeledExample(id="b", text="y"), LabeledExample(id="c", text="z")]
        with pytest.raises(ValueError, match=f"example 'b' lacks the {noun} required for training"):
            _extract_labels(examples, task)


class TestOptimizers:
    def test_sgd_exact_update_rule(self):
        params = QuadraticStub(3.0)
        grads = QuadraticStub(2 * 3.0)  # d(p^2)/dp at p=3
        SgdOptimizer(learning_rate=0.1).step(params, grads)
        assert params.p[0] == pytest.approx(3.0 - 0.1 * 6.0, abs=0)

    def test_adam_first_step_magnitude(self):
        # Bias correction makes the first Adam step lr * g/(|g| + eps').
        params = QuadraticStub(1.0)
        grads = QuadraticStub(4.0)
        AdamOptimizer(learning_rate=0.05).step(params, grads)
        assert params.p[0] == pytest.approx(1.0 - 0.05, rel=1e-6)

    def test_adam_deterministic(self):
        runs = []
        for _ in range(2):
            params = QuadraticStub(0.7)
            opt = AdamOptimizer(learning_rate=0.01)
            for step in range(5):
                opt.step(params, QuadraticStub(2 * params.p[0]))
            runs.append(params.p[0])
        assert runs[0] == runs[1]


class DenseSgdReference:
    """The dense SGD step over every parameter row: an oracle for SgdOptimizer."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, params, dense_grads):
        for name, arr in params.arrays():
            arr -= self.learning_rate * dense_grads[name]


class DenseAdamReference:
    """The dense Adam step over every parameter row: an oracle for AdamOptimizer."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {}
        self._v = {}

    def step(self, params, dense_grads):
        self.t += 1
        for name, arr in params.arrays():
            g = dense_grads[name]
            m = self._m.setdefault(name, np.zeros_like(arr))
            v = self._v.setdefault(name, np.zeros_like(arr))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            arr -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


@st.composite
def adam_runs(draw):
    """(seed, learning rate, rows, embed_dim, hidden_dim, steps, harm): the
    shapes of a ModelParams and how many steps to take. Under harm, every
    wt and bt gradient is zero, as the harm task's loss gives."""
    return (draw(st.integers(0, 2**32)), draw(st.sampled_from([0.05, 1e-3, 0.5])), draw(st.integers(0, 12)),
            draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(20, 30)), draw(st.booleans()))


class TestFusedAdam:
    @settings(max_examples=60, deadline=None)
    @given(run=adam_runs())
    @example(run=(0, 0.05, 0, 1, 1, 20, True))
    @example(run=(1, 0.05, 12, 6, 6, 30, False))
    def test_matches_the_per_array_reference_bitwise(self, run):
        seed, learning_rate, rows, embed_dim, hidden_dim, steps, harm = run
        rng = np.random.default_rng(seed)
        shapes = {"embed": (rows, embed_dim), "w1": (embed_dim, hidden_dim), "b1": (hidden_dim,),
                  "wc": (hidden_dim, 4), "bc": (4,), "wt": (hidden_dim, 5), "bt": (5,)}
        params = ModelParams(**{name: rng.normal(0.0, 0.5, shape) for name, shape in shapes.items()})
        expected, initial = params.copy(), params.copy()
        never = rng.random(rows) < 0.3  # rows no gradient reaches
        fused, reference = AdamOptimizer(learning_rate), DenseAdamReference(learning_rate)
        for _ in range(steps):
            # Gradients of mixed scales, a few whole rows zero in this step only.
            grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-8, 3), shape) for name, shape in shapes.items()}
            grads["embed"][never | (rng.random(rows) < 0.2)] = 0.0
            if harm:
                grads["wt"][:] = grads["bt"][:] = 0.0
            fused.step(params, ModelParams(**grads))
            reference.step(expected, grads)
        for (name, got), (_, want) in zip(params.arrays(), expected.arrays()):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
        # A row or an array whose gradient was always zero keeps its bits.
        assert params.embed[never].tobytes() == initial.embed[never].tobytes()
        if harm:
            assert params.wt.tobytes() == initial.wt.tobytes() and params.bt.tobytes() == initial.bt.tobytes()

    @pytest.mark.parametrize("owner", ["params", "grads"])
    @pytest.mark.parametrize("name", ModelParams.FIELDS)
    def test_refuses_a_float32_array_naming_it(self, owner, name):
        params = init_params(ModelConfig(FeatureConfig(hash_bits=8), embed_dim=4, hidden_dim=3))
        grads = params.copy()
        target = params if owner == "params" else grads
        setattr(target, name, getattr(target, name).astype(np.float32))
        before = [arr.copy() for _, arr in params.arrays()]
        optimizer = AdamOptimizer(0.05)
        with pytest.raises(ValueError, match=f"^AdamOptimizer steps float64 arrays only; {owner}.{name} is float32$"):
            optimizer.step(params, grads)
        assert optimizer.t == 0
        assert all(arr.tobytes() == old.tobytes() for (_, arr), old in zip(params.arrays(), before))


def full_table_reference(train_set, val_set, mcfg, tcfg):
    """train over the whole embedding table, with DenseSgdReference or
    DenseAdamReference and the np.add.at pool backward: an oracle for the
    compact table, the dense optimizers and the bincount backward of train.
    Returns the best epoch's params and the report's series."""
    task = tcfg.task
    items = list(zip(batch_encode([ex.text for ex in train_set], mcfg.features), _extract_labels(train_set, task)))
    label_dtype = np.int64 if task == "harm" else np.float64
    val_docs = batch_encode([ex.text for ex in val_set], mcfg.features)
    val_labels = _extract_labels(val_set, task)
    params = init_params(mcfg)
    optimizer = (DenseAdamReference if tcfg.optimizer == "adam" else DenseSgdReference)(tcfg.learning_rate)
    contrastive_on = task == "harm" and tcfg.contrastive.lam > 0.0
    loss_series, f1_series, best_f1, best = [], [], -1.0, None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_pool_backward", add_at_pool_backward_table)
        for epoch in range(tcfg.epochs):
            batch_losses = []
            for batch in make_batches_oracle(items, tcfg.batch_size, mcfg.seed, epoch, drop_singleton=contrastive_on):
                labels = np.asarray([label for _, label in batch], dtype=label_dtype)
                loss, grads = losses.gradients(params, [doc for doc, _ in batch], labels, tcfg.contrastive, task=task)
                optimizer.step(params, {name: getattr(grads, name) for name in params.FIELDS})
                batch_losses.append(loss)
            loss_series.append(float(np.mean(batch_losses)))
            f1_series.append(evaluate_params(params, val_docs, val_labels, task))
            if f1_series[-1] > best_f1:
                best_f1, best = f1_series[-1], params.copy()
    return best, loss_series, f1_series


def oracle_split():
    """A small corpus with both labels, plus an empty document in train and
    in val, and val documents whose tokens no train document has."""
    data = generate_corpus(classes=4, docs_per_class=16, overlap=0.4, seed=12)
    split = split_train_val(data, seed=3, stratify=True)
    empty = LabeledExample(id="empty", text="", harm=0, targets=(0, 0, 0, 0, 0))
    val_only = [LabeledExample(id=f"v{i}", text=f"valonly{i} qq{i} zz", harm=i % 4, targets=(1, 0, 1, 0, 0))
                for i in range(3)]
    return [*split.train, empty], [*split.val, *val_only, empty]


class TestFullTableOracle:
    @pytest.mark.parametrize("task", ["harm", "targets"])
    @pytest.mark.parametrize("optimizer, learning_rate", [("sgd", 0.5), ("adam", 0.05)], ids=["sgd", "adam"])
    def test_train_matches_full_table_reference(self, tmp_path, optimizer, learning_rate, task):
        train_set, val_set = oracle_split()
        fcfg = FeatureConfig(hash_bits=9, max_tokens=24)
        mcfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=11)
        lam = 0.5 if task == "harm" else 0.0
        tcfg = TrainConfig(epochs=5, batch_size=8, learning_rate=learning_rate, optimizer=optimizer,
                           contrastive=ContrastiveConfig(lam=lam), task=task)
        train_ids = {int(t) for doc in batch_encode([ex.text for ex in train_set], fcfg) for t in doc}
        val_ids = {int(t) for doc in batch_encode([ex.text for ex in val_set], fcfg) for t in doc}
        assert val_ids - train_ids, "fixture needs val-only rows"

        params, report = train(train_set, val_set, mcfg, tcfg, checkpoint_path=tmp_path / "got.hpc")
        best, loss_series, f1_series = full_table_reference(train_set, val_set, mcfg, tcfg)
        assert report.train_loss == loss_series
        assert report.val_f1 == f1_series
        assert report.best_val_f1 == max(f1_series) and report.best_epoch == f1_series.index(max(f1_series))
        assert 0 < report.best_epoch < tcfg.epochs - 1  # the snapshot is restored
        # train returns the rows its documents reach, as the float32 values
        # its checkpoint stores.
        docs = batch_encode([ex.text for ex in [*train_set, *val_set]], fcfg)
        assert np.array_equal(params.rows, np.unique(np.concatenate(docs)))
        for name, arr in params.arrays():
            want = getattr(best, name)
            want = want[params.rows].astype(np.float32) if name == "embed" else want.astype(np.float64)
            assert arr.dtype == want.dtype and arr.shape == want.shape, name
            assert arr.tobytes() == want.tobytes(), name
        save_params(best, mcfg, tmp_path / "want.hpc")
        assert (tmp_path / "got.hpc").read_bytes() == (tmp_path / "want.hpc").read_bytes()


F32_MAX = float(np.finfo(np.float32).max)


def f32_tie(bits):
    """The float64 midpoint between the finite float32 of ``bits`` and the
    next float32 up: a tie, which rounds to the one with an even mantissa."""
    low = np.array([bits], np.uint32).view(np.float32)[0]
    return (float(low) + float(np.nextafter(low, np.float32(np.inf)))) / 2


# Every kind of float64 a written-back row may hold: any finite value, ties
# between float32s, float32 subnormals and the values below them, and
# magnitudes beyond float32's maximum, of either sign.
WRITE_BACK_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(0, 0x7F7FFFFE).map(f32_tie),
    st.floats(-(2.0**-125), 2.0**-125, width=64),
    st.floats(F32_MAX, 1e308),
).flatmap(lambda x: st.sampled_from([x, -x]))


def f32_bits_reference(x):
    """IEEE round-to-nearest-even to float32 through struct; an overflow
    becomes an infinity of the value's sign."""
    try:
        return struct.pack("<f", x)
    except OverflowError:
        return struct.pack("<f", math.copysign(math.inf, x))


@st.composite
def written_back_rows(draw):
    """Sorted distinct row indices into a 10-row table, and float64 rows of
    WRITE_BACK_VALUES for them."""
    n_rows, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = sorted(draw(st.sets(st.integers(0, 9), min_size=n_rows, max_size=n_rows)))
    values = draw(st.lists(st.lists(WRITE_BACK_VALUES, min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows))
    return np.array(rows), np.array(values, dtype=np.float64)


# Half an ulp above float32's maximum is a tie that rounds to inf, and just
# below it rounds to the maximum; the smallest subnormal, half of it (a tie
# that rounds to 0) and just above that half (which rounds up).
_HALF_ULP_ABOVE_MAX, _TINY = F32_MAX + 2.0**103, 2.0**-149
F32_BOUNDARIES = (np.array([2]), np.array([[_HALF_ULP_ABOVE_MAX, np.nextafter(_HALF_ULP_ABOVE_MAX, 0.0),
                                            -_HALF_ULP_ABOVE_MAX, _TINY, _TINY / 2, np.nextafter(_TINY / 2, 1.0)]]))


class TestWriteBackRounding:
    """float64 rows reach the float32 checkpoint through ``astype``
    (``train``'s best rows, ``save_params``' float64 arrays), which must
    round to nearest even as IEEE does; assignment into a float32 array must
    round alike, so that a float32 table holds what its checkpoint would."""

    @settings(max_examples=300, deadline=None)
    @given(case=written_back_rows())
    @example(case=F32_BOUNDARIES)
    def test_assignment_rounds_as_astype(self, case):
        rows, values = case
        table = np.zeros((10, values.shape[1]), np.float32)
        with np.errstate(over="ignore"):
            table[rows] = values
            want = values.astype("<f4")
        assert table[rows].tobytes() == want.tobytes()
        assert table[rows].tobytes() == b"".join(f32_bits_reference(x) for x in values.ravel().tolist())
        assert not np.delete(table, rows, axis=0).any()

    def test_a_row_beyond_float32_max_becomes_inf_and_its_checkpoint_is_refused(self, tmp_path):
        fcfg = FeatureConfig(hash_bits=8)
        mcfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=4)
        params = init_params(mcfg)
        params.embed = params.embed.astype(np.float32)
        with np.errstate(over="ignore"):
            params.embed[[3, 7]] = np.array([[1e39, -1e39, 1.0, 0.0], [0.5, 2.0, 3e300, -3.0]])
        assert np.isinf(params.embed).sum() == 3
        save_params(params, mcfg, tmp_path / "m.hpc")
        with pytest.raises(ValueError, match="non-finite values in embed"):
            load_params(tmp_path / "m.hpc")


def keyword_corpus(n_per_class=40, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for c in range(classes):
        for i in range(n_per_class):
            words = [f"k{c}{int(w)}" for w in rng.integers(0, 5, size=8)]
            examples.append(LabeledExample(id=f"{c}-{i}", text=" ".join(words), harm=c))
    return examples


def encoded_for(examples, fcfg, task="harm"):
    return batch_encode([ex.text for ex in examples], fcfg), _extract_labels(examples, task)


def reference_train(train_set, val_set, mcfg, tcfg, checkpoint_path):
    """train's harm loop over the full table with a full params.copy() of the
    best epoch: an oracle for the compact snapshot and write-back of train."""
    docs, labels = encoded_for(train_set, mcfg.features)
    val_docs, val_labels = encoded_for(val_set, mcfg.features)
    params = init_params(mcfg)
    optimizer = _make_optimizer(tcfg)
    best_f1, best_params = -1.0, None
    for epoch in range(tcfg.epochs):
        batches = make_batches(len(docs), tcfg.batch_size, mcfg.seed, epoch, drop_singleton=tcfg.contrastive.lam > 0.0)
        train_epoch(params, docs, labels, batches, tcfg, optimizer)
        f1 = evaluate_params(params, val_docs, val_labels, "harm")
        if f1 > best_f1:
            best_f1, best_params = f1, params.copy()
    save_params(best_params, mcfg, checkpoint_path)
    return best_params


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_params(self):
        # SGD with an (effectively) zero step: loss reported equals the loss
        # of the initial parameters and the parameters do not move.
        fcfg = FeatureConfig(hash_bits=8, max_tokens=32)
        docs, labels = encoded_for(keyword_corpus(), fcfg)
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-300, optimizer="sgd",
                          contrastive=ContrastiveConfig(lam=0.0))
        params = init_params(ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=0))
        before = {name: arr.copy() for name, arr in params.arrays()}
        batches = make_batches(len(docs), 16, 0, 0)
        loss = train_epoch(params, docs, labels, batches, cfg, SgdOptimizer(0.0))
        for name, arr in params.arrays():
            assert np.array_equal(arr, before[name])
        loss_again = train_epoch(params, docs, labels, batches, cfg, SgdOptimizer(0.0))
        assert loss == loss_again

    def test_epoch_loss_decreases_on_separable_corpus(self):
        fcfg = FeatureConfig(hash_bits=8, max_tokens=32)
        docs, labels = encoded_for(keyword_corpus(), fcfg)
        cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=0.05, optimizer="adam",
                          contrastive=ContrastiveConfig(lam=0.0))
        params = init_params(ModelConfig(fcfg, embed_dim=16, hidden_dim=16, seed=3))
        opt = AdamOptimizer(0.05)
        losses = []
        for epoch in range(5):
            batches = make_batches(len(docs), 16, 3, epoch)
            losses.append(train_epoch(params, docs, labels, batches, cfg, opt))
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


@pytest.fixture(scope="module")
def easy_split():
    data = generate_corpus(classes=4, docs_per_class=120, overlap=0.1, seed=88)
    return split_train_val(data, seed=1, stratify=True)


class TestTrain:
    def test_synthetic_keyword_corpus_reaches_high_f1(self, easy_split):
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=32, hidden_dim=32, seed=0)
        tcfg = TrainConfig(epochs=12, batch_size=32, learning_rate=0.05,
                           contrastive=ContrastiveConfig(lam=0.5), task="harm")
        _, report = train(easy_split.train, easy_split.val, mcfg, tcfg)
        assert report.best_val_f1 >= 0.95

    def test_deterministic_report(self, easy_split):
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=16, hidden_dim=16, seed=7)
        tcfg = TrainConfig(epochs=4, batch_size=32, learning_rate=0.05, task="harm")
        _, r1 = train(easy_split.train, easy_split.val, mcfg, tcfg)
        _, r2 = train(easy_split.train, easy_split.val, mcfg, tcfg)
        assert r1.to_json() == r2.to_json()

    def test_best_epoch_is_argmax_of_series(self, easy_split):
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=16, hidden_dim=16, seed=2)
        tcfg = TrainConfig(epochs=6, batch_size=32, learning_rate=0.05, task="harm")
        _, report = train(easy_split.train, easy_split.val, mcfg, tcfg)
        series = report.val_f1
        assert report.best_val_f1 == max(series)
        assert report.best_epoch == series.index(max(series))

    def test_checkpoint_holds_best_params(self, easy_split, tmp_path):
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=16, hidden_dim=16, seed=4)
        tcfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.05, task="harm")
        path = tmp_path / "best.hpc"
        _, report = train(easy_split.train, easy_split.val, mcfg, tcfg, checkpoint_path=path)
        params, loaded_cfg = load_params(path)
        docs = batch_encode([ex.text for ex in easy_split.val], loaded_cfg.features)
        f1 = evaluate_params(params, docs, _extract_labels(easy_split.val, "harm"), "harm")
        # float32 checkpoint quantization can move F1 only through argmax flips;
        # none occur on this margin, so the scores agree exactly.
        assert f1 == pytest.approx(report.best_val_f1, abs=1e-9)

    def test_targets_task_trains(self):
        data = generate_corpus(classes=4, docs_per_class=60, overlap=0.2, seed=5, with_targets=True)
        split = split_train_val(data, seed=2, stratify=True)
        fcfg = FeatureConfig(hash_bits=10, max_tokens=40)
        mcfg = ModelConfig(fcfg, embed_dim=24, hidden_dim=24, seed=1)
        tcfg = TrainConfig(epochs=10, batch_size=32, learning_rate=0.05,
                           contrastive=ContrastiveConfig(lam=0.0), task="targets")
        _, report = train(split.train, split.val, mcfg, tcfg)
        assert report.task == "targets"
        assert report.best_val_f1 >= 0.9  # trigger tokens make the task learnable

    def test_missing_class_warns_with_contrastive(self):
        data = [ex for ex in generate_corpus(classes=4, docs_per_class=30, overlap=0.0, seed=6) if ex.harm != 3]
        split = split_train_val(data, seed=3, stratify=True)
        fcfg = FeatureConfig(hash_bits=9, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.05,
                           contrastive=ContrastiveConfig(lam=0.5), task="harm")
        with pytest.warns(UserWarning, match="absent"):
            train(split.train, split.val, mcfg, tcfg)

    def test_contrastive_ignored_for_targets_task(self):
        data = generate_corpus(classes=4, docs_per_class=20, overlap=0.0, seed=7, with_targets=True)
        split = split_train_val(data, seed=4, stratify=True)
        fcfg = FeatureConfig(hash_bits=9, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.05,
                           contrastive=ContrastiveConfig(lam=0.5), task="targets")
        with pytest.warns(UserWarning, match="does not apply"):
            train(split.train, split.val, mcfg, tcfg)

    def test_empty_sets_rejected(self):
        fcfg = FeatureConfig(hash_bits=9)
        mcfg = ModelConfig(fcfg, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            train([], [], mcfg, TrainConfig())

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_rows_no_training_token_hashes_to_keep_their_init(self, easy_split, tmp_path, optimizer):
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=5)
        tcfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.05, optimizer=optimizer)
        train(easy_split.train, easy_split.val, mcfg, tcfg, checkpoint_path=tmp_path / "m.hpc")
        table = load_params(tmp_path / "m.hpc")[0].embed
        used = sorted({int(t) for doc in batch_encode([ex.text for ex in easy_split.train], fcfg) for t in doc})
        unused = np.setdiff1d(np.arange(fcfg.vocab_size), used)
        init = init_params(mcfg).embed
        assert unused.size and np.array_equal(table[unused], init[unused])
        assert not np.array_equal(table[used], init[used])

    def test_sgd_displacement_scales_with_learning_rate(self):
        # Parameter displacement after one epoch shrinks proportionally to lr.
        fcfg = FeatureConfig(hash_bits=8, max_tokens=32)
        docs, labels = encoded_for(keyword_corpus(), fcfg)
        displacements = []
        for lr in (1e-2, 1e-3, 1e-4):
            cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=lr, optimizer="sgd",
                              contrastive=ContrastiveConfig(lam=0.0))
            params = init_params(ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=0))
            before = {name: arr.copy() for name, arr in params.arrays()}
            batches = make_batches(len(docs), 16, 0, 0)
            train_epoch(params, docs, labels, batches, cfg, SgdOptimizer(lr))
            displacement = sum(
                float(np.linalg.norm(arr - before[name])) for name, arr in params.arrays()
            )
            displacements.append(displacement)
        assert displacements[0] > displacements[1] > displacements[2]
        # One SGD epoch at tiny lr is near-linear in lr.
        assert displacements[1] / displacements[0] == pytest.approx(0.1, rel=0.05)
        assert displacements[2] / displacements[1] == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("optimizer, learning_rate, seed", [("sgd", 0.5, 0), ("adam", 0.05, 1)])
    def test_best_epoch_restore_matches_full_copy_reference(self, tmp_path, optimizer, learning_rate, seed):
        data = generate_corpus(classes=4, docs_per_class=30, overlap=0.4, seed=88)
        split = split_train_val(data, seed=1, stratify=True)
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=seed)
        tcfg = TrainConfig(epochs=5, batch_size=16, learning_rate=learning_rate, optimizer=optimizer)
        params, report = train(split.train, split.val, mcfg, tcfg, checkpoint_path=tmp_path / "got.hpc")
        assert 0 < report.best_epoch < tcfg.epochs - 1
        expected = reference_train(split.train, split.val, mcfg, tcfg, tmp_path / "want.hpc")
        for name, arr in params.arrays():
            want = getattr(expected, name)
            want = want[params.rows].astype(np.float32) if name == "embed" else want.astype(np.float64)
            assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name
        assert (tmp_path / "got.hpc").read_bytes() == (tmp_path / "want.hpc").read_bytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_returns_the_table_its_checkpoint_stores(self, easy_split, tmp_path, optimizer):
        fcfg = FeatureConfig(hash_bits=10, max_tokens=32)
        mcfg = ModelConfig(fcfg, embed_dim=8, hidden_dim=8, seed=6)
        tcfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.05, optimizer=optimizer)
        params, _ = train(easy_split.train, easy_split.val, mcfg, tcfg, checkpoint_path=tmp_path / "m.hpc")
        stored = load_params(tmp_path / "m.hpc")[0].embed
        assert params.embed.dtype == stored.dtype == np.float32
        assert params.embed.tobytes() == stored[params.rows].tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_peak_memory_at_default_shape_below_half_a_float32_table(self, tmp_path, optimizer):
        # train holds no (vocab_size, embed_dim) table: only the compact rows,
        # their moments, one replayed block of the initial table and the
        # checkpoint's blocks. It held one float32 table, 1.11 of them in all.
        split = split_train_val(generate_corpus(classes=4, docs_per_class=10, overlap=0.1, seed=3), seed=1)
        mcfg = ModelConfig()
        tcfg = TrainConfig(epochs=2, optimizer=optimizer)
        tracemalloc.start()
        try:
            train(split.train, split.val, mcfg, tcfg, checkpoint_path=tmp_path / "m.hpc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * mcfg.vocab_size * mcfg.embed_dim * 4

    def test_predict_peak_memory_grows_by_pooled_rows_not_by_text(self, tmp_path):
        # Predict holds one chunk of texts and ids at a time, so from 1000 to
        # 4000 long documents its traced peak grows only by what it keeps
        # per document: the pooled row and the activations computed from it.
        mcfg = ModelConfig()
        save_params(init_params(mcfg), mcfg, tmp_path / "m.hpc")
        rng = np.random.default_rng(0)
        words = np.array([f"w{k}" for k in range(5000)])

        def traced_peak(n):
            path = tmp_path / f"in{n}.jsonl"
            with path.open("w", encoding="utf-8") as fh:
                for i in range(n):
                    text = " ".join(words[rng.integers(0, len(words), rng.integers(100, 300))])
                    fh.write(json.dumps({"id": f"d{i}", "text": text}) + "\n")
            argv = ["predict", "--checkpoint", str(tmp_path / "m.hpc"), "--input", str(path),
                    "--output", str(tmp_path / "out.jsonl")]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The loaded table is in both peaks. Per document, the growth is about
        # 0.51 float64 rows of embed_dim + hidden_dim values; it was 0.66 while
        # the forward pass normalized every row, 2 while normalize_rows built
        # a masked copy and a quotient, and reading, encoding and pooling the
        # whole file at once grew by 4.8.
        growth = traced_peak(4000) - traced_peak(1000)
        assert growth <= 3000 * (mcfg.embed_dim + mcfg.hidden_dim) * 8


class TestConfigValidation:
    def test_batch_size_with_contrastive(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=1, contrastive=ContrastiveConfig(lam=0.5))

    def test_optimizer_name(self):
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="adagrad")

    def test_task_name(self):
        with pytest.raises(ValueError, match="task"):
            TrainConfig(task="span")


class TestGradCheck:
    def test_small_run_passes(self):
        report = grad_check(trials=5, seed=1)
        assert isinstance(report, GradCheckReport)
        assert report.max_rel_error < 1e-4
        assert report.passed

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            grad_check(trials=0)

    def test_inputs_pinned(self, monkeypatch):
        """Each trial's model, docs and labels are the draws of
        default_rng([seed, trial]) in this order: seven N(0, 0.5**2) arrays
        in FIELDS order, then the docs, then the labels. Ten trials cover
        every combination, the targets one included."""
        seen = []

        def record(params, docs, labels, cfg, task):
            # The first call of a trial is the analytic one; the loss of the
            # perturbed calls after it is not needed here.
            if seen and seen[-1][0] is params:
                return 0.0, None
            seen.append((params, params.copy(), list(docs), labels.copy(), task))
            return losses.gradients(params, docs, labels, cfg, task=task)

        monkeypatch.setattr(trainer, "gradients", record)
        grad_check(trials=10, seed=3)
        assert [task for *_, task in seen] == ["harm"] * 9 + ["targets"]
        shapes = [(64, 8), (8, 8), (8,), (8, 4), (4,), (8, 5), (5,)]
        for trial, (_, params, docs, labels, task) in enumerate(seen):
            rng = np.random.default_rng([3, trial])
            expected = [rng.normal(0.0, 0.5, shape) for shape in shapes]
            expected_docs = [rng.integers(0, 64, size=int(rng.integers(1, 9))) for _ in range(6)]
            if task == "harm":
                expected_labels = rng.integers(0, 3, size=6)
            else:
                expected_labels = rng.integers(0, 2, size=(6, 5)).astype(np.float64)
            for got, want in zip([arr for _, arr in params.arrays()] + docs + [labels],
                                 expected + expected_docs + [expected_labels], strict=True):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert params.rows is None
