"""Synthetic corpora: the raw-stream draw reader against numpy's ``Generator``."""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmkit import synth
from harmkit.corpus import LabeledExample, NUM_TARGETS
from harmkit.synth import generate_corpus


def generate_corpus_reference(classes=4, docs_per_class=500, overlap=0.0, seed=0, words_per_class=5,
                              shared_pool=40, doc_len=(8, 20), with_targets=True):
    """The scalar ``Generator`` loop that ``_Draws`` replaced, two calls per token."""
    rng = np.random.default_rng(seed)
    class_words = [[f"c{c}w{k}" for k in range(words_per_class)] for c in range(classes)]
    shared_words = [f"s{k}" for k in range(shared_pool)]
    examples = []
    doc_id = 0
    for c in range(classes):
        for _ in range(docs_per_class):
            length = int(rng.integers(doc_len[0], doc_len[1] + 1))
            tokens = []
            for _ in range(length):
                if shared_pool and rng.random() < overlap:
                    tokens.append(shared_words[int(rng.integers(0, shared_pool))])
                else:
                    tokens.append(class_words[c][int(rng.integers(0, words_per_class))])
            targets = None
            if with_targets:
                flags = [int(rng.random() < 0.5) for _ in range(NUM_TARGETS)]
                tokens.extend(f"t{k}" for k, on in enumerate(flags) if on)
                targets = tuple(flags)
            perm = rng.permutation(len(tokens))
            text = " ".join(tokens[i] for i in perm)
            examples.append(LabeledExample(id=f"d{doc_id:05d}", text=text, harm=c, targets=targets))
            doc_id += 1
    return examples


GRID = list(itertools.product([(1, 1), (5, 5), (8, 20), (100, 400)], [1, 5], [0, 40, 20000],
                              [0.0, 0.5, 1.0], [True, False]))


@pytest.mark.parametrize("doc_len,words_per_class,shared_pool,overlap,with_targets", GRID)
def test_corpus_equals_scalar_generator_loop(doc_len, words_per_class, shared_pool, overlap, with_targets):
    shape = dict(classes=3, docs_per_class=4, overlap=overlap, words_per_class=words_per_class,
                 shared_pool=shared_pool, doc_len=doc_len, with_targets=with_targets)
    for seed in (0, 12345):
        assert generate_corpus(seed=seed, **shape) == generate_corpus_reference(seed=seed, **shape)


def test_corpus_longer_than_one_raw_block_equals_scalar_generator_loop():
    shape = dict(classes=4, docs_per_class=50, overlap=0.5, shared_pool=20000, doc_len=(100, 400))
    assert generate_corpus(seed=3, **shape) == generate_corpus_reference(seed=3, **shape)


def test_corpus_makes_no_generator_method_call(monkeypatch):
    # Only the bit generator's raw stream is read: a Generator method call
    # would raise AttributeError on this stand-in.
    want = generate_corpus_reference(docs_per_class=5, seed=4, overlap=0.3)
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: types.SimpleNamespace(bit_generator=real(seed).bit_generator))
    assert generate_corpus(docs_per_class=5, seed=4, overlap=0.3) == want


# Bounds around the edges of Lemire's method: 3 * 2**30 + 1 rejects about a
# quarter of its 32-bit draws, 2**32 takes the draw as it is, 1 draws nothing.
BOUNDS = st.one_of(st.sampled_from([1, 2, 3, 5, 20000, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32]),
                   st.integers(1, 2**32))
DRAWS = st.lists(st.one_of(st.just(("random", None)), st.tuples(st.just("integers"), BOUNDS),
                           st.tuples(st.just("permutation"), st.integers(0, 70))), max_size=60)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=DRAWS)
def test_draws_equal_generator_methods(seed, draws):
    rng = np.random.default_rng(seed)
    reader = synth._Draws(seed)
    for method, arg in draws:
        if method == "random":
            assert reader.random() == rng.random()
        elif method == "integers":
            assert reader.integers(arg) == rng.integers(0, arg)
        else:
            items = list(range(arg))
            reader.shuffle(items)
            assert items == rng.permutation(arg).tolist()
    # Both leave the stream at the same place, kept 32-bit half included.
    assert reader.integers(2**32) == rng.integers(0, 2**32)
    assert reader.random() == rng.random()


def test_lemire_redraws_equal_generator():
    # With k = 3 * 2**30 + 1 a 32-bit draw u is redrawn when u * k % 2**32 is
    # below 2**32 % k = 2**30 - 1: here 21 of the stream's first 100 draws.
    k = 3 * 2**30 + 1
    raws = np.random.default_rng(0).bit_generator.random_raw(50).tolist()
    u32s = [half for raw in raws for half in (raw % 2**32, raw >> 32)]
    assert sum(u * k % 2**32 < 2**32 % k for u in u32s) == 21
    rng, reader = np.random.default_rng(0), synth._Draws(0)
    assert [reader.integers(k) for _ in range(100)] == [int(rng.integers(0, k)) for _ in range(100)]


@pytest.mark.parametrize("kwargs", [
    dict(words_per_class=0),
    dict(words_per_class=0, overlap=1.0),
    dict(words_per_class=-1),
    dict(words_per_class=2**32),
    dict(shared_pool=-1),
    dict(shared_pool=2**32),
    dict(doc_len=(1, 2**32)),
    dict(doc_len=(0, 5)),
    dict(doc_len=(5, 4)),
])
def test_bad_sizes_raise_value_error_up_front(kwargs):
    with pytest.raises(ValueError):
        generate_corpus(docs_per_class=1, **kwargs)
