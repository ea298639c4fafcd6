"""Seeded synthetic corpora for end-to-end checks and experiments.

Each class owns a small disjoint keyword set; a shared pool provides
class-independent filler. `overlap` is the probability that a token is
drawn from the shared pool instead of the class keywords, so overlap=0
yields a trivially separable corpus and higher values make the classes
increasingly confusable. Optional target-identity flags are made learnable
by injecting a dedicated trigger token for every active flag.

A corpus is a fixed function of its arguments: every golden digest and
every benchmark input is built from one. Its draws are exactly those of
``np.random.default_rng(seed)`` calling ``random()``, ``integers(0, k)`` and
``permutation(n)``, but `_Draws` replays them in plain Python from the bit
generator's raw 64-bit outputs, read in blocks, instead of making two
scalar ``Generator`` calls per token, which took most of the time. It
follows the algorithms numpy uses over PCG64 (unchanged from numpy 1.24 to
2.4; ``tests/test_synth.py`` checks it against a real ``Generator``):

- ``random()`` is ``(raw >> 11) * 2**-53``.
- A 32-bit draw is the low half of a fresh raw; the high half is kept for
  the next 32-bit draw. ``random()`` takes whole raws and leaves it alone.
- ``integers(0, k)`` for ``k <= 2**32`` is Lemire's method: ``m = u32 * k``,
  redrawn while ``m % 2**32 < 2**32 % k``, gives ``m >> 32``; ``k == 1``
  draws nothing.
- ``permutation(n)`` is Fisher-Yates from ``i = n - 1`` down to 1, swapping
  item ``i`` with ``j``, a 32-bit draw masked to the smallest ``2**b - 1``
  that covers ``i`` and redrawn while above ``i``.

So every bound ``k`` a corpus draws from is checked up front to be below 2**32.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .corpus import LabeledExample, NUM_CLASSES, NUM_TARGETS

_BLOCK = 1 << 14  # raw outputs read at a time
_U32 = (1 << 32) - 1


class _Draws:
    """``Generator`` draws replayed from a PCG64 raw stream (see the module
    docstring); each method equals the ``Generator`` method of its name."""

    __slots__ = ("_raw", "_half")

    def __init__(self, seed: int):
        bits = np.random.default_rng(seed).bit_generator
        blocks = iter(lambda: bits.random_raw(_BLOCK).tolist(), None)  # endless
        self._raw = chain.from_iterable(blocks).__next__
        self._half = None

    def random(self) -> float:
        return (self._raw() >> 11) * 2.0**-53

    def _u32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        raw = self._raw()
        self._half = raw >> 32
        return raw & _U32

    def integers(self, k: int) -> int:
        """``integers(0, k)`` for ``1 <= k <= 2**32``."""
        if k == 1:
            return 0
        m = self._u32() * k
        if m & _U32 < k:
            threshold = (1 << 32) % k
            while m & _U32 < threshold:
                m = self._u32() * k
        return m >> 32

    def shuffle(self, items: list) -> None:
        """Reorders ``items`` as ``[items[i] for i in permutation(len(items))]``."""
        u32 = self._u32
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = u32() & mask
            while j > i:
                j = u32() & mask
            items[i], items[j] = items[j], items[i]


def generate_corpus(
    classes: int = 4,
    docs_per_class: int = 500,
    overlap: float = 0.0,
    seed: int = 0,
    words_per_class: int = 5,
    shared_pool: int = 40,
    doc_len: tuple[int, int] = (8, 20),
    with_targets: bool = True,
) -> list[LabeledExample]:
    if not 2 <= classes <= NUM_CLASSES:
        raise ValueError(f"classes must be in 2..{NUM_CLASSES}, got {classes}")
    if docs_per_class < 1:
        raise ValueError(f"docs_per_class must be >= 1, got {docs_per_class}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    if not 1 <= words_per_class < 2**32:
        raise ValueError(f"words_per_class must be in [1, 2**32), got {words_per_class}")
    if not 0 <= shared_pool < 2**32:
        raise ValueError(f"shared_pool must be in [0, 2**32), got {shared_pool}")
    if doc_len[0] < 1 or doc_len[1] < doc_len[0] or doc_len[1] - doc_len[0] + 1 >= 2**32:
        raise ValueError(f"invalid doc_len range {doc_len}")

    draws = _Draws(seed)
    random, integers = draws.random, draws.integers
    class_words = [[f"c{c}w{k}" for k in range(words_per_class)] for c in range(classes)]
    shared_words = [f"s{k}" for k in range(shared_pool)]

    examples: list[LabeledExample] = []
    doc_id = 0
    for c, own_words in enumerate(class_words):
        for _ in range(docs_per_class):
            length = doc_len[0] + integers(doc_len[1] - doc_len[0] + 1)
            tokens = [
                shared_words[integers(shared_pool)] if shared_pool and random() < overlap
                else own_words[integers(words_per_class)]
                for _ in range(length)
            ]
            targets = None
            if with_targets:
                flags = [int(random() < 0.5) for _ in range(NUM_TARGETS)]
                tokens.extend(f"t{k}" for k, on in enumerate(flags) if on)
                targets = tuple(flags)
            draws.shuffle(tokens)
            examples.append(
                LabeledExample(id=f"d{doc_id:05d}", text=" ".join(tokens), harm=c, targets=targets)
            )
            doc_id += 1
    return examples
