"""Hashing-trick featurization: text to fixed-vocabulary token-id sequences.

Tokenization splits text into maximal runs of word characters and maximal
runs of punctuation, dropping whitespace. A character is whitespace when
``str.isspace`` says so; otherwise it is a word character when it is ``_`` or
in Unicode category L, N or M (letters, digits, combining marks), and
punctuation when it is anything else. Combining marks count as word
characters so that scripts written with them (Devanagari, Bangla, ...) keep
whole words together. One front finds the tokens of ``tokenize`` and
``batch_encode`` alike: it gives each code point of a text its kind, ASCII
ones through a table and each distinct other one once by the running
interpreter's Unicode database, and a token is a maximal run of one kind.

Tokens are hashed with FNV-1a (64-bit) and reduced modulo 2**hash_bits, so
encoding needs no fitted vocabulary, works for any script, and is identical
across runs and platforms. Sequences are head-truncated to max_tokens. One
numpy kernel hashes the tokens of ``encode`` and ``batch_encode`` alike, one
byte column at a time over their UTF-8 bytes; a bigram continues its first
token's hash over U+001F and then over the second token's bytes.

``batch_encode`` returns the ids of ``corpus.normalize_text(text)``, so it
takes raw and normalized text alike, and encodes a block of texts at a time
in numpy, whatever their script. Only the texts that are not ASCII or hold
``@``, ``://`` or ``www.`` are normalized (``corpus.only_case_changes``);
the rest are only lowercased. Nothing is cached between calls.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import corpus

# FNV-1a 64-bit constants (offset basis / prime).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Hashed between the two tokens of a bigram; U+001F never survives
# tokenization, so bigrams cannot collide with single tokens.
_NGRAM_SEP = 0x1F
# Texts per numpy block in batch_encode, and the longest token hashed by
# byte columns (below 255: token lengths are sorted as uint8, clipped to it + 1).
_BLOCK = 64
_COLUMNS = 32


def _kind(ch: str) -> int:
    """0 for whitespace, 1 for a word character, 2 for punctuation."""
    if ch.isspace():
        return 0
    # Shortcuts: isalnum accepts only categories L and N, and no ASCII
    # character is in M, so the ASCII table never maps in the Unicode
    # database (about 120 KB, which predict on ASCII text never reads).
    if ch == "_" or ch.isalnum():
        return 1
    return 2 if ch.isascii() or unicodedata.category(ch)[0] not in "LNM" else 1


# The kind of each byte of ASCII text, as a ``bytes.translate`` table, of
# which only the ASCII half is read.
_ASCII_KIND = bytes(map(_kind, map(chr, range(128)))) + bytes(128)


@dataclass(frozen=True)
class FeatureConfig:
    """Encoding parameters; stored in checkpoints so predict matches train."""

    max_tokens: int = 512
    hash_bits: int = 15
    ngram: int = 1

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.max_tokens >= 2**32:  # the checkpoint header stores it as a u32
            raise ValueError(f"max_tokens must be < 2**32, got {self.max_tokens}")
        if not 8 <= self.hash_bits <= 22:
            raise ValueError(f"hash_bits must be in 8..22, got {self.hash_bits}")
        if self.ngram not in (1, 2):
            raise ValueError(f"ngram must be 1 or 2, got {self.ngram}")

    @property
    def vocab_size(self) -> int:
        return 1 << self.hash_bits


@dataclass
class EncodedDoc:
    """Token ids for one document, at most max_tokens of them."""

    ids: np.ndarray


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit over ``data``, continued from the state ``h``."""
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _fnv(data: np.ndarray, pos: np.ndarray, lengths: np.ndarray, state: np.ndarray) -> np.ndarray:
    """FNV-1a continued from each uint64 ``state`` over the ``lengths`` bytes
    of ``data`` from ``pos``, one byte column at a time over the tokens still
    active (sorted by length, a suffix); uint64 arrays wrap modulo 2**64 as
    ``& _MASK64`` does. Bytes past the first _COLUMNS go through fnv1a64, so
    one long token costs no run of near-empty columns."""
    clipped = np.minimum(lengths, _COLUMNS + 1).astype(np.uint8)
    order = np.argsort(clipped, kind="stable")
    at, state = pos[order], state[order]
    prime = np.uint64(_FNV_PRIME)
    for first in np.searchsorted(clipped[order], np.arange(min(int(clipped.max(initial=0)), _COLUMNS)), "right").tolist():
        state[first:] ^= data[at[first:]]
        state[first:] *= prime
        at[first:] += 1
    out = np.empty_like(state)
    out[order] = state
    for i in np.flatnonzero(lengths > _COLUMNS).tolist():
        out[i] = fnv1a64(data[pos[i] + _COLUMNS : pos[i] + lengths[i]].tobytes(), int(out[i]))
    return out


def _ids(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, counts: np.ndarray,
         cfg: FeatureConfig) -> list[EncodedDoc]:
    """The ids of documents whose tokens are, in order, the ``lengths`` bytes
    of ``data`` at ``starts``, ``counts`` tokens each: a document's first
    max_tokens unigram ids, then as many of its leading bigram ids as fit."""
    if counts.max(initial=0) > cfg.max_tokens:
        kept = np.arange(starts.size) - np.repeat(np.cumsum(counts) - counts, counts) < cfg.max_tokens
        starts, lengths = starts[kept], lengths[kept]
        counts = np.minimum(counts, cfg.max_tokens)
    state = _fnv(data, starts, lengths, np.full(starts.size, _FNV_OFFSET, np.uint64))
    if cfg.ngram == 2:
        # A document cut by max_tokens now holds max_tokens unigrams, which
        # leaves no room for a bigram. Bigram j of a document pairs its
        # tokens j and j + 1.
        pairs = np.maximum(np.minimum(counts - 1, cfg.max_tokens - counts), 0)
        left = np.repeat(np.cumsum(counts) - counts - np.cumsum(pairs) + pairs, pairs) + np.arange(pairs.sum())
        bigrams = _fnv(data, starts[left + 1], lengths[left + 1],
                       (state[left] ^ np.uint64(_NGRAM_SEP)) * np.uint64(_FNV_PRIME))
        # Each document's unigram ids, then its bigram ids.
        doc = np.arange(counts.size)
        order = np.argsort(np.concatenate([np.repeat(doc, counts), np.repeat(doc, pairs)]), kind="stable")
        state = np.concatenate([state, bigrams])[order]
        counts = counts + pairs
    # Ids are below 2**22, so their uint64 bits are their int64 ones. Each
    # document owns a copy of its ids, so that no document keeps the block's
    # arrays alive (views held predict's peak RSS 1-2 MB higher).
    state &= np.uint64((1 << cfg.hash_bits) - 1)
    ids = state.view(np.int64)
    ends = np.cumsum(counts).tolist()
    return [EncodedDoc(ids=ids[end - count : end].copy()) for end, count in zip(ends, counts.tolist())]


def _runs(kind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts and lengths of the maximal runs of one nonzero value in
    ``kind``, whose first and last entries must be zero: a run starts after
    each change to a nonzero value and ends after each change from one."""
    last = np.flatnonzero(kind[1:] != kind[:-1])
    starts = last[kind[1:][last] != 0]
    lengths = last[kind[last] != 0]
    lengths -= starts
    starts += 1
    return starts, lengths


def _kinds(text: str, raw: bytes) -> np.ndarray:
    """The kind (``_kind``) of each code point of ``text``, as uint8, given
    ``raw``, its UTF-8 encoding."""
    if len(raw) == len(text):  # ASCII
        return np.frombuffer(raw.translate(_ASCII_KIND), np.uint8)
    # Lone surrogates have a UTF-32 code unit of their own, and are punctuation.
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    kinds = np.frombuffer(_ASCII_KIND, np.uint8)[np.minimum(points, 0x7F)]
    other = np.flatnonzero(points > 0x7F)
    distinct, inverse = np.unique(points[other], return_inverse=True)
    kinds[other] = np.fromiter(map(_kind, map(chr, distinct.tolist())), np.uint8, distinct.size)[inverse]
    return kinds


def tokenize(text: str) -> list[str]:
    """Split on whitespace/punctuation boundaries; punctuation runs are single tokens."""
    text = f" {text} "
    starts, lengths = _runs(_kinds(text, text.encode("utf-8", "surrogatepass")))
    return [text[start:end] for start, end in zip(starts.tolist(), (starts + lengths).tolist())]


def _block(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes, token starts, token lengths (in bytes) and tokens per
    text of ``tokenize(corpus.normalize_text(text))`` for each text, found
    over the texts joined into one string."""
    # One space before, between and after the texts: no token crosses a text
    # boundary, and the first and last code points are whitespace. No marker
    # holds a space, so none crosses a text boundary either.
    joined = " ".join(["", *texts, ""])
    # Lowercasing can turn other text into ASCII (the Kelvin sign becomes
    # "k"), so only raw ASCII skips normalization.
    if joined.isascii():
        joined = joined.lower()
    if not joined.isascii() or corpus.holds_marker(joined):
        texts = [text.lower() if corpus.only_case_changes(text) else corpus.normalize_text(text) for text in texts]
        joined = " ".join(["", *texts, ""])
    raw = joined.encode("utf-8")
    starts, lengths = _runs(_kinds(joined, raw))
    # Each text's first token.
    firsts = np.searchsorted(starts, np.cumsum([1] + [len(text) + 1 for text in texts[:-1]]))
    data = np.frombuffer(raw, np.uint8)
    if data.size != len(joined):
        # Code point i starts at the i-th byte that is not a UTF-8
        # continuation byte (0b10xxxxxx). A token ends before a code point,
        # since the last one is a space.
        at = np.flatnonzero((data & 0xC0) != 0x80)
        lengths = at[starts + lengths] - at[starts]
        starts = at[starts]
    return data, starts, lengths, np.diff(firsts, append=starts.size)


def encode(tokens: Sequence[str], cfg: FeatureConfig) -> EncodedDoc:
    """Hash tokens (plus adjacent bigrams when ngram=2), truncate to max_tokens.

    Bigram ids follow the unigram ids, so head truncation always keeps the
    leading unigrams first; only the bigrams that survive truncation are
    built, and only the tokens that survive it are hashed.
    """
    # A document of max_tokens tokens has no bigrams either: cutting changes no id.
    encoded = [token.encode("utf-8") for token in tokens[: cfg.max_tokens]]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    data = np.frombuffer(b"".join(encoded), np.uint8)
    return _ids(data, np.cumsum(lengths) - lengths, lengths, np.array([len(encoded)]), cfg)[0]


def batch_encode(texts: Sequence[str], cfg: FeatureConfig) -> list[EncodedDoc]:
    """The ids of ``encode(tokenize(corpus.normalize_text(text)))`` for each
    text; order preserved. Raw and normalized text give the same ids, since
    normalization is idempotent.

    Texts are encoded _BLOCK at a time, in one front for every script, which
    never calls ``tokenize``. Only the texts that are not ASCII or hold
    ``@``, ``://`` or, in any letter case, ``www.`` reach ``normalize_text``
    (``corpus.only_case_changes``).
    """
    return [doc for lo in range(0, len(texts), _BLOCK) for doc in _ids(*_block(texts[lo : lo + _BLOCK]), cfg)]
