"""Hashing-trick featurization: text to fixed-vocabulary token-id sequences.

Tokenization splits text into maximal runs of word characters and maximal
runs of punctuation, dropping whitespace. A character is whitespace when
``str.isspace`` says so; otherwise it is a word character when it is ``_`` or
in Unicode category L, N or M (letters, digits, combining marks), and
punctuation when it is anything else. Combining marks count as word
characters so that scripts written with them (Devanagari, Bangla, ...) keep
whole words together. ``tokenize`` classifies only the distinct characters
of a text, by the running interpreter's Unicode database, fences each
punctuation character with a separator that ``str.split`` splits on, drops
the separators between two punctuation characters, and splits.

Tokens are hashed with FNV-1a (64-bit) and reduced modulo 2**hash_bits, so
encoding needs no fitted vocabulary, works for any script, and is identical
across runs and platforms. Sequences are head-truncated to max_tokens. One
numpy kernel hashes the tokens of ``encode`` and ``batch_encode`` alike, one
byte column at a time over their UTF-8 bytes; a bigram continues its first
token's hash over U+001F and then over the second token's bytes.

``batch_encode`` returns the ids of ``corpus.normalize_text(text)``, so it
takes raw and normalized text alike, and encodes a block of texts at a time.
ASCII texts are tokenized in numpy, and only those that hold ``@``, ``://``
or ``www.`` are normalized (``corpus.only_case_changes``); other texts are
normalized and tokenized one at a time. Nothing is cached between calls.
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

# The kind of each byte of ASCII text, as a ``bytes.translate`` table:
# 0 whitespace, 1 word (``_`` or alphanumeric), 2 punctuation.
_ASCII_KIND = bytes(0 if chr(cp).isspace() else 1 if chr(cp) == "_" or chr(cp).isalnum() else 2 for cp in range(256))
# A character that ``str.split`` splits on and no ASCII text holds.
_SEP = "\x85"
# Up to this many distinct punctuation characters, tokenize fences each with
# its own ``str.replace`` pass; above it, with one ``str.translate`` pass,
# which keeps the work linear in the text and costs about 80 replace passes.
_MAX_REPLACES = 48
# Texts per numpy block in batch_encode, and the longest token hashed by
# byte columns (below 255: token lengths are sorted as uint8, clipped to it + 1).
_BLOCK = 64
_COLUMNS = 32


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


def tokenize(text: str) -> list[str]:
    """Split on whitespace/punctuation boundaries; punctuation runs are single tokens."""
    # The tokens are the maximal runs of word and of punctuation characters.
    # Fencing every punctuation character with separators and then dropping
    # the pairs between two of them leaves one separator at each
    # word/punctuation boundary, and ``str.split`` splits on exactly the
    # characters ``str.isspace`` accepts.
    if _SEP in text:
        # Collapsing whitespace changes no token, and leaves no separator
        # but those of the fences.
        text = " ".join(text.split())
    # isalnum is a shortcut: letters and digits are categories L and N.
    punct = {ch for ch in set(text) if not (ch.isalnum() or ch.isspace() or ch == "_")
             and unicodedata.category(ch)[0] not in "LNM"}
    if not punct:
        return text.split()
    if len(punct) > _MAX_REPLACES:
        text = text.translate({ord(ch): _SEP + ch + _SEP for ch in punct})
    else:
        for ch in punct:
            text = text.replace(ch, _SEP + ch + _SEP)
    return text.replace(_SEP + _SEP, "").split()


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


def _ascii_block(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bytes, token starts, token lengths and tokens per text of
    ``tokenize(corpus.normalize_text(text))`` for ASCII texts, tokenized in
    numpy over the texts joined into one lowercased byte array."""
    # One space before, between and after the texts: no token crosses a text
    # boundary, and the first and last bytes are whitespace. No marker holds
    # a space, so none crosses a text boundary either.
    joined = " ".join(["", *texts, ""]).lower()
    if corpus.holds_marker(joined):
        # Normalizing an ASCII text leaves it ASCII.
        texts = [text if corpus.only_case_changes(text) else corpus.normalize_text(text) for text in texts]
        joined = " ".join(["", *texts, ""]).lower()
    raw = joined.encode("ascii")
    starts, lengths = _runs(np.frombuffer(raw.translate(_ASCII_KIND), np.uint8))
    # Each text's first token.
    firsts = np.searchsorted(starts, np.cumsum([1] + [len(text) + 1 for text in texts[:-1]]))
    return np.frombuffer(raw, np.uint8), starts, lengths, np.diff(firsts, append=starts.size)


def _utf8_block(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``_ascii_block`` gives, for any texts: each is normalized and
    tokenized, and the tokens joined with spaces, the texts with newlines,
    into one UTF-8 byte array."""
    tokens = [tokenize(corpus.normalize_text(text)) for text in texts]
    data = np.frombuffer("\n".join(["", *map(" ".join, tokens), ""]).encode("utf-8"), np.uint8)
    # No token holds whitespace, and every byte of a multi-byte UTF-8
    # character is at least 0x80, so a token's bytes are a maximal run of
    # bytes other than the two separators.
    starts, lengths = _runs((data != 0x20) & (data != 0x0A))
    return data, starts, lengths, np.fromiter(map(len, tokens), np.int64, len(tokens))


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

    Texts are encoded _BLOCK at a time, ASCII and other texts in separate
    blocks. ASCII texts never reach ``tokenize``, and only those that hold
    ``@``, ``://`` or, in any letter case, ``www.`` reach ``normalize_text``
    (``corpus.only_case_changes``).
    """
    docs: list[EncodedDoc] = [None] * len(texts)  # type: ignore[list-item]
    ascii_at = [i for i, text in enumerate(texts) if text.isascii()]
    other_at = [i for i, text in enumerate(texts) if not text.isascii()]
    for at, front in ((ascii_at, _ascii_block), (other_at, _utf8_block)):
        for lo in range(0, len(at), _BLOCK):
            block = at[lo : lo + _BLOCK]
            for i, doc in zip(block, _ids(*front([texts[i] for i in block]), cfg)):
                docs[i] = doc
    return docs
