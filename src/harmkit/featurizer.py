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
across runs and platforms. Sequences are head-truncated to max_tokens.

``batch_encode`` normalizes as it encodes: it returns the ids of
``corpus.normalize_text(text)``, so it takes raw and normalized text alike.
With unigrams it tokenizes and hashes ASCII texts in numpy, a block of texts
at a time: the joined bytes are lowercased, each byte's kind comes from a
128-entry table, the token bounds from where the kind changes, and the
hashes from FNV-1a run one byte column at a time over uint64 arrays. On an
ASCII text with no ``@``, no ``://`` and, lowercased, no ``www.``, the only
change normalization makes to a token is lowercasing
(``corpus.only_case_changes``), so such a text never calls
``normalize_text``. Other texts take ``tokenize`` and ``encode`` with a
token-to-id table for the length of one call, or of every call that passes
it the same table, so each distinct token is hashed once per table, on first
sight; nothing is cached at module level.
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

# Joins the pieces of an n-gram before hashing; U+001F never survives
# tokenization, so joined n-grams cannot collide with single tokens.
_NGRAM_SEP = "\x1f"

# The kind of each ASCII byte: 0 whitespace, 1 word (``_`` or alphanumeric),
# 2 punctuation.
_ASCII_KIND = np.array(
    [0 if chr(cp).isspace() else 1 if chr(cp) == "_" or chr(cp).isalnum() else 2 for cp in range(128)], np.uint8
)
# The ASCII bytes that are word characters or whitespace; deleting them from
# an ASCII text leaves its punctuation.
_ASCII_WORD_OR_SPACE = bytes(np.flatnonzero(_ASCII_KIND != 2).tolist())
# A character that ``str.split`` splits on and no ASCII text holds.
_SEP = "\x85"
# Up to this many distinct punctuation characters, tokenize fences each with
# its own ``str.replace`` pass; above it, with one ``str.translate`` pass,
# which keeps the work linear in the text. A translate pass looks up every
# character in a dict and costs about as much as 80 replace passes; the
# bound stays below the 55 ASCII punctuation characters, so ASCII text can
# take either branch.
_MAX_REPLACES = 48
# Texts per numpy block in batch_encode, and the longest token it hashes by
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


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
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
    if text.isascii():
        punct = set(text.encode().translate(None, _ASCII_WORD_OR_SPACE).decode())
    else:
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


def _token_id(token: str, hash_bits: int) -> int:
    return fnv1a64(token.encode("utf-8")) & ((1 << hash_bits) - 1)


class TokenTable(dict):
    """Unigram to id under ``hash_bits``; a missing token is hashed on lookup
    and stored, so each distinct token is hashed once per table."""

    def __init__(self, hash_bits: int) -> None:
        super().__init__()
        self.hash_bits = hash_bits

    def __missing__(self, token: str) -> int:
        self[token] = token_id = _token_id(token, self.hash_bits)
        return token_id


def encode(tokens: Sequence[str], cfg: FeatureConfig, table: TokenTable | None = None) -> EncodedDoc:
    """Hash tokens (plus adjacent bigrams when ngram=2), truncate to max_tokens.

    Bigram ids follow the unigram ids, so head truncation always keeps the
    leading unigrams first; only the bigrams that survive truncation are
    built. ``table`` is a ``TokenTable(cfg.hash_bits)`` and gains every
    unigram hashed here, so a caller encoding many documents can pass one
    table and hash each distinct token once. Bigrams are hashed directly and
    never enter it.
    """
    if table is None:
        table = TokenTable(cfg.hash_bits)
    unigrams = tokens[: cfg.max_tokens]
    ids = np.fromiter(map(table.__getitem__, unigrams), np.int64, len(unigrams))
    n_bigrams = min(len(tokens) - 1, cfg.max_tokens - len(unigrams)) if cfg.ngram == 2 else 0
    if n_bigrams > 0:
        pairs = zip(tokens, tokens[1 : n_bigrams + 1])
        bigrams = (_token_id(a + _NGRAM_SEP + b, cfg.hash_bits) for a, b in pairs)
        ids = np.concatenate([ids, np.fromiter(bigrams, np.int64, n_bigrams)])
    return EncodedDoc(ids=ids)


def _encode_ascii_block(texts: Sequence[str], cfg: FeatureConfig) -> list[EncodedDoc]:
    """``encode(tokenize(corpus.normalize_text(text)), cfg)`` for each ASCII
    text, with unigrams only, tokenized and hashed in numpy over the texts
    joined into one lowercased byte array."""
    # One space before, between and after the texts: no token crosses a text
    # boundary, and the first and last bytes are whitespace. No marker holds
    # a space, so none crosses a text boundary either.
    joined = " ".join(["", *texts, ""]).lower()
    if corpus.holds_marker(joined):
        # Normalizing an ASCII text leaves it ASCII.
        texts = [text if corpus.only_case_changes(text) else corpus.normalize_text(text) for text in texts]
        joined = " ".join(["", *texts, ""]).lower()
    data = np.frombuffer(joined.encode("ascii"), np.uint8)
    kind = _ASCII_KIND.take(data)
    # A token starts where the kind is nonzero and differs from the byte
    # before, and ends where it differs from the byte after.
    edges = np.flatnonzero(kind[1:] != kind[:-1]) + 1
    starts = edges[kind[edges] != 0]
    lengths = edges[kind[edges - 1] != 0] - starts
    # Each text's first token, then head truncation to max_tokens.
    begins = np.cumsum([1] + [len(text) + 1 for text in texts[:-1]])
    firsts = np.searchsorted(starts, begins)
    counts = np.diff(firsts, append=starts.size)
    if counts.max() > cfg.max_tokens:
        kept = np.arange(starts.size) - np.repeat(firsts, counts) < cfg.max_tokens
        starts, lengths = starts[kept], lengths[kept]
        counts = np.minimum(counts, cfg.max_tokens)
    # FNV-1a one byte column at a time over the tokens still active: sorted
    # by length, they are a suffix. uint64 arrays wrap modulo 2**64 as
    # ``& _MASK64`` does. Tokens longer than _COLUMNS bytes are hashed whole
    # by fnv1a64 instead, so one long token costs no run of near-empty columns.
    clipped = np.minimum(lengths, _COLUMNS + 1).astype(np.uint8)
    order = np.argsort(clipped, kind="stable")
    pos = starts[order]
    state = np.full(pos.size, _FNV_OFFSET, np.uint64)
    prime = np.uint64(_FNV_PRIME)
    columns = min(int(clipped.max(initial=0)), _COLUMNS)
    for first in np.searchsorted(clipped[order], np.arange(columns), "right").tolist():
        state[first:] ^= data[pos[first:]]
        state[first:] *= prime
        pos[first:] += 1
    mask = (1 << cfg.hash_bits) - 1
    ids = np.empty(pos.size, np.int64)
    ids[order] = state & np.uint64(mask)
    for i in np.flatnonzero(lengths > _COLUMNS).tolist():
        ids[i] = fnv1a64(data[starts[i] : starts[i] + lengths[i]].tobytes()) & mask
    # Each document owns a copy of its ids, so that no document keeps the
    # block's arrays alive (views held predict's peak RSS 1-2 MB higher).
    ends = np.cumsum(counts).tolist()
    return [EncodedDoc(ids=ids[end - count : end].copy()) for end, count in zip(ends, counts.tolist())]


def batch_encode(texts: Sequence[str], cfg: FeatureConfig, table: TokenTable | None = None) -> list[EncodedDoc]:
    """The ids of ``encode(tokenize(corpus.normalize_text(text)))`` for each
    text; order preserved. Raw and normalized text give the same ids, since
    normalization is idempotent.

    With unigrams, ASCII texts are tokenized and hashed in numpy, _BLOCK
    texts at a time, and never touch ``table``; of them, only those that
    hold ``@``, ``://`` or, in any letter case, ``www.`` are normalized
    first, the rest are only lowercased (``corpus.only_case_changes``).
    Every other text (non-ASCII, or any text when ``cfg.ngram == 2``) is
    normalized and then takes
    ``encode(tokenize(text))`` one at a time, with one token table for the
    whole call, or for every call that passes the same ``table`` (a
    ``TokenTable(cfg.hash_bits)``).
    """
    if table is None:
        table = TokenTable(cfg.hash_bits)
    docs: list[EncodedDoc | None] = [None] * len(texts)
    ascii_at = [i for i, text in enumerate(texts) if text.isascii()] if cfg.ngram == 1 else []
    for lo in range(0, len(ascii_at), _BLOCK):
        block = ascii_at[lo : lo + _BLOCK]
        for i, doc in zip(block, _encode_ascii_block([texts[i] for i in block], cfg)):
            docs[i] = doc
    return [encode(tokenize(corpus.normalize_text(text)), cfg, table) if doc is None else doc
            for text, doc in zip(texts, docs)]
