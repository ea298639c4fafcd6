"""Hashing-trick featurization: text to fixed-vocabulary token-id sequences.

Tokenization splits text into maximal runs of word characters and maximal
runs of punctuation, dropping whitespace. A character is whitespace when
``str.isspace`` says so; otherwise it is a word character when it is ``_`` or
in Unicode category L, N or M (letters, digits, combining marks), and
punctuation when it is anything else. Combining marks count as word
characters so that scripts written with them (Devanagari, Bangla, ...) keep
whole words together; the regex ``\\w`` alone would split them off. ASCII
text is split with ``str.split`` once a separator fences off each
punctuation run, which gives the same tokens as the regex.

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

import re
import sys
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

# Inclusive code-point ranges of the word characters (``_`` and categories L,
# N, M) that the regex ``\w`` does not match: all of them are combining marks.
# ``\w`` plus these ranges is exactly the word class. Generated by
# ``_mark_ranges()`` from the Unicode database version below.
_MARK_RANGES_UNIDATA = "14.0.0"
_MARK_RANGES = (
    (0x0300, 0x036F), (0x0483, 0x0489), (0x0591, 0x05BD), (0x05BF, 0x05BF), (0x05C1, 0x05C2),
    (0x05C4, 0x05C5), (0x05C7, 0x05C7), (0x0610, 0x061A), (0x064B, 0x065F), (0x0670, 0x0670),
    (0x06D6, 0x06DC), (0x06DF, 0x06E4), (0x06E7, 0x06E8), (0x06EA, 0x06ED), (0x0711, 0x0711),
    (0x0730, 0x074A), (0x07A6, 0x07B0), (0x07EB, 0x07F3), (0x07FD, 0x07FD), (0x0816, 0x0819),
    (0x081B, 0x0823), (0x0825, 0x0827), (0x0829, 0x082D), (0x0859, 0x085B), (0x0898, 0x089F),
    (0x08CA, 0x08E1), (0x08E3, 0x0903), (0x093A, 0x093C), (0x093E, 0x094F), (0x0951, 0x0957),
    (0x0962, 0x0963), (0x0981, 0x0983), (0x09BC, 0x09BC), (0x09BE, 0x09C4), (0x09C7, 0x09C8),
    (0x09CB, 0x09CD), (0x09D7, 0x09D7), (0x09E2, 0x09E3), (0x09FE, 0x09FE), (0x0A01, 0x0A03),
    (0x0A3C, 0x0A3C), (0x0A3E, 0x0A42), (0x0A47, 0x0A48), (0x0A4B, 0x0A4D), (0x0A51, 0x0A51),
    (0x0A70, 0x0A71), (0x0A75, 0x0A75), (0x0A81, 0x0A83), (0x0ABC, 0x0ABC), (0x0ABE, 0x0AC5),
    (0x0AC7, 0x0AC9), (0x0ACB, 0x0ACD), (0x0AE2, 0x0AE3), (0x0AFA, 0x0AFF), (0x0B01, 0x0B03),
    (0x0B3C, 0x0B3C), (0x0B3E, 0x0B44), (0x0B47, 0x0B48), (0x0B4B, 0x0B4D), (0x0B55, 0x0B57),
    (0x0B62, 0x0B63), (0x0B82, 0x0B82), (0x0BBE, 0x0BC2), (0x0BC6, 0x0BC8), (0x0BCA, 0x0BCD),
    (0x0BD7, 0x0BD7), (0x0C00, 0x0C04), (0x0C3C, 0x0C3C), (0x0C3E, 0x0C44), (0x0C46, 0x0C48),
    (0x0C4A, 0x0C4D), (0x0C55, 0x0C56), (0x0C62, 0x0C63), (0x0C81, 0x0C83), (0x0CBC, 0x0CBC),
    (0x0CBE, 0x0CC4), (0x0CC6, 0x0CC8), (0x0CCA, 0x0CCD), (0x0CD5, 0x0CD6), (0x0CE2, 0x0CE3),
    (0x0D00, 0x0D03), (0x0D3B, 0x0D3C), (0x0D3E, 0x0D44), (0x0D46, 0x0D48), (0x0D4A, 0x0D4D),
    (0x0D57, 0x0D57), (0x0D62, 0x0D63), (0x0D81, 0x0D83), (0x0DCA, 0x0DCA), (0x0DCF, 0x0DD4),
    (0x0DD6, 0x0DD6), (0x0DD8, 0x0DDF), (0x0DF2, 0x0DF3), (0x0E31, 0x0E31), (0x0E34, 0x0E3A),
    (0x0E47, 0x0E4E), (0x0EB1, 0x0EB1), (0x0EB4, 0x0EBC), (0x0EC8, 0x0ECD), (0x0F18, 0x0F19),
    (0x0F35, 0x0F35), (0x0F37, 0x0F37), (0x0F39, 0x0F39), (0x0F3E, 0x0F3F), (0x0F71, 0x0F84),
    (0x0F86, 0x0F87), (0x0F8D, 0x0F97), (0x0F99, 0x0FBC), (0x0FC6, 0x0FC6), (0x102B, 0x103E),
    (0x1056, 0x1059), (0x105E, 0x1060), (0x1062, 0x1064), (0x1067, 0x106D), (0x1071, 0x1074),
    (0x1082, 0x108D), (0x108F, 0x108F), (0x109A, 0x109D), (0x135D, 0x135F), (0x1712, 0x1715),
    (0x1732, 0x1734), (0x1752, 0x1753), (0x1772, 0x1773), (0x17B4, 0x17D3), (0x17DD, 0x17DD),
    (0x180B, 0x180D), (0x180F, 0x180F), (0x1885, 0x1886), (0x18A9, 0x18A9), (0x1920, 0x192B),
    (0x1930, 0x193B), (0x1A17, 0x1A1B), (0x1A55, 0x1A5E), (0x1A60, 0x1A7C), (0x1A7F, 0x1A7F),
    (0x1AB0, 0x1ACE), (0x1B00, 0x1B04), (0x1B34, 0x1B44), (0x1B6B, 0x1B73), (0x1B80, 0x1B82),
    (0x1BA1, 0x1BAD), (0x1BE6, 0x1BF3), (0x1C24, 0x1C37), (0x1CD0, 0x1CD2), (0x1CD4, 0x1CE8),
    (0x1CED, 0x1CED), (0x1CF4, 0x1CF4), (0x1CF7, 0x1CF9), (0x1DC0, 0x1DFF), (0x20D0, 0x20F0),
    (0x2CEF, 0x2CF1), (0x2D7F, 0x2D7F), (0x2DE0, 0x2DFF), (0x302A, 0x302F), (0x3099, 0x309A),
    (0xA66F, 0xA672), (0xA674, 0xA67D), (0xA69E, 0xA69F), (0xA6F0, 0xA6F1), (0xA802, 0xA802),
    (0xA806, 0xA806), (0xA80B, 0xA80B), (0xA823, 0xA827), (0xA82C, 0xA82C), (0xA880, 0xA881),
    (0xA8B4, 0xA8C5), (0xA8E0, 0xA8F1), (0xA8FF, 0xA8FF), (0xA926, 0xA92D), (0xA947, 0xA953),
    (0xA980, 0xA983), (0xA9B3, 0xA9C0), (0xA9E5, 0xA9E5), (0xAA29, 0xAA36), (0xAA43, 0xAA43),
    (0xAA4C, 0xAA4D), (0xAA7B, 0xAA7D), (0xAAB0, 0xAAB0), (0xAAB2, 0xAAB4), (0xAAB7, 0xAAB8),
    (0xAABE, 0xAABF), (0xAAC1, 0xAAC1), (0xAAEB, 0xAAEF), (0xAAF5, 0xAAF6), (0xABE3, 0xABEA),
    (0xABEC, 0xABED), (0xFB1E, 0xFB1E), (0xFE00, 0xFE0F), (0xFE20, 0xFE2F), (0x101FD, 0x101FD),
    (0x102E0, 0x102E0), (0x10376, 0x1037A), (0x10A01, 0x10A03), (0x10A05, 0x10A06), (0x10A0C, 0x10A0F),
    (0x10A38, 0x10A3A), (0x10A3F, 0x10A3F), (0x10AE5, 0x10AE6), (0x10D24, 0x10D27), (0x10EAB, 0x10EAC),
    (0x10F46, 0x10F50), (0x10F82, 0x10F85), (0x11000, 0x11002), (0x11038, 0x11046), (0x11070, 0x11070),
    (0x11073, 0x11074), (0x1107F, 0x11082), (0x110B0, 0x110BA), (0x110C2, 0x110C2), (0x11100, 0x11102),
    (0x11127, 0x11134), (0x11145, 0x11146), (0x11173, 0x11173), (0x11180, 0x11182), (0x111B3, 0x111C0),
    (0x111C9, 0x111CC), (0x111CE, 0x111CF), (0x1122C, 0x11237), (0x1123E, 0x1123E), (0x112DF, 0x112EA),
    (0x11300, 0x11303), (0x1133B, 0x1133C), (0x1133E, 0x11344), (0x11347, 0x11348), (0x1134B, 0x1134D),
    (0x11357, 0x11357), (0x11362, 0x11363), (0x11366, 0x1136C), (0x11370, 0x11374), (0x11435, 0x11446),
    (0x1145E, 0x1145E), (0x114B0, 0x114C3), (0x115AF, 0x115B5), (0x115B8, 0x115C0), (0x115DC, 0x115DD),
    (0x11630, 0x11640), (0x116AB, 0x116B7), (0x1171D, 0x1172B), (0x1182C, 0x1183A), (0x11930, 0x11935),
    (0x11937, 0x11938), (0x1193B, 0x1193E), (0x11940, 0x11940), (0x11942, 0x11943), (0x119D1, 0x119D7),
    (0x119DA, 0x119E0), (0x119E4, 0x119E4), (0x11A01, 0x11A0A), (0x11A33, 0x11A39), (0x11A3B, 0x11A3E),
    (0x11A47, 0x11A47), (0x11A51, 0x11A5B), (0x11A8A, 0x11A99), (0x11C2F, 0x11C36), (0x11C38, 0x11C3F),
    (0x11C92, 0x11CA7), (0x11CA9, 0x11CB6), (0x11D31, 0x11D36), (0x11D3A, 0x11D3A), (0x11D3C, 0x11D3D),
    (0x11D3F, 0x11D45), (0x11D47, 0x11D47), (0x11D8A, 0x11D8E), (0x11D90, 0x11D91), (0x11D93, 0x11D97),
    (0x11EF3, 0x11EF6), (0x16AF0, 0x16AF4), (0x16B30, 0x16B36), (0x16F4F, 0x16F4F), (0x16F51, 0x16F87),
    (0x16F8F, 0x16F92), (0x16FE4, 0x16FE4), (0x16FF0, 0x16FF1), (0x1BC9D, 0x1BC9E), (0x1CF00, 0x1CF2D),
    (0x1CF30, 0x1CF46), (0x1D165, 0x1D169), (0x1D16D, 0x1D172), (0x1D17B, 0x1D182), (0x1D185, 0x1D18B),
    (0x1D1AA, 0x1D1AD), (0x1D242, 0x1D244), (0x1DA00, 0x1DA36), (0x1DA3B, 0x1DA6C), (0x1DA75, 0x1DA75),
    (0x1DA84, 0x1DA84), (0x1DA9B, 0x1DA9F), (0x1DAA1, 0x1DAAF), (0x1E000, 0x1E006), (0x1E008, 0x1E018),
    (0x1E01B, 0x1E021), (0x1E023, 0x1E024), (0x1E026, 0x1E02A), (0x1E130, 0x1E136), (0x1E2AE, 0x1E2AE),
    (0x1E2EC, 0x1E2EF), (0x1E8D0, 0x1E8D6), (0x1E944, 0x1E94A), (0xE0100, 0xE01EF),
)


def _mark_ranges() -> tuple[tuple[int, int], ...]:
    """Scan every code point for word characters that ``\\w`` misses."""
    word = re.compile(r"\w")
    ranges: list[list[int]] = []
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        if unicodedata.category(ch)[0] in "LNM" and not word.match(ch):
            if ranges and ranges[-1][1] == cp - 1:
                ranges[-1][1] = cp
            else:
                ranges.append([cp, cp])
    return tuple((first, last) for first, last in ranges)


def _token_re(mark_ranges: Sequence[tuple[int, int]]) -> re.Pattern[str]:
    # The leading \s* lets one match step over a whole whitespace run; without
    # it every space would be tried against both classes.
    word = "\\w" + "".join(f"{chr(first)}-{chr(last)}" for first, last in mark_ranges)
    return re.compile(rf"\s*([{word}]+|[^{word}\s]+)")


# The committed ranges serve when the interpreter's Unicode database is the one
# they were generated from; any other version rescans (under a second).
_TOKEN_RE = _token_re(
    _MARK_RANGES if unicodedata.unidata_version == _MARK_RANGES_UNIDATA else _mark_ranges()
)
# The kind of each ASCII byte: 0 whitespace, 1 word (``_`` or alphanumeric),
# 2 punctuation.
_ASCII_KIND = np.array(
    [0 if chr(cp).isspace() else 1 if chr(cp) == "_" or chr(cp).isalnum() else 2 for cp in range(128)], np.uint8
)
# The ASCII bytes that are word characters or whitespace; deleting them from
# an ASCII text leaves its punctuation.
_ASCII_WORD_OR_SPACE = bytes(np.flatnonzero(_ASCII_KIND != 2).tolist())
# A character that ``str.split`` splits on and no ASCII text holds, and, for
# each ASCII punctuation byte, its character and that character between two
# separators.
_SEP = "\x85"
_FENCED = {cp: (chr(cp), f"{_SEP}{chr(cp)}{_SEP}") for cp in range(128) if cp not in _ASCII_WORD_OR_SPACE}
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
    if not text.isascii():
        # Trailing whitespace is stripped first: findall would otherwise retry
        # the leading \s* from every position of a trailing run, quadratic in
        # its length.
        return _TOKEN_RE.findall(text.rstrip())
    # No combining mark is ASCII, so the tokens are the maximal runs of word
    # and of punctuation characters. Fencing every punctuation character with
    # separators and then dropping the pairs between two of them leaves one
    # separator at each word/punctuation boundary, and ``str.split`` uses the
    # same whitespace test as ``\s``. One ``replace`` pass per distinct
    # punctuation character, so the work stays linear in the text.
    punct = text.encode().translate(None, _ASCII_WORD_OR_SPACE)
    if punct:
        for cp in set(punct):
            text = text.replace(*_FENCED[cp])
        text = text.replace(_SEP + _SEP, "")
    return text.split()


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
