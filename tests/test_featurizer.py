"""Tokenization and hashing-trick encoding."""

import os
import string
import subprocess
import sys
import tracemalloc
import unicodedata
import warnings
from itertools import groupby
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from harmkit import corpus, featurizer, synth
from harmkit.featurizer import FeatureConfig, batch_encode, encode, fnv1a64, tokenize

SRC = Path(__file__).resolve().parents[1] / "src"


def char_kind_reference(ch: str) -> str:
    """'space', 'word' (letters, digits, combining marks, underscore), or 'punct'."""
    if ch.isspace():
        return "space"
    if ch == "_" or unicodedata.category(ch)[0] in ("L", "N", "M"):
        return "word"
    return "punct"


def tokenize_reference(text: str) -> list[str]:
    """The character-by-character tokenizer the compiled regex replaced."""
    return ["".join(run) for kind, run in groupby(text, key=char_kind_reference) if kind != "space"]


def encode_reference(tokens, cfg):
    """Every unigram id, then every bigram id, then head truncation."""
    def token_id(token):
        return fnv1a64_reference(token.encode("utf-8")) % 2**cfg.hash_bits

    ids = [token_id(tok) for tok in tokens]
    if cfg.ngram == 2:
        ids.extend(token_id(a + "\x1f" + b) for a, b in zip(tokens, tokens[1:]))
    return np.asarray(ids[: cfg.max_tokens], dtype=np.int64)


# Characters where a tokenizer is easy to get wrong: combining marks of all
# three M categories (BMP and astral), astral letters, digits and emoji,
# the information separators U+001C..U+001F (whitespace to str.isspace),
# no-break spaces, NEL and the line separator (whitespace outside ASCII),
# a lone surrogate, the underscore and ASCII punctuation.
TRICKY = [
    "\u0301", "\u093f", "\u094d", "\u20dd", "\U0001d167", "\U000e0100",
    "\U00010400", "\U0001d7ce", "\U0001f600", "\U0001f3fd",
    "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2007", "\u202f", "\u3000", "\x85", "\u2028",
    "\ud800", "_", " ", "\t", "\n", ".", "!", "a", "7", "न", "ম",
]


# The ASCII characters where the two tokenizer classes meet: the information
# separators, the underscore, digits and punctuation runs.
ASCII_TRICKY = ["\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x7f", "\x00", "_", "__", "7", "09",
                "...", "!?", "-_-", "a", "Z"]


# The ASCII word characters, every ASCII whitespace character (written out
# here, not derived from str.isspace), and the rest of ASCII: punctuation.
ASCII_WORD = string.ascii_letters + string.digits + "_"
ASCII_SPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
ASCII_PUNCT = [chr(cp) for cp in range(128) if chr(cp) not in ASCII_WORD + ASCII_SPACE]

# Every ASCII punctuation character; the danda, the double danda and 80 emoji.
PUNCT_ALPHABETS = ["".join(ASCII_PUNCT), "\u0964\u0965" + "".join(map(chr, range(0x1F600, 0x1F650)))]


def fnv1a64_reference(data: bytes) -> int:
    """Independent FNV-1a oracle, written from the published constants."""
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % 2**64
    return h


class TestTokenize:
    def test_whitespace_and_punctuation(self):
        assert tokenize("hello, world") == ["hello", ",", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_mixed_script(self):
        # Hand-applied rule: both runs are word characters, split only on the space.
        assert tokenize("नमस्ते hello") == ["नमस्ते", "hello"]

    def test_punctuation_runs_are_single_tokens(self):
        assert tokenize("a!!b... c?!") == ["a", "!!", "b", "...", "c", "?!"]

    def test_digits_and_underscore_are_word_chars(self):
        assert tokenize("ab_1 2cd") == ["ab_1", "2cd"]

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.text(alphabet=st.one_of(st.characters(), st.sampled_from(TRICKY))))
    def test_matches_reference_on_any_text(self, text):
        assert tokenize(text) == tokenize_reference(text)

    @settings(max_examples=400, deadline=None)
    @given(pieces=st.lists(st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from(ASCII_TRICKY))),
           tail=st.sampled_from(["", " ", "\t\n", "\x1f", " \x1c\x1d\x1e "]))
    def test_matches_reference_on_ascii_text(self, pieces, tail):
        # ASCII text only, rich in the characters where the classes meet.
        text = "".join(pieces) + tail
        assert text.isascii()
        assert tokenize(text) == tokenize_reference(text)

    @settings(max_examples=400, deadline=None)
    @given(runs=st.lists(st.one_of(st.text(ASCII_WORD, min_size=1), st.text(ASCII_SPACE, min_size=1),
                                   st.text(st.sampled_from(ASCII_PUNCT), min_size=1))))
    def test_ascii_runs_split_like_the_reference(self, runs):
        # Word, whitespace and punctuation runs in any order, so punctuation
        # runs meet words, whitespace, the ends of the text and each other.
        text = "".join(runs)
        assert tokenize(text) == tokenize_reference(text)

    def test_ascii_edge_texts_match_the_reference(self):
        every_ascii = "".join(map(chr, range(128)))
        for text in ["", ASCII_SPACE, ASCII_WORD, f"{ASCII_SPACE}ab_1{ASCII_SPACE}9Z c{ASCII_SPACE}",
                     every_ascii, every_ascii[::-1], "<user> hi!! <url>", *(f"ab {ch}c{ch}{ch}" for ch in ASCII_PUNCT)]:
            assert tokenize(text) == tokenize_reference(text)

    @staticmethod
    def check_punctuation_texts(punct):
        # Each character next to words, doubled and in one long run, in ASCII
        # text (for an ASCII alphabet) and in text with Devanagari.
        assert len(set(punct)) == len(punct)
        text = " ".join(f"{ch}w{i}{ch}{ch}x_{ch}" for i, ch in enumerate(punct)) + punct + punct[::-1]
        assert text.isascii() == punct.isascii()
        for mixed in (text, text + "\u0928\u094d", "\u0928\u094d" + text):
            assert tokenize(mixed) == tokenize_reference(mixed)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("alphabet", PUNCT_ALPHABETS, ids=["ascii", "non-ascii"])
    def test_replace_and_translate_fences_match_the_reference(self, alphabet, extra):
        # 48 and 49 distinct punctuation characters: the texts on either side
        # of the switch from replace to translate fencing in the tokenizer
        # that the code-point front replaced, kept as reference cases.
        self.check_punctuation_texts(alphabet[: 48 + extra])

    @pytest.mark.parametrize("alphabet", PUNCT_ALPHABETS, ids=["ascii", "non-ascii"])
    def test_many_punctuation_characters_match_the_reference(self, alphabet):
        # Every ASCII punctuation character, or the danda, the double danda
        # and 80 emoji.
        assert len(alphabet) >= 55
        self.check_punctuation_texts(alphabet)

    def test_every_code_point_has_the_reference_kind(self):
        # "a" + ch is one token when ch is a word character, two when it is
        # punctuation, and just "a" when it is whitespace; a space ends each
        # piece. The 128 ASCII code points go in one ASCII text, every other
        # code point (lone surrogates included) in texts of up to 4096 pieces.
        def want(ch):
            kind = char_kind_reference(ch)
            return ["a" + ch] if kind == "word" else ["a", ch] if kind == "punct" else ["a"]

        wrong = []
        bounds = [0, 128, *range(4096, sys.maxunicode + 1, 4096), sys.maxunicode + 1]
        for lo, hi in zip(bounds, bounds[1:]):
            chars = list(map(chr, range(lo, hi)))
            if tokenize("".join(f"a{ch} " for ch in chars)) != [token for ch in chars for token in want(ch)]:
                wrong.extend(f"U+{ord(ch):04X}" for ch in chars if tokenize(f"a{ch} ") != want(ch))
        assert wrong == []

    def test_trailing_whitespace_is_linear(self):
        # A regex whose leading \s* is retried from every position of a
        # trailing run would take hours on these inputs, and so would one
        # replace pass per distinct punctuation character on the last one;
        # run them in a child process that the timeout can kill. ASCII and
        # other text get whitespace-only input, 200k-character leading and
        # trailing runs and a 200k-character punctuation run. The last text
        # is 3.9M characters that hold each of the 131068 supplementary
        # private-use code points, all punctuation.
        script = (
            "from harmkit.featurizer import tokenize\n"
            "for space in (' ', '\\u3000'):\n"
            "    run = space * 200_000\n"
            "    assert tokenize(run) == []\n"
            "    assert tokenize('a' + run) == tokenize(run + 'a' + run) == ['a']\n"
            "    assert tokenize('a.' + run) == tokenize(run + 'a.' + run) == ['a', '.']\n"
            "    assert tokenize(run + '.!' * 100_000 + run) == ['.!' * 100_000]\n"
            "    assert tokenize(run + '\\u0928' + run) == ['\\u0928']\n"
            "words = ['\\u0928\\u092e\\u0938\\u094d\\u0924\\u0947', 'abcdefghijklmnopqrstu']\n"
            "private = [chr(cp) for plane in (15, 16) for cp in range(plane << 16, (plane << 16) + 0xfffe)]\n"
            "text = ''.join(ch + ' '.join(words) + ' ' for ch in private)\n"
            "assert len(text) > 3_900_000\n"
            "assert tokenize(text) == [token for ch in private for token in (ch, *words)]\n"
        )
        subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                       timeout=60, check=True)


class TestHash:
    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(5)
        words = ["", "a", "hello", "नमस्ते", "<url>"] + [
            "w" + str(int(x)) for x in rng.integers(0, 10**9, size=50)
        ]
        for word in words:
            assert fnv1a64(word.encode("utf-8")) == fnv1a64_reference(word.encode("utf-8"))

    def test_known_vector(self):
        # FNV-1a of empty input is the offset basis.
        assert fnv1a64(b"") == 14695981039346656037


class TestEncode:
    def test_truncation_to_max_tokens(self):
        cfg = FeatureConfig(max_tokens=512)
        doc = encode([f"t{i}" for i in range(600)], cfg)
        assert len(doc) == 512

    def test_empty(self):
        doc = encode([], FeatureConfig())
        assert doc.size == 0

    def test_hash_determinism_same_token(self):
        doc = encode(["same", "same"], FeatureConfig())
        assert doc[0] == doc[1]

    def test_truncation_prefix_property(self):
        rng = np.random.default_rng(11)
        tokens = [f"w{int(x)}" for x in rng.integers(0, 50, size=300)]
        full = encode(tokens, FeatureConfig(max_tokens=1000))
        cut = encode(tokens, FeatureConfig(max_tokens=40))
        assert np.array_equal(cut, full[:40])

    def test_id_range(self):
        rng = np.random.default_rng(13)
        cfg = FeatureConfig(hash_bits=9)
        for _ in range(50):
            tokens = [f"w{int(x)}" for x in rng.integers(0, 10**6, size=int(rng.integers(0, 30)))]
            doc = encode(tokens, cfg)
            assert np.all(doc >= 0)
            assert np.all(doc < 2**9)

    def test_bigrams_follow_unigrams(self):
        cfg1 = FeatureConfig(ngram=1)
        cfg2 = FeatureConfig(ngram=2)
        uni = encode(["a", "b", "c"], cfg1)
        both = encode(["a", "b", "c"], cfg2)
        assert both.size == 5  # 3 unigrams + 2 bigrams
        assert np.array_equal(both[:3], uni)

    @pytest.mark.parametrize("ngram", [1, 2])
    @pytest.mark.parametrize("max_tokens", [1, 2, 5, 9, 512])
    def test_matches_reference(self, ngram, max_tokens):
        rng = np.random.default_rng(19)
        cfg = FeatureConfig(hash_bits=10, max_tokens=max_tokens, ngram=ngram)
        # The last two are longer than the kernel's byte columns.
        words = ["a", "b", "!!", "नमस्ते", "\U0001f600", "<url>", "x_1", "", "अन्तर्राष्ट्रीयकरण", "w" * 40]
        for n in range(12):
            for _ in range(5):
                tokens = [words[int(i)] for i in rng.integers(0, len(words), size=n)]
                doc = encode(tokens, cfg)
                assert doc.dtype == np.int64
                assert np.array_equal(doc, encode_reference(tokens, cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(max_tokens=0)
        with pytest.raises(ValueError):
            FeatureConfig(hash_bits=7)
        with pytest.raises(ValueError):
            FeatureConfig(hash_bits=23)
        with pytest.raises(ValueError):
            FeatureConfig(ngram=3)


class TestBatchEncode:
    def test_equals_per_doc_loop(self):
        # Oracle: the composition of tokenize and encode applied one document
        # at a time must match the batch call exactly.
        rng = np.random.default_rng(17)
        vocab = [f"word{i}" for i in range(80)] + [",", "!!", "..."]
        texts = [
            " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, 40))))
            for _ in range(1000)
        ]
        cfg = FeatureConfig(hash_bits=12, max_tokens=30)
        batched = batch_encode(texts, cfg)
        assert len(batched) == len(texts)
        for text, doc in zip(texts, batched):
            single = encode(tokenize(text), cfg)
            assert np.array_equal(doc, single)

    @pytest.mark.parametrize("ngram", [1, 2])
    @pytest.mark.parametrize("max_tokens", [1, 4, 512])
    def test_equals_per_doc_encode_on_mixed_text(self, ngram, max_tokens):
        rng = np.random.default_rng(23)
        pieces = ["w1", "w2", "w3", ",", "!!", "नमस्ते", "\u0301x", "\U0001f600", " ", "  ", "\xa0", "\x1f"]
        texts = ["".join(pieces[int(i)] for i in rng.integers(0, len(pieces), size=int(rng.integers(0, 30))))
                 for _ in range(300)]
        cfg = FeatureConfig(hash_bits=11, max_tokens=max_tokens, ngram=ngram)
        batched = batch_encode(texts, cfg)
        assert len(batched) == len(texts)
        for text, doc in zip(map(corpus.normalize_text, texts), batched):
            assert np.array_equal(doc, encode(tokenize(text), cfg))
            assert np.array_equal(doc, encode_reference(tokenize_reference(text), cfg))

    def test_empty_batch(self):
        assert batch_encode([], FeatureConfig()) == []

    def test_no_text_reaches_tokenize(self, monkeypatch):
        # Texts of every script are tokenized by the block front, with either
        # n-gram order.
        seen = []

        def recording(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr(featurizer, "tokenize", recording)
        texts = ["ab, cd", "caf\xe9 ok", "", "x_1 !!", "\u0928 X", "hi @Bob", "\u212a\U0001f600!!"]
        for ngram in (1, 2):
            cfg = FeatureConfig(ngram=ngram)
            docs = batch_encode(texts, cfg)
            assert seen == []
            for text, doc in zip(map(corpus.normalize_text, texts), docs):
                assert np.array_equal(doc, encode_reference(tokenize_reference(text), cfg))

    def test_long_runs_are_linear(self):
        # The inputs of test_trailing_whitespace_is_linear in one block, in a
        # child process that the timeout can kill: whitespace runs of 200k
        # characters, a 200k-character punctuation token (hashed past the
        # byte columns) and 3.9M characters that hold each supplementary
        # private-use code point, whose tokens are mapped to UTF-8 bytes.
        script = (
            "import numpy as np\n"
            "from harmkit.corpus import normalize_text\n"
            "from harmkit.featurizer import FeatureConfig, batch_encode, encode, tokenize\n"
            "texts = []\n"
            "for space in (' ', '\\u3000'):\n"
            "    run = space * 200_000\n"
            "    texts += [run, 'a' + run, run + 'a' + run, 'a.' + run, run + 'a.' + run,\n"
            "              run + '.!' * 100_000 + run, run + '\\u0928' + run]\n"
            "words = ['\\u0928\\u092e\\u0938\\u094d\\u0924\\u0947', 'abcdefghijklmnopqrstu']\n"
            "private = [chr(cp) for plane in (15, 16) for cp in range(plane << 16, (plane << 16) + 0xfffe)]\n"
            "texts.append(''.join(ch + ' '.join(words) + ' ' for ch in private))\n"
            "for ngram in (1, 2):\n"
            "    cfg = FeatureConfig(max_tokens=2**31, ngram=ngram)\n"
            "    docs = batch_encode(texts, cfg)\n"
            "    assert docs[-1].size == 3 * len(private) * ngram - ngram + 1\n"
            "    for text, doc in zip(texts, docs):\n"
            "        assert np.array_equal(doc, encode(tokenize(normalize_text(text)), cfg))\n"
        )
        subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                       timeout=60, check=True)

    def test_block_peak_memory_at_most_the_per_doc_path(self):
        # A predict chunk of 1024 long ASCII documents. Both paths hold the ids
        # they return; beyond those, the per-doc path holds one document's
        # tokens at a time, and batch_encode one block's bytes, token bounds
        # and hash states, which must take less than half as much as the
        # chunk's ids. A document holding a view of its block, not a copy,
        # would keep every block alive and break the bound.
        examples = synth.generate_corpus(classes=4, docs_per_class=256, overlap=0.5, shared_pool=20000,
                                         doc_len=(100, 400), seed=3)
        texts = [corpus.normalize_text(ex.text) for ex in examples]
        assert len(texts) == 1024 and all(text.isascii() for text in texts)
        cfg = FeatureConfig()

        def peak(encode_all):
            tracemalloc.start()
            try:
                docs = encode_all()
                return tracemalloc.get_traced_memory()[1], docs
            finally:
                tracemalloc.stop()

        per_doc_peak, want = peak(lambda: [encode(tokenize(text), cfg) for text in texts])
        batch_peak, got = peak(lambda: batch_encode(texts, cfg))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert batch_peak <= per_doc_peak + sum(doc.nbytes for doc in want) // 2


# Tokens of their own, so that bigrams pair long tokens with short and long
# ones: non-ASCII word and punctuation runs of up to 32 characters (up to 96
# bytes of Devanagari or Bangla and 128 of emoji in UTF-8), and ASCII words
# up to three times as long as the kernel's byte columns.
LONG_TOKENS = st.lists(st.one_of(st.text(st.sampled_from("\u0928\u092e\u0938\u094d\u0924\u0947\u0995\u09cd\u09ac"),
                                         min_size=1, max_size=featurizer._COLUMNS),
                                 st.text(st.sampled_from("\U0001f600\U0001f64f\u0964"), min_size=1,
                                         max_size=featurizer._COLUMNS),
                                 st.text(ASCII_WORD, min_size=1, max_size=3 * featurizer._COLUMNS)),
                       max_size=6).map(" ".join)
# Every pair of short tokens and tokens longer than the byte columns
# (33 ASCII bytes, an 18-letter Devanagari word of 54 bytes, 9 emoji of 36).
SHORT_AND_LONG = ("ab", "W" * 33, "अन्तर्राष्ट्रीयकरण", "\U0001f600" * 9, "न", "!")
LONG_PAIRS = [f"{a} {b}" for a in SHORT_AND_LONG for b in SHORT_AND_LONG]
# Every ASCII character, the classes' meeting points, tokens longer than the
# kernel's byte columns, and non-ASCII characters for mixed batches.
ASCII_DOCS = st.lists(st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from(ASCII_TRICKY)),
                      max_size=40).map("".join)
KERNEL_DOCS = st.one_of(
    ASCII_DOCS,
    st.just(""),
    st.text(ASCII_SPACE, min_size=1, max_size=6),
    st.lists(st.one_of(st.text(ASCII_WORD, min_size=1, max_size=3 * featurizer._COLUMNS),
                       st.text(st.sampled_from(ASCII_PUNCT), min_size=1, max_size=3 * featurizer._COLUMNS),
                       st.text(ASCII_SPACE, min_size=1, max_size=3)), max_size=8).map("".join),
    # A lone surrogate has no UTF-8 encoding to hash.
    st.text(st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from([ch for ch in TRICKY if ch != "\ud800"])),
            max_size=20),
    LONG_TOKENS,
)


class TestAsciiKernel:
    def test_kinds_are_the_reference_kinds(self):
        kinds = {"space": 0, "word": 1, "punct": 2}
        assert list(featurizer._ASCII_KIND[:128]) == [kinds[char_kind_reference(chr(cp))] for cp in range(128)]

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(texts=st.lists(KERNEL_DOCS, max_size=24), block=st.sampled_from([1, 3, 64]), ngram=st.sampled_from([1, 2]),
           max_tokens=st.sampled_from([1, 2, 7, 512]), hash_bits=st.sampled_from([8, 15, 22]))
    # LONG_PAIRS in one text and in texts of their own.
    @example(texts=[" ".join(LONG_PAIRS)], block=64, ngram=2, max_tokens=512, hash_bits=22)
    @example(texts=LONG_PAIRS, block=64, ngram=2, max_tokens=4, hash_bits=22)
    def test_equals_per_doc_path_and_reference(self, texts, block, ngram, max_tokens, hash_bits):
        # Numpy warns when a uint64 scalar (not an array) overflows, so any
        # scalar slipping into the hash loop fails here.
        cfg = FeatureConfig(max_tokens=max_tokens, hash_bits=hash_bits, ngram=ngram)
        with warnings.catch_warnings(), mock.patch.object(featurizer, "_BLOCK", block):
            warnings.simplefilter("error")
            docs = batch_encode(texts, cfg)
        assert len(docs) == len(texts)
        for text, doc in zip(map(corpus.normalize_text, texts), docs):
            assert doc.dtype == np.int64
            assert np.array_equal(doc, encode(tokenize(text), cfg))
            assert np.array_equal(doc, encode_reference(tokenize_reference(text), cfg))

    def test_every_ascii_code_across_blocks(self):
        # Batches larger than the real block, each text a rotation of all 128
        # codes plus a long word and a long punctuation run, every fourth one
        # non-ASCII.
        every_ascii = "".join(map(chr, range(128)))
        texts = [every_ascii[k:] + every_ascii[:k] + " " + "w" * (k % 80) + "!" * (k % 70) for k in range(150)]
        texts = [text + "\xe9" if k % 4 == 3 else text for k, text in enumerate(texts)]
        for max_tokens in (1, 2, 7, 512):
            for hash_bits in (8, 15, 22):
                cfg = FeatureConfig(max_tokens=max_tokens, hash_bits=hash_bits)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    docs = batch_encode(texts, cfg)
                for text, doc in zip(map(corpus.normalize_text, texts), docs):
                    assert np.array_equal(doc, encode_reference(tokenize_reference(text), cfg))


# Raw text where normalization and the ASCII kernel meet: uppercase, mentions,
# URL prefixes in any letter case, "@" with no name after it, the ASCII
# whitespace other than U+0020, control bytes, runs of spaces, and non-ASCII
# text (Devanagari, a decomposed and a precomposed accent, the Kelvin sign,
# which NFC turns into ASCII "K", a no-break space, and capital J and T with
# marks that compose only with their lowercase letters).
RAW_PIECES = ["Hello", "WORLD", "ok", "@name", "@Bob_1", "@", "@@", "x@y", "HTTP://X.Y/Z", "https://a.b/c",
              "hTtP://", "://", "ftp://z", "WwW.", "WwW.Site.COM", "www.", "wWw.x", "\x0b", "\x0c", "\x1c",
              "\x1d", "\x1e", "\x1f", "\x00", "\x07", "\x7f", " ", "  ", "\t", "\n", "!!", ".", "<", ">",
              "न", "नमस्ते", "e\u0301", "\xe9", "\u212a", "\xa0", "J\u030c", "T\u0308"]
RAW_DOCS = st.lists(st.one_of(st.sampled_from(RAW_PIECES), st.characters(max_codepoint=0x7F)),
                    max_size=30).map("".join)


class TestBatchEncodeNormalizes:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(texts=st.lists(RAW_DOCS, max_size=24), block=st.sampled_from([1, 3, 64]), ngram=st.sampled_from([1, 2]),
           max_tokens=st.sampled_from([1, 7, 512]))
    def test_raw_text_gives_the_ids_of_its_normalized_text(self, texts, block, ngram, max_tokens):
        cfg = FeatureConfig(max_tokens=max_tokens, ngram=ngram)
        normalized = [corpus.normalize_text(text) for text in texts]
        with mock.patch.object(featurizer, "_BLOCK", block):
            docs = batch_encode(texts, cfg)
            again = batch_encode(normalized, cfg)
        assert len(docs) == len(texts)
        for text, doc, doc_again in zip(normalized, docs, again):
            assert np.array_equal(doc, encode_reference(tokenize_reference(text), cfg))
            assert np.array_equal(doc_again, doc)

    def test_kernel_safe_texts_are_never_normalized(self, monkeypatch):
        seen, normalize_text = [], corpus.normalize_text

        def recording(text):
            seen.append(text)
            return normalize_text(text)

        monkeypatch.setattr(corpus, "normalize_text", recording)
        safe = ["Hello World", "a.b:c/d", "w.w.w", "", "  X\x1fY  "]
        unsafe = ["hi @bob", "@", "see HTTP://x.y", "ftp://z", "WwW.", "caf\xe9", "\u212a"]
        texts = [text for pair in zip(safe + unsafe, unsafe + safe) for text in pair]
        for block in (1, 3, 64):
            for ngram in (1, 2):
                seen.clear()
                with mock.patch.object(featurizer, "_BLOCK", block):
                    batch_encode(texts, FeatureConfig(ngram=ngram))
                assert sorted(seen) == sorted(text for text in texts if text in unsafe)
