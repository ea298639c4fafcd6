"""Tokenization and hashing-trick encoding."""

import json
import os
import subprocess
import sys
import unicodedata
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmkit import featurizer
from harmkit.featurizer import FeatureConfig, TokenTable, batch_encode, encode, fnv1a64, tokenize

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
# no-break spaces, a lone surrogate, the underscore and ASCII punctuation.
TRICKY = [
    "\u0301", "\u093f", "\u094d", "\u20dd", "\U0001d167", "\U000e0100",
    "\U00010400", "\U0001d7ce", "\U0001f600", "\U0001f3fd",
    "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2007", "\u202f", "\u3000",
    "\ud800", "_", " ", "\t", "\n", ".", "!", "a", "7", "न", "ম",
]


# The ASCII characters where the two tokenizer classes meet: the information
# separators, the underscore, digits and punctuation runs.
ASCII_TRICKY = ["\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x7f", "\x00", "_", "__", "7", "09",
                "...", "!?", "-_-", "a", "Z"]


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
        # ASCII text takes the pattern without the mark ranges.
        text = "".join(pieces) + tail
        assert text.isascii()
        assert tokenize(text) == featurizer._ASCII_TOKEN_RE.findall(text.rstrip()) == tokenize_reference(text)

    def test_every_code_point_has_the_reference_kind(self):
        # "a" + ch is one token when ch is a word character, two when it is
        # punctuation, and just "a" when it is whitespace.
        shape = {"word": 1, "punct": 2, "space": 0}
        wrong = []
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            got = tokenize("a" + ch)
            want = shape[char_kind_reference(ch)]
            if got != (["a" + ch] if want == 1 else ["a", ch] if want == 2 else ["a"]):
                wrong.append(f"U+{cp:04X}")
        assert wrong == []

    def test_mark_ranges_match_this_unicode_database(self):
        if unicodedata.unidata_version != featurizer._MARK_RANGES_UNIDATA:
            pytest.skip(f"ranges were generated for Unicode {featurizer._MARK_RANGES_UNIDATA}; "
                        f"this interpreter has {unicodedata.unidata_version} and rescans at import")
        rebuilt = featurizer._mark_ranges()
        if rebuilt != featurizer._MARK_RANGES:
            items = [f"(0x{a:04X}, 0x{b:04X})" for a, b in rebuilt]
            literal = "\n".join("    " + ", ".join(items[i : i + 5]) + "," for i in range(0, len(items), 5))
            pytest.fail(f"_MARK_RANGES is stale; regenerated literal:\n{literal}")
        assert all(unicodedata.category(chr(cp))[0] == "M"
                   for first, last in rebuilt for cp in range(first, last + 1))

    def test_import_scans_no_code_points_unless_the_unicode_version_differs(self):
        # Count unicodedata.category calls made while importing the module,
        # once as is and once with the database version faked.
        script = (
            "import json, sys, unicodedata\n"
            "calls = 0\n"
            "category = unicodedata.category\n"
            "def counting(ch):\n"
            "    global calls\n"
            "    calls += 1\n"
            "    return category(ch)\n"
            "unicodedata.category = counting\n"
            "if sys.argv[1] == 'other':\n"
            "    unicodedata.unidata_version = '0.0.0'\n"
            "from harmkit import featurizer\n"
            "print(json.dumps([calls, featurizer._TOKEN_RE.pattern]))\n"
        )
        runs = {}
        for version in ("same", "other"):
            out = subprocess.run([sys.executable, "-c", script, version], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True)
            runs[version] = json.loads(out.stdout)
        # An interpreter with another Unicode database (3.10 has 13.0, 3.12 has
        # 15.0) rescans without the fake too.
        committed = unicodedata.unidata_version == featurizer._MARK_RANGES_UNIDATA
        assert runs["same"][0] == (0 if committed else sys.maxunicode + 1)
        assert runs["other"][0] == sys.maxunicode + 1
        # On this interpreter the rescan rebuilds exactly the committed pattern.
        if committed:
            assert runs["other"][1] == runs["same"][1] == featurizer._TOKEN_RE.pattern

    def test_trailing_whitespace_is_linear(self):
        # A regex whose leading \s* is retried from every position of a
        # trailing run would take hours on this input; run it in a child
        # process that the timeout can kill.
        script = "from harmkit.featurizer import tokenize\nassert tokenize('a' + ' ' * 200_000) == ['a']\n"
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
        assert len(doc.ids) == 512

    def test_empty(self):
        doc = encode([], FeatureConfig())
        assert doc.ids.size == 0

    def test_hash_determinism_same_token(self):
        doc = encode(["same", "same"], FeatureConfig())
        assert doc.ids[0] == doc.ids[1]

    def test_truncation_prefix_property(self):
        rng = np.random.default_rng(11)
        tokens = [f"w{int(x)}" for x in rng.integers(0, 50, size=300)]
        full = encode(tokens, FeatureConfig(max_tokens=1000))
        cut = encode(tokens, FeatureConfig(max_tokens=40))
        assert np.array_equal(cut.ids, full.ids[:40])

    def test_id_range(self):
        rng = np.random.default_rng(13)
        cfg = FeatureConfig(hash_bits=9)
        for _ in range(50):
            tokens = [f"w{int(x)}" for x in rng.integers(0, 10**6, size=int(rng.integers(0, 30)))]
            doc = encode(tokens, cfg)
            assert np.all(doc.ids >= 0)
            assert np.all(doc.ids < 2**9)

    def test_bigrams_follow_unigrams(self):
        cfg1 = FeatureConfig(ngram=1)
        cfg2 = FeatureConfig(ngram=2)
        uni = encode(["a", "b", "c"], cfg1)
        both = encode(["a", "b", "c"], cfg2)
        assert both.ids.size == 5  # 3 unigrams + 2 bigrams
        assert np.array_equal(both.ids[:3], uni.ids)

    @pytest.mark.parametrize("ngram", [1, 2])
    @pytest.mark.parametrize("max_tokens", [1, 2, 5, 9, 512])
    def test_matches_reference(self, ngram, max_tokens):
        rng = np.random.default_rng(19)
        cfg = FeatureConfig(hash_bits=10, max_tokens=max_tokens, ngram=ngram)
        words = ["a", "b", "!!", "नमस्ते", "\U0001f600", "<url>", "x_1"]
        for n in range(12):
            for _ in range(5):
                tokens = [words[int(i)] for i in rng.integers(0, len(words), size=n)]
                doc = encode(tokens, cfg)
                assert doc.ids.dtype == np.int64
                assert np.array_equal(doc.ids, encode_reference(tokens, cfg))

    def test_table_gains_only_the_kept_unigrams(self):
        # Tokens cut by max_tokens are never hashed, and bigrams never enter the table.
        cfg = FeatureConfig(max_tokens=3, ngram=2)
        table = TokenTable(cfg.hash_bits)
        encode(["a", "b", "c", "d"], cfg, table)
        assert sorted(table) == ["a", "b", "c"]
        cfg = FeatureConfig(max_tokens=4, ngram=2)
        table = TokenTable(cfg.hash_bits)
        table["b"] = 7
        doc = encode(["a", "b", "c"], cfg, table)
        assert sorted(table) == ["a", "b", "c"]
        # A table entry is trusted as the token's id.
        assert doc.ids.tolist()[:3] == [table["a"], 7, table["c"]]
        assert doc.ids.size == 4

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
            assert np.array_equal(doc.ids, single.ids)

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
        for text, doc in zip(texts, batched):
            assert np.array_equal(doc.ids, encode(tokenize(text), cfg).ids)
            assert np.array_equal(doc.ids, encode_reference(tokenize_reference(text), cfg))

    def test_empty_batch(self):
        assert batch_encode([], FeatureConfig()) == []
