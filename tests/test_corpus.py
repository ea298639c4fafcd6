"""Loading, normalization, and splitting behavior."""

import json
import math
import re
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmkit import corpus
from harmkit.corpus import (
    LabeledExample,
    iter_jsonl,
    load_jsonl,
    normalize_text,
    parse_labels,
    save_jsonl,
    split_train_val,
)


def write_lines(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


# Letters whose lowercase composes with a following mark where the capital
# does not (J and T with caron or diaeresis), marks, letters that lowercase to
# several characters, the markers normalization looks for, and whitespace.
IDEMPOTENCE_ALPHABET = ["J", "T", "I", "\u0130", "\u212a", "\u017f", "\u1e9e", "\u03a3", "\u030c", "\u0308",
                        "\u0301", "\u0307", "\u0323", "\u093f", "\u0928", "@", "://", "www.", "WWW.", "HTTPS://",
                        " ", "  ", "\t", "\xa0"]


class TestNormalize:
    def test_url_and_mention_placeholders(self):
        assert normalize_text("see HTTPS://ex.com/x?q=1 by @Alice") == "see <url> by <user>"

    def test_www_url(self):
        assert normalize_text("www.example.org/path rest") == "<url> rest"

    def test_lowercase_and_whitespace_collapse(self):
        assert normalize_text("  A  \t B\nC ") == "a b c"

    def test_nfc_normalization(self):
        # e + combining acute composes to a single code point
        assert normalize_text("é") == "é"

    @pytest.mark.parametrize("text, want", [
        ("@\u09b0\u09b9\u09bf\u09ae \u0995\u09c7", "<user> \u0995\u09c7"),
        ("@\u0928\u092e\u0938\u094d\u0924\u0947", "<user>"), ("@\u0930\u093e\u092e \u0928\u0947", "<user> \u0928\u0947"),
        ("@a,@b", "<user>,<user>"), ("@@x", "@<user>"), ("@", "@"), ("a@b.c", "a<user>.c"),
        ("@\u030c", "<user>"), ("@_x1", "<user>"), ("@.x", "@.x"),
    ])
    def test_mention_is_at_and_the_word_characters_after_it(self, text, want):
        # A mention ends where a token's word run does, combining marks included.
        assert normalize_text(text) == normalize_reference(text) == want

    def test_caseless_scripts_untouched(self):
        assert normalize_text("नमस्ते दुनिया") == "नमस्ते दुनिया"

    def test_idempotent(self):
        text = "Visit https://a.b @you   now É"
        once = normalize_text(text)
        assert normalize_text(once) == once

    @pytest.mark.parametrize("text, want", [
        ("J\u030c", "\u01f0"), ("T\u0308", "\u1e97"), ("@Bob J\u030c", "<user> \u01f0"), ("\u01f0", "\u01f0"),
    ])
    def test_composes_again_after_lowercasing(self, text, want):
        # Capital J and T with these marks have no precomposed form, but
        # their lowercase letters do.
        assert normalize_text(text) == normalize_reference(text) == want
        assert normalize_text(want) == want

    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(st.one_of(st.sampled_from(IDEMPOTENCE_ALPHABET), st.characters(max_codepoint=0x2FF)),
                         max_size=30).map("".join))
    def test_idempotent_on_cased_letters_marks_and_markers(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once == normalize_reference(text)


def normalize_reference(text):
    """The pipeline with the URL regex run on every text, and each mention,
    "@" and the word characters (``_`` or Unicode category L, N or M) after
    it, found one character at a time."""
    text = unicodedata.normalize("NFC", text)
    text = re.sub(r"(?:https?://|www\.)\S+", "<url>", text, flags=re.IGNORECASE)
    out, i = [], 0
    while i < len(text):
        end = i + 1
        if text[i] == "@":
            while end < len(text) and (text[end] == "_" or unicodedata.category(text[end])[0] in "LNM"):
                end += 1
        out.append("<user>" if end > i + 1 else text[i])
        i = end
    return " ".join(unicodedata.normalize("NFC", "".join(out).lower()).split())


# Characters that case-fold onto the URL prefixes (the long s folds to "s",
# the Kelvin sign to "k", dotted capital I lowercases to two characters),
# plus whole prefixes so that matches are common.
URL_ALPHABET = list("htpsSwWK.:/ @é") + ["\u017f", "\u212a", "\u0130", "\t", "://", "www.", "WwW.", "HTTP", "https"]


class TestUrlPrefilter:
    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(st.sampled_from(URL_ALPHABET), max_size=30))
    def test_matches_always_substituting(self, pieces):
        text = "".join(pieces)
        assert normalize_text(text) == normalize_reference(text)

    @pytest.mark.parametrize("text, want", [
        ("WWW.x.org", "<url>"), ("wWw.a b", "<url> b"), ("HTTPS://A", "<url>"), ("hTtP://x/y z", "<url> z"),
        ("ftp://h", "ftp://h"), ("see www. later", "see www. later"), ("\u212aey://k", "key://k"),
    ])
    def test_url_prefixes_in_any_case(self, text, want):
        assert normalize_text(text) == normalize_reference(text) == want


# Every ASCII whitespace character, other Unicode whitespace (NBSP, the
# ideographic space, the line separator, NEL), a zero-width joiner (printable
# to neither str.isspace nor str.isprintable), and runs of spaces that give
# leading, trailing and double spaces.
SPACE_ALPHABET = list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f") + ["\xa0", "\u3000", "\u2028", "\x85", "\u200d",
                                                             "  ", "   ", "a", "B", "\xe9", "."]


class TestMarkers:
    @pytest.mark.parametrize("text, holds", [
        ("plain text. with: colons/slashes", False), ("a@b", True), ("x://y", True), ("see www.", True),
        ("ww w.", False), (":/ /", False), ("", False),
    ])
    def test_holds_marker(self, text, holds):
        assert corpus.holds_marker(text) is holds

    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(st.sampled_from(URL_ALPHABET + ["A", "B", "@", "_", "x", "\x1f"]), max_size=30))
    def test_only_case_changes_means_normalization_only_lowercases_the_tokens(self, pieces):
        text = "".join(pieces)
        if corpus.only_case_changes(text):
            assert normalize_text(text) == " ".join(text.lower().split())


class TestCollapsedFastPath:
    def test_space_is_the_only_printable_whitespace(self):
        assert [cp for cp in range(sys.maxunicode + 1) if chr(cp).isspace() and chr(cp).isprintable()] == [0x20]

    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(st.sampled_from(SPACE_ALPHABET), max_size=30))
    def test_matches_reference(self, pieces):
        text = "".join(pieces)
        assert normalize_text(text) == normalize_reference(text)

    @pytest.mark.parametrize("text, want", [
        ("", ""), ("a b", "a b"), (" a", "a"), ("a ", "a"), ("a  b", "a b"), ("a\xa0b", "a b"),
        ("a\u200db", "a\u200db"), ("a\x1fb", "a b"),
    ])
    def test_only_collapsed_printable_text_is_kept(self, text, want):
        assert normalize_text(text) == normalize_reference(text) == want


class TestLoadJsonl:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "a", "text": "x", "label": 2}])
        examples = load_jsonl(path, task="harm")
        assert examples[0].id == "a"
        assert examples[0].harm == 2
        assert examples[0].targets is None

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": f"r{i}", "text": "t", "label": i % 4} for i in range(3)])
        examples = load_jsonl(path, task="harm")
        assert [ex.id for ex in examples] == ["r0", "r1", "r2"]

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "b", "text": "y", "label": 7}])
        with pytest.raises(ValueError, match="label"):
            load_jsonl(path, task="harm")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text": "x", "label": 1}\n{"broken\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_jsonl(path, task="harm")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "a", "text": "x", "label": 1}, {"id": "a", "text": "y", "label": 2}])
        with pytest.raises(ValueError, match="duplicate"):
            load_jsonl(path, task="harm")

    def test_targets_parsing(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "a", "text": "x", "targets": [1, 0, 0, 1, 0]}])
        examples = load_jsonl(path, task="targets")
        assert examples[0].targets == (1, 0, 0, 1, 0)

    def test_targets_wrong_arity(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "a", "text": "x", "targets": [1, 0]}])
        with pytest.raises(ValueError, match="targets"):
            load_jsonl(path, task="targets")

    def test_task_requirements(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "a", "text": "x", "label": 1}])
        with pytest.raises(ValueError, match="targets"):
            load_jsonl(path, task="targets")
        assert load_jsonl(path, task="both")[0].harm == 1

    def test_unlabeled_allowed_when_not_required(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": "a", "text": "x"}])
        examples = load_jsonl(path, task="harm", require_labels=False)
        assert examples[0].harm is None

    def test_label_rule_runs_once_per_record(self, tmp_path, monkeypatch):
        calls = []
        rule = corpus._label_error
        monkeypatch.setattr(corpus, "_label_error", lambda harm, targets: calls.append(1) or rule(harm, targets))
        path = tmp_path / "data.jsonl"
        write_lines(path, [{"id": str(i), "text": "x", "label": i % 4, "targets": [0, 1, 0, 0, i % 2]}
                           for i in range(7)])
        examples = load_jsonl(path, task="both")
        assert len(calls) == 7
        # The loaded examples are the ones the constructor builds.
        assert examples == [LabeledExample(id=str(i), text="x", harm=i % 4, targets=(0, 1, 0, 0, i % 2))
                            for i in range(7)]
        assert len({hash(ex) for ex in examples}) == 7

    def test_iter_jsonl_reads_a_record_only_when_asked(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text": "X  y"}\n{"id": "b", "text": "z"}\n{"broken\n', encoding="utf-8")
        examples = iter_jsonl(path, task="harm", require_labels=False)
        assert [next(examples).text, next(examples).text] == ["X  y", "z"]
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed JSON")):
            next(examples)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int string-conversion limit")
    def test_oversized_integer_literal_names_path_and_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        path.write_text(f'{{"id": "a", "text": "x", "label": 1}}\n{{"id": "b", "text": "y", "n": {digits}}}\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed JSON: Exceeds the limit")):
            load_jsonl(path, task="harm")

    def test_save_load_idempotent(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [
            {"id": "a", "text": "Hello @Bob HTTP://x.y", "label": 1, "targets": [0, 1, 0, 0, 1]},
            {"id": "b", "text": "plain", "label": 0},
        ])
        first = load_jsonl(path, task="both")
        out = tmp_path / "round.jsonl"
        save_jsonl(first, out)
        assert load_jsonl(out, task="both") == first


# (field, value) pairs on both sides of every label rule; None is an absent label.
LABEL_TABLE = [("harm", v) for v in (None, 0, 3, 4, -1, True, False, 1.0, "1", [1])] + [
    ("targets", v) for v in (None, [0, 1, 0, 0, 1], (1, 1, 1, 1, 1), [0, 0, 0, 0], [0] * 6, [0, 2, 0, 0, 0],
                             [-1, 0, 0, 0, 0], [True, False, False, False, False], (0.0, 1.0, 0, 0, 0),
                             "01001", 5, {"a": 1})
]


@pytest.mark.parametrize("field, value", LABEL_TABLE, ids=[f"{f}={v!r}" for f, v in LABEL_TABLE])
def test_labeled_example_and_parse_labels_accept_the_same_values(tmp_path, field, value):
    def accepts(check) -> bool:
        try:
            check()
        except ValueError:
            return False
        return True

    record = {"text": "t", "label" if field == "harm" else "targets": value}
    assert accepts(lambda: LabeledExample(id="a", text="t", **{field: value})) == accepts(
        lambda: parse_labels(record, 1, tmp_path / "gold.jsonl", "both", require_labels=False))


def label_error_reference(harm, targets):
    """The label rule with the per-entry flag test that the set test
    replaced, kept as its oracle."""
    if harm is not None and (not isinstance(harm, int) or isinstance(harm, bool) or not 0 <= harm < 4):
        return f"label {harm!r} outside {{0..3}}"
    if targets is not None and (not isinstance(targets, (list, tuple)) or len(targets) != 5
                                or any(t not in (0, 1) for t in targets)):
        return "targets must be an array of 5 0/1 flags"
    return None


FLAG_ENTRIES = st.one_of(
    st.sampled_from([0, 1, True, False, 0.0, 1.0, -0.0, 0.5, 2, -1, math.nan, math.inf, None, "0", "1", ""]),
    st.integers(-3, 3), st.floats(allow_nan=True), st.text(max_size=2),
    st.lists(st.integers(0, 1), max_size=2), st.tuples(st.integers(0, 1)),
    st.dictionaries(st.sampled_from(["a", "0"]), st.integers(0, 1), max_size=1),
)
# Entries of which five are often all flags, or all but one: the flags in
# every form that equals 0 or 1, among them unhashable 0-d arrays that the
# constructor accepts, and a few entries that break the rule.
MOSTLY_FLAGS = st.sampled_from([0, 1, True, False, 0.0, 1.0, -0.0, np.array(0), np.array(1.0),
                                0.5, math.nan, [1], {"a": 1}, "1", (0,)])


@settings(max_examples=400, deadline=None)
@given(harm=st.none() | st.integers(-1, 4) | st.booleans() | st.floats(0, 3),
       targets=st.none() | st.lists(FLAG_ENTRIES, min_size=3, max_size=7) | st.tuples(*[FLAG_ENTRIES] * 5)
       | st.lists(MOSTLY_FLAGS, min_size=5, max_size=5)
       | st.text(max_size=6) | st.integers(0, 1))
def test_label_rule_matches_the_per_entry_reference(harm, targets):
    assert corpus._label_error(harm, targets) == label_error_reference(harm, targets)
    if targets is not None and label_error_reference(None, targets) is None:
        got = parse_labels({"text": "t", "targets": targets}, 1, Path("gold.jsonl"), "both")[1]
        assert got == tuple(int(t) for t in targets) and all(type(t) is int for t in got)


def make_examples(labels):
    return [LabeledExample(id=f"e{i}", text="t", harm=h) for i, h in enumerate(labels)]


class TestSplit:
    def test_ratio_80_20(self):
        data = make_examples([i % 4 for i in range(100)])
        split = split_train_val(data, ratio=(4, 1), seed=3, stratify=False)
        assert len(split.train) == 80
        assert len(split.val) == 20

    def test_deterministic(self):
        data = make_examples([i % 4 for i in range(37)])
        a = split_train_val(data, seed=9)
        b = split_train_val(data, seed=9)
        assert [ex.id for ex in a.train] == [ex.id for ex in b.train]
        assert [ex.id for ex in a.val] == [ex.id for ex in b.val]

    def test_stratified_counts_two_even_classes(self):
        # 50 of class 0 and 50 of class 1: per-stratum counts enumerate to 40/10.
        data = make_examples([0] * 50 + [1] * 50)
        split = split_train_val(data, ratio=(4, 1), seed=0, stratify=True)
        train_counts = Counter(ex.harm for ex in split.train)
        val_counts = Counter(ex.harm for ex in split.val)
        assert train_counts == {0: 40, 1: 40}
        assert val_counts == {0: 10, 1: 10}

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 5"):
            split_train_val(make_examples([0, 1, 2, 3]), seed=0)

    def test_singleton_stratum(self):
        data = make_examples([0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="single member"):
            split_train_val(data, seed=0, stratify=True)

    def test_stratify_requires_harm_labels(self):
        data = [LabeledExample(id=str(i), text="t", targets=(1, 0, 0, 0, 0)) for i in range(6)]
        with pytest.raises(ValueError, match="harm"):
            split_train_val(data, seed=0, stratify=True)

    def test_property_disjoint_exhaustive_proportional(self):
        # Invariants over random datasets: disjoint by id, exhaustive, per-class
        # train fraction within one example of 4/5, deterministic.
        rng = np.random.default_rng(2718)
        for trial in range(60):
            n = int(rng.integers(8, 120))
            labels = [int(x) for x in rng.integers(0, 4, size=n)]
            counts = Counter(labels)
            if any(c < 2 for c in counts.values()):
                continue
            data = make_examples(labels)
            seed = int(rng.integers(0, 2**32))
            split = split_train_val(data, ratio=(4, 1), seed=seed, stratify=True)
            train_ids = {ex.id for ex in split.train}
            val_ids = {ex.id for ex in split.val}
            assert not train_ids & val_ids
            assert train_ids | val_ids == {ex.id for ex in data}
            train_counts = Counter(ex.harm for ex in split.train)
            for label, total in counts.items():
                assert abs(train_counts.get(label, 0) - 0.8 * total) <= 1.0
            again = split_train_val(data, ratio=(4, 1), seed=seed, stratify=True)
            assert [ex.id for ex in again.train] == [ex.id for ex in split.train]


def read_records_reference(path):
    """The per-line ``json.loads`` reader, kept as the oracle for the one
    scanner call per line that ``read_records`` makes."""
    p = Path(path)
    seen = set()
    try:
        with p.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{p}:{line_no}: malformed JSON: {exc.msg}") from exc
                except RecursionError as exc:
                    raise ValueError(f"{p}:{line_no}: malformed JSON: nested too deeply") from exc
                if not isinstance(rec, dict):
                    raise ValueError(f"{p}:{line_no}: record is not a JSON object")
                if rec.get("id") is None or not str(rec["id"]):
                    raise ValueError(f"{p}:{line_no}: missing or empty field 'id'")
                rec_id = rec["id"] = str(rec["id"])
                for field in ("id", "text"):
                    value = rec.get(field)
                    surrogates = [ch for ch in value if 0xD800 <= ord(ch) <= 0xDFFF] if isinstance(value, str) else []
                    if surrogates:
                        raise ValueError(f"{p}:{line_no}: field {field!r} holds a lone surrogate "
                                         f"U+{ord(surrogates[0]):04X}")
                if rec_id in seen:
                    raise ValueError(f"{p}:{line_no}: duplicate id {rec_id!r}")
                seen.add(rec_id)
                yield line_no, rec
    except UnicodeDecodeError as exc:
        lines = p.read_bytes().splitlines()
        line_no = next(n for n, raw in enumerate(lines, start=1) if not corpus._is_utf8(raw))
        raise ValueError(f"{p}:{line_no}: not valid UTF-8: {exc.reason}") from exc


def read_outcome(reader, path):
    """What a reader gives for a file: the repr of its (line_no, record) list,
    which tells NaN, -0.0, 1 and 1.0 apart, or its ValueError message."""
    try:
        return "ok", repr(list(reader(path)))
    except ValueError as exc:
        return "error", str(exc)


# Characters that line splitting, str.strip and the JSON decoder each treat
# their own way: Unicode line and paragraph separators, NEL, a BOM, JSON and
# non-JSON whitespace, control characters, quotes and backslashes.
ODD = ["\u2028", "\u2029", "\x85", "\ufeff", "\u3000", "\x1c", "\x0b", "\x0c", "\t", " ", "\x00", "\x1f",
       '"', "\\", "\r", "\n", "\xe9", "\U0001f600"]
NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0", "-0.0", "1E+2", "0.1", "01", "1.", "-",
           "nan", "infinity", "true", "null", "1" * 30]
odd_text = st.text(alphabet=st.sampled_from(ODD + ["a", "b"]), max_size=6)


@st.composite
def jsonl_lines(draw, line_no, broken):
    """One line's text: a record with an id unique to the line, or with
    ``broken`` also a line that is malformed, truncated, not a record at all
    or a record with an empty or repeated id."""
    kind = draw(st.integers(0, 11 if broken else 6))
    rid = draw(odd_text) + str(line_no)
    if broken:
        rid = draw(st.sampled_from([rid, "", "p", "q"]))
    rid = json.dumps(rid, ensure_ascii=draw(st.booleans()))
    if kind <= 4:
        value = json.dumps(draw(odd_text | st.floats()), ensure_ascii=draw(st.booleans()))
        return f'{{"id": {rid}, "v": {value}}}'
    if kind == 5:
        return f'{{"id": {rid}, "v": {draw(st.sampled_from(NUMBERS))}}}'
    if kind == 6:
        depth = draw(st.sampled_from([1, 2, 50, 200, 20000]))
        return f'{{"id": {rid}, "v": {"[" * depth}{"]" * depth}}}'
    if kind == 7:  # a record, then trailing garbage or a second value
        return f'{{"id": {rid}}}' + draw(st.sampled_from([", {\"id\": \"z\"}", " x", "}", "]", " 1", "\x00"]))
    if kind == 8:  # a valid record cut short
        line = f'{{"id": {rid}, "v": [1, 2, 3]}}'
        return line[:draw(st.integers(0, len(line)))]
    if kind == 9:
        return draw(st.sampled_from(NUMBERS + ["[]", "{}", '"s"', '{"id": null}', '{"id": ""}', '{"id": 7}']))
    return draw(odd_text)


@st.composite
def jsonl_files(draw):
    """A file of such lines, each padded at both ends with Unicode whitespace
    or none and ended by \\n, \\r\\n or a lone \\r. A broken file may also
    pad with a BOM and join two lines by leaving out the line end."""
    broken = draw(st.booleans())
    padding = ["", "", "", " ", "\u2028", "\u2029", "\x85", "\u3000"] + ["\ufeff"] * broken
    ends = ["\n", "\n", "\n", "\r\n", "\r\n", "\r"] + [""] * broken
    text = ""
    for line_no in range(draw(st.integers(0, 6))):
        text += draw(st.sampled_from(padding)) + draw(jsonl_lines(line_no, broken)) + draw(st.sampled_from(padding))
        text += draw(st.sampled_from(ends))
    return text


class TestReaderOracle:
    """``read_records`` gives what the per-line ``json.loads`` loop gave:
    the same records, or the same ``path:line`` message."""

    @settings(max_examples=400, deadline=None)
    @given(text=jsonl_files())
    def test_matches_reference_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("oracle") / "data.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_outcome(corpus.read_records, path) == read_outcome(read_records_reference, path)

    @pytest.mark.parametrize("text, line_no, message", [
        # One nonblank line holding two records, then a record split across
        # two lines: a parse of the joined lines would find three objects in
        # three lines, but line 1 is already malformed.
        ('{"id":"p"}, {"id":"q"}\n{"id":"c","x":[1\n2]}\n', 1, "Extra data"),
        ('\ufeff{"id": "a"}\n', 1, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"id": "a"}\n\u2028\x85\u3000\n{"id": "b"} x\n', 3, "Extra data"),
        ('{"id": "a"}\r{"id": "b", "v": [1,\r2]}\n', 2, "Expecting value"),
        ('{"id": "a", "v": ' + "[" * 100000 + "]" * 100000 + "}\n", 1, "nested too deeply"),
    ], ids=["two-records-then-split-record", "bom", "unicode-blank-line-skipped", "lone-cr", "deep-nesting"])
    def test_fixed_cases(self, tmp_path, text, line_no, message):
        path = tmp_path / "data.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        want = ("error", f"{path}:{line_no}: malformed JSON: {message}")
        assert read_outcome(corpus.read_records, path) == read_outcome(read_records_reference, path) == want

    @pytest.mark.parametrize("line, outcome", [
        (r'{"id": "a", "text": "x \ud800"}', "field 'text' holds a lone surrogate U+D800"),
        (r'{"id": "a", "text": "\uDFFF\ud83d"}', "field 'text' holds a lone surrogate U+DFFF"),
        (r'{"id": "\udc00", "text": "\ud800"}', "field 'id' holds a lone surrogate U+DC00"),
        (r'{"id": "a", "text": "\ud83d\ude00 ok"}', None),
        (r'{"id": "a", "text": "\\ud800"}', None),
        (r'{"id": "a", "text": ["\ud800"], "v": "\ud800"}', None),
        (r'{"id": ["\ud800"], "text": "ok"}', None),
    ], ids=["lone-high", "lone-low-then-high", "id", "pair", "escaped-backslash", "other-fields", "id-list"])
    def test_lone_surrogate_in_id_or_text(self, tmp_path, line, outcome):
        # A surrogate pair is one character; only a string id or text is
        # held to UTF-8, the text's type is parse_labels' to check.
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "z"}\n' + line + "\n", encoding="utf-8")
        want = ("error", f"{path}:2: {outcome}") if outcome else read_outcome(read_records_reference, path)
        assert read_outcome(corpus.read_records, path) == read_outcome(read_records_reference, path) == want

    def test_line_separators_inside_strings_are_kept(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('\u2028{"id": "a\u2028b\x85", "v": NaN}\u2029\r\n{"id": "c", "v": 1e400}\x85\n',
                        encoding="utf-8", newline="")
        records = list(corpus.read_records(path))
        assert [(n, rec["id"]) for n, rec in records] == [(1, "a\u2028b\x85"), (2, "c")]
        assert np.isnan(records[0][1]["v"]) and records[1][1]["v"] == float("inf")
        assert read_outcome(corpus.read_records, path) == read_outcome(read_records_reference, path)
