"""Labeled-document ingestion, text normalization, and train/validation splitting.

Input format: UTF-8 JSONL, one record per line with fields
  id       string, nonempty, unique within a file
  text     string
  label    optional integer in 0..3 (harm-potential level)
  targets  optional array of 5 integers in {0,1} (target-identity flags)

Normalization (``normalize_text``): Unicode NFC, URLs and @-mentions
replaced by the placeholder tokens ``<url>`` / ``<user>``, lowercasing, NFC
again for non-ASCII text, whitespace collapsed to single spaces. A mention
is ``@`` and the maximal nonempty run of word characters after it, by the
rule the tokenizer splits words with (``is_word_char``), so a mention in a
script written with combining marks is replaced whole.
``featurizer.batch_encode`` applies it as it encodes, and is the only caller
that does: ``load_jsonl`` keeps each text as the file holds it, so ``train``
and ``predict`` both hand ``batch_encode`` raw text, which skips the work
where only lowercasing could change a token (``only_case_changes``).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

NUM_CLASSES = 4
NUM_TARGETS = 5

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
# A candidate mention: "@" and the characters up to the next whitespace or "@".
_MENTION_RE = re.compile(r"@[^\s@]+")
# The scanner json.loads calls: _SCAN(text, index) -> (value, end index).
_SCAN = json.JSONDecoder().scan_once


def is_word_char(ch: str) -> bool:
    """Whether ``ch`` is a word character: ``_`` or in Unicode category L, N
    or M (letters, digits, combining marks)."""
    # Shortcuts: isalnum accepts only categories L and N, and no ASCII
    # character is in M, so ASCII text never reads the Unicode database
    # (about 120 KB, which predict on ASCII text never maps in).
    return ch == "_" or ch.isalnum() or (not ch.isascii() and unicodedata.category(ch)[0] in "LNM")


def _mention(match: re.Match) -> str:
    """A candidate mention with ``@`` and the word characters after it
    replaced by ``<user>``; as it is when no word character follows."""
    word = "".join(itertools.takewhile(is_word_char, match[0][1:]))
    return "<user>" + match[0][1 + len(word):] if word else match[0]


def holds_marker(lowered: str) -> bool:
    """Whether a lowercased text holds ``@``, ``://`` or ``www.``. Every
    mention holds the first, and every URL, lowercased, one of the others
    (under IGNORECASE no character but "W" matches "w"), so a text without
    them has nothing for normalization to replace."""
    # Each longer marker is looked for only after a character of it that
    # plain text seldom holds: finding one character is a memchr, many times
    # faster than finding a longer marker.
    return "@" in lowered or (":" in lowered and "://" in lowered) or ("." in lowered and "www." in lowered)


def only_case_changes(text: str) -> bool:
    """Whether ``normalize_text`` changes no token of ``text`` but by
    lowercasing: true of an ASCII text with no marker (``holds_marker``),
    since NFC leaves ASCII as it is and collapsing whitespace moves no token
    boundary."""
    return text.isascii() and not holds_marker(text.lower())


def normalize_text(text: str) -> str:
    """Apply the documented normalization pipeline. Idempotent."""
    text = unicodedata.normalize("NFC", text)
    lowered = text.lower()
    if holds_marker(lowered):
        lowered = _MENTION_RE.sub(_mention, _URL_RE.sub("<url>", text)).lower()
    if not lowered.isascii():
        # Lowercasing can leave a base letter and a mark that compose, where
        # the capital had no precomposed form: "J\u030c" lowercases to
        # "j\u030c", which NFC makes "\u01f0". Composing again keeps the
        # result a fixed point.
        lowered = unicodedata.normalize("NFC", lowered)
    # U+0020 is the only whitespace character that str.isprintable accepts,
    # so a printable text is already collapsed unless it has a double,
    # leading or trailing space.
    if (lowered.isprintable() and "  " not in lowered and not lowered.startswith(" ")
            and not lowered.endswith(" ")):
        return lowered
    return " ".join(lowered.split())


@dataclass(frozen=True)
class LabeledExample:
    """One document with its optional harm level and/or target-identity flags."""

    id: str
    text: str
    harm: int | None = None
    targets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("example id must be nonempty")
        if error := _label_error(self.harm, self.targets):
            raise ValueError(error)

    @classmethod
    def _checked(cls, id: str, text: str, harm: int | None, targets: tuple[int, ...] | None) -> "LabeledExample":
        """An example from a nonempty id and labels that ``parse_labels`` has
        already checked, built without running the label rule again."""
        example = object.__new__(cls)
        for name, value in (("id", id), ("text", text), ("harm", harm), ("targets", targets)):
            object.__setattr__(example, name, value)
        return example


def _label_error(harm: object, targets: object) -> str | None:
    """The rule that a harm label or a target-flag array breaks, or None if
    both hold. None stands for an absent label and breaks no rule."""
    if harm is not None and (not isinstance(harm, int) or isinstance(harm, bool) or not 0 <= harm < NUM_CLASSES):
        return f"label {harm!r} outside {{0..{NUM_CLASSES - 1}}}"
    if targets is not None and (not isinstance(targets, (list, tuple)) or len(targets) != NUM_TARGETS
                                or not _all_flags(targets)):
        return f"targets must be an array of {NUM_TARGETS} 0/1 flags"
    return None


def _all_flags(targets: list | tuple) -> bool:
    """Whether every entry equals 0 or 1, as ``t in (0, 1)`` decides. One set
    test decides it for hashable entries; an unhashable one (a list or a
    dict) makes it raise, and then each entry is tested alone."""
    try:
        return set(targets) <= {0, 1}
    except TypeError:
        return all(t in (0, 1) for t in targets)


@dataclass
class DatasetSplit:
    """A disjoint, exhaustive train/validation partition."""

    train: list[LabeledExample]
    val: list[LabeledExample]


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, record)`` for every nonblank line of a UTF-8 JSONL file.

    This is the one reader behind every JSONL input. Each record must be a
    JSON object whose ``id`` is present, not null, nonempty after ``str()``
    and unique within the file; ``record["id"]`` is replaced by that string.
    Neither the id nor a string ``text`` may hold a lone surrogate (a JSON
    ``\\ud800`` escape with no pair), which has no UTF-8 encoding. Any
    violation raises ValueError naming ``path:line``.
    """
    p = Path(path)
    seen: set[str] = set()
    try:
        with p.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    # json.loads is this scanner call between two whitespace
                    # skips, and a stripped line has no JSON whitespace at
                    # either end. A line the scanner rejects, or does not
                    # consume, goes to json.loads for the decoder's message.
                    try:
                        rec, end = _SCAN(line, 0)
                    except StopIteration:
                        end = -1
                    if end != len(line):
                        json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{p}:{line_no}: malformed JSON: {exc.msg}") from exc
                except RecursionError as exc:
                    raise ValueError(f"{p}:{line_no}: malformed JSON: nested too deeply") from exc
                except ValueError as exc:
                    # int() refuses a literal longer than sys.get_int_max_str_digits().
                    raise ValueError(f"{p}:{line_no}: malformed JSON: {exc}") from exc
                if not isinstance(rec, dict):
                    raise ValueError(f"{p}:{line_no}: record is not a JSON object")
                if rec.get("id") is None or not str(rec["id"]):
                    raise ValueError(f"{p}:{line_no}: missing or empty field 'id'")
                rec_id = rec["id"] = str(rec["id"])
                # Strict UTF-8 decoding yields no surrogate, so only a \u
                # escape can put a lone one into a string. Finding one
                # backslash is a memchr, many times faster than finding "\u".
                if "\\" in line and "\\u" in line and (error := _surrogate_error(rec)):
                    raise ValueError(f"{p}:{line_no}: {error}")
                if rec_id in seen:
                    raise ValueError(f"{p}:{line_no}: duplicate id {rec_id!r}")
                seen.add(rec_id)
                yield line_no, rec
    except UnicodeDecodeError as exc:
        # Text mode decodes a chunk ahead of the line loop, so the failing
        # line is found by a binary re-read that only a bad file pays for.
        # bytes.splitlines breaks lines where text mode does (\n, \r, \r\n).
        lines = p.read_bytes().splitlines()
        line_no = next(n for n, raw in enumerate(lines, start=1) if not _is_utf8(raw))
        raise ValueError(f"{p}:{line_no}: not valid UTF-8: {exc.reason}") from exc


def _surrogate_error(rec: dict) -> str | None:
    """The complaint about a lone surrogate in a record's id or text, which
    no UTF-8 output could hold, or None if neither holds one."""
    for field in ("id", "text"):
        value = rec.get(field)
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                return f"field {field!r} holds a lone surrogate U+{ord(value[exc.start]):04X}"
    return None


def _is_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


_SHOWN_IDS = 5


def id_list(ids: Sequence[str]) -> str:
    """``ids [...]`` for an error message, naming at most the first five ids
    and then how many there are in all."""
    if len(ids) <= _SHOWN_IDS:
        return f"ids {list(ids)}"
    return f"ids {list(ids[:_SHOWN_IDS])} (first {_SHOWN_IDS} of {len(ids)})"


def parse_label(label: object, line_no: int, path: Path) -> int:
    """Return a harm label in 0..3, or raise ValueError naming ``path:line``."""
    error = "missing field 'label'" if label is None else _label_error(label, None)
    if error:
        raise ValueError(f"{path}:{line_no}: {error}")
    return label


def read_rows(path: str | Path, key: str, size: int,
              low: float = -math.inf, high: float = math.inf) -> tuple[list[str], np.ndarray]:
    """Read the ids and the ``key`` lists of a JSONL file's records, in file order.

    Each ``key`` value must be a list of ``size`` entries that convert like
    ``float()`` to finite numbers within [low, high]. The check runs once over
    the stacked float64 (N, size) array; only on failure is the file read
    again to name the first offending record by ``path:line``.
    """

    def stack(rows: list) -> np.ndarray | None:
        try:
            arr = np.array(rows, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            return None
        if arr.shape != (len(rows), size) or not np.all(np.isfinite(arr) & (arr >= low) & (arr <= high)):
            return None
        return arr

    p = Path(path)
    ids, rows = [], []
    for _, rec in read_records(p):
        ids.append(rec["id"])
        rows.append(rec.get(key))
    if not rows:
        raise ValueError(f"{p}: no records found")
    arr = stack(rows)
    if arr is None:
        line_no = next(n for n, rec in read_records(p) if stack([rec.get(key)]) is None)
        bounds = f" in [{low:g}, {high:g}]" if math.isfinite(low) else ""
        raise ValueError(f"{p}:{line_no}: '{key}' must be a list of {size} finite numbers{bounds}")
    return ids, arr


def parse_labels(raw: dict, line_no: int, path: Path, task: str,
                 require_labels: bool = True) -> tuple[int | None, tuple[int, ...] | None]:
    """Check one corpus record and return its ``(harm, targets)`` labels.

    The record must have a ``text`` field holding a string; ``label`` and
    ``targets``, where present and not null, must be valid, and ``task``
    decides which of them is required (see ``load_jsonl``). Violations raise
    ValueError naming ``path:line``. The text is not normalized here.
    """
    if "text" not in raw:
        raise ValueError(f"{path}:{line_no}: missing required field 'text'")
    if not isinstance(raw["text"], str):
        raise ValueError(f"{path}:{line_no}: field 'text' must be a string")

    harm, flags = raw.get("label"), raw.get("targets")
    if error := _label_error(harm, flags):
        raise ValueError(f"{path}:{line_no}: {error}")
    targets = None if flags is None else tuple(map(int, flags))

    if require_labels:
        if task == "harm" and harm is None:
            raise ValueError(f"{path}:{line_no}: record lacks 'label' required by task=harm")
        if task == "targets" and targets is None:
            raise ValueError(f"{path}:{line_no}: record lacks 'targets' required by task=targets")
        if task == "both" and harm is None and targets is None:
            raise ValueError(f"{path}:{line_no}: record carries neither 'label' nor 'targets'")
    return harm, targets


def load_jsonl(path: str | Path, task: str = "both", require_labels: bool = True) -> list[LabeledExample]:
    """Load labeled examples in file order, validating labels per task. Each
    example's text is the file's, not normalized.

    task selects which label fields are mandatory: 'harm' requires ``label``,
    'targets' requires ``targets``, 'both' requires at least one of the two.
    ``require_labels=False`` relaxes all label requirements (prediction-time
    inputs). Record-level rules are those of ``read_records``.
    """
    return list(iter_jsonl(path, task, require_labels))


def iter_jsonl(path: str | Path, task: str = "both", require_labels: bool = True) -> Iterator[LabeledExample]:
    """``load_jsonl`` one example at a time: each record is read and checked
    when the caller asks for it, so the examples already yielded
    need not stay in memory. The task is checked on the first request."""
    if task not in ("harm", "targets", "both"):
        raise ValueError(f"unknown task {task!r}")
    p = Path(path)
    for line_no, raw in read_records(p):
        harm, targets = parse_labels(raw, line_no, p, task, require_labels)
        yield LabeledExample._checked(raw["id"], raw["text"], harm, targets)


def save_jsonl(examples: Iterable[LabeledExample], path: str | Path) -> None:
    """Write examples one JSON object per line, omitting absent label fields."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            rec: dict = {"id": ex.id, "text": ex.text}
            if ex.harm is not None:
                rec["label"] = ex.harm
            if ex.targets is not None:
                rec["targets"] = list(ex.targets)
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _train_count(n: int, train_frac: float) -> int:
    # Clamp keeps both sides nonempty for the smallest legal strata.
    return min(max(round(n * train_frac), 1), n - 1)


def split_train_val(
    data: Sequence[LabeledExample],
    ratio: tuple[int, int] = (4, 1),
    seed: int = 0,
    stratify: bool = True,
) -> DatasetSplit:
    """Deterministic train/validation split at ratio train:val (default 4:1).

    With stratify=True the per-class train fraction is within one example of
    ratio[0]/(ratio[0]+ratio[1]); every class must then have at least two
    members and every record must carry a harm label.
    """
    if len(data) < 5:
        raise ValueError(f"need at least 5 examples to split, got {len(data)}")
    if ratio[0] < 1 or ratio[1] < 1:
        raise ValueError(f"ratio parts must be positive, got {ratio}")
    train_frac = ratio[0] / (ratio[0] + ratio[1])
    rng = random.Random(seed)

    train: list[LabeledExample] = []
    val: list[LabeledExample] = []
    if stratify:
        by_class: dict[int, list[LabeledExample]] = {}
        for ex in data:
            if ex.harm is None:
                raise ValueError(f"stratified split requires harm labels; {ex.id!r} has none")
            by_class.setdefault(ex.harm, []).append(ex)
        for label in sorted(by_class):
            members = by_class[label]
            if len(members) < 2:
                raise ValueError(f"class {label} has a single member; cannot stratify")
            rng.shuffle(members)
            n_train = _train_count(len(members), train_frac)
            train.extend(members[:n_train])
            val.extend(members[n_train:])
    else:
        shuffled = list(data)
        rng.shuffle(shuffled)
        n_train = _train_count(len(shuffled), train_frac)
        train = shuffled[:n_train]
        val = shuffled[n_train:]

    return DatasetSplit(train=train, val=val)
