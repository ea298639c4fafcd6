"""Fuzzed input files: every reader either accepts a file or rejects it with
exit 2 and a message. No input may end in a traceback or in exit 1, which is
reserved for a failed check. The config parser either raises ConfigError or
returns a config whose numbers are all finite. A checkpoint either loads or
is rejected with a message that names it."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmkit import cli, model
from harmkit.featurizer import FeatureConfig
from harmkit.model import ModelConfig, init_params, save_params

scalars = st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=4)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def files(draw):
    """Lines of valid records for every command, some fields or whole lines
    swapped for arbitrary JSON or text, so both outcomes stay reachable."""
    lines = []
    for i in range(draw(st.integers(0, 12))):
        rec = {"id": f"d{i}", "text": f"w{i % 4} w9", "label": i % 4, "targets": [0, 0, 1, 0, 0],
               "probs": [0.25, 0.25, 0.25, 0.25], "sigmas": [0.5, 0.25, 0.75, 0.0, 1.0]}
        fault = draw(st.integers(0, 9))
        if fault == 0:
            lines.append(draw(values.map(json.dumps) | st.text(max_size=12)))
            continue
        if fault == 1:
            del rec[draw(st.sampled_from(sorted(rec)))]
        elif fault == 2:
            rec[draw(st.sampled_from(sorted(rec)))] = draw(values)
        lines.append(json.dumps(rec))
    return lines


def run(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=files())
def test_any_lines_exit_0_or_2_with_message(lines):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = str(Path(tmp) / "out.jsonl")
        commands = [
            ["split", "--input", str(data)],
            ["ensemble", "--members", str(data), str(data), "--strategy", "vote", "--gold", str(data),
             "--output", out],
            ["evaluate", "--gold", str(data), "--pred", str(data), "--task", "harm"],
            ["evaluate", "--gold", str(data), "--pred", str(data), "--task", "targets"],
        ]
        for argv in commands:
            code, err = run(argv)
            assert code in (0, 2), (argv[0], code, err)
            if code == 2:
                assert err.startswith("error: ") and len(err.strip()) > len("error:"), (argv[0], err)


CONFIG = {"train_file": "data.jsonl", "val_file": "data.jsonl", "checkpoint": "m.hpc", "report": "r.json",
          "max_tokens": "32", "hash_bits": "10", "ngram": "1", "embed_dim": "8", "hidden_dim": "8",
          "epochs": "2", "batch_size": "4", "learning_rate": "0.05", "optimizer": "adam", "seed": "0",
          "task": "harm", "tau": "0.1", "lambda": "0.5"}
numbers = st.sampled_from(["nan", "inf", "-inf", "1e999", "-0.0", "0", "1", "-1", "1e-320", "2**3", "0x10",
                           "1_000", "18446744073709551616", "NaN", "+Infinity"])


@st.composite
def config_lines(draw):
    """The lines of a valid config, some values swapped for edge-case numbers
    or arbitrary text, some lines dropped, duplicated or replaced."""
    lines = []
    for key, value in CONFIG.items():
        fault = draw(st.integers(0, 40))  # about two faulty lines a file
        if fault == 0:
            continue
        if fault == 1:
            value = draw(numbers)
        elif fault == 2:
            value = draw(st.text(max_size=8))
        elif fault == 3:
            key = draw(st.sampled_from(sorted(CONFIG)) | st.text(max_size=6))
        lines.append(draw(st.text(max_size=12)) if fault == 4 else f"{key} = {value}")
    return draw(st.permutations(lines))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=config_lines())
def test_config_parser_raises_config_error_or_returns_finite_floats(lines):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "data.jsonl").write_text("", encoding="utf-8")
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with contextlib.chdir(tmp):
            try:
                cfg = cli.parse_run_config(path)
            except cli.ConfigError:
                return
        floats = (cfg.train.learning_rate, cfg.train.contrastive.tau, cfg.train.contrastive.lam)
        assert all(math.isfinite(x) for x in floats), floats


# The rows model_dir's checkpoint stores, and where its sections start: the
# row count at 49, the ids at 53, the rows (4 float32 each) at 69 and the
# small arrays at 133.
STORED_IDS = (3, 100, 200, 255)
IDS_AT, ROWS_AT, SMALL_AT = 53, 69, 133


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A small valid checkpoint and an input file for predict."""
    root = tmp_path_factory.mktemp("fuzz-model")
    fcfg = FeatureConfig(max_tokens=16, hash_bits=8)
    mcfg = ModelConfig(fcfg, embed_dim=4, hidden_dim=3, seed=1)
    params = init_params(mcfg)
    params.embed[list(STORED_IDS)] += 0.5  # so that the checkpoint stores rows, and their ids
    save_params(params, mcfg, root / "m.hpc")
    lines = [json.dumps({"id": f"d{i}", "text": f"w{i} w{i % 3} !"}) for i in range(5)] + ['{"id": "e", "text": ""}']
    (root / "in.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


U32 = st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 22, 23, 30, 256, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)
# Little-endian float32 patterns: NaN, +inf, -inf, the largest finite, a subnormal.
FLOAT_BYTES = st.sampled_from([b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f", b"\x00\x00\x80\xff",
                               b"\xff\xff\x7f\x7f", b"\x01\x00\x00\x00"]) | st.binary(min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_is_named(model_dir, data):
    """Header fields (the 8 u32 ints, the u64 seed) and bytes anywhere before
    the CRC are rewritten, then the CRC is recomputed so that every check
    behind it runs."""
    blob = bytearray((model_dir / "m.hpc").read_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["field", "seed", "bytes"]))
        if kind == "field":
            struct.pack_into("<I", blob, 9 + 4 * data.draw(st.integers(0, 7)), data.draw(U32))
        elif kind == "seed":
            struct.pack_into("<Q", blob, 41, data.draw(st.integers(0, 2**64 - 1)))
        else:
            at = data.draw(st.integers(0, len(blob) - 5))
            chunk = data.draw(FLOAT_BYTES)[: len(blob) - 4 - at]
            blob[at : at + len(chunk)] = chunk
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "mutated.hpc"
        checkpoint.write_bytes(bytes(blob))
        code, err = run(["predict", "--checkpoint", str(checkpoint), "--input", str(model_dir / "in.jsonl"),
                         "--output", str(Path(tmp) / "out.jsonl")])
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith(f"error: {checkpoint}: "), err


def predict_with(model_dir, blob, crc=True):
    """Run predict on a checkpoint of the bytes ``blob``, with the CRC
    recomputed unless ``crc`` is false; returns the exit code, the error
    output and the checkpoint's path."""
    if crc:
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "bad.hpc"
        checkpoint.write_bytes(bytes(blob))
        code, err = run(["predict", "--checkpoint", str(checkpoint), "--input", str(model_dir / "in.jsonl"),
                         "--output", str(Path(tmp) / "out.jsonl")])
    assert code == 2, (code, err)
    assert err.startswith(f"error: {checkpoint}: ") and "Traceback" not in err, err
    return err.removeprefix(f"error: {checkpoint}: ")


def test_fixture_checkpoint_layout(model_dir):
    blob = (model_dir / "m.hpc").read_bytes()
    assert struct.unpack_from("<I", blob, 49) == (len(STORED_IDS),)
    assert struct.unpack_from("<4I", blob, IDS_AT) == STORED_IDS
    assert ROWS_AT == IDS_AT + 4 * len(STORED_IDS) and SMALL_AT == ROWS_AT + 16 * len(STORED_IDS)
    assert len(blob) == SMALL_AT + 4 * (4 * 3 + 3 + 3 * 4 + 4 + 3 * 5 + 5) + 4


@pytest.mark.parametrize("ids", [(100, 3, 200, 255), (3, 100, 100, 255), (3, 100, 200, 256),
                                 (3, 100, 200, 2**32 - 1), (200, 100, 3, 255)],
                         ids=["unsorted", "duplicated", "vocab_size", "u32_max", "descending"])
def test_stored_row_ids_must_be_sorted_distinct_and_below_vocab_size(model_dir, ids):
    blob = bytearray((model_dir / "m.hpc").read_bytes())
    struct.pack_into("<4I", blob, IDS_AT, *ids)
    err = predict_with(model_dir, blob)
    assert err.startswith("stored row ids must be sorted distinct ids below vocab_size 256"), err


@pytest.mark.parametrize("count", [0, 3, 5, 256, 257, 2**32 - 1])
def test_row_count_the_file_cannot_hold(model_dir, count):
    blob = bytearray((model_dir / "m.hpc").read_bytes())
    struct.pack_into("<I", blob, 49, count)
    err = predict_with(model_dir, blob)
    if count > 256:
        assert err.startswith(f"{count} stored rows, more than vocab_size 256"), err
    else:
        assert err.startswith(f"file is {len(blob)} bytes, expected {len(blob) + 20 * (count - 4)} "), err


@pytest.mark.parametrize("cut", [IDS_AT + 2, ROWS_AT - 1, ROWS_AT + 6, SMALL_AT - 4], ids=["ids", "ids_end", "rows",
                                                                                       "rows_end"])
def test_file_truncated_inside_the_ids_or_the_rows(model_dir, cut):
    blob = bytearray((model_dir / "m.hpc").read_bytes()[:cut])
    err = predict_with(model_dir, blob, crc=False)
    assert err.startswith(f"file is {cut} bytes, expected {len((model_dir / 'm.hpc').read_bytes())} "), err


@pytest.mark.parametrize("at", [ROWS_AT, ROWS_AT + 37, SMALL_AT, SMALL_AT + 100])
def test_flipped_payload_byte_fails_the_crc(model_dir, at):
    blob = bytearray((model_dir / "m.hpc").read_bytes())
    blob[at] ^= 0x10
    assert predict_with(model_dir, blob, crc=False).startswith("CRC mismatch"), at


def test_signalling_nan_exits_2_without_a_traceback_under_warning_errors(model_dir, tmp_path):
    # A float32 signalling NaN warns "invalid value encountered in cast" when
    # widened to float64. Under -W error::RuntimeWarning that warning escaped
    # as a traceback with exit 1, so only finite arrays may be widened.
    blob = bytearray((model_dir / "m.hpc").read_bytes())
    struct.pack_into("<I", blob, SMALL_AT, 0x7F800001)  # w1[0, 0]
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
    checkpoint = tmp_path / "snan.hpc"
    checkpoint.write_bytes(bytes(blob))
    argv = ["predict", "--checkpoint", str(checkpoint), "--input", str(model_dir / "in.jsonl"),
            "--output", str(tmp_path / "out.jsonl")]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "harmkit", *argv],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, f"error: {checkpoint}: non-finite values in w1\n")


def test_table_too_large_for_memory_is_named(model_dir, monkeypatch):
    # A 4 KB file can name a 16 GB table: 2**22 rows of 1000 values. The
    # MemoryError is injected where the table is drawn, in case the machine
    # hands out that much address space.
    def out_of_memory(cfg, rng, out, rows=None):
        raise MemoryError(f"Unable to allocate {out.nbytes / 2**30:.1f} GiB")

    monkeypatch.setattr(model, "_draw_initial", out_of_memory)
    blob = bytearray((model_dir / "m.hpc").read_bytes()[:53])
    struct.pack_into("<6I", blob, 9, 16, 22, 1, 2**22, 1000, 1)
    struct.pack_into("<I", blob, 49, 0)
    blob += bytes(4 * (1000 + 1 + 4 + 4 + 5 + 5) + 4)
    err = predict_with(model_dir, blob)
    assert err.startswith("the embedding table does not fit in memory"), err


def test_version_1_file_refused(model_dir):
    # A version 1 file stored the whole table after the header.
    v2 = (model_dir / "m.hpc").read_bytes()
    params = init_params(ModelConfig(FeatureConfig(hash_bits=8), embed_dim=4, hidden_dim=3, seed=1))
    params.embed[list(STORED_IDS)] += 0.5
    blob = bytearray(v2[:4] + b"\x01" + v2[5:49] + b"".join(arr.astype("<f4").tobytes() for _, arr in params.arrays()))
    blob += bytes(4)
    assert predict_with(model_dir, blob) == "unsupported checkpoint version 1, expected 2\n"


@st.composite
def lines_with_big_ints(draw):
    """Valid records for every command, some field values or array entries
    swapped for integer literals at or just past the int conversion limit.
    Returns the lines and whether the first swapped literal is past it, so
    that the first error a reader meets is on its line."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    lines, first_over = [], None
    for i in range(draw(st.integers(1, 6))):
        rec = {"id": f"d{i}", "text": f"w{i % 4} w9", "label": i % 4, "targets": [0, 0, 1, 0, 0],
               "probs": [0.25, 0.25, 0.25, 0.25], "sigmas": [0.5, 0.25, 0.75, 0.0, 1.0]}
        if not draw(st.booleans()):
            lines.append(json.dumps(rec))
            continue
        key = draw(st.sampled_from(sorted(rec)))
        if isinstance(rec[key], list):
            rec[key][draw(st.integers(0, len(rec[key]) - 1))] = "@BIG@"
        else:
            rec[key] = "@BIG@"
        digits = draw(st.integers(limit - 1, limit + 2))
        if first_over is None:
            first_over = digits > limit
        literal = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from("123456789")) + "0" * (digits - 1)
        lines.append(json.dumps(rec).replace('"@BIG@"', literal))
    return lines, bool(first_over)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=lines_with_big_ints())
def test_oversized_integer_literals_exit_2_naming_the_line(model_dir, drawn):
    lines, over = drawn
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = str(Path(tmp) / "out.jsonl")
        commands = [
            ["split", "--input", str(data)],
            ["predict", "--checkpoint", str(model_dir / "m.hpc"), "--input", str(data), "--output", out],
            ["ensemble", "--members", str(data), str(data), "--strategy", "avg", "--gold", str(data),
             "--output", out],
            ["evaluate", "--gold", str(data), "--pred", str(data), "--task", "harm"],
            ["evaluate", "--gold", str(data), "--pred", str(data), "--task", "targets"],
        ]
        for argv in commands:
            code, err = run(argv)
            assert code in (0, 2), (argv[0], code, err)
            if code == 2:
                assert err.startswith("error: ") and len(err.strip()) > len("error:"), (argv[0], err)
            if over and hasattr(sys, "get_int_max_str_digits"):
                assert err.startswith(f"error: {data}:") and "malformed JSON: Exceeds the limit" in err, (argv[0], err)
