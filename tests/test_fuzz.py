"""Fuzzed input files: every reader either accepts a file or rejects it with
exit 2 and a message. No input may end in a traceback or in exit 1, which is
reserved for a failed check. The config parser either raises ConfigError or
returns a config whose numbers are all finite."""

import contextlib
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmkit import cli

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
