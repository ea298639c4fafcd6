"""Fuzzed input files: every reader either accepts a file or rejects it with
exit 2 and a message. No input may end in a traceback or in exit 1, which is
reserved for a failed check."""

import io
import json
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
