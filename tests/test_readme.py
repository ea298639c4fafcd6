"""The README's "Library use" block, run as written on a small synthetic corpus."""

import contextlib
import io
import re
from pathlib import Path

from harmkit.corpus import save_jsonl
from harmkit.synth import generate_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, "README has no Library use block"
    return match.group(1)


def test_library_use_block_runs(tmp_path):
    save_jsonl(generate_corpus(classes=4, docs_per_class=20, overlap=0.1, seed=3), tmp_path / "corpus.jsonl")
    namespace = {}
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert (tmp_path / "model.hpc").is_file()
    assert len(out.getvalue().splitlines()) == 2  # best_val_f1 and the vote's macro-F1
    assert namespace["counts"].shape == (4, 4) and namespace["counts"].sum() == len(namespace["gold"])
    assert abs(sum(namespace["weights"]) - 1.0) < 1e-12
    assert namespace["z_hat"].shape == namespace["forward_batch"](namespace["params"], namespace["docs"]).z.shape
