"""The README's "Library use" block, run as written on a small synthetic
corpus, and its config block, parsed as written."""

import contextlib
import io
import re
from pathlib import Path

from harmkit import cli
from harmkit.corpus import save_jsonl
from harmkit.model import ModelConfig
from harmkit.synth import generate_corpus
from harmkit.trainer import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, f"README has no {heading} block"
    return match.group(1)


def test_library_use_block_runs(tmp_path):
    save_jsonl(generate_corpus(classes=4, docs_per_class=20, overlap=0.1, seed=3), tmp_path / "corpus.jsonl")
    namespace = {}
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(readme_block("Library use", "python"), str(README), "exec"), namespace)
    assert (tmp_path / "model.hpc").is_file()
    assert len(out.getvalue().splitlines()) == 2  # best_val_f1 and the vote's macro-F1
    assert namespace["counts"].shape == (4, 4) and namespace["counts"].sum() == len(namespace["gold"])
    assert abs(sum(namespace["weights"]) - 1.0) < 1e-12
    assert namespace["z_hat"].shape == namespace["forward_batch"](namespace["params"], namespace["docs"]).z.shape


def test_config_block_parses_to_the_config_defaults(tmp_path):
    # The README says the values of its config block are the dataclass defaults.
    for name in ("corpus.train.jsonl", "corpus.val.jsonl"):
        (tmp_path / name).write_text("", encoding="utf-8")
    (tmp_path / "run.cfg").write_text(readme_block("Config file", "ini"), encoding="utf-8")
    with contextlib.chdir(tmp_path):
        cfg = cli.parse_run_config("run.cfg")
    assert cfg == cli.RunConfig(ModelConfig(), TrainConfig(), Path("corpus.train.jsonl"), Path("corpus.val.jsonl"),
                                Path("model.hpc"), Path("report.json"))
