"""The README's "Library use" block runs as written, so the documented API
cannot drift from the package's."""

import re
from pathlib import Path

from vulnaudit import synth as sy

README = Path(__file__).resolve().parents[1] / "README.md"
EPOCHS = "TrainConfig(epochs=200)"


def library_use_block() -> str:
    """The first python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs_on_the_default_spec(tmp_path, monkeypatch):
    # the block reads data/ under the working directory; only its epochs are
    # lowered, to keep the test fast
    code = library_use_block()
    assert code.count(EPOCHS) == 1
    sy.write_dataset(sy.default_spec(), tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code.replace(EPOCHS, "TrainConfig(epochs=2)"), str(README), "exec"),
         namespace)
    assert len(namespace["result"].history) == 2
