"""The README's code must run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_library_snippet_runs(capsys):
    blocks = python_blocks()
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    trace = ns["trace"]
    assert len(trace.objectives) == ns["cal"].n_iters + 1
    assert trace.objectives[-1] < trace.objectives[0]
    assert '"mse_low"' in capsys.readouterr().out  # the metric report was printed
