"""The README's code, its config block and its CLI synopsis must hold as written."""

import json
import re
from argparse import _SubParsersAction
from pathlib import Path

from noisecal.cli import _build_parser, load_config

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


def test_readme_config_block_shows_the_defaults(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    shown = json.loads(blocks[0])
    minimal = {key: shown[key] for key in ("denoiser", "io")}  # the sections without defaults
    (tmp_path / "shown.json").write_text(json.dumps(shown))
    (tmp_path / "minimal.json").write_text(json.dumps(minimal))
    assert load_config(tmp_path / "shown.json") == load_config(tmp_path / "minimal.json")


def test_readme_cli_synopsis_matches_the_parser():
    """Each `noisecal <command> ...` line names exactly the flags that command
    takes, with the optional ones in brackets."""
    synopses = dict(re.findall(r"^- `noisecal (\w+)(.*)`$", README.read_text(), re.M))
    commands = next(a for a in _build_parser()._actions if isinstance(a, _SubParsersAction))
    assert sorted(synopses) == sorted(commands.choices)
    for name, parser in commands.choices.items():
        actions = [a for a in parser._actions if "--help" not in a.option_strings]
        shown = re.findall(r"--[\w-]+", synopses[name])
        optional = re.findall(r"\[(--[\w-]+)", synopses[name])
        assert sorted(shown) == sorted(s for a in actions for s in a.option_strings), name
        assert sorted(optional) == sorted(
            s for a in actions if not a.required for s in a.option_strings
        ), name
