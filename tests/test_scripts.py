"""The experiment scripts run end to end on tiny arguments."""

import importlib.util
import math
from pathlib import Path

import pytest

from noisecal import MetricReport

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,header,rows",
    [
        ("descent_curves", ["--seeds", "2", "--iters", "3"], "t0,obj0,obj1,obj2", 3),
        ("enhance_demo", ["--max-iters", "1"], "N," + MetricReport.CSV_HEADER, 2),
    ],
    ids=["descent_curves", "enhance_demo"],
)
def test_script_prints_its_table(capsys, name, argv, header, rows):
    load_script(name).main(argv)
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == header
    assert len(lines) == 1 + rows
    n_cols = len(header.split(","))
    for line in lines[1:]:
        values = line.split(",")
        assert len(values) == n_cols
        assert all(math.isfinite(float(v)) for v in values)
