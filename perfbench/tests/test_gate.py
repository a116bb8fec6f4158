import dataclasses
import subprocess
import sys
from pathlib import Path

import run
from workspace import WORKLOADS, make_workspace

BENCH = Path(__file__).resolve().parents[1]

# a small enhance workload, so the op takes milliseconds
TINY = dataclasses.replace(WORKLOADS["enhance-large"], name="tiny", frames=2, size=16,
                           components=4, mean_frames=2, num_steps=10)


def test_one_flipped_frame_byte_fails_the_op(tmp_path):
    bench = run.Bench(TINY, make_workspace(TINY, 1, tmp_path / "ws"), 1)
    counter = run.CallCounter()
    op, results = bench.execute(3, counter)
    bench.check(op, results)
    assert op.ok, op.problems
    frame = bench.out / "frame_00001.pgm"
    blob = bytearray(frame.read_bytes())
    blob[-7] ^= 0x01
    frame.write_bytes(bytes(blob))

    again = dataclasses.replace(op, problems=[], digest="")
    bench.check(again, results, expect=op.digest)
    assert not again.ok
    assert any("differ" in p for p in again.problems)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workspace.py", "gate.py", "spans.py"):
        (tmp_path / "perfbench" / f).write_bytes((BENCH / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
