"""Digest what the CLI writes on the benchmark workspaces, one sha256 per group.

Builds the workspaces of perfbench/workspace.py for --seed in a temp dir,
then runs in process, on each workload: `enhance` at CLI seeds 7 and 8 and
threads 1 and 2, `metrics` of each output against the reference, and a
sweep workload's `sweep` at the same seeds and threads.  At threads 2 every
sweep run is its own stack, so the rows also pass through the pool's
workers.  It prints one line per group (the workspace files; the frames,
trace.csv and metrics.json of the enhance runs; the metrics stdout; the
sweep stdout) and then a total, so a change that moves any byte names the
group it moved.

    PYTHONPATH=src python3 scripts/digest.py --seed 5 [--workload sweep-small]

noisecal is imported from PYTHONPATH, so one script digests any source
tree: run it with each tree's src and compare the lines.  The digests depend
on the BLAS build, so compare only runs on one machine.
"""

import argparse
import contextlib
import hashlib
import io
import runpy
import tempfile
from pathlib import Path
from unittest import mock

from noisecal import cli, read_video

WORKSPACE = Path(__file__).resolve().parents[1] / "perfbench" / "workspace.py"
SEEDS = (7, 8)
THREADS = (1, 2)


def run(argv: list[str]) -> bytes:
    """The stdout of one in-process CLI command, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()


def digest(items) -> str:
    """sha256 over (name, bytes) pairs, in order; a renamed item moves it too."""
    h = hashlib.sha256()
    for name, data in items:
        h.update(f"{name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def files(root: Path) -> list[tuple[str, bytes]]:
    return [(p.relative_to(root).as_posix(), p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()]


def workload_groups(make_workspace, w, seed: int, tmp: Path) -> list[tuple[str, str]]:
    ws = tmp / w.name
    config = make_workspace(w, seed, ws)
    groups = {"workspace": files(ws), "enhance": [], "metrics": [], "sweep": []}
    run_bytes = read_video(ws / "input").nbytes  # a stack budget of one run's video
    grid = ["--t0-list", ",".join(map(str, w.t0_list)),
            "--nu-list", ",".join(map(str, w.nu_list)), "--seeds", str(w.seeds)]
    for cli_seed in SEEDS:
        tag, seed = f"seed {cli_seed}", ["--seed", str(cli_seed)]
        for label, cfg in ((tag, config), (f"baseline {tag}", ws / "baseline.json")):
            out = tmp / f"{w.name} {label}"
            run(["enhance", "--config", str(cfg), *seed, "--output", str(out)])
            groups["enhance"] += [(f"{label} {name}", data) for name, data in files(out)]
        calibrated = tmp / f"{w.name} {tag}"
        groups["metrics"].append((tag, run(["metrics", str(calibrated), str(ws / "reference")])))
        for threads in THREADS if w.t0_list else ():  # a sweep workload only
            budget = run_bytes if threads > 1 else cli._STACK_BYTES
            with mock.patch.object(cli, "_STACK_BYTES", budget):
                sweep = ["sweep", "--config", str(config), *seed, "--threads", str(threads), *grid]
                groups["sweep"].append((f"{tag} threads {threads}", run(sweep)))
    return [(f"{kind} {w.name}", digest(items)) for kind, items in groups.items() if items]


def main(argv=None):
    # read, never written: run_path compiles the source and caches no bytecode
    workspace = runpy.run_path(str(WORKSPACE))
    make_workspace, workloads = workspace["make_workspace"], workspace["WORKLOADS"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True, help="workspace seed")
    ap.add_argument("--workload", choices=sorted(workloads), help="one workload; default all")
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            lines += workload_groups(make_workspace, workloads[name], args.seed, Path(tmp))
    for group, hexdigest in lines:
        print(f"{hexdigest}  {group}")
    print(f"{digest((g, h.encode()) for g, h in lines)}  total")


if __name__ == "__main__":
    main()
