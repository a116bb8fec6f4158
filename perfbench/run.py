"""noisecal benchmark: drive the CLI in-process and report its metrics.

    python3 perfbench/run.py --workload enhance-large --seed 1 --seconds 30 --trace 0

A run builds its workload's workspace from --seed, outside the timed region,
then runs ops as a closed loop with one client: each op calls
`noisecal.cli.main(argv)` with stdout captured, and the next op starts when
the previous one returns.  Every op passes the correctness gate (gate.py) or
counts as failed.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
each op twice, untraced and then traced (spans.py), requires both twins to
write the same bytes, and reports the per-layer metrics from the traced twins.
Results and spans are kept under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_RUNS = 7  # fresh processes timed for setup_s, spread over the run; the median is reported
FIDELITY_OPS = 2  # timed ops whose seeds are re-run uncalibrated for fidelity_vs_baseline
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples above it
SEEDS_PER_RUN = 1 << 20  # op seeds of run seed n are n * SEEDS_PER_RUN + k

# timed in a fresh interpreter: argv[1] is the source dir, argv[2] the config
SETUP_PROBE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import noisecal
from noisecal import cli, vio
cfg = cli.load_config(sys.argv[2])
cli.build_schedule(cfg)
x = vio.read_video(cfg.input_dir)
cli.build_denoiser(cfg, x.shape[0])
print(repr(time.perf_counter() - t))
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    """What the numbers depend on; caches and CPU are read from /proc and /sys."""
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
        "note": "page cache warm: workspace files were just written; disk is not measured",
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            if kind != "Instruction":
                info["caches"][f"L{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            if "openblas" in line.lower() and line.split()[-1].endswith(".so"):
                lib = ctypes.CDLL(line.split()[-1])
                for sym in ("scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads64_", "openblas_get_num_threads"):
                    fn = getattr(lib, sym, None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        return fn()
    return None


def measure_setup(config: Path) -> float:
    """import noisecal + load_config + build_schedule + read_video + build_denoiser,
    timed in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
                         capture_output=True, text=True, timeout=120, check=False)
    if res.returncode != 0:
        fail(f"setup probe failed:\n{res.stderr}")
    return float(res.stdout)


@dataclass
class Op:
    seconds: float
    calls: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    fidelity: float = float("nan")
    obj_ratio: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems


class CallCounter:
    """Counts GmmDenoiser.posterior_mean calls, the denoiser evaluations."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def wrap(self, _name, fn):
        def posterior_mean(*args, **kwargs):
            with self._lock:
                self.count += 1
            return fn(*args, **kwargs)

        return posterior_mean


class Bench:
    """One workload's workspace and the op that runs the CLI on it."""

    def __init__(self, w, config: Path, seed: int) -> None:
        from noisecal import cli

        import gate

        self.w = w
        self.cli = cli
        self.gate = gate
        self.config = config
        self.baseline = config.parent / "baseline.json"
        self.out = config.parent / "out"
        self.reference = config.parent / "reference"
        self.cfg = cli.load_config(config)
        self.input = gate.read_frames(Path(self.cfg.input_dir), w.frames, w.channels, w.size)
        self.seed_base = seed * SEEDS_PER_RUN
        self.frames_per_op = w.frames * w.cells
        # sweep CSV keys: absolute t0 and repr(nu), in grid order
        self.cells = [(str(cli.resolve_t0(t0, self.cfg.t_max)), repr(nu))
                      for t0 in w.t0_list for nu in w.nu_list]

    def argvs(self, seed: int, baseline: bool = False) -> list[list[str]]:
        w = self.w
        config = self.baseline if baseline else self.config
        common = ["--config", str(config), "--seed", str(seed), "--threads", str(w.threads)]
        if w.t0_list:
            return [["sweep", *common, "--t0-list", ",".join(map(str, w.t0_list)),
                     "--nu-list", ",".join(map(str, w.nu_list)), "--seeds", str(w.seeds)]]
        argvs = [["enhance", *common, "--output", str(self.out)]]
        if w.roundtrip:
            argvs.append(["metrics", str(self.out), str(self.reference)])
        return argvs

    def invoke(self, argvs) -> tuple[list[str], str | None]:
        """Run each command in turn; returns their stdouts and the first error, if any."""
        stdouts = []
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(argv)
            except SystemExit as e:  # argparse rejected the arguments
                rc = e.code
            except Exception:  # an op that raises is a failed op, not a failed run
                return stdouts, traceback.format_exc(limit=4)
            stdouts.append(stdout.getvalue())
            if rc != 0:
                return stdouts, f"{argv[0]} exited {rc}: {stderr.getvalue().strip()[-300:]}"
        return stdouts, None

    def op(self, seed: int, counter: CallCounter, traced=None, expect=None,
           baseline: bool = False) -> Op:
        """One closed-loop op and its gate; see `execute` and `check`."""
        op, results = self.execute(seed, counter, traced, baseline)
        self.check(op, results, expect, baseline)
        op.problems = [f"seed {seed}: {p}" for p in op.problems]
        return op

    def execute(self, seed: int, counter: CallCounter, traced=None, baseline: bool = False):
        """Time the CLI commands of one op; `traced` is (recorder, patches, op id)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argvs = self.argvs(seed, baseline)
        calls0 = counter.count
        if traced is None:
            t = time.perf_counter()
            results = self.invoke(argvs)
            dt = time.perf_counter() - t
        else:
            rec, patches, op_id = traced
            with patches:
                t = time.perf_counter()
                results = rec.run_op(op_id, self.invoke, argvs)
                dt = time.perf_counter() - t
        return Op(seconds=dt, calls=counter.count - calls0), results

    def check(self, op: Op, results, expect: str | None = None, baseline: bool = False) -> None:
        """The gate; `expect` is the digest an earlier op of the same seed produced."""
        stdouts, error = results
        if error is not None:
            op.problems.append(error)
            return
        try:
            self._check(op, stdouts, 0 if baseline else self.w.n_iters)
        except (OSError, ValueError, KeyError) as e:
            op.problems.append(f"unreadable output: {e}")
        if expect is not None and op.digest != expect:
            op.problems.append("output bytes differ from an earlier op of the same seed")

    def _check(self, op: Op, stdouts: list[str], n: int) -> None:
        from noisecal.metrics import mse_low

        w, g = self.w, self.gate
        if w.t0_list:
            text = stdouts[0]
            op.problems, rows = g.check_sweep(text, self.cells, w.seeds, n)
            if rows:
                op.fidelity = statistics.fmean(float(r["mse_low"]) for r in rows)
                op.obj_ratio = statistics.fmean(float(r[f"obj{n}"]) / float(r["obj0"])
                                                for r in rows)
            op.digest = hashlib.sha256(text.encode()).hexdigest()
            return
        op.problems, x, objectives = g.check_enhance(self.out, w.frames, w.channels, w.size, n)
        if w.roundtrip:
            op.problems += g.check_metrics_json(stdouts[1])
        if x is not None:
            op.fidelity = mse_low(x, self.input, 0.5)
            op.digest = g.frames_digest(self.out, w.frames, w.channels)
        if len(objectives) == n + 1:
            op.obj_ratio = objectives[n] / objectives[0] if n else 1.0


def percentile_tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile (nearest rank) with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-p * n // 100))
    return xs[rank - 1], p


def run_plain(bench: Bench, seconds: float, counter: CallCounter):
    """Warm-up op, timed ops until `seconds` of them pass, then untimed checks: a
    re-run of the warm-up seed and uncalibrated runs of the first timed seeds.

    Set-up probes run between ops, evenly over the run, so that setup_s sees the
    same machine as the ops do; their time does not count against `seconds`.
    Returns (timed ops, baseline ops, every untimed op, set-up times).
    """
    first = bench.op(bench.seed_base, counter)
    ops, setup = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        due = start + len(setup) * seconds / SETUP_RUNS
        if len(setup) < SETUP_RUNS and time.perf_counter() >= due:
            t = time.perf_counter()
            setup.append(measure_setup(bench.config))
            deadline += time.perf_counter() - t
        ops.append(bench.op(bench.seed_base + 1 + len(ops), counter))
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup(bench.config))
    again = bench.op(bench.seed_base, counter, expect=first.digest or None)
    base = [bench.op(bench.seed_base + 1 + k, counter, baseline=True)
            for k in range(min(FIDELITY_OPS, len(ops)))]
    return ops, base, [first, again, *base], setup


def run_traced(bench: Bench, seconds: float, counter: CallCounter):
    """Warm-up op, then untraced/traced twins of each seed until `seconds` pass."""
    import spans

    rec = spans.Recorder()
    patches = spans.Patches(spans.TARGETS, rec.wrap)
    first = bench.op(bench.seed_base, counter)
    pairs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = 1 + len(pairs)
        plain = bench.op(bench.seed_base + k, counter)
        traced = bench.op(bench.seed_base + k, counter, (rec, patches, k),
                          expect=plain.digest or None)
        pairs.append((plain, traced))
    return first, pairs, rec, patches


def alloc_peak_mb(bench: Bench) -> float:
    """tracemalloc peak inside one GmmDenoiser.posterior_mean at the workload's t0."""
    import tracemalloc

    from noisecal import RngSeed, cli, gaussian_noise, read_video
    from noisecal.diffusion import forward_noise

    cfg = bench.cfg
    s = cli.build_schedule(cfg)
    x = read_video(cfg.input_dir)
    d = cli.build_denoiser(cfg, x.shape[0])
    x_t = forward_noise(x, cfg.t0, gaussian_noise(x.shape, RngSeed(bench.seed_base)), s)
    tracemalloc.start()
    try:
        d.posterior_mean(x_t, cfg.t0, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def end_to_end(bench: Bench, ops, base, checks, setup_times) -> tuple[dict, dict]:
    lat = [op.seconds for op in ops]
    tail, pct = percentile_tail(lat)
    fid = statistics.fmean(op.fidelity for op in ops[:len(base)])
    every = checks + ops
    values = {
        "frames_per_s": bench.frames_per_op * len(ops) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "calls_per_op": statistics.fmean(op.calls for op in ops),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": sum(not op.ok for op in every) / len(every),
        # calibrated over uncalibrated low-band MSE on the same seeds; the plain
        # MSE moves with the generated content far more than this ratio does
        "fidelity_vs_baseline": fid / statistics.fmean(op.fidelity for op in base),
        "fidelity_mse_low": fid,
    }
    notes = {
        "ops": len(ops),
        "op_tail_percentile": pct,
        "op_seconds": lat,
        "calls_per_op_distinct": sorted({op.calls for op in ops}),
        "setup_samples": setup_times,
        "fidelity_ops": len(base),
    }
    return values, notes


def per_layer(bench: Bench, pairs, rec, patches) -> tuple[dict, dict]:
    import spans

    traced = [t for _, t in pairs]
    plain = [p for p, _ in pairs]
    n = len(traced)
    values = spans.summarize(rec.spans, n, bench.w.threads)
    values["denoiser.alloc_peak_mb"] = alloc_peak_mb(bench)
    values["calibration.obj_ratio"] = statistics.fmean(t.obj_ratio for t in traced)
    values["trace.overhead"] = sum(t.seconds for t in traced) / sum(p.seconds for p in plain)
    STATE.mkdir(exist_ok=True)
    spans_file = STATE / f"spans-{bench.w.name}.csv"
    spans.write_spans(rec.spans, spans_file)
    notes = {"pairs": n, "spans": len(rec.spans), "spans_file": str(spans_file.relative_to(ROOT)),
             "targets_missing": patches.missing}
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "noisecal" / "__init__.py").is_file():
        fail(f"no noisecal sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, str(SRC))
    from workspace import WORKLOADS, make_workspace

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    w = WORKLOADS[args.workload]

    work = STATE / f"work-{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = make_workspace(w, args.seed, work)
        counter = CallCounter()
        import spans

        with spans.Patches([("", "noisecal.denoiser:GmmDenoiser", "posterior_mean")],
                           counter.wrap):
            bench = Bench(w, config, args.seed)
            if args.trace:
                first, pairs, rec, patches = run_traced(bench, args.seconds, counter)
                ops = [first] + [op for pair in pairs for op in pair]
                values, notes = per_layer(bench, pairs, rec, patches)
                declared = spec["per_layer"]
            else:
                timed, base, checks, setup_times = run_plain(bench, args.seconds, counter)
                ops = checks + timed
                values, notes = end_to_end(bench, timed, base, checks, setup_times)
                declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = machine()
    failed = [op for op in ops if not op.ok]
    print(f"# noisecal benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# machine: " + json.dumps(info))
    print("# notes: " + json.dumps({k: v for k, v in notes.items() if k != "op_seconds"}))
    for op in failed[:5]:
        print("# failed op: " + "; ".join(op.problems)[:500])
    units = {m["name"]: m["unit"] for m in declared}
    samples = {}
    if not args.trace:
        # printed for reading only: a healthy run has error_rate 0, which the
        # result line carries as `failed`/`attempted`, and the plain fidelity
        # MSE moves with the generated content, so fidelity_vs_baseline is bounded
        units |= {"error_rate": "ratio", "fidelity_mse_low": "mse"}
        samples = {"op_p50_s": f"(of {notes['ops']} ops)",
                   "op_tail_s": f"(p{notes['op_tail_percentile']} of {notes['ops']} ops)"}
    for name, unit in units.items():
        print(f"{name:24s} {values[name]:.6g} {unit} {samples.get(name, '')}".rstrip())
    # a failed op can leave a NaN, which is not JSON
    finite = {k: v if math.isfinite(v) else None for k, v in values.items()}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": finite[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    out = STATE / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "workload": w.name, "seed": args.seed,
                               "seconds": args.seconds, "machine": info, "notes": notes,
                               "problems": [op.problems for op in failed]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
