"""Spans recorded around calls into the package's layers, and their arithmetic.

The recorder wraps functions under the names that calling modules look up
(callers import with `from .x import y`, so `noisecal.calibration.high_pass`
is wrapped, not only `noisecal.frequency.high_pass`).  Spans stay in memory as
tuples until the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover, children on other threads
included.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# (layer.function span name, owner, attribute); owner is "module" or "module:Class".
# The wrapper goes on each place a caller looks the function up.
TARGETS = (
    ("cli.cmd_enhance", "noisecal.cli", "cmd_enhance"),
    ("cli.cmd_sweep", "noisecal.cli", "cmd_sweep"),
    ("cli.cmd_metrics", "noisecal.cli", "cmd_metrics"),
    ("cli.load_config", "noisecal.cli", "load_config"),
    ("cli.build_schedule", "noisecal.cli", "build_schedule"),
    ("cli.build_denoiser", "noisecal.cli", "build_denoiser"),
    ("calibration.nc_sdedit", "noisecal.cli", "nc_sdedit"),
    ("calibration.calibrate_noise", "noisecal.calibration", "calibrate_noise"),
    ("diffusion.sdedit_init", "noisecal.calibration", "sdedit_init"),
    ("diffusion.estimate_x0", "noisecal.calibration", "estimate_x0"),
    ("diffusion.estimate_x0", "noisecal.diffusion", "estimate_x0"),
    ("diffusion.denoise_from", "noisecal.calibration", "denoise_from"),
    ("diffusion.ddim_step", "noisecal.diffusion", "ddim_step"),
    ("diffusion.forward_noise", "noisecal.diffusion", "forward_noise"),
    ("denoiser.predict_eps", "noisecal.denoiser:GmmDenoiser", "predict_eps"),
    ("denoiser.posterior_mean", "noisecal.denoiser:GmmDenoiser", "posterior_mean"),
    ("frequency.low_pass", "noisecal.calibration", "low_pass"),
    ("frequency.low_pass", "noisecal.metrics", "low_pass"),
    ("frequency.low_pass", "noisecal.frequency", "low_pass"),
    ("frequency.high_pass", "noisecal.calibration", "high_pass"),
    ("frequency.content_objective", "noisecal.calibration", "content_objective"),
    ("metrics.metric_report", "noisecal.cli", "metric_report"),
    ("vio.read_video", "noisecal.cli", "read_video"),
    ("vio.read_pnm", "noisecal.vio", "read_pnm"),
    ("vio.read_tensor", "noisecal.vio", "read_tensor"),
    ("vio.write_video", "noisecal.cli", "write_video"),
    ("vio.write_pnm", "noisecal.cli", "write_pnm"),
    ("vio.write_pnm", "noisecal.vio", "write_pnm"),
    ("tensor.gaussian_noise", "noisecal.calibration", "gaussian_noise"),
    ("tensor.generator", "noisecal.tensor:RngSeed", "generator"),
)

# positional index of the file path, for spans that count bytes moved
_PATH_ARG = {"vio.read_pnm": 0, "vio.read_tensor": 0, "vio.write_pnm": 1}

ROOT = "cli.op"

# span tuple fields
ID, NAME, START, END, PARENT, OP, THREAD, NBYTES = range(8)


class Recorder:
    """Collects spans from every thread; one op is open at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = -1
        self._op_stack: list[int] = []  # stack of the thread that opened the op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # first span on a pool thread: attribute it to what the op's thread
        # is inside of right now (the call that submitted the work)
        op_stack = self._op_stack
        return op_stack[-1] if op_stack else -1

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            nbytes = 0
            if name in _PATH_ARG:
                try:
                    nbytes = os.path.getsize(args[_PATH_ARG[name]])
                except OSError:
                    pass
            self.spans.append(
                (sid, name, start, end, parent, self._op, threading.get_ident(), nbytes)
            )

    def run_op(self, op: int, fn, *args):
        """Run one op under a root span; pool threads attach to this thread's stack."""
        self._op = op
        self._op_stack = self._stack()
        try:
            return self.span(ROOT, fn, *args)
        finally:
            self._op = -1
            self._op_stack = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Patches:
    """Swap wrappers in for the targets that exist; restore the originals on exit.

    A target the package no longer has is skipped and listed in `missing`.
    """

    def __init__(self, targets, make_wrapper) -> None:
        self.installed: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        for name, owner, attr in targets:
            obj = _resolve(owner)
            original = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            self.installed.append((obj, attr, original, make_wrapper(name, original)))

    def __enter__(self):
        for obj, attr, _, wrapper in self.installed:
            setattr(obj, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for obj, attr, original, _ in reversed(self.installed):
            setattr(obj, attr, original)
        return False


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            c_lo, c_hi = max(c[START], lo), min(c[END], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (hi - lo) - covered
    return out


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def write_spans(spans, path) -> None:
    """One CSV row per span; times in ns from the run's first span."""
    t0 = min((s[START] for s in spans), default=0)
    with open(path, "w") as f:
        f.write("id,name,start_ns,end_ns,parent,op,thread,bytes\n")
        for s in spans:
            f.write(f"{s[ID]},{s[NAME]},{s[START] - t0},{s[END] - t0},{s[PARENT]},{s[OP]},"
                    f"{s[THREAD]},{s[NBYTES]}\n")


def _dur(s) -> int:
    return s[END] - s[START]


_LOADS = ("cli.load_config", "cli.build_schedule", "cli.build_denoiser")
_CELLS = ("calibration.nc_sdedit", "metrics.metric_report")
_WRITES = ("vio.write_video", "vio.write_pnm")


def summarize(spans, n_ops: int, threads: int) -> dict[str, float]:
    """Per-layer metrics per traced op (times in s/op unless named _ms)."""
    selfs = self_times(spans)
    by_id = {s[ID]: s for s in spans}

    def parent_name(s) -> str:
        p = by_id.get(s[PARENT])
        return p[NAME] if p else ""

    def outermost(lay: str):
        return [s for s in spans if layer(s[NAME]) == lay and layer(parent_name(s)) != lay]

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    def self_s(prefix: str) -> float:
        """Self time per op of the spans whose names start with `prefix`."""
        return sum(selfs[s[ID]] for s in spans if s[NAME].startswith(prefix)) / 1e9 / n_ops

    def per_op(xs) -> float:
        return len(xs) / n_ops

    def mean_ms(xs, count: int) -> float:
        return sum(map(_dur, xs)) / 1e6 / max(count, 1)

    evals = named("denoiser.posterior_mean")
    freq = outermost("frequency")
    den = outermost("denoiser")
    roots = named(ROOT)
    reads = named("vio.read_pnm", "vio.read_tensor")
    writes = named("vio.write_pnm")
    loads = named(*_LOADS) + [s for s in named("vio.read_video")
                               if layer(parent_name(s)) == "cli"]
    return {
        "denoiser.calls": per_op(evals),
        "denoiser.self_s": self_s("denoiser."),
        "denoiser.call_ms": mean_ms(den, len(evals)),
        "frequency.calls": per_op(freq),
        "frequency.self_s": self_s("frequency."),
        "frequency.call_ms": mean_ms(freq, len(freq)),
        "calibration.iters": per_op([s for s in den
                                     if parent_name(s) == "calibration.calibrate_noise"]),
        "calibration.self_s": self_s("calibration."),
        "diffusion.steps": per_op(named("diffusion.ddim_step")),
        "diffusion.self_s": self_s("diffusion."),
        "metrics.calls": per_op(named("metrics.metric_report")),
        "metrics.self_s": self_s("metrics."),
        "vio.files_read": per_op(reads),
        "vio.files_written": per_op(writes),
        "vio.bytes_read": sum(s[NBYTES] for s in reads) / n_ops,
        "vio.bytes_written": sum(s[NBYTES] for s in writes) / n_ops,
        "vio.read_s": self_s("vio.read_"),
        "vio.write_s": self_s("vio.write_"),
        "tensor.noise_draws": per_op(named("tensor.generator")),
        "tensor.self_s": self_s("tensor."),
        "cli.load_s": sum(map(_dur, loads)) / 1e9 / n_ops,
        "cli.self_s": self_s("cli."),
        "cli.pool_efficiency": pool_efficiency(spans, by_id, threads),
        "trace.coverage": 1.0 - sum(selfs[s[ID]] for s in roots) / max(sum(map(_dur, roots)), 1),
    }


def pool_efficiency(spans, by_id, threads: int) -> float:
    """Busy time of the pooled stage's work spans / (threads x stage wall time).

    A sweep's stage is cmd_sweep and its work the per-cell nc_sdedit and
    metric_report spans; otherwise the stage is each op's frame writing, from
    the first write span's start to the last one's end.
    """
    sweeps = {s[ID]: s for s in spans if s[NAME] == "cli.cmd_sweep"}
    if sweeps:
        busy = sum(_dur(s) for s in spans if s[PARENT] in sweeps and s[NAME] in _CELLS)
        wall = sum(map(_dur, sweeps.values()))
    else:
        per_op: dict[int, list] = defaultdict(list)
        for s in spans:
            p = by_id.get(s[PARENT])
            if s[NAME] in _WRITES and not (p and p[NAME] in _WRITES):
                per_op[s[OP]].append(s)
        busy = sum(_dur(s) for ws in per_op.values() for s in ws)
        wall = sum(max(s[END] for s in ws) - min(s[START] for s in ws) for ws in per_op.values())
    return busy / (threads * wall) if wall else 0.0
