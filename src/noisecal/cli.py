"""Command-line frontend: enhance, metrics, sweep.

Configuration comes from a strict JSON file (unknown keys rejected); `--seed`
overrides `sampler.seed`.  stdout carries machine-readable output only;
diagnostics go to stderr.  Exit codes: 0 success, 1 configuration or flag
error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationConfig, nc_sdedit, start_grid
from .denoiser import GmmDenoiser
from .diffusion import SamplerConfig
from .metrics import metric_report
from .schedule import NoiseSchedule, linear_beta_schedule
from .tensor import NumericError, RngSeed, _finite_number
from .vio import PnmFormatError, TensorFormatError, read_video, write_video

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# fixed stream tags: every draw in a run hangs off one master seed; the tags
# are hashed into the substreams, so renumbering them would change every draw
_STREAM_CALIBRATION = 1
_STREAM_SAMPLER = 2
_STREAM_SWEEP = 4

# every schedule in use has T <= 1000; the bound stops a typo from allocating gigabytes
_T_LIMIT = 100_000

# a sweep stack holds at most this many bytes of video, so that from one
# 8x128x128 video per run on, where a call's work dwarfs its overhead, every
# run is its own stack and a sweep needs no more memory than one run per thread
_STACK_BYTES = 1 << 20


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; t0 is always an absolute timestep here.

    load_config is the one constructor, and the defaults live there."""

    t_max: int
    beta_start: float
    beta_end: float
    num_steps: int
    eta: float
    seed: int
    t0: int
    n_iters: int
    nu: float
    denoiser_kind: str
    denoiser_spec: str
    input_dir: str


def resolve_t0(raw, t_max: int) -> int:
    """Integers are absolute timesteps; floats are fractions of t_max.

    The resolved timestep must lie in [1, t_max]; nothing is clamped.
    """
    if isinstance(raw, bool):
        raise ConfigError(f"t0 must be a number, got {raw!r}")
    if isinstance(raw, int):
        t0 = raw
    elif isinstance(raw, float):
        if not 0.0 <= raw <= 1.0:
            raise ConfigError(f"fractional t0 must be in [0, 1], got {raw}")
        t0 = round(raw * t_max)
    else:
        raise ConfigError(f"t0 must be a number, got {raw!r}")
    if not 1 <= t0 <= t_max:
        raise ConfigError(f"t0={raw!r} resolves to timestep {t0}, outside [1, {t_max}]")
    return t0


def _section(doc: dict, name: str, allowed: set[str], required: bool = False) -> dict:
    """doc[name]; a required section must hold every allowed key."""
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    if required and set(block) != allowed:
        raise ConfigError(f"config section {name!r} needs {sorted(allowed)}")
    return block


def _num(block: dict, key: str, default, kind=float):
    if key not in block:
        return default
    v = _finite_number(block[key], key)
    if kind is int and not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return kind(v)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file, reading no other file.  Unknown
    keys are errors, and so are missing denoiser and io keys: both commands
    that read a config use all of them."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - {"schedule", "sampler", "calibration", "denoiser", "io"}
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")

    sched = _section(doc, "schedule", {"T", "beta_start", "beta_end"})
    sampler = _section(doc, "sampler", {"num_steps", "eta", "seed"})
    cal = _section(doc, "calibration", {"t0", "N", "nu"})
    den = _section(doc, "denoiser", {"kind", "spec"}, required=True)
    io_block = _section(doc, "io", {"input"}, required=True)

    t_max = _num(sched, "T", 1000, int)
    if not 1 <= t_max <= _T_LIMIT:
        raise ConfigError(f"T must be in [1, {_T_LIMIT}], got {t_max}")
    beta_start = _num(sched, "beta_start", 1e-4)
    beta_end = _num(sched, "beta_end", 0.02)
    linear_beta_schedule(t_max, beta_start, beta_end)  # its own checks, before any input is read
    t0 = resolve_t0(cal.get("t0", 0.6), t_max)
    n_iters = _num(cal, "N", 3, int)
    if n_iters < 0:
        raise ConfigError(f"N must be >= 0, got {n_iters}")
    nu = _num(cal, "nu", 1.0)
    if not 0.0 <= nu <= 1.0:
        raise ConfigError(f"nu must be in [0, 1], got {nu}")

    num_steps = _num(sampler, "num_steps", 30, int)
    if not 1 <= num_steps <= t_max:
        raise ConfigError(f"sampler.num_steps must be in [1, {t_max}], got {num_steps}")
    eta = _num(sampler, "eta", 1.0)
    if eta < 0:
        raise ConfigError(f"sampler.eta must be >= 0, got {eta}")

    kind = den["kind"]
    if kind not in ("gmm", "dataset"):
        raise ConfigError(f"denoiser kind must be 'gmm' or 'dataset', got {kind!r}")

    def _resolve(key: str, p) -> str:
        if not isinstance(p, str):
            raise ConfigError(f"{key} must be a path string, got {p!r}")
        return str(path.parent / p)

    return RunConfig(
        t_max=t_max,
        beta_start=beta_start,
        beta_end=beta_end,
        num_steps=num_steps,
        eta=eta,
        seed=_num(sampler, "seed", 0, int),
        t0=t0,
        n_iters=n_iters,
        nu=nu,
        denoiser_kind=kind,
        denoiser_spec=_resolve("denoiser.spec", den["spec"]),
        input_dir=_resolve("io.input", io_block["input"]),
    )


def build_schedule(cfg: RunConfig) -> NoiseSchedule:
    return linear_beta_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)


def build_denoiser(cfg: RunConfig, n_frames: int) -> GmmDenoiser:
    """Load the configured denoiser.  For an n_frames-long input its means
    must have 1 frame (a static-video prior, which posterior_mean applies to
    every frame) or n_frames; this is checked before any run starts."""
    if cfg.denoiser_kind == "dataset":
        d = GmmDenoiser.from_dataset(cfg.denoiser_spec)
    else:
        d = GmmDenoiser.from_json_spec(cfg.denoiser_spec)
    if d.means.shape[1] not in (1, n_frames):
        raise ConfigError(
            f"denoiser frames ({d.means.shape[1]}) do not match input frames ({n_frames})"
        )
    return d


def _run_configs(cfg: RunConfig, rng: RngSeed, t0: int, nu: float):
    """(CalibrationConfig, SamplerConfig) of one calibrated enhancement at (t0, nu);
    all its draws hang off rng."""
    cal = CalibrationConfig(
        t0=t0, n_iters=cfg.n_iters, nu=nu, rng=rng.substream(_STREAM_CALIBRATION)
    )
    samp = SamplerConfig(
        eta=cfg.eta, num_steps=cfg.num_steps, rng=rng.substream(_STREAM_SAMPLER)
    )
    return cal, samp


def cmd_enhance(cfg: RunConfig, output_dir: str, threads: int) -> int:
    x_ref = read_video(cfg.input_dir)
    s = build_schedule(cfg)
    d = build_denoiser(cfg, x_ref.shape[0])
    cal, samp = _run_configs(cfg, RngSeed(cfg.seed), cfg.t0, cfg.nu)
    x0, trace = nc_sdedit(x_ref, cal, samp, d, s)
    report = metric_report(x0, x_ref)  # before any write: frames too small for SSIM fail here

    out = Path(output_dir)
    write_video(x0, out, threads)
    (out / "trace.csv").write_text(trace.to_csv())
    (out / "metrics.json").write_text(report.to_json() + "\n")
    print(
        f"enhance: wrote {x0.shape[0]} frames to {out} "
        f"(calibration calls {trace.calibration_calls}, sampling calls {trace.sampling_calls})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_metrics(dir_a, dir_b) -> int:
    a = read_video(dir_a)
    b = read_video(dir_b)
    print(metric_report(a, b).to_json())
    return EXIT_OK


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def cmd_sweep(cfg: RunConfig, t0_list: list, nu_list: list, seeds: int, threads: int) -> int:
    x_ref = read_video(cfg.input_dir)
    s = build_schedule(cfg)
    d = build_denoiser(cfg, x_ref.shape[0])
    master = RngSeed(cfg.seed)

    cells = [(resolve_t0(raw_t0, cfg.t_max), float(nu)) for raw_t0 in t0_list for nu in nu_list]
    for i, (t0, nu) in enumerate(cells):
        if (t0, nu) in cells[:i]:
            raise ConfigError(f"sweep cell t0={t0}, nu={nu!r} is listed twice")
    jobs = [(t0, nu, k) for t0, nu in cells for k in range(seeds)]
    # every run is built, and so checked, before any runs.  No two --t0-list
    # entries resolve to one t0 (that would list each of its cells twice), so
    # a t0's jobs are adjacent and its group, in insertion order, is job order
    groups: dict[int, list[tuple]] = {}  # t0 -> its runs
    for t0, nu, k in jobs:
        try:
            start_grid(s, cfg.num_steps, t0)
            rng = master.substream(_STREAM_SWEEP, t0, _float_bits(nu), k)
            groups.setdefault(t0, []).append(_run_configs(cfg, rng, t0, nu))
        except ValueError as e:
            raise ConfigError(f"sweep cell t0={t0}, nu={nu!r}: {e}") from None

    # runs that share t0 share every level, so they step as one stack, cut
    # into stacks of at most _STACK_BYTES of video
    size = max(1, _STACK_BYTES // x_ref.nbytes)
    stacks = [runs[j : j + size] for runs in groups.values() for j in range(0, len(runs), size)]
    failed = threading.Event()  # set by a failing stack, so that no later stack starts work

    def scored_stack(stack: list[tuple]) -> list[tuple]:
        """Metric report and objectives of each run of one stack, in run order."""
        if failed.is_set():
            return []  # an earlier stack failed; the main thread raises its error first
        try:
            cals, samps = zip(*stack)
            x0, traces = nc_sdedit(x_ref, cals, samps, d, s)
            return [(metric_report(x, x_ref), trace.objectives) for x, trace in zip(x0, traces)]
        except Exception:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=threads) as pool:
        scored = [score for scores in pool.map(scored_stack, stacks) for score in scores]

    n_obj = cfg.n_iters + 1  # every run records the objective after 0..N updates
    header = ["t0", "nu", "seed", "mse_low", "mse", "ssim", "d_sf"]
    header += [f"obj{i}" for i in range(n_obj)]
    print(",".join(header))
    rows = [[r.mse_low, r.mse, r.ssim, r.d_sf] for r, _ in scored]
    for (t0, nu, k), row, (_, objs) in zip(jobs, rows, scored):
        print(",".join([str(t0), repr(nu), str(k)] + [repr(v) for v in row + objs]))
    for i, (t0, nu) in enumerate(cells):  # jobs run cell by cell, seeds innermost
        means = np.mean(np.array(rows[i * seeds : (i + 1) * seeds], dtype=np.float64), axis=0)
        row = [str(t0), repr(nu), "mean"] + [repr(float(v)) for v in means] + [""] * n_obj
        print(",".join(row))
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer flag with a floor; a usage error below it."""

    def integer(text: str) -> int:
        v = int(text)  # argparse reports a ValueError as "invalid integer value"
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {v}")
        return v

    return integer


def _numbers(text: str) -> list:
    """argparse type: comma-separated finite numbers; an empty entry, a trailing
    one included, is a usage error."""
    out = []
    for piece in text.split(","):
        try:
            try:
                v = int(piece)
            except ValueError:
                v = float(piece)
            out.append(_finite_number(v, "each entry"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{piece!r} is not a finite number") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noisecal",
        description="Reference-guided diffusion enhancement with noise calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override sampler.seed")

    p_enh = sub.add_parser("enhance", help="enhance a frame directory")
    add_common(p_enh)
    p_enh.add_argument("--output", required=True, help="directory for frames, trace and metrics")
    p_enh.add_argument(
        "--threads", type=_int_at_least(1), default=1, help="frame-write parallelism"
    )

    p_met = sub.add_parser("metrics", help="compare two frame directories")
    p_met.add_argument("dir_a")
    p_met.add_argument("dir_b")

    p_swp = sub.add_parser("sweep", help="grid over t0 and nu")
    add_common(p_swp)
    p_swp.add_argument("--t0-list", type=_numbers, required=True, help="comma-separated t0 values")
    p_swp.add_argument("--nu-list", type=_numbers, required=True, help="comma-separated nu values")
    p_swp.add_argument("--seeds", type=_int_at_least(1), default=1, help="seeds per cell")
    p_swp.add_argument(
        "--threads", type=_int_at_least(1), default=1, help="parallelism over stacks of runs"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "metrics":
            return cmd_metrics(args.dir_a, args.dir_b)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "enhance":
            return cmd_enhance(cfg, args.output, args.threads)
        return cmd_sweep(cfg, args.t0_list, args.nu_list, args.seeds, args.threads)
    except (PnmFormatError, TensorFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:  # ConfigError included
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # `python -m noisecal.cli` would otherwise exit 0 without running
    sys.exit('use "python -m noisecal"')
