"""Command-line frontend: enhance, metrics, sweep.

Configuration comes from a strict JSON file (unknown keys rejected); `--seed`
overrides `sampler.seed`.  stdout carries machine-readable output only;
diagnostics go to stderr.  Exit codes follow the error's class: 0 success;
2 an I/O error, an OSError or a FormatError (a frame or tensor file that
breaks its format); 3 a numeric failure, a NumericError; 1 a configuration
or flag error, any other ValueError.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationConfig, nc_sdedit
from .denoiser import GmmDenoiser
from .diffusion import SamplerConfig
from .metrics import check_ssim_window, metric_report
from .schedule import NoiseSchedule, ddim_grid, linear_beta_schedule
from .tensor import NumericError, RngSeed, _finite_number, _map, _object, _read_json
from .vio import FormatError, read_video, write_video

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

# a sweep builds every run's configs before it reads a file, at about 170 us
# and 0.6 KB a run; the bound on its runs (t0 values x nu values x seeds)
# keeps that under 2 s and 6 MB, where an unbounded --seeds could ask for days
_SWEEP_RUN_LIMIT = 10_000

# a sweep stack holds at most this many bytes of video, so that from one
# 8x128x128 video per run on, where a call's work dwarfs its overhead, every
# run is its own stack and a sweep needs no more memory than one run per thread
_STACK_BYTES = 1 << 20


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


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
    denoiser_spec: str
    input_dir: str


def resolve_t0(raw, t_max: int) -> int:
    """Integers are absolute timesteps; floats are fractions of t_max.

    The resolved timestep must lie in [1, t_max]; nothing is clamped.
    """
    t0 = _finite_number(raw, "t0")
    if isinstance(raw, float):
        if not 0.0 <= raw <= 1.0:
            raise ValueError(f"fractional t0 must be in [0, 1], got {raw}")
        t0 = round(raw * t_max)
    if not 1 <= t0 <= t_max:
        raise ValueError(f"t0={raw!r} resolves to timestep {t0}, outside [1, {t_max}]")
    return t0


def _num(block: dict, key: str, default, kind=float):
    if key not in block:
        return default
    v = _finite_number(block[key], key)
    if kind is int and not isinstance(v, int):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return kind(v)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file, reading no other file.  Unknown
    keys are errors, and so are missing denoiser and io keys: both commands
    that read a config use all of them.  The ranges of the run settings are
    checked by building the schedule, the sampling grid and the run configs."""
    path = Path(path)
    sections = {"schedule", "sampler", "calibration", "denoiser", "io"}
    doc = _object(_read_json(path), str(path), sections)
    sched = _object(doc.get("schedule", {}), "'schedule'", {"T", "beta_start", "beta_end"})
    sampler = _object(doc.get("sampler", {}), "'sampler'", {"num_steps", "eta", "seed"})
    cal = _object(doc.get("calibration", {}), "'calibration'", {"t0", "N", "nu"})
    den = _object(doc.get("denoiser", {}), "'denoiser'", {"kind", "spec"}, {"kind", "spec"})
    io_block = _object(doc.get("io", {}), "'io'", {"input"}, {"input"})

    t_max = _num(sched, "T", 1000, int)
    if not 1 <= t_max <= _T_LIMIT:
        raise ValueError(f"T must be in [1, {_T_LIMIT}], got {t_max}")
    if den["kind"] != "gmm":
        raise ValueError(f"denoiser kind must be 'gmm', got {den['kind']!r}")

    def _resolve(key: str, p) -> str:
        if not isinstance(p, str):
            raise ValueError(f"{key} must be a path string, got {p!r}")
        return str(path.parent / p)

    cfg = RunConfig(
        t_max=t_max,
        beta_start=_num(sched, "beta_start", 1e-4),
        beta_end=_num(sched, "beta_end", 0.02),
        num_steps=_num(sampler, "num_steps", 30, int),
        eta=_num(sampler, "eta", 1.0),
        seed=_num(sampler, "seed", 0, int),
        t0=resolve_t0(cal.get("t0", 0.6), t_max),
        n_iters=_num(cal, "N", 3, int),
        nu=_num(cal, "nu", 1.0),
        denoiser_spec=_resolve("denoiser.spec", den["spec"]),
        input_dir=_resolve("io.input", io_block["input"]),
    )
    # the library's own checks, before any input is read
    ddim_grid(build_schedule(cfg), cfg.num_steps, cfg.t0)
    _run_configs(cfg, RngSeed(cfg.seed), cfg.t0, cfg.nu)
    return cfg


def build_schedule(cfg: RunConfig) -> NoiseSchedule:
    return linear_beta_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)


def build_denoiser(cfg: RunConfig, n_frames: int, frame_shape: tuple | None = None) -> GmmDenoiser:
    """Load the configured denoiser.  For an n_frames-long input its means
    must have 1 frame (a static-video prior, which posterior_mean applies to
    every frame) or n_frames, and frames of the input's (C, H, W) when
    frame_shape gives it; both are checked before any run starts."""
    d = GmmDenoiser.from_json_spec(cfg.denoiser_spec)
    if d.means.shape[1] not in (1, n_frames):
        raise ValueError(
            f"denoiser frames ({d.means.shape[1]}) do not match input frames ({n_frames})"
        )
    if frame_shape is not None and d.means.shape[2:] != frame_shape:
        raise ValueError(
            f"{cfg.denoiser_spec}: shape mismatch: mixture frames (C, H, W) are "
            f"{d.means.shape[2:]}, input frames are {frame_shape}"
        )
    return d


def _run_configs(cfg: RunConfig, rng: RngSeed, t0: int, nu: float):
    """(CalibrationConfig, SamplerConfig) of one calibrated enhancement at (t0, nu);
    all its draws hang off rng.  nu=0 with N > 0 is an error: the library
    takes it, but its N denoiser calls would leave the noise as it was."""
    if nu == 0 and cfg.n_iters > 0:
        raise ValueError(f"nu=0 calibrates no band, so N={cfg.n_iters} updates change nothing")
    cal = CalibrationConfig(
        t0=t0, n_iters=cfg.n_iters, nu=nu, rng=rng.substream(_STREAM_CALIBRATION)
    )
    samp = SamplerConfig(
        eta=cfg.eta, num_steps=cfg.num_steps, rng=rng.substream(_STREAM_SAMPLER)
    )
    return cal, samp


def cmd_enhance(cfg: RunConfig, output_dir: str) -> int:
    if Path(output_dir).resolve() == Path(cfg.input_dir).resolve():
        raise ValueError(f"--output {output_dir} is the input directory; it would be overwritten")
    x_ref = read_video(cfg.input_dir)
    check_ssim_window(x_ref.shape)  # frames too small for the report fail before any run
    s = build_schedule(cfg)
    d = build_denoiser(cfg, x_ref.shape[0], x_ref.shape[1:])
    cal, samp = _run_configs(cfg, RngSeed(cfg.seed), cfg.t0, cfg.nu)
    x0, trace = nc_sdedit(x_ref, cal, samp, d, s)
    out = Path(output_dir)
    x0 = write_video(x0, out)  # the frames as written, which metrics.json scores
    report = metric_report(x0, x_ref)
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
    n_runs = len(t0_list) * len(nu_list) * seeds
    if n_runs > _SWEEP_RUN_LIMIT:
        raise ValueError(
            f"a sweep runs at most {_SWEEP_RUN_LIMIT} runs (t0 values x nu values x seeds), "
            f"got {n_runs}"
        )
    s = build_schedule(cfg)
    master = RngSeed(cfg.seed)
    cells = [(resolve_t0(raw_t0, cfg.t_max), float(nu)) for raw_t0 in t0_list for nu in nu_list]
    seen = set()
    for t0, nu in cells:
        if (t0, nu) in seen:
            raise ValueError(f"sweep cell t0={t0}, nu={nu!r} is listed twice")
        seen.add((t0, nu))
    jobs = [(t0, nu, k) for t0, nu in cells for k in range(seeds)]
    runs = []  # every run is built, and so checked, before any file is read
    for t0, nu in cells:
        try:
            ddim_grid(s, cfg.num_steps, t0)
            for k in range(seeds):
                rng = master.substream(_STREAM_SWEEP, t0, _float_bits(nu), k)
                runs.append(_run_configs(cfg, rng, t0, nu))
        except ValueError as e:
            raise ValueError(f"sweep cell t0={t0}, nu={nu!r}: {e}") from None
    x_ref = read_video(cfg.input_dir)
    check_ssim_window(x_ref.shape)
    d = build_denoiser(cfg, x_ref.shape[0], x_ref.shape[1:])

    # runs of any t0 share a stack (nc_sdedit staggers their starts); cut in
    # job order into stacks of at most _STACK_BYTES of video
    size = max(1, _STACK_BYTES // x_ref.nbytes)
    stacks = [runs[j : j + size] for j in range(0, len(runs), size)]

    def scored_stack(stack: list[tuple]) -> list[list[float]]:
        """Each run's CSV values, in run order: mse_low, mse, ssim, d_sf, then the objectives."""
        cals, samps = zip(*stack)
        x0, traces = nc_sdedit(x_ref, cals, samps, d, s)
        reports = metric_report(x0, x_ref)
        return [[r.mse_low, r.mse, r.ssim, r.d_sf] + t.objectives for r, t in zip(reports, traces)]

    rows = [row for scored in _map(scored_stack, stacks, threads) for row in scored]
    n_obj = cfg.n_iters + 1  # every run records the objective after 0..N updates
    header = ["t0", "nu", "seed", "mse_low", "mse", "ssim", "d_sf"]
    header += [f"obj{i}" for i in range(n_obj)]
    print(",".join(header))
    for (t0, nu, k), row in zip(jobs, rows):
        print(",".join([str(t0), repr(nu), str(k)] + [repr(v) for v in row]))
    for i, (t0, nu) in enumerate(cells):  # jobs run cell by cell, seeds innermost
        metrics = [row[:4] for row in rows[i * seeds : (i + 1) * seeds]]
        means = np.mean(np.array(metrics, dtype=np.float64), axis=0)
        row = [str(t0), repr(nu), "mean"] + [repr(float(v)) for v in means] + [""] * n_obj
        print(",".join(row))
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1; anything else is a usage error."""
    try:
        v = int(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


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
        p.add_argument(  # enhance is one run, one stack: it runs in the calling thread
            "--threads", type=_positive_int, default=1, help="parallelism over a sweep's stacks"
        )

    p_enh = sub.add_parser("enhance", help="enhance a frame directory")
    add_common(p_enh)
    p_enh.add_argument("--output", required=True, help="directory for frames, trace and metrics")

    p_met = sub.add_parser("metrics", help="compare two frame directories")
    p_met.add_argument("dir_a")
    p_met.add_argument("dir_b")

    p_swp = sub.add_parser("sweep", help="grid over t0 and nu")
    add_common(p_swp)
    p_swp.add_argument("--t0-list", type=_numbers, required=True, help="comma-separated t0 values")
    p_swp.add_argument("--nu-list", type=_numbers, required=True, help="comma-separated nu values")
    p_swp.add_argument("--seeds", type=_positive_int, default=1, help="seeds per cell")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "metrics":
            return cmd_metrics(args.dir_a, args.dir_b)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=RngSeed(args.seed).seed)  # checked before any read
        if args.command == "enhance":
            return cmd_enhance(cfg, args.output)
        return cmd_sweep(cfg, args.t0_list, args.nu_list, args.seeds, args.threads)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # `python -m noisecal.cli` would otherwise exit 0 without running
    sys.exit('use "python -m noisecal"')
