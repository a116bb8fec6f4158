"""Command-line frontend: enhance, metrics, sweep, sample.

Configuration comes from a strict JSON file (unknown keys rejected); a few
flags override file values.  stdout carries machine-readable output only;
diagnostics go to stderr.  Exit codes: 0 success, 1 configuration or flag
error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationConfig, nc_sdedit
from .denoiser import Denoiser, GmmDenoiser
from .diffusion import SamplerConfig, denoise_from
from .metrics import metric_report
from .schedule import NoiseSchedule, ddim_grid, linear_beta_schedule
from .tensor import NumericError, RngSeed, VideoTensor, gaussian_noise
from .vio import PnmFormatError, TensorFormatError, read_video, remove_video, write_video

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# fixed stream tags: every draw in a run hangs off one master seed
_STREAM_CALIBRATION = 1
_STREAM_SAMPLER = 2
_STREAM_SAMPLE_CMD = 3
_STREAM_SWEEP = 4

# every schedule in use has T <= 1000; the bound stops a typo from allocating gigabytes
_T_LIMIT = 100_000


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
    denoiser_kind: str | None
    denoiser_spec: str | None
    input_dir: str | None
    output_dir: str | None


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


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    return block


def _num(block: dict, key: str, default, kind=float):
    if key not in block:
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, Infinity, or an int beyond float range
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    if kind is int and not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return kind(v)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file; unknown keys are errors."""
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
    den = _section(doc, "denoiser", {"kind", "spec"})
    io_block = _section(doc, "io", {"input", "output"})

    t_max = _num(sched, "T", 1000, int)
    if not 1 <= t_max <= _T_LIMIT:
        raise ConfigError(f"T must be in [1, {_T_LIMIT}], got {t_max}")
    t0 = resolve_t0(cal.get("t0", 0.6), t_max)
    n_iters = _num(cal, "N", 3, int)
    if n_iters < 0:
        raise ConfigError(f"N must be >= 0, got {n_iters}")
    nu = _num(cal, "nu", 1.0)
    if not 0.0 <= nu <= 1.0:
        raise ConfigError(f"nu must be in [0, 1], got {nu}")

    kind = den.get("kind")
    if kind is not None and kind not in ("gmm", "dataset"):
        raise ConfigError(f"denoiser kind must be 'gmm' or 'dataset', got {kind!r}")
    spec = den.get("spec")
    if (kind is None) != (spec is None):
        raise ConfigError("denoiser needs both 'kind' and 'spec'")

    def _resolve(key: str, p):
        if p is None:
            return None
        if not isinstance(p, str):
            raise ConfigError(f"{key} must be a path string, got {p!r}")
        return str(path.parent / p)

    return RunConfig(
        t_max=t_max,
        beta_start=_num(sched, "beta_start", 1e-4),
        beta_end=_num(sched, "beta_end", 0.02),
        num_steps=_num(sampler, "num_steps", 30, int),
        eta=_num(sampler, "eta", 1.0),
        seed=_num(sampler, "seed", 0, int),
        t0=t0,
        n_iters=n_iters,
        nu=nu,
        denoiser_kind=kind,
        denoiser_spec=_resolve("denoiser.spec", spec),
        input_dir=_resolve("io.input", io_block.get("input")),
        output_dir=_resolve("io.output", io_block.get("output")),
    )


def build_schedule(cfg: RunConfig) -> NoiseSchedule:
    return linear_beta_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)


def build_denoiser(cfg: RunConfig, n_frames: int | None) -> GmmDenoiser:
    """Load the configured denoiser.  For an n_frames-long input its means
    must have 1 frame (a static-video prior, which posterior_mean applies to
    every frame) or n_frames; this is checked before any run starts."""
    if cfg.denoiser_kind is None:
        raise ConfigError("this command needs a 'denoiser' config section")
    if cfg.denoiser_kind == "dataset":
        d = GmmDenoiser.from_dataset(cfg.denoiser_spec)
    else:
        d = GmmDenoiser.from_json_spec(cfg.denoiser_spec)
    if n_frames is not None and d.means.shape[1] not in (1, n_frames):
        raise ConfigError(
            f"denoiser frames ({d.means.shape[1]}) do not match input frames ({n_frames})"
        )
    return d


def _run_pipeline(
    cfg: RunConfig,
    x_ref: VideoTensor,
    d: Denoiser,
    s: NoiseSchedule,
    rng: RngSeed,
    t0: int,
    nu: float,
):
    """One calibrated enhancement at (t0, nu); all its draws hang off rng."""
    cal = CalibrationConfig(
        t0=t0, n_iters=cfg.n_iters, nu=nu, rng=rng.substream(_STREAM_CALIBRATION)
    )
    samp = SamplerConfig(
        eta=cfg.eta, num_steps=cfg.num_steps, rng=rng.substream(_STREAM_SAMPLER)
    )
    return nc_sdedit(x_ref, cal, samp, d, s)


def cmd_enhance(cfg: RunConfig, baseline: bool, threads: int) -> int:
    if cfg.input_dir is None or cfg.output_dir is None:
        raise ConfigError("enhance needs io.input and io.output")
    if baseline and cfg.n_iters > 0:
        print(f"baseline flag set: overriding N={cfg.n_iters} with N=0", file=sys.stderr)
        cfg = replace(cfg, n_iters=0)
    x_ref = read_video(cfg.input_dir)
    s = build_schedule(cfg)
    d = build_denoiser(cfg, x_ref.shape[0])
    x0, trace = _run_pipeline(cfg, x_ref, d, s, RngSeed(cfg.seed), cfg.t0, cfg.nu)
    report = metric_report(x0, x_ref)  # before any write: frames too small for SSIM fail here

    out = Path(cfg.output_dir)
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


def _parse_number_list(text: str) -> list:
    out = []
    for piece in filter(None, map(str.strip, text.split(","))):
        try:
            v = int(piece)
        except ValueError:
            try:
                v = float(piece)
            except ValueError:
                raise ConfigError(f"not a number: {piece!r}") from None
        if not abs(v) <= sys.float_info.max:  # NaN, inf, or an int beyond float range
            raise ConfigError(f"not a finite number: {piece!r}")
        out.append(v)
    if not out:
        raise ConfigError("empty list")
    return out


def cmd_sweep(cfg: RunConfig, t0_list: list, nu_list: list, seeds: int, threads: int) -> int:
    if cfg.input_dir is None:
        raise ConfigError("sweep needs io.input")
    if seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {seeds}")
    x_ref = read_video(cfg.input_dir)
    s = build_schedule(cfg)
    d = build_denoiser(cfg, x_ref.shape[0])
    master = RngSeed(cfg.seed)

    cells = [(resolve_t0(raw_t0, cfg.t_max), float(nu)) for raw_t0 in t0_list for nu in nu_list]
    lowest = ddim_grid(s, cfg.num_steps, s.num_steps)[-1]
    for i, (t0, nu) in enumerate(cells):  # every cell is checked before any cell runs
        if (t0, nu) in cells[:i]:
            raise ConfigError(f"sweep cell t0={t0}, nu={nu!r} is listed twice")
        if not 0.0 <= nu <= 1.0:
            raise ConfigError(f"sweep cell nu={nu!r} is outside [0, 1]")
        if t0 < lowest:
            raise ConfigError(
                f"sweep cell t0={t0} is below {lowest}, the lowest step of the "
                f"{cfg.num_steps}-step sampling grid"
            )

    def run_cell(t0: int, nu: float, k: int):
        cell_rng = master.substream(_STREAM_SWEEP, t0, _float_bits(nu), k)
        x0, trace = _run_pipeline(cfg, x_ref, d, s, cell_rng, t0, nu)
        rep = metric_report(x0, x_ref)
        return (rep.mse_low, rep.mse, rep.ssim, rep.d_sf, trace.objectives)

    jobs = [(t0, nu, k) for t0, nu in cells for k in range(seeds)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda j: run_cell(*j), jobs))

    n_obj = cfg.n_iters + 1  # every run records the objective after 0..N updates
    header = ["t0", "nu", "seed", "mse_low", "mse", "ssim", "d_sf"]
    header += [f"obj{i}" for i in range(n_obj)]
    print(",".join(header))
    for (t0, nu, k), (mse_low, mse, ssim_v, dsf, objs) in zip(jobs, results):
        row = [str(t0), repr(nu), str(k), repr(mse_low), repr(mse), repr(ssim_v), repr(dsf)]
        print(",".join(row + [repr(o) for o in objs]))
    for i, (t0, nu) in enumerate(cells):  # jobs run cell by cell, seeds innermost
        rows = [r[:4] for r in results[i * seeds : (i + 1) * seeds]]
        means = np.mean(np.array(rows, dtype=np.float64), axis=0)
        row = [str(t0), repr(nu), "mean"] + [repr(float(v)) for v in means] + [""] * n_obj
        print(",".join(row))
    return EXIT_OK


def cmd_sample(cfg: RunConfig, count: int) -> int:
    if count < 0:
        raise ConfigError(f"--count must be >= 0, got {count}")
    if count == 0:
        return EXIT_OK
    if cfg.output_dir is None:
        raise ConfigError("sample needs io.output")
    s = build_schedule(cfg)
    d = build_denoiser(cfg, None)
    shape = tuple(d.means.shape[1:])
    master = RngSeed(cfg.seed)
    out = Path(cfg.output_dir)
    for old in out.glob("sample_*"):  # an earlier run's samples numbered count or higher
        m = re.fullmatch(r"sample_(\d{3,})", old.name)
        if m and int(m[1]) >= count and old.is_dir():
            remove_video(old)  # any other file inside is not a frame: OSError, exit 2
    grid = ddim_grid(s, s.num_steps, s.num_steps)  # the full ancestral chain; sampler.* unused
    for j in range(count):
        rng = master.substream(_STREAM_SAMPLE_CMD, j)
        chain = SamplerConfig(eta=1.0, num_steps=s.num_steps, rng=rng.substream(1))
        x0, _ = denoise_from(gaussian_noise(shape, rng.substream(0)), grid, d, s, chain)
        write_video(x0, out / f"sample_{j:03d}")
    print(f"sample: wrote {count} sample dirs to {out}", file=sys.stderr)
    return EXIT_OK


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "input", None) is not None:
        cfg = replace(cfg, input_dir=args.input)
    if getattr(args, "output", None) is not None:
        cfg = replace(cfg, output_dir=args.output)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noisecal",
        description="Reference-guided diffusion enhancement with noise calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override sampler.seed")
        p.add_argument("--input", help="override io.input")
        p.add_argument("--output", help="override io.output")

    p_enh = sub.add_parser("enhance", help="enhance a frame directory")
    add_common(p_enh)
    p_enh.add_argument("--baseline", action="store_true", help="force N=0 (no calibration)")
    p_enh.add_argument("--threads", type=int, default=1, help="frame-write parallelism")

    p_met = sub.add_parser("metrics", help="compare two frame directories")
    p_met.add_argument("dir_a")
    p_met.add_argument("dir_b")

    p_swp = sub.add_parser("sweep", help="grid over t0 and nu")
    add_common(p_swp)
    p_swp.add_argument("--t0-list", required=True, help="comma-separated t0 values")
    p_swp.add_argument("--nu-list", required=True, help="comma-separated nu values")
    p_swp.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    p_swp.add_argument("--threads", type=int, default=1, help="cell parallelism")

    p_smp = sub.add_parser("sample", help="unconditional samples from the denoiser's model")
    add_common(p_smp)
    p_smp.add_argument("--count", type=int, default=1)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "metrics":
            return cmd_metrics(args.dir_a, args.dir_b)
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "enhance":
            return cmd_enhance(cfg, args.baseline, args.threads)
        if args.command == "sweep":
            return cmd_sweep(
                cfg,
                _parse_number_list(args.t0_list),
                _parse_number_list(args.nu_list),
                args.seeds,
                args.threads,
            )
        return cmd_sample(cfg, args.count)
    except (PnmFormatError, TensorFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # `python -m noisecal.cli` would otherwise exit 0 without running
    sys.exit('use "python -m noisecal"')
