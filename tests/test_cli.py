"""Command-line frontend: subcommands, config parsing, exit codes."""

import importlib.util
import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from doubles import write_frame_prior
from memory import traced_peak
from noisecal import (
    GmmDenoiser,
    NumericError,
    RngSeed,
    as_video,
    ddim_grid,
    gaussian_noise,
    read_video,
    toy_schedule,
    write_tensor,
    write_video,
)
from noisecal import cli
from noisecal.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    build_schedule,
    load_config,
    main,
    resolve_t0,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

_BASE = {
    "schedule": {"T": 50, "beta_start": 0.001, "beta_end": 0.02},
    "sampler": {"num_steps": 5, "eta": 1.0, "seed": 7},
    "calibration": {"t0": 0.6, "N": 2, "nu": 1.0},
    "denoiser": {"kind": "gmm", "spec": "prior.json"},
    "io": {"input": "input"},
}


def small_video(seed, frames=2, size=12, channels=1):
    raw = gaussian_noise((frames, channels, size, size), RngSeed(seed)) * 0.2 + 0.5
    return as_video(np.floor(np.clip(raw, 0, 1) * 255) / 255.0)


def setup_workdir(root: Path, overrides=None) -> Path:
    """Config file, a 3-frame prior and an input frame dir, all under one root."""
    doc = json.loads(json.dumps(_BASE))
    for section, block in (overrides or {}).items():
        if block is None:
            doc.pop(section, None)
        elif isinstance(block, dict):
            doc.setdefault(section, {}).update(block)
        else:
            doc[section] = block
    write_frame_prior(small_video(200, frames=3), root)
    write_video(small_video(201), root / "input")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cfg


# what setup_workdir writes: a run that fails on its config leaves exactly this
_WORKDIR = ["cfg.json", "input", "prior.json", "prior_0.vnt", "prior_1.vnt", "prior_2.vnt"]


def enhance(cfg: Path, *extra: str) -> int:
    """`noisecal enhance` on cfg, writing to `out` beside it."""
    return main(["enhance", "--config", str(cfg), "--output", str(cfg.parent / "out"), *extra])


def denoiser_calls(monkeypatch) -> list:
    """The level t of every GmmDenoiser.posterior_mean call from here on, in order."""
    calls = []
    real = GmmDenoiser.posterior_mean

    def counted(self, x_t, t, s):
        calls.append(t)
        return real(self, x_t, t, s)

    monkeypatch.setattr(GmmDenoiser, "posterior_mean", counted)
    return calls


def frame_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).glob("frame_*"))}


# ---------------------------------------------------------------- config


def test_resolve_t0_conventions():
    assert resolve_t0(600, 1000) == 600
    assert resolve_t0(0.6, 1000) == 600
    assert resolve_t0(1.0, 1000) == 1000
    with pytest.raises(ConfigError):
        resolve_t0(0.0, 1000)  # outside [1, T]: rejected, not clamped
    with pytest.raises(ConfigError):
        resolve_t0(2000, 1000)
    with pytest.raises(ConfigError):
        resolve_t0(0, 1000)
    with pytest.raises(ConfigError):
        resolve_t0(-5, 1000)
    with pytest.raises(ConfigError):
        resolve_t0(0.0004, 1000)  # fraction that rounds to timestep 0
    with pytest.raises(ConfigError):
        resolve_t0(True, 1000)
    with pytest.raises(ConfigError):
        resolve_t0(1.5, 1000)
    with pytest.raises(ConfigError):
        resolve_t0("600", 1000)


# the keys without defaults: every config must hold them
_MINIMAL = {"denoiser": {"kind": "gmm", "spec": "gmm.json"}, "io": {"input": "frames"}}


def test_load_config_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_MINIMAL))
    cfg = load_config(p)
    assert (cfg.t_max, cfg.t0, cfg.n_iters, cfg.nu) == (1000, 600, 3, 1.0)
    assert (cfg.num_steps, cfg.eta, cfg.seed) == (30, 1.0, 0)
    assert (cfg.beta_start, cfg.beta_end) == (1e-4, 0.02)


def test_load_config_resolves_paths_relative_to_file(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    p = sub / "cfg.json"
    p.write_text(json.dumps(_MINIMAL))
    cfg = load_config(p)
    assert (cfg.input_dir, cfg.denoiser_spec) == (str(sub / "frames"), str(sub / "gmm.json"))


def test_load_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"scheduler": {"T": 10}}))
    with pytest.raises(ConfigError, match=r"unknown keys in .*cfg\.json: \['scheduler'\]"):
        load_config(p)


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"sampler": {"num_steps": 5, "steps": 5}}))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(p)


def test_load_config_rejects_lonely_denoiser_kind(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"denoiser": {"kind": "gmm"}, "io": {"input": "frames"}}))
    with pytest.raises(ConfigError, match=r"'denoiser' needs \['kind', 'spec'\]"):
        load_config(p)


@pytest.mark.parametrize("t_max", [10**12, 100_001])
def test_load_config_bounds_schedule_length(tmp_path, t_max):
    # checked before build_schedule, so the bad value never allocates
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schedule": {"T": t_max}, **_MINIMAL}))
    with pytest.raises(ConfigError, match="T must be in"):
        load_config(p)
    # the default betas drive alpha_bar to 0 long before 100000 steps
    betas = {"beta_start": 1e-7, "beta_end": 1e-5}
    p.write_text(json.dumps({"schedule": {"T": 100_000, **betas}, **_MINIMAL}))
    assert load_config(p).t_max == 100_000


# ---------------------------------------------------------------- enhance


def test_enhance_end_to_end(tmp_path, capsys):
    cfg = setup_workdir(tmp_path)
    assert enhance(cfg) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""  # stdout is reserved for machine output
    assert "enhance: wrote 2 frames" in captured.err

    out = tmp_path / "out"
    assert sorted(p.name for p in out.glob("frame_*")) == [
        "frame_00000.pgm",
        "frame_00001.pgm",
    ]
    trace_lines = (out / "trace.csv").read_text().strip().split("\n")
    assert trace_lines[0] == "iteration,objective"
    assert len([ln for ln in trace_lines if not ln.startswith("#")]) == 4  # header + N+1
    report = json.loads((out / "metrics.json").read_text())
    assert list(report) == ["mse", "mse_low", "ssim", "sf_a", "sf_b", "d_sf"]


def test_enhance_metrics_json_scores_the_written_frames(tmp_path, capsys):
    # the report is of the frames on disk, clamped and 8-bit quantized, so it
    # is the report `metrics` prints for the output and the input
    cfg = setup_workdir(tmp_path)
    assert enhance(cfg) == EXIT_OK
    out = tmp_path / "out"
    assert main(["metrics", str(out), str(tmp_path / "input")]) == EXIT_OK
    assert (out / "metrics.json").read_text() == capsys.readouterr().out


def test_enhance_then_metrics_peak_memory_is_a_few_inputs(tmp_path, capsys):
    """`enhance` and then `metrics` on an 8-frame RGB clip: the reads,
    nc_sdedit, write_video and both reports peak at 4.69x the input's bytes
    beyond the mixture's (6.17x when a step kept its input and the band split
    ran in one piece)."""
    x = small_video(230, frames=8, size=64, channels=3)
    write_video(x, tmp_path / "input")
    write_frame_prior(small_video(231, frames=2, size=64, channels=3), tmp_path)
    doc = json.loads(json.dumps(_BASE))
    doc["calibration"].update(N=1, nu=0.5)
    doc["sampler"]["num_steps"] = 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))

    def op():
        assert enhance(cfg, "--threads", "1") == EXIT_OK
        assert main(["metrics", str(tmp_path / "out"), str(tmp_path / "input")]) == EXIT_OK

    peak, _ = traced_peak(op)
    mixture = 2 * x[0].nbytes  # two one-frame means
    assert peak - mixture < 5.0 * x.nbytes


def test_enhance_rerun_is_byte_identical(tmp_path):
    cfg = setup_workdir(tmp_path)
    main(["enhance", "--config", str(cfg), "--output", str(tmp_path / "o1")])
    main(["enhance", "--config", str(cfg), "--output", str(tmp_path / "o2")])
    assert frame_bytes(tmp_path / "o1") == frame_bytes(tmp_path / "o2")


def test_enhance_seed_override_changes_run(tmp_path):
    # the zero-variance frame prior quantizes to near seed-independent
    # frames, so seed sensitivity is checked on the full-precision trace
    cfg = setup_workdir(tmp_path)
    main(["enhance", "--config", str(cfg), "--output", str(tmp_path / "o1")])
    main(["enhance", "--config", str(cfg), "--output", str(tmp_path / "o2"), "--seed", "7"])
    main(["enhance", "--config", str(cfg), "--output", str(tmp_path / "o3"), "--seed", "8"])
    assert frame_bytes(tmp_path / "o1") == frame_bytes(tmp_path / "o2")  # 7 is the config seed
    trace = lambda name: (tmp_path / name / "trace.csv").read_text()
    assert trace("o1") == trace("o2")
    assert trace("o1") != trace("o3")


def test_enhance_with_gmm_spec(tmp_path):
    means = [gaussian_noise((1, 1, 12, 12), RngSeed(s)) * 0.1 + 0.5 for s in (210, 211)]
    write_tensor(as_video(means[0]), tmp_path / "m0.vnt")
    write_tensor(as_video(means[1]), tmp_path / "m1.vnt")
    spec = [
        {"weight": 0.5, "mean": "m0.vnt", "variance": 0.05},
        {"weight": 0.5, "mean": "m1.vnt"},
    ]
    (tmp_path / "gmm.json").write_text(json.dumps(spec))
    cfg = setup_workdir(tmp_path, {"denoiser": {"kind": "gmm", "spec": "gmm.json"}})
    assert enhance(cfg) == EXIT_OK
    assert (tmp_path / "out" / "metrics.json").exists()


def test_enhance_frames_below_ssim_window_write_nothing(tmp_path, capsys, monkeypatch):
    calls = denoiser_calls(monkeypatch)
    cfg = setup_workdir(tmp_path)
    # the same frames and components, now 8x8
    write_frame_prior(small_video(213, 3)[:, :, :8, :8], tmp_path)
    write_video(small_video(213, 2)[:, :, :8, :8], tmp_path / "input")
    assert enhance(cfg) == EXIT_CONFIG
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert calls == []  # the input is checked before any run starts


def test_sweep_frames_below_ssim_window_run_nothing(tmp_path, capsys, monkeypatch):
    calls = denoiser_calls(monkeypatch)
    cfg = setup_workdir(tmp_path)
    write_frame_prior(small_video(213, 3)[:, :, :8, :8], tmp_path)
    write_video(small_video(213, 2)[:, :, :8, :8], tmp_path / "input")
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30", "--nu-list", "1.0"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "window" in captured.err
    assert calls == []


def test_metrics_frames_below_ssim_window_is_config_error(tmp_path, capsys):
    for name, seed in (("a", 214), ("b", 215)):
        write_video(small_video(seed)[:, :, :8, :8], tmp_path / name)
    assert main(["metrics", str(tmp_path / "a"), str(tmp_path / "b")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frames are 8x8; the 11x11 window does not fit" in captured.err


def test_enhance_missing_input_is_io_error(tmp_path, capsys):
    cfg = setup_workdir(tmp_path, {"io": {"input": "nowhere"}})
    assert enhance(cfg) == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_enhance_without_io_is_config_error(tmp_path, capsys):
    cfg = setup_workdir(tmp_path, {"io": None})
    assert enhance(cfg) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_enhance_names_t_when_alpha_bar_underflows(tmp_path, capsys):
    # T is within its bound, but with the default betas alpha_bar reaches
    # 1.43e-322 at step 85546 and stays there
    cfg = setup_workdir(tmp_path, {"schedule": {"T": 100_000, "beta_start": 1e-4, "beta_end": 0.02}})
    assert enhance(cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "T=100000 and betas from 0.0001 to 0.02" in err
    assert "stops decreasing at step 85547" in err
    assert not (tmp_path / "out").exists()


def test_invalid_json_is_config_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    assert enhance(p) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("t0", [0.0, -5, 20])
def test_enhance_rejects_t0_outside_sampling_range(tmp_path, capsys, t0):
    # T=1000 with 5 steps puts the first grid step at 200: t0=20 has nothing to sample
    cfg = setup_workdir(tmp_path, {"schedule": {"T": 1000}, "calibration": {"t0": t0}})
    assert enhance(cfg) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_NUMERIC_KEYS = [
    ("schedule", "T"),
    ("schedule", "beta_start"),
    ("schedule", "beta_end"),
    ("sampler", "num_steps"),
    ("sampler", "eta"),
    ("sampler", "seed"),
    ("calibration", "t0"),
    ("calibration", "N"),
    ("calibration", "nu"),
]


@pytest.mark.parametrize("section,key", _NUMERIC_KEYS)
def test_enhance_rejects_non_finite_config_number(tmp_path, capsys, section, key):
    # json reads NaN, Infinity and -Infinity as floats; each is a config error
    for i, bad in enumerate((float("nan"), float("inf"), float("-inf"))):
        root = tmp_path / str(i)
        root.mkdir()
        cfg = setup_workdir(root, {section: {key: bad}})
        assert enhance(cfg) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (root / "out").exists()


_GMM = {"denoiser": {"kind": "gmm", "spec": "gmm.json"}}


@pytest.mark.parametrize(
    "overrides,spec,message",
    [
        pytest.param({"denoiser": {"kind": "gmm", "spec": 5}}, None, None, id="spec-not-a-path"),
        pytest.param({"io": {"input": ["a"]}}, None, None, id="input-not-a-path"),
        pytest.param(_GMM, [3], None, id="component-not-an-object"),
        pytest.param(_GMM, [], None, id="spec-empty-list"),
        pytest.param(_GMM, {"weight": 1.0, "mean": "m0.vnt"}, None, id="spec-an-object"),
        pytest.param(_GMM, [{"weight": 1.0}], None, id="component-without-mean"),
        pytest.param(_GMM, [{"weight": None, "mean": "m0.vnt"}], None, id="null-weight"),
        pytest.param(_GMM, [{"weight": 1.0, "mean": 7}], None, id="mean-not-a-path"),
        pytest.param([], None, None, id="top-level-list"),
        pytest.param({"sampler": []}, None, None, id="section-not-an-object"),
        pytest.param({"sampler": {"eta": "1"}}, None, None, id="eta-string"),
        pytest.param({"sampler": {"eta": -1.0}}, None, None, id="negative-eta"),
        pytest.param({"sampler": {"eta": 1.5}}, None, None, id="eta-above-1"),
        pytest.param({"sampler": {"num_steps": 2.5}}, None, None, id="num-steps-fraction"),
        pytest.param({"sampler": {"num_steps": 0}}, None, None, id="num-steps-0"),
        pytest.param({"sampler": {"num_steps": 51}}, None, None, id="num-steps-above-T"),
        pytest.param(
            {"calibration": {"N": -1}}, None, "N (n_iters) must be >= 0, got -1", id="negative-N"
        ),
        pytest.param({"calibration": {"nu": 1.5}}, None, None, id="nu-above-1"),
        pytest.param({"denoiser": {"kind": "unet"}}, None, None, id="unknown-denoiser-kind"),
        pytest.param(
            {"schedule": {"beta_start": 0.5, "beta_end": 0.1}}, None, None, id="betas-reversed"
        ),
        pytest.param({"denoiser": None}, None, None, id="no-denoiser"),
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, capsys, overrides, spec, message):
    write_tensor(small_video(212, frames=1), tmp_path / "m0.vnt")
    if spec is not None:
        (tmp_path / "gmm.json").write_text(json.dumps(spec))
    if isinstance(overrides, dict):
        cfg = setup_workdir(tmp_path, overrides)
    else:  # the whole document
        cfg = setup_workdir(tmp_path)
        cfg.write_text(json.dumps(overrides))
    assert enhance(cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err
    assert message is None or message in captured.err  # names the config key
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "file,old,new,key",
    [
        ("cfg.json", '"N": 2', '"N": 2, "N": 0', "N"),
        ("cfg.json", '"io": {', '"calibration": {"N": 0}, "io": {', "calibration"),
        ("prior.json", '"weight": 1.0', '"weight": 1.0, "weight": 2.0', "weight"),
    ],
    ids=["key", "section", "spec-weight"],
)
def test_key_given_twice_is_config_error(tmp_path, capsys, monkeypatch, file, old, new, key):
    """json.loads alone keeps the last of two equal keys, so "N": 2, "N": 0 would
    run uncalibrated and exit 0.  A config at fault is refused before any frame
    is read; the spec is read after the frames, and still before any run."""
    calls = denoiser_calls(monkeypatch)
    reads = []
    read_video_ = cli.read_video
    monkeypatch.setattr(cli, "read_video", lambda path: reads.append(path) or read_video_(path))
    cfg = setup_workdir(tmp_path)
    path = tmp_path / file
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    assert enhance(cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: invalid JSON: key {key!r} is given twice" in captured.err
    assert calls == []
    assert (reads == []) == (file == "cfg.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == _WORKDIR


@pytest.mark.parametrize("file", ["cfg.json", "prior.json"], ids=["config", "spec"])
def test_json_nested_too_deep_to_parse_is_config_error(tmp_path, capsys, monkeypatch, file):
    """json's parser gives up on deep nesting with a RecursionError, which is no
    ValueError; it is still the file's fault, and exits 1 before any run."""
    calls = denoiser_calls(monkeypatch)
    reads = []
    read_video_ = cli.read_video
    monkeypatch.setattr(cli, "read_video", lambda path: reads.append(path) or read_video_(path))
    cfg = setup_workdir(tmp_path)
    path = tmp_path / file
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert enhance(cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {path}: invalid JSON: " in captured.err
    assert calls == []
    assert (reads == []) == (file == "cfg.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == _WORKDIR


def assert_sweep_config_rejected(tmp_path, capsys, monkeypatch, sampler, message):
    """The config is at fault, not a sweep cell, and no run starts."""
    calls = denoiser_calls(monkeypatch)
    cfg = setup_workdir(tmp_path, {"sampler": sampler})
    argv = ["sweep", "--config", str(cfg), "--t0-list", "30", "--nu-list", "1.0"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "sweep cell" not in captured.err
    assert calls == []


def test_sweep_negative_eta_is_rejected_by_load_config(tmp_path, capsys, monkeypatch):
    message = "eta must be in [0, 1], got -1.0"
    assert_sweep_config_rejected(tmp_path, capsys, monkeypatch, {"eta": -1.0}, message)


def test_sweep_eta_above_1_is_rejected_by_load_config(tmp_path, capsys, monkeypatch):
    # DDIM's eta is in [0, 1]; whether a larger one fits sigma^2 <= 1 - alpha_bar
    # depends on the grid, so it would fail late, in a stack
    message = "eta must be in [0, 1], got 1.5"
    assert_sweep_config_rejected(tmp_path, capsys, monkeypatch, {"eta": 1.5}, message)


@pytest.mark.parametrize("num_steps", [0, 51])
def test_sweep_num_steps_out_of_range_is_rejected_by_load_config(
    tmp_path, capsys, monkeypatch, num_steps
):
    # T=50 in every workdir here
    message = f"num_steps must be in [1, 50], got {num_steps}"
    sampler = {"num_steps": num_steps}
    assert_sweep_config_rejected(tmp_path, capsys, monkeypatch, sampler, message)


_BAD_TENSORS = {
    "zero-dim": struct.pack("<5I", 4, 1, 0, 12, 12),
    "huge-dims": struct.pack("<5I", 4, *(65536,) * 4),  # 2**64 elements, empty payload
    "nan-payload": struct.pack("<5I", 4, 1, 1, 12, 12) + struct.pack("<f", float("nan")) * 144,
    "five-bytes": b"\x04",
    "truncated-dims": struct.pack("<3I", 4, 1, 1),
}


@pytest.mark.parametrize("blob", _BAD_TENSORS.values(), ids=_BAD_TENSORS.keys())
def test_enhance_bad_tensor_file_is_io_error(tmp_path, capsys, blob):
    (tmp_path / "m0.vnt").write_bytes(b"VNT1" + blob)
    (tmp_path / "gmm.json").write_text(json.dumps([{"weight": 1.0, "mean": "m0.vnt"}]))
    cfg = setup_workdir(tmp_path, _GMM)
    assert enhance(cfg) == EXIT_IO
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_enhance_rejects_mixture_frame_count(tmp_path, capsys):
    # the input has 2 frames: a mixture must have 1 frame (a static prior) or 2
    write_tensor(small_video(212, frames=3), tmp_path / "m0.vnt")
    (tmp_path / "gmm.json").write_text(json.dumps([{"weight": 1.0, "mean": "m0.vnt"}]))
    cfg = setup_workdir(tmp_path, _GMM)
    assert enhance(cfg) == EXIT_CONFIG
    assert "do not match input frames (2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["enhance", "sweep"])
@pytest.mark.parametrize("dims", [(1, 3, 12, 12), (1, 1, 12, 8)], ids=["channels", "width"])
def test_mixture_frame_shape_mismatch_is_config_error(
    tmp_path, capsys, monkeypatch, command, dims
):
    # the input is 2x1x12x12; the frame count matches (one frame), the frame shape does
    # not, and the error names the spec and both (C, H, W) before any denoiser call
    calls = denoiser_calls(monkeypatch)
    write_tensor(gaussian_noise(dims, RngSeed(213)), tmp_path / "m0.vnt")
    (tmp_path / "gmm.json").write_text(json.dumps([{"weight": 1.0, "mean": "m0.vnt"}]))
    cfg = setup_workdir(tmp_path, _GMM)
    if command == "sweep":
        argv = ["sweep", "--config", str(cfg), "--t0-list", "30", "--nu-list", "1.0"]
        assert main(argv + ["--threads", "2"]) == EXIT_CONFIG
    else:
        assert enhance(cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    spec = tmp_path / "gmm.json"
    assert (
        f"{spec}: shape mismatch: mixture frames (C, H, W) are {dims[1:]}, "
        "input frames are (1, 12, 12)"
    ) in captured.err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["same", "dot", "relative", "symlink"])
def test_enhance_output_onto_its_input_is_config_error(tmp_path, capsys, monkeypatch, output):
    """Every spelling of the input directory is caught before a frame is read."""
    cfg = setup_workdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path / "input")
    monkeypatch.chdir(tmp_path)
    spelled = {
        "same": str(tmp_path / "input"),
        "dot": f"{tmp_path}/./input",
        "relative": "input",
        "symlink": str(tmp_path / "link"),
    }[output]
    before = frame_bytes(tmp_path / "input")
    assert main(["enhance", "--config", str(cfg), "--output", spelled]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--output {spelled} is the input directory" in captured.err
    assert sorted(p.name for p in (tmp_path / "input").iterdir()) == sorted(before)
    assert frame_bytes(tmp_path / "input") == before


def test_sweep_nu0_cell_with_updates_is_config_error(tmp_path, capsys, monkeypatch):
    # nu=0 calibrates no band: N updates would cost N denoiser calls per run and
    # give the rows of N=0; nu=0 with N=0, the plain baseline, still runs
    argv = ["--t0-list", "30", "--nu-list", "0,0.5"]
    plain = setup_workdir(tmp_path / "plain", {"calibration": {"N": 0}})
    assert main(["sweep", "--config", str(plain), *argv]) == EXIT_OK
    capsys.readouterr()
    calls = denoiser_calls(monkeypatch)
    cfg = setup_workdir(tmp_path)  # N=2
    assert main(["sweep", "--config", str(cfg), *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "sweep cell t0=30, nu=0.0: nu=0 calibrates no band, so N=2 updates change nothing"
    assert message in captured.err
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "1.0", "--seeds", "abc"],
        ["enhance", "--config", "CFG", "--output", "OUT", "--no-such-flag"],
        ["enhance"],
        ["enhance", "--config", "CFG"],
        [],
        ["enhance", "--config", "CFG", "--output", "OUT", "--threads", "0"],
        ["enhance", "--config", "CFG", "--output", "OUT", "--threads", "-1"],
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "1.0", "--threads", "0"],
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "1.0", "--threads", "-1"],
        ["sweep", "--config", "CFG", "--t0-list", "0.4,abc", "--nu-list", "1.0"],
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "1.0", "--seeds", "0"],
        ["sweep", "--config", "NO_IO", "--t0-list", "30", "--nu-list", "1.0"],
        ["sweep", "--config", "CFG", "--t0-list", "30,,40", "--nu-list", "1.0"],
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "0.5,1.0,"],
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "1.0", "--output", "x"],
    ],
    ids=[
        "seeds-abc", "unknown-flag", "no-config", "no-output", "no-command",
        "enhance-threads-0", "enhance-threads-neg", "sweep-threads-0", "sweep-threads-neg",
        "t0-list-abc", "seeds-0", "sweep-no-input",
        "t0-list-empty-entry", "nu-list-trailing-comma", "sweep-output",
    ],
)
def test_bad_flags_are_config_errors(tmp_path, capsys, argv):
    paths = {
        "CFG": setup_workdir(tmp_path),
        "NO_IO": setup_workdir(tmp_path / "no_io", {"io": None}),
        "OUT": tmp_path / "out",
    }
    assert main([str(paths.get(a, a)) for a in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enhance", "--config", "CFG", "--output", "OUT", "--baseline"],
        ["enhance", "--config", "CFG", "--output", "OUT", "--input", "IN"],
        ["sweep", "--config", "CFG", "--t0-list", "30", "--nu-list", "1.0", "--input", "IN"],
    ],
    ids=["enhance-baseline", "enhance-input", "sweep-input"],
)
def test_removed_flags_are_unrecognized(tmp_path, capsys, argv):
    """N=0 and the input directory have one way in each: the config."""
    paths = {"CFG": setup_workdir(tmp_path), "OUT": tmp_path / "out", "IN": tmp_path / "input"}
    assert main([str(paths.get(a, a)) for a in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == _WORKDIR


def test_config_io_output_is_an_unknown_key(tmp_path, capsys):
    """The output directory has one way in: enhance --output."""
    cfg = setup_workdir(tmp_path, {"io": {"output": "elsewhere"}})
    assert enhance(cfg) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown keys in 'io'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == _WORKDIR


@pytest.mark.parametrize("command", ["enhance", "sweep"])
@pytest.mark.parametrize(
    "overrides,flags,message",
    [
        ({"schedule": {"beta_start": 0.5, "beta_end": 0.1}, "io": {"input": "nope"}}, [],
         "beta_start <= beta_end"),
        ({"denoiser": None}, [], "'denoiser' needs"),
        ({"denoiser": {"kind": "dataset", "spec": "input"}}, [],
         "denoiser kind must be 'gmm', got 'dataset'"),
        ({"io": None}, [], "'io' needs"),
        # T=50 with 5 steps puts the first grid step at 10
        ({"calibration": {"t0": 5}}, [], "t0=5 is outside [10, 50]"),
        ({"sampler": {"seed": -1}}, [], "seed must be a 64-bit unsigned integer, got -1"),
        ({"sampler": {"seed": 2**64}}, [], f"64-bit unsigned integer, got {2**64}"),
        ({}, ["--seed", "-1"], "seed must be a 64-bit unsigned integer, got -1"),
        ({"calibration": {"nu": 0.0, "N": 3}}, [],
         "nu=0 calibrates no band, so N=3 updates change nothing"),
    ],
    ids=[
        "betas-reversed", "no-denoiser", "dataset-kind", "no-input",
        "t0-below-grid", "negative-seed", "seed-2-64", "negative-seed-flag", "nu0-with-updates",
    ],
)
def test_load_config_checks_come_before_any_read(
    tmp_path, capsys, monkeypatch, command, overrides, flags, message
):
    """A config at fault exits 1, even where its input directory is missing too."""
    reads = []
    monkeypatch.setattr(cli, "read_video", lambda path: reads.append(path))
    cfg = setup_workdir(tmp_path, overrides)
    if command == "sweep":
        argv = ["sweep", "--config", str(cfg), "--t0-list", "30", "--nu-list", "1.0"]
        assert main(argv + flags) == EXIT_CONFIG
    else:
        assert enhance(cfg, *flags) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert reads == []
    assert not (tmp_path / "out").exists()


def run_module(*args, module="noisecal", **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, "-m", module, *args], env=env, capture_output=True)


def test_python_m_noisecal_runs_main(tmp_path):
    assert run_module("--help").returncode == EXIT_OK
    assert run_module("metrics", str(tmp_path / "a"), str(tmp_path / "b")).returncode == EXIT_IO


def test_python_m_noisecal_cli_points_to_the_entry_point(tmp_path):
    """The module path is not a second entry point, and it does not pass silently."""
    proc = run_module("enhance", "--config", str(tmp_path / "nowhere.json"), module="noisecal.cli")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == b""
    assert b'use "python -m noisecal"' in proc.stderr


def test_enhance_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The posterior runs on BLAS matrix-vector products.  16 components of
    32x32 frames are enough for OpenBLAS to split each product over threads.
    One 128x128 frame (16384 elements) is enough for it to split a dot product
    too, so no whole-frame dot or sum of squares may go through BLAS."""
    sweep = ["sweep", "--t0-list", "30", "--nu-list", "0.5", "--seeds", "2"]
    for frames, size in ((2, 32), (1, 128)):
        root = tmp_path / f"{frames}x{size}"
        cfg = setup_workdir(root)
        write_frame_prior(small_video(202, frames=16, size=size), root)
        write_video(small_video(203, frames=frames, size=size), root / "input")
        runs = []
        for threads in ("1", "2"):
            out = root / f"out-blas-{threads}"
            proc = run_module(
                "enhance", "--config", str(cfg), "--output", str(out), OPENBLAS_NUM_THREADS=threads
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            csv = run_module(*sweep, "--config", str(cfg), OPENBLAS_NUM_THREADS=threads)
            assert csv.returncode == EXIT_OK, csv.stderr
            files = [out / "trace.csv", out / "metrics.json"]
            runs.append((frame_bytes(out), [p.read_bytes() for p in files], csv.stdout))
        assert len(runs[0][0]) == frames
        assert runs[0] == runs[1], (frames, size)


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert doc["project"]["scripts"] == {"noisecal": "noisecal.cli:main"}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enhance", "--help"])
    assert exc.value.code == 0
    assert "--threads" in capsys.readouterr().out


def test_quick_start_calibration_beats_baseline(tmp_path):
    """The README quick start runs where calibration pays: on the workspace
    from make_toy_data.py, enhance keeps more of the low band than the same
    config with N=0, the plain SDEdit baseline."""
    spec = importlib.util.spec_from_file_location("make_toy_data", SCRIPTS / "make_toy_data.py")
    make_toy_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_toy_data)
    work = tmp_path / "work"
    make_toy_data.main([str(work), "--seed", "3"])
    cfg = work / "enhance.json"
    np.testing.assert_array_equal(build_schedule(load_config(cfg)).alpha_bar, toy_schedule().alpha_bar)

    doc = json.loads(cfg.read_text())
    doc["calibration"]["N"] = 0
    (work / "baseline.json").write_text(json.dumps(doc))

    mse_low = {}
    for name, config in (("cal", cfg), ("base", work / "baseline.json")):
        out = work / name
        assert main(["enhance", "--config", str(config), "--output", str(out)]) == EXIT_OK
        mse_low[name] = json.loads((out / "metrics.json").read_text())["mse_low"]
    assert "# calibration_calls=0" in (work / "base" / "trace.csv").read_text()
    assert mse_low["cal"] < mse_low["base"]


def test_numeric_failure_maps_to_exit3(tmp_path, capsys, monkeypatch):
    cfg = setup_workdir(tmp_path)

    def boom(*args, **kwargs):
        raise NumericError("synthetic")

    monkeypatch.setattr("noisecal.cli.cmd_enhance", boom)
    assert enhance(cfg) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------- metrics


def test_metrics_identical_dirs(tmp_path, capsys):
    write_video(small_video(220), tmp_path / "a")
    assert main(["metrics", str(tmp_path / "a"), str(tmp_path / "a")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["mse", "mse_low", "ssim", "sf_a", "sf_b", "d_sf"]
    assert report["mse"] == 0.0
    assert report["ssim"] == pytest.approx(1.0, abs=1e-9)
    assert report["d_sf"] == 0.0


def test_metrics_swapped_args_antisymmetry(tmp_path, capsys):
    write_video(small_video(221), tmp_path / "a")
    write_video(small_video(222), tmp_path / "b")
    main(["metrics", str(tmp_path / "a"), str(tmp_path / "b")])
    ab = json.loads(capsys.readouterr().out)
    main(["metrics", str(tmp_path / "b"), str(tmp_path / "a")])
    ba = json.loads(capsys.readouterr().out)
    assert ab["mse"] == pytest.approx(ba["mse"], rel=1e-12)
    assert ab["ssim"] == pytest.approx(ba["ssim"], abs=1e-10)
    assert ab["d_sf"] == pytest.approx(-ba["d_sf"], abs=1e-12)


def test_metrics_shape_mismatch_exit1(tmp_path, capsys):
    write_video(small_video(223, frames=2), tmp_path / "a")
    write_video(small_video(224, frames=3), tmp_path / "b")
    assert main(["metrics", str(tmp_path / "a"), str(tmp_path / "b")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shape mismatch" in captured.err


def test_metrics_missing_dir_exit2(tmp_path, capsys):
    write_video(small_video(225), tmp_path / "a")
    assert main(["metrics", str(tmp_path / "a"), str(tmp_path / "nope")]) == EXIT_IO


def test_metrics_two_files_for_one_frame_exit2(tmp_path, capsys):
    write_video(small_video(226), tmp_path / "a")
    (tmp_path / "a" / "frame_00000.ppm").write_bytes(b"P6\n12 12\n255\n" + bytes(432))
    assert main(["metrics", str(tmp_path / "a"), str(tmp_path / "a")]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frame index 00000" in captured.err


def test_metrics_frame_with_trailing_bytes_exit2(tmp_path, capsys):
    write_video(small_video(227), tmp_path / "a")
    frame = tmp_path / "a" / "frame_00001.pgm"
    frame.write_bytes(2 * frame.read_bytes())  # a second image after the first
    assert main(["metrics", str(tmp_path / "a"), str(tmp_path / "a")]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frame_00001.pgm" in captured.err


# ---------------------------------------------------------------- sweep


def test_sweep_single_cell_layout(tmp_path, capsys):
    cfg = setup_workdir(tmp_path)
    rc = main(
        ["sweep", "--config", str(cfg), "--t0-list", "30", "--nu-list", "1.0", "--seeds", "1"]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t0,nu,seed,mse_low,mse,ssim,d_sf,obj0,obj1,obj2"
    assert len(lines) == 3  # header, one data row, one mean row
    assert lines[1].startswith("30,1.0,0,")
    assert lines[2].startswith("30,1.0,mean,")


def test_sweep_accepts_fractional_t0(tmp_path, capsys):
    cfg = setup_workdir(tmp_path)
    rc = main(
        ["sweep", "--config", str(cfg), "--t0-list", "0.4,0.8", "--nu-list", "0.5", "--seeds", "2"]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    # 2 cells x 2 seeds + 2 mean rows + header
    assert len(lines) == 7
    assert lines[1].startswith("20,0.5,0,")
    assert lines[3].startswith("40,0.5,0,")


def test_sweep_rows_come_in_list_order(tmp_path, capsys, monkeypatch):
    """Rows follow the lists as given, unsorted and mixing fractions with
    absolute steps: t0 outer, then nu, seeds innermost, then one mean row per
    cell in the same order; also when the runs are cut into several stacks.
    Each t0's rows are those of a sweep over that t0 alone, so no row carries
    another run's values under its labels."""
    cfg = setup_workdir(tmp_path, {"schedule": {"T": 100}})  # 0.8 -> 80, 0.4 -> 40
    monkeypatch.setattr(cli, "_STACK_BYTES", 3 * read_video(tmp_path / "input").nbytes)

    def rows(t0_list: str) -> list[str]:
        argv = ["sweep", "--config", str(cfg), "--t0-list", t0_list, "--nu-list", "1.0,0.5"]
        assert main(argv + ["--seeds", "2", "--threads", "2"]) == EXIT_OK
        return capsys.readouterr().out.strip().split("\n")[1:]

    lines = rows("0.8,20,0.4")
    cells = [(t0, nu) for t0 in ("80", "20", "40") for nu in ("1.0", "0.5")]
    want = [(t0, nu, str(k)) for t0, nu in cells for k in range(2)]
    want += [(t0, nu, "mean") for t0, nu in cells]
    assert [tuple(ln.split(",")[:3]) for ln in lines] == want
    for raw, t0 in (("0.8", "80"), ("20", "20"), ("0.4", "40")):
        assert [ln for ln in lines if ln.startswith(t0 + ",")] == rows(raw)


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    cfg = setup_workdir(tmp_path)
    args = ["--t0-list", "20,30", "--nu-list", "1.0", "--seeds", "2"]
    main(["sweep", "--config", str(cfg)] + args + ["--threads", "1"])
    serial = capsys.readouterr().out
    main(["sweep", "--config", str(cfg)] + args + ["--threads", "4"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_one_stack_sweep_runs_in_the_calling_thread(tmp_path, capsys, monkeypatch):
    # four runs make one stack, and one stack needs no pool whatever --threads says
    threads = []
    real = cli.nc_sdedit

    def recorded(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(cli, "nc_sdedit", recorded)
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30", "--nu-list", "1.0"]
    assert main(argv + ["--seeds", "2", "--threads", "2"]) == EXIT_OK
    assert threads == [threading.get_ident()]


def test_sweep_makes_one_denoiser_call_per_group_step(tmp_path, capsys, monkeypatch):
    # one stack of every run, largest t0 first: the N calibration calls take
    # every row at its own t0, then each t0 group joins the pass at its start,
    # which makes one call per step of the largest t0's grid
    calls = []
    real = GmmDenoiser.posterior_mean

    def counted(self, x_t, t, s):
        calls.append((t, x_t.shape[0]))
        return real(self, x_t, t, s)

    monkeypatch.setattr(GmmDenoiser, "posterior_mean", counted)
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30,40", "--nu-list", "0.5,1.0"]
    assert main(argv + ["--seeds", "2"]) == EXIT_OK
    s = build_schedule(load_config(cfg))
    assert ddim_grid(s, 5, 40) == [40, 30, 20, 10]
    # 2 nu values x 2 seeds in every group
    assert calls == [([40] * 4 + [30] * 4 + [20] * 4, 12)] * 2 + [
        (40, 4), (30, 8), (20, 12), (10, 12)
    ]


def test_sweep_cuts_a_t0_group_into_stacks_of_bounded_bytes(tmp_path, capsys, monkeypatch):
    # a budget of three runs' video cuts the eight runs, in job order, into stacks
    # t0=(20, 20, 20), (20, 30, 30) and (30, 30), and no row's bytes depend on the
    # stack it ran in
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30", "--nu-list", "0.5,1.0"]
    assert main(argv + ["--seeds", "2"]) == EXIT_OK
    whole = capsys.readouterr().out

    calls = []
    real = GmmDenoiser.posterior_mean

    def counted(self, x_t, t, s):
        calls.append(x_t.shape[0])
        return real(self, x_t, t, s)

    monkeypatch.setattr(GmmDenoiser, "posterior_mean", counted)
    monkeypatch.setattr(cli, "_STACK_BYTES", 3 * read_video(tmp_path / "input").nbytes)
    assert main(argv + ["--seeds", "2", "--threads", "2"]) == EXIT_OK
    assert capsys.readouterr().out == whole
    s = build_schedule(load_config(cfg))
    assert (ddim_grid(s, 5, 20), ddim_grid(s, 5, 30)) == ([20, 10], [30, 20, 10])
    first = [3, 3] + [3, 3]  # N=2 calls, then the grid of 20
    second = [3, 3] + [2, 3, 3]  # N=2 calls on every row, then the grid of 30
    third = [2, 2] + [2, 2, 2]
    assert sorted(calls) == sorted(first + second + third)


def test_sweep_empty_list_is_config_error(tmp_path, capsys):
    cfg = setup_workdir(tmp_path)
    rc = main(["sweep", "--config", str(cfg), "--t0-list", ",", "--nu-list", "1.0"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize(
    "flag,value", [("--nu-list", "1" + "0" * 400), ("--nu-list", "inf"), ("--t0-list", "nan")]
)
def test_sweep_non_finite_list_number_is_config_error(tmp_path, capsys, flag, value):
    # float(10**400) raises OverflowError, which no exit code mapped
    cfg = setup_workdir(tmp_path)
    args = {"--t0-list": "30", "--nu-list": "1.0", flag: value}
    rc = main(["sweep", "--config", str(cfg)] + [a for kv in args.items() for a in kv])
    assert rc == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_sweep_t0_below_first_grid_step_is_config_error(tmp_path, capsys):
    # T=50 with 5 steps puts the first grid step at 10
    cfg = setup_workdir(tmp_path)
    rc = main(["sweep", "--config", str(cfg), "--t0-list", "5", "--nu-list", "1.0"])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


def test_sweep_repeated_cell_is_config_error(tmp_path, capsys):
    # T=50: t0=0.6 resolves to 30, the same cell as t0=30
    cfg = setup_workdir(tmp_path)
    rc = main(
        ["sweep", "--config", str(cfg), "--t0-list", "0.6,30", "--nu-list", "0.5", "--seeds", "2"]
    )
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t0=30, nu=0.5 is listed twice" in captured.err


@pytest.mark.parametrize(
    "t0_list,seeds,runs",
    [("30", str(10**12), 10**12), (",".join(["30"] * 10**5), "1", 10**5)],
    ids=["seeds-1e12", "t0-list-1e5"],
)
def test_sweep_over_the_run_limit_exits_before_any_cell_is_resolved(
    tmp_path, capsys, monkeypatch, t0_list, seeds, runs
):
    """t0 values x nu values x seeds is checked against the bound first: no
    t0 is resolved, no run config is built, and stdout stays empty."""
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", t0_list, "--nu-list", "1.0"]
    message = f"a sweep runs at most 10000 runs (t0 values x nu values x seeds), got {runs}"
    loaded = load_config(cfg)
    with monkeypatch.context() as patched:

        def built(*args):
            raise AssertionError("a sweep cell was resolved or a run was built")

        patched.setattr(cli, "resolve_t0", built)
        patched.setattr(cli, "_run_configs", built)
        with pytest.raises(ConfigError) as error:
            cli.cmd_sweep(loaded, [30] * len(t0_list.split(",")), [1.0], int(seeds), 1)
        assert str(error.value) == message
    reads = []
    monkeypatch.setattr(cli, "read_video", lambda path: reads.append(path))
    assert main(argv + ["--seeds", seeds]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert reads == []


def test_sweep_at_the_run_limit_runs(tmp_path, capsys, monkeypatch):
    """The bound is inclusive: a sweep of exactly the limit's runs runs."""
    monkeypatch.setattr(cli, "_SWEEP_RUN_LIMIT", 4)
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30", "--nu-list", "1.0"]
    assert main(argv + ["--seeds", "2"]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 4 + 2  # header, runs, means
    assert main(argv + ["--seeds", "3"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 4 runs (t0 values x nu values x seeds), got 6" in captured.err


@pytest.mark.parametrize(
    "t0_list,nu_list,threads",
    [("30,40", "0.5,1.5", "1"), ("30,40", "0.5,1.5", "2"), ("30,5", "1.0", "1")],
    ids=["nu-above-1", "nu-above-1-threads-2", "t0-below-grid"],
)
def test_sweep_bad_cell_is_rejected_before_any_cell_runs(
    tmp_path, capsys, monkeypatch, t0_list, nu_list, threads
):
    # T=50 with 5 steps puts the first grid step at 10; the bad cell comes last
    calls = denoiser_calls(monkeypatch)
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", t0_list, "--nu-list", nu_list]
    rc = main(argv + ["--threads", threads])
    assert rc == EXIT_CONFIG
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sweep cell" in captured.err


@pytest.mark.parametrize(
    "t0_list,nu_list,message",
    [
        ("30,5", "1.0", "sweep cell t0=5, nu=1.0: t0=5 is outside [10, 50]"),
        ("0.6,30", "0.5", "sweep cell t0=30, nu=0.5 is listed twice"),
        ("30", "0.5,1.5", "sweep cell t0=30, nu=1.5: nu must be in [0, 1], got 1.5"),
    ],
    ids=["t0-below-grid", "repeated-cell", "nu-above-1"],
)
def test_sweep_cells_are_checked_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, t0_list, nu_list, message
):
    """A bad cell exits 1 even where the input directory is missing too."""
    reads = []
    monkeypatch.setattr(cli, "read_video", lambda path: reads.append(path))
    cfg = setup_workdir(tmp_path, {"io": {"input": "nowhere"}})
    argv = ["sweep", "--config", str(cfg), "--t0-list", t0_list, "--nu-list", nu_list]
    assert main(argv + ["--seeds", "2"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert reads == []


def test_sweep_metric_error_cancels_the_runs_not_started(tmp_path, capsys, monkeypatch):
    # the first stack's metrics fail; the error must not wait for the other three
    # stacks of one t0 each (22 stacked calls in all)
    calls = denoiser_calls(monkeypatch)

    def failing_report(x0, x_ref):
        raise NumericError("metric report of the first stack failed")

    monkeypatch.setattr(cli, "metric_report", failing_report)
    cfg = setup_workdir(tmp_path)
    monkeypatch.setattr(cli, "_STACK_BYTES", 4 * read_video(tmp_path / "input").nbytes)
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30,40,50", "--nu-list", "1.0"]
    assert main(argv + ["--seeds", "4"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "first stack failed" in captured.err
    s = build_schedule(load_config(cfg))
    total = sum(2 + len(ddim_grid(s, 5, t0)) for t0 in (20, 30, 40, 50))
    assert total == 22
    assert 0 < len(calls) < total // 2


def test_sweep_scores_each_stack_with_one_metric_report(tmp_path, capsys, monkeypatch):
    # 24 runs: one stack at the default budget, four stacks of six at a budget of
    # six runs' video; every call gets its stack's rows against the one input
    cfg = setup_workdir(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--t0-list", "20,30,40", "--nu-list", "0.5,1.0"]
    rows = []
    real = cli.metric_report

    def counted(x0, x_ref):
        rows.append(x0.shape[0])
        return real(x0, x_ref)

    monkeypatch.setattr(cli, "metric_report", counted)
    assert main(argv + ["--seeds", "4"]) == EXIT_OK
    whole = capsys.readouterr().out
    assert rows == [24]
    rows.clear()
    monkeypatch.setattr(cli, "_STACK_BYTES", 6 * read_video(tmp_path / "input").nbytes)
    assert main(argv + ["--seeds", "4"]) == EXIT_OK
    assert capsys.readouterr().out == whole
    assert rows == [6, 6, 6, 6]


def test_sample_is_no_longer_a_command(tmp_path, capsys):
    cfg = setup_workdir(tmp_path)
    assert main(["sample", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == _WORKDIR
