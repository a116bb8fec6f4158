"""Every script runs end to end on tiny arguments, the calibration study
shows the paper's trade on the toy benchmark, its one-Gaussian law is that
of the package's eta=0 pass, and the digest prints the same lines twice."""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from noisecal import (
    GmmDenoiser,
    RngSeed,
    SamplerConfig,
    as_video,
    ddim_grid,
    denoise_from,
    gaussian_noise,
    toy_schedule,
)
from noisecal.cli import load_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the one-Gaussian law at t0=600 on the 30-step grid: k, G and N* by variance
LAW_AT_600 = {0.03: (0.9361, 3.655, 3.84), 0.3: (0.5942, 1.535, 1.02)}


def check_study(out: str, tmp_path: Path) -> None:
    lines = out.strip().split("\n")
    header = "eta,variance,t0,N,mse_low,mse,ssim,d_sf,high_mse_truth,objective,noise_var,calls"
    assert lines[0] == header + ",k,G,N*"
    assert len(lines) == 1 + 8  # 2 etas x 2 variances x 1 t0 x 2 N
    for line in lines[1:]:
        values = line.split(",")
        assert len(values) == 15
        assert all(math.isfinite(float(v)) for v in values)
        v, t0, n = float(values[1]), int(values[2]), int(values[3])
        assert int(values[-4]) == n + len(ddim_grid(toy_schedule(), 30, t0))  # calls
        k, big_g, n_star = (float(x) for x in values[-3:])
        assert (round(k, 4), round(big_g, 3), round(n_star, 2)) == LAW_AT_600[v]


def check_toy_data(out: str, tmp_path: Path) -> None:
    ws = tmp_path / "ws"
    assert sorted(p.name for p in ws.iterdir()) == [
        "enhance.json", "field_000.vnt", "field_001.vnt", "gmm.json", "input", "reference",
    ]
    assert load_config(ws / "enhance.json").input_dir == str(ws / "input")
    assert out.startswith("wrote 2 mixture fields")


def check_digest(out: str, tmp_path: Path) -> None:
    # the digests themselves depend on the BLAS build, so only their form is checked
    groups = [line.split("  ", 1) for line in out.strip().split("\n")]
    assert [name for _, name in groups] == [
        "workspace sweep-small", "enhance sweep-small", "metrics sweep-small", "sweep sweep-small",
        "total",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", hexdigest) for hexdigest, _ in groups)
    assert len({hexdigest for hexdigest, _ in groups}) == len(groups)


# script name -> (argv, in which TMP stands for the test's tmp_path; check of stdout and files)
TINY_RUNS = {
    "calibration_study": (["--seeds", "2", "--t0", "600", "--iters", "0", "1"], check_study),
    "digest": (["--seed", "5", "--workload", "sweep-small"], check_digest),
    "make_toy_data": (
        ["TMP/ws", "--n-fields", "2", "--frames", "1", "--size", "12"], check_toy_data
    ),
}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.stem)
def test_script_runs_on_tiny_arguments(capsys, tmp_path, path):
    assert path.stem in TINY_RUNS, f"scripts/{path.name} has no tiny run here"
    argv, check = TINY_RUNS[path.stem]
    load_script(path).main([arg.replace("TMP", str(tmp_path)) for arg in argv])
    check(capsys.readouterr().out, tmp_path)


def test_digest_prints_the_same_lines_on_a_second_run(capsys):
    digest = load_script(SCRIPTS / "digest.py")
    runs = []
    for _ in range(2):
        digest.main(["--seed", "5", "--workload", "sweep-small"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


# The third cell of the study's grid, (eta=1, v=0.03), is thin: there no
# calibrated start beats plain t0=600 on both axes, so it is reported by the
# study and not asserted.
@pytest.mark.parametrize("eta,v", [(0.0, 0.03), (1.0, 0.3)])
def test_calibrated_deeper_start_beats_plain_sdedit_on_both_axes(eta, v):
    """Calibration keeps the content at a start deep enough for more detail:
    N=3 at t0=800 has a lower output mse_low and a higher d_sf than plain
    SDEdit (N=0) at t0=600, medians over the study's 10 seeds."""
    study = load_script(SCRIPTS / "calibration_study.py")
    plain = study.cell(eta, v, t0=600, n=0, nu=0.5, seeds=10)
    calibrated = study.cell(eta, v, t0=800, n=3, nu=0.5, seeds=10)
    assert calibrated["mse_low"] < plain["mse_low"]
    assert calibrated["d_sf"] > plain["d_sf"]


def test_study_noise_var_without_updates_is_the_draws_mean_square():
    """noise_var is read from the noise nc_sdedit draws: with N=0 it is the
    mean square of seed 0's draw from RngSeed(100).substream(1)."""
    study = load_script(SCRIPTS / "calibration_study.py")
    draw = gaussian_noise((1, 1, 16, 16), RngSeed(100).substream(1))
    assert study.cell(0.0, 0.03, t0=600, n=0, nu=0.5, seeds=1)["noise_var"] == np.mean(draw * draw)


@pytest.mark.parametrize("v", [0.03, 0.3])
@pytest.mark.parametrize("t0", [400, 600, 800])
def test_study_law_gain_is_the_eta0_pass_of_one_gaussian(v, t0):
    """G is S*(abar*v + 1 - abar)/(sqrt(abar)*v), where the package's eta=0
    pass for one component N(m, v I) outputs m + S*(x_t0 - sqrt(abar)*m)."""
    study = load_script(SCRIPTS / "calibration_study.py")
    s = toy_schedule()
    grid = ddim_grid(s, study.NUM_STEPS, t0)
    abar = float(s.alpha_bar[grid[0]])
    m = gaussian_noise((1, 1, 4, 4), RngSeed(5))
    d = 0.5 + np.abs(gaussian_noise(m.shape, RngSeed(6)))  # x_t0 - sqrt(abar)*m, nowhere 0
    samp = SamplerConfig(eta=0.0, num_steps=study.NUM_STEPS, rng=RngSeed(7))
    out = denoise_from(as_video(np.sqrt(abar) * m + d), grid, GmmDenoiser([(1.0, m, v)]), s, samp)
    _, big_g, _ = study.one_gaussian_law(v, t0)
    gain = big_g * np.sqrt(abar) * v / (abar * v + 1.0 - abar)
    np.testing.assert_allclose((out - m) / d, gain, rtol=1e-12, atol=0)


def test_study_law_of_a_point_component_has_no_gain():
    """At v = 0 the component is a point: each update leaves the noise's low
    band where it is (k = 1), and the eta=0 pass outputs m whatever x_t0, so
    neither G nor N* exists."""
    study = load_script(SCRIPTS / "calibration_study.py")
    k, big_g, n_star = study.one_gaussian_law(0.0, 600)
    assert k == 1.0
    assert math.isnan(big_g) and math.isnan(n_star)


def test_study_law_of_a_one_step_grid_is_the_fitted_estimate():
    """t0=34 starts the 30-step grid at its last step: the output is the
    fitted estimate, whose low band keeps the reference's distance (G = 1),
    so no N moves the bias through zero."""
    study = load_script(SCRIPTS / "calibration_study.py")
    assert len(ddim_grid(toy_schedule(), study.NUM_STEPS, 34)) == 1
    k, big_g, n_star = study.one_gaussian_law(0.3, 34)
    assert 0.0 < k < 1.0
    assert (big_g, n_star) == (1.0, math.inf)


@pytest.mark.parametrize("argv", [["--t0", "600", "--variance", "0"], ["--t0", "34", "--variance", "0.3"]])
def test_study_runs_on_a_point_component_and_on_a_one_step_grid(capsys, argv):
    study = load_script(SCRIPTS / "calibration_study.py")
    study.main(argv + ["--seeds", "1", "--iters", "0"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 2  # one row per eta
    for line in lines[1:]:
        values = line.split(",")
        assert len(values) == 15
        assert all(math.isfinite(float(v)) for v in values[4 : 4 + len(study.COLUMNS)])
