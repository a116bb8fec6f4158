"""Reference-guided diffusion enhancement with fixed-point noise calibration."""

from .calibration import CalibrationConfig, calibrate_noise, nc_sdedit
from .denoiser import Denoiser, GmmDenoiser
from .diffusion import (
    SamplerConfig,
    ddim_step,
    denoise_from,
    estimate_x0,
    forward_noise,
)
from .frequency import low_pass
from .metrics import metric_report, mse_low
from .schedule import NoiseSchedule, ddim_grid, linear_beta_schedule
from .tensor import (
    NumericError,
    RngSeed,
    VideoTensor,
    as_video,
    gaussian_noise,
    l2_norm,
)
from .toy import band_limited_field, blurred, toy_benchmark, toy_schedule
from .vio import (
    FormatError,
    read_tensor,
    read_video,
    write_tensor,
    write_video,
)

__all__ = [
    "CalibrationConfig",
    "Denoiser",
    "FormatError",
    "GmmDenoiser",
    "NoiseSchedule",
    "NumericError",
    "RngSeed",
    "SamplerConfig",
    "VideoTensor",
    "as_video",
    "band_limited_field",
    "blurred",
    "calibrate_noise",
    "ddim_grid",
    "ddim_step",
    "denoise_from",
    "estimate_x0",
    "forward_noise",
    "gaussian_noise",
    "l2_norm",
    "linear_beta_schedule",
    "low_pass",
    "metric_report",
    "mse_low",
    "nc_sdedit",
    "read_tensor",
    "read_video",
    "toy_benchmark",
    "toy_schedule",
    "write_tensor",
    "write_video",
]
