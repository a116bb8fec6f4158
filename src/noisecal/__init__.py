"""Reference-guided diffusion enhancement with fixed-point noise calibration."""

from .calibration import (
    CalibrationConfig,
    CalibrationTrace,
    calibrate_noise,
    nc_sdedit,
    replace_low_freq,
)
from .denoiser import Denoiser, GmmDenoiser
from .diffusion import (
    SamplerConfig,
    ddim_step,
    denoise_from,
    estimate_x0,
    forward_noise,
)
from .frequency import content_objective, frequency_mask, high_pass, low_pass
from .metrics import MetricReport, metric_report, mse, mse_low, spatial_frequency, ssim
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
    PnmFormatError,
    TensorFormatError,
    read_pnm,
    read_tensor,
    read_video,
    write_pnm,
    write_tensor,
    write_video,
)

__all__ = [
    "CalibrationConfig",
    "CalibrationTrace",
    "Denoiser",
    "GmmDenoiser",
    "MetricReport",
    "NoiseSchedule",
    "NumericError",
    "PnmFormatError",
    "RngSeed",
    "SamplerConfig",
    "TensorFormatError",
    "VideoTensor",
    "as_video",
    "band_limited_field",
    "blurred",
    "calibrate_noise",
    "content_objective",
    "ddim_grid",
    "ddim_step",
    "denoise_from",
    "estimate_x0",
    "forward_noise",
    "frequency_mask",
    "gaussian_noise",
    "high_pass",
    "l2_norm",
    "linear_beta_schedule",
    "low_pass",
    "metric_report",
    "mse",
    "mse_low",
    "nc_sdedit",
    "read_pnm",
    "read_tensor",
    "read_video",
    "replace_low_freq",
    "spatial_frequency",
    "ssim",
    "toy_benchmark",
    "toy_schedule",
    "write_pnm",
    "write_tensor",
    "write_video",
]
