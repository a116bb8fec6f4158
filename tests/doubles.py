"""Test doubles for the Denoiser protocol, and a frame-set prior writer;
nothing in the package uses them."""

import json
import threading
from pathlib import Path

import numpy as np

from noisecal import Denoiser, NoiseSchedule, VideoTensor, as_video, write_tensor


def write_frame_prior(video: VideoTensor, root: Path) -> Path:
    """The empirical denoiser of video's frames as a `gmm` spec, root/prior.json:
    one equal-weight, zero-variance, one-frame component per frame, whose mean
    is root/prior_<i>.vnt."""
    root.mkdir(parents=True, exist_ok=True)
    spec = []
    for i, frame in enumerate(video):
        write_tensor(frame[None], root / f"prior_{i}.vnt")
        spec.append({"weight": 1.0, "mean": f"prior_{i}.vnt", "variance": 0.0})
    (root / "prior.json").write_text(json.dumps(spec))
    return root / "prior.json"


class ConstantDenoiser(Denoiser):
    """Returns one fixed noise tensor regardless of input values.

    Feeding the exact noise of a noised tensor back through a sampler
    recovers closed-form trajectories.  Every row of a stack gets the same
    noise.
    """

    def __init__(self, fixed_eps: VideoTensor) -> None:
        self.fixed_eps = as_video(fixed_eps)

    def predict_eps(self, x_t: VideoTensor, t: int, schedule: NoiseSchedule) -> VideoTensor:
        schedule._check_t(t)  # t=0 has no noise to predict
        if x_t.ndim not in (4, 5) or x_t.shape[-4:] != self.fixed_eps.shape:
            raise ValueError(f"shape mismatch: {x_t.shape} vs {self.fixed_eps.shape}")
        return np.broadcast_to(self.fixed_eps, x_t.shape)


class CountingDenoiser(Denoiser):
    """Delegating wrapper that counts predict_eps invocations (thread-safe).

    A stack of runs is one call."""

    def __init__(self, inner: Denoiser) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self.calls = 0

    def predict_eps(self, x_t: VideoTensor, t: int, schedule: NoiseSchedule) -> VideoTensor:
        with self._lock:
            self.calls += 1
        return self.inner.predict_eps(x_t, t, schedule)
