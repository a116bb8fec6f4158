"""Noise-prediction models with closed-form posteriors.

A denoiser maps a noisy tensor x_t at level t to the noise it believes was
added; predict_eps is the whole protocol.  The posterior clean estimate
E[x0 | x_t] is the same information, through

    x_t = signal_scale(t) * E[x0 | x_t] + noise_scale(t) * eps.

A stack of B runs (B, F, C, H, W) takes one t for every row, or a list or
tuple of B timesteps, one per row, as a network conditioned on a per-sample
noise level does; either way each row's bytes are those it has alone.

GmmDenoiser is the exact Bayes-optimal denoiser for a Gaussian-mixture data
distribution; with all component variances zero it is the optimal denoiser
for a finite dataset (the empirical denoiser).
"""

from __future__ import annotations

import abc
import json
from pathlib import Path

import numpy as np

from .schedule import NoiseSchedule
from .tensor import VideoTensor, _finite_number, _freeze, _unique_keys, as_video


class Denoiser(abc.ABC):
    """Pure, shape-preserving noise predictor."""

    @abc.abstractmethod
    def predict_eps(self, x_t: VideoTensor, t, schedule: NoiseSchedule) -> VideoTensor:
        """Predicted noise at level t; same shape as x_t.  Requires t >= 1.

        x_t is one video (F, C, H, W) or a stack of B videos (B, F, C, H, W),
        each row predicted as if it came alone; a stack's t is one int or a
        sequence of B, one per row (schedule._check_t is the rule)."""


class GmmDenoiser(Denoiser):
    """Bayes-optimal denoiser for an isotropic Gaussian-mixture distribution.

    Components are (weight, mean tensor, scalar variance) triples; weights
    are normalized to sum to 1 at construction.
    """

    def __init__(self, components) -> None:
        components = list(components)
        if not components:
            raise ValueError("GmmDenoiser needs at least one component")
        means = []
        for i, (w, m, v) in enumerate(components):  # the numbers first, as from_json_spec
            _finite_number(w, f"component {i} weight")
            _finite_number(v, f"component {i} variance")
            means.append(as_video(m))
            if means[i].shape != means[0].shape:
                raise ValueError(f"component {i} mean shape {means[i].shape} != {means[0].shape}")
        weights, _, variances = zip(*components)
        self._set(weights, np.stack(means), variances)

    def _set(self, weights, means: np.ndarray, variances) -> None:
        """Take finite float64 means (n, F, C, H, W) and checked numbers as they are."""
        weights = np.array([float(w) for w in weights], dtype=np.float64)
        if np.any(weights <= 0) or not np.isfinite(sum(weights.tolist())):  # no overflow warning
            raise ValueError("component weights must be positive, with a finite sum")
        variances = np.array([float(v) for v in variances], dtype=np.float64)
        if np.any(variances < 0):
            raise ValueError("component variances must be >= 0")
        self.weights = weights / weights.sum()
        self.means = means
        self.variances = variances
        self.weights.flags.writeable = False
        self.means.flags.writeable = False
        self.variances.flags.writeable = False
        # centre of the means and each mean's squared distance to it, per frame
        flat = self.means.reshape(len(means), means.shape[1], -1)  # (n, F_m, D)
        self._mbar = flat.mean(axis=0)  # (F_m, D)
        self._msq = np.empty(flat.shape[:2])  # (n, F_m)
        buf = np.empty_like(self._mbar)
        for k, m in enumerate(flat):
            np.subtract(m, self._mbar, out=buf)
            np.multiply(buf, buf, out=buf)
            buf.sum(axis=1, out=self._msq[k])

    @classmethod
    def from_json_spec(cls, path) -> "GmmDenoiser":
        """Mixture from a JSON list of {weight, mean, variance} entries.

        "mean" is a tensor file path, resolved relative to the spec file.
        Each file's float32 payload is cast, exactly, into its row of one
        (n, F, C, H, W) float64 array, which the mixture keeps.
        """
        from .vio import read_tensor

        path = Path(path)
        try:
            spec = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
        except ValueError as e:  # a JSONDecodeError, or a key given twice
            raise ValueError(f"{path}: invalid JSON: {e}") from None
        if not isinstance(spec, list) or not spec:
            raise ValueError(f"{path}: expected a nonempty JSON list of components")
        weights, means, variances = [], None, []
        for i, entry in enumerate(spec):
            where = f"{path}: component {i}"
            if not isinstance(entry, dict):
                raise ValueError(f"{where} must be an object, got {entry!r}")
            unknown = set(entry) - {"weight", "mean", "variance"}
            if unknown:
                raise ValueError(f"{where} has unknown keys {sorted(unknown)}")
            missing = {"weight", "mean"} - set(entry)
            if missing:
                raise ValueError(f"{where} lacks keys {sorted(missing)}")
            if not isinstance(entry["mean"], str):
                raise ValueError(f"{where} mean must be a file path, got {entry['mean']!r}")
            weights.append(_finite_number(entry["weight"], f"{where} weight"))
            variances.append(_finite_number(entry.get("variance", 0.0), f"{where} variance"))
            mean = path.parent / entry["mean"]
            if means is None:  # the first file fixes the shape
                first = read_tensor(mean)
                means = np.empty((len(spec),) + first.shape)
                means[0] = first
            else:
                read_tensor(mean, out=means[i])
        d = cls.__new__(cls)
        d._set(weights, means, variances)
        return d

    def posterior_mean(self, x_t: VideoTensor, t, schedule: NoiseSchedule) -> VideoTensor:
        """E[x0 | x_t] in closed form; predict_eps is derived from it.

        x_t is one video (F, C, H, W) or a stack of B videos (B, F, C, H, W)
        that are denoised independently, at one t or at a timestep per row;
        one video is the stack of one, and each row's bytes do not depend on
        the rest of the stack.  A row's level enters as its own row of a
        (B, 1) column of alpha_bar, which broadcasts where the one-level
        form uses a scalar, so every element has the same operations.

        Means of one frame are a static-video prior: they broadcast over
        every frame of x_t, and the mixture is over whole videos, so the
        result equals that of the means repeated along the frame axis.

        Each frame of each row is one matrix-vector product against the
        (n, D) means of that frame, so no (n, F, C, H, W) temporary is built.
        The squared residuals ||x - root*m_k||^2 are expanded around
        root*mbar, the scaled centre of the means, so that an offset common
        to all means does not cancel digits away.
        """
        abar = schedule._alpha_bar_at(t, shape=x_t.shape).reshape(-1, 1)  # (B or 1, 1)
        xs = x_t[None] if x_t.ndim == 4 else x_t
        if (
            xs.ndim != 5
            or xs.shape[2:] != self.means.shape[2:]
            or self.means.shape[1] not in (1, xs.shape[1])
        ):
            raise ValueError(f"shape mismatch: {x_t.shape} vs {self.means.shape[1:]}")
        n, (b, f) = len(self.means), xs.shape[:2]
        root = np.sqrt(abar)
        x = xs.reshape(b, f, -1)  # (B, F, D)
        # one-frame means broadcast as views: the tiled and one-frame mixtures
        # run the same per-frame kernel on the same values, so their bytes agree
        m = np.broadcast_to(self.means.reshape(n, len(self._mbar), -1), (n,) + x.shape[1:])
        m = m.transpose(1, 0, 2)  # (F, n, D)
        mbar = np.broadcast_to(self._mbar, x.shape[1:])
        c = x - root[..., None] * self._mbar  # (B, F, D)
        # stacked matrix-vector products, B*F of them; a GEMM over the rows
        # would sum in another order and make a row's bytes depend on B
        dots = np.matmul(m, c[..., None])[..., 0]  # (B, F, n): m_kf . c_bf
        # the two dot products of a whole frame or video are numpy sums: BLAS
        # splits a long dot over threads, and the thread count would change its bits
        dots -= np.multiply(c, mbar).sum(axis=2)[..., None]  # (m_kf - mbar_f) . c_bf
        # frame sums over materialised (F, n) arrays add in the same order for both
        msq = np.ascontiguousarray(np.broadcast_to(self._msq.T, (f, n)))
        cc = np.square(c).reshape(b, -1).sum(axis=1)[:, None]  # (B, 1): ||c_b||^2
        sq = cc - 2.0 * root * dots.sum(axis=1) + abar * msq.sum(axis=0)  # (B, n)
        del c  # the output below takes two more full-size buffers
        # per-component marginal variance of x_t
        s = abar * self.variances + (1.0 - abar)  # (B or 1, n)
        log_r = np.log(self.weights) - sq / (2.0 * s) - 0.5 * x[0].size * np.log(s)
        log_r -= log_r.max(axis=1, keepdims=True)  # log-sum-exp shift keeps exp in range
        r = np.exp(log_r)
        r /= r.sum(axis=1, keepdims=True)
        gain = root * self.variances / s  # (B or 1, n) shrinkage toward each mean
        # sum_k r_k (m_k + g_k (x - root m_k)) = sum_k r_k (1 - g_k root) m_k + (r . g) x
        out = np.matmul((r * (1.0 - gain * root))[:, None, None, :], m)[:, :, 0]  # (B, F, D)
        gains = np.broadcast_to(gain, r.shape)  # each row of r with its own level's gain
        out += np.array([float(row @ g) for row, g in zip(r, gains)])[:, None, None] * x
        return _freeze(out.reshape(x_t.shape))

    def predict_eps(self, x_t: VideoTensor, t, schedule: NoiseSchedule) -> VideoTensor:
        x0 = self.posterior_mean(x_t, t, schedule)
        return _freeze((x_t - schedule.signal_scale(t) * x0) / schedule.noise_scale(t))
