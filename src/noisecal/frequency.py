"""Fourier-domain band splitting: one low-pass filter over cached box masks.

A cutoff nu in [0, 1] selects the set of 2-D FFT bins whose normalized
frequency radius is at most nu.  Filtering is spatial only, applied
independently per frame and channel.  low_pass is the one filter: the mask
is conjugate symmetric, so it runs on the real FFT's half-plane and its
output is real by construction, and a mask that passes every bin (nu=1)
runs no FFT at all.  The high band is the residual x - low_pass(x), so the
two bands sum back to x, and the content objective is the norm of the
gap's low band, l2_norm(low_pass(x0_hat - x_ref)).  The filter acts on the
last two axes, so one call filters a whole stack of runs (B, F, C, H, W),
each row to the bytes it has alone.  Beyond a small input it works a
quarter of the planes at a time into its one output buffer, so its
transforms hold a fraction of the input besides the output.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import VideoTensor, _freeze

_ONE_CHUNK_BYTES = 1 << 17  # low_pass filters an input of at most this size in one piece


@lru_cache(maxsize=64)
def frequency_mask(height: int, width: int, nu: float) -> np.ndarray:
    """Read-only (H, W) bool pass-map of the FFT bins with box radius <= nu.

    The radius of a bin is max(|ky|, |kx|), each signed bin index scaled by
    ceil(n/2): the Nyquist bin of an even axis sits exactly at 1, the largest
    odd-axis bin strictly below it.  nu=0 passes nothing, DC included.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must be in [0, 1], got {nu}")
    if height < 1 or width < 1:
        raise ValueError(f"invalid mask size {height}x{width}")
    if nu == 0.0:
        m = np.zeros((height, width), dtype=bool)
    else:
        ky = np.abs(np.fft.fftfreq(height) * height) / ((height + 1) // 2)
        kx = np.abs(np.fft.fftfreq(width) * width) / ((width + 1) // 2)
        m = np.maximum(ky[:, None], kx[None, :]) <= nu
    m.flags.writeable = False
    return m


def low_pass(x: VideoTensor, nu: float) -> VideoTensor:
    """Keep only FFT bins with normalized radius <= nu (none at nu=0); a full mask copies x.

    x is a video or any stack of them; every leading axis is filtered in one call.
    A box mask keeps a prefix of the half-plane's columns, so only those go
    through the row-axis transforms and the rest are zeroed; this is how numpy
    composes irfft2(rfft2(x) * mask), and the bytes are that form's for nu > 0.
    The planes go through in four chunks, or in one for an input of at most
    _ONE_CHUNK_BYTES, straight into the one output buffer; a plane's
    transforms do not depend on the others, so the chunks move no byte.
    """
    height, width = x.shape[-2:]
    keep = frequency_mask(height, width, nu)
    if keep.all():
        return _freeze(x.copy())
    cols = int(np.count_nonzero(keep[0, : width // 2 + 1]))  # a box keeps a prefix
    planes = x.reshape(-1, height, width)
    out = np.empty(planes.shape)
    chunks = 1 if x.nbytes <= _ONE_CHUNK_BYTES else 4
    step = max(1, -(-len(planes) // chunks))
    for lo in range(0, len(planes), step):
        spectrum = np.fft.rfft(planes[lo : lo + step])
        band = np.fft.fft(spectrum[..., :cols], axis=-2)
        band *= keep[:, :cols]
        np.fft.ifft(band, axis=-2, out=spectrum[..., :cols])
        del band
        spectrum[..., cols:] = 0.0
        np.fft.irfft(spectrum, n=width, out=out[lo : lo + step])
        del spectrum
    return _freeze(out.reshape(x.shape))
