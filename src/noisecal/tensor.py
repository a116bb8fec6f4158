"""Dense video tensors, splittable deterministic RNG, and elementwise helpers.

A video tensor is a read-only float64 numpy array of shape
(frames, channels, height, width).  Every public operation in the package
returns tensors in this form and guarantees all elements are finite.  The
pipeline also takes a stack of runs on one leading axis, (B, F, C, H, W),
with one config or stream per row; each row's bytes are those of its run.
A stack's noise comes from one generator per fill, re-keyed for each row.
The strict JSON reader that the run config and the mixture spec share lives
here too: a key given twice, bad syntax, undecodable bytes and nesting too
deep to parse are each a ValueError that names the file.  So does _map, the
one thread pool: the sweep's stacks and the frame writes run through it.
"""

from __future__ import annotations

import json
import sys
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (frames, channels, height, width), float64, read-only
VideoTensor = np.ndarray

_MASK64 = (1 << 64) - 1


class NumericError(ArithmeticError):
    """A public operation produced or was given NaN or Inf."""


def _splitmix64(z: int) -> int:
    """One SplitMix64 mixing round; used to derive independent RNG streams."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSeed:
    """Key of a counter-based (Philox) random stream.

    The pair (seed, stream_id) fully determines the sample sequence,
    independently of platform and thread count.  Derived substreams are
    obtained by hashing integer tokens into stream_id, so parallel or
    reordered consumers still draw from fixed, non-overlapping streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= _MASK64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def substream(self, *tokens: int) -> "RngSeed":
        """Derive an independent stream keyed by integer tokens."""
        s = self.stream_id
        for tok in tokens:
            s = _splitmix64((s ^ _splitmix64(tok & _MASK64)) & _MASK64)
        return RngSeed(self.seed, s)

    def _key(self) -> np.ndarray:
        """The Philox key of this stream: (seed, stream_id)."""
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))


def _freeze(arr: np.ndarray) -> VideoTensor:
    """Finalize an array built or copied here: check finiteness, make read-only."""
    if not np.isfinite(arr).all():
        raise NumericError("tensor holds NaN or Inf")
    arr.flags.writeable = False
    return arr


def _finite_number(v, what: str):
    """v as an int or float (not a bool; numpy scalars too) within float range."""
    v = v.item() if isinstance(v, (np.integer, np.floating)) else v
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    return v


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: the object, unless a key is given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def _read_json(path):
    """The JSON value in the file at path, parsed strictly."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:  # bad bytes and bad syntax are ValueErrors
        raise ValueError(f"{path}: invalid JSON: {e}") from None


def _object(value, where: str, allowed, required=frozenset()) -> dict:
    """value, if it is a JSON object whose keys are among `allowed` and hold all of `required`."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    unknown = value.keys() - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    if not required <= value.keys():
        raise ValueError(f"{where} needs {sorted(required)}")
    return value


def as_video(data) -> VideoTensor:
    """Coerce array-like data to a validated video tensor: always a new
    read-only float64 copy of a rank-4 array whose elements are all finite."""
    arr = np.array(data, dtype=np.float64)
    _validate_shape(arr.shape)
    return _freeze(arr)


def _validate_shape(shape: tuple[int, ...]) -> None:
    if len(shape) != 4:
        raise ValueError(f"invalid shape {shape}: expected 4 dims (F,C,H,W)")
    if any(d < 1 for d in shape):
        raise ValueError(f"invalid shape {shape}: all dims must be >= 1")


def _require_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")


class _Runs(list):
    """One home for the rule that tells one run from a stack of runs.

    A run (F, C, H, W) takes one value per setting; a stack of B runs
    (B, F, C, H, W) takes a sequence of B values, one per row.  Either way
    _Runs(value) lists one value per run; `run_shape` checks a tensor
    against the runs, and `given` hands per-run results back in the form
    the value came in.
    """

    def __init__(self, value) -> None:
        self.stacked = isinstance(value, (list, tuple))
        super().__init__(value if self.stacked else [value])
        if not self:
            raise ValueError("a stack needs at least one run")

    def run_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        """One run's (F, C, H, W) in a tensor of `shape` that holds these runs."""
        shape = tuple(shape)
        if self.stacked and (len(shape) != 5 or shape[0] != len(self)):
            raise ValueError(f"{len(self)} per-run values for a tensor of shape {shape}")
        _validate_shape(shape[-4:] if self.stacked else shape)
        return shape[-4:]

    def given(self, rows):
        """rows, one per run: all of them for a stack, the one for a run."""
        return rows if self.stacked else rows[0]


def _shared(runs, name: str):
    """The value of field `name` that every run of a stack has."""
    values = {getattr(run, name) for run in runs}
    if len(values) != 1:
        raise ValueError(f"the runs of a stack must share {name}, got {sorted(values)}")
    return values.pop()


def gaussian_noise(shape: tuple[int, ...], rng: RngSeed | Sequence[RngSeed]) -> VideoTensor:
    """I.i.d. standard normal tensor; a pure function of (shape, rng).

    A run's shape takes one RngSeed.  A stack's shape (B, F, C, H, W) takes
    a sequence of B seeds, and row b is seed b's draw at the run's shape.
    One generator fills the stack: before each row its bit generator is
    re-keyed to that row's seed, at counter 0 with an empty buffer, which is
    the state a fresh seed.generator() starts in.
    """
    return _freeze(_normal(shape, rng))


def _normal(shape: tuple[int, ...], rng: RngSeed | Sequence[RngSeed]) -> np.ndarray:
    """gaussian_noise's draw in a new writable buffer, for a caller that
    scales it in place."""
    rngs = _Runs(rng)
    run_shape = rngs.run_shape(shape)
    out = np.empty(shape, dtype=np.float64)
    gen = rngs[0].generator()
    fresh = gen.bit_generator.state  # counter 0, empty buffer
    for row, r in zip(out.reshape((len(rngs),) + run_shape), rngs):
        fresh["state"]["key"] = r._key()
        gen.bit_generator.state = fresh
        gen.standard_normal(dtype=np.float64, out=row)
    return out


def l2_norm(x: VideoTensor) -> float:
    """Euclidean norm over all elements.

    A numpy sum, not np.linalg.norm: that goes through BLAS ddot, which splits
    a long vector over threads, so its last bits depend on the thread count.
    """
    return float(np.sqrt(np.square(x).sum()))


def _map(fn: Callable, items: Sequence, threads: int) -> list:
    """[fn(item) for item in items] on min(threads, len(items)) threads: in the
    calling thread when that is one.  On a pool, once an item has failed no
    item not yet begun calls fn, and the first failure in item order is
    raised.  The guard is in the worker: a worker freed by the failure could
    begin the next item before the calling thread cancelled it."""
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    failed = threading.Event()

    def guarded(item):
        if failed.is_set():
            return None  # an earlier item failed, and its error is raised first
        try:
            return fn(item)
        except Exception:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(guarded, items))
