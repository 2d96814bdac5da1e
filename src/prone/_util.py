"""Shared numeric helpers used across the seeding implementations.

The seeding routines promise a reproducibility contract: given the same
generator state they make exactly one uniform-integer draw for the first
center and one uniform real per later center, and they scale that real by
the current total mass. For two implementations to make bit-identical
decisions, the mass values and the total they are scaled by must also be
bit-identical, so the power transform and the total live here and are
shared by everything that samples proportionally to powered distances.
Every such draw, and the coreset's batch of draws, maps its scaled uniform
to an index through the one rule in :func:`inverse_cdf`.

Every argument of a public entry point goes through one rule here (arrays
through :func:`as_float64` and :func:`check_finite`, labels through
:func:`check_assignment`), whose ``ValueError`` starts with the parameter's name,
once per public call: library code holding checked arrays calls private cores.

Every timed stage, in the library and the CLI, is a lap of one :class:`StageClock`.
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

__all__ = [
    "as_generator",
    "as_float64",
    "check_finite",
    "check_assignment",
    "check_k",
    "check_seed",
    "check_z",
    "check_fraction",
    "check_nonnegative",
    "check_masses",
    "power_abs",
    "mass_values",
    "padded_pairwise_sum",
    "inverse_cdf",
    "StageClock",
]

# Values one block temporary holds, in every blocked pass: the full-data
# kernels of ``baseline`` (shared by a pass's workers) and the 1-D seeder's
# fallback scan. Longer blocks only raise a pass's peak memory.
_BLOCK_VALUES = 2**16


def as_generator(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce a seed (or None) into a counter-based numpy Generator.

    Callers own their randomness: passing an existing Generator uses it
    as-is, anything else is a :func:`check_seed` seed of a fresh Philox stream.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.Philox(check_seed(rng)))


def _check_real(dtype: np.dtype, name: str) -> None:
    """Raise unless ``dtype`` is bool, integer or real floating point."""
    # a float64 cast would drop an imaginary part, parse strings and call __float__
    if dtype.kind == "c":
        raise ValueError(f"{name} must be real, not complex")
    if dtype.kind not in "biuf":
        raise ValueError(f"{name} must be numeric, not dtype {dtype}")


def as_float64(values, name: str, order=None) -> np.ndarray:
    """``values`` as float64 if their dtype is real; a float64 array is not copied."""
    a = np.asarray(values)
    _check_real(a.dtype, name)
    return np.asarray(a, dtype=np.float64, order=order)


def check_finite(values: np.ndarray, name: str) -> None:
    """Raise unless ``values`` are finite: NaN propagates to min and max, an infinity is one."""
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError(f"{name} must be finite")


def check_assignment(assignment, n: int, k: int) -> np.ndarray:
    """Return ``assignment`` as intp if it holds one integer in [0, k) per point."""
    sigma = np.asarray(assignment)
    if sigma.shape != (n,):
        raise ValueError("assignment must have one entry per point")
    if sigma.dtype.kind not in "iu" or sigma.min() < 0 or sigma.max() >= k:
        raise ValueError(f"assignment must hold integers in [0, {k})")
    return sigma.astype(np.intp, copy=False)


def _check_integer(value, name: str) -> None:
    """Raise unless ``value`` is an int or numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} must be an integer")


def check_k(k, n: int) -> None:
    """Raise unless ``k`` is an integer in [1, n]."""
    _check_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must satisfy 1 <= k <= n={n}")


def _check_count(value, name: str) -> None:
    """Raise unless ``value`` is an integer >= 1."""
    _check_integer(value, name)
    if value < 1:
        raise ValueError(f"{name}={value} must be >= 1")


def check_seed(seed):
    """Return ``seed`` unchanged if it is None or a nonnegative integer, else raise."""
    if seed is not None:
        _check_integer(seed, "seed")
        if seed < 0:
            raise ValueError(f"seed={seed} must be nonnegative")
    return seed


def _check_number(value, name: str) -> None:
    """Raise unless ``value`` is a real number; a bool would run as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name}={value!r} must be a number, not a bool")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name}={value!r} must be a number")


def check_z(z):
    """Return ``z`` unchanged if it is a finite exponent >= 1, else raise.

    NaN and infinity would otherwise flow into the power transform and
    surface as a nan or inf cost, or as an unrelated mass error.
    """
    _check_number(z, "z")
    if not (z >= 1 and math.isfinite(z)):
        raise ValueError(f"z={z} must be finite and >= 1")
    return z


def check_fraction(value, name: str):
    """Return ``value`` unchanged if it is a finite number > 0, else raise."""
    _check_number(value, name)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name}={value} must be finite and positive")
    return value


def check_nonnegative(value, name: str):
    """Return ``value`` unchanged if it is a finite number >= 0, else raise."""
    _check_number(value, name)
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name}={value} must be finite and nonnegative")
    return value


def check_masses(masses, n: int, name: str) -> np.ndarray:
    """Return ``masses`` as float64 if a draw proportional to it is defined.

    That needs one finite, nonnegative entry per point and a positive
    total; anything else is rejected with ``name`` in the message.
    """
    m = as_float64(masses, name)
    if m.shape != (n,):
        raise ValueError(f"{name} must have one entry per point")
    # NaN and negatives fail the first test, +inf the second (-0.0 passes)
    if not (m.min() >= 0.0 and m.max() < math.inf):
        raise ValueError(f"{name} must be finite and nonnegative")
    if not m.sum() > 0:
        raise ValueError(f"{name} must not all be zero")
    return m


def power_abs(diff: np.ndarray, z: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise |diff|**z with exact zeros and fast paths for z=1, 2.

    For z=2 the square is taken without the ``abs``: negation is exact and
    squaring clears the sign, so d*d equals |d|*|d| bit for bit. General z
    is evaluated as exp(z*ln|x|) so that every caller rounds the same way;
    |x| = 0 maps to 0 exactly (no log singularity). ``out`` may be ``diff``
    itself, which computes the powers in place with the same arithmetic.
    """
    d = np.asarray(diff, dtype=np.float64)
    if z == 2:
        return np.multiply(d, d, out=out)
    ad = np.abs(d, out=out)
    if z != 1:
        nz = ad > 0
        ad[nz] = np.exp(z * np.log(ad[nz]))
    return ad


# Values of magnitude below 2^e have powered distances below 2^(z (e + 1)).
# While |z e| stays within this band, the values' scale alone keeps the
# masses of a moderate z far from float64's overflow and subnormal ranges.
_MASS_EXPONENT_BAND = 256
# n masses of at most span^z, and so their total, stay below 2^this: two
# bits under float64's largest exponent, for the rounding of the powers.
_MAX_TOTAL_EXPONENT = 1022


def mass_values(xs: np.ndarray, z: float) -> np.ndarray:
    """Sorted values ``xs`` to compute masses on: as given, or scaled down or up.

    e is the exponent of the largest magnitude, read from the two ends in
    O(1); values whose |z e| leaves the band are scaled by 2^-e. Scaling by
    a power of two is exact away from the subnormal range, so for z in
    {1, 2} every mass, total and comparison scales exactly and every draw
    is the one the unscaled values would make if no mass over- or
    underflowed. The largest mass is span^z, up to 2^(z (e + 1)); only when
    n of them could overflow, which needs z above 700, are the values
    scaled down further, by just enough. Each power then rounds anyway,
    and a mass more than 2^2096 below the largest possible one is 0.
    """
    e = math.frexp(max(abs(xs[0]), abs(xs[-1])))[1]
    shift = e if abs(z * e) > _MASS_EXPONENT_BAND else 0
    span = math.ldexp(xs[-1], -shift) - math.ldexp(xs[0], -shift)
    excess = 0.0
    if span > 0:
        excess = (z * math.log2(span) + math.log2(xs.size) - _MAX_TOTAL_EXPONENT) / z
    if shift:
        xs = np.ldexp(xs, -shift)
    if excess > 0:
        xs = xs * 2.0**-excess
    return xs


def padded_pairwise_sum(a: np.ndarray) -> float:
    """Sum a nonnegative 1-D array in complete-binary-tree order.

    Zero-pads to the next power of two and reduces adjacent pairs level by
    level, which is exactly how the sampling tree maintains its root sum.
    Sampling code that computes ``r = u * total`` uses this so that a plain
    array implementation and the tree-backed one see the same total.
    """
    buf = np.asarray(a, dtype=np.float64)
    if buf.size == 0:
        return 0.0
    m = 1 << max(0, buf.size - 1).bit_length()
    if buf.size != m:
        padded = np.zeros(m, dtype=np.float64)
        padded[: buf.size] = buf
        buf = padded
    while buf.size > 1:
        buf = buf[0::2] + buf[1::2]
    return float(buf[0])


def inverse_cdf(masses: np.ndarray, r):
    """Smallest index i with cumsum(masses)[i] > r, for a scalar or array r.

    ``r`` is a uniform scaled by the masses' total. An ``r`` that rounds up
    to or past the last prefix sum maps to the last positive mass. That
    clamp is the only way to reach a zero mass: the sequential prefix sum
    repeats its value across one, so the search never stops on it. The
    O(n) search for the last positive mass therefore runs only when some
    index comes back as n.
    """
    prefix = np.cumsum(masses)
    idx = np.searchsorted(prefix, r, side="right")
    if np.any(idx == prefix.size):
        idx = np.minimum(idx, np.flatnonzero(masses)[-1])
    return idx


class StageClock:
    """Seconds per stage, each stage timed from the end of the one before.

    ``lap(name, value)`` records the seconds since the last lap (or since the
    clock was made) under ``name`` and returns ``value``, so a stage can be
    timed inside the expression that uses its result; the clock keeps only
    times. ``timings`` holds the laps in order.
    """

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self._start = self._last = time.perf_counter()

    def lap(self, name: str, value=None):
        now = time.perf_counter()
        self.timings[name] = now - self._last
        self._last = now
        return value

    def elapsed(self) -> float:
        """Seconds since the clock was made."""
        return time.perf_counter() - self._start
