"""Uniformly sampled complex signals and the elementary unitary operators.

A signal is a vector of complex samples on a :class:`UniformGrid`.  Signals
double as window functions and as transform spectra; every sampled container
checks its values through :func:`_checked_values`, and every lattice shift,
the windowed layer's included, is :func:`_shifted_columns`.  Quadrature is a
plain Riemann sum with weight ``step``; on the symmetric grids used
throughout, end corrections for the smooth decaying test signals are far
below every working tolerance, and the rule composes cleanly into the 2D/3D
verification oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AsymmetricGrid,
    GridMismatch,
    InvalidShapeParam,
    LatticeViolation,
    NonFiniteValues,
    ShiftOutOfRange,
)

#: relative tolerance when deciding whether a value sits on the lattice
LATTICE_RTOL = 1e-9


@dataclass(frozen=True)
class UniformGrid:
    """Uniform sampling grid: point(j) = start + j*step, 0 <= j < count."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "count", int(self.count))
        if not (np.isfinite(self.start) and np.isfinite(self.step)):
            raise ValueError(f"grid start and step must be finite, got {self}")
        if not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step!r}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")

    @classmethod
    def symmetric(cls, step: float, count: int) -> "UniformGrid":
        """Grid symmetric about 0: start = -(count - 1) * step / 2."""
        return cls(-(count - 1) * float(step) / 2.0, step, count)

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def point(self, j: int) -> float:
        return self.start + j * self.step

    @property
    def stop(self) -> float:
        """Last grid point."""
        return self.point(self.count - 1)

    def is_symmetric(self) -> bool:
        """True when the grid maps onto itself under t -> -t."""
        return abs(self.start + (self.count - 1) * self.step / 2.0) <= (
            LATTICE_RTOL * self.step
        )

    def origin_on_lattice(self) -> bool:
        """True when t = 0 lies on the lattice start + step * Z."""
        q = self.start / self.step
        return abs(q - round(q)) <= LATTICE_RTOL

    def steps_of(self, value):
        """Express ``value`` as an integer number of steps.

        A scalar gives an ``int``, an array an ``int64`` array of the same
        shape, its counts clipped to +-2**62 (far past every grid) to fit.
        Raises :class:`LatticeViolation` naming the first value that is not
        a step multiple.
        """
        vals = np.asarray(value, dtype=np.float64)
        q = vals / self.step
        s = np.round(q)
        off = np.abs(q - s) > LATTICE_RTOL * np.maximum(1.0, np.abs(q))
        if np.any(off):
            raise LatticeViolation(
                f"{float(vals[off][0])!r} is not an integer multiple of step "
                f"{self.step!r}"
            )
        return int(s) if s.ndim == 0 else np.clip(s, -(2.0**62), 2.0**62).astype(np.int64)


def _checked_values(values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only complex array; raises ValueError unless its
    shape is ``shape`` and :class:`NonFiniteValues` unless it is finite.

    An array nobody else can write is adopted: a read-only array that owns
    its memory, or the fresh array a dtype conversion builds.  A writeable
    caller's array, a view and an array over a foreign buffer are copied.
    """
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != shape:
        raise ValueError(f"values shape {vals.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValues("values must be finite; a result past the float64 range "
                              "overflows to inf or nan")
    if vals.base is not None or (vals is values and vals.flags.writeable):
        vals = vals.copy()
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a uniform grid, or a spectrum on its output grid.
    Immutable after construction."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_values(self.values, (self.grid.count,)))


def gaussian(grid: UniformGrid, sigma: float, center: float = 0.0) -> SampledSignal:
    """exp(-(t - center)**2 / (2*sigma**2)) sampled on the grid."""
    # 2*sigma*sigma overflows to inf or underflows to 0 where sigma**2 would
    # raise OverflowError or the centre sample would be 0/0
    if not (sigma > 0 and sigma * sigma > 0.0 and 2.0 * sigma * sigma < math.inf):
        raise InvalidShapeParam(
            "gaussian sigma must be positive with 2*sigma**2 a positive finite "
            f"float, got {sigma!r}"
        )
    t = grid.points()
    return SampledSignal(grid, np.exp(-((t - center) ** 2) / (2.0 * sigma**2)))


def chirp(grid: UniformGrid, rate: float, freq: float = 0.0) -> SampledSignal:
    """exp(i*rate*t**2/2 + i*freq*t) sampled on the grid."""
    t = grid.points()
    return SampledSignal(grid, np.exp(1j * (rate * t**2 / 2.0 + freq * t)))


def rect(grid: UniformGrid, halfwidth: float) -> SampledSignal:
    """Indicator of |t| <= halfwidth sampled on the grid."""
    if not halfwidth > 0:
        raise InvalidShapeParam(f"rect halfwidth must be positive, got {halfwidth!r}")
    t = grid.points()
    return SampledSignal(grid, (np.abs(t) <= halfwidth).astype(np.complex128))


def _require_same_grid(f: SampledSignal, g: SampledSignal):
    if f.grid != g.grid:
        raise GridMismatch(f"grids differ: {f.grid} vs {g.grid}")


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Riemann-sum inner product sum_j f_j * conj(g_j) * step."""
    _require_same_grid(f, g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.step)


def l2_norm(f: SampledSignal) -> float:
    """sqrt of <f, f>; the quadratic form is real by construction."""
    ip = np.sum(f.values.real**2 + f.values.imag**2) * f.grid.step
    return float(np.sqrt(ip))


def _shifted_columns(values: np.ndarray, steps) -> np.ndarray:
    """values[j - s] for each step s, zero where j - s is off the grid: one
    C-contiguous column per step of an array, a vector for a scalar step.
    Window N - s of ``values`` padded with N zeros each side is the shift
    by s; a step with |s| >= N selects an all-zero end window."""
    n = values.shape[0]
    windows = sliding_window_view(np.pad(values, n), n)
    return np.ascontiguousarray(windows[n - np.clip(steps, -n, n)].T)


def shift(f: SampledSignal, steps: int) -> SampledSignal:
    """Index shift by ``steps`` samples with zero fill.

    Realizes the time shift t0 = steps * step exactly, with no
    interpolation.  Samples pushed past either edge are dropped.
    """
    steps = int(steps)
    n = f.grid.count
    if abs(steps) >= n:
        raise ShiftOutOfRange(f"|steps| = {abs(steps)} must be < count = {n}")
    return SampledSignal(f.grid, _shifted_columns(f.values, steps))


def modulate(f: SampledSignal, s: float) -> SampledSignal:
    """Multiply by the unit phase exp(i*s*t)."""
    return SampledSignal(f.grid, f.values * np.exp(1j * s * f.grid.points()))


def parity(f: SampledSignal) -> SampledSignal:
    """Reflection t -> -t.  Requires a grid symmetric about 0."""
    if not f.grid.is_symmetric():
        raise AsymmetricGrid(
            "parity needs start = -(count - 1) * step / 2 so the reflected "
            "grid coincides with the original"
        )
    return SampledSignal(f.grid, f.values[::-1])


def conj_signal(f: SampledSignal) -> SampledSignal:
    """Pointwise complex conjugate."""
    return SampledSignal(f.grid, np.conj(f.values))
