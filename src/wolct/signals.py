"""Uniformly sampled complex signals and the elementary unitary operators.

A signal is a vector of complex samples on a :class:`UniformGrid`.  Signals
double as window functions.  Quadrature is a plain Riemann sum with weight
``step``; on the symmetric grids used throughout, end corrections for the
smooth decaying test signals are far below every working tolerance, and the
rule composes cleanly into the 2D/3D verification oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricGrid,
    GridMismatch,
    InvalidShapeParam,
    LatticeViolation,
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

    def steps_of(self, value: float) -> int:
        """Express ``value`` as an integer number of steps.

        Raises :class:`LatticeViolation` when value is not a step multiple.
        """
        q = value / self.step
        s = round(q)
        if abs(q - s) > LATTICE_RTOL * max(1.0, abs(q)):
            raise LatticeViolation(
                f"{value!r} is not an integer multiple of step {self.step!r}"
            )
        return int(s)


def _checked_values(grid: UniformGrid, values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.complex128)
    if vals.ndim != 1 or vals.shape[0] != grid.count:
        raise ValueError(
            f"values shape {vals.shape} does not match grid count {grid.count}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("signal values must be finite")
    vals = vals.copy()
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a uniform grid.  Immutable after construction."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_values(self.grid, self.values))

    def with_values(self, values) -> "SampledSignal":
        """New signal on the same grid."""
        return SampledSignal(self.grid, values)


def gaussian(grid: UniformGrid, sigma: float, center: float = 0.0) -> SampledSignal:
    """exp(-(t - center)**2 / (2*sigma**2)) sampled on the grid."""
    if not sigma > 0:
        raise InvalidShapeParam(f"gaussian sigma must be positive, got {sigma!r}")
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


_GENERATORS = {"gaussian": gaussian, "chirp": chirp, "rect": rect}


def generate(kind: str, grid: UniformGrid, **shape) -> SampledSignal:
    """Sample a named closed-form signal on the grid.

    ``kind`` is one of ``gaussian`` (sigma, center), ``chirp`` (rate, freq)
    or ``rect`` (halfwidth).
    """
    try:
        fn = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown signal kind {kind!r}") from None
    return fn(grid, **shape)


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


def shift(f: SampledSignal, steps: int) -> SampledSignal:
    """Index shift by ``steps`` samples with zero fill.

    Realizes the time shift t0 = steps * step exactly, with no
    interpolation.  Samples pushed past either edge are dropped.
    """
    steps = int(steps)
    n = f.grid.count
    if abs(steps) >= n:
        raise ShiftOutOfRange(f"|steps| = {abs(steps)} must be < count = {n}")
    out = np.zeros(n, dtype=np.complex128)
    if steps >= 0:
        out[steps:] = f.values[: n - steps]
    else:
        out[:steps] = f.values[-steps:]
    return SampledSignal(f.grid, out)


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
