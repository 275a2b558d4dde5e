"""Windowed transform: time-frequency maps, slices, and reconstruction.

The windowed transform of f against window phi is

    V(u, w) = sum_j f_j * conj(phi(t_j - w)) * K(t_j, u) * step,

with the window shift realized by the lattice shift of ``signals`` (index
shift, zero fill), so every admissible w is an integer multiple of the signal
step.  That keeps identity residuals free of interpolation artifacts.

The full map and reconstruction stream blocks of columns through the
chirp-FFT engine, O((N + M) log(N + M)) per column, so neither holds a
map-sized array but the map.
Their oracles :func:`wolct_at` and :func:`wolct_slice` reduce the
direct-quadrature blocks of ``olct``.
The phase check in ``olct`` also rejects b = 0 for every function here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonAdmissiblePair, ZeroWindow
from .olct import _kernel_blocks, _lct_blocks, induced_output_grid, olct_direct
from .params import OlctParams, inverse_phase_prefactor, invert
from .signals import (
    SampledSignal,
    UniformGrid,
    _checked_values,
    _require_same_grid,
    _shifted_columns,
    inner_product,
    l2_norm,
)

#: window norm below which the window is rejected as degenerate
ZERO_WINDOW_TOL = 1e-12

#: default coarsening of the w lattice relative to the signal lattice
DEFAULT_W_STRIDE = 4


@dataclass(frozen=True)
class TFMap:
    """Complex matrix V[u_k, w_l] over output-frequency and shift grids;
    read-only and finite, as the values of a :class:`SampledSignal` are."""

    ugrid: UniformGrid
    wgrid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.ugrid.count, self.wgrid.count)
        object.__setattr__(self, "values", _checked_values(self.values, shape))


def default_wgrid(tgrid: UniformGrid, stride: int = DEFAULT_W_STRIDE) -> UniformGrid:
    """Coarsened shift lattice: every ``stride``-th multiple of the signal step
    starting from the lattice point nearest the grid start."""
    s0 = round(tgrid.start / tgrid.step)
    count = max(2, tgrid.count // stride)
    return UniformGrid(s0 * tgrid.step, stride * tgrid.step, count)


def _check_window(f: SampledSignal, phi: SampledSignal):
    _require_same_grid(f, phi)
    if l2_norm(phi) <= ZERO_WINDOW_TOL:
        raise ZeroWindow("window norm is numerically zero")


def wolct(f: SampledSignal, phi: SampledSignal, p: OlctParams,
          ugrid: UniformGrid | None = None,
          wgrid: UniformGrid | None = None) -> TFMap:
    """Full time-frequency map of f against window phi.

    Defaults: ugrid is the fast-path induced grid; wgrid is the signal
    lattice coarsened by :data:`DEFAULT_W_STRIDE`.
    """
    _check_window(f, phi)
    if ugrid is None:
        ugrid = induced_output_grid(p, f.grid)
    if wgrid is None:
        wgrid = default_wgrid(f.grid)
    steps = f.grid.steps_of(wgrid.points())
    out = np.empty((ugrid.count, wgrid.count), dtype=np.complex128)
    for sl, lct in _lct_blocks(f.grid, p, ugrid, wgrid.count):
        out[:, sl] = lct(f.values[:, None] * np.conj(_shifted_columns(phi.values, steps[sl])))
    out.flags.writeable = False
    return TFMap(ugrid, wgrid, out)


def windowed_signal(f: SampledSignal, phi: SampledSignal, w: float) -> SampledSignal:
    """f(t) * conj(phi(t - w)) for a lattice-aligned shift w."""
    _check_window(f, phi)
    col = _shifted_columns(phi.values, f.grid.steps_of(w))
    return SampledSignal(f.grid, f.values * np.conj(col))


def wolct_slice(f: SampledSignal, phi: SampledSignal, p: OlctParams, w: float,
                ugrid: UniformGrid | None = None) -> SampledSignal:
    """Fixed-w slice: the plain transform of f(t) * conj(phi(t - w)).

    Direct quadrature, so it is an independent oracle for the corresponding
    :func:`wolct` column, which the chirp-FFT engine computes; the two agree
    to within floating-point noise.
    """
    return olct_direct(windowed_signal(f, phi, w), p, ugrid)


def wolct_at(f: SampledSignal, phi: SampledSignal, p: OlctParams,
             us, ws) -> np.ndarray:
    """Map values at paired points (u_i, w_i); each w_i lattice aligned."""
    _check_window(f, phi)
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    ws = np.atleast_1d(np.asarray(ws, dtype=np.float64))
    if us.shape != ws.shape:
        raise ValueError("us and ws must have matching shapes")
    steps = f.grid.steps_of(ws)
    out = np.empty(us.shape[0], dtype=np.complex128)
    for sl, karr in _kernel_blocks(f.grid, p, us):
        win = _shifted_columns(phi.values, steps[sl])
        out[sl] = np.einsum("j,jl,jl->l", f.values, np.conj(win), karr)
    return out * f.grid.step


def reconstruct(tfmap: TFMap, phi: SampledSignal, psi: SampledSignal,
                p: OlctParams) -> SampledSignal:
    """Invert a time-frequency map with synthesis window psi.

    f(t) = prefactor / <psi, phi> * sum_{k,l} V[k,l] * K_inv(u_k, t)
           * psi(t - w_l) * ustep * wstep.

    phi is the analysis window the map was built with; the pair must
    satisfy <psi, phi> != 0.  The result lives on psi's grid.
    """
    ip = inner_product(psi, phi)
    if abs(ip) <= 1e-9 * l2_norm(psi) * l2_norm(phi):
        raise NonAdmissiblePair(f"<psi, phi> = {ip!r} is numerically zero; "
                                "reconstruction undefined")
    steps = psi.grid.steps_of(tfmap.wgrid.points())
    acc = np.zeros(psi.grid.count, dtype=np.complex128)
    for sl, lct in _lct_blocks(tfmap.ugrid, invert(p), psi.grid, tfmap.wgrid.count):
        psimat = _shifted_columns(psi.values, steps[sl])
        acc += np.sum(lct(tfmap.values[:, sl]) * psimat, axis=1)
    return SampledSignal(psi.grid, inverse_phase_prefactor(p) / ip * acc * tfmap.wgrid.step)


def tf_inner_product(v1: TFMap, v2: TFMap) -> complex:
    """2D quadrature inner product sum V1 * conj(V2) * ustep * wstep."""
    if v1.ugrid != v2.ugrid or v1.wgrid != v2.wgrid:
        raise GridMismatch("time-frequency maps must share both grids")
    return complex(
        np.sum(v1.values * np.conj(v2.values)) * v1.ugrid.step * v1.wgrid.step
    )
