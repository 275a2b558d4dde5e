"""Windowed transform: time-frequency maps, slices, and reconstruction.

The windowed transform of f against window phi is

    V(u, w) = sum_j f_j * conj(phi(t_j - w)) * K(t_j, u) * step,

with the window shift realized by an integer index shift and zero fill, so
every admissible w is an integer multiple of the signal step.  That keeps
identity residuals free of interpolation artifacts.

The full map and reconstruction run every column through the chirp-FFT
engine, O((N + M) log(N + M)) per column; :func:`wolct_at` and
:func:`wolct_slice` stay direct quadrature and serve as their oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, LatticeViolation, NonAdmissiblePair, ZeroWindow
from .olct import (
    OlctSpectrum,
    _CHUNK_ENTRIES,
    _lct_sum,
    _require_b,
    induced_output_grid,
    kernel,
    olct_values,
)
from .params import OlctParams, inverse_phase_prefactor, invert
from .signals import (
    LATTICE_RTOL,
    SampledSignal,
    UniformGrid,
    inner_product,
    l2_norm,
)

#: window norm below which the window is rejected as degenerate
ZERO_WINDOW_TOL = 1e-12

#: default coarsening of the w lattice relative to the signal lattice
DEFAULT_W_STRIDE = 4


@dataclass(frozen=True)
class TFMap:
    """Complex matrix V[u_k, w_l] over output-frequency and shift grids."""

    ugrid: UniformGrid
    wgrid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.ugrid.count, self.wgrid.count):
            raise ValueError(
                f"values shape {vals.shape} does not match grids "
                f"({self.ugrid.count}, {self.wgrid.count})"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def default_wgrid(tgrid: UniformGrid, stride: int = DEFAULT_W_STRIDE) -> UniformGrid:
    """Coarsened shift lattice: every ``stride``-th multiple of the signal step
    starting from the lattice point nearest the grid start."""
    s0 = round(tgrid.start / tgrid.step)
    count = max(2, tgrid.count // stride)
    return UniformGrid(s0 * tgrid.step, stride * tgrid.step, count)


def _shift_steps(tgrid: UniformGrid, w_values: np.ndarray) -> np.ndarray:
    """Integer shift counts for each w; raises unless all are on the lattice."""
    q = np.asarray(w_values, dtype=np.float64) / tgrid.step
    s = np.round(q)
    if np.any(np.abs(q - s) > LATTICE_RTOL * np.maximum(1.0, np.abs(q))):
        raise LatticeViolation(
            "window shifts must be integer multiples of the signal step"
        )
    return s.astype(np.int64)


def _shifted_window_matrix(win: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Columns phi(t_j - w_l) via index shift with zero fill; shape [N, L]."""
    n = win.shape[0]
    idx = np.arange(n)[:, None] - steps[None, :]
    valid = (idx >= 0) & (idx < n)
    return np.where(valid, win[np.clip(idx, 0, n - 1)], 0.0)


def _check_window(f: SampledSignal, phi: SampledSignal):
    if f.grid != phi.grid:
        raise GridMismatch("signal and window must share a grid")
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
    _require_b(p)
    if ugrid is None:
        ugrid = induced_output_grid(p, f.grid)
    if wgrid is None:
        wgrid = default_wgrid(f.grid)
    steps = _shift_steps(f.grid, wgrid.points())
    windowed = f.values[:, None] * np.conj(_shifted_window_matrix(phi.values, steps))
    return TFMap(ugrid, wgrid, _lct_sum(windowed, f.grid, p, ugrid))


def windowed_signal(f: SampledSignal, phi: SampledSignal, w: float) -> SampledSignal:
    """f(t) * conj(phi(t - w)) for a lattice-aligned shift w."""
    _check_window(f, phi)
    s = f.grid.steps_of(w)
    col = _shifted_window_matrix(phi.values, np.array([s]))[:, 0]
    return SampledSignal(f.grid, f.values * np.conj(col))


def wolct_slice(f: SampledSignal, phi: SampledSignal, p: OlctParams, w: float,
                ugrid: UniformGrid | None = None) -> OlctSpectrum:
    """Fixed-w slice: the plain transform of f(t) * conj(phi(t - w)).

    Direct quadrature, so it is an independent oracle for the corresponding
    :func:`wolct` column, which the chirp-FFT engine computes; the two agree
    to within floating-point noise.
    """
    _require_b(p)
    if ugrid is None:
        ugrid = induced_output_grid(p, f.grid)
    sig = windowed_signal(f, phi, w)
    return OlctSpectrum(ugrid, olct_values(sig, p, ugrid.points()))


def wolct_at(f: SampledSignal, phi: SampledSignal, p: OlctParams,
             us, ws) -> np.ndarray:
    """Map values at paired points (u_i, w_i); each w_i lattice aligned."""
    _check_window(f, phi)
    _require_b(p)
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    ws = np.atleast_1d(np.asarray(ws, dtype=np.float64))
    if us.shape != ws.shape:
        raise ValueError("us and ws must have matching shapes")
    steps = _shift_steps(f.grid, ws)
    t = f.grid.points()[:, None]
    out = np.empty(us.shape[0], dtype=np.complex128)
    blk = max(1, _CHUNK_ENTRIES // f.grid.count)
    for lo in range(0, us.shape[0], blk):
        ub = us[lo : lo + blk]
        win = _shifted_window_matrix(phi.values, steps[lo : lo + ub.shape[0]])
        karr = kernel(p, t, ub[None, :])
        out[lo : lo + ub.shape[0]] = np.einsum(
            "j,jl,jl->l", f.values, np.conj(win), karr
        )
    return out * f.grid.step


def reconstruct(tfmap: TFMap, phi: SampledSignal, psi: SampledSignal,
                p: OlctParams, tgrid: UniformGrid | None = None,
                prefactor_variant: str = "validated") -> SampledSignal:
    """Invert a time-frequency map with synthesis window psi.

    f(t) = prefactor / <psi, phi> * sum_{k,l} V[k,l] * K_inv(u_k, t)
           * psi(t - w_l) * ustep * wstep.

    phi is the analysis window the map was built with; the pair must
    satisfy <psi, phi> != 0.  psi must live on the output grid.
    """
    _require_b(p)
    ip = inner_product(psi, phi)
    if abs(ip) <= 1e-9 * l2_norm(psi) * l2_norm(phi):
        raise NonAdmissiblePair(
            f"<psi, phi> = {ip!r} is numerically zero; reconstruction undefined"
        )
    if tgrid is None:
        tgrid = psi.grid
    elif tgrid != psi.grid:
        raise GridMismatch("synthesis window must be sampled on the output grid")

    acc = _lct_sum(tfmap.values, tfmap.ugrid, invert(p), tgrid)
    steps = _shift_steps(tgrid, tfmap.wgrid.points())
    psimat = _shifted_window_matrix(psi.values, steps)
    pref = inverse_phase_prefactor(p, prefactor_variant)
    vals = (pref / ip) * np.sum(acc * psimat, axis=1) * tfmap.wgrid.step
    return SampledSignal(tgrid, vals)


def tf_inner_product(v1: TFMap, v2: TFMap) -> complex:
    """2D quadrature inner product sum V1 * conj(V2) * ustep * wstep."""
    if v1.ugrid != v2.ugrid or v1.wgrid != v2.wgrid:
        raise GridMismatch("time-frequency maps must share both grids")
    return complex(
        np.sum(v1.values * np.conj(v2.values)) * v1.ugrid.step * v1.wgrid.step
    )
