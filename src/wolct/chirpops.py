"""Chirp-weighted convolution and correlation operators.

The quadrature forms

    (f * g)(t)  = sum_m f_m * g(t - t_m) * exp(-i*a/(2b) * t_m*(t - t_m)) * step
    (f o g)(t)  = sum_m conj(f_m) * g(t_m + t) * exp(+i*a/(2b) * t_m*(t_m + t)) * step

with zero extension outside the grid.  With k = a/(2b), the identities
t_m*(t - t_m) = (t**2 - t_m**2 - (t - t_m)**2)/2 and
t_m*(t_m + t) = ((t_m + t)**2 + t_m**2 - t**2)/2 split the chirp cross-term,
so each operator is exp(-i*k*t**2/2) times an ordinary convolution (resp.
correlation) of the operands premultiplied by exp(i*k*t**2/2), done by FFT
in O(N log N).

Both operators need t_j - t_m (resp. t_j + t_m) to land back on the sampling
lattice, which holds exactly when the grid origin is a lattice point
(symmetric grids with an odd point count, for instance).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import LatticeViolation
from .olct import _check_phase, _extent, _fft_convolve, _phase_terms
from .params import OlctParams
from .signals import SampledSignal, _require_same_grid


def _check_pair(f: SampledSignal, g: SampledSignal, p: OlctParams) -> int:
    """Check the operands' grids and the chirp phase; return the lattice index
    of t = 0."""
    _require_same_grid(f, g)
    _check_phase(p, _extent(f.grid))
    if not f.grid.origin_on_lattice():
        raise LatticeViolation(
            "chirp convolution needs t = 0 on the sampling lattice so that "
            "sums and differences of grid points stay on the grid"
        )
    return round(f.grid.start / f.grid.step)


def _support(v: np.ndarray) -> tuple[int, int]:
    nz = np.flatnonzero(v)
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)


def _chirped_sum(f: SampledSignal, g: SampledSignal, p: OlctParams,
                 correlate: bool) -> SampledSignal:
    """exp(-i*k*t_j**2/2) * step * c[lag0 + j], with c the linear convolution
    of the chirp-premultiplied operands (f reversed and conjugated for the
    correlation).

    Only the nonzero stretches of the operands enter the FFT, so c is
    exactly 0 outside the sum of their supports, as in the direct sum.
    """
    p = replace(p, u0=0.0, w0=0.0)  # the chirps carry a/(2b) * t**2 only, no offset phase
    z = _check_pair(f, g, p)
    n = f.grid.count
    chirp = np.exp(0.5j * _phase_terms(p, f.grid.points(), 0.0)[0])  # exp(i*k*t**2/2)
    if correlate:
        x, lag0 = (np.conj(f.values) * chirp)[::-1], n - 1 + z
    else:
        x, lag0 = f.values * chirp, -z
    y = g.values * chirp
    (xa, xb), (ya, yb) = _support(x), _support(y)
    lo, hi = max(lag0, xa + ya), min(lag0 + n, xb + yb - 1)
    out = np.zeros(n, dtype=np.complex128)
    if xa < xb and ya < yb and lo < hi:
        out[lo - lag0 : hi - lag0] = _fft_convolve(x[xa:xb], y[ya:yb], lo - xa - ya, hi - lo)
    return SampledSignal(f.grid, np.conj(chirp) * out * f.grid.step)


def olct_convolve(f: SampledSignal, g: SampledSignal, p: OlctParams) -> SampledSignal:
    """Chirp-weighted convolution on the shared input grid.

    For a = 0 the weight is 1 and this reduces to ordinary discrete
    convolution of the Riemann sums.
    """
    return _chirped_sum(f, g, p, correlate=False)


def olct_correlate(f: SampledSignal, g: SampledSignal, p: OlctParams) -> SampledSignal:
    """Chirp-weighted correlation on the shared input grid.

    Conjugate linear in f; for a = 0 and real f this is the classical
    cross-correlation.
    """
    return _chirped_sum(f, g, p, correlate=True)
