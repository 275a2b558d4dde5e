"""The offset canonical transform engine.

Provides kernel evaluation, the O(N*M) quadrature at arbitrary output
points (the oracle, whose one chunk loop :func:`_kernel_blocks` also serves
:mod:`wolct.windowed`), one chirp-FFT primitive from any uniform grid onto
any uniform grid that serves the fast path, the inverse transform and, by
column blocks, the windowed map and reconstruction, the b = 0 scaling branch,
and the generalized Parseval residual; both engines block by :data:`_BLOCK_ENTRIES`.
Only this module checks b = 0 (:class:`DegenerateB`) and bounds the kernel
phase, offsets included (:func:`_check_phase`, :class:`PhaseOverflow` past
1/eps).  A spectrum is a :class:`SampledSignal`; ``OlctSpectrum`` names the
same class.

Branch conventions: sqrt(i*2*pi*b) and sqrt(d) always use the principal
complex square root, for b and d of either sign.  All identity checks share
the convention, so residuals are branch independent.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateB, PhaseOverflow, TruncationWarning
from .params import EPS_B, OlctParams, inverse_phase_prefactor, invert
from .signals import SampledSignal, UniformGrid, inner_product, l2_norm

#: phase (rad) at which float64 keeps no correct digit: 1/eps
_PHASE_LIMIT = 2.0**52

#: complex entries (1 MiB) per quadrature kernel block and per padded
#: chirp-FFT block, small enough for a block's passes to stay in a core's
#: L2 cache
_BLOCK_ENTRIES = 1 << 16

#: transform values on a uniform output-frequency grid: a sampled signal
OlctSpectrum = SampledSignal


def _require_b(p: OlctParams):
    if p.is_b_zero:
        raise DegenerateB(f"|b| = {abs(p.b)!r} <= {EPS_B}; use the b = 0 branch")


def _extent(grid: UniformGrid) -> float:
    return max(abs(grid.start), abs(grid.stop))


def _check_phase(p: OlctParams, t_max: float, u_max: float = 0.0):
    """Raise DegenerateB for b = 0 and PhaseOverflow unless the phase bound,
    the largest kernel phase term over |t| <= t_max, |u| <= u_max, is below
    :data:`_PHASE_LIMIT`.  The terms are |a/(2b)|*t_max**2, |d/(2b)|*u_max**2,
    t_max*u_max/|b|, and the offsets' t_max*|u0|/|b|, u_max*|d*u0 - b*w0|/|b|
    and |d/(2b)|*u0**2."""
    _require_b(p)
    k = 1.0 / abs(p.b)
    terms = (abs(p.a) * k / 2 * t_max * t_max, abs(p.d) * k / 2 * u_max * u_max,
             k * t_max * u_max, k * t_max * abs(p.u0),
             k * u_max * abs(p.d * p.u0 - p.b * p.w0), abs(p.d) * k / 2 * p.u0 * p.u0)
    bound = max(terms) if all(map(math.isfinite, terms)) else math.inf
    if bound >= _PHASE_LIMIT:
        raise PhaseOverflow(f"kernel phase reaches {bound:.3g} rad, where float64 keeps "
                            f"no digit (b = {p.b!r}, |t| <= {t_max:.3g}, |u| <= {u_max:.3g})")


def kernel(p: OlctParams, t, u) -> complex | np.ndarray:
    """Transform kernel K(t, u); broadcasts over array arguments.

    K(t, u) = 1/sqrt(i*2*pi*b) * exp(i*[a/(2b)*t^2 - t*(u - u0)/b
              - u*(d*u0 - b*w0)/b + d/(2b)*(u^2 + u0^2)]).

    |K| = 1/sqrt(2*pi*|b|) for all (t, u).
    """
    _require_b(p)
    t = np.asarray(t, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    a, b, c, d, u0, w0 = p.as_tuple()
    amp = 1.0 / np.sqrt(1j * 2.0 * np.pi * b)
    phase = (
        (a / (2.0 * b)) * t**2
        - (1.0 / b) * t * (u - u0)
        - (1.0 / b) * u * (d * u0 - b * w0)
        + (d / (2.0 * b)) * (u**2 + u0**2)
    )
    out = amp * np.exp(1j * phase)
    return complex(out) if out.ndim == 0 else out


def _kernel_blocks(grid: UniformGrid, p: OlctParams, u_points: np.ndarray):
    """Yield (slice, K[j, l] = K(t_j, u_points[slice][l])) over blocks of
    output points, each K of at most :data:`_BLOCK_ENTRIES` entries."""
    _check_phase(p, _extent(grid), float(np.abs(u_points).max(initial=0.0)))
    t = grid.points()[:, None]
    blk = max(1, _BLOCK_ENTRIES // grid.count)
    for lo in range(0, u_points.shape[0], blk):
        sl = slice(lo, lo + blk)
        yield sl, kernel(p, t, u_points[None, sl])


def olct_values(f: SampledSignal, p: OlctParams, u_points) -> np.ndarray:
    """Direct quadrature transform evaluated at arbitrary output points:
    sum_j f_j * K(t_j, u_k) * step, chunked over output points."""
    u_points = np.asarray(u_points, dtype=np.float64)
    out = np.empty(u_points.shape[0], dtype=np.complex128)
    for sl, karr in _kernel_blocks(f.grid, p, u_points):
        out[sl] = f.values @ karr
    return out * f.grid.step


def _fft_convolve(x: np.ndarray, y: np.ndarray, lo: int, count: int) -> np.ndarray:
    """Entries lo .. lo + count - 1 of the linear convolution of each row of
    x with y, by FFT at the least power-of-two size free of wrap-around."""
    size = 1 << (max(lo + count, x.shape[-1] + y.shape[0] - 1 - lo) - 1).bit_length()
    spec = np.fft.fft(x, size)
    spec *= np.fft.fft(y, size)
    return np.fft.ifft(spec)[..., lo : lo + count]


def _lct_blocks(tgrid: UniformGrid, p: OlctParams, ugrid: UniformGrid, ncols: int):
    """Yield (slice, lct) over blocks of ``ncols`` columns; lct(x) is sum_j x[j, l]
    * K(t_j, u_k) * tgrid.step at every u_k of ugrid for a block's columns x.

    Bluestein's chirp-z factorization: with t_j = t0 + j*h, u_k = v0 + k*s
    and beta = h*s/b, t_j*u_k/b = t_j*v0/b + t0*(u_k - v0)/b + beta*j*k,
    and j*k = (j**2 + k**2 - (k - j)**2)/2 turns the sum over j into a
    pre-chirp, an FFT convolution with exp(i*beta*l**2/2) and a post-chirp.
    The chirps are not taken as K(t_j, v0) and K(t0, u_k) / K(t0, v0):
    those carry large constant phases whose rounding does not cancel.
    A block's padded temporaries hold at most :data:`_BLOCK_ENTRIES` entries
    each, so callers build and consume one block of columns at a time.
    """
    _check_phase(p, _extent(tgrid), _extent(ugrid))
    a, b, c, d, u0, w0 = p.as_tuple()
    n, m = tgrid.count, ugrid.count
    t, u = tgrid.points(), ugrid.points()
    t0, v0 = tgrid.start, ugrid.start
    # exp(i*beta*l**2/2) at lags l = 1 - n .. m - 1
    lag_chirp = np.exp(0.5j * (tgrid.step * ugrid.step / b) * np.arange(1 - n, m) ** 2)
    pre = np.exp(1j * ((a / (2.0 * b)) * t**2 - t * (v0 - u0) / b))
    pre *= np.conj(lag_chirp[n - 1 :: -1])
    post = (tgrid.step / np.sqrt(1j * 2.0 * np.pi * b)) * np.exp(1j * (
        -t0 * (u - v0) / b - u * (d * u0 - b * w0) / b + (d / (2.0 * b)) * (u**2 + u0**2)
    ))
    post *= np.conj(lag_chirp[n - 1 :])

    def lct(x: np.ndarray) -> np.ndarray:
        return (_fft_convolve(x.T * pre, lag_chirp, n - 1, m) * post).T

    blk = max(1, _BLOCK_ENTRIES // (1 << (n + m - 2).bit_length()))
    for lo in range(0, ncols, blk):
        yield slice(lo, lo + blk), lct


def _lct_sum(x: np.ndarray, tgrid: UniformGrid, p: OlctParams,
             ugrid: UniformGrid) -> np.ndarray:
    """sum_j x[j] * K(t_j, u_k) * tgrid.step at every point of ugrid, for a vector x."""
    _, lct = next(_lct_blocks(tgrid, p, ugrid, 1))
    return lct(x[:, None])[:, 0]


def induced_output_grid(p: OlctParams, tgrid: UniformGrid) -> UniformGrid:
    """Output grid induced by the chirp-FFT factorization.

    u_k = b * omega_k with omega_k the centered DFT frequencies of the
    input grid; for b < 0 the points are listed in ascending order.
    """
    _require_b(p)
    n = tgrid.count
    dw = 2.0 * np.pi / (n * tgrid.step)
    if p.b > 0:
        start = -p.b * dw * (n // 2)
    else:
        start = p.b * dw * (n - 1 - n // 2)
    return UniformGrid(start, abs(p.b) * dw, n)


def olct_direct(f: SampledSignal, p: OlctParams,
                ugrid: UniformGrid | None = None) -> OlctSpectrum:
    """O(N*M) quadrature transform.

    The default output grid matches the fast path's induced grid so the
    two are directly comparable.
    """
    if ugrid is None:
        ugrid = induced_output_grid(p, f.grid)
    return OlctSpectrum(ugrid, olct_values(f, p, ugrid.points()))


def olct_fast(f: SampledSignal, p: OlctParams) -> OlctSpectrum:
    """Chirp-FFT transform on the induced output grid, O(N log N).

    Agrees with :func:`olct_direct` on the same grid; any uniform input
    grid is accepted.
    """
    ugrid = induced_output_grid(p, f.grid)
    return OlctSpectrum(ugrid, _lct_sum(f.values, f.grid, p, ugrid))


def olct_b0(f: SampledSignal, p: OlctParams) -> OlctSpectrum:
    """The b = 0 branch: a time-scaled copy under a linear chirp.

    F(u) = sqrt(d) * exp(i*[c*d/2*(u - u0)^2 + u*w0]) * f(d*(u - u0)),
    with f read off by linear interpolation (exact whenever d*(u - u0)
    lands on the input lattice) and zero outside it; F shares f's grid.
    """
    if not p.is_b_zero:
        raise ValueError("olct_b0 requires |b| <= EPS_B; use the quadrature paths")
    a, b, c, d, u0, w0 = p.as_tuple()
    u = t = f.grid.points()
    x = d * (u - u0)
    fx = np.interp(x, t, f.values.real, left=0.0, right=0.0) + 1j * np.interp(
        x, t, f.values.imag, left=0.0, right=0.0
    )
    vals = np.sqrt(complex(d)) * np.exp(1j * ((c * d / 2.0) * (u - u0) ** 2 + u * w0)) * fx
    return OlctSpectrum(f.grid, vals)


def iolct(spectrum: OlctSpectrum, p: OlctParams,
          tgrid: UniformGrid | None = None) -> SampledSignal:
    """Inverse transform: the chirp-FFT sum against the inverse-parameter kernel.

    f(t) = prefactor * sum_k F(u_k) * K_inv(u_k, t) * ustep, where the
    unimodular prefactor comes from :func:`inverse_phase_prefactor`
    (its round-trip-validated variant).  The default output grid
    runs the fast-path factorization backwards and re-centers symmetrically
    about 0, which recovers the original time grid for a spectrum produced
    on an induced grid from a symmetric input.
    """
    pinv = invert(p)
    if tgrid is None:
        dual = induced_output_grid(pinv, spectrum.grid)
        tgrid = UniformGrid.symmetric(dual.step, dual.count)
    _warn_truncated(spectrum, "the inverse transform is truncation limited")
    pref = inverse_phase_prefactor(p)
    return SampledSignal(tgrid, pref * _lct_sum(spectrum.values, spectrum.grid, pinv, tgrid))


def spectral_tail_fraction(spectrum: OlctSpectrum) -> float:
    """Fraction of spectral energy in the outermost 1 % of the grid's bins
    (at least one bin at each end)."""
    mag2 = np.abs(spectrum.values) ** 2
    total = mag2.sum()
    if total == 0.0:
        return 0.0
    k = max(1, int(round(0.01 * spectrum.grid.count)))
    return float((mag2[:k].sum() + mag2[-k:].sum()) / total)


def _warn_truncated(spectrum: OlctSpectrum, consequence: str, stacklevel: int = 3):
    if spectral_tail_fraction(spectrum) > 1e-10:
        warnings.warn(f"spectral tail energy above 1e-10 of total; {consequence}",
                      TruncationWarning, stacklevel=stacklevel)


def _parseval_sums(f: SampledSignal, g: SampledSignal, p: OlctParams,
                   warn: bool = False) -> tuple[complex, complex]:
    """The two sides <f, g> and <Of, Og> of the Parseval formula, both
    spectra on the induced output grid; with ``warn``, a
    :class:`TruncationWarning` for each spectrum with a non-negligible tail."""
    ip = inner_product(f, g)  # checks the grids before the transforms
    sf, sg = olct_fast(f, p), olct_fast(g, p)
    for s in (sf, sg) if warn else ():
        _warn_truncated(s, "Parseval residual may be truncation limited", stacklevel=4)
    return ip, complex(np.sum(sf.values * np.conj(sg.values)) * sf.grid.step)


def parseval_residual(f: SampledSignal, g: SampledSignal, p: OlctParams) -> float:
    """Normalized residual of the generalized Parseval formula.

    |<f, g> - <Of, Og>| / (||f|| * ||g||), with both spectra computed on
    the induced output grid.  Emits :class:`TruncationWarning` when the
    grid fails to capture essentially all spectral energy.
    """
    lhs, rhs = _parseval_sums(f, g, p, warn=True)
    scale = l2_norm(f) * l2_norm(g)
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale
