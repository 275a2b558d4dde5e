import tracemalloc

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wolct.olct as olct_module
from conftest import random_valid_params, valid_params
from wolct import (
    DegenerateB,
    GridMismatch,
    OlctSpectrum,
    PhaseOverflow,
    SampledSignal,
    TFMap,
    TruncationWarning,
    UniformGrid,
    gaussian,
    induced_output_grid,
    inner_product,
    iolct,
    kernel,
    l2_norm,
    olct_b0,
    olct_direct,
    olct_fast,
    olct_convolve,
    olct_correlate,
    olct_values,
    parseval_residual,
    reconstruct,
    rect,
    shift,
    spectral_tail_fraction,
    validate,
    wolct,
    wolct_at,
    wolct_slice,
)

FOURIER = validate((0, 1, -1, 0, 0, 0))
GENERIC = validate((2, 3, 1, 2, 1, -1))


def rel_l2(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_fourier_at_origin():
    assert kernel(FOURIER, 0.0, 0.0) == pytest.approx(1.0 / np.sqrt(2j * np.pi))
    assert abs(kernel(FOURIER, 0.0, 0.0)) == pytest.approx(1.0 / np.sqrt(2 * np.pi))


def test_kernel_constant_magnitude(rng):
    for p in random_valid_params(rng, 4):
        t = rng.uniform(-20, 20, size=2500)
        u = rng.uniform(-20, 20, size=2500)
        mags = np.abs(kernel(p, t, u))
        assert np.allclose(mags, 1.0 / np.sqrt(2 * np.pi * abs(p.b)), rtol=1e-12)


def test_kernel_fourier_exponent():
    # at (t, u) = (1, 2) every quadratic term vanishes and only -i*t*u remains
    t, u = 1.0, 2.0
    expected_phase = (
        (FOURIER.a / (2 * FOURIER.b)) * t**2
        - (1 / FOURIER.b) * t * (u - FOURIER.u0)
        - (1 / FOURIER.b) * u * (FOURIER.d * FOURIER.u0 - FOURIER.b * FOURIER.w0)
        + (FOURIER.d / (2 * FOURIER.b)) * (u**2 + FOURIER.u0**2)
    )
    assert expected_phase == -2.0
    want = np.exp(-2j) / np.sqrt(2j * np.pi)
    assert kernel(FOURIER, t, u) == pytest.approx(want)


def test_kernel_degenerate_b():
    with pytest.raises(DegenerateB):
        kernel(validate((1, 0, 0, 1, 0, 0)), 0.0, 0.0)


#: every path that needs b != 0, called with b = 0 parameters
B0_CALLS = {
    "wolct": lambda f, p: wolct(f, f, p),
    "wolct_given_grids": lambda f, p: wolct(f, f, p, f.grid, f.grid),
    "wolct_at": lambda f, p: wolct_at(f, f, p, [0.0], [0.0]),
    "wolct_slice": lambda f, p: wolct_slice(f, f, p, 0.0),
    "wolct_slice_given_grid": lambda f, p: wolct_slice(f, f, p, 0.0, f.grid),
    "reconstruct": lambda f, p: reconstruct(
        TFMap(f.grid, f.grid, np.ones((f.grid.count,) * 2)), f, f, p),
    "iolct": lambda f, p: iolct(f, p),
    "iolct_given_grid": lambda f, p: iolct(f, p, f.grid),
    "olct_convolve": lambda f, p: olct_convolve(f, f, p),
    "olct_correlate": lambda f, p: olct_correlate(f, f, p),
}


@pytest.mark.parametrize("case", sorted(B0_CALLS))
def test_degenerate_b_rejected(grid513, case):
    with pytest.raises(DegenerateB, match=r"\|b\| = 0\.0 <= 1e-12"):
        B0_CALLS[case](gaussian(grid513, 1.0), validate((1, 0, 0.5, 1, 0, 0)))


# ---------------------------------------------------------------------------
# direct transform


def test_direct_fourier_gaussian_magnitude(grid1025):
    # closed form: integral of exp(-t^2/2) exp(-i t u) dt = sqrt(2 pi) exp(-u^2/2),
    # so |F(u)| = exp(-u^2/2) after the 1/sqrt(2 pi i) kernel amplitude
    f = gaussian(grid1025, 1.0)
    vals = olct_values(f, FOURIER, np.array([0.0, 1.0, 2.0]))
    want = np.exp(-np.array([0.0, 1.0, 2.0]) ** 2 / 2.0)
    assert np.max(np.abs(np.abs(vals) - want)) < 1e-8


def gaussian_olct(p, sigma, u):
    """Closed form of the transform of exp(-t**2/(2*sigma**2)), from the kernel

        K(t, u) = exp(i*[a/(2b)*t^2 - t*(u - u0)/b - u*(d*u0 - b*w0)/b
                  + d/(2b)*(u^2 + u0^2)]) / sqrt(2*pi*i*b):

    the t-integral of exp(-alpha*t**2 - i*beta*t) is
    sqrt(pi/alpha) * exp(-beta**2/(4*alpha)), with alpha = 1/(2*sigma**2)
    - i*a/(2b) (so Re alpha > 0) and beta = (u - u0)/b; principal roots."""
    a, b, c, d, u0, w0 = p.as_tuple()
    alpha = 1.0 / (2.0 * sigma**2) - 1j * a / (2.0 * b)
    beta = (u - u0) / b
    outer = -u * (d * u0 - b * w0) / b + d / (2.0 * b) * (u**2 + u0**2)
    return (np.sqrt(np.pi / alpha) * np.exp(-beta**2 / (4.0 * alpha) + 1j * outer)
            / np.sqrt(2j * np.pi * b))


@settings(max_examples=8, deadline=None)
@given(valid_params(), st.floats(0.7, 1.5), st.sampled_from([1024, 1025]))
def test_gaussian_transform_matches_closed_form(p, sigma, n):
    # the fast path and its oracle share the kernel's phase terms, so only a
    # closed form checks the complex values themselves, phase included
    f = gaussian(UniformGrid.symmetric(0.05, n), sigma)
    want = gaussian_olct(p, sigma, induced_output_grid(p, f.grid).points())
    for got in (olct_direct(f, p), olct_fast(f, p)):
        assert np.max(np.abs(got.values - want)) <= 1e-11 * np.max(np.abs(want))


def test_direct_zero_and_linearity(grid513, rng):
    zero = SampledSignal(grid513, np.zeros(513))
    assert np.all(olct_direct(zero, GENERIC).values == 0.0)
    f = gaussian(grid513, 1.0)
    g = gaussian(grid513, 0.7, 0.5)
    al, be = 0.8 - 0.3j, -0.4 + 1.1j
    combo = SampledSignal(grid513, al * f.values + be * g.values)
    lhs = olct_direct(combo, GENERIC).values
    rhs = al * olct_direct(f, GENERIC).values + be * olct_direct(g, GENERIC).values
    assert rel_l2(lhs, rhs) < 1e-13


def test_quadrature_blocks_match_one_block(grid513, monkeypatch):
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 2.0)
    us = np.linspace(-3.0, 3.0, 20)
    ws = grid513.step * np.arange(-10, 10)
    one_direct = olct_values(f, GENERIC, us)
    one_windowed = wolct_at(f, phi, GENERIC, us, ws)
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(olct_module, "_BLOCK_ENTRIES", 3 * grid513.count)
    monkeypatch.setattr(olct_module, "kernel", counted)
    # wolct_at's einsum sums each column alone, so its blocks agree bit for
    # bit; BLAS matrix-vector products group columns, so olct_values may
    # differ from one block in the last digit
    assert np.array_equal(wolct_at(f, phi, GENERIC, us, ws), one_windowed)
    assert len(calls) == 7  # blocks of 3 output points
    calls.clear()
    assert np.allclose(olct_values(f, GENERIC, us), one_direct, rtol=1e-14, atol=0)
    assert len(calls) == 7


def test_quadrature_peak_memory_is_bounded(grid1025):
    # kernel blocks share the chirp-FFT engine's 1 MiB budget, so neither
    # oracle holds more than a few blocks, whatever N and the point count
    f = gaussian(UniformGrid.symmetric(0.0125, 2049), 1.0)
    g = gaussian(grid1025, 1.0)
    rng = np.random.default_rng(5)
    us = rng.uniform(-4.0, 4.0, 801)
    ws = grid1025.step * rng.integers(-200, 200, 801)
    for call in (lambda: olct_direct(f, GENERIC), lambda: wolct_at(g, g, GENERIC, us, ws)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_phase_past_float64_precision_rejected(grid513):
    grid = UniformGrid(0.0, 1e7, 3)  # a/(2b) * t_max**2 = 2e16 rad at b = 0.01
    p = validate((1, 0.01, 0, 1, 0, 0))
    f = gaussian(grid, 1e7)
    for call in (lambda: olct_values(f, p, [0.0]), lambda: olct_fast(f, p),
                 lambda: wolct(f, f, p), lambda: wolct_at(f, f, p, [0.0], [0.0]),
                 lambda: olct_convolve(f, f, p)):
        with pytest.raises(PhaseOverflow, match="kernel phase reaches 2e\\+16 rad"):
            call()
    fine = UniformGrid(0.0, 1e7 / 3, 3)  # 2.2e15 rad: below the limit
    assert np.all(np.isfinite(olct_values(gaussian(fine, 1e7), p, [0.0])))
    # d/(2b) * u0**2 = 3.3e31 rad at u0 = 1e16
    p, f = validate((2, 3, 1, 2, 1e16, 0)), gaussian(grid513, 1.0)
    for call in (lambda: olct_values(f, p, [0.0]), lambda: olct_fast(f, p),
                 lambda: olct_direct(f, p), lambda: wolct(f, f, p),
                 lambda: wolct_at(f, f, p, [0.0], [0.0])):
        with pytest.raises(PhaseOverflow, match="kernel phase reaches 3.33e\\+31 rad"):
            call()
    # the inverse's offset is -d*u0, so a/(2b) * (d*u0)**2 = 1.3e32 rad
    with pytest.raises(PhaseOverflow, match="kernel phase reaches 1.33e\\+32 rad"):
        iolct(f, p)
    # the chirp operators carry no offset phase
    assert np.all(np.isfinite(olct_convolve(f, f, p).values))
    # every other kernel phase term alone at 5e15 rad, then at about half of it
    # (a/(2b) * t**2 is the first case above); (0, 1, -1, 0, u0, w0) has
    # a = d = 0, which leaves only the cross term -t*(u - u0)/b and the
    # linear term -u*(d*u0 - b*w0)/b
    for raw, t_max, u, rejected in [
        ((0, 1, -1, 0, 0, 0), 1e8, 5e7, True), ((0, 1, -1, 0, 0, 0), 1e8, 2.25e7, False),
        ((0, 1, -1, 0, 0, 5e7), 1e-3, 1e8, True), ((0, 1, -1, 0, 0, 2.25e7), 1e-3, 1e8, False),
        ((1, 0.01, 0, 1, 0, 0), 1e-3, 1e7, True), ((1, 0.01, 0, 1, 0, 0), 1e-3, 7e6, False),
    ]:
        f = gaussian(UniformGrid(0.0, t_max / 2, 3), t_max)
        if rejected:
            with pytest.raises(PhaseOverflow, match="kernel phase reaches 5e\\+15 rad"):
                olct_values(f, validate(raw), [u])
        else:
            assert np.all(np.isfinite(olct_values(f, validate(raw), [u])))
    # the cross term t*(u - u0) reaches T*(U + |u0|)/|b| at u = -U: 1.2 * 2**52
    # rad here, where the per-factor bound T*U/|b| and T*|u0|/|b| read 0.6 * 2**52
    u0 = 0.6 * 2.0**52 / 1e8
    f = gaussian(UniformGrid(0.0, 5e7, 3), 1e8)
    with pytest.raises(PhaseOverflow, match="kernel phase reaches 5.4e\\+15 rad"):
        olct_values(f, validate((0, 1, -1, 0, u0, 0)), [u0])
    # a grid whose squared extent overflows: rejected, with no numpy warning
    f = SampledSignal(UniformGrid(-1.4e154, 1.4e154, 3), np.ones(3))  # 1.96e308
    for p in (GENERIC, FOURIER):
        for call in (lambda: olct_values(f, p, [0.0]), lambda: olct_fast(f, p)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(PhaseOverflow, match="kernel phase reaches inf rad"):
                    call()


# ---------------------------------------------------------------------------
# b = 0 branch


def test_b0_identity_params(grid513):
    f = gaussian(grid513, 1.0)
    out = olct_b0(f, validate((1, 0, 0, 1, 0, 0)))
    assert np.allclose(out.values, f.values, atol=1e-14)


def test_b0_chirp_preserves_magnitude(grid513):
    f = gaussian(grid513, 1.0)
    out = olct_b0(f, validate((1, 0, 0.7, 1, 0, 0)))
    assert np.allclose(np.abs(out.values), np.abs(f.values), atol=1e-14)


def test_b0_offset_shifts_signal(grid513):
    f = rect(grid513, 1.0)
    out = olct_b0(f, validate((1, 0, 0, 1, 1.0, 0)))
    want = shift(f, grid513.steps_of(1.0))
    assert np.allclose(out.values, want.values, atol=1e-14)


def test_b0_negative_d_uses_principal_root(grid513):
    # (a, d) = (-1, -1): F(u) = sqrt(-1) * f(-u) = i * reflected f
    f = gaussian(grid513, 1.0, 0.5)
    out = olct_b0(f, validate((-1, 0, 0, -1, 0, 0)))
    want = 1j * f.values[::-1]
    assert np.allclose(out.values, want, atol=1e-14)


def test_b0_rejects_nonzero_b(grid513):
    with pytest.raises(ValueError):
        olct_b0(gaussian(grid513, 1.0), GENERIC)


# ---------------------------------------------------------------------------
# fast path


def test_fast_matches_direct(grid1025):
    f = gaussian(grid1025, 1.0)
    fast = olct_fast(f, GENERIC)
    direct = olct_direct(f, GENERIC)
    assert fast.grid == direct.grid
    dev = np.max(np.abs(fast.values - direct.values))
    assert dev <= 1e-9 * np.max(np.abs(direct.values))


def test_fast_matches_direct_negative_b(grid513):
    p = validate((0, -1, 1, 0, 0.3, -0.2))
    f = gaussian(grid513, 1.0)
    fast = olct_fast(f, p)
    direct = olct_direct(f, p)
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-9 * np.max(
        np.abs(direct.values)
    )


def test_fast_zero_signal(grid513):
    zero = SampledSignal(grid513, np.zeros(513))
    assert np.all(olct_fast(zero, GENERIC).values == 0.0)


def test_fast_fourier_against_dft_oracle():
    # plain-sum DFT approximation of the continuous Fourier integral, built
    # independently of the library's twiddle bookkeeping; the fast path must
    # reproduce it up to the fixed 1/sqrt(i) kernel amplitude
    n = 1024
    grid = UniformGrid.symmetric(0.025, n)
    f = gaussian(grid, 1.0)
    got = olct_fast(f, FOURIER)
    t = grid.points()
    omega = got.grid.points()  # b = 1 maps u = omega
    dft = np.array([np.sum(f.values * np.exp(-1j * w * t)) for w in omega]) * grid.step
    want = dft / np.sqrt(2j * np.pi)
    assert np.max(np.abs(got.values - want)) <= 1e-9 * np.max(np.abs(want))


def test_fast_degenerate_b(grid513):
    with pytest.raises(DegenerateB):
        olct_fast(gaussian(grid513, 1.0), validate((1, 0, 0, 1, 0, 0)))


def test_induced_grid_negative_b_ascending(grid513):
    p = validate((0, -1, 1, 0, 0, 0))
    g = induced_output_grid(p, grid513)
    assert g.step > 0
    # the point set is b * omega_k for the centered DFT frequencies
    omega = 2 * np.pi * (np.arange(513) - 513 // 2) / (513 * grid513.step)
    assert np.allclose(sorted(p.b * omega), g.points(), atol=1e-9)


# ---------------------------------------------------------------------------
# inverse and Parseval


def test_round_trip_generic():
    grid = UniformGrid.symmetric(32.0 / 2047, 2048)
    f = gaussian(grid, 1.0)
    rec = iolct(olct_direct(f, GENERIC), GENERIC, grid)
    assert rel_l2(rec.values, f.values) <= 1e-6


def test_round_trip_fourier(grid1025):
    f = gaussian(grid1025, 1.0)
    rec = iolct(olct_direct(f, FOURIER), FOURIER, grid1025)
    assert rel_l2(rec.values, f.values) <= 1e-8


def test_round_trip_negative_b(grid1025):
    p = validate((0, -1, 1, 0, 0, 0))
    f = gaussian(grid1025, 1.0)
    rec = iolct(olct_direct(f, p), p, grid1025)
    assert rel_l2(rec.values, f.values) <= 1e-8


def test_iolct_zero_spectrum(grid513):
    spec = OlctSpectrum(induced_output_grid(GENERIC, grid513), np.zeros(513))
    out = iolct(spec, GENERIC, grid513)
    assert np.all(out.values == 0.0)


def test_iolct_default_grid_recovers_time_grid(grid1025):
    f = gaussian(grid1025, 1.0)
    rec = iolct(olct_direct(f, GENERIC), GENERIC)
    assert rec.grid.count == grid1025.count
    assert rec.grid.step == pytest.approx(grid1025.step, rel=1e-12)
    assert rel_l2(rec.values, f.values) <= 1e-6


def test_round_trip_refinement_floor():
    # error decreases with refinement at order >= 2 until the 1e-10 floor;
    # on these grids it is already at the floor
    for n in (512, 1024):
        grid = UniformGrid.symmetric(25.6 / (n - 1), n)
        f = gaussian(grid, 1.0)
        rec = iolct(olct_direct(f, GENERIC), GENERIC, grid)
        assert rel_l2(rec.values, f.values) <= 1e-10


def test_parseval_fourier(grid1025):
    f = gaussian(grid1025, 1.0)
    assert parseval_residual(f, f, FOURIER) <= 1e-8


def test_parseval_orthogonal_pair(grid1025):
    f = gaussian(grid1025, 1.0)
    t = grid1025.points()
    g = SampledSignal(grid1025, t * np.exp(-(t**2) / 2))
    assert abs(inner_product(f, g)) <= 1e-12
    assert parseval_residual(f, g, FOURIER) <= 1e-8


def test_parseval_generic(grid1025):
    f = gaussian(grid1025, 1.0)
    g = gaussian(grid1025, 0.7, 0.4)
    assert parseval_residual(f, g, GENERIC) <= 1e-6


def test_parseval_grid_mismatch(grid513, grid1025):
    with pytest.raises(GridMismatch):
        parseval_residual(gaussian(grid513, 1.0), gaussian(grid1025, 1.0), GENERIC)


def test_unitarity_random_params(grid1025, rng):
    f = gaussian(grid1025, 1.0)
    for p in random_valid_params(rng, 5, min_abs_b=0.5):
        spec = olct_fast(f, p)
        spectral_norm = np.sqrt(np.sum(np.abs(spec.values) ** 2) * spec.grid.step)
        assert abs(spectral_norm - l2_norm(f)) <= 1e-6 * l2_norm(f)


def test_truncation_warning_for_flat_spectrum(grid513):
    vals = np.zeros(513)
    vals[256] = 1.0 / grid513.step  # near-delta: flat spectral magnitude
    spike = SampledSignal(grid513, vals)
    spec = olct_fast(spike, FOURIER)
    assert spectral_tail_fraction(spec) > 1e-10
    with pytest.warns(TruncationWarning):
        parseval_residual(spike, spike, FOURIER)
    with pytest.warns(TruncationWarning):
        iolct(spec, FOURIER, grid513)
