import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, valid_params
from wolct import (
    DegenerateB,
    GridMismatch,
    LatticeViolation,
    SampledSignal,
    UniformGrid,
    gaussian,
    l2_norm,
    olct_convolve,
    olct_correlate,
    rect,
    validate,
)

FOURIER = validate((0, 1, -1, 0, 0, 0))
GENERIC_LCT = validate((2, 3, 1, 2, 0, 0))


def brute_convolve(f, g, p):
    """Literal double loop over the defining sum."""
    grid = f.grid
    t = grid.points()
    n = grid.count
    out = np.zeros(n, dtype=complex)
    coef = -p.a / (2.0 * p.b)
    for j in range(n):
        acc = 0.0 + 0.0j
        for m in range(n):
            tau = t[j] - t[m]
            k = round((tau - grid.start) / grid.step)
            if 0 <= k < n and abs(grid.point(k) - tau) < 1e-9 * grid.step:
                acc += f.values[m] * g.values[k] * np.exp(1j * coef * t[m] * tau)
        out[j] = acc * grid.step
    return out


def brute_correlate(f, g, p):
    grid = f.grid
    t = grid.points()
    n = grid.count
    out = np.zeros(n, dtype=complex)
    coef = p.a / (2.0 * p.b)
    for j in range(n):
        acc = 0.0 + 0.0j
        for m in range(n):
            tau = t[m] + t[j]
            k = round((tau - grid.start) / grid.step)
            if 0 <= k < n and abs(grid.point(k) - tau) < 1e-9 * grid.step:
                acc += np.conj(f.values[m]) * g.values[k] * np.exp(1j * coef * t[m] * tau)
        out[j] = acc * grid.step
    return out


@pytest.fixture
def small_grid():
    return UniformGrid.symmetric(0.25, 65)


def test_convolve_matches_brute_force(small_grid, rng):
    f = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    g = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    got = olct_convolve(f, g, GENERIC_LCT)
    assert np.max(np.abs(got.values - brute_convolve(f, g, GENERIC_LCT))) <= 1e-12


def test_correlate_matches_brute_force(small_grid, rng):
    f = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    g = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    got = olct_correlate(f, g, GENERIC_LCT)
    assert np.max(np.abs(got.values - brute_correlate(f, g, GENERIC_LCT))) <= 1e-12


def test_convolve_a_zero_is_classical(grid513):
    # chirp factor collapses to 1; compare against numpy's convolution
    f = gaussian(grid513, 0.8)
    g = gaussian(grid513, 0.9, 0.3)
    got = olct_convolve(f, g, FOURIER)
    full = np.convolve(f.values, g.values) * grid513.step
    z = round(grid513.start / grid513.step)
    idx = np.arange(513) - z  # t_j = (j + z) * h lands at full[j - z]
    want = full[idx]
    assert np.max(np.abs(got.values - want)) <= 1e-12


def test_correlate_a_zero_is_classical(grid513):
    f = gaussian(grid513, 0.8)
    g = gaussian(grid513, 0.9, 0.3)
    got = olct_correlate(f, g, FOURIER)
    # classical cross-correlation sum_m conj(f_m) g_{m+k}
    full = np.correlate(g.values, np.conj(f.values[::-1]), mode="full") * grid513.step
    z = round(grid513.start / grid513.step)
    idx = np.arange(513) + z + (513 - 1)
    want = full[idx]
    assert np.max(np.abs(got.values - want)) <= 1e-12


def test_delta_sifting(grid513):
    vals = np.zeros(513)
    vals[256] = 1.0 / grid513.step  # unit-mass spike at t = 0
    delta = SampledSignal(grid513, vals)
    g = gaussian(grid513, 0.9, 0.3)
    got = olct_convolve(delta, g, GENERIC_LCT)
    # only the m = center term contributes and its chirp weight is 1
    assert np.max(np.abs(got.values - g.values)) <= 1e-12


def test_zero_operand(grid513):
    f = gaussian(grid513, 0.8)
    zero = SampledSignal(grid513, np.zeros(513))
    assert np.all(olct_convolve(f, zero, GENERIC_LCT).values == 0.0)
    assert np.all(olct_correlate(zero, f, GENERIC_LCT).values == 0.0)


def test_correlate_zero_lag_is_energy(grid513):
    f = gaussian(grid513, 0.8)
    got = olct_correlate(f, f, FOURIER)
    assert abs(got.values[256] - l2_norm(f) ** 2) <= 1e-12


def test_bilinearity(small_grid, rng):
    f1 = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    f2 = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    g = SampledSignal(small_grid, rng.normal(size=65) + 1j * rng.normal(size=65))
    al, be = 1.2 - 0.7j, -0.3 + 0.4j
    combo = SampledSignal(small_grid, al * f1.values + be * f2.values)
    conv = olct_convolve(combo, g, GENERIC_LCT).values
    want = (al * olct_convolve(f1, g, GENERIC_LCT).values
            + be * olct_convolve(f2, g, GENERIC_LCT).values)
    assert np.max(np.abs(conv - want)) <= 1e-12
    # correlation is conjugate linear in its first argument
    corr = olct_correlate(combo, g, GENERIC_LCT).values
    want = (np.conj(al) * olct_correlate(f1, g, GENERIC_LCT).values
            + np.conj(be) * olct_correlate(f2, g, GENERIC_LCT).values)
    assert np.max(np.abs(corr - want)) <= 1e-12


def test_support_growth(grid513):
    f = rect(grid513, 1.0)
    g = rect(grid513, 0.5)
    conv = olct_convolve(f, g, GENERIC_LCT)
    t = grid513.points()
    outside = np.abs(t) > 1.5 + 2 * grid513.step
    assert np.max(np.abs(conv.values[outside])) == 0.0


def test_errors(grid513, grid1025):
    f = gaussian(grid513, 1.0)
    with pytest.raises(GridMismatch):
        olct_convolve(f, gaussian(grid1025, 1.0), GENERIC_LCT)
    with pytest.raises(DegenerateB):
        olct_convolve(f, f, validate((1, 0, 0, 1, 0, 0)))
    # half-integer lattice (even symmetric grid) has no origin sample
    geven = UniformGrid.symmetric(0.05, 512)
    with pytest.raises(LatticeViolation):
        olct_convolve(gaussian(geven, 1.0), gaussian(geven, 1.0), GENERIC_LCT)


@settings(max_examples=25, deadline=None)
@given(valid_params(), st.integers(8, 48), st.integers(-50, 100),
       st.floats(0.05, 0.5), st.integers(0, 2**32 - 1))
def test_fft_operators_match_brute_force(p, n, origin, step, seed):
    # the origin sits ``origin`` samples into the grid, possibly outside it
    grid = UniformGrid(-origin * step, step, n)
    f = SampledSignal(grid, random_complex(seed, n))
    g = SampledSignal(grid, random_complex(seed + 1, n))
    for op, brute in ((olct_convolve, brute_convolve), (olct_correlate, brute_correlate)):
        want = brute(f, g, p)
        got = op(f, g, p).values
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
