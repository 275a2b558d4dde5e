"""The chirp-FFT paths against their direct-quadrature oracles.

Every routed function must agree with the O(N*M) sum it replaces to within
1e-9 of the oracle's largest magnitude, for either sign of b, either count
parity and grids that need not be symmetric.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, uniform_grids, valid_params
from wolct import (
    SampledSignal,
    TFMap,
    UniformGrid,
    default_wgrid,
    gaussian,
    inner_product,
    inverse_phase_prefactor,
    invert,
    iolct,
    kernel,
    olct_direct,
    olct_fast,
    olct_values,
    reconstruct,
    validate,
    wolct,
    wolct_at,
)
from wolct import olct
from wolct.olct import OlctSpectrum

seeds = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def free_grids(draw, max_count=48):
    """Output grids whose start and step are unrelated to any input grid."""
    return UniformGrid(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 0.5)),
                       draw(st.integers(8, max_count)))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@PROPERTY
@given(valid_params(), uniform_grids(), seeds)
def test_fast_matches_direct_on_any_grid(p, grid, seed):
    f = SampledSignal(grid, random_complex(seed, grid.count))
    fast = olct_fast(f, p)
    direct = olct_direct(f, p)
    assert fast.grid == direct.grid
    assert_close(fast.values, direct.values)


@PROPERTY
@given(valid_params(), uniform_grids(), free_grids(), st.integers(2, 16), seeds)
def test_map_matches_pointwise_oracle(p, grid, ugrid, stride, seed):
    f = SampledSignal(grid, random_complex(seed, grid.count))
    phi = gaussian(grid, 1.0, grid.start + 0.5 * (grid.stop - grid.start))
    vmap = wolct(f, phi, p, ugrid, default_wgrid(grid, stride))
    u, w = np.meshgrid(vmap.ugrid.points(), vmap.wgrid.points(), indexing="ij")
    want = wolct_at(f, phi, p, u.ravel(), w.ravel()).reshape(u.shape)
    assert_close(vmap.values, want)


@pytest.mark.filterwarnings("ignore::wolct.TruncationWarning")
@PROPERTY
@given(valid_params(), free_grids(max_count=257), uniform_grids(), seeds)
def test_iolct_matches_quadrature_on_explicit_grid(p, ugrid, tgrid, seed):
    spec = OlctSpectrum(ugrid, random_complex(seed, ugrid.count))
    got = iolct(spec, p, tgrid)
    want = inverse_phase_prefactor(p) * olct_values(spec, invert(p), tgrid.points())
    assert got.grid == tgrid
    assert_close(got.values, want)


@pytest.mark.filterwarnings("ignore::wolct.TruncationWarning")
@PROPERTY
@given(valid_params(), uniform_grids(), seeds)
def test_iolct_matches_quadrature_on_default_even_grid(p, grid, seed):
    grid = UniformGrid(grid.start, grid.step, 2 * (grid.count // 2))
    spec = OlctSpectrum(grid, random_complex(seed, grid.count))
    got = iolct(spec, p)
    assert got.grid.count == grid.count and got.grid.is_symmetric()
    want = inverse_phase_prefactor(p) * olct_values(spec, invert(p), got.grid.points())
    assert_close(got.values, want)


@PROPERTY
@given(valid_params(), uniform_grids(max_count=129), free_grids(),
       st.integers(2, 16), seeds)
def test_reconstruct_matches_map_free_formula(p, tgrid, ugrid, stride, seed):
    wgrid = default_wgrid(tgrid, stride)
    vmap = TFMap(ugrid, wgrid, random_complex(seed, ugrid.count * wgrid.count)
                 .reshape(ugrid.count, wgrid.count))
    mid = tgrid.start + 0.5 * (tgrid.stop - tgrid.start)
    phi = gaussian(tgrid, 1.0, mid)
    psi = gaussian(tgrid, 0.7, mid)
    got = reconstruct(vmap, phi, psi, p)

    # f(t) = pref/<psi, phi> * sum_{k,l} V[k,l] K_inv(u_k, t) psi(t - w_l) du dw
    kinv = kernel(invert(p), ugrid.points()[:, None], tgrid.points()[None, :])
    idx = np.arange(tgrid.count)[:, None] - np.array(
        [tgrid.steps_of(w) for w in wgrid.points()])[None, :]
    psimat = np.where((idx >= 0) & (idx < tgrid.count),
                      psi.values[idx % tgrid.count], 0.0)
    want = (inverse_phase_prefactor(p) / inner_product(psi, phi)
            * np.einsum("kl,ki,il->i", vmap.values, kinv, psimat)
            * ugrid.step * wgrid.step)
    assert_close(got.values, want)


def test_map_column_batches_agree(monkeypatch, grid513):
    # 513 points pad to 2048: one block of all 128 columns against blocks of
    # five columns with a short last block
    p = validate((2, 3, 1, 2, 1, -1))
    f = gaussian(grid513, 1.0, 0.4)
    phi = gaussian(grid513, 0.8)
    monkeypatch.setattr(olct, "_BLOCK_ENTRIES", 128 * 2048)
    whole = wolct(f, phi, p)
    monkeypatch.setattr(olct, "_BLOCK_ENTRIES", 5 * 2048)
    assert_close(wolct(f, phi, p).values, whole.values)
