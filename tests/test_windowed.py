import numpy as np
import pytest

from wolct import (
    GridMismatch,
    LatticeViolation,
    NonAdmissiblePair,
    NonFiniteValues,
    SampledSignal,
    TFMap,
    UniformGrid,
    ZeroWindow,
    default_wgrid,
    gaussian,
    inner_product,
    iolct,
    l2_norm,
    olct_direct,
    reconstruct,
    rect,
    tf_inner_product,
    validate,
    windowed_signal,
    wolct,
    wolct_at,
    wolct_slice,
)

FOURIER = validate((0, 1, -1, 0, 0, 0))
GENERIC = validate((2, 3, 1, 2, 1, -1))


def rel_l2(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def ones_window(grid):
    return rect(grid, abs(grid.start) + abs(grid.stop) + 1.0)


def test_unit_window_reduces_to_plain_transform(grid513):
    # shifts small enough that zero fill never clips the signal support
    f = gaussian(grid513, 1.0)
    wgrid = UniformGrid(-4.0, 0.5, 17)
    vmap = wolct(f, ones_window(grid513), GENERIC, wgrid=wgrid)
    spec = olct_direct(f, GENERIC, vmap.ugrid)
    for l in range(vmap.wgrid.count):
        assert np.max(np.abs(vmap.values[:, l] - spec.values)) <= 1e-12


def test_zero_signal_gives_zero_map(grid513):
    zero = SampledSignal(grid513, np.zeros(513))
    vmap = wolct(zero, gaussian(grid513, 1.0), GENERIC)
    assert np.all(vmap.values == 0.0)


def test_zero_window_rejected(grid513):
    f = gaussian(grid513, 1.0)
    with pytest.raises(ZeroWindow):
        wolct(f, SampledSignal(grid513, np.zeros(513)), GENERIC)


def test_grid_mismatch(grid513, grid1025):
    with pytest.raises(GridMismatch):
        wolct(gaussian(grid513, 1.0), gaussian(grid1025, 1.0), GENERIC)


def test_off_lattice_wgrid_rejected(grid513):
    f = gaussian(grid513, 1.0)
    bad = UniformGrid(0.013, 0.05, 8)  # start not a step multiple
    with pytest.raises(LatticeViolation):
        wolct(f, gaussian(grid513, 0.8), GENERIC, wgrid=bad)


def test_fourier_case_matches_windowed_dft_oracle(grid513):
    # |V(u, w)| for the Fourier parameters equals the short-time transform
    # magnitude computed here by a bare windowed Riemann DFT
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 0.8)
    t = grid513.points()
    h = grid513.step
    for u, w in [(0.0, 0.0), (0.7, 0.5), (-1.3, -1.0), (2.0, 1.5)]:
        got = wolct_at(f, phi, FOURIER, [u], [w])[0]
        sh = grid513.steps_of(w)
        win = np.zeros(513, dtype=complex)
        if sh >= 0:
            win[sh:] = phi.values[: 513 - sh]
        else:
            win[:sh] = phi.values[-sh:]
        oracle = np.sum(f.values * np.conj(win) * np.exp(-1j * u * t)) * h
        assert abs(abs(got) - abs(oracle) / np.sqrt(2 * np.pi)) <= 1e-8


def test_slice_matches_map_column(grid513, rng):
    sf = float(rng.uniform(0.6, 1.4))
    sp = float(rng.uniform(0.6, 1.4))
    f = gaussian(grid513, sf, float(rng.uniform(-0.5, 0.5)))
    phi = gaussian(grid513, sp)
    vmap = wolct(f, phi, GENERIC)
    cols = rng.choice(vmap.wgrid.count, size=10, replace=False)
    for l in cols:
        w = vmap.wgrid.point(int(l))
        sl = wolct_slice(f, phi, GENERIC, w, vmap.ugrid)
        assert np.max(np.abs(sl.values - vmap.values[:, int(l)])) <= 1e-12


def test_slice_with_unit_window_at_zero_shift(grid513):
    f = gaussian(grid513, 1.0)
    sl = wolct_slice(f, ones_window(grid513), GENERIC, 0.0)
    spec = olct_direct(f, GENERIC)
    assert np.max(np.abs(sl.values - spec.values)) <= 1e-12


def test_slice_inverts_to_windowed_signal(grid513):
    # applying the inverse transform to a fixed-w slice recovers
    # f(t) * conj(phi(t - w))
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 0.8)
    w = 0.5
    sl = wolct_slice(f, phi, GENERIC, w)
    rec = iolct(sl, GENERIC, grid513)
    want = windowed_signal(f, phi, w)
    assert rel_l2(rec.values, want.values) <= 1e-6


def test_map_linearity(grid513, rng):
    f = gaussian(grid513, 1.0)
    g = gaussian(grid513, 0.7, 0.4)
    phi = gaussian(grid513, 0.8)
    al, be = 0.9 - 0.4j, -0.2 + 0.8j
    combo = SampledSignal(grid513, al * f.values + be * g.values)
    vc = wolct(combo, phi, GENERIC)
    vf = wolct(f, phi, GENERIC)
    vg = wolct(g, phi, GENERIC)
    assert rel_l2(vc.values, al * vf.values + be * vg.values) <= 1e-13


def test_reconstruct_self_window(grid513):
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 1.0)
    rec = reconstruct(wolct(f, phi, GENERIC), phi, phi, GENERIC)
    assert rel_l2(rec.values, f.values) <= 1e-3


def test_reconstruct_shifted_signal(grid513):
    f = gaussian(grid513, 1.0, 2.0)
    phi = gaussian(grid513, 1.0)
    rec = reconstruct(wolct(f, phi, GENERIC), phi, phi, GENERIC)
    assert rel_l2(rec.values, f.values) <= 1e-3


def test_reconstruct_distinct_windows(grid513):
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 1.0)
    psi = gaussian(grid513, 0.8, 0.2)
    rec = reconstruct(wolct(f, phi, GENERIC), phi, psi, GENERIC)
    assert rel_l2(rec.values, f.values) <= 1e-3


def test_reconstruct_zero_map(grid513):
    phi = gaussian(grid513, 1.0)
    vmap = wolct(gaussian(grid513, 1.0), phi, GENERIC)
    zero = TFMap(vmap.ugrid, vmap.wgrid, np.zeros_like(vmap.values))
    rec = reconstruct(zero, phi, phi, GENERIC)
    assert np.all(rec.values == 0.0)


def test_reconstruct_rejects_orthogonal_windows(grid513):
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 1.0)
    t = grid513.points()
    psi = SampledSignal(grid513, t * np.exp(-(t**2) / 2))  # odd: <psi, phi> = 0
    vmap = wolct(f, phi, GENERIC)
    with pytest.raises(NonAdmissiblePair):
        reconstruct(vmap, phi, psi, GENERIC)


def test_tf_inner_product_energy(grid513):
    f = gaussian(grid513, 1.0)
    phi = gaussian(grid513, 1.0)
    vmap = wolct(f, phi, GENERIC)
    got = tf_inner_product(vmap, vmap)
    want = l2_norm(f) ** 2 * l2_norm(phi) ** 2
    assert abs(got - want) <= 1e-3 * want
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_tf_inner_product_basics(grid513):
    f = gaussian(grid513, 1.0)
    g = gaussian(grid513, 0.7, 0.3)
    phi = gaussian(grid513, 0.9)
    v1 = wolct(f, phi, GENERIC)
    v2 = wolct(g, phi, GENERIC, v1.ugrid, v1.wgrid)
    zero = TFMap(v1.ugrid, v1.wgrid, np.zeros_like(v1.values))
    assert tf_inner_product(v1, zero) == 0.0
    assert tf_inner_product(v1, v2) == pytest.approx(np.conj(tf_inner_product(v2, v1)))
    with pytest.raises(GridMismatch):
        tf_inner_product(v1, TFMap(v1.ugrid, default_wgrid(grid513, 8),
                                   np.zeros((v1.ugrid.count, 64))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_tfmap_rejects_non_finite(bad):
    grid = UniformGrid.symmetric(0.25, 3)
    vals = np.zeros((3, 3), dtype=np.complex128)
    vals[1, 2] = bad
    with pytest.raises(NonFiniteValues):
        TFMap(grid, grid, vals)
    with pytest.raises(ValueError, match="shape"):
        TFMap(grid, grid, np.zeros((3, 4)))


def test_energy_residual_improves_or_floors():
    rels = []
    for n in (257, 513):
        grid = UniformGrid.symmetric(25.6 / (n - 1), n)
        f = gaussian(grid, 1.0)
        phi = gaussian(grid, 1.0)
        got = tf_inner_product(wolct(f, phi, GENERIC), wolct(f, phi, GENERIC))
        want = l2_norm(f) ** 2 * l2_norm(phi) ** 2
        rels.append(abs(got - want) / want)
    assert rels[1] <= max(rels[0], 1e-9)
