import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wolct import (
    AsymmetricGrid,
    GridMismatch,
    InvalidShapeParam,
    LatticeViolation,
    SampledSignal,
    ShiftOutOfRange,
    UniformGrid,
    chirp,
    conj_signal,
    gaussian,
    generate,
    inner_product,
    l2_norm,
    modulate,
    parity,
    rect,
    shift,
    validate,
)
from wolct.signals import _shifted_columns
from wolct.windowed import windowed_signal, wolct_at


def test_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        UniformGrid(0.0, -0.1, 8)
    with pytest.raises(ValueError):
        UniformGrid(0.0, 0.1, 1)


def test_grid_points():
    g = UniformGrid(-1.0, 0.5, 5)
    assert np.allclose(g.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.point(3) == 0.5
    assert g.stop == 1.0


def test_grid_symmetric_constructor():
    g = UniformGrid.symmetric(0.5, 5)
    assert g.is_symmetric()
    assert g.start == -1.0
    assert g.origin_on_lattice()
    # even count: symmetric but no origin sample
    g2 = UniformGrid.symmetric(0.5, 4)
    assert g2.is_symmetric()
    assert not g2.origin_on_lattice()


def test_grid_steps_of():
    g = UniformGrid.symmetric(0.05, 513)
    assert g.steps_of(0.5) == 10
    assert g.steps_of(-0.25) == -5
    with pytest.raises(LatticeViolation, match="0.512"):
        g.steps_of(0.512)
    steps = g.steps_of(np.array([0.5, -0.25, 0.0]))
    assert steps.dtype == np.int64
    assert steps.tolist() == [10, -5, 0]
    with pytest.raises(LatticeViolation, match="0.512"):
        g.steps_of(np.array([0.5, 0.512, -0.25]))


def test_signal_shape_and_finiteness():
    g = UniformGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledSignal(g, np.zeros(3))
    with pytest.raises(ValueError):
        SampledSignal(g, [0.0, np.nan, 0.0, 0.0])
    sig = SampledSignal(g, np.arange(4))
    with pytest.raises(ValueError):
        sig.values[0] = 1.0  # read-only storage


def test_gaussian_at_origin():
    g = UniformGrid(-2.0, 1.0, 5)  # contains t = 0
    f = gaussian(g, 1.0)
    assert f.values[2] == 1.0


def test_rect_outside_support():
    g = UniformGrid(0.0, 1.0, 4)  # t = 0, 1, 2, 3
    f = rect(g, 1.0)
    assert f.values[2] == 0.0
    assert f.values[1] == 1.0  # boundary inclusive


def test_chirp_value():
    g = UniformGrid(0.0, 1.0, 4)
    f = chirp(g, 1.0, 0.0)
    assert f.values[2] == pytest.approx(np.exp(2j))


def test_generate_dispatch_and_errors():
    g = UniformGrid(-2.0, 1.0, 5)
    assert np.allclose(generate("gaussian", g, sigma=1.0).values,
                       gaussian(g, 1.0).values)
    with pytest.raises(InvalidShapeParam):
        gaussian(g, -1.0)
    with pytest.raises(InvalidShapeParam):
        rect(g, 0.0)
    with pytest.raises(ValueError):
        generate("sawtooth", g)


@pytest.mark.parametrize("sigma", [1e300, 1e-300, math.inf, math.nan])
def test_gaussian_rejects_sigma_whose_variance_overflows_or_underflows(sigma):
    with pytest.raises(InvalidShapeParam, match="sigma"):
        gaussian(UniformGrid(-2.0, 1.0, 5), sigma)


def test_inner_product_gaussian_closed_form():
    # f(t) = exp(-t^2/2): <f, f> = integral of exp(-t^2) = sqrt(pi)
    g = UniformGrid(-12.0, 24.0 / 2047, 2048)
    f = gaussian(g, 1.0)
    assert abs(inner_product(f, f) - math.sqrt(math.pi)) < 1e-10


def test_inner_product_zero_and_symmetry(rng):
    g = UniformGrid.symmetric(0.1, 257)
    f = SampledSignal(g, rng.normal(size=257) + 1j * rng.normal(size=257))
    z = SampledSignal(g, np.zeros(257))
    assert inner_product(f, z) == 0.0
    h = SampledSignal(g, rng.normal(size=257) + 1j * rng.normal(size=257))
    assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)))


def test_inner_product_grid_mismatch():
    f = gaussian(UniformGrid.symmetric(0.1, 129), 1.0)
    g = gaussian(UniformGrid.symmetric(0.1, 257), 1.0)
    with pytest.raises(GridMismatch):
        inner_product(f, g)


def test_inner_product_sesquilinear(rng):
    g = UniformGrid.symmetric(0.1, 129)
    f1 = SampledSignal(g, rng.normal(size=129) + 1j * rng.normal(size=129))
    f2 = SampledSignal(g, rng.normal(size=129) + 1j * rng.normal(size=129))
    h = SampledSignal(g, rng.normal(size=129) + 1j * rng.normal(size=129))
    al, be = 0.7 - 0.2j, -1.1 + 0.5j
    combo = SampledSignal(g, al * f1.values + be * f2.values)
    want = al * inner_product(f1, h) + be * inner_product(f2, h)
    assert inner_product(combo, h) == pytest.approx(want, rel=1e-13)


def test_l2_norm_values():
    g = UniformGrid(-12.0, 24.0 / 2047, 2048)
    assert l2_norm(SampledSignal(g, np.zeros(2048))) == 0.0
    f = gaussian(g, 1.0)
    assert abs(l2_norm(f) - math.pi ** 0.25) < 1e-10
    assert l2_norm(SampledSignal(g, f.values * np.exp(0.7j))) == pytest.approx(
        l2_norm(f), rel=1e-14
    )


def test_quadrature_error_at_most_quadratic():
    # fixed span [-12, 12] >= 8 sigma; error vs the closed form stays under
    # a step^2 envelope while refining
    exact = math.sqrt(math.pi)
    for n in (128, 256, 512):
        g = UniformGrid(-12.0, 24.0 / (n - 1), n)
        err = abs(inner_product(gaussian(g, 1.0), gaussian(g, 1.0)) - exact)
        assert err <= 0.5 * g.step**2


def test_shift_basics(grid513):
    f = gaussian(grid513, 1.0)
    assert np.array_equal(shift(f, 0).values, f.values)
    with pytest.raises(ShiftOutOfRange):
        shift(f, 513)


def test_shift_moves_rect_support(grid513):
    f = rect(grid513, 1.0)
    moved = shift(f, grid513.steps_of(3.0))
    t = grid513.points()
    inside = np.abs(t - 3.0) <= 1.0
    assert np.all(moved.values[inside] == 1.0)
    assert np.all(moved.values[~inside] == 0.0)


def test_shift_round_trip_zero_fill(grid513):
    f = gaussian(grid513, 1.0)
    k = 40
    back = shift(shift(f, k), -k)
    # overlap region must match exactly; the first k entries were zero-filled
    assert np.array_equal(back.values[: 513 - k], f.values[: 513 - k])
    assert np.all(back.values[513 - k :] == 0.0)


@st.composite
def shifted_lattices(draw):
    """N of either parity from 2 up, complex values, steps in [-2N, 2N]."""
    n = draw(st.integers(2, 24))
    parts = st.floats(-1e3, 1e3, allow_subnormal=True)
    values = np.array([complex(draw(parts), draw(parts)) for _ in range(n)])
    steps = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=1, max_size=12))
    return values, np.array(steps, dtype=np.int64)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(shifted_lattices())
@example((np.array([1 + 2j, -0.0 - 3j]), np.arange(-4, 5)))
@example((np.array([1 + 2j, 3 - 1j, -5j]), np.arange(-6, 7)))
def test_lattice_shift_matches_definition(case):
    values, steps = case
    n = values.shape[0]
    cols = _shifted_columns(values, steps)
    assert cols.shape == (n, steps.shape[0]) and cols.flags.c_contiguous
    f = SampledSignal(UniformGrid.symmetric(0.5, n), values)
    for col, s in zip(cols.T, steps.tolist()):
        want = np.array([values[j - s] if 0 <= j - s < n else 0j for j in range(n)])
        assert col.tobytes() == want.tobytes()
        if abs(s) < n:
            assert shift(f, s).values.tobytes() == want.tobytes()
        else:
            with pytest.raises(ShiftOutOfRange):
                shift(f, s)
            # a window shifted off the grid leaves nothing of the signal
            box = SampledSignal(f.grid, np.ones(n))
            assert np.all(windowed_signal(f, box, s * f.grid.step).values == 0)
    # w = +-1e30: step counts past the int64 range clip to +-2**62, off the grid
    box = SampledSignal(f.grid, np.ones(n))
    far = np.array([1e30, -1e30])
    assert f.grid.steps_of(far).tolist() == [2**62, -(2**62)]
    assert not np.any(wolct_at(f, box, validate((2, 3, 1, 2, 1, -1)), [0.0, 0.0], far))
    assert not any(np.any(windowed_signal(f, box, w).values) for w in far)


def test_modulate(grid513, rng):
    f = gaussian(grid513, 1.0)
    assert np.array_equal(modulate(f, 0.0).values, f.values)
    m = modulate(f, 1.3)
    assert np.allclose(np.abs(m.values), np.abs(f.values), atol=1e-15)
    twice = modulate(modulate(f, 0.4), 0.9)
    assert np.allclose(twice.values, modulate(f, 1.3).values, atol=1e-12)


def test_parity(grid513):
    f = gaussian(grid513, 1.0)
    assert np.allclose(parity(f).values, f.values, atol=1e-15)
    g = gaussian(grid513, 1.0, 2.0)
    assert np.array_equal(parity(parity(g)).values, g.values)
    # reflecting a center-2 gaussian regenerates the center -2 gaussian
    assert np.max(np.abs(parity(g).values - gaussian(grid513, 1.0, -2.0).values)) <= 1e-15


def test_parity_requires_symmetric_grid():
    f = gaussian(UniformGrid(0.0, 0.1, 64), 1.0)
    with pytest.raises(AsymmetricGrid):
        parity(f)


def test_conj_signal(grid513, rng):
    f = gaussian(grid513, 1.0)
    assert np.array_equal(conj_signal(f).values, f.values)  # real signal
    z = SampledSignal(grid513, rng.normal(size=513) + 1j * rng.normal(size=513))
    assert np.array_equal(conj_signal(conj_signal(z)).values, z.values)
    w = SampledSignal(grid513, rng.normal(size=513) + 1j * rng.normal(size=513))
    assert inner_product(conj_signal(z), conj_signal(w)) == pytest.approx(
        np.conj(inner_product(z, w))
    )


def test_unitary_ops_preserve_norm(grid513):
    f = gaussian(grid513, 1.0)
    n0 = l2_norm(f)
    assert abs(l2_norm(shift(f, 20)) - n0) <= 1e-12 * n0
    assert abs(l2_norm(modulate(f, 2.2)) - n0) <= 1e-12 * n0
    assert abs(l2_norm(parity(f)) - n0) <= 1e-12 * n0
    assert abs(l2_norm(conj_signal(f)) - n0) <= 1e-12 * n0
