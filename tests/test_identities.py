import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import valid_params
from wolct import (
    IdentityCase,
    SampledSignal,
    SuiteConfig,
    UniformGrid,
    check_conjugate_swap,
    check_convolution_theorem,
    check_corollary,
    check_correlation_theorem,
    check_inversion,
    check_modulation,
    check_orthogonality,
    check_parity,
    check_parseval,
    check_round_trip,
    check_shift,
    check_shift_modulation,
    gaussian,
    inner_product,
    l2_norm,
    modulate,
    run_suite,
    select_tf_points,
    suite_report,
    validate,
    wolct,
)
from wolct import identities
from wolct.errors import AsymmetricGrid
from wolct.identities import (
    CONJ_SWAP_VALIDATED_TEXT,
    SHIFT_MOD_VALIDATED_TEXT,
    T1_VALIDATED_TEXT,
    T2_VALIDATED_TEXT,
    TOLERANCES,
    _modulation_factor,
    _shift_factor,
    composed_shift_modulation_factor,
)

FOURIER = validate((0, 1, -1, 0, 0, 0))
GENERIC = validate((2, 3, 1, 2, 1, -1))
THEOREM = validate((2, 3, 1, 2, 0, 0))


@pytest.fixture(scope="module")
def setup513():
    grid = UniformGrid.symmetric(0.05, 513)
    f = gaussian(grid, 1.0)
    phi = gaussian(grid, 0.8)
    points = select_tf_points(f, phi, GENERIC)
    return grid, f, phi, points


# ---------------------------------------------------------------------------
# shift / modulation


def test_shift_zero_is_exact(setup513):
    _, f, phi, points = setup513
    rep = check_shift(f, phi, GENERIC, 0.0, points)
    assert rep.rel_residual <= 1e-14


def test_shift_residual(setup513):
    _, f, phi, points = setup513
    rep = check_shift(f, phi, GENERIC, 0.5, points)
    assert len(points) == 9
    assert rep.passed and rep.rel_residual <= 1e-6


def test_shift_two_resolution_rule():
    # the acceptance refinement rule: residual ratio >= 3 between the two
    # grids, or both already at the floating-point floor
    rels = []
    for n in (513, 1025):
        grid = UniformGrid.symmetric(25.6 / (n - 1), n)
        f = gaussian(grid, 1.0)
        phi = gaussian(grid, 0.8)
        rep = check_shift(f, phi, GENERIC, 0.5)
        rels.append(rep.rel_residual)
    assert rels[0] / max(rels[1], 1e-300) >= 3.0 or max(rels) <= 1e-12


def test_modulation_zero_is_exact(setup513):
    _, f, phi, points = setup513
    rep = check_modulation(f, phi, GENERIC, 0.0, points)
    assert rep.rel_residual <= 1e-14


def test_modulation_residual(setup513):
    _, f, phi, points = setup513
    rep = check_modulation(f, phi, GENERIC, 0.8, points)
    assert rep.passed and rep.rel_residual <= 1e-6


def test_modulation_fourier_case(setup513):
    grid, f, phi, _ = setup513
    points = select_tf_points(f, phi, FOURIER)
    rep = check_modulation(f, phi, FOURIER, 1.0, points)
    assert rep.rel_residual <= 1e-8


def test_argmax_location_tracks_shift(setup513):
    # phase factors cannot move magnitudes: the peak of the shifted map sits
    # at the peak of the original map displaced by (a*t0, t0)
    grid, f, phi, _ = setup513
    from wolct import shift as tshift

    t0 = 0.5
    n0 = grid.steps_of(t0)
    v0 = wolct(f, phi, GENERIC)
    v1 = wolct(tshift(f, n0), phi, GENERIC, v0.ugrid, v0.wgrid)
    i0 = np.unravel_index(np.argmax(np.abs(v0.values)), v0.values.shape)
    i1 = np.unravel_index(np.argmax(np.abs(v1.values)), v1.values.shape)
    u_moved = v1.ugrid.point(int(i1[0])) - v0.ugrid.point(int(i0[0]))
    w_moved = v1.wgrid.point(int(i1[1])) - v0.wgrid.point(int(i0[1]))
    assert abs(u_moved - GENERIC.a * t0) <= v0.ugrid.step
    assert abs(w_moved - t0) <= v0.wgrid.step


# ---------------------------------------------------------------------------
# combined shift + modulation


def test_shift_modulation_trivial(setup513):
    _, f, phi, points = setup513
    rep = check_shift_modulation(f, phi, GENERIC, 0.0, 0.0, points)
    assert rep.rel_residual <= 1e-14
    assert rep.corrected is None


def test_shift_modulation_correction(setup513):
    _, f, phi, points = setup513
    rep = check_shift_modulation(f, phi, GENERIC, 0.5, 0.8, points)
    assert rep.passed and rep.rel_residual <= 1e-6
    assert rep.corrected is not None
    rec = rep.corrected
    assert rec.printed_residual >= 1e3 * rec.validated_residual
    # the printed E is off by the constant phase exp(i*s*t0)
    assert rec.max_phase_deviation == pytest.approx(0.5 * 0.8)


def test_composed_factor_consistency():
    # the corrected E times the shift factor (at u) times the modulation
    # factor (at u - a*t0) must be exactly 1
    u = np.linspace(-4.0, 6.0, 11)
    t0, s = 0.5, 0.8
    e = composed_shift_modulation_factor(GENERIC, t0, s, u)
    comp = _shift_factor(GENERIC, t0, u) * _modulation_factor(GENERIC, s, u - GENERIC.a * t0)
    assert np.max(np.abs(e * comp - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# parity / conjugate swap


def test_parity_fixed_point(setup513):
    grid, f, phi, _ = setup513
    rep = check_parity(f, phi, GENERIC, [(GENERIC.u0, 0.0)])
    assert rep.rel_residual <= 1e-12


def test_parity_residual(setup513):
    _, f, phi, points = setup513
    rep = check_parity(f, phi, GENERIC, points)
    assert rep.passed and rep.rel_residual <= 1e-6


def test_parity_lct_specialization(setup513):
    grid, f, phi, _ = setup513
    p = validate((2, 3, 1, 2, 0, 0))
    points = select_tf_points(f, phi, p)
    rep = check_parity(f, phi, p, points)
    assert rep.rel_residual <= 1e-6


def test_conjugate_swap_at_zero_shift(setup513):
    # every w-dependent factor equals 1 at w = 0
    _, f, phi, _ = setup513
    pts = [(0.4, 0.0), (1.0, 0.0), (1.6, 0.0)]
    rep = check_conjugate_swap(f, phi, GENERIC, pts)
    assert rep.rel_residual <= 1e-12
    assert rep.corrected is None


def test_conjugate_swap_correction(setup513):
    _, f, phi, points = setup513
    rep = check_conjugate_swap(f, phi, GENERIC, points)
    assert rep.passed and rep.rel_residual <= 1e-6
    assert rep.corrected is not None
    rec = rep.corrected
    assert rec.printed_residual >= 1e3 * rec.validated_residual
    assert "u - u0" in rec.validated_factor


# ---------------------------------------------------------------------------
# orthogonality / inversion / Parseval / round trip


def test_orthogonality_orthogonal_signals(setup513):
    grid, f, phi, _ = setup513
    t = grid.points()
    g = SampledSignal(grid, t * np.exp(-(t**2) / 2))
    rep = check_orthogonality(f, g, phi, phi, GENERIC)
    assert rep.abs_residual <= 1e-3 * l2_norm(f) * l2_norm(g) * l2_norm(phi) ** 2


def test_orthogonality_generic(setup513):
    grid, f, phi, _ = setup513
    g = gaussian(grid, 0.7, 0.4)
    psi = gaussian(grid, 1.1, -0.3)
    rep = check_orthogonality(f, g, phi, psi, GENERIC)
    assert rep.passed and rep.rel_residual <= 1e-3
    assert len(rep.notes) == 3  # the three specializations


def test_inversion(setup513):
    grid, f, phi, _ = setup513
    rep = check_inversion(f, phi, phi, GENERIC)
    assert rep.passed and rep.rel_residual <= 1e-3


def test_inversion_with_complex_window_product_keeps_printed_form(setup513):
    grid, f, phi, _ = setup513
    psi = modulate(gaussian(grid, 1.1, -0.3), 0.7)
    assert abs(np.angle(inner_product(psi, phi))) > 0.05
    rep = check_inversion(f, phi, psi, GENERIC)
    assert rep.passed and rep.rel_residual <= 1e-9
    assert rep.corrected is None


def test_inversion_records_the_conjugate_normalization(setup513, monkeypatch):
    # a reconstruction off by conj(ip)/ip is closed by 1/conj(<psi, phi>)
    grid, f, phi, _ = setup513
    psi = modulate(gaussian(grid, 1.1, -0.3), 0.7)
    ip = inner_product(psi, phi)
    exact = identities.reconstruct

    def skewed(*args):
        rec = exact(*args)
        return SampledSignal(rec.grid, rec.values * (np.conj(ip) / ip))

    monkeypatch.setattr(identities, "reconstruct", skewed)
    rep = check_inversion(f, phi, psi, GENERIC)
    assert rep.passed and rep.rel_residual <= 1e-9
    rec = rep.corrected
    assert rec.printed_factor == "1/<psi, phi>"
    assert rec.validated_factor == "1/conj(<psi, phi>)"
    assert rec.printed_residual > 0.1 and rec.validated_residual == rep.rel_residual
    assert rec.max_phase_deviation == pytest.approx(abs(2.0 * np.angle(ip)))


def test_parseval_report(setup513):
    grid, f, phi, _ = setup513
    g = gaussian(grid, 0.7, 0.4)
    rep = check_parseval(f, g, GENERIC)
    assert rep.passed and rep.rel_residual <= 1e-6


def test_round_trip_correction(setup513):
    _, f, _, _ = setup513
    rep = check_round_trip(f, GENERIC)
    assert rep.passed and rep.rel_residual <= 1e-6
    assert rep.corrected is not None
    assert "w0**2" in rep.corrected.validated_factor
    assert rep.corrected.printed_residual >= 1e3 * rep.corrected.validated_residual


def test_round_trip_no_correction_without_offsets(setup513):
    _, f, _, _ = setup513
    rep = check_round_trip(f, THEOREM)
    assert rep.passed
    assert rep.corrected is None


# ---------------------------------------------------------------------------
# convolution / correlation theorems


@pytest.fixture(scope="module")
def quad513():
    grid = UniformGrid.symmetric(0.05, 513)
    return (gaussian(grid, 0.8), gaussian(grid, 0.9, 0.3),
            gaussian(grid, 0.9), gaussian(grid, 1.1, -0.2))


def test_convolution_theorem(quad513):
    f, g, phi, psi = quad513
    rep = check_convolution_theorem(f, g, phi, psi, THEOREM)
    assert len(rep.sample_points) == 5
    assert rep.passed and rep.rel_residual <= 1e-3
    assert rep.corrected is not None  # printed weight sign fails
    assert rep.corrected.printed_residual >= 1e3 * rep.corrected.validated_residual


def test_convolution_theorem_adjudication_at_asymmetric_params(quad513):
    f, g, phi, psi = quad513
    p = validate((1, 2, 1, 3, 0.5, -0.4))
    rep = check_convolution_theorem(f, g, phi, psi, p)
    assert rep.passed
    assert rep.corrected is not None
    assert "d/(2*b)" in rep.corrected.validated_factor
    assert "-i*(a/(2*b))*m" in rep.corrected.validated_factor


def test_convolution_theorem_zero_signal(quad513):
    f, g, phi, psi = quad513
    zero = SampledSignal(f.grid, np.zeros(f.grid.count))
    rep = check_convolution_theorem(zero, g, phi, psi, THEOREM,
                                    points=[(0.5, 0.0), (1.0, 0.5)])
    assert np.all(rep.lhs == 0.0) and np.all(rep.rhs == 0.0)
    assert rep.passed


def test_correlation_theorem(quad513):
    f, g, phi, psi = quad513
    rep = check_correlation_theorem(f, g, phi, psi, THEOREM)
    assert rep.passed and rep.rel_residual <= 1e-3
    assert rep.corrected is not None  # printed (u^2 + u^2) term fails
    assert rep.corrected.printed_residual >= 1e3 * rep.corrected.validated_residual


def test_correlation_theorem_needs_a_symmetric_grid():
    h = 0.05
    f = gaussian(UniformGrid(-10 * h, h, 31), 0.8)
    with pytest.raises(AsymmetricGrid):
        check_correlation_theorem(f, f, f, f, THEOREM)


def test_correlation_theorem_adjudication_at_asymmetric_params(quad513):
    f, g, phi, psi = quad513
    p = validate((1, 2, 1, 3, 0.5, -0.4))
    rep = check_correlation_theorem(f, g, phi, psi, p)
    assert rep.passed
    assert rep.corrected is not None
    assert "d/(2*b)" in rep.corrected.validated_factor
    assert "u0**2" in rep.corrected.validated_factor


@pytest.mark.parametrize("which", [1, 2, 3])
def test_corollary_bitwise_matches_theorem(quad513, which):
    # each corollary is its theorem's checker at the specialized parameters
    f, g, phi, psi = quad513
    p = THEOREM if which == 1 else FOURIER
    check = check_correlation_theorem if which == 3 else check_convolution_theorem
    pts = check(f, g, phi, psi, p).sample_points
    rep_thm = check(f, g, phi, psi, p, pts)
    rep_cor = check_corollary(which, f, g, phi, psi, THEOREM, pts)
    assert np.array_equal(rep_thm.lhs, rep_cor.lhs)
    assert np.array_equal(rep_thm.rhs, rep_cor.rhs)


def test_corollary2_and_3(quad513):
    f, g, phi, psi = quad513
    for which in (2, 3):
        rep = check_corollary(which, f, g, phi, psi)
        assert rep.passed and rep.rel_residual <= 1e-3
        assert any("w0" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# the identities and theorems over random parameters

GRID513 = UniformGrid.symmetric(0.05, 513)
ADJUDICATED_TEXT = {IdentityCase.SHIFT_MODULATION: SHIFT_MOD_VALIDATED_TEXT,
                    IdentityCase.CONJUGATE_SWAP: CONJ_SWAP_VALIDATED_TEXT}
widths = st.floats(0.6, 1.4)


@settings(max_examples=25, deadline=None)
@given(valid_params(), widths, widths, widths, st.integers(-20, 20), st.floats(-1.5, 1.5))
def test_pointwise_identities_hold_for_any_parameters(p, sf, sphi, spsi, n0, s):
    f, phi = gaussian(GRID513, sf), gaussian(GRID513, sphi)
    t0 = n0 * GRID513.step
    points = select_tf_points(f, phi, p)
    reports = [
        check_shift(f, phi, p, t0, points),
        check_modulation(f, phi, p, s, points),
        check_shift_modulation(f, phi, p, t0, s, points),
        check_parity(f, phi, p, points),
        check_conjugate_swap(f, phi, p, points),
    ]
    for rep in reports:
        assert rep.rel_residual <= TOLERANCES[rep.case], (rep.case, rep.rel_residual)
        if rep.corrected is not None:
            assert rep.corrected.validated_factor == ADJUDICATED_TEXT[rep.case]
    psi = modulate(gaussian(GRID513, spsi, -0.3), s)
    rep = check_inversion(f, phi, psi, p)
    assert rep.passed and rep.corrected is None, rep.rel_residual


@settings(max_examples=10, deadline=None)
@given(valid_params().filter(lambda p: abs(p.a - p.d) >= 0.1))
def test_theorems_hold_for_any_parameters(quad513, p):
    # a != d separates every candidate factor, so the printed forms fail and
    # the adjudication must choose the validated ones
    for check, text in ((check_convolution_theorem, T1_VALIDATED_TEXT),
                        (check_correlation_theorem, T2_VALIDATED_TEXT)):
        rep = check(*quad513, p)
        assert rep.rel_residual <= TOLERANCES[rep.case], (rep.case, rep.rel_residual)
        assert rep.corrected.validated_factor == text


# ---------------------------------------------------------------------------
# suite

SUITE_CONFIG = SuiteConfig(coarse=257, fine=513)

#: the cases whose printed factor the suite replaces at its default parameters
CORRECTED = {IdentityCase.SHIFT_MODULATION, IdentityCase.CONJUGATE_SWAP,
             IdentityCase.CONVOLUTION_THM, IdentityCase.CORRELATION_THM,
             IdentityCase.COROLLARY1, IdentityCase.ROUND_TRIP_OLCT}


@pytest.fixture(scope="module")
def suite_reports():
    """One suite run shared by the tests that only read its reports."""
    return run_suite(SUITE_CONFIG)


def test_run_suite_default(suite_reports):
    reports = suite_reports
    assert len(reports) == 14
    cases = [r.case for r in reports]
    assert len(set(cases)) == 14
    for r in reports:
        assert np.isfinite(r.rel_residual)
        assert np.isfinite(r.convergence_order)
        assert r.passed, f"{r.case}: {r.rel_residual} {r.notes}"
    assert {r.case for r in reports if r.corrected is not None} == CORRECTED
    by_case = {r.case: r for r in reports}
    # the theorems run with offsets, where every candidate separates, and
    # corollary 1 (offsets zeroed) validates the same factor as T1
    assert all(suite_report(reports, SUITE_CONFIG)["theorem_params"][4:])
    assert (by_case[IdentityCase.COROLLARY1].corrected.validated_factor
            == by_case[IdentityCase.CONVOLUTION_THM].corrected.validated_factor)


def test_suite_determinism(suite_reports):
    j1 = json.dumps(suite_report(suite_reports, SUITE_CONFIG))
    j2 = json.dumps(suite_report(run_suite(SUITE_CONFIG), SUITE_CONFIG))
    assert j1 == j2


def test_correction_soundness(suite_reports):
    for r in suite_reports:
        if r.corrected is not None:
            assert r.corrected.printed_residual >= 1e3 * r.corrected.validated_residual


def test_suite_reports_a_failing_case_and_runs_the_rest(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("checker broke")

    monkeypatch.setattr(identities, "check_parity", broken)
    reports = run_suite(SUITE_CONFIG)
    assert [r.case for r in reports] == identities.CASE_ORDER
    for r in reports:
        if r.case is IdentityCase.PARITY:
            assert r.rel_residual == -1 and not r.passed
            assert r.notes == ["case failed: RuntimeError: checker broke"]
        else:
            assert r.passed, f"{r.case}: {r.rel_residual} {r.notes}"
