import cmath

import numpy as np
import pytest

from conftest import random_valid_params
from wolct import (
    DeterminantViolation,
    inverse_phase_exponent,
    inverse_phase_prefactor,
    invert,
    validate,
)


def test_validate_fourier():
    p = validate((0, 1, -1, 0, 0, 0))
    assert p.det_residual == 0.0


def test_validate_identity_matrix_is_b_zero():
    p = validate((1, 0, 0, 1, 0, 0))
    assert p.is_b_zero


def test_validate_rejects_singular_matrix():
    with pytest.raises(DeterminantViolation):
        validate((1, 1, 1, 1, 0, 0))


def test_validate_wants_six_values():
    with pytest.raises(ValueError):
        validate((1, 0, 0))


def test_invert_fourier():
    p = invert(validate((0, 1, -1, 0, 0, 0)))
    assert p.as_tuple() == (0, -1, 1, 0, 0, 0)


def test_invert_with_offsets():
    # b*w0 - d*u0 = 3*(-1) - 2*1 = -5, c*u0 - a*w0 = 1*1 - 2*(-1) = 3
    p = invert(validate((2, 3, 1, 2, 1, -1)))
    assert p.as_tuple() == (2, -3, -1, 2, -5, 3)


def test_invert_is_involution(rng):
    for p in random_valid_params(rng, 100, min_abs_b=0.0):
        q = invert(invert(p))
        assert np.allclose(q.as_tuple(), p.as_tuple(), rtol=0, atol=1e-12)


def test_invert_preserves_unimodularity(rng):
    for p in random_valid_params(rng, 50):
        assert invert(p).det_residual <= 1e-9


def test_prefactor_trivial_cases():
    assert inverse_phase_prefactor(validate((2, 3, 1, 2, 0, 0))) == 1.0
    assert inverse_phase_prefactor(validate((0, 1, -1, 0, 0, 0))) == 1.0


def test_prefactor_printed_and_validated_exponents():
    p = validate((2, 3, 1, 2, 1, -1))
    # printed: cd/2*u0^2 - a*d*u0*w0 + a*b/2*w0 = 1 + 4 - 3 = 2
    assert inverse_phase_exponent(p, "printed") == pytest.approx(2.0)
    assert inverse_phase_prefactor(p, "printed") == pytest.approx(cmath.exp(2j))
    # validated replaces the last term by a*b/2*w0^2 = +3
    assert inverse_phase_exponent(p, "validated") == pytest.approx(8.0)
    assert inverse_phase_prefactor(p) == pytest.approx(cmath.exp(8j))


def test_prefactor_is_unimodular(rng):
    for p in random_valid_params(rng, 20):
        for variant in ("printed", "validated"):
            assert abs(abs(inverse_phase_prefactor(p, variant)) - 1) < 1e-12


def test_prefactor_unknown_variant():
    with pytest.raises(ValueError):
        inverse_phase_exponent(validate((0, 1, -1, 0, 0, 0)), "guess")


def test_invert_fourier_keeps_nonzero_b():
    assert not invert(validate((0, 1, -1, 0, 0, 0))).is_b_zero


def test_params_frozen():
    p = validate((0, 1, -1, 0, 0, 0))
    with pytest.raises(AttributeError):
        p.a = 5.0


def test_params_accepts_near_unimodular():
    validate((1.0, 0.5, 1e-10, 1.0, 0, 0))
    with pytest.raises(DeterminantViolation):
        validate((1.0, 0.5, 1e-8, 1.0 + 1e-8, 0, 0))
