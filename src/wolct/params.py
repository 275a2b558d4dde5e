"""Parameter algebra for the transform's six-tuple (a, b, c, d, u0, w0).

The four matrix entries must satisfy a*d - b*c = 1; u0 and w0 are the time
and frequency offsets.  Everything here is pure value arithmetic: validation,
inversion and the inverse-transform phase prefactor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DeterminantViolation

#: tolerance on |ad - bc - 1|; loose enough for hand-entered decimals
DET_TOL = 1e-9

#: below this |b| the oscillatory kernel 1/sqrt(i*2*pi*b) is meaningless
#: and the scaling branch of the transform applies instead
EPS_B = 1e-12


@dataclass(frozen=True)
class OlctParams:
    """Validated parameter six-tuple.

    Construction raises :class:`DeterminantViolation` unless
    |a*d - b*c - 1| <= DET_TOL.  The actual determinant residual is kept
    for diagnostics.
    """

    a: float
    b: float
    c: float
    d: float
    u0: float = 0.0
    w0: float = 0.0
    det_residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "u0", "w0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        residual = abs(self.a * self.d - self.b * self.c - 1.0)
        if residual > DET_TOL:
            raise DeterminantViolation(
                f"ad - bc = {self.a * self.d - self.b * self.c!r}; "
                f"residual {residual:.3e} exceeds {DET_TOL:.1e}"
            )
        object.__setattr__(self, "det_residual", residual)

    @property
    def is_b_zero(self) -> bool:
        """True when the b = 0 (time-scaling chirp) branch applies."""
        return abs(self.b) <= EPS_B

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.u0, self.w0)


def validate(raw: Sequence[float]) -> OlctParams:
    """Check a raw six-tuple and return validated parameters.

    Raises :class:`DeterminantViolation` when ad - bc strays from 1 by
    more than DET_TOL.
    """
    vals = tuple(float(x) for x in raw)
    if len(vals) != 6:
        raise ValueError(f"expected six parameters, got {len(vals)}")
    return OlctParams(*vals)


def invert(p: OlctParams) -> OlctParams:
    """Parameters of the inverse transform.

    (a, b, c, d, u0, w0) -> (d, -b, -c, a, b*w0 - d*u0, c*u0 - a*w0).
    The result satisfies the unimodularity constraint whenever the input
    does, so construction cannot fail.
    """
    return OlctParams(
        p.d,
        -p.b,
        -p.c,
        p.a,
        p.b * p.w0 - p.d * p.u0,
        p.c * p.u0 - p.a * p.w0,
    )


#: textual forms of the two inverse-prefactor exponent candidates, used by
#: the verification engine when it records which one survived round-trip
PREFACTOR_PRINTED_TEXT = "exp(i*((c*d/2)*u0**2 - a*d*u0*w0 + (a*b/2)*w0))"
PREFACTOR_VALIDATED_TEXT = "exp(i*((c*d/2)*u0**2 - a*d*u0*w0 + (a*b/2)*w0**2))"


def inverse_phase_exponent(p: OlctParams, variant: str = "validated") -> float:
    """Exponent of the unimodular prefactor in the inverse transform.

    Two candidates exist for the last term: ``(a*b/2)*w0`` ("printed") and
    the dimensionally consistent ``(a*b/2)*w0**2`` ("validated").  Round-trip
    reconstruction selects the validated one; both stay available so the
    verification engine can record the discrepancy.
    """
    base = (p.c * p.d / 2.0) * p.u0**2 - p.a * p.d * p.u0 * p.w0
    if variant == "printed":
        return base + (p.a * p.b / 2.0) * p.w0
    if variant == "validated":
        return base + (p.a * p.b / 2.0) * p.w0**2
    raise ValueError(f"unknown prefactor variant {variant!r}")


def inverse_phase_prefactor(p: OlctParams, variant: str = "validated") -> complex:
    """Unimodular prefactor multiplying the inverse-transform integral."""
    return cmath.exp(1j * inverse_phase_exponent(p, variant))
