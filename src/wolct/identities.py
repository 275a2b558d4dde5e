"""Numerical verification engine for the transform identities.

Every stated property and theorem is evaluated as an LHS/RHS pair built
from independent code paths (the LHS of the convolution theorem, for
instance, goes through the FFT chirp convolution plus a direct windowed
quadrature, while the RHS integrates products of time-frequency maps).
Residuals are reported per identity together with a convergence order
estimated from two grid resolutions.

Several printed unimodular factors are suspect.  For those, the engine runs
a correction protocol: it evaluates the printed form alongside a small
candidate set of dimensionally consistent alternatives, measures the
pointwise ratio of the two sides where the magnitude is meaningful, and
records which candidate actually closes the identity.  Corrections are
never applied silently; every adjudication lands in a
:class:`CorrectionRecord`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .chirpops import olct_convolve, olct_correlate
from .errors import AsymmetricGrid
from .olct import iolct, olct_direct, olct_fast
from .params import (
    OlctParams,
    PREFACTOR_PRINTED_TEXT,
    PREFACTOR_VALIDATED_TEXT,
    inverse_phase_exponent,
    validate,
)
from .signals import (
    SampledSignal,
    UniformGrid,
    conj_signal,
    gaussian,
    inner_product,
    l2_norm,
    modulate,
    parity,
    shift,
)
from .windowed import TFMap, default_wgrid, reconstruct, tf_inner_product, wolct, wolct_at

#: residuals at or below this are treated as floating-point noise when
#: estimating convergence orders
NOISE_FLOOR = 1e-12

#: relative magnitude below which points are excluded from ratio analysis
RATIO_MASK = 1e-6


class IdentityCase(Enum):
    SHIFT = "Shift(P2)"
    MODULATION = "Modulation(P3)"
    SHIFT_MODULATION = "ShiftModulation(P4)"
    INVERSION = "Inversion(P5)"
    ORTHOGONALITY = "Orthogonality(P6)"
    PARITY = "Parity(P7)"
    CONJUGATE_SWAP = "ConjugateSwap(P8)"
    CONVOLUTION_THM = "ConvolutionThm(T1)"
    CORRELATION_THM = "CorrelationThm(T2)"
    COROLLARY1 = "Corollary1"
    COROLLARY2 = "Corollary2"
    COROLLARY3 = "Corollary3"
    PARSEVAL_OLCT = "ParsevalOLCT"
    ROUND_TRIP_OLCT = "RoundTripOLCT"


#: per-case pass tolerance on the relative residual: 1e-6 for pointwise 1D
#: checks, 1e-3 for checks that integrate over the time-frequency plane
TOLERANCES = {
    IdentityCase.SHIFT: 1e-6,
    IdentityCase.MODULATION: 1e-6,
    IdentityCase.SHIFT_MODULATION: 1e-6,
    IdentityCase.INVERSION: 1e-3,
    IdentityCase.ORTHOGONALITY: 1e-3,
    IdentityCase.PARITY: 1e-6,
    IdentityCase.CONJUGATE_SWAP: 1e-6,
    IdentityCase.CONVOLUTION_THM: 1e-3,
    IdentityCase.CORRELATION_THM: 1e-3,
    IdentityCase.COROLLARY1: 1e-3,
    IdentityCase.COROLLARY2: 1e-3,
    IdentityCase.COROLLARY3: 1e-3,
    IdentityCase.PARSEVAL_OLCT: 1e-6,
    IdentityCase.ROUND_TRIP_OLCT: 1e-6,
}

CASE_ORDER = [
    IdentityCase.SHIFT,
    IdentityCase.MODULATION,
    IdentityCase.SHIFT_MODULATION,
    IdentityCase.INVERSION,
    IdentityCase.ORTHOGONALITY,
    IdentityCase.PARITY,
    IdentityCase.CONJUGATE_SWAP,
    IdentityCase.CONVOLUTION_THM,
    IdentityCase.CORRELATION_THM,
    IdentityCase.COROLLARY1,
    IdentityCase.COROLLARY2,
    IdentityCase.COROLLARY3,
    IdentityCase.PARSEVAL_OLCT,
    IdentityCase.ROUND_TRIP_OLCT,
]


@dataclass(frozen=True)
class CorrectionRecord:
    """Outcome of adjudicating a suspect unimodular factor."""

    printed_factor: str
    validated_factor: str
    max_phase_deviation: float
    printed_residual: float
    validated_residual: float

    def to_dict(self) -> dict:
        return {
            "printed_factor": self.printed_factor,
            "validated_factor": self.validated_factor,
            "max_phase_deviation": self.max_phase_deviation,
            "printed_residual": self.printed_residual,
            "validated_residual": self.validated_residual,
        }


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of one identity evaluated on sample points."""

    case: IdentityCase
    sample_points: list
    lhs: np.ndarray
    rhs: np.ndarray
    abs_residual: float
    rel_residual: float
    convergence_order: float
    corrected: CorrectionRecord | None
    tolerance: float
    passed: bool
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "sample_points": [list(map(float, pt)) for pt in self.sample_points],
            "lhs": [[float(z.real), float(z.imag)] for z in np.atleast_1d(self.lhs)],
            "rhs": [[float(z.real), float(z.imag)] for z in np.atleast_1d(self.rhs)],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "convergence_order": self.convergence_order,
            "corrected": self.corrected.to_dict() if self.corrected else None,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def _residuals(lhs, rhs) -> tuple[float, float]:
    lhs = np.atleast_1d(np.asarray(lhs))
    rhs = np.atleast_1d(np.asarray(rhs))
    absres = float(np.linalg.norm(lhs - rhs))
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-300)
    return absres, absres / scale


def _report(case: IdentityCase, points, lhs, rhs,
            corrected: CorrectionRecord | None = None,
            notes: Sequence[str] = ()) -> IdentityReport:
    absres, relres = _residuals(lhs, rhs)
    tol = TOLERANCES[case]
    return IdentityReport(
        case=case,
        sample_points=list(points),
        lhs=np.atleast_1d(np.asarray(lhs)),
        rhs=np.atleast_1d(np.asarray(rhs)),
        abs_residual=absres,
        rel_residual=relres,
        convergence_order=0.0,
        corrected=corrected,
        tolerance=tol,
        passed=relres <= tol,
        notes=list(notes),
    )


# ---------------------------------------------------------------------------
# evaluation-point selection


def select_tf_points(f: SampledSignal, phi: SampledSignal, p: OlctParams,
                     nu: int = 3, nw: int = 3,
                     threshold: float = 1e-3) -> list[tuple[float, float]]:
    """nu x nw lattice of (u, w) points inside the map's energy region.

    Points are drawn from where |V| >= threshold * max|V| so residual
    ratios never divide noise by noise.
    """
    vmap = wolct(f, phi, p)
    return _points_from_map(vmap, nu, nw, threshold)


def _points_from_map(vmap: TFMap, nu: int, nw: int,
                     threshold: float) -> list[tuple[float, float]]:
    mag = np.abs(vmap.values)
    vmax = mag.max()
    if vmax == 0.0:
        raise ValueError("map is identically zero; no evaluation points")
    ui = np.nonzero(mag.max(axis=1) >= threshold * vmax)[0]
    wi = np.nonzero(mag.max(axis=0) >= threshold * vmax)[0]
    upts = vmap.ugrid.points()
    wpts = vmap.wgrid.points()
    us = [float(upts[ui[int(round(q * (len(ui) - 1)))]])
          for q in np.linspace(0.3, 0.7, nu)]
    ws = [float(wpts[wi[int(round(q * (len(wi) - 1)))]])
          for q in np.linspace(0.3, 0.7, nw)]
    return [(u, w) for u in us for w in ws]


def _select_cross_points(sig: SampledSignal, win: SampledSignal, p: OlctParams,
                         threshold: float = 1e-3) -> list[tuple[float, float]]:
    """Center-plus-cross pattern of 5 points for the theorem checks.

    Scans a coarse map of the LHS object to locate its energy region.
    """
    grid = sig.grid
    tmax = abs(grid.start)
    uspan = abs(p.u0) + (abs(p.a) + abs(p.b)) * min(tmax, 6.0) + 2.0
    ucount = 65
    ugrid = UniformGrid(-uspan, 2 * uspan / (ucount - 1), ucount)
    vmap = wolct(sig, win, p, ugrid=ugrid, wgrid=default_wgrid(grid, 8))
    mag = np.abs(vmap.values)
    iu, iw = np.unravel_index(int(np.argmax(mag)), mag.shape)
    ui = np.nonzero(mag.max(axis=1) >= threshold * mag.max())[0]
    wi = np.nonzero(mag.max(axis=0) >= threshold * mag.max())[0]
    du = max((ui[-1] - ui[0]) // 4, 1) * vmap.ugrid.step
    dw = grid.step * max(round(((wi[-1] - wi[0]) // 4) * vmap.wgrid.step / grid.step), 1)
    uc = float(vmap.ugrid.point(int(iu)))
    wc = float(vmap.wgrid.point(int(iw)))
    return [(uc, wc), (uc - du, wc), (uc + du, wc), (uc, wc - dw), (uc, wc + dw)]


def _split_points(points) -> tuple[np.ndarray, np.ndarray]:
    us = np.array([pt[0] for pt in points], dtype=np.float64)
    ws = np.array([pt[1] for pt in points], dtype=np.float64)
    return us, ws


# ---------------------------------------------------------------------------
# correction protocol


def _adjudicate(case: IdentityCase, points, base: np.ndarray, target: np.ndarray,
                candidates: list[tuple[str, np.ndarray]],
                factored_side: str = "rhs",
                notes: Sequence[str] = ()) -> IdentityReport:
    """Select the factor that closes ``base * factor = target``.

    ``candidates[0]`` is the printed form.  When the printed factor already
    meets the case tolerance it is kept; otherwise the candidate with the
    smallest residual wins (earliest on ties, so degenerate parameter sets
    resolve deterministically) and the adjudication is recorded together
    with the measured magnitude and phase deviations.

    ``factored_side`` says whether ``base * factor`` is the identity's RHS
    (factor printed on the right side) or its LHS (factor multiplying the
    transform under test), and fixes the report's lhs/rhs slots.
    """
    notes = list(notes)

    def sides(vals):
        built = base * vals
        return (built, target) if factored_side == "lhs" else (target, built)

    def ratio_devs(vals):
        built = base * vals
        mask = np.abs(built) > RATIO_MASK * np.abs(built).max()
        if not mask.any():
            return float("inf"), float("inf")
        r = target[mask] / built[mask]
        return (float(np.max(np.abs(np.abs(r) - 1.0))),
                float(np.max(np.abs(np.angle(r)))))

    residuals = [_residuals(*sides(vals))[1] for _, vals in candidates]
    tol = TOLERANCES[case]
    if residuals[0] <= tol or len(candidates) == 1:
        lhs, rhs = sides(candidates[0][1])
        return _report(case, points, lhs, rhs, None, notes)

    best = min(range(len(candidates)), key=lambda i: residuals[i])
    for i in range(len(candidates)):
        if residuals[i] <= residuals[best] * (1.0 + 1e-6):
            best = i
            break
    name, vals = candidates[best]
    mag_dev, phase_dev = ratio_devs(vals)
    if mag_dev > 1e-2:
        notes.append(
            f"two-sides magnitude ratio deviates from 1 by {mag_dev:.2e}; "
            "no unimodular factor can close this identity"
        )
    record = None
    if best != 0:
        record = CorrectionRecord(
            printed_factor=candidates[0][0],
            validated_factor=name,
            max_phase_deviation=phase_dev,
            printed_residual=residuals[0],
            validated_residual=residuals[best],
        )
    lhs, rhs = sides(vals)
    return _report(case, points, lhs, rhs, record, notes)


# ---------------------------------------------------------------------------
# pointwise identity checks (shift, modulation, parity, conjugation)


def _shift_factor(p: OlctParams, t0: float, u: np.ndarray) -> np.ndarray:
    a, b, c, d, u0, w0 = p.as_tuple()
    return np.exp(1j * (a * t0 * w0 - (a * c / 2.0) * t0**2 + c * t0 * (u - u0)))


def _modulation_factor(p: OlctParams, s: float, u: np.ndarray) -> np.ndarray:
    a, b, c, d, u0, w0 = p.as_tuple()
    return np.exp(1j * (b * s * w0 - (d * b / 2.0) * s**2 + d * s * (u - u0)))


def check_shift(f: SampledSignal, phi: SampledSignal, p: OlctParams, t0: float,
                points=None) -> IdentityReport:
    """Time-shift covariance: V{f(.-t0)}(u, w) against the shifted map."""
    n0 = f.grid.steps_of(t0)
    if points is None:
        points = select_tf_points(f, phi, p)
    us, ws = _split_points(points)
    lhs = wolct_at(shift(f, n0), phi, p, us, ws)
    rhs = wolct_at(f, phi, p, us - p.a * t0, ws - t0) * _shift_factor(p, t0, us)
    return _report(IdentityCase.SHIFT, points, lhs, rhs)


def check_modulation(f: SampledSignal, phi: SampledSignal, p: OlctParams, s: float,
                     points=None) -> IdentityReport:
    """Modulation covariance: V{f e^{ist}}(u, w) against the shifted map."""
    if points is None:
        points = select_tf_points(f, phi, p)
    us, ws = _split_points(points)
    lhs = wolct_at(modulate(f, s), phi, p, us, ws)
    rhs = wolct_at(f, phi, p, us - p.b * s, ws) * _modulation_factor(p, s, us)
    return _report(IdentityCase.MODULATION, points, lhs, rhs)


def printed_shift_modulation_factor(p: OlctParams, t0: float, s: float,
                                    u: np.ndarray) -> np.ndarray:
    """The combined shift+modulation factor E in its printed form."""
    a, b, c, d, u0, w0 = p.as_tuple()
    e1 = (1.0 / b) * (b * s + a * t0) * (
        d * (u0 - u) + (b / 2.0) * (d * s + c * t0) - b * w0
    )
    e2 = (t0 / (2.0 * b)) * (2.0 * u - b * s - 2.0 * u0)
    return np.exp(1j * (e1 + e2))


def composed_shift_modulation_factor(p: OlctParams, t0: float, s: float,
                                     u: np.ndarray) -> np.ndarray:
    """E rebuilt by composing the validated shift and modulation factors.

    Shifting the modulated signal applies the shift identity at u, then the
    modulation identity at u - a*t0; E is the reciprocal of the composite.
    """
    comp = _shift_factor(p, t0, u) * _modulation_factor(p, s, u - p.a * t0)
    return np.conj(comp)


SHIFT_MOD_PRINTED_TEXT = (
    "E = exp(i*(b*s + a*t0)/b * (d*(u0 - u) + (b/2)*(d*s + c*t0) - b*w0)) "
    "* exp(i*(t0/(2*b))*(2*u - b*s - 2*u0))"
)
SHIFT_MOD_VALIDATED_TEXT = (
    "conj(shift_factor(u) * modulation_factor(u - a*t0)) "
    "= printed E * exp(i*s*t0)"
)


def check_shift_modulation(f: SampledSignal, phi: SampledSignal, p: OlctParams,
                           t0: float, s: float, points=None) -> IdentityReport:
    """Combined covariance E * V{T_t0 M_s f}(u, w) = V{f}(u - b*s - a*t0, w - t0).

    The printed E is checked first; when it fails, E is rebuilt by composing
    the individually validated shift and modulation factors and the swap is
    recorded.
    """
    n0 = f.grid.steps_of(t0)
    if points is None:
        points = select_tf_points(f, phi, p)
    us, ws = _split_points(points)
    base = wolct_at(shift(modulate(f, s), n0), phi, p, us, ws)
    target = wolct_at(f, phi, p, us - p.b * s - p.a * t0, ws - t0)
    candidates = [
        (SHIFT_MOD_PRINTED_TEXT, printed_shift_modulation_factor(p, t0, s, us)),
        (SHIFT_MOD_VALIDATED_TEXT, composed_shift_modulation_factor(p, t0, s, us)),
    ]
    return _adjudicate(IdentityCase.SHIFT_MODULATION, points, base, target,
                       candidates, factored_side="lhs")


def check_parity(f: SampledSignal, phi: SampledSignal, p: OlctParams,
                 points=None) -> IdentityReport:
    """Reflection identity: V_{Pphi}{Pf}(u, w) = V{f}(2*u0 - u, -w) * e^{i*2*w0*(u-u0)}."""
    if points is None:
        points = select_tf_points(f, phi, p)
    us, ws = _split_points(points)
    lhs = wolct_at(parity(f), parity(phi), p, us, ws)
    factor = np.exp(1j * 2.0 * p.w0 * (us - p.u0))
    rhs = wolct_at(f, phi, p, 2.0 * p.u0 - us, -ws) * factor
    return _report(IdentityCase.PARITY, points, lhs, rhs)


CONJ_SWAP_PRINTED_TEXT = "exp(i*(c*w*(u0 - u) + a*w*w0 - (a*c/2)*w**2))"
CONJ_SWAP_VALIDATED_TEXT = "exp(i*(c*w*(u - u0) + a*w*w0 - (a*c/2)*w**2))"


def check_conjugate_swap(f: SampledSignal, phi: SampledSignal, p: OlctParams,
                         points=None) -> IdentityReport:
    """Conjugate/window-swap identity.

    V_{conj phi}{conj f}(u, w) = V_f{phi}(u - a*w, -w) * factor.  The
    printed factor's first term carries a suspect sign, so the sign-flipped
    variant is adjudicated alongside it.
    """
    if points is None:
        points = select_tf_points(f, phi, p)
    us, ws = _split_points(points)
    target = wolct_at(conj_signal(f), conj_signal(phi), p, us, ws)
    base = wolct_at(phi, f, p, us - p.a * ws, -ws)
    a, b, c, d, u0, w0 = p.as_tuple()
    common = a * ws * w0 - (a * c / 2.0) * ws**2
    candidates = [
        (CONJ_SWAP_PRINTED_TEXT, np.exp(1j * (c * ws * (u0 - us) + common))),
        (CONJ_SWAP_VALIDATED_TEXT, np.exp(1j * (c * ws * (us - u0) + common))),
    ]
    return _adjudicate(IdentityCase.CONJUGATE_SWAP, points, base, target,
                       candidates, factored_side="rhs")


# ---------------------------------------------------------------------------
# global identity checks (orthogonality, inversion, Parseval, round trip)


def check_orthogonality(f: SampledSignal, g: SampledSignal, phi: SampledSignal,
                        psi: SampledSignal, p: OlctParams) -> IdentityReport:
    """Orthogonality relation <V_phi f, V_psi g> = <f, g> <psi, phi>.

    The three specializations (phi = psi, f = g, and both) are evaluated
    alongside the generic relation and reported as notes.
    """
    v_ff = wolct(f, phi, p)
    ug, wg = v_ff.ugrid, v_ff.wgrid
    v_gg = wolct(g, psi, p, ug, wg)
    lhs = tf_inner_product(v_ff, v_gg)
    rhs = inner_product(f, g) * inner_product(psi, phi)

    notes = []
    v_gphi = wolct(g, phi, p, ug, wg)
    l23 = tf_inner_product(v_ff, v_gphi)
    r23 = inner_product(f, g) * l2_norm(phi) ** 2
    notes.append(f"window-matched case rel residual: {_residuals(l23, r23)[1]:.3e}")
    v_fpsi = wolct(f, psi, p, ug, wg)
    l24 = tf_inner_product(v_ff, v_fpsi)
    r24 = l2_norm(f) ** 2 * inner_product(psi, phi)
    notes.append(f"signal-matched case rel residual: {_residuals(l24, r24)[1]:.3e}")
    l25 = tf_inner_product(v_ff, v_ff)
    r25 = l2_norm(f) ** 2 * l2_norm(phi) ** 2
    notes.append(f"energy identity rel residual: {_residuals(l25, r25)[1]:.3e}")
    return _report(IdentityCase.ORTHOGONALITY, [], [lhs], [rhs], None, notes)


def _sample_indices(n: int, k: int = 9) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, k).round().astype(int))


def check_inversion(f: SampledSignal, phi: SampledSignal, psi: SampledSignal,
                    p: OlctParams) -> IdentityReport:
    """Reconstruction from the full map with synthesis window psi.

    The residual is the relative L2 error over the whole grid; lhs/rhs in
    the report sample the reconstruction and the original at a few points.
    """
    vmap = wolct(f, phi, p)
    rec = reconstruct(vmap, phi, psi, p)
    scale = max(l2_norm(f), 1e-300)
    rel = l2_norm(SampledSignal(f.grid, rec.values - f.values)) / scale
    corrected = None
    ip = inner_product(psi, phi)
    if rel > TOLERANCES[IdentityCase.INVERSION] and ip.imag != 0.0:
        # probe the conjugate normalization 1/conj(<psi, phi>)
        alt = rec.values * (ip / np.conj(ip))
        alt_rel = l2_norm(SampledSignal(f.grid, alt - f.values)) / scale
        if alt_rel < rel / 1e3:
            corrected = CorrectionRecord(
                printed_factor="1/<psi, phi>",
                validated_factor="1/conj(<psi, phi>)",
                max_phase_deviation=float(abs(2.0 * np.angle(ip))),
                printed_residual=rel,
                validated_residual=alt_rel,
            )
            rec = SampledSignal(f.grid, alt)
            rel = alt_rel
    idx = _sample_indices(f.grid.count)
    pts = [(float(f.grid.point(int(i))),) for i in idx]
    report = _report(IdentityCase.INVERSION, pts, rec.values[idx], f.values[idx],
                     corrected)
    # residual over the full grid, not just the sampled points
    return replace(report, abs_residual=rel * scale, rel_residual=rel,
                   passed=rel <= TOLERANCES[IdentityCase.INVERSION])


def check_round_trip(f: SampledSignal, p: OlctParams) -> IdentityReport:
    """Forward-then-inverse transform against the original signal.

    Adjudicates the inverse-prefactor exponent: the printed last term
    (a*b/2)*w0 against the dimensionally consistent (a*b/2)*w0**2.  For
    offset-free parameters the two coincide.
    """
    spec = olct_direct(f, p)
    rec = iolct(spec, p, f.grid, prefactor_variant="validated")
    scale = max(l2_norm(f), 1e-300)
    rel_validated = l2_norm(SampledSignal(f.grid, rec.values - f.values)) / scale

    dphi = inverse_phase_exponent(p, "printed") - inverse_phase_exponent(p, "validated")
    corrected = None
    if dphi != 0.0:
        rec_printed = rec.values * np.exp(1j * dphi)
        rel_printed = l2_norm(SampledSignal(f.grid, rec_printed - f.values)) / scale
        if rel_printed > TOLERANCES[IdentityCase.ROUND_TRIP_OLCT]:
            corrected = CorrectionRecord(
                printed_factor=PREFACTOR_PRINTED_TEXT,
                validated_factor=PREFACTOR_VALIDATED_TEXT,
                max_phase_deviation=float(abs(np.angle(np.exp(1j * dphi)))),
                printed_residual=rel_printed,
                validated_residual=rel_validated,
            )
    idx = _sample_indices(f.grid.count)
    pts = [(float(f.grid.point(int(i))),) for i in idx]
    report = _report(IdentityCase.ROUND_TRIP_OLCT, pts, rec.values[idx],
                     f.values[idx], corrected)
    return replace(report, abs_residual=rel_validated * scale,
                   rel_residual=rel_validated,
                   passed=rel_validated <= TOLERANCES[IdentityCase.ROUND_TRIP_OLCT])


def check_parseval(f: SampledSignal, g: SampledSignal, p: OlctParams,
                   extra_params: Sequence[OlctParams] = ()) -> IdentityReport:
    """Generalized Parseval formula, optionally over extra parameter sets.

    lhs/rhs hold the signal-domain and spectral-domain inner products per
    parameter set; the reported relative residual is the worst normalized
    gap, matching the per-set contract.
    """
    all_params = [p, *extra_params]
    ip = inner_product(f, g)
    scale = max(l2_norm(f) * l2_norm(g), 1e-300)
    lhs = []
    rhs = []
    notes = []
    worst = 0.0
    for q in all_params:
        sf = olct_fast(f, q)
        sg = olct_fast(g, q)
        spectral = complex(np.sum(sf.values * np.conj(sg.values)) * sf.grid.step)
        res = abs(ip - spectral) / scale
        worst = max(worst, res)
        lhs.append(ip)
        rhs.append(spectral)
        notes.append(
            f"params ({q.a:g},{q.b:g},{q.c:g},{q.d:g},{q.u0:g},{q.w0:g}): "
            f"residual {res:.3e}"
        )
    report = _report(IdentityCase.PARSEVAL_OLCT, [], lhs, rhs, None, notes)
    return replace(report, rel_residual=worst,
                   passed=worst <= TOLERANCES[IdentityCase.PARSEVAL_OLCT])


# ---------------------------------------------------------------------------
# convolution / correlation theorems


T1_PRINTED_TEXT = (
    "B = sqrt(2j*pi*b) * exp(i*(u - a*w/2)*(d*u0 - b*w0)/b "
    "- i*(d*a/(2*b))*w*(a*w/4 - u) - i*(a/(2*b))*(u**2 + u0**2)); "
    "m-weight exp(+i*(a/(2*b))*m*(d*a/2 - 1)*(m - w))"
)
T1_WEIGHT_FLIPPED_TEXT = (
    "B as printed; m-weight exp(-i*(a/(2*b))*m*(d*a/2 - 1)*(m - w))"
)
T1_VALIDATED_TEXT = (
    "B = sqrt(2j*pi*b) * exp(i*(u - a*w/2)*(d*u0 - b*w0)/b "
    "- i*(d*a/(2*b))*w*(a*w/4 - u) - i*(d/(2*b))*(u**2 + u0**2)); "
    "m-weight exp(-i*(a/(2*b))*m*(d*a/2 - 1)*(m - w))"
)
T1_B_ONLY_TEXT = "B with d/(2*b) quadratic term; m-weight as printed"

T2_PRINTED_TEXT = (
    "B0 = sqrt(2j*pi*b) * exp(i*(u - a*w/2)*(d*u0 - b*w0)/b "
    "- i*(d*a/(2*b))*w*(a*w/4 - u) - i*(a/(2*b))*(u**2 + u**2))"
)
T2_A_U0_TEXT = "B0 with quadratic term -i*(a/(2*b))*(u**2 + u0**2)"
T2_VALIDATED_TEXT = (
    "B0 = sqrt(2j*pi*b) * exp(i*(u - a*w/2)*(d*u0 - b*w0)/b "
    "- i*(d*a/(2*b))*w*(a*w/4 - u) - i*(d/(2*b))*(u**2 + u0**2))"
)
T2_D_2U_TEXT = "B0 with quadratic term -i*(d/(2*b))*(u**2 + u**2)"


def _m_lattice(grid: UniformGrid, span_limit: float = 10.0) -> np.ndarray:
    h = grid.step
    reach = min(span_limit, abs(grid.start), abs(grid.stop))
    kmax = int(reach / h)
    return np.arange(-kmax, kmax + 1) * h


def _b_factor(p: OlctParams, us: np.ndarray, ws: np.ndarray,
              quad_coef: float, quad_term: np.ndarray) -> np.ndarray:
    a, b, c, d, u0, w0 = p.as_tuple()
    return np.sqrt(2j * np.pi * b) * np.exp(
        1j * (
            (1.0 / b) * (us - a * ws / 2.0) * (d * u0 - b * w0)
            - (d * a / (2.0 * b)) * ws * (a * ws / 4.0 - us)
            - (quad_coef / (2.0 * b)) * quad_term
        )
    )


def check_convolution_theorem(f: SampledSignal, g: SampledSignal,
                              phi: SampledSignal, psi: SampledSignal,
                              p: OlctParams, points=None) -> IdentityReport:
    """Convolution theorem for the windowed transform.

    LHS: the windowed transform of f*g (chirp convolution) against the
    composite window whose conjugate is conj(phi)*conj(psi), evaluated by
    direct quadrature.  RHS: B times the m-integral of map products with
    the chirp weight.  Both B's quadratic-phase coefficient and the
    weight's sign are suspect; the four combinations are adjudicated.
    """
    a, b, c, d, u0, w0 = p.as_tuple()
    fg = olct_convolve(f, g, p)
    comp = olct_convolve(conj_signal(phi), conj_signal(psi), p)
    win = conj_signal(comp)
    if points is None:
        points = _select_cross_points(fg, win, p)
    us, ws = _split_points(points)
    target = wolct_at(fg, win, p, us, ws)

    m = _m_lattice(f.grid)
    h = f.grid.step
    integ_plus = np.empty(us.shape[0], dtype=np.complex128)
    integ_minus = np.empty(us.shape[0], dtype=np.complex128)
    for i in range(us.shape[0]):
        m0 = us[i] - (a / 2.0) * (ws[i] - m)
        m1 = us[i] - (a / 2.0) * m
        vf = wolct_at(f, phi, p, m0, m)
        vg = wolct_at(g, psi, p, m1, ws[i] - m)
        prod = vf * vg
        weight = np.exp(1j * (a / (2.0 * b)) * m * (d * a / 2.0 - 1.0) * (m - ws[i]))
        integ_plus[i] = np.sum(prod * weight) * h
        integ_minus[i] = np.sum(prod * np.conj(weight)) * h

    quad_u0 = us**2 + u0**2
    b_a = _b_factor(p, us, ws, a, quad_u0)
    b_d = _b_factor(p, us, ws, d, quad_u0)
    candidates = [
        (T1_PRINTED_TEXT, b_a * integ_plus),
        (T1_WEIGHT_FLIPPED_TEXT, b_a * integ_minus),
        (T1_VALIDATED_TEXT, b_d * integ_minus),
        (T1_B_ONLY_TEXT, b_d * integ_plus),
    ]
    base = np.ones_like(target)
    return _adjudicate(IdentityCase.CONVOLUTION_THM, points, base, target,
                       candidates, factored_side="rhs")


def check_correlation_theorem(f: SampledSignal, g: SampledSignal,
                              phi: SampledSignal, psi: SampledSignal,
                              p: OlctParams, points=None) -> IdentityReport:
    """Correlation theorem for the windowed transform.

    LHS: windowed transform of f o g against the correlation-composed
    window.  RHS: B0 times the m-integral of reflected-conjugate and plain
    map products with the printed weight.  B0's quadratic term is printed
    as (u**2 + u**2); the candidate set {u**2 + u**2, u**2 + u0**2} crossed
    with the a-vs-d coefficient is adjudicated.
    """
    if not f.grid.is_symmetric():
        raise AsymmetricGrid("correlation theorem check needs a symmetric grid")
    a, b, c, d, u0, w0 = p.as_tuple()
    fo = olct_correlate(f, g, p)
    comp = olct_correlate(conj_signal(phi), conj_signal(psi), p)
    win = conj_signal(comp)
    if points is None:
        points = _select_cross_points(fo, win, p)
    us, ws = _split_points(points)
    target = wolct_at(fo, win, p, us, ws)

    pf = parity(conj_signal(f))
    pphi = parity(conj_signal(phi))
    m = _m_lattice(f.grid)
    h = f.grid.step
    integ = np.empty(us.shape[0], dtype=np.complex128)
    for i in range(us.shape[0]):
        m2 = us[i] - (a / 2.0) * (ws[i] + m)
        m3 = us[i] + (a / 2.0) * m
        vp = wolct_at(pf, pphi, p, m2, -m)
        vg = wolct_at(g, psi, p, m3, ws[i] + m)
        weight = np.exp(-1j * (a / (2.0 * b)) * m * (d * a / 2.0 - 1.0) * (ws[i] + m))
        integ[i] = np.sum(vp * vg * weight) * h

    quad_2u = 2.0 * us**2
    quad_u0 = us**2 + u0**2
    candidates = [
        (T2_PRINTED_TEXT, _b_factor(p, us, ws, a, quad_2u) * integ),
        (T2_A_U0_TEXT, _b_factor(p, us, ws, a, quad_u0) * integ),
        (T2_VALIDATED_TEXT, _b_factor(p, us, ws, d, quad_u0) * integ),
        (T2_D_2U_TEXT, _b_factor(p, us, ws, d, quad_2u) * integ),
    ]
    base = np.ones_like(target)
    return _adjudicate(IdentityCase.CORRELATION_THM, points, base, target,
                       candidates, factored_side="rhs")


FOURIER_PARAMS = (0.0, 1.0, -1.0, 0.0, 0.0, 0.0)


def check_corollary(which: int, f: SampledSignal, g: SampledSignal,
                    phi: SampledSignal, psi: SampledSignal,
                    base_params: OlctParams | None = None,
                    points=None) -> IdentityReport:
    """Specializations of the convolution/correlation theorems.

    1: offsets forced to zero (shares the theorem evaluator verbatim).
    2: Fourier parameters, convolution form.
    3: Fourier parameters, correlation form.
    """
    if which == 1:
        if base_params is None:
            raise ValueError("corollary 1 needs the base parameter set")
        p = OlctParams(base_params.a, base_params.b, base_params.c,
                       base_params.d, 0.0, 0.0)
        rep = check_convolution_theorem(f, g, phi, psi, p, points)
        notes = list(rep.notes) + [
            "offset-free specialization; evaluated by the theorem checker itself"
        ]
        return replace(rep, case=IdentityCase.COROLLARY1,
                       tolerance=TOLERANCES[IdentityCase.COROLLARY1],
                       notes=notes)
    if which not in (2, 3):
        raise ValueError("corollary index must be 1, 2, or 3")

    p = validate(FOURIER_PARAMS)
    a, b, c, d, u0, w0 = p.as_tuple()
    note = (
        "printed residual factor exp(-i*u*w0) evaluated with w0 = 0 as fixed "
        "by the parameter choice, hence identically 1; the symbolic w0 in "
        "the printed form is vacuous here"
    )
    m = _m_lattice(f.grid)
    h = f.grid.step
    if which == 2:
        fg = olct_convolve(f, g, p)
        comp = olct_convolve(conj_signal(phi), conj_signal(psi), p)
        win = conj_signal(comp)
        if points is None:
            points = _select_cross_points(fg, win, p)
        us, ws = _split_points(points)
        lhs = wolct_at(fg, win, p, us, ws)
        rhs = np.empty(us.shape[0], dtype=np.complex128)
        for i in range(us.shape[0]):
            vf = wolct_at(f, phi, p, np.full_like(m, us[i]), m)
            vg = wolct_at(g, psi, p, np.full_like(m, us[i]), ws[i] - m)
            rhs[i] = (np.sqrt(2j * np.pi * b) * np.exp(-1j * us[i] * w0)
                      * np.sum(vf * vg) * h)
        return _report(IdentityCase.COROLLARY2, points, lhs, rhs, None, [note])

    fo = olct_correlate(f, g, p)
    comp = olct_correlate(conj_signal(phi), conj_signal(psi), p)
    win = conj_signal(comp)
    if points is None:
        points = _select_cross_points(fo, win, p)
    us, ws = _split_points(points)
    lhs = wolct_at(fo, win, p, us, ws)
    pf = parity(conj_signal(f))
    pphi = parity(conj_signal(phi))
    rhs = np.empty(us.shape[0], dtype=np.complex128)
    for i in range(us.shape[0]):
        vp = wolct_at(pf, pphi, p, np.full_like(m, us[i]), -m)
        vg = wolct_at(g, psi, p, np.full_like(m, us[i]), ws[i] + m)
        rhs[i] = (np.sqrt(2j * np.pi * b) * np.exp(-1j * us[i] * w0)
                  * np.sum(vp * vg) * h)
    return _report(IdentityCase.COROLLARY3, points, lhs, rhs, None, [note])


# ---------------------------------------------------------------------------
# suite driver


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration for the full verification run."""

    seed: int = 7
    coarse: int = 513
    fine: int = 1025
    span: float = 12.8
    params: tuple = (2.0, 3.0, 1.0, 2.0, 1.0, -1.0)
    theorem_params: tuple = (2.0, 3.0, 1.0, 2.0, 0.0, 0.0)
    # asymmetric set (a != d, offsets nonzero) so every suspect-factor
    # candidate separates numerically
    adjudication_params: tuple = (1.0, 2.0, 1.0, 3.0, 0.5, -0.4)
    shift_t0: float = 0.5
    modulation_s: float = 0.8
    max_workers: int | None = None


def _suite_grid(count: int, span: float) -> UniformGrid:
    # odd counts keep the grid symmetric with the origin on the lattice,
    # which parity and the chirp operators both need
    return UniformGrid.symmetric(2.0 * span / (count - 1), count)


@dataclass
class _Resolution:
    grid: UniformGrid
    f: SampledSignal
    phi: SampledSignal
    g: SampledSignal
    psi: SampledSignal
    fc: SampledSignal
    gc: SampledSignal
    phc: SampledSignal
    psc: SampledSignal
    points: list


def _build_resolution(count: int, span: float, p_main: OlctParams) -> _Resolution:
    grid = _suite_grid(count, span)
    f = gaussian(grid, 1.0)
    phi = gaussian(grid, 0.8)
    g = gaussian(grid, 0.7, 0.4)
    psi = gaussian(grid, 1.1, -0.3)
    fc = gaussian(grid, 0.8)
    gc = gaussian(grid, 0.9, 0.3)
    phc = gaussian(grid, 0.9)
    psc = gaussian(grid, 1.1, -0.2)
    points = select_tf_points(f, phi, p_main)
    return _Resolution(grid, f, phi, g, psi, fc, gc, phc, psc, points)


def _convergence_order(coarse: float, fine: float) -> float:
    if fine <= NOISE_FLOOR:
        return 0.0
    return float(np.log2(max(coarse, 1e-300) / max(fine, 1e-300)))


def _random_params(rng: np.random.Generator, n: int,
                   min_b: float = 0.5) -> list[OlctParams]:
    out = []
    while len(out) < n:
        a = rng.uniform(-2.0, 2.0)
        if abs(a) < 0.1:
            continue
        b = rng.choice([-1.0, 1.0]) * rng.uniform(min_b, 3.0)
        c = rng.uniform(-2.0, 2.0)
        d = (1.0 + b * c) / a
        if abs(d) > 10.0:
            continue
        out.append(OlctParams(a, b, c, d, rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return out


def _worker_count(config: SuiteConfig) -> int:
    if config.max_workers is not None:
        return max(1, config.max_workers)
    env = os.environ.get("WOLCT_THREADS", "0")
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n > 0:
        return n
    return min(8, os.cpu_count() or 1)


def run_suite(config: SuiteConfig | None = None) -> list[IdentityReport]:
    """Run every identity case at two resolutions.

    Returns one report per case, in :data:`CASE_ORDER`, carrying the
    fine-grid residuals and a convergence order from the two grids.  A case
    that raises is reported with residuals of -1 and the error message in
    its notes; the suite itself never aborts.
    """
    config = config or SuiteConfig()
    p_main = validate(config.params)
    p_thm = validate(config.theorem_params)
    p_adj = validate(config.adjudication_params)
    rng = np.random.default_rng(config.seed)
    extra_parseval = _random_params(rng, 5)

    res = {
        n: _build_resolution(n, config.span, p_main)
        for n in (config.coarse, config.fine)
    }
    t0 = config.shift_t0
    s = config.modulation_s

    def two_res(fn: Callable[[_Resolution], IdentityReport]) -> IdentityReport:
        rc = fn(res[config.coarse])
        rf = fn(res[config.fine])
        order = _convergence_order(rc.rel_residual, rf.rel_residual)
        notes = list(rf.notes)
        if rf.rel_residual <= NOISE_FLOOR:
            notes.append("residual at floating-point noise floor at both "
                         "resolutions; order reported as 0")
        return replace(rf, convergence_order=order, notes=notes)

    def with_adjudication(rep: IdentityReport,
                          check: Callable[..., IdentityReport]) -> IdentityReport:
        r = res[config.fine]
        adj = check(r.fc, r.gc, r.phc, r.psc, p_adj)
        if adj.corrected is not None:
            notes = list(rep.notes) + [
                "suspect factors adjudicated at the asymmetric parameter set "
                f"({p_adj.a:g},{p_adj.b:g},{p_adj.c:g},{p_adj.d:g},"
                f"{p_adj.u0:g},{p_adj.w0:g}) where all candidates separate"
            ]
            return replace(rep, corrected=adj.corrected, notes=notes)
        return rep

    runners: dict[IdentityCase, Callable[[], IdentityReport]] = {
        IdentityCase.SHIFT: lambda: two_res(
            lambda r: check_shift(r.f, r.phi, p_main, t0, r.points)),
        IdentityCase.MODULATION: lambda: two_res(
            lambda r: check_modulation(r.f, r.phi, p_main, s, r.points)),
        IdentityCase.SHIFT_MODULATION: lambda: two_res(
            lambda r: check_shift_modulation(r.f, r.phi, p_main, t0, s, r.points)),
        IdentityCase.INVERSION: lambda: two_res(
            lambda r: check_inversion(r.f, r.phi, r.phi, p_main)),
        IdentityCase.ORTHOGONALITY: lambda: two_res(
            lambda r: check_orthogonality(r.f, r.g, r.phi, r.psi, p_main)),
        IdentityCase.PARITY: lambda: two_res(
            lambda r: check_parity(r.f, r.phi, p_main, r.points)),
        IdentityCase.CONJUGATE_SWAP: lambda: two_res(
            lambda r: check_conjugate_swap(r.f, r.phi, p_main, r.points)),
        IdentityCase.CONVOLUTION_THM: lambda: with_adjudication(
            two_res(lambda r: check_convolution_theorem(
                r.fc, r.gc, r.phc, r.psc, p_thm)),
            check_convolution_theorem),
        IdentityCase.CORRELATION_THM: lambda: with_adjudication(
            two_res(lambda r: check_correlation_theorem(
                r.fc, r.gc, r.phc, r.psc, p_thm)),
            check_correlation_theorem),
        IdentityCase.COROLLARY1: lambda: two_res(
            lambda r: check_corollary(1, r.fc, r.gc, r.phc, r.psc, p_thm)),
        IdentityCase.COROLLARY2: lambda: two_res(
            lambda r: check_corollary(2, r.fc, r.gc, r.phc, r.psc)),
        IdentityCase.COROLLARY3: lambda: two_res(
            lambda r: check_corollary(3, r.fc, r.gc, r.phc, r.psc)),
        IdentityCase.PARSEVAL_OLCT: lambda: two_res(
            lambda r: check_parseval(r.f, r.g, p_main, extra_parseval)),
        IdentityCase.ROUND_TRIP_OLCT: lambda: two_res(
            lambda r: check_round_trip(r.f, p_main)),
    }

    def guarded(case: IdentityCase) -> IdentityReport:
        try:
            return runners[case]()
        except Exception as exc:  # failed cases must not abort the suite
            return IdentityReport(
                case=case, sample_points=[], lhs=np.zeros(0), rhs=np.zeros(0),
                abs_residual=-1.0, rel_residual=-1.0, convergence_order=0.0,
                corrected=None, tolerance=TOLERANCES[case], passed=False,
                notes=[f"case failed: {type(exc).__name__}: {exc}"],
            )

    workers = _worker_count(config)
    if workers == 1:
        return [guarded(case) for case in CASE_ORDER]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(guarded, CASE_ORDER))


def suite_report(reports: Sequence[IdentityReport], config: SuiteConfig) -> dict:
    """JSON-ready dictionary for a suite run.  Deterministic for a seed."""
    return {
        "schema": 1,
        "seed": config.seed,
        "resolutions": [config.coarse, config.fine],
        "params": list(config.params),
        "theorem_params": list(config.theorem_params),
        "cases": [r.to_dict() for r in reports],
    }


def render_table(reports: Sequence[IdentityReport]) -> str:
    """Human-readable residual table."""
    lines = [f"{'case':<22} {'rel_residual':>13} {'order':>7} "
             f"{'corrected':>9} {'status':>7}"]
    for r in reports:
        lines.append(
            f"{r.case.value:<22} {r.rel_residual:>13.3e} "
            f"{r.convergence_order:>7.2f} {'yes' if r.corrected else 'no':>9} "
            f"{'pass' if r.passed else 'FAIL':>7}"
        )
    return "\n".join(lines)
