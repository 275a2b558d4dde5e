"""Offset canonical transform toolbox.

Numerical library for the six-parameter offset canonical transform, its
windowed (time-frequency) variant, chirp-weighted convolution/correlation
operators, and a verification engine that checks every stated identity
against brute-force quadrature oracles.
"""

from .errors import (
    AsymmetricGrid,
    DegenerateB,
    DeterminantViolation,
    FormatError,
    GridMismatch,
    InvalidShapeParam,
    LatticeViolation,
    NonAdmissiblePair,
    NonFiniteValues,
    PhaseOverflow,
    ShiftOutOfRange,
    TruncationWarning,
    WolctError,
    ZeroWindow,
)
from .params import (
    DET_TOL,
    EPS_B,
    OlctParams,
    inverse_phase_exponent,
    inverse_phase_prefactor,
    invert,
    validate,
)
from .signals import (
    SampledSignal,
    UniformGrid,
    chirp,
    conj_signal,
    gaussian,
    inner_product,
    l2_norm,
    modulate,
    parity,
    rect,
    shift,
)
from .olct import (
    OlctSpectrum,
    induced_output_grid,
    iolct,
    kernel,
    olct_b0,
    olct_direct,
    olct_fast,
    olct_values,
    parseval_residual,
    spectral_tail_fraction,
)
from .windowed import (
    TFMap,
    default_wgrid,
    reconstruct,
    tf_inner_product,
    windowed_signal,
    wolct,
    wolct_at,
    wolct_slice,
)
from .chirpops import olct_convolve, olct_correlate
from .identities import (
    CorrectionRecord,
    IdentityCase,
    IdentityReport,
    SuiteConfig,
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
    render_table,
    run_suite,
    select_tf_points,
    suite_report,
)

__version__ = "0.1.0"
