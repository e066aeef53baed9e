"""Confluent Heun equation solutions as series of Kummer 1F1 functions.

Modules:
  kummer       1F1 evaluation and the recurrence identities between
               contiguous parameter shifts
  che_core     equation parameters, residual operator, power-series oracle,
               z -> 1-z transform
  expansions   the expansion families (two-, three-, four-term recurrences)
  termination  integer conditions, the one termination verdict, q-spectra
  twostate     Lorentzian two-state model, closed form and RK oracle
  cli          command-line interface (also installed as `heunkummer`)
"""

from .che_core import (
    CheParams,
    LocalSeries,
    frobenius_coefficients,
    frobenius_eval,
    relative_residual,
    residual,
    transform_1_minus_z,
)
from .errors import (
    ApplicabilityError,
    ConditionNotMetError,
    HeunKummerError,
    HeunKummerWarning,
    LargeArgumentWarning,
    LeadingCoefficientVanishesError,
    NonConvergenceError,
    PoleAtGammaError,
    PoleAtLowerParameterError,
    SingularPointError,
    StepTooCoarseError,
    TailTooLargeError,
    TruncationWarning,
)
from .expansions import (
    ALPHA_OVER_EPS,
    GAMMA_CHOICE,
    Family,
    SeriesSolution,
    applicability,
    build_series,
    eval_series,
    eval_series_with_derivatives,
    ladder,
    recurrence_coeffs,
)
from .kummer import (
    IDENTITY_IDS,
    eval_1f1,
    identity_residual,
)
from .termination import (
    QSpectrum,
    TerminationCondition,
    enumerate_termination_conditions,
    finite_solution,
    q_spectrum,
    terminated_solution,
)
from .twostate import (
    ClosedForm,
    LorentzianModel,
    MatchResult,
    Trajectory,
    TwoStateReduction,
    closed_form_solution,
    equation_residual_in_t,
    integrate_rk,
    locate_return_delta0,
    match_against_rk,
    reduce_to_che,
    return_points,
    return_spectrum_relation,
    scan_return_delta0,
)

__version__ = "0.1.0"
