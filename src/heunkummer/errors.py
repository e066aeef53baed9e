"""Exception taxonomy shared by all modules.

Domain errors derive from HeunKummerError so callers (and the CLI) can
distinguish them from programming errors. Warnings derive from
HeunKummerWarning and are issued through the warnings module.
"""


class HeunKummerError(Exception):
    """Base class for domain errors."""


class NonConvergenceError(HeunKummerError):
    """A series failed to meet its tolerance within the term budget."""


class PoleAtLowerParameterError(HeunKummerError):
    """1F1 lower parameter is zero or a negative integer and the series
    does not terminate before hitting the pole."""


class SingularPointError(HeunKummerError):
    """Evaluation requested at a singular point of the equation (z = 0 or 1)."""


class PoleAtGammaError(HeunKummerError):
    """gamma is zero or a negative integer; the analytic-at-0 power series
    does not exist."""


class TailTooLargeError(HeunKummerError):
    """A non-terminated series was evaluated but its tail estimate exceeds
    the requested tolerance."""


class ApplicabilityError(HeunKummerError):
    """The requested expansion family is not applicable to the parameters;
    the message lists the violated conditions."""


class LeadingCoefficientVanishesError(HeunKummerError):
    """The recurrence's leading coefficient R_n vanished at some step with a
    non-negligible numerator, so the forward recurrence cannot continue."""


class StepTooCoarseError(HeunKummerError):
    """The integrator's step-doubling estimate of its endpoint error is
    above twostate.STEP_ERROR_TOL (1e-8): the step is too coarse."""


class ConditionNotMetError(HeunKummerError):
    """A precondition on model parameters (integer coincidence) is not met."""


class HeunKummerWarning(UserWarning):
    """Base class for diagnostic warnings."""


class TruncationWarning(HeunKummerWarning):
    """A partial sum was returned whose tail estimate exceeds 1e-10."""


class LargeArgumentWarning(HeunKummerWarning):
    """|x| is beyond the range where the direct power series is trusted."""
