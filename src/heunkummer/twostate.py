"""Two-state quantum dynamics driven by a Lorentzian pulse.

The system

    i da1/dt = U(t) e^{-i delta(t)} a2
    i da2/dt = U(t) e^{+i delta(t)} a1

with U(t) = U0/(1+t^2) and detuning rate d(delta)/dt = Delta0 + Delta1/(1+t^2)
reduces, through a2 = z^{alpha1} (z-1)^{alpha2} u(z) with z = (1+it)/2, to the
confluent Heun equation handled by the rest of the package. The reduction
below was re-derived from scratch; its correctness is asserted numerically
by the residual-in-t check, which is part of the test suite.

The effective Rabi frequency comes out as R = sqrt(U0^2 + Delta1^2/4). When
R is a natural number N+1 the reduced equation has delta = 1-R = -N, so the
Kummer-basis series can right-terminate, and the q values where it does pin
a relation between Delta0 and Delta1 (the return-spectrum relation).

Branch handling: the path z(t) = (1+it)/2 crosses the standard cut of
(z-1)^{alpha2} at t = 0. The closed form uses the path-continuous branch,
arg(z-1) = -pi - atan(t), which coincides with the principal branch for
t < 0 and continues it analytically through t = 0; arg(z) = atan(t) is
principal throughout.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .che_core import CheParams
from .errors import ConditionNotMetError, StepTooCoarseError
from .expansions import (Family, SeriesSolution, eval_series,
                         eval_series_with_derivatives)
from .termination import (KIND_DELTA_INT, TerminationCondition, check_condition,
                          condition_tridiagonal, finite_solution)

if TYPE_CHECKING:  # numpy loads on first use, in the functions that need it
    import numpy as np

DEFAULT_STEPS = 8000
STEP_ERROR_TOL = 1e-8
DELTA0_CLAMP = 1e-10  # located return points keep eps = -2*Delta0 nonzero
RELATION_TOL = 1e-8   # a located return point meets its relation this well
_CHUNK = 4096         # RK steps per chunk of the one pass: bounds the temporaries
_TAIL = 32            # a scan level this short is one Python loop (_running)


@dataclass(frozen=True)
class LorentzianModel:
    """Pulse parameters: peak coupling U0 > 0, detuning slope Delta0,
    Lorentzian detuning amplitude Delta1 (all rad/time)."""

    U0: float
    Delta0: float
    Delta1: float

    def __post_init__(self):
        for name in ("U0", "Delta0", "Delta1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} = {value} is not finite")
        if not self.U0 > 0:
            raise ValueError("U0 must be positive")

    def coupling(self, t: float) -> float:
        return self.U0 / (1 + t * t)

    def detuning_rate(self, t: float) -> float:
        return self.Delta0 + self.Delta1 / (1 + t * t)

    def phase(self, t: float) -> float:
        """delta(t) = integral of the detuning rate, taken analytically."""
        import numpy as np

        return self.Delta0 * t + self.Delta1 * np.arctan(t)


@dataclass(frozen=True)
class TwoStateReduction:
    """Equation parameters and prefactor exponents induced by the model."""

    che: CheParams
    exp_alpha1: complex
    exp_alpha2: complex
    R: float
    z_map: str = "z(t) = (1 + i t)/2"

    @staticmethod
    def z_of_t(t: float) -> complex:
        return complex(0.5, 0.5 * t)


@dataclass(frozen=True)
class Trajectory:
    """Amplitudes along the time grid: a1 and a2 have the grid on their last
    axis, after one leading axis per stacked initial state. step_error is
    the estimated error of the endpoint amplitudes, by step doubling."""

    times: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    step_error: float

    def norm_drift(self) -> float:
        """Largest change of |a1|^2 + |a2|^2 from its start, over every
        stacked trajectory."""
        import numpy as np

        norms = np.abs(self.a1) ** 2 + np.abs(self.a2) ** 2
        return float(np.max(np.abs(norms - norms[..., :1])))


def reduce_to_che(model: LorentzianModel) -> TwoStateReduction:
    """Map the Lorentzian model onto the equation.

    R = sqrt(U0^2 + Delta1^2/4) and alpha1 = (Delta1 + 2R)/4, the root of
    alpha1^2 - (Delta1/2) alpha1 - U0^2/4 = 0; alpha2 = -alpha1. The
    parameters are (gamma, delta, eps, alpha, q) =
    (1+R, 1-R, -2 Delta0, 0, -(R + Delta1/2) Delta0).
    """
    try:
        R = math.sqrt(model.U0 ** 2 + model.Delta1 ** 2 / 4)
    except OverflowError:  # U0 or Delta1 above about 1.3e154
        raise ValueError(f"R = sqrt(U0^2 + Delta1^2/4) overflows at {model}") from None
    alpha1 = (model.Delta1 + 2 * R) / 4
    che = CheParams(gamma=1 + R, delta=1 - R, epsilon=-2 * model.Delta0,
                    alpha=0, q=-(R + model.Delta1 / 2) * model.Delta0)
    return TwoStateReduction(che=che, exp_alpha1=complex(alpha1),
                             exp_alpha2=complex(-alpha1), R=R)


def _step_matrices(p, h):
    """Top rows (m00, m01) of the classical RK4 step matrices
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of y' = A y, A = [[0, p], [-p*, 0]].

    p holds A's entry on the half-step grid t_0, t_0 + h/2, ..., so step n
    reads p1 = p(t_n), p2 = p(t_n + h/2) and p3 = p(t_n + h). Every A(t)
    squares to -|p|^2 I, so with s = |p2|^2, w = p2 p1* and v = p3 p2* the
    four stages collapse to

        m01 = h/6 [(p1 + p3)(1 - h^2 s/2) + 4 p2]
        m00 = 1 - h^2/6 [w + v + s - (h^2/4) v w]

    For a real pulse M is [[m00, m01], [-m01*, m00*]], so its lower row is
    read from the top one.
    """
    p1, p2, p3 = p[:-1:2], p[1::2], p[2::2]
    s = p2.real ** 2 + p2.imag ** 2
    w, v = p2 * p1.conjugate(), p3 * p2.conjugate()
    # in place from here, which holds fewer full-width temporaries at once
    m01 = p1 + p3
    m01 *= (h / 6) * (1 - h * h / 2 * s)
    m01 += (4 * h / 6) * p2
    m00 = v * w
    m00 *= h * h / 4
    m00 -= w
    m00 -= v
    m00 -= s
    m00 *= h * h / 6
    m00 += 1
    return m00, m01


def _matmul(a, b, out=(None, None)):
    """Top row of a @ b, each matrix [[x, y], [-y*, x*]] given as (x, y),
    written into the arrays of out where given."""
    import numpy as np

    (a00, a01), (b00, b01) = a, b
    x, y = np.multiply(a00, b00, out=out[0]), np.multiply(a00, b01, out=out[1])
    x -= a01 * b01.conjugate()
    y += a01 * b00.conjugate()
    return x, y


def _pairs(m):
    """Top rows of m[2i+1] @ m[2i], one matrix per pair of neighbours; an
    odd last matrix is carried alone, so the pairs multiply to m's product.
    Repeated, it is the pairwise tree of the coarse run; once per level,
    it is the first half of _prefix. The pairs are written into arrays
    that already hold the carried matrix's place, so nothing is copied."""
    import numpy as np

    n = len(m[0])
    a, b = [e[1::2] for e in m], [e[:-1:2] for e in m]
    if n % 2 == 0:
        return _matmul(a, b)
    out = [np.empty(n // 2 + 1, dtype=complex) for _ in m]
    _matmul(a, b, [o[:-1] for o in out])
    for o, e in zip(out, m):
        o[-1] = e[-1]
    return out


def _running(m):
    """Top rows of the products m[i] @ ... @ m[0], i = 0..n-1, one matrix
    at a time in a Python loop over complex scalars: below _TAIL matrices
    this is faster than the numpy calls of one more level of the scan."""
    import numpy as np

    xs, ys = (e.tolist() for e in m)
    a, b = xs[0], ys[0]
    out = [(a, b)]
    for x, y in zip(xs[1:], ys[1:]):
        a, b = x * a - y * b.conjugate(), x * b + y * a.conjugate()
        out.append((a, b))
    return list(np.array(out).T)


def _prefix(m):
    """Top rows of the prefix products m[i] @ ... @ m[0], i = 0..n-1, in
    O(n) products (Blelloch's work-efficient scan): the pairs of _pairs are
    scanned at half the length, which gives every odd entry, and each even
    entry past the first is one more product, m[2i] times the entry before.
    About 2n products in 2 log2(n) passes, where a log-depth Hillis-Steele
    scan takes n log2(n). A level of at most _TAIL matrices is finished by
    _running."""
    import numpy as np

    n = len(m[0])
    if n <= _TAIL:
        return _running(m)
    s = _prefix(_pairs(m))  # s[j] ends at m[2j+1], or at a carried last m
    fill = _matmul([e[2::2] for e in m], [v[:(n - 1) // 2] for v in s])
    out = [np.empty_like(e) for e in m]
    for o, e, v, f in zip(out, m, s, fill):
        o[0], o[1::2], o[2::2] = e[0], v[:n // 2], f
    return out


def _after(m, carry):
    """m with its first matrix right-multiplied by carry, in place, so that
    a product over m starts from carry."""
    for e, v in zip(m, _matmul([e[:1] for e in m], carry)):
        e[:1] = v
    return m


def _propagators(model: LorentzianModel, t_start, h, steps):
    """Yield (start, stop, P, C) for each chunk of at most _CHUNK steps.

    P holds the top rows of the RK4 propagators P_n = M_{n-1} ... M_0,
    n = start+1..stop; C that of the one propagator of the coarse run
    (steps of 2h) from t_start to t_start + stop h.

    A(t) is evaluated once per chunk, as arrays on its share of the run's
    half-step grid t_start + k h/2. The run's first step matrix is taken
    times P_start, carried over from the chunk before, and P is the
    work-efficient prefix product of the chunk (_prefix). The coarse run's
    2h steps read every other point (t_n, t_n + h, t_n + 2h); _CHUNK is
    even, and an odd last chunk's unpaired h-step enters it as the run's
    own matrix. Only its endpoint is checked, so its chunk's step matrices,
    the first taken times the C before, are reduced by _pairs, the pairing
    step of that scan, to at most _TAIL matrices, and _running multiplies
    those into the one matrix C. Memory stays O(_CHUNK).
    """
    import numpy as np

    run = coarse = np.array([1, 0], dtype=complex)[:, None]  # I
    for start in range(0, steps, _CHUNK):
        stop = min(start + _CHUNK, steps)
        t = t_start + np.arange(2 * start, 2 * stop + 1) * (h / 2)
        u, phase = model.coupling(t), model.phase(t)
        for name, v in (("coupling", u), ("phase", phase)):
            if np.iscomplexobj(v):
                raise ValueError(f"the pulse's {name} must be real, got complex values")
        # p = -i u e^{-i phase}; a model may return scalars, as for a flat pulse
        p = np.empty(t.shape, dtype=complex)
        p.real, p.imag = 0 - u * np.sin(phase), -(u * np.cos(phase))
        m = _step_matrices(p, h)
        odd = (stop - start) % 2
        doubled = _step_matrices(p[:len(p) - 2 * odd:2], 2 * h)
        if odd:  # the unpaired last h-step, before _after may change m[0]
            doubled = [np.append(d, e[-1]) for d, e in zip(doubled, m)]
        P = _prefix(_after(m, run))
        run = [e[-1:] for e in P]
        coarse = _after(doubled, coarse)
        while len(coarse[0]) > _TAIL:
            coarse = _pairs(coarse)
        coarse = [e[-1:] for e in _running(coarse)]
        yield start, stop, P, coarse


def _apply(P, y0):
    """(a1, a2) = P_n y0, shaped (stack..., n), from P_n's top row; 0 - m01*
    keeps a cancelled lower entry +0.0. Each state of y0 broadcasts alone
    against the time axis, so a stacked run repeats every single run."""
    y1, y2 = y0[..., 0, None], y0[..., 1, None]
    m00, m01 = P
    return m00 * y1 + m01 * y2, (0 - m01.conjugate()) * y1 + m00.conjugate() * y2


def integrate_rk(model: LorentzianModel, t_start: float, t_end: float,
                 steps: int = DEFAULT_STEPS, init=(1 + 0j, 0j)) -> Trajectory:
    """Classical fixed-step RK4 integration of the two-state system.

    init is one state (a1, a2) or a stack of states along its first axis,
    each integrated exactly as it would be alone; a1 and a2 of the result
    then carry one row per state. Step doubling estimates the endpoint's
    error as max |endpoint_h - endpoint_2h| / 15 (RK4 is of order 4), the
    result's step_error; above 1e-8 StepTooCoarseError is raised. The pulse
    must be real: a coupling or phase of complex type raises ValueError.
    """
    import numpy as np

    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(f"steps must be an integer, got {steps!r}") from None
    if steps < 100:
        raise ValueError("steps must be at least 100")
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError("time range must be finite")
    if t_start == t_end:
        raise ValueError(f"time range is empty: t_start = t_end = {t_start}")
    y0 = np.asarray(init, dtype=complex)
    if y0.ndim == 0 or y0.shape[-1] != 2:
        raise ValueError(f"init must hold states (a1, a2) on its last axis, "
                         f"got shape {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("init must be finite")
    h = (t_end - t_start) / steps
    a1, a2 = np.empty((2, *y0.shape[:-1], steps + 1), dtype=complex)
    a1[..., 0], a2[..., 0] = y0[..., 0], y0[..., 1]  # P_0 = I
    for start, stop, P, coarse in _propagators(model, t_start, h, steps):
        a1[..., start + 1:stop + 1], a2[..., start + 1:stop + 1] = _apply(P, y0)
    c1, c2 = _apply(coarse, y0)
    error = float(np.max(np.abs([a1[..., -1:] - c1, a2[..., -1:] - c2]))) / 15
    if not error <= STEP_ERROR_TOL:  # a NaN endpoint fails too
        raise StepTooCoarseError(
            f"the endpoint's estimated step error {error:.3e} > {STEP_ERROR_TOL}")
    return Trajectory(times=t_start + np.arange(steps + 1) * h, a1=a1, a2=a2,
                      step_error=error)


class ClosedForm:
    """Evaluator for a2(t) = z^{alpha1} (z-1)^{alpha2} u(z(t)) with a series
    solution u built once. Construct via closed_form_solution()."""

    def __init__(self, model: LorentzianModel, reduction: TwoStateReduction,
                 sol: SeriesSolution):
        self.model = model
        self.reduction = reduction
        self.sol = sol

    def _prefactor_log(self, t: float) -> complex:
        r = math.sqrt(1 + t * t) / 2  # |z| = |z-1| on the path
        th = math.atan(t)
        log_z = complex(math.log(r), th)
        log_zm1 = complex(math.log(r), -math.pi - th)
        return self.reduction.exp_alpha1 * log_z + self.reduction.exp_alpha2 * log_zm1

    def value(self, t):
        """a2 at t, or at every time of a 1-D array t: the series is then
        summed at all of them in one array pass per basis function."""
        if getattr(t, "ndim", 0) == 0:
            return self.value_and_derivatives(t)[0]
        import numpy as np

        t = np.asarray(t, dtype=float)
        u, _ = eval_series(self.sol, 0.5 + 0.5j * t)  # z_of_t at every t, exactly
        red = self.reduction
        log_r, th = np.log(np.sqrt(1 + t * t) / 2), np.arctan(t)  # as in _prefactor_log
        return np.exp(red.exp_alpha1 * (log_r + 1j * th)
                      + red.exp_alpha2 * (log_r - 1j * (np.pi + th))) * u

    def value_and_derivatives(self, t: float):
        """(a2, da2/dt, d2a2/dt2) by the chain rule through z(t)."""
        red = self.reduction
        z = red.z_of_t(t)
        u, u1, u2, _ = eval_series_with_derivatives(self.sol, z)
        pref = cmath.exp(self._prefactor_log(t))
        zdot = 0.5j
        g = (red.exp_alpha1 / z + red.exp_alpha2 / (z - 1)) * zdot
        gp = (-red.exp_alpha1 / z ** 2 - red.exp_alpha2 / (z - 1) ** 2) * zdot * zdot
        a2 = pref * u
        d1 = pref * (g * u + zdot * u1)
        d2 = pref * ((g * g + gp) * u + 2 * g * zdot * u1 + zdot * zdot * u2)
        return a2, d1, d2


def closed_form_solution(model: LorentzianModel,
                         family: Family = Family.B3_ThreeTerm) -> ClosedForm:
    """Build the terminated series solution once and wrap it for evaluation
    along t: termination.finite_solution of the reduced equation. Off the
    termination lines there is no finite closed form: ConditionNotMetError.
    """
    red = reduce_to_che(model)
    return ClosedForm(model, red, finite_solution(red.che, family))


def equation_residual_in_t(model: LorentzianModel, cf: ClosedForm, t: float) -> float:
    """Relative residual of the second-order equation for a2 at time t:
    a2'' + (-i ddelta/dt - U'/U) a2' + U^2 a2 = 0."""
    a2, d1, d2 = cf.value_and_derivatives(t)
    u = model.coupling(t)
    udot_over_u = -2 * t / (1 + t * t)
    res = d2 + (-1j * model.detuning_rate(t) - udot_over_u) * d1 + u * u * a2
    return abs(res) / max(1.0, abs(a2), abs(d1), abs(d2))


@dataclass(frozen=True)
class MatchResult:
    """Closed form decomposed against the RK solution basis.

    lam and mu are the coefficients of the RK trajectories started from
    (1,0) and (0,1) at the anchor; max_deviation is the largest absolute
    difference between the closed form and the matched combination over the
    sample times; closed_form is the evaluator that was matched. norm_drift
    and step_error are those of the RK basis trajectories."""

    closed_form: ClosedForm
    max_deviation: float
    lam: complex
    mu: complex
    anchor: float
    sample_times: np.ndarray
    closed: np.ndarray
    combined: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    norm_drift: float
    step_error: float


def match_against_rk(model: LorentzianModel,
                     family: Family = Family.B3_ThreeTerm,
                     t_start: float = -5.0, t_end: float = 5.0,
                     steps: int = DEFAULT_STEPS, samples: int = 101) -> MatchResult:
    """Fit the closed form in the basis of two RK trajectories and measure
    the worst-case deviation along the window.

    The basis trajectories start from (1,0) and (0,1) at t_start and are
    integrated as one stacked run. The anchor uses the closed form's value
    and t-derivative there; the a2-derivative of a basis trajectory is
    -i U e^{i delta} a1 from the first-order system, so with the identity
    as starting states the value fixes mu and the derivative fixes lam.
    Off the termination lines there is no closed form to match, and
    ConditionNotMetError is raised before any integration, and ValueError
    where samples is below 2: a lone sample is the anchor, where the fit
    matches by construction.
    """
    import numpy as np

    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    cf = closed_form_solution(model, family)
    traj = integrate_rk(model, t_start, t_end, steps, init=np.eye(2))
    c0, c0dot, _ = cf.value_and_derivatives(t_start)
    coupling0 = -1j * model.coupling(t_start) * cmath.exp(1j * model.phase(t_start))
    lam, mu = c0dot / coupling0, c0
    idx = np.linspace(0, len(traj.times) - 1, samples).round().astype(int)
    ts = traj.times[idx]
    closed = cf.value(ts)
    combined = lam * traj.a2[0, idx] + mu * traj.a2[1, idx]
    dev = float(np.max(np.abs(closed - combined)))
    p1 = np.abs(traj.a1[0, idx]) ** 2
    p2 = np.abs(traj.a2[0, idx]) ** 2
    return MatchResult(closed_form=cf, max_deviation=dev, lam=complex(lam),
                       mu=complex(mu), anchor=t_start, sample_times=ts,
                       closed=closed, combined=combined, p1=p1, p2=p2,
                       norm_drift=traj.norm_drift(),
                       step_error=traj.step_error)


def return_spectrum_relation(model: LorentzianModel, N: int) -> float:
    """Distance of the model's q from the termination spectrum of the
    reduced equation (q_spectrum's roots, read off condition_tridiagonal
    with no series built), normalized by the spectrum scale: near zero
    where the series genuinely terminates. ConditionNotMetError unless
    R = N+1 (delta = 1-R = -N).
    """
    import numpy as np

    che = reduce_to_che(model).che
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, N)
    check_condition(che, Family.B3_ThreeTerm, cond)
    T, shift = condition_tridiagonal(che, cond)
    roots = [complex(lam + shift) for lam in np.linalg.eigvals(T)]
    return min(abs(che.q - r) for r in roots) / max(1.0, max(abs(r) for r in roots))


def return_points(U0: float, Delta1: float, N: int) -> list[float]:
    """Real Delta0, ascending, where the reduced b3 series terminates at N
    for fixed (U0, Delta1): the return points and the trivial Delta0 = 0.

    ConditionNotMetError unless R = N+1, before any matrix is built. The
    condition is det M = 0, M = T - (q - shift) I with (T, shift) its
    condition_tridiagonal. At alpha = 0, M = A + Delta0 B, read off at
    Delta0 = +-1. Column 0 of A is zero and B_00 = R + Delta1/2 > 0, which
    splits off Delta0 = 0; the rest are 1/mu for the nonzero eigenvalues mu
    of -A'^-1 B' (row and column 0 dropped). A' is upper triangular with
    diagonal k(k+1), never singular. An eigenvalue with |mu| <= (N+1) 2^-52
    max|mu| counts as zero: B' is singular to rounding there (sqrt(8), -2,
    N = 2 rounds R to 3 + 4e-16), and Delta0 = inf is no point. A point
    within RELATION_TOL of the real axis counts as real.
    """
    import numpy as np

    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, N)
    ches = [reduce_to_che(LorentzianModel(U0, d0, Delta1)).che for d0 in (1.0, -1.0)]
    check_condition(ches[0], Family.B3_ThreeTerm, cond)
    up, down = (T - (che.q - shift) * np.eye(N + 1)
                for che in ches for T, shift in [condition_tridiagonal(che, cond)])
    A, B = (up + down) / 2, (up - down) / 2
    mu = np.linalg.eigvals(-np.linalg.solve(A[1:, 1:], B[1:, 1:]))
    floor = (N + 1) * 2.0 ** -52 * np.max(np.abs(mu), initial=0.0)
    points = [0j] + [1 / m for m in mu if abs(m) > floor]
    return sorted(float(r.real) for r in points
                  if abs(r.imag) <= RELATION_TOL * max(1.0, abs(r)))


def _clamp(d0: float) -> float:
    """d0 kept at least DELTA0_CLAMP away from 0, so eps = -2 d0 != 0."""
    return math.copysign(max(abs(d0), DELTA0_CLAMP), d0)


def locate_return_delta0(U0: float, Delta1: float, N: int,
                         delta0_min: float, delta0_max: float):
    """(delta0, residual): the return point in [delta0_min, delta0_max]
    with the smallest return_spectrum_relation, and that relation.

    The point is clamped to |Delta0| >= DELTA0_CLAMP. A non-finite or
    reversed bracket raises ValueError; a bracket without a return point,
    or whose best relation is above RELATION_TOL, raises ConditionNotMetError.
    """
    if not -math.inf < delta0_min <= delta0_max < math.inf:  # nan fails too
        raise ValueError(f"bracket [{delta0_min}, {delta0_max}] must be finite "
                         f"and ascending")
    inside = [_clamp(d0) for d0 in return_points(U0, Delta1, N)
              if delta0_min <= d0 <= delta0_max]
    relation, delta0 = min(
        ((return_spectrum_relation(LorentzianModel(U0, d0, Delta1), N), d0)
         for d0 in inside), default=(math.inf, None))
    if relation > RELATION_TOL:
        raise ConditionNotMetError(
            f"no return point in [{delta0_min}, {delta0_max}]: of its "
            f"{len(inside)} real roots, the best relation {relation:.3e} "
            f"is above {RELATION_TOL:.0e}")
    return delta0, relation


def scan_return_delta0(U0: float, Delta1: float, N: int,
                       delta0_min: float, delta0_max: float,
                       points: int = 81):
    """locate_return_delta0's (delta0, residual) with its errors, after
    return_spectrum_relation on an evenly spaced grid of `points` values
    over the bracket, each clamped like the located point: returns
    (grid, residuals, delta0, residual).
    """
    import numpy as np

    delta0, relation = locate_return_delta0(U0, Delta1, N, delta0_min, delta0_max)
    grid = np.linspace(delta0_min, delta0_max, points)
    vals = [return_spectrum_relation(LorentzianModel(U0, _clamp(d0), Delta1), N)
            for d0 in grid]
    return grid, vals, delta0, relation
