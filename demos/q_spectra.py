"""Termination detection and accessory-parameter spectra.

A family's series cuts off after N + 1 terms only when two things line up:
a parameter combination sits at a nonpositive integer (the condition kind),
and q is a root of the degree N + 1 polynomial a_{N+1}(q) = 0. This walks
the detection step, prints a few spectra with their verification flags, and
checks the finite sums that are polynomials in z against the equation.
"""

from heunkummer import (
    CheParams,
    Family,
    enumerate_termination_conditions,
    eval_series_with_derivatives,
    q_spectrum,
    relative_residual,
    terminated_solution,
)
from heunkummer.termination import (
    KIND_ALPHA_OVER_EPS,
    KIND_DELTA_INT,
    KIND_GAMMA_DELTA_ALPHA,
    TerminationCondition,
)

# delta = -1 and alpha/eps = -2 are admissible at once; detection reports both
p = CheParams(2.5, -1, 1.1, -2.2, 0)
print("conditions detected for (2.5, -1, 1.1, -2.2):")
for cond in enumerate_termination_conditions(p, Family.A2_ThreeTerm):
    print(f"  kind = {cond.kind:16s} N = {cond.N}")


def show_spectrum(label, params, family, cond, choice=None):
    spec = q_spectrum(params, family, cond, alpha0_choice=choice)
    print(f"\n{label}")
    for root, ok in zip(spec.roots, spec.verified):
        print(f"  q = {root:.15g}   verified: {ok}")
    return spec


show_spectrum("a2, delta integer, N = 1 at (2.5, -1, 1, 1):",
              CheParams(2.5, -1, 1, 1, 0), Family.A2_ThreeTerm,
              TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1))

show_spectrum("b3, alpha/eps integer, N = 1 at (2.5, 0.3, 1, -1):",
              CheParams(2.5, 0.3, 1, -1, 0), Family.B3_ThreeTerm,
              TerminationCondition(Family.B3_ThreeTerm, KIND_ALPHA_OVER_EPS, 1))

show_spectrum("c, gamma+delta-alpha/eps integer, N = 1 at (1.3, 0.4, 1, 2.7):",
              CheParams(1.3, 0.4, 1, 2.7, 0), Family.C_ThreeTerm,
              TerminationCondition(Family.C_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, 1))

# complex roots come in conjugate pairs for real parameters
show_spectrum("c, delta integer, N = 1 at (1.6, -1, 0.9, 1.1) - complex pair:",
              CheParams(1.6, -1, 0.9, 1.1, 0), Family.C_ThreeTerm,
              TerminationCondition(Family.C_ThreeTerm, KIND_DELTA_INT, 1))

# alpha/eps termination of a2 walks every upper parameter alpha0 + n to a
# nonpositive integer, so each basis function, and with it the finite sum,
# is a polynomial in z of degree <= N
base = CheParams(1.4, 0.6, 1.3, -1.3, 0)
cond = TerminationCondition(Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, 1)
spec = q_spectrum(base, Family.A2_ThreeTerm, cond)
print("\npolynomial sums of the a2 alpha/eps case (1.4, 0.6, 1.3, -1.3):")
for root in spec.roots:
    p = CheParams(1.4, 0.6, 1.3, -1.3, root)
    sol = terminated_solution(p, Family.A2_ThreeTerm, cond)
    uppers = [sol.basis_parameters(n)[0].real
              for n in range(len(sol.coefficients))]
    u, u1, u2, _ = eval_series_with_derivatives(sol, 0.3)
    print(f"  q = {root:.15g}   upper parameters {uppers}   equation residual "
          f"at z = 0.3: {relative_residual(p, u, u1, u2, 0.3):.3e}")
