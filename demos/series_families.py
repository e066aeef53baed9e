"""Build the expansion families on a termination line and check them against
the power-series oracle; then show why a generic forward build (q off every
spectrum) is only a formal object.

The families expand the solution in Kummer functions. On a termination line
the coefficient ladder cuts off and the finite sum genuinely solves the
equation; off the lines the forward-only ladder encodes the recurrence but
not a solution, and the residual makes that visible immediately.
"""

from heunkummer import (
    CheParams,
    Family,
    build_series,
    eval_series,
    eval_series_with_derivatives,
    frobenius_coefficients,
    frobenius_eval,
    q_spectrum,
    relative_residual,
    terminated_solution,
)
from heunkummer.termination import KIND_DELTA_INT, TerminationCondition


def rel_residual(sol, z):
    u, u1, u2, _ = eval_series_with_derivatives(sol, z)
    return relative_residual(sol.params, u, u1, u2, z)


# delta = -1 puts every family on the N = 1 termination case once q sits on
# the matching spectrum root
base = CheParams(2.5, -1, 1, 1, 0)
cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
spec = q_spectrum(base, Family.A2_ThreeTerm, cond)
print("a2 spectrum at (gamma, delta, eps, alpha) = (2.5, -1, 1, 1), N = 1:")
for root, ok in zip(spec.roots, spec.verified):
    print(f"  q = {root}   truncation verified: {ok}")

q = spec.roots[0]
p = CheParams(2.5, -1, 1, 1, q)
print(f"\ntruncated build at q = {q.real}:")
sol = terminated_solution(p, Family.A2_ThreeTerm, cond)
print("  terminated:", sol.terminated, " terminal index:", sol.terminal_index)
print("  coefficients:", [f"{c.real:+.6f}" for c in sol.coefficients])

frob = frobenius_coefficients(p, 80)
anchor_s = eval_series(sol, 0.1)[0]
anchor_f = frobenius_eval(frob, 0.1)[0]
print("  agreement with the power-series oracle, both normalized at z = 0.1:")
for z in (0.2, 0.3, 0.4):
    u_s = eval_series(sol, z)[0] / anchor_s
    u_f = frobenius_eval(frob, z)[0] / anchor_f
    print(f"    z = {z}: series {u_s.real:+.12f}  oracle {u_f.real:+.12f}"
          f"  |diff| {abs(u_s - u_f):.3e}")

print("  equation residual at z = 0.3:", f"{rel_residual(sol, 0.3):.3e}")

# the two-term family lives on its own constraint line q = alpha - delta*eps
p1 = CheParams(2.2, 0, 0.8, -2.5, -2.5)
sol1 = build_series(p1, Family.A1_TwoTerm, 400)
print("\na1 on q = alpha - delta*eps, 400 terms:")
print("  equation residual at z = 0.25:", f"{rel_residual(sol1, 0.25):.3e}")

# off every termination line the forward ladder is formal: the residual
# plateaus instead of converging
pf = CheParams(2.3, -1, 1.1, 0.7, 0.9)
print("\ngeneric q = 0.9 (no termination): residual at z = 0.3 by series length")
for n in (100, 200, 400):
    solf = build_series(pf, Family.A2_ThreeTerm, n)
    print(f"  N = {n:3d}: residual {rel_residual(solf, 0.3):.6f}")
print("flat residual = the sum is not converging to a solution; use a"
      " spectrum root or the oracle instead")
