"""Tour of the 1F1 building block.

Evaluates the series at a few recognizable points, shows the polynomial
cutoff for nonpositive integer upper parameters, and sweeps the shipped
recurrence identities over a parameter box to confirm the residuals sit at
rounding level.
"""

import random

from heunkummer import IDENTITY_IDS, eval_1f1, identity_residual

print("recognizable values")
print("  1F1(1; 1; 1)      =", eval_1f1(1, 1, 1), " (e)")
print("  1F1(2.3; 1.7; 0)  =", eval_1f1(2.3, 1.7, 0))
print("  1F1(-1; 2; 1)     =", eval_1f1(-1, 2, 1), " (1 - x/2 at x = 1)")

# a = -m cuts the series after m + 1 terms, so tol cannot matter
loose = eval_1f1(-3, 1.4, 2.7, tol=1e-2)
tight = eval_1f1(-3, 1.4, 2.7, tol=1e-15)
print("\npolynomial cutoff at a = -3: tol-independent ->", loose == tight)

a, c, x, h = 1.2, 0.9, 0.5, 1e-6
print("\nderivative via the shift rule (a/c) 1F1(a+1; c+1; x):",
      (a / c) * eval_1f1(a + 1, c + 1, x))
print("central difference with h = 1e-6:                  ",
      (eval_1f1(a, c, x + h) - eval_1f1(a, c, x - h)) / (2 * h))

print("\nidentity sweep, 25 draws per identity, |x| <= 3")
rng = random.Random(5)
for identity in IDENTITY_IDS:
    worst = 0.0
    for _ in range(25):
        a = complex(rng.uniform(0.5, 2.5), rng.uniform(-0.4, 0.4))
        c = complex(rng.uniform(1.2, 2.5), rng.uniform(-0.4, 0.4))
        x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        worst = max(worst, identity_residual(identity, a, c, x))
    print(f"  {identity:4s} worst residual {worst:.3e}")
