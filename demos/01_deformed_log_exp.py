"""The deformed logarithm/exponential pair
==========================================

log_q and exp_q form an inverse pair for every finite index q, reduce to
the classical log/exp exactly at q = 1, and live on the domain where the
bracket 1 + (1-q)*x stays positive.  This script walks the basic facts.
"""

import numpy as np

from qdeform import (
    DomainViolation,
    q_exp,
    q_exp_bracket,
    q_log,
    q_log_of_ratio,
)

print("A few point values")
print("  exp_0.5(6)   =", q_exp(0.5, 6.0), " (= (1 + 0.5*6)^2)")
print("  log_2(2)     =", q_log(2.0, 2.0), " (= 1 - 1/2)")
print("  exp_1.3(-1)  =", q_exp(1.3, -1.0))
print("  log_1(e)     =", q_log(1.0, np.e), " (classical branch)")

print("\nInverse pair: residual of log_q(exp_q(x)) - x")
for q in (0.5, 1.0, 1.7, 2.5):
    xs = [x for x in np.linspace(-2, 2, 9) if q_exp_bracket(q, x) > 1e-2]
    worst = max(abs(q_log(q, q_exp(q, x)) - x) for x in xs)
    print(f"  q = {q}: worst residual over {len(xs)} points = {worst:.2e}")

print("\nlog_q(y/x) from ln(y/x) as expm1((1-q) ln(y/x)) / (1-q), against q_log(y/x)")
for q, y, x in ((2.0, 4.0, 2.0), (1.0, 6.0, 2.0), (1.5, 9.0, 9.0)):
    print(f"  q={q}: q_log_of_ratio {q_log_of_ratio(q, y, x):+.12f}   "
          f"q_log of the quotient {q_log(q, y / x):+.12f}")

print("\nDomain boundary: exp_1.3 needs 1 - 0.3*x > 0")
try:
    q_exp(1.3, 4.0)
except DomainViolation as err:
    print("  exp_1.3(4) raises:", err)

print("\nOpt-in cutoff extension below q = 1 (continuous at the edge):")
print("  exp_0.5(-3, cutoff=True) =", q_exp(0.5, -3.0, cutoff=True))
