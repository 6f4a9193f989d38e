"""The stage recurrence at work: exact bookkeeping, quadratic decay.

Two runs of the same Newton-type iteration:

1.  Exact mode on the flagship problem -- two degrees of freedom with
    frequencies (1, 987/610) and perturbation q1^2 q2 + p1^3, truncated
    at degree 8.  Every stage solves a homological equation against the
    quadratic model, absorbs the resonant part into the model, and
    conjugates with the flow of the generator.  The trace shows the
    perturbation order marching up one degree per stage and the smallest
    divisor met on the way, all as exact rationals.

2.  Float mode with the window opened fully from the start, which is
    the genuinely quadratic regime: the order of the remaining
    perturbation follows 3 -> 4 -> 7 -> 13 (each stage roughly doubles
    the distance past the model), and the log of its norm drops faster
    each stage.

The run ends with the invariant-fiber certificate: all residual terms
carry at least two action factors, so the complex fiber {q = 0} of the
model survives in the transformed coordinates.
"""

import math
from fractions import Fraction

from kamtori.kamengine import KamProblem, fiber_normalize, kam_iterate
from kamtori.poisson import SymplecticLayout

print("=== exact flagship run (alpha = (1, 987/610), N = 8) ===")
lay2 = SymplecticLayout(2)
N = 8
phi = Fraction(987, 610)
H = (lay2.monomial(Fraction(1), qexp=(1, 0), pexp=(1, 0), trunc_degree=N)
     + lay2.monomial(phi, qexp=(0, 1), pexp=(0, 1), trunc_degree=N)
     + lay2.monomial(Fraction(1), qexp=(2, 1), trunc_degree=N)
     + lay2.monomial(Fraction(1), pexp=(3, 0), trunc_degree=N))
fib = fiber_normalize(H)
print(f"{'stage':>5} {'ord(b_n)':>8} {'min divisor':>14} {'gen terms':>10}")
for st in fib.trace:
    div = "-" if st.min_divisor is None else str(st.min_divisor)
    gen_terms = len(st.u_n.generator.coeffs) if st.u_n is not None else 0
    print(f"{st.stage:>5} {str(st.ord_b):>8} {div:>14} {gen_terms:>10}")
print(f"success: {fib.final.success}, certificate ok: {fib.certificate.ok}")
print(f"generators applied: {len(fib.transform)}")
print()

print("=== float mode, full window: quadratic order growth ===")
lay1 = SymplecticLayout(1)
M = 16
a = lay1.monomial(1.0, qexp=(1,), pexp=(1,), trunc_degree=M)
b = (lay1.monomial(1.0, qexp=(3,), trunc_degree=M)
     + lay1.monomial(1.0, pexp=(3,), trunc_degree=M))
final, trace = kam_iterate(KamProblem(layout=lay1, a=a, b=b, base_degree=M))
print(f"{'stage':>5} {'ord(b_n)':>8} {'log |b_n|_0.25':>15}")
for st in trace:
    if st.b_n is not None and st.b_n:
        log_norm = f"{math.log(st.b_n.sup_norm_bound(0.25)):15.2f}"
    else:
        log_norm = f"{'-':>15}"
    print(f"{st.stage:>5} {str(st.ord_b):>8} {log_norm}")
print(f"success: {final.success}")
print()
print("Orders 3, 4, 7, 13: past the first stage each step roughly")
print("doubles the order gap to the model -- the hallmark of a")
print("Newton scheme surviving the derivative loss of the bracket.")
