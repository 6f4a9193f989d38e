"""Self-test of the benchmark's oracles: each check accepts a right value
and rejects a wrong one.

    python3 perfbench/check_oracles.py

Run from the root of a kamtori checkout.  Exits 1 and names the check
that let a wrong value through (or rejected a right one).  Takes a few
seconds; the file name keeps pytest from collecting it.
"""

import math
import os
import sys
import types
from fractions import Fraction
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from oracles import (INTEGRABLE_FREQ_TOL, averaged_frequencies,  # noqa: E402
                     bruno_partial_sum, check_actions_close,
                     check_actions_equal, check_bruno, check_density_plateau,
                     check_density_trend, check_ideal_square, check_quartic,
                     check_scan, check_sigma, check_strips,
                     disc_lattice_count, float_center_margins, pure_actions,
                     sigma_by_columns)

PHI = (1 + 5 ** 0.5) / 2
failures = []


def accepts(what, problems):
    if problems:
        failures.append(f"{what}: rejected a right value: {problems}")


def rejects(what, problems):
    if not problems:
        failures.append(f"{what}: accepted a wrong value")


def brute_sigma(alpha, k_max):
    R = 2 ** k_max
    out = []
    for k in range(k_max + 1):
        out.append(min(abs(sum(a * i for a, i in zip(alpha, idx)))
                       for idx in product(range(-R, R + 1), repeat=len(alpha))
                       if 0 < sum(i * i for i in idx) <= 4 ** k))
    return out


def small_divisors():
    from kamtori import arithmetic
    for alpha in ([Fraction(1), Fraction(987, 610)],
                  [Fraction(3, 2), Fraction(-7, 5), Fraction(11, 13)]):
        k = 3
        oracle = sigma_by_columns(alpha, k)
        if oracle != brute_sigma(alpha, k):
            failures.append(f"sigma_by_columns({alpha}) disagrees with the "
                            "box brute force")
        accepts("sigma", check_sigma(list(arithmetic.sigma(alpha, k).values),
                                     oracle))
        wrong = list(oracle)
        wrong[-1] += Fraction(1, 610)
        rejects("sigma", check_sigma(wrong, oracle))

    values = sigma_by_columns([Fraction(1), Fraction(987, 610)], 6)
    ps = arithmetic.bruno_diagnostic(arithmetic.DecaySequence(values), 6)
    accepts("bruno", check_bruno(ps.partial_sum, ps.verdict, values))
    rejects("bruno", check_bruno(bruno_partial_sum(values) * (1 + 1e-9),
                                 "inconclusive", values))
    rejects("bruno", check_bruno(ps.partial_sum, "summable", values))

    flat = float_center_margins((1.0, PHI), 8, 0)
    rise = float_center_margins((1.0, PHI), 8, 1)
    if flat != (0.0, 1) or not rise[0] > 0:
        failures.append(f"centre margins {flat}, {rise}")
    accepts("density plateau",
            check_density_plateau([0.5009, 0.4991, 0.5], 100000, *flat))
    rejects("density plateau",
            check_density_plateau([0.25, 0.25, 0.25], 100000, *flat))
    rejects("density plateau",
            check_density_plateau([0.5, 0.5, 0.5], 100000, *rise))
    accepts("density trend", check_density_trend([0.93, 0.99, 1.0], rise[0]))
    rejects("density trend", check_density_trend([1.0, 0.9, 1.0], rise[0]))
    rejects("density trend", check_density_trend([0.5, 0.5, 0.5], rise[0]))
    rejects("density trend", check_density_trend([1.0, 1.0, 1.0], flat[0]))

    for R in (1, 5, 16):
        brute = sum(1 for x in range(-R, R + 1) for y in range(-R, R + 1)
                    if x * x + y * y <= R * R)
        if disc_lattice_count(R) != brute:
            failures.append(f"disc_lattice_count({R}) != {brute}")
    count = (disc_lattice_count(2 ** 4) - 1) // 2
    accepts("strips", check_strips(count, 3, 4, 3))
    rejects("strips", check_strips(count + 1, 3, 4, 3))
    rejects("strips", check_strips(count, 2, 4, 3))


def normal_forms():
    from kamtori.birkhoff import (COMPLEX_MORSE, REAL_ELLIPTIC,
                                  EllipticHamiltonian, birkhoff_normalize)
    from kamtori.jets import Jet
    from kamtori.kamengine import fiber_normalize
    from kamtori.poisson import SymplecticLayout

    lay = SymplecticLayout(2)
    coeffs = {(1, 0, 1, 0): Fraction(1), (0, 1, 0, 1): Fraction(987, 610),
              (2, 1, 0, 0): Fraction(1, 3), (0, 0, 3, 0): Fraction(-2, 7),
              (1, 1, 1, 1): Fraction(1, 5), (0, 2, 2, 0): Fraction(3, 10)}
    H = Jet(4, 4, coeffs, blocks=lay.blocks)
    fib = fiber_normalize(H)
    res = birkhoff_normalize(EllipticHamiltonian(
        H, coordinate_mode=COMPLEX_MORSE), 2)
    normalized = dict(fib.normalized.coeffs)
    actions = pure_actions(normalized, 2, 2)
    A = dict(res.A.coeffs)
    accepts("ideal square", check_ideal_square(normalized, 2))
    rejects("ideal square",
            check_ideal_square({**normalized, (2, 1, 1, 0): Fraction(1)}, 2))
    accepts("fiber vs Birkhoff", check_actions_equal(actions, A, "actions"))
    wrong = {**A, (1, 1): A.get((1, 1), 0) + Fraction(1, 10 ** 9)}
    rejects("fiber vs Birkhoff", check_actions_equal(actions, wrong,
                                                     "actions"))
    floats = {m: float(c) for m, c in A.items()}
    accepts("float vs exact", check_actions_close(floats, A, "actions"))
    nudged = {m: c * (1 + 1e-9) for m, c in floats.items()}
    rejects("float vs exact", check_actions_close(nudged, A, "actions"))
    rejects("float vs exact", check_actions_close(
        {m: c for m, c in floats.items() if m != (1, 1)}, A, "actions"))

    from kamtori import poisson
    from workloads import quartic_oscillator
    quartic = quartic_oscillator(types.SimpleNamespace(poisson=poisson))
    res = birkhoff_normalize(EllipticHamiltonian(
        quartic, coordinate_mode=REAL_ELLIPTIC), 4)
    A = dict(res.A.coeffs)
    accepts("quartic", check_quartic(A, not res.residual))
    rejects("quartic", check_quartic({**A, (2,): Fraction(3, 4)}, True))
    rejects("quartic", check_quartic(A, False))


def torus():
    a = (1.0, PHI)
    x0s = [(0.1, -0.2, 0.3, 0.05), (-0.3, 0.1, 0.0, 0.2)]
    for eps, r, tol in ((0.0, 0.5, INTEGRABLE_FREQ_TOL),
                        (0.05, 0.5, 0.05 ** 2 * 0.5 ** 4)):
        exact = [(x, [averaged_frequencies(x, a, eps)] * 2, "torus-like")
                 for x in x0s]
        accepts("scan", check_scan(exact, a, eps, r, tol))
        off = [(x, [tuple(f + 2 * tol for f in w[0])] * 2, c)
               for x, w, c in exact]
        rejects("scan", check_scan(off, a, eps, r, tol))
        chaotic = exact[:1] + [(x0s[1], exact[1][1], "chaotic/escaping")]
        rejects("scan", check_scan(chaotic, a, eps, r, tol))
    # the unperturbed frequencies of a perturbed orbit are off by eps I
    x = (0.3, 0.3, 0.2, 0.2)
    rejects("scan", check_scan([(x, [averaged_frequencies(x, a, 0.0)] * 2,
                                 "torus-like")], a, 0.05, 0.5,
                               0.05 ** 2 * 0.5 ** 4))
    if not math.isclose(averaged_frequencies(x, a, 0.05)[0],
                        -(2 + 0.05 * (0.3 ** 2 + 0.2 ** 2) / 2)):
        failures.append("averaged frequencies do not follow I = (q^2+p^2)/2")


def main():
    small_divisors()
    normal_forms()
    torus()
    for f in failures:
        print(f"check_oracles: {f}", file=sys.stderr)
    print("check_oracles: " + ("FAILED" if failures else "all checks "
                               "accept right values and reject wrong ones"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
