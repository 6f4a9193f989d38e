"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints a single ``criterion N [name]: PASS/FAIL`` verdict line
and then asserts it, so a verbose test run shows exactly one line per
criterion.  Every expected value is produced by an independent oracle
computed inside this file (brute-force enumeration, angle averaging,
closed-form combinatorics) or is a structural property checked by direct
inspection -- never by the code under test.

Known result: the density-trend criterion (3) calibrates a = sigma(alpha)
at the ball center, and with the textbook allowance rho_k = 2^(-6k) the
scale-0 allowance 2^0 = 1 leaves the index (1, 0) with no slack there.
Its boundary y_1 = 1 passes through the center and keeps exactly half of
every ball, so the criterion asserts that closed-form 1/2 plateau.  It
also runs the allowance shifted one index, rho_k = 2^(-6(k+1)), which
leaves slack at every scale, and asserts the trend to 1 there.  Both are
tied to an in-test brute-force center margin; ``demos/05_density_trend.py``
shows the two runs side by side.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kamtori import arithmetic
from kamtori.birkhoff import (COMPLEX_MORSE, REAL_ELLIPTIC,
                              EllipticHamiltonian, birkhoff_normalize)
from kamtori.kamengine import (fiber_normalize, hadamard_quasi_inverse,
                               reste_inequalities_check)
from kamtori.poisson import (HamiltonianDerivation, SymplecticLayout,
                             bracket, check_symplectic, lie_exp)
from kamtori.torusverify import torus_scan

SEED = 20260819
PHI = (1 + 5 ** 0.5) / 2
F1 = Fraction(1)


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_rational_jet(rng, lay, trunc, max_deg, terms=4):
    jet = lay.zero(trunc)
    made = 0
    while made < terms:
        exps = rng.integers(0, 4, 2 * lay.n)
        if exps.sum() > max_deg:
            continue
        num = int(rng.integers(-9, 10)) or 1
        den = int(rng.integers(1, 8))
        jet = jet + lay.monomial(
            Fraction(num, den),
            qexp=tuple(int(e) for e in exps[:lay.n]),
            pexp=tuple(int(e) for e in exps[lay.n:]),
            trunc_degree=trunc)
        made += 1
    return jet


# --------------------------------------------------------- criterion 1

def test_criterion_01_sigma_matches_brute_force():
    # Independent oracle: enumerate every integer pair 0 < ||i||_2 <= 2^k,
    # take the float minimum of |i . alpha|, then decide the exact minimum
    # by re-evaluating all near-minimal candidates in Fraction arithmetic.
    # The float slack (1e-6 relative + 1e-9 absolute) exceeds the worst
    # rounding of the vectorized dot products by several orders.
    t0 = time.time()
    k_max = 10
    B = 2 ** k_max
    grid = np.arange(-B, B + 1)
    I1, I2 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    norm2 = I1.astype(np.int64) ** 2 + I2.astype(np.int64) ** 2
    keep = norm2 > 0
    I1, I2, norm2 = I1[keep], I2[keep], norm2[keep]
    annulus = np.searchsorted([4 ** k for k in range(k_max + 1)], norm2)
    order = np.argsort(annulus, kind="stable")
    I1, I2, annulus = I1[order], I2[order], annulus[order]
    # annulus k_max+1 holds the square-grid corners beyond radius 2^k_max;
    # they are outside every ball and must not enter the k_max block
    starts = list(np.searchsorted(annulus, np.arange(k_max + 2)))

    def brute_exact(alpha_fr):
        vals = np.abs(I1 * float(alpha_fr[0]) + I2 * float(alpha_fr[1]))
        out, best = [], np.inf
        for k in range(k_max + 1):
            lo, hi = starts[k], starts[k + 1]
            if hi > lo:
                best = min(best, float(vals[lo:hi].min()))
            cand = np.nonzero(vals[:hi] <= best * (1 + 1e-6) + 1e-9)[0]
            out.append(min(abs(alpha_fr[0] * int(I1[c])
                               + alpha_fr[1] * int(I2[c])) for c in cand))
        return out

    rng = np.random.default_rng(SEED)
    exact_fails = float_fails = 0
    for _ in range(20):
        draw = rng.uniform(0.5, 2.0, 2)
        alpha_fr = [Fraction(round(float(x) * 2 ** 24), 2 ** 24)
                    for x in draw]
        oracle = brute_exact(alpha_fr)
        lib_rational = arithmetic.sigma(alpha_fr, k_max)
        lib_float = arithmetic.sigma([float(x) for x in alpha_fr], k_max)
        exact_fails += list(lib_rational.values) != oracle
        float_fails += any(abs(float(lv) - float(ov)) > 1e-12
                           for lv, ov in zip(lib_float.values, oracle))
    elapsed = time.time() - t0
    ok = exact_fails == 0 and float_fails == 0 and elapsed < 30
    _verdict(1, "sigma-brute-force", ok,
             f"20 draws, k<=10, exact fails {exact_fails}, "
             f"float fails {float_fails}, {elapsed:.1f}s")


# --------------------------------------------------------- criterion 2

def test_criterion_02_lattice_lemma_transcription():
    # 50 random (alpha, i); half are tuned so |(alpha, i)| is a genuine
    # small divisor (~1e-5).  With a = |(alpha, i)| the explicit solution
    # (eps, t) must satisfy the shortest-vector bound delta <= eps and the
    # closed form eps = sqrt(2 a ||i||).  The flowed vector built from i
    # meets the bound with equality in real arithmetic, so the check
    # allows 1e-8 relative rounding headroom (observed worst ~2e-10).
    rng = np.random.default_rng(SEED)
    passes = 0
    for trial in range(50):
        i_vec = rng.integers(-30, 31, 2)
        while i_vec[1] == 0:
            i_vec = rng.integers(-30, 31, 2)
        alpha = rng.uniform(0.5, 2.0, 2)
        if trial % 2 == 0:
            alpha[1] = ((rng.uniform(1e-8, 1e-5) - i_vec[0] * alpha[0])
                        / i_vec[1])
        a = abs(float(i_vec[0] * alpha[0] + i_vec[1] * alpha[1]))
        if a == 0:
            passes += 1  # exact resonance excluded by the hypothesis
            continue
        i_norm = float(np.hypot(*i_vec))
        eps, t = arithmetic.lemma_eps_t(a, i_norm)
        formula_ok = abs(eps - math.sqrt(2 * a * i_norm)) <= 1e-12 * eps
        basis = arithmetic.lattice_basis([float(alpha[0]), float(alpha[1])])
        delta, _ = arithmetic.flow_and_shortest(basis, t, 256)
        passes += formula_ok and delta <= eps * (1 + 1e-8)
    _verdict(2, "lattice-lemma", passes == 50, f"{passes}/50")


# --------------------------------------------------------- criterion 3

def test_criterion_03_density_trend():
    # Shrinking-ball membership fractions around alpha = (1, golden) for the
    # class D_{rho a}, a = sigma(alpha), under two decay allowances.
    # Independent oracle: the brute-force center margin
    #   m_i = |<alpha, i>| - (rho a)_{e(i)},  0 < ||i|| <= 2^k_max,
    # with e(i) the smallest k such that ||i|| <= 2^k.  An index with
    # m_i > 0 cannot cut a ball of radius below m_i / ||i||, so only the
    # zero-margin indices survive as r -> 0.  One pair +-i with m_i = 0 is
    # one hyperplane through the center, which keeps exactly half of every
    # ball:
    #   rho_k = 2^(-6k):     rho_0 = 1 leaves i = (1, 0) with no slack, so
    #                        every fraction is the closed-form 1/2 within
    #                        4 binomial sigma;
    #   rho_k = 2^(-6(k+1)): slack at every scale, so the fractions rise
    #                        to 1.
    t0 = time.time()
    k_max, samples, radii = 8, 100000, (0.1, 0.01, 0.001)
    alpha = (1.0, PHI)
    a = arithmetic.sigma(alpha, k_max)
    ident = arithmetic.SmoothMap("identity", 2, 2, lambda x: x,
                                 is_identity=True)

    B = 2 ** k_max
    grid = np.arange(-B, B + 1)
    I1, I2 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    norm2 = I1.astype(np.int64) ** 2 + I2.astype(np.int64) ** 2
    keep = (norm2 > 0) & (norm2 <= 4 ** k_max)
    I1, I2, norm2 = I1[keep], I2[keep], norm2[keep]
    e_of_i = np.searchsorted([4 ** k for k in range(k_max + 1)], norm2)
    dots = np.abs(I1 * alpha[0] + I2 * alpha[1])

    def sweep(rho_values):
        threshold = np.array([a.values[k] * rho_values[k]
                              for k in range(k_max + 1)])
        margins = dots - threshold[e_of_i]
        rho = arithmetic.DecaySequence(rho_values)
        fractions = [arithmetic.density_estimate(ident, alpha, a, rho, r,
                                                 samples, k_max,
                                                 seed=SEED).fraction_in_class
                     for r in radii]
        # +-i give the same hyperplane
        hyperplanes = int((margins == 0).sum()) // 2
        return fractions, float(margins.min()), hyperplanes

    flat, flat_margin, flat_planes = sweep(
        [2.0 ** (-6 * k) for k in range(k_max + 1)])
    rise, rise_margin, _ = sweep(
        [2.0 ** (-6 * (k + 1)) for k in range(k_max + 1)])
    elapsed = time.time() - t0

    band = 4 * math.sqrt(0.25 / samples)
    plateau = (flat_margin == 0 and flat_planes == 1
               and all(abs(f - 0.5) <= band for f in flat))
    trend = (rise_margin > 0
             and all(lo <= hi for lo, hi in zip(rise, rise[1:]))
             and rise[-1] >= 0.95)
    ok = plateau and trend and elapsed < 300
    _verdict(3, "density-trend", ok,
             f"rho 2^(-6k): fractions {flat}, |f-1/2| <= {band:.4f}, "
             f"center margin {flat_margin:.3g} on {flat_planes} "
             f"hyperplane(s); rho 2^(-6(k+1)): fractions {rise}, "
             f"center margin {rise_margin:.3g}; {elapsed:.1f}s")


# --------------------------------------------------------- criterion 4

def test_criterion_04_poisson_algebra_exact():
    # Antisymmetry, Leibniz, Jacobi, exactly, on 100 random rational jet
    # triples.  Truncation order 18 keeps every double bracket of
    # degree <= 6 inputs below the cutoff, so the identities are tested
    # on the nose rather than modulo truncation.
    rng = np.random.default_rng(SEED)
    checked = 0
    for trial in range(100):
        lay = SymplecticLayout(1 + trial % 3)
        f = _random_rational_jet(rng, lay, 18, 6)
        g = _random_rational_jet(rng, lay, 18, 6)
        h = _random_rational_jet(rng, lay, 18, 6)
        anti = bracket(f, g, lay) == -bracket(g, f, lay)
        leib = (bracket(f, g * h, lay)
                == bracket(f, g, lay) * h + g * bracket(f, h, lay))
        jac = not (bracket(f, bracket(g, h, lay), lay)
                   + bracket(g, bracket(h, f, lay), lay)
                   + bracket(h, bracket(f, g, lay), lay))
        checked += anti and leib and jac
    _verdict(4, "poisson-exactness", checked == 100, f"{checked}/100")


# --------------------------------------------------------- criterion 5

def test_criterion_05_birkhoff_quartic_oscillator():
    # H = (p^2+q^2)/2 + q^4 normalized to order 8.  The degree-2 action
    # coefficient oracle is first-order averaging: with q =
    # sqrt(2I) cos(theta), <cos^4> = C(4,2)/4^2 = 3/8 exactly (Wallis),
    # so <q^4> = (2I)^2 * 3/8 = (3/2) I^2.
    lay = SymplecticLayout(1)
    H = (lay.monomial(Fraction(1, 2), qexp=(2,), trunc_degree=8)
         + lay.monomial(Fraction(1, 2), pexp=(2,), trunc_degree=8)
         + lay.monomial(F1, qexp=(4,), trunc_degree=8))
    res = birkhoff_normalize(EllipticHamiltonian(
        H, coordinate_mode=REAL_ELLIPTIC), 4)
    oracle = Fraction(2) ** 2 * Fraction(math.comb(4, 2), 4 ** 2)
    action_terms = dict(res.A.coeffs)
    residual_clean = not res.residual
    symplectic_defect = check_symplectic(res.coordinate_images(),
                                         res.layout)
    ok = (res.achieved_order == 8 and residual_clean
          and action_terms.get((2,)) == oracle
          and symplectic_defect == 0)
    _verdict(5, "birkhoff-conjugacy", ok,
             f"A2={action_terms.get((2,))} vs oracle {oracle}, "
             f"residual clean {residual_clean}, "
             f"symplectic defect {symplectic_defect}")


# --------------------------------------------------------- criterion 6

def test_criterion_06_quasi_inverse_identity():
    # Model pq with unit frequency: for EVERY nonresonant monomial
    # q^i p^j of degree <= 8, the bracket of the model with the
    # quasi-inverse generator must reproduce the monomial modulo the
    # squared action ideal (monomials with two action factors) --
    # exactly, by rational arithmetic and exponent inspection.
    lay = SymplecticLayout(1)
    model = lay.monomial(F1, qexp=(1,), pexp=(1,), trunc_degree=8)
    checked = failures = 0
    for d in range(0, 9):
        for i in range(d + 1):
            j = d - i
            if i == j:
                continue
            target = lay.monomial(F1, qexp=(i,), pexp=(j,), trunc_degree=8)
            u = hadamard_quasi_inverse([F1], target, lay)
            back = bracket(model, u.generator, lay)
            residual = dict(back.coeffs)
            for idx, c in target.coeffs.items():
                rem = residual.pop(idx, 0) - c
                if rem:
                    residual[idx] = rem
            in_ideal_square = all(
                sum(min(qe, pe) for qe, pe in zip(idx[:1], idx[1:])) >= 2
                for idx in residual)
            checked += 1
            failures += not in_ideal_square
    _verdict(6, "quasi-inverse", failures == 0 and checked == 40,
             f"{checked} monomials, {failures} failures")


# --------------------------------------------------------- criterion 7

def test_criterion_07_kam_flagship_run():
    # Full stage recurrence on the flagship problem, exact mode.  The
    # irrational frequency is represented by the Fibonacci convergent
    # 987/610 so that rational arithmetic stays exact; every divisor in
    # the degree-8 window is then a nonzero rational.
    lay = SymplecticLayout(2)
    N = 8
    phi = Fraction(987, 610)
    H = (lay.monomial(F1, qexp=(1, 0), pexp=(1, 0), trunc_degree=N)
         + lay.monomial(phi, qexp=(0, 1), pexp=(0, 1), trunc_degree=N)
         + lay.monomial(F1, qexp=(2, 1), trunc_degree=N)
         + lay.monomial(F1, pexp=(3, 0), trunc_degree=N))
    fib = fiber_normalize(H)

    orders = [st.ord_b for st in fib.trace if st.ord_b is not None]
    strictly_increasing = orders == sorted(set(orders))

    # Residual in the squared action ideal, certified by direct exponent
    # inspection (independent of the library's own certificate).
    off_model_ok = True
    kam_actions = {}
    for idx, coeff in fib.normalized.coeffs.items():
        qe, pe = idx[:2], idx[2:]
        if qe == pe:
            kam_actions[qe] = coeff
        elif sum(min(a_, b_) for a_, b_ in zip(qe, pe)) < 2:
            off_model_ok = False

    res = birkhoff_normalize(EllipticHamiltonian(
        H, coordinate_mode=COMPLEX_MORSE), N // 2)
    common = res.achieved_order // 2
    bk_actions = {tuple(e): c for e, c in res.A.coeffs.items()
                  if sum(e) <= common}
    kam_common = {e: c for e, c in kam_actions.items() if sum(e) <= common}
    ok = (fib.final.success and strictly_increasing and off_model_ok
          and kam_common == bk_actions)
    _verdict(7, "kam-flagship", ok,
             f"orders {orders}, resonant content "
             f"{ {e: str(c) for e, c in kam_common.items()} } agrees with "
             "the normal-form oracle")


# --------------------------------------------------------- criterion 8

def test_criterion_08_exponential_group_laws():
    # e^u e^{-u} = Id and e^{u+v} = e^u e^v for commuting u, v, exactly.
    # Two commuting families: generators depending on q only, and
    # generators depending on the actions p_k q_k only.  Commutativity is
    # itself verified ({g_u, g_v} = 0) before the law is tested.
    lay = SymplecticLayout(2)
    N = 8
    pairs = [
        (lay.monomial(Fraction(1, 3), qexp=(3, 0), trunc_degree=N),
         lay.monomial(Fraction(2, 5), qexp=(1, 2), trunc_degree=N)),
        (lay.monomial(Fraction(1, 2), qexp=(2, 0), pexp=(2, 0),
                      trunc_degree=N),
         lay.monomial(Fraction(3, 7), qexp=(1, 1), pexp=(1, 1),
                      trunc_degree=N)),
    ]
    rng = np.random.default_rng(SEED)
    targets = [lay.q(0, N), lay.p(1, N),
               _random_rational_jet(rng, lay, N, 4)]
    ok = True
    for g_u, g_v in pairs:
        ok = ok and not bracket(g_u, g_v, lay)
        u = HamiltonianDerivation(g_u, lay)
        v = HamiltonianDerivation(g_v, lay)
        w = HamiltonianDerivation(g_u + g_v, lay)
        for x in targets:
            ok = ok and lie_exp(u, lie_exp(-u, x)) == x
            ok = ok and lie_exp(w, x) == lie_exp(u, lie_exp(v, x))
    _verdict(8, "exp-group-laws", ok,
             "2 commuting families x 3 targets, exact")


# --------------------------------------------------------- criterion 9

def test_criterion_09_remainder_inequalities():
    # 50 random (u, x, s, tau) drawn by rejection until the
    # exponentiability guard holds; all five inequalities must pass on
    # every accepted sample (fitted level-1 constant, l1-majorant norms).
    rng = np.random.default_rng(SEED)
    lay = SymplecticLayout(1)
    accepted = ineq_failures = attempts = 0
    while accepted < 50 and attempts < 1000:
        attempts += 1
        gen = lay.zero(8)
        for _ in range(int(rng.integers(1, 3))):
            d = int(rng.integers(3, 6))
            iq = int(rng.integers(0, d + 1))
            gen = gen + lay.monomial(
                Fraction(int(rng.integers(-2, 3)) or 1,
                         int(rng.integers(200, 800))),
                qexp=(iq,), pexp=(d - iq,), trunc_degree=8)
        u = HamiltonianDerivation(gen, lay)
        x = _random_rational_jet(rng, lay, 8, 4, terms=3)
        s = Fraction(int(rng.integers(2, 6)), 10)
        tau = s + Fraction(int(rng.integers(2, 5)), 10)
        report = reste_inequalities_check(u, x, s, tau)
        if not report.guard["ok"]:
            continue
        accepted += 1
        ineq_failures += not report.all_ok
    _verdict(9, "remainder-inequalities",
             accepted == 50 and ineq_failures == 0,
             f"{accepted} guarded samples, {ineq_failures} failures")


# -------------------------------------------------------- criterion 10

def test_criterion_10_torus_scan_calibration():
    t0 = time.time()
    lay = SymplecticLayout(2)

    def oscillator(extra=None):
        H = lay.zero(4, mode="float")
        for k, freq in enumerate((1.0, PHI)):
            qe, pe = [0, 0], [0, 0]
            qe[k] = 2
            H = H + lay.monomial(freq, qexp=tuple(qe), trunc_degree=4)
            pe[k] = 2
            H = H + lay.monomial(freq, pexp=tuple(pe), trunc_degree=4)
        if extra is not None:
            H = H + extra
        return H

    integrable = torus_scan(oscillator(), 0.5, 200, seed=SEED)
    window_freqs = np.array(integrable.records[0].window_frequencies,
                            dtype=float)
    mode_means = window_freqs.mean(axis=0)
    ratio = mode_means[1] / mode_means[0]
    ratio_ok = abs(ratio - PHI) <= 1e-4

    perturbed = oscillator(lay.monomial(0.05, qexp=(2, 2), trunc_degree=4))
    fractions, sigmas = [], []
    n_samples = 100
    for r in (0.5, 0.25, 0.1):
        rep = torus_scan(perturbed, r, n_samples, seed=SEED)
        fractions.append(rep.fraction)
        p = rep.fraction
        sigmas.append(math.sqrt(max(p * (1 - p), 1e-12) / n_samples))
    trend_ok = all(
        fractions[k + 1] >= fractions[k]
        - 2 * math.hypot(sigmas[k], sigmas[k + 1])
        for k in range(len(fractions) - 1))
    elapsed = time.time() - t0
    ok = (integrable.fraction == 1.0 and ratio_ok and trend_ok
          and elapsed < 600)
    _verdict(10, "torus-calibration", ok,
             f"integrable fraction {integrable.fraction}, ratio err "
             f"{abs(ratio - PHI):.2e}, perturbed fractions {fractions}, "
             f"{elapsed:.0f}s")
