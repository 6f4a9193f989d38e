"""Independent checks for the benchmark workloads.

Nothing here calls kamtori.  Every check takes plain values (numbers,
exponent dicts, parsed artifacts) and returns a list of problem strings;
an empty list means the output passed.  ``check_oracles.py`` feeds each
check a wrong value and shows that it complains.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


# ------------------------------------------------------------ small divisors

def sigma_by_columns(alpha, k_max):
    """sigma_k = min |<alpha, i>| over 0 < ||i||_2 <= 2^k, exactly.

    alpha is a list of Fractions with alpha[0] != 0.  For each tail
    (i_2..i_n) the map i_1 -> |alpha_1 i_1 + <alpha_tail, i_tail>| is
    convex, so its minimum over |i_1| <= m is at the integer nearest to
    the real minimiser, clamped to [-m, m].  No box is enumerated.
    """
    den = 1
    for a in alpha:
        den = den * a.denominator // math.gcd(den, a.denominator)
    A = [int(a * den) for a in alpha]
    if A[0] < 0:
        A = [-a for a in A]
    radius = 2 ** k_max
    best = [None] * (k_max + 1)
    for tail in product(range(-radius, radius + 1), repeat=len(A) - 1):
        t2 = sum(x * x for x in tail)
        if t2 > radius * radius:
            continue
        c = sum(a * x for a, x in zip(A[1:], tail))
        floor = (-c) // A[0]
        for k in range(k_max + 1):
            r2 = 4 ** k - t2
            if r2 < 0:
                continue
            m = math.isqrt(r2)
            for cand in (floor, floor + 1):
                i1 = min(m, max(-m, cand))
                if i1 == 0 and not any(tail):
                    continue
                v = abs(A[0] * i1 + c)
                if best[k] is None or v < best[k]:
                    best[k] = v
    return [Fraction(v, den) for v in best]


def bruno_partial_sum(values):
    """-sum_k log(min(1, a_k)) / 2^k, from the definition."""
    return -sum(math.log(min(1.0, float(v))) / 2.0 ** k
                for k, v in enumerate(values))


def check_sigma(values, oracle):
    problems = []
    if len(values) != len(oracle):
        return [f"sigma has {len(values)} values, oracle {len(oracle)}"]
    for k, (v, o) in enumerate(zip(values, oracle)):
        if v != o:
            problems.append(f"sigma_{k} = {v}, per-column oracle {o}")
    return problems


def check_bruno(partial_sum, verdict, oracle_values):
    expected = bruno_partial_sum(oracle_values)
    problems = []
    if not math.isclose(partial_sum, expected, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"Bruno partial sum {partial_sum} != {expected}")
    if verdict != "inconclusive":
        problems.append(f"Bruno verdict {verdict!r} without a tail descriptor")
    return problems


def disc_indices(k_max):
    """(i1, i2, ||i||^2, e(i)) for every 0 < ||i|| <= 2^k_max, where e(i)
    is the least k with ||i|| <= 2^k."""
    B = 2 ** k_max
    grid = np.arange(-B, B + 1, dtype=np.int64)
    I1, I2 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    norm2 = I1 ** 2 + I2 ** 2
    keep = (norm2 > 0) & (norm2 <= 4 ** k_max)
    I1, I2, norm2 = I1[keep], I2[keep], norm2[keep]
    e_of_i = np.searchsorted([4 ** k for k in range(k_max + 1)], norm2)
    return I1, I2, norm2, e_of_i


def float_center_margins(alpha, k_max, shift, rho_exp=-6):
    """min margin and number of zero-margin hyperplanes at the ball centre.

    m_i = |<alpha, i>| - rho_{e(i)} a_{e(i)} over 0 < ||i|| <= 2^k_max,
    with a = sigma(alpha) by brute force and rho_k = 2^(rho_exp (k+shift)).
    An index with m_i > 0 cannot cut a ball of radius below m_i/||i||, so
    only zero-margin indices survive as r -> 0; each +-i pair with m_i = 0
    is a hyperplane through the centre that keeps exactly half the ball.
    """
    I1, I2, _, e_of_i = disc_indices(k_max)
    dots = np.abs(I1 * alpha[0] + I2 * alpha[1])
    a = [float(dots[e_of_i <= k].min()) for k in range(k_max + 1)]
    rho = [2.0 ** (rho_exp * (k + shift)) for k in range(k_max + 1)]
    threshold = np.array([a[k] * rho[k] for k in range(k_max + 1)])
    margins = dots - threshold[e_of_i]
    return float(margins.min()), int((margins == 0).sum()) // 2


def check_density_plateau(fractions, samples, margin, planes):
    """Textbook allowance: one zero-slack hyperplane, every fraction 1/2.

    The band is 5 binomial standard deviations of a fraction of
    `samples` points.
    """
    band = 5 * math.sqrt(0.25 / samples)
    problems = []
    if margin != 0 or planes != 1:
        problems.append(f"centre margin {margin} on {planes} hyperplanes; "
                        "the plateau needs exactly one zero-margin plane")
    for f in fractions:
        if abs(f - 0.5) > band:
            problems.append(f"fraction {f} is not 1/2 within {band:.4f}")
    return problems


def check_density_trend(fractions, margin):
    """Shifted allowance: slack at every scale, fractions rise to 1."""
    problems = []
    if not margin > 0:
        problems.append(f"centre margin {margin} leaves no slack")
    if any(lo > hi for lo, hi in zip(fractions, fractions[1:])):
        problems.append(f"fractions {fractions} decrease as the ball shrinks")
    if not fractions or fractions[-1] < 0.95:
        problems.append(f"fractions {fractions} do not reach 0.95")
    return problems


def disc_lattice_count(radius):
    """Integer points with x^2 + y^2 <= radius^2, counted by rows."""
    return sum(2 * math.isqrt(radius * radius - x * x) + 1
               for x in range(-radius, radius + 1))


def strip_hits(alpha, a_values, rho_values, r, k_max):
    """Strips of one +-i representative each that meet the ball B(alpha, r).

    A strip |<x, i>| <= rho_k a_k, k = e(i), meets the ball when its
    distance (|<alpha, i>| - rho_k a_k)/||i|| from the centre is below r.
    """
    I1, I2, norm2, e_of_i = disc_indices(k_max)
    lead = (I1 > 0) | ((I1 == 0) & (I2 > 0))
    I1, I2, norm2, e_of_i = I1[lead], I2[lead], norm2[lead], e_of_i[lead]
    half = np.array([float(rho_values[k]) * float(a_values[k])
                     for k in range(k_max + 1)])[e_of_i]
    dots = np.abs(I1 * float(alpha[0]) + I2 * float(alpha[1]))
    dist = np.maximum(0.0, (dots - half) / np.sqrt(norm2))
    return int((dist < float(r)).sum())


def check_strips(strip_count, hits, k_max, expected_hits):
    expected = (disc_lattice_count(2 ** k_max) - 1) // 2
    problems = []
    if strip_count != expected:
        problems.append(f"strip count {strip_count}, lattice count of the "
                        f"disc gives {expected}")
    if hits != expected_hits:
        problems.append(f"{hits} strips meet the ball, expected "
                        f"{expected_hits}")
    return problems


# --------------------------------------------------------------- normal forms

def action_factors(idx, n):
    return sum(min(q, p) for q, p in zip(idx[:n], idx[n:]))


def check_ideal_square(coeffs, n):
    """Every monomial beyond the model sum a_k p_k q_k has two action factors.

    Pure exponent inspection of the normalized jet's coefficient dict.
    """
    bad = []
    for idx in coeffs:
        model = idx[:n] == idx[n:] and sum(idx[:n]) == 1
        if not model and action_factors(idx, n) < 2:
            bad.append(idx)
    if bad:
        return [f"{len(bad)} monomials outside the action-ideal square, "
                f"e.g. {sorted(bad)[:3]}"]
    return []


def pure_actions(coeffs, n, max_action_degree):
    """Coefficients of the pure action monomials prod (p_k q_k)^m_k."""
    return {idx[:n]: c for idx, c in coeffs.items()
            if idx[:n] == idx[n:] and sum(idx[:n]) <= max_action_degree}


def check_actions_equal(got, expected, what):
    """Exact agreement of two action polynomials {m: coeff}."""
    if got == expected:
        return []
    keys = sorted(set(got) | set(expected))
    diff = [k for k in keys if got.get(k) != expected.get(k)]
    return [f"{what}: {len(diff)} action coefficients differ, first at "
            f"{diff[0]}: {got.get(diff[0])} vs {expected.get(diff[0])}"]


def check_actions_close(got, expected, what, rel=1e-11):
    """Float action polynomial against an exact one, within roundoff."""
    problems = []
    if set(got) != set(expected):
        problems.append(f"{what}: action monomials {sorted(got)} vs exact "
                        f"{sorted(expected)}")
    for m, c in expected.items():
        ref = complex(c.re, c.im) if hasattr(c, "im") else complex(c)
        val = complex(got.get(m, 0.0))
        if abs(val - ref) > rel * max(1.0, abs(ref)):
            problems.append(f"{what}: action coefficient {m} = {val}, "
                            f"exact {ref}")
    return problems


def wallis_quartic_a2():
    """A2 of (p^2 + q^2)/2 + q^4, from <q^4> = (2I)^2 C(4,2)/4^2 = A2 I^2."""
    return Fraction(2) ** 2 * Fraction(math.comb(4, 2), 4 ** 2)


def check_quartic(A, residual_clean):
    """Birkhoff polynomial of (p^2 + q^2)/2 + q^4: A1 = 1, A2 by Wallis."""
    problems = []
    if A.get((1,)) != 1 or A.get((2,)) != wallis_quartic_a2():
        problems.append(f"quartic oscillator A = {A}, Wallis gives A1 = 1, "
                        f"A2 = {wallis_quartic_a2()}")
    if not residual_clean:
        problems.append("quartic oscillator residual not clean")
    return problems


# --------------------------------------------------------------- torus scans

# Window-frequency error of the FFT-plus-zoom estimator at 1024-sample
# windows on exact tones is ~3e-11; shorter windows are far worse (256
# samples: 24 %), which is why every scan window holds 1024 samples.
INTEGRABLE_FREQ_TOL = 1e-10


def averaged_frequencies(x0, a, eps):
    """First-order averaging of sum a_k (q_k^2 + p_k^2) + eps q1^2 q2^2.

    With I_k = (q_k^2 + p_k^2)/2, <q1^2 q2^2> = I1 I2, so the averaged
    Hamiltonian is 2 a1 I1 + 2 a2 I2 + eps I1 I2 and z_k = q_k + i p_k
    turns at omega_k = -(2 a_k + eps I_other).
    """
    q1, q2, p1, p2 = x0
    I1, I2 = (q1 * q1 + p1 * p1) / 2, (q2 * q2 + p2 * p2) / 2
    return (-(2 * a[0] + eps * I2), -(2 * a[1] + eps * I1))


def check_scan(records, a, eps, r, tol):
    """Every orbit torus-like, every window frequency within tol of theory.

    records: (x0, window_frequencies, classification) triples.
    """
    problems = []
    worst = 0.0
    for x0, windows, cls in records:
        if cls != "torus-like":
            problems.append(f"orbit at {x0} classified {cls}")
        pred = averaged_frequencies(x0, a, eps)
        for row in windows:
            if any(f is None for f in row):
                problems.append(f"orbit at {x0} has a degenerate mode")
                continue
            worst = max(worst, max(abs(f - p) for f, p in zip(row, pred)))
    if worst > tol:
        problems.append(f"scan r={r} eps={eps}: window frequency off theory "
                        f"by {worst:.3g} > {tol:.3g}")
    return problems
