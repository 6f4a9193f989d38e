"""Bracket axioms, diagonal action, Lie exponentials, symplectic checks."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from kamtori import poisson
from kamtori.birkhoff import morse_substitution
from kamtori.errors import (
    NonInvertibleLinearPartError,
    OrderTooLowError,
    ShapeMismatchError,
)
from kamtori.jets import ComplexRational, Jet, _all_indices
from kamtori.poisson import (
    HamiltonianDerivation,
    SymplecticLayout,
    ad_eigenvalue,
    bracket,
    check_symplectic,
    exp_product,
    lie_exp,
)


def random_layout_jet(rng, layout, trunc, n_terms=5, min_ord=0, max_deg=None):
    max_deg = trunc if max_deg is None else max_deg
    terms = {}
    for _ in range(n_terms):
        idx = tuple(int(x) for x in rng.integers(0, 3, layout.num_vars))
        if min_ord <= sum(idx) <= max_deg:
            terms[idx] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    return Jet(layout.num_vars, trunc, terms, blocks=layout.blocks)


# --- bracket ------------------------------------------------------------------

def test_bracket_normalization():
    lay = SymplecticLayout(2)
    N = 4
    assert bracket(lay.q(0, N), lay.p(0, N), lay) == lay.constant(1, 2)
    assert bracket(lay.q(0, N), lay.p(1, N), lay) == lay.zero(2)
    assert bracket(lay.q(0, N), lay.q(1, N), lay) == lay.zero(2)


def test_bracket_pq_with_q():
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 4), lay.p(0, 4)
    assert bracket(p * q, q, lay) == -q


def test_bracket_antisymmetric_bilinear():
    rng = np.random.default_rng(31)
    lay = SymplecticLayout(2)
    for _ in range(8):
        f = random_layout_jet(rng, lay, 6, max_deg=4)
        g = random_layout_jet(rng, lay, 6, max_deg=4)
        h = random_layout_jet(rng, lay, 6, max_deg=4)
        assert bracket(f, g, lay) == -bracket(g, f, lay)
        assert bracket(f + h, g, lay) == bracket(f, g, lay) + bracket(h, g, lay)


def test_bracket_leibniz():
    rng = np.random.default_rng(32)
    lay = SymplecticLayout(2)
    for _ in range(6):
        f = random_layout_jet(rng, lay, 8, max_deg=3)
        g = random_layout_jet(rng, lay, 8, max_deg=3)
        h = random_layout_jet(rng, lay, 8, max_deg=3)
        lhs = bracket(f * g, h, lay)
        rhs = f * bracket(g, h, lay) + bracket(f, h, lay) * g
        # compare on the common certified range
        t = min(lhs.trunc_degree, rhs.trunc_degree)
        assert lhs.truncate(t) == rhs.truncate(t)


def test_bracket_jacobi_exact():
    rng = np.random.default_rng(33)
    for n in (1, 2, 3):
        lay = SymplecticLayout(n)
        for _ in range(4):
            f = random_layout_jet(rng, lay, 10, max_deg=4)
            g = random_layout_jet(rng, lay, 10, max_deg=4)
            h = random_layout_jet(rng, lay, 10, max_deg=4)
            jac = bracket(f, bracket(g, h, lay), lay) \
                + bracket(g, bracket(h, f, lay), lay) \
                + bracket(h, bracket(f, g, lay), lay)
            assert not jac


def test_quadratic_model_float_matches_exact():
    lay = SymplecticLayout(2)
    exact = lay.quadratic_model([Fraction(1), Fraction(809, 500)], 4)
    fl = lay.quadratic_model([1.0, 1.618], 4)
    assert fl.mode == "float" and exact.mode == "exact"
    assert dict(fl.coeffs) == dict(exact.to_float().coeffs)
    assert dict(exact.coeffs) == {(1, 0, 1, 0): 1,
                                  (0, 1, 0, 1): Fraction(809, 500)}


def reference_bracket(f, g, layout, trunc=None):
    """The plain triple loop over (f term, g term, k), kept as the oracle
    for bracket's float bits and key order."""
    if trunc is None:
        t = min(f.ord() + g.trunc_degree, g.ord() + f.trunc_degree) - 2
        trunc = max(0, min(t, max(f.trunc_degree, g.trunc_degree)))
    n = layout.n
    acc = {}
    for i, a in f.coeffs.items():
        di = sum(i)
        for j, b in g.coeffs.items():
            if di + sum(j) - 2 > trunc:
                continue
            ab = None
            for k in range(n):
                c = i[k] * j[n + k] - i[n + k] * j[k]
                if c == 0:
                    continue
                if ab is None:
                    ab = a * b
                idx = list(map(sum, zip(i, j)))
                idx[k] -= 1
                idx[n + k] -= 1
                idx = tuple(idx)
                cur = acc.get(idx)
                contrib = ab * c
                acc[idx] = contrib if cur is None else cur + contrib
    mode = f.mode if f else g.mode
    return Jet(f.num_vars, trunc, acc, blocks=f.blocks or g.blocks, mode=mode)


def float_bits(jet):
    """Truncation degree, then key order, type and float.hex of both parts
    of every coefficient."""
    return jet.trunc_degree, [
        (idx, type(c).__name__, float.hex(complex(c).real),
         float.hex(complex(c).imag)) for idx, c in jet.coeffs.items()]


def random_float_layout_jet(rng, layout, trunc, n_terms, coarse,
                            complex_share, max_deg):
    """Float jet with its terms in random (not graded) order; coarse
    coefficients (+-1/2, +-1, +-2) make bracket sums cancel."""
    coeffs = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_deg + 1))
        idx = tuple(int(e) for e in rng.multinomial(
            deg, [1 / layout.num_vars] * layout.num_vars))
        if coarse:
            re, im = (float(rng.choice([-2, -1, -0.5, 0.5, 1, 2]))
                      for _ in range(2))
        else:
            re, im = rng.normal(), rng.normal()
        coeffs[idx] = complex(re, im) if rng.random() < complex_share else re
    return Jet(layout.num_vars, trunc, coeffs, blocks=layout.blocks,
               mode="float")


BRACKET_PAIRS = [1, 2, 3, 2, 4]     # (q, p) pairs of the layout per case


@pytest.mark.parametrize("case", range(40))
def test_float_bracket_bit_identical_to_reference(case):
    rng = np.random.default_rng(2000 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    coarse = case % 2 == 1
    complex_share = 0.0 if case % 4 < 2 else 0.4
    N = int(rng.integers(3, 8))
    f, g = (random_float_layout_jet(rng, lay, N, int(rng.integers(4, 25)),
                                    coarse, complex_share, N)
            for _ in range(2))
    trunc = int(rng.integers(0, N + 1)) if case % 3 == 2 else None
    assert float_bits(bracket(f, g, lay, trunc=trunc)) == \
        float_bits(reference_bracket(f, g, lay, trunc=trunc))


def test_bracket_of_monomials_closed_form():
    # {q^a p^b, q^c p^d} = (ad - bc) q^(a+c-1) p^(b+d-1), with a spectator
    # q_2 of the second pair riding along; single exponents of the result
    # come close to the operands' degree sum, which sizes the packed
    # exponent fields
    lay = SymplecticLayout(2)
    N = 16
    for a, b, c, d in [(7, 1, 1, 7), (8, 0, 0, 8), (1, 0, 7, 8), (3, 4, 5, 2),
                       (0, 1, 1, 0), (2, 2, 2, 2), (7, 8, 1, 0)]:
        f = lay.monomial(Fraction(1), qexp=(a, 1), pexp=(b, 0),
                         trunc_degree=N)
        g = lay.monomial(Fraction(3), qexp=(c, 0), pexp=(d, 0),
                         trunc_degree=N)
        out = bracket(f, g, lay, trunc=N)
        coeff = 3 * (a * d - b * c)
        want = {(a + c - 1, 1, b + d - 1, 0): coeff} if coeff else {}
        assert dict(out.coeffs) == want


def test_float_bracket_running_sum_through_zero_keeps_its_place():
    # q^2 gets -2 from (qp, q^2) and +2 from (q^2, qp): its running sum
    # is 0.0 there, and the pair (q^3, p) adds 3 later.  The key keeps
    # the place of its first contribution, as in the reference loop.
    lay = SymplecticLayout(1)
    f = Jet(2, 4, {(1, 1): 1.0, (2, 0): 1.0, (3, 0): 1.0}, mode="float")
    g = Jet(2, 4, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 0.25, (0, 1): 1.0},
            mode="float")
    out = bracket(f, g, lay)
    assert list(out.coeffs.items()) == [
        ((2, 0), 3.0), ((0, 2), 0.5), ((0, 1), 1.0), ((1, 1), 1.0),
        ((1, 0), 2.0), ((3, 0), 3.0), ((2, 1), 1.5)]
    assert float_bits(out) == float_bits(reference_bracket(f, g, lay))


# Two jets of real floats take bracket's array kernel; the triple loop of
# reference_bracket stays the oracle for its bits, key order and degree.

def test_float_bracket_past_63_packed_bits_equals_the_triple_loop():
    # 16 variables with degrees up to 18: 6-bit fields, 96-bit keys
    rng = np.random.default_rng(2100)
    lay = SymplecticLayout(8)
    for case in range(6):
        f, g = (random_float_layout_jet(rng, lay, 18, 30, case % 2 == 1,
                                        0.0, 18) for _ in range(2))
        width = (f.max_degree() + g.max_degree()).bit_length()
        assert width * lay.num_vars > 63
        out = bracket(f, g, lay)
        assert out and float_bits(out) == float_bits(
            reference_bracket(f, g, lay))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", range(12))
def test_float_bracket_of_inf_nan_and_underflow_equals_the_triple_loop(case):
    # products that overflow, underflow to +-0.0, or meet inf and nan, with
    # no numpy warning: Python floats give none
    rng = np.random.default_rng(2200 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    values = [math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300,
              -1e-300, 5e-324, 1.0, -2.0]
    f, g = (Jet(lay.num_vars, 5,
                {i: float(rng.choice(values)) for i in jet.coeffs},
                blocks=lay.blocks, mode="float")
            for jet in (random_float_layout_jet(rng, lay, 5, 20, True, 0.0, 5)
                        for _ in range(2)))
    for a, b in ((f, g), (g, f), (f, f)):
        assert float_bits(bracket(a, b, lay)) == \
            float_bits(reference_bracket(a, b, lay))


@pytest.mark.parametrize("case", range(10))
def test_float_bracket_with_every_term_its_own_degree_run(case):
    # terms in an order where no two neighbours share a degree: the kernel
    # meets one f term per run and g's terms out of degree order
    rng = np.random.default_rng(2300 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    N = 6

    def alternating_jet():
        coeffs = {}
        for deg in rng.permutation(np.tile(np.arange(N + 1), 4)):
            idx = tuple(int(e) for e in rng.multinomial(
                deg, [1 / lay.num_vars] * lay.num_vars))
            if not coeffs or sum(list(coeffs)[-1]) != deg:
                coeffs.setdefault(idx, float(rng.normal()))
        return Jet(lay.num_vars, N, coeffs, blocks=lay.blocks, mode="float")

    f, g = alternating_jet(), alternating_jet()
    degrees = [sum(i) for i in f.coeffs]
    assert all(a != b for a, b in zip(degrees, degrees[1:]))
    trunc = N - 1 if case % 2 else None
    for a, b in ((f, g), (g, f)):
        assert float_bits(bracket(a, b, lay, trunc=trunc)) == \
            float_bits(reference_bracket(a, b, lay, trunc=trunc))


def test_float_bracket_kernel_temporaries_stay_per_contribution():
    # dense jets of all 1820 monomials of degree <= 12 in four variables,
    # bracketed to degree 10: the (f term, g term, k) block the kernel
    # never forms would hold 53 MB; its temporaries are a few blocks of c
    # plus about 70 bytes per contribution (packed key, value, their
    # copies and np.unique's)
    lay = SymplecticLayout(2)
    N = 12
    rng = np.random.default_rng(2400)
    f, g = (Jet(lay.num_vars, N, {i: float(rng.normal())
                                  for i in _all_indices(lay.num_vars, N)},
                blocks=lay.blocks, mode="float") for _ in range(2))
    I, J = (np.array(list(jet.coeffs)) for jet in (f, g))
    # the pairs with c != 0 among the g terms of degree <= trunc + 2 - deg
    # i, at trunc = N - 2
    contributions = sum(int(np.count_nonzero(
        (i[:2] * J[:, 2:] - i[2:] * J[:, :2])[J.sum(axis=1) <= N - sum(i)]))
        for i in I)
    tracemalloc.start()
    try:
        out = bracket(f, g, lay)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 80 * contributions + 16 * 8 * poisson._BLOCK
    assert peak <= bound < len(I) * len(J) * lay.n * 8 / 3
    assert out.trunc_degree == N - 2
    assert float_bits(out) == float_bits(reference_bracket(f, g, lay))


# bracket runs exact jets on integer numerators over one denominator per
# jet and reduces each output once; the Fraction loop of reference_bracket
# is the oracle, in value, type and key order.

PRIMES = [2 ** 64 + 13, 2 ** 64 + 141, 2 ** 65 + 131]   # coprime, past 2^64


def exact_items(jet):
    """Truncation degree, then key order, type and value of every
    coefficient."""
    return jet.trunc_degree, [(idx, type(c).__name__, c)
                              for idx, c in jet.coeffs.items()]


def over_primes(jet, shift=0):
    """jet with its t-th coefficient divided by PRIMES[(t + shift) % 3]."""
    return Jet(jet.num_vars, jet.trunc_degree,
               {idx: c / PRIMES[(t + shift) % 3]
                for t, (idx, c) in enumerate(jet.coeffs.items())},
               blocks=jet.blocks)


@pytest.mark.parametrize("kind", ["primes", "integers", "zero", "complex"])
@pytest.mark.parametrize("case", range(6))
def test_exact_bracket_equals_the_fraction_loop(kind, case):
    rng = np.random.default_rng(5000 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    N = int(rng.integers(3, 7))
    f, g = (random_layout_jet(rng, lay, N, n_terms=12) for _ in range(2))
    if kind == "primes":
        f, g = over_primes(f), over_primes(g, 1)
    elif kind == "integers":
        f, g = (Jet(lay.num_vars, N, {i: Fraction(c.numerator)
                                      for i, c in h.coeffs.items()},
                    blocks=lay.blocks) for h in (f, g))
    elif kind == "zero":
        g = lay.zero(N)
    else:   # one ComplexRational operand
        g = g.scale(ComplexRational(1, 2))
    trunc = int(rng.integers(0, N + 1)) if case % 3 == 2 else None
    for a, b in ((f, g), (g, f)):
        assert exact_items(bracket(a, b, lay, trunc=trunc)) == \
            exact_items(reference_bracket(a, b, lay, trunc=trunc))


def test_exact_bracket_running_sum_through_zero_keeps_its_place():
    # the float test above over coprime denominators: q^2 gets -2 p r and
    # +2 p r, and the pair (q^3, p) adds 3 q p later
    lay = SymplecticLayout(1)
    p, q, r = (Fraction(1, d) for d in PRIMES)
    f = Jet(2, 4, {(1, 1): p, (2, 0): p, (3, 0): q})
    g = Jet(2, 4, {(2, 0): r, (1, 1): r, (0, 2): Fraction(1, 4), (0, 1): p})
    out = bracket(f, g, lay)
    assert list(out.coeffs) == [(2, 0), (0, 2), (0, 1), (1, 1), (1, 0),
                                (3, 0), (2, 1)]
    assert out.coeffs[(2, 0)] == 3 * q * p
    assert exact_items(out) == exact_items(reference_bracket(f, g, lay))


# A product of two purely imaginary coefficients is real: with floats its
# imaginary part is a signed zero, with Gaussian rationals it is exact.
# bracket must coerce such values where the triple loop does.

def imaginary_layout_jet(rng, layout, trunc, n_terms, gaussian,
                         real_share=0.0):
    """Jet of purely imaginary coefficients b i, b in +-1/2, +-1, +-2: float
    ones with real part +0.0 or -0.0, or ComplexRationals; real_share of
    the terms get a real part +-1 instead.  Built from a dict, since a sum
    would turn -0.0 into 0.0."""
    coeffs = {}
    for _ in range(n_terms):
        idx = tuple(int(e) for e in rng.multinomial(
            int(rng.integers(0, trunc + 1)),
            [1 / layout.num_vars] * layout.num_vars))
        b = float(rng.choice([-2, -1, -0.5, 0.5, 1, 2]))
        re = float(rng.choice([1.0, -1.0] if rng.random() < real_share
                              else [0.0, -0.0]))
        coeffs[idx] = (ComplexRational(int(re), Fraction(b)) if gaussian
                       else complex(re, b))
    return Jet(layout.num_vars, trunc, coeffs, blocks=layout.blocks)


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("case", range(10))
def test_bracket_of_imaginary_jets_equals_the_triple_loop(case, gaussian):
    rng = np.random.default_rng(6000 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    N = int(rng.integers(3, 7))
    f, g = (imaginary_layout_jet(rng, lay, N, 14, gaussian)
            for _ in range(2))
    h = imaginary_layout_jet(rng, lay, N, 14, gaussian, real_share=1 / 3)
    pairs = [(f, g), (g, f), (f, h), (h, f)]
    if not gaussian:    # against a real float jet
        real = Jet(lay.num_vars, N, {i: c.imag for i, c in g.coeffs.items()},
                   blocks=lay.blocks)
        pairs += [(f, real), (real, f)]
    for a, b in pairs:
        out = bracket(a, b, lay)
        want = reference_bracket(a, b, lay)
        if gaussian:
            assert exact_items(out) == exact_items(want)
        else:
            assert float_bits(out) == float_bits(want)
    if gaussian:    # {f, g} of two imaginary jets turned real
        out = bracket(f, g, lay)
        assert out and all(isinstance(c, Fraction)
                           for c in out.coeffs.values())


def _sympy_scalar(c):
    if isinstance(c, ComplexRational):
        return _sympy_scalar(c.re) + sympy.I * _sympy_scalar(c.im)
    return sympy.Rational(c.numerator, c.denominator)


@pytest.mark.parametrize("case", range(12))
def test_exact_bracket_matches_sympy(case):
    rng = np.random.default_rng(3000 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    N = int(rng.integers(3, 7))
    f, g = (random_layout_jet(rng, lay, N, n_terms=10) for _ in range(2))
    if case % 3 == 1:
        g = g.scale(ComplexRational(1, 2))
    trunc = int(rng.integers(0, N + 1)) if case % 4 == 3 else None
    out = bracket(f, g, lay, trunc=trunc)
    gens = sympy.symbols(f"x0:{lay.num_vars}")
    F, G = (sympy.Poly(sum((_sympy_scalar(c) * sympy.prod(
        x ** e for x, e in zip(gens, idx)) for idx, c in jet.coeffs.items()),
        sympy.Integer(0)), *gens) for jet in (f, g))
    want = sympy.Poly(0, *gens)
    for k in range(lay.n):
        q, p = gens[lay.q_index(k)], gens[lay.p_index(k)]
        want += F.diff(q) * G.diff(p) - F.diff(p) * G.diff(q)
    cut = out.trunc_degree
    want = {mon: c for mon, c in want.as_dict().items()
            if sum(mon) <= cut and c != 0}
    got = {idx: _sympy_scalar(c) for idx, c in out.coeffs.items()}
    assert got == want
    assert cut == (trunc if trunc is not None else
                   max(0, min(min(f.ord() + g.trunc_degree,
                                  g.ord() + f.trunc_degree) - 2,
                              max(f.trunc_degree, g.trunc_degree))))


# --- ad_eigenvalue -------------------------------------------------------------

def test_ad_eigenvalue_examples():
    assert ad_eigenvalue([Fraction(1)], (3,), (0,)) == 3
    assert ad_eigenvalue([Fraction(5, 7)], (2,), (2,)) == 0
    alpha = [Fraction(1), Fraction(3, 2)]
    assert ad_eigenvalue(alpha, (1, 0), (0, 2)) == 1 - 3
    for k in range(1, 4):
        assert ad_eigenvalue(alpha, (k, k), (k, k)) == 0


def test_ad_eigenvalue_matches_bracket():
    # {q^i p^j, H2} = <alpha, i-j> q^i p^j for every |i|+|j| <= 5
    lay = SymplecticLayout(2)
    N = 6
    alpha = [Fraction(2, 3), Fraction(-5, 4)]
    H2 = lay.quadratic_model(alpha, N)
    for iq1 in range(3):
        for iq2 in range(3):
            for jp1 in range(3):
                for jp2 in range(3):
                    if not 0 < iq1 + iq2 + jp1 + jp2 <= 5:
                        continue
                    mono = lay.monomial(1, qexp=(iq1, iq2), pexp=(jp1, jp2),
                                        trunc_degree=N)
                    lam = ad_eigenvalue(alpha, (iq1, iq2), (jp1, jp2))
                    assert bracket(mono, H2, lay) == mono.scale(lam) * 1


# --- HamiltonianDerivation -----------------------------------------------------

def lifted_derivation(h, f, layout):
    """u_h(f) by the long route: h rebuilt at a degree that covers all of
    f's pairs, the bracket at its certified degree, then cut back to f's
    degree."""
    degree = max(h.trunc_degree, f.trunc_degree + h.max_degree())
    lifted = Jet(h.num_vars, degree, dict(h.coeffs), blocks=h.blocks,
                 mode=h.mode)
    out = reference_bracket(f, lifted, layout)
    if out.trunc_degree > f.trunc_degree:
        out = out.truncate(f.trunc_degree)
    return out


def derivation_bits(jet):
    """Truncation degree, mode, blocks, then key order, type and float.hex
    of both parts of every coefficient (exact ones by value)."""
    def parts(c):
        if isinstance(c, (float, complex)):
            return float.hex(complex(c).real), float.hex(complex(c).imag)
        return c
    return jet.trunc_degree, jet.mode, jet.blocks, [
        (idx, type(c).__name__, parts(c)) for idx, c in jet.coeffs.items()]


def as_scalar(kind, jet):
    """jet with its coefficients as the given scalar kind."""
    if kind == "fraction":
        return jet
    if kind == "complex-rational":
        return jet.scale(ComplexRational(Fraction(1, 3), 2))
    out = jet.to_float()
    return out.scale(complex(0.5, -1.25)) if kind == "complex" else out


@pytest.mark.parametrize("kind",
                         ["fraction", "complex-rational", "float", "complex"])
@pytest.mark.parametrize("case", range(10))
def test_derivation_equals_the_lifted_bracket(kind, case):
    rng = np.random.default_rng(7000 + case)
    lay = SymplecticLayout(BRACKET_PAIRS[case % len(BRACKET_PAIRS)])
    order = case % 5                               # generator orders 0 to 4
    h_trunc = max(3, order) if case >= 5 else 8    # h below f's degree
    rest = (0,) * (lay.n - 1)
    lead = lay.monomial(Fraction(3, 2), qexp=(order - order // 2,) + rest,
                        pexp=(order // 2,) + rest, trunc_degree=h_trunc)
    h = lead + random_layout_jet(rng, lay, h_trunc, n_terms=10, min_ord=order,
                                 max_deg=min(h_trunc, order + 2))
    assert h.ord() == order
    fs = [random_layout_jet(rng, lay, 8, n_terms=14),
          lay.zero(8),
          random_layout_jet(rng, lay, 8, n_terms=8) + Fraction(5, 7)]
    for f in fs:
        for gen in (h, lay.zero(h_trunc)):
            f_, gen_ = as_scalar(kind, f), as_scalar(kind, gen)
            got = HamiltonianDerivation(gen_, lay)(f_)
            if not gen_:
                assert derivation_bits(got) == derivation_bits(
                    Jet.zero(f_.num_vars, f_.trunc_degree, blocks=f_.blocks,
                             mode=f_.mode))
                continue
            assert derivation_bits(got) == \
                derivation_bits(lifted_derivation(gen_, f_, lay))


# --- lie_exp -------------------------------------------------------------------

def test_lie_exp_zero_generator():
    lay = SymplecticLayout(1)
    f = lay.p(0, 4) * lay.q(0, 4)
    u = HamiltonianDerivation(lay.zero(4), lay)
    assert lie_exp(u, f) == f


def test_lie_exp_cubic_example():
    # h=q^3, f=p: u(p) = {p,q^3} = -3q^2, u(-3q^2) = 0
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 4), lay.p(0, 4)
    u = HamiltonianDerivation(q ** 3, lay)
    out = lie_exp(u, p)
    assert out == p - (q * q).scale(3)


def test_lie_exp_order_gate():
    lay = SymplecticLayout(1)
    u = HamiltonianDerivation(lay.q(0, 4) * lay.p(0, 4), lay)
    with pytest.raises(OrderTooLowError):
        lie_exp(u, lay.q(0, 4))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_lie_exp_ends_within_trunc_degree_plus_one_brackets(monkeypatch,
                                                            mode):
    # a generator of order >= 3 raises each term's order by at least 1 at
    # the fixed truncation degree N, so the series ends within N + 1
    # brackets; u = {., q^2 p} takes q^k to k q^(k+1) and takes N
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bracket(*args, **kwargs)

    monkeypatch.setattr(poisson, "bracket", counted)
    cast = (lambda jet: jet) if mode == "exact" else Jet.to_float
    rng = np.random.default_rng(36)
    lay = SymplecticLayout(2)
    for N in (3, 5, 8, 11):
        q, p = lay.q(0, N), lay.p(0, N)
        calls.clear()
        out = lie_exp(HamiltonianDerivation(cast(q * q * p), lay), cast(q))
        assert len(calls) == N
        assert out == cast(sum((q ** k for k in range(2, N + 1)), q))
        for _ in range(4):
            h = random_layout_jet(rng, lay, N, n_terms=8, min_ord=3)
            f = random_layout_jet(rng, lay, N, n_terms=8)
            calls.clear()
            lie_exp(HamiltonianDerivation(cast(h), lay), cast(f))
            assert len(calls) <= N + 1


def test_lie_exp_is_ring_morphism():
    rng = np.random.default_rng(34)
    lay = SymplecticLayout(2)
    N = 7
    h = random_layout_jet(rng, lay, N, min_ord=3, max_deg=4)
    u = HamiltonianDerivation(h, lay)
    for _ in range(4):
        f = random_layout_jet(rng, lay, N, max_deg=3)
        g = random_layout_jet(rng, lay, N, max_deg=3)
        assert lie_exp(u, f * g) == lie_exp(u, f) * lie_exp(u, g)


def test_lie_exp_commuting_generators():
    # generators in disjoint variable pairs commute: e^{u+v} = e^u e^v
    lay = SymplecticLayout(2)
    N = 6
    h1 = lay.q(0, N) ** 3
    h2 = lay.q(1, N) ** 4
    u, v, uv = (HamiltonianDerivation(h, lay) for h in (h1, h2, h1 + h2))
    f = lay.p(0, N) * lay.p(1, N) + lay.p(0, N)
    assert lie_exp(uv, f) == lie_exp(u, lie_exp(v, f))


def test_exp_product_group_inverse():
    rng = np.random.default_rng(35)
    lay = SymplecticLayout(2)
    N = 6
    us = [HamiltonianDerivation(
        random_layout_jet(rng, lay, N, n_terms=4, min_ord=3, max_deg=3), lay)
        for _ in range(3)]
    inverse = [-u for u in reversed(us)]
    # identity on a basis of monomials up to degree N
    for idx in [(1, 0, 0, 0), (0, 0, 1, 0), (2, 1, 0, 0), (1, 1, 1, 1),
                (0, 2, 0, 2), (3, 0, 0, 3)]:
        f = Jet(4, N, {idx: Fraction(1)}, blocks=lay.blocks)
        assert exp_product(inverse, exp_product(us, f)) == f


def test_exp_product_empty_and_single():
    lay = SymplecticLayout(1)
    f = lay.q(0, 5) * lay.p(0, 5)
    assert exp_product([], f) == f
    u = HamiltonianDerivation(lay.q(0, 5) ** 3, lay)
    assert exp_product([u], f) == lie_exp(u, f)


# --- check_symplectic -----------------------------------------------------------

def test_check_symplectic_identity_and_scaling():
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 4), lay.p(0, 4)
    assert check_symplectic([q, p], lay) == 0
    assert check_symplectic([q.scale(2), p], lay) == 1


def test_check_symplectic_lie_flows_exact_zero():
    rng = np.random.default_rng(36)
    lay = SymplecticLayout(2)
    N = 6
    h = random_layout_jet(rng, lay, N, n_terms=5, min_ord=3, max_deg=4)
    u = HamiltonianDerivation(h, lay)
    images = [lie_exp(u, lay.q(0, N)), lie_exp(u, lay.q(1, N)),
              lie_exp(u, lay.p(0, N)), lie_exp(u, lay.p(1, N))]
    assert check_symplectic(images, lay) == 0


def test_check_symplectic_rejects_singular_linear_part():
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 4), lay.p(0, 4)
    with pytest.raises(NonInvertibleLinearPartError):
        check_symplectic([q, q], lay)
    # n = 2, rank 3: one complex Morse image is the sum of two others
    lay2 = SymplecticLayout(2)
    for mode in ("exact", "float"):
        images = morse_substitution(2, 3, mode=mode)
        images[3] = images[0] + images[1]
        with pytest.raises(NonInvertibleLinearPartError):
            check_symplectic(images, lay2)
    # nonsingular, but the first pivot needs a row swap: Q_1 = p_1
    swapped = [lay2.p(0, 3), lay2.q(1, 3), -lay2.q(0, 3), lay2.p(1, 3)]
    assert check_symplectic(swapped, lay2) == 0


def test_check_symplectic_float_zero_residual_is_float():
    # every residual of the float Morse substitution vanishes exactly;
    # the float result is then 0.0, not the exact Fraction(0)
    for n in (1, 2, 3):
        lay = SymplecticLayout(n)
        res = check_symplectic(morse_substitution(n, 4, mode="float"), lay)
        assert type(res) is float and res == 0.0
        res = check_symplectic(morse_substitution(n, 4, mode="exact"), lay)
        assert type(res) is Fraction and res == 0


def test_check_symplectic_rejects_constant_shift():
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 4), lay.p(0, 4)
    with pytest.raises(OrderTooLowError):
        check_symplectic([q + 1, p], lay)


def test_layout_mismatch_raises():
    lay1 = SymplecticLayout(1)
    lay2 = SymplecticLayout(2)
    with pytest.raises(ShapeMismatchError):
        bracket(lay1.q(0, 3), lay2.q(0, 3), lay1)
