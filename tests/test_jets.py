"""Jet ring, filtration, composition, norms, serialization."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy

from kamtori import jets
from kamtori.arithmetic import BrunoReport, DecaySequence
from kamtori.birkhoff import morse_substitution
from kamtori.errors import ModeMixError, OrderTooLowError, ShapeMismatchError
from kamtori.jets import ComplexRational, Jet, to_jsonable
from kamtori.poisson import (HamiltonianDerivation, SymplecticLayout,
                             bracket, lie_exp)


def random_exact_jet(rng, num_vars, trunc_degree, n_terms=6, min_ord=0):
    """Random sparse jet with small rational coefficients."""
    terms = []
    for _ in range(n_terms):
        while True:
            idx = tuple(int(e) for e in rng.integers(0, trunc_degree + 1, num_vars))
            if min_ord <= sum(idx) <= trunc_degree:
                break
        num = int(rng.integers(-9, 10))
        den = int(rng.integers(1, 7))
        terms.append((idx, Fraction(num, den)))
    return Jet.from_terms(num_vars, trunc_degree, terms)


# --- pinned ring examples ---------------------------------------------------

def test_product_one_plus_z_times_one_minus_z():
    z = Jet.variable(0, 1, 2)
    one = Jet.constant(1, 1, 2)
    f = (one + z) * (one - z)
    assert f == Jet.from_terms(1, 2, [((0,), 1), ((2,), -1)])


def test_product_with_zero_is_zero():
    rng = np.random.default_rng(7)
    f = random_exact_jet(rng, 3, 5)
    assert f * Jet.zero(3, 5) == Jet.zero(3, 5)


def test_geometric_square_truncated():
    # (1 + z + z^2 + z^3)^2 at N=3: convolution by hand gives 1,2,3,4
    g = Jet.from_terms(1, 3, [((k,), 1) for k in range(4)])
    expected = Jet.from_terms(1, 3, [((k,), k + 1) for k in range(4)])
    assert g * g == expected


def test_ord_examples():
    f = Jet.from_terms(3, 6, [((2, 1, 0), Fraction(1, 2))])
    assert f.ord() == 3
    assert Jet.constant(5, 3, 6).ord() == 0
    # zero jet: sentinel N+1
    assert Jet.zero(3, 6).ord() == 7
    # (z1+z2)^4 expanded has order 4
    z1 = Jet.variable(0, 2, 8)
    z2 = Jet.variable(1, 2, 8)
    assert ((z1 + z2) ** 4).ord() == 4


def test_ring_axioms_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        N = int(rng.integers(2, 9))
        f = random_exact_jet(rng, m, N)
        g = random_exact_jet(rng, m, N)
        h = random_exact_jet(rng, m, N)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)


def test_ord_filtration_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        N = 8
        f = random_exact_jet(rng, m, N, min_ord=1)
        g = random_exact_jet(rng, m, N, min_ord=1)
        if not f or not g:
            continue
        fg = f * g
        if f.ord() + g.ord() <= N:
            assert fg.ord() >= f.ord() + g.ord()
        assert (f + g).ord() >= min(f.ord(), g.ord())


def test_ord_product_equality_when_leading_forms_multiply():
    z1 = Jet.variable(0, 2, 8)
    z2 = Jet.variable(1, 2, 8)
    f = z1 ** 2 + z2 ** 3
    g = z2 + z1 * z2
    assert (f * g).ord() == f.ord() + g.ord()


# --- compose ----------------------------------------------------------------

def test_compose_identity_slot():
    # f = X1 substituted with p1*q1 (as a 2-variable jet)
    f = Jet.variable(0, 1, 4)
    q = Jet.variable(0, 2, 4)
    p = Jet.variable(1, 2, 4)
    assert f.compose([p * q]) == p * q


def test_compose_square_hand_expansion():
    f = Jet.variable(0, 1, 3) ** 2
    g = Jet.from_terms(1, 3, [((1,), 1), ((2,), 1)])
    # (z+z^2)^2 = z^2 + 2 z^3 + z^4, truncated at 3
    assert f.compose([g]) == Jet.from_terms(1, 3, [((2,), 1), ((3,), 2)])


def test_compose_constant_passthrough():
    f = Jet.constant(Fraction(7, 2), 2, 5)
    g1 = Jet.variable(0, 3, 5)
    g2 = Jet.variable(1, 3, 5)
    out = f.compose([g1, g2])
    assert out == Jet.constant(Fraction(7, 2), 3, 5)


def test_compose_rejects_constant_term():
    f = Jet.variable(0, 1, 3)
    g = Jet.constant(1, 1, 3) + Jet.variable(0, 1, 3)
    with pytest.raises(OrderTooLowError):
        f.compose([g])


def test_compose_against_evaluation():
    # f(g(x)) evaluated at a rational point equals evaluating the composition
    rng = np.random.default_rng(5)
    f = random_exact_jet(rng, 2, 4)
    g1 = random_exact_jet(rng, 1, 4, min_ord=1)
    g2 = random_exact_jet(rng, 1, 4, min_ord=1)
    comp = f.compose([g1, g2])
    # keep the point small enough that truncation does not bite: compare
    # only through the truncated composition of truncated inputs, which is
    # exact for polynomial inputs of total degree <= N
    x = Fraction(1, 10)
    direct = f.evaluate([g1.evaluate([x]), g2.evaluate([x])])
    via = comp.evaluate([x])
    # difference only from degree > N cross terms; bound it crudely
    assert abs(direct - via) < Fraction(1, 100)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_compose_grades_each_operand_once(monkeypatch, mode):
    # one _degree_rows lookup per substituted jet and one per power
    # args[k]^e, however many outer terms multiply by it
    f = Jet.from_terms(2, 6, [((a, b), Fraction(1, 1 + a + 2 * b))
                              for a in range(7) for b in range(7 - a)])
    g1 = Jet.from_terms(2, 6, [((1, 0), 1), ((1, 1), Fraction(-2, 3))])
    g2 = Jet.from_terms(2, 6, [((0, 1), Fraction(5, 7)), ((2, 0), 3)])
    if mode == "float":
        f, g1, g2 = f.to_float(), g1.to_float(), g2.to_float()
    want = reference_compose(f, [g1, g2])
    built = []
    rows = jets._degree_rows
    monkeypatch.setattr(jets, "_degree_rows",
                        lambda terms: built.append(len(terms)) or rows(terms))
    out = f.compose([g1, g2])
    assert len(built) == 2 + 6 + 6     # x^1..x^6 and y^1..y^6
    assert out == want


# The double loops Jet.__mul__ and compose ran before they shared one
# capped product: every outer term expanded at the full truncation and
# added to the result as a new jet.  Float results must match them bit
# for bit, and in the same key order.

def reference_mul(f, g):
    trunc = min(f.trunc_degree, g.trunc_degree)
    acc = {}
    for i, a in f.coeffs.items():
        di = sum(i)
        for j, b in g.coeffs.items():
            if di + sum(j) > trunc:
                continue
            k = tuple(x + y for x, y in zip(i, j))
            ab = a * b
            cur = acc.get(k)
            acc[k] = ab if cur is None else cur + ab
    return Jet(f.num_vars, trunc, acc, blocks=f.blocks or g.blocks,
               mode=f.mode)


def reference_compose(f, args):
    m = min(g.ord() for g in args)
    trunc = min((f.trunc_degree + 1) * m - 1,
                min(g.trunc_degree for g in args))
    nv, blocks, mode = args[0].num_vars, args[0].blocks, f.mode
    one = Jet.constant(1 if mode == "exact" else 1.0, nv, trunc,
                       blocks=blocks, mode=mode)
    powers = [[one] for _ in args]
    out = Jet.zero(nv, trunc, blocks=blocks, mode=mode)
    for idx, value in f.terms():
        if sum(idx) * m > trunc:
            continue
        term = one
        for k, e in enumerate(idx):
            while len(powers[k]) <= e:
                powers[k].append(reference_mul(powers[k][-1], args[k]))
            if e:
                term = reference_mul(term, powers[k][e])
        out = out + term.scale(value)
    return out


def float_bits(jet):
    """Key order, type and float.hex of both parts of every coefficient."""
    return [(idx, type(c).__name__, float.hex(complex(c).real),
             float.hex(complex(c).imag)) for idx, c in jet.coeffs.items()]


def random_float_jet(rng, num_vars, trunc_degree, n_terms, min_ord=0,
                     coarse=False, complex_share=0.3):
    """Float jet; coarse coefficients (+-1/2, +-1, +-2) make sums cancel."""
    terms = []
    for _ in range(n_terms):
        deg = int(rng.integers(min_ord, trunc_degree + 1))
        idx = tuple(int(e) for e in rng.multinomial(deg, [1 / num_vars] * num_vars))
        if coarse:
            re, im = (float(rng.choice([-2, -1, -0.5, 0.5, 1, 2]))
                      for _ in range(2))
        else:
            re, im = rng.normal(), rng.normal()
        terms.append((idx, complex(re, im) if rng.random() < complex_share
                      else re))
    return Jet.from_terms(num_vars, trunc_degree, terms, mode="float")


@pytest.mark.parametrize("case", range(40))
def test_float_compose_and_product_bit_identical_to_reference(case):
    rng = np.random.default_rng(1000 + case)
    outer_vars = int(rng.integers(1, 5))
    inner_vars = int(rng.integers(1, 5))
    N = int(rng.integers(1, 8))
    coarse = bool(case % 2)
    f = random_float_jet(rng, outer_vars, N, int(rng.integers(1, 12)),
                         coarse=coarse)
    m = int(rng.integers(1, 3))
    args = [random_float_jet(rng, inner_vars, int(rng.integers(max(N, m), 8)),
                             int(rng.integers(1, 6)), min_ord=m,
                             coarse=coarse)
            for _ in range(outer_vars)]
    args = [g if g else Jet.variable(0, inner_vars, N, mode="float")
            for g in args]
    assert float_bits(f.compose(args)) == \
        float_bits(reference_compose(f, args))
    g = args[0]
    assert float_bits(g * g) == float_bits(reference_mul(g, g))
    h = random_float_jet(rng, inner_vars, N, 8, coarse=coarse)
    assert float_bits(h * g) == float_bits(reference_mul(h, g))


def test_float_compose_drops_cancelled_partial_products():
    # (y0 + y1)(y0 - y1) cancels at y0*y1.  Kept as a zero, that key
    # would meet y1 of the third factor first and move y0*y1^2 ahead of
    # y1^3 in the result, so later float sums would run in another order.
    f = Jet.from_terms(3, 3, [((1, 1, 1), 1.0)], mode="float")
    g0, g1, g2 = (Jet.from_terms(2, 3, terms, mode="float") for terms in (
        [((1, 0), 1.0), ((0, 1), 1.0)],
        [((1, 0), 1.0), ((0, 1), -1.0)],
        [((0, 1), 1.0), ((1, 0), 1.0)]))
    out = f.compose([g0, g1, g2])
    assert list(out.coeffs) == [(2, 1), (3, 0), (0, 3), (1, 2)]
    assert float_bits(out) == float_bits(reference_compose(f, [g0, g1, g2]))


def test_float_compose_drops_cancelled_sums():
    # z1 and z0 cancel at y0^2, which z0^2 brings back after y0^3: a sum
    # that cancels leaves the result, and its key returns at the end.
    f = Jet.from_terms(2, 3, [((0, 1), 1.0), ((1, 0), 1.0), ((2, 0), 1.0)],
                       mode="float")
    g0 = Jet.from_terms(2, 3, [((2, 0), -1.0), ((1, 0), 1.0)], mode="float")
    g1 = Jet.from_terms(2, 3, [((2, 0), 1.0), ((0, 1), 1.0)], mode="float")
    out = f.compose([g0, g1])
    assert list(out.coeffs) == [(0, 1), (1, 0), (3, 0), (2, 0)]
    assert float_bits(out) == float_bits(reference_compose(f, [g0, g1]))


def _sympy_scalar(c):
    if isinstance(c, ComplexRational):
        return _sympy_scalar(c.re) + sympy.I * _sympy_scalar(c.im)
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_compose(outer, inner, gens, cap):
    """sum_i c_i prod_k inner[k]^i_k by sympy Poly products, each cut to
    total degree <= cap (a product's low degrees need only the factors'
    low degrees)."""
    def cut(poly):
        kept = {mon: c for mon, c in poly.as_dict().items() if sum(mon) <= cap}
        return sympy.Poly.from_dict(kept or {(0,) * len(gens): 0}, *gens)

    total = sympy.Poly(0, *gens)
    for idx, c in outer:
        term = sympy.Poly(_sympy_scalar(c), *gens)
        for g, e in zip(inner, idx):
            for _ in range(e):
                term = cut(term * g)
        total = total + term
    return {mon: c for mon, c in total.as_dict().items() if c != 0}


def _tail(rng, num_vars, degree, n_terms):
    """Random exact terms of one total degree: the unknown part of a jet."""
    out = []
    for _ in range(n_terms):
        idx = tuple(int(e) for e in rng.multinomial(degree, [1 / num_vars] * num_vars))
        out.append((idx, Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))))
    return out


def _complexify(jet, rng):
    return Jet(jet.num_vars, jet.trunc_degree,
               {i: ComplexRational(c, Fraction(int(rng.integers(-3, 4)), 2))
                for i, c in jet.coeffs.items()},
               blocks=jet.blocks)


@pytest.mark.parametrize("case", range(24))
def test_exact_compose_matches_sympy_beyond_the_unknown_tails(case):
    # compose(f, g) must equal F(G) up to its certified degree for any F, G
    # that agree with f, g up to their truncation degrees: the tails added
    # here are the unknown terms.  Inner order m >= 2 certifies the result
    # past the outer truncation.
    rng = np.random.default_rng(2000 + case)
    outer_vars = int(rng.integers(1, 5))
    inner_vars = int(rng.integers(1, 5))
    m = 1 + case % 3
    N_outer = int(rng.integers(1, 8 if m == 1 else 4))
    blocks = None
    if inner_vars % 2 == 0 and case % 4 < 2:
        blocks = (("q", inner_vars // 2), ("p", inner_vars // 2))
    f = Jet.zero(outer_vars, N_outer) if case % 8 == 5 else \
        random_exact_jet(rng, outer_vars, N_outer, n_terms=8)
    args = []
    for k in range(outer_vars):
        N_inner = int(rng.integers(max(m, N_outer + m - 1), 8))
        g = random_exact_jet(rng, inner_vars, N_inner, n_terms=4, min_ord=m)
        g = g + Jet.from_terms(inner_vars, N_inner, _tail(rng, inner_vars, m, 1))
        if case % 6 == 1 and k == 0:
            g = _complexify(g, rng)
        args.append(Jet(inner_vars, N_inner, g.coeffs, blocks=blocks))
    out = f.compose(args)
    cap = min((N_outer + 1) * m - 1, min(g.trunc_degree for g in args))
    assert out.trunc_degree == cap
    assert out.blocks == blocks
    if m >= 2:
        assert cap > N_outer

    gens = sympy.symbols(f"y0:{inner_vars}")
    inner = []
    for g in args:
        terms = list(g.terms()) + _tail(rng, inner_vars, g.trunc_degree + 1, 2)
        poly = sympy.Poly(0, *gens)
        for idx, c in terms:
            poly = poly + sympy.Poly.from_dict({idx: _sympy_scalar(c)}, *gens)
        inner.append(poly)
    outer = list(f.terms()) + _tail(rng, outer_vars, N_outer + 1, 2)
    expected = _sympy_compose(outer, inner, gens, cap)
    got = {idx: _sympy_scalar(c) for idx, c in out.coeffs.items()}
    assert got == expected
    assert out == reference_compose(f, args)


# --- exact kernels on integer numerators ---------------------------------
# Jet.__mul__ and compose run exact jets on integer numerators over one
# denominator per jet and reduce each result coefficient once.  The
# Fraction loops above are the oracle: equal in value, type and key order.

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


def integral(jet):
    """jet with every coefficient replaced by its numerator."""
    return Jet(jet.num_vars, jet.trunc_degree,
               {idx: Fraction(c.numerator) for idx, c in jet.coeffs.items()},
               blocks=jet.blocks)


@pytest.mark.parametrize("kind", ["primes", "integers", "zero", "complex"])
@pytest.mark.parametrize("case", range(6))
def test_exact_product_and_compose_equal_the_fraction_loops(kind, case):
    rng = np.random.default_rng(4000 + case)
    outer_vars = int(rng.integers(1, 4))
    inner_vars = int(rng.integers(1, 4))
    N = int(rng.integers(2, 6))
    m = 1 + case % 2
    f = random_exact_jet(rng, outer_vars, N, n_terms=8)
    args = [random_exact_jet(rng, inner_vars, int(rng.integers(N, 7)),
                             n_terms=4, min_ord=m) for _ in range(outer_vars)]
    args = [g if g else Jet.variable(0, inner_vars, N) for g in args]
    h = random_exact_jet(rng, inner_vars, N, n_terms=8)
    if kind == "primes":
        f, h = over_primes(f), over_primes(h, 2)
        args = [over_primes(g, k + 1) for k, g in enumerate(args)]
    elif kind == "integers":
        f, h, *args = (integral(g) for g in (f, h, *args))
    elif kind == "zero":
        f, h = Jet.zero(outer_vars, N), Jet.zero(inner_vars, N)
    else:   # one ComplexRational operand of each kernel
        args[0] = args[0].scale(ComplexRational(1, 2))
    assert exact_items(f.compose(args)) == \
        exact_items(reference_compose(f, args))
    g = args[0]
    for a, b in ((g, h), (h, g), (h, h)):
        assert exact_items(a * b) == exact_items(reference_mul(a, b))


def test_exact_compose_and_product_drop_what_cancels():
    # The cancellations of the two float tests above, over coprime
    # denominators: (y0/q + y1/r)(y0/q - y1/r) cancels at y0*y1, and the
    # running sum at y0^2 cancels before z0^2 brings the key back.
    p, q, r = (Fraction(1, d) for d in PRIMES)
    f = Jet.from_terms(3, 3, [((1, 1, 1), p)])
    g0, g1, g2 = (Jet.from_terms(2, 3, terms) for terms in (
        [((1, 0), q), ((0, 1), r)], [((1, 0), q), ((0, 1), -r)],
        [((0, 1), p), ((1, 0), q)]))
    assert list((g0 * g1).coeffs.items()) == [((2, 0), q * q),
                                              ((0, 2), -r * r)]
    assert exact_items(g0 * g1) == exact_items(reference_mul(g0, g1))
    out = f.compose([g0, g1, g2])
    assert list(out.coeffs) == [(2, 1), (3, 0), (0, 3), (1, 2)]
    assert exact_items(out) == exact_items(reference_compose(f, [g0, g1, g2]))

    f = Jet.from_terms(2, 3, [((0, 1), p), ((1, 0), p), ((2, 0), p)])
    g0 = Jet.from_terms(2, 3, [((2, 0), -q), ((1, 0), r)])
    g1 = Jet.from_terms(2, 3, [((2, 0), q), ((0, 1), r)])
    out = f.compose([g0, g1])
    assert list(out.coeffs) == [(0, 1), (1, 0), (3, 0), (2, 0)]
    assert exact_items(out) == exact_items(reference_compose(f, [g0, g1]))


# --- kernel loops on signed zeros and on Gaussian values that turn real ----
# A product of two purely imaginary floats is real with a signed-zero
# imaginary part, and one of two Gaussian rationals can be real: each
# kernel must coerce such values where the reference loops do, or signed
# zeros, types and the key order move.

def random_index(rng, num_vars, low, high):
    """An exponent tuple of random total degree low..high."""
    deg = int(rng.integers(low, high + 1))
    return tuple(int(e) for e in rng.multinomial(deg, [1 / num_vars] * num_vars))


def imaginary_jet(rng, num_vars, trunc_degree, n_terms, min_ord=0,
                  real_share=0.0):
    """Float jet of coefficients +-0.0 + b i (real_share of them real
    floats), b in +-1/2, +-1, +-2; built from a dict, since a sum would
    turn -0.0 into 0.0."""
    coeffs = {}
    for _ in range(n_terms):
        b = float(rng.choice([-2, -1, -0.5, 0.5, 1, 2]))
        coeffs[random_index(rng, num_vars, min_ord, trunc_degree)] = (
            b if rng.random() < real_share
            else complex(float(rng.choice([0.0, -0.0])), b))
    return Jet(num_vars, trunc_degree, coeffs, mode="float")


def gaussian_jet_turning_real(rng, num_vars, trunc_degree, n_terms,
                              min_ord=0):
    """Exact jet of Gaussian rationals a + b i, b in +-1, +-1/2 and a = 0
    for two thirds of them, else a in +-1, +-1/2: products of two
    imaginary values are real, and sums often cancel."""
    parts = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    coeffs = {}
    for _ in range(n_terms):
        re, im = (parts[int(k)] for k in rng.integers(0, len(parts), 2))
        coeffs[random_index(rng, num_vars, min_ord, trunc_degree)] = \
            ComplexRational(re if rng.random() < 1 / 3 else 0, im)
    return Jet(num_vars, trunc_degree, coeffs)


@pytest.mark.parametrize("case", range(40))
def test_float_kernels_keep_the_signed_zeros_of_imaginary_jets(case):
    rng = np.random.default_rng(6000 + case)
    outer_vars, inner_vars = (int(v) for v in rng.integers(1, 4, 2))
    N = int(rng.integers(2, 6))
    m = 1 + case % 2
    share = 0.3 if case % 4 == 3 else 0.0
    f = imaginary_jet(rng, outer_vars, N, 12, real_share=share)
    args = [imaginary_jet(rng, inner_vars, int(rng.integers(N, 7)), 6,
                          min_ord=m, real_share=share)
            for _ in range(outer_vars)]
    assert float_bits(f.compose(args)) == \
        float_bits(reference_compose(f, args))
    h = imaginary_jet(rng, inner_vars, N, 8, real_share=share)
    for a, b in ((args[0], h), (h, args[0]), (h, h)):
        assert float_bits(a * b) == float_bits(reference_mul(a, b))


@pytest.mark.parametrize("case", range(12))
def test_gaussian_kernels_coerce_values_that_turn_real(case):
    rng = np.random.default_rng(7000 + case)
    outer_vars, inner_vars = (int(v) for v in rng.integers(1, 4, 2))
    N = int(rng.integers(2, 5))
    m = 1 + case % 2
    f = gaussian_jet_turning_real(rng, outer_vars, N, 8)
    args = [gaussian_jet_turning_real(rng, inner_vars, int(rng.integers(N, 6)),
                                      4, min_ord=m)
            for _ in range(outer_vars)]
    h = gaussian_jet_turning_real(rng, inner_vars, N, 8)
    results = [(f.compose(args), reference_compose(f, args))]
    results += [(a * b, reference_mul(a, b))
                for a, b in ((args[0], h), (h, args[0]), (h, h))]
    for got, want in results:
        assert exact_items(got) == exact_items(want)
    # every case meets products of Gaussian jets that turn real
    assert any(isinstance(c, Fraction) for got, _ in results
               for c in got.coeffs.values())


# --- norms ------------------------------------------------------------------

def test_sup_norm_bound_examples():
    z = Jet.variable(0, 1, 3)
    assert z.sup_norm_bound(1) == 1
    assert Jet.constant(1, 1, 3).sup_norm_bound(Fraction(5)) == 1
    assert Jet.zero(1, 3).sup_norm_bound(1) == 0
    f = Jet.from_terms(1, 3, [((0,), 1), ((1,), 1)])
    assert f.sup_norm_bound(Fraction(1, 2)) == Fraction(3, 2)


def test_sup_norm_monotone_in_radius():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_exact_jet(rng, 3, 6)
        s = Fraction(int(rng.integers(1, 50)), 50)
        sp = s + Fraction(int(rng.integers(1, 50)), 50)
        assert f.sup_norm_bound(s) <= f.sup_norm_bound(sp)


def test_sup_norm_is_algebra_norm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = random_exact_jet(rng, 2, 4)
        g = random_exact_jet(rng, 2, 4)
        s = Fraction(1, 3)
        # submultiplicative up to truncation (dropping terms only shrinks)
        assert (f * g).sup_norm_bound(s) <= f.sup_norm_bound(s) * g.sup_norm_bound(s)


def test_cauchy_estimate_for_derivatives():
    rng = np.random.default_rng(10)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        f = random_exact_jet(rng, m, 7)
        var = int(rng.integers(0, m))
        s = Fraction(int(rng.integers(1, 40)), 40)
        sigma = Fraction(int(rng.integers(1, 40)), 40)
        lhs = f.derivative(var).sup_norm_bound(s)
        rhs = f.sup_norm_bound(s + sigma) / sigma
        assert lhs <= rhs


def test_norms_reject_bad_radius():
    z = Jet.variable(0, 1, 3)
    with pytest.raises(ValueError):
        z.sup_norm_bound(0)
    with pytest.raises(ValueError):
        z.sup_norm_bound(-1)


@pytest.mark.parametrize("s", [float("inf"), float("nan"), -float("inf")])
def test_norms_reject_a_non_finite_radius(s):
    for jet in (Jet.variable(0, 1, 3), Jet.variable(0, 1, 3).to_float()):
        with pytest.raises(ValueError, match="positive and finite"):
            jet.sup_norm_bound(s)
    # a rational radius past the float range is still finite
    assert Jet.variable(0, 1, 3).sup_norm_bound(Fraction(10) ** 400) == \
        Fraction(10) ** 400


# --- modes ------------------------------------------------------------------

def test_mode_mixing_rejected():
    z = Jet.variable(0, 1, 3)
    f = Jet.from_terms(1, 3, [((1,), 0.5)])
    with pytest.raises(ModeMixError):
        z + f
    with pytest.raises(ModeMixError):
        z * f
    with pytest.raises(ModeMixError):
        z.scale(0.5)
    assert z.to_float() + f == Jet.from_terms(1, 3, [((1,), 1.5)])


def test_zero_jet_adapts_mode():
    f = Jet.from_terms(1, 3, [((1,), 0.5)])
    out = Jet.zero(1, 3) + f
    assert out.mode == "float"


def test_complex_rational_arithmetic():
    i = ComplexRational(0, 1)
    assert i * i == -1
    a = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    assert (a * a.conjugate()) == a.abs2()
    assert a + a == ComplexRational(1, Fraction(2, 3))
    assert (a / a) == 1
    assert i ** 4 == 1 and i ** 3 == -i
    with pytest.raises(ModeMixError):
        ComplexRational(0.5)


def test_complex_rational_str():
    cases = [
        (ComplexRational(Fraction(3, 4), Fraction(-1, 2)), "3/4-1/2j"),
        (ComplexRational(0, 1), "1j"),
        (ComplexRational(0, -1), "-1j"),
        (ComplexRational(Fraction(-2, 7), 0), "-2/7"),
        (ComplexRational(5, Fraction(22, 7)), "5+22/7j"),
    ]
    for c, text in cases:
        assert str(c) == text


# --- shape and block checks ---------------------------------------------------

def test_shape_mismatch_detected():
    f = Jet.variable(0, 2, 3)
    g = Jet.variable(0, 3, 3)
    with pytest.raises(ShapeMismatchError):
        f + g
    with pytest.raises(ShapeMismatchError):
        Jet(2, 3, {(1, 2, 3): 1})


def test_block_structure_checked():
    bl = (("q", 1), ("p", 1))
    f = Jet.variable(0, 2, 3, blocks=bl)
    g = Jet.variable(1, 2, 3, blocks=(("a", 2),))
    with pytest.raises(ShapeMismatchError):
        f + g
    h = Jet.variable(1, 2, 3, blocks=bl)
    assert str(f * h) == "q*p"


# --- serialization -------------------------------------------------------------

@pytest.mark.parametrize("value, expected", [
    (Fraction(-3, 4), "-3/4"),
    (Fraction(5), "5"),
    (ComplexRational(Fraction(1, 2), -3), {"re": "1/2", "im": "-3"}),
    (complex(0.5, -2.0), {"re": 0.5, "im": -2.0}),
    (np.float64(0.1), 0.1),
    (np.int64(7), 7),
    (np.bool_(True), True),
    ({1: Fraction(1, 2), "k": (np.int64(2), [Fraction(3), None])},
     {"1": "1/2", "k": [2, ["3", None]]}),
    ({"rho": DecaySequence([Fraction(1, 3), Fraction(1, 6)])},
     {"rho": {"values": ["1/3", "1/6"], "k_max": 1, "monotone": True,
              "descriptor": None}}),
    # a report that is also a tuple serializes as its dict, not a list
    (BrunoReport(0.25, "moderate", 4),
     {"partial_sum": 0.25, "verdict": "moderate", "K": 4}),
    (Jet.from_terms(2, 3, [((1, 0), Fraction(2, 3)),
                           ((1, 1), ComplexRational(0, 1))],
                    blocks=(("q", 1), ("p", 1))),
     {"num_vars": 2, "trunc_degree": 3, "mode": "exact",
      "blocks": [["q", 1], ["p", 1]],
      "terms": [[[1, 0], "2/3"], [[1, 1], {"re": "0", "im": "1"}]]}),
    (Jet.from_terms(2, 3, [((1, 1), complex(0.25, -1.0)), ((1, 0), 0.5)],
                    mode="float"),
     {"num_vars": 2, "trunc_degree": 3, "mode": "float", "blocks": None,
      "terms": [[[1, 0], 0.5], [[1, 1], {"re": 0.25, "im": -1.0}]]}),
    ("text", "text"),
])
def test_to_jsonable_each_input_kind(value, expected):
    out = to_jsonable(value)
    assert out == expected
    assert type(out) is type(expected)
    assert json.loads(json.dumps(out)) == expected


def test_truncation_invariant_enforced():
    f = Jet(1, 2, {(5,): 1})  # silently dropped: above truncation degree
    assert not f
    g = Jet.from_terms(1, 5, [((k,), 1) for k in range(6)])
    assert g.truncate(2) == Jet.from_terms(1, 2, [((0,), 1), ((1,), 1), ((2,), 1)])


def test_truncate_never_raises_the_degree():
    x = Jet.variable(0, 1, 3)
    assert x.truncate(5).trunc_degree == 3
    assert x.truncate(2).trunc_degree == 2
    # a degree-3 jet does not know x^4, so its power certifies no x^4 term
    fourth = x.truncate(5) ** 4
    assert fourth.trunc_degree == 3 and not fourth


# --- the coefficient invariant ---------------------------------------------
# Every jet holds nonzero coefficients of its mode's canonical type within
# its truncation degree.  Outside input is cleaned by __init__ and new
# values by the operation that makes them; selections reuse the values.

def canonical(c, mode):
    if mode == "exact":
        return type(c) is Fraction or (type(c) is ComplexRational
                                       and c.im != 0)
    return type(c) is float or (type(c) is complex and c.imag != 0.0)


def assert_invariant(jet):
    for idx, c in jet.coeffs.items():
        assert sum(idx) <= jet.trunc_degree, (idx, jet.trunc_degree)
        assert c != 0 and canonical(c, jet.mode), (idx, c)


COARSE = [-1, Fraction(-1, 2), Fraction(1, 2), 1]


def coarse_value(rng, kind):
    """Values from a small set, so that sums and products cancel; a
    quarter of the gaussian and complex ones are real."""
    pick = [COARSE[int(k)] for k in rng.integers(0, len(COARSE), 2)]
    real = rng.random() < 0.25
    if kind == "exact":
        return pick[0]
    if kind == "gaussian":
        return ComplexRational(pick[0], 0 if real else pick[1])
    if kind == "float":
        return float(pick[0])
    return complex(float(pick[0]), 0.0 if real else float(pick[1]))


def coarse_jet(rng, kind, trunc_degree, n_terms=10, min_ord=0):
    lay = SymplecticLayout(2)
    coeffs = {}
    for _ in range(n_terms):
        deg = int(rng.integers(min_ord, trunc_degree + 1))
        idx = tuple(int(e) for e in rng.multinomial(deg, [0.25] * 4))
        coeffs[idx] = coarse_value(rng, kind)
    return Jet(4, trunc_degree, coeffs, blocks=lay.blocks,
               mode="exact" if kind in ("exact", "gaussian") else "float")


def partner(rng, jet, kind, trunc_degree):
    """A jet at another degree that cancels a third of jet's keys within
    it exactly and the imaginary part of the other non-real values."""
    coeffs = dict(coarse_jet(rng, kind, trunc_degree).coeffs)
    for k, (idx, v) in enumerate(jet.coeffs.items()):
        if sum(idx) > trunc_degree:
            continue
        if k % 3 == 0:
            coeffs[idx] = -v
        elif isinstance(v, complex):
            coeffs[idx] = complex(1.0, -v.imag)
        elif isinstance(v, ComplexRational):
            coeffs[idx] = ComplexRational(1, -v.im)
    return Jet(jet.num_vars, trunc_degree, coeffs, blocks=jet.blocks,
               mode=jet.mode)


SCALARS = {
    "exact": [3, Fraction(-1, 2), ComplexRational(0, 1),
              ComplexRational(2, 0)],
    "gaussian": [3, Fraction(-1, 2), ComplexRational(0, 1),
                 ComplexRational(2, 0), ComplexRational(1, -1)],
    "float": [3, -0.5, 1j, 2 + 0j],
    "complex": [3, -0.5, 1j, 2 + 0j, 1 - 1j],
}


@pytest.mark.parametrize("kind", ["exact", "gaussian", "float", "complex"])
@pytest.mark.parametrize("case", range(4))
def test_every_jet_operation_keeps_the_coefficient_invariant(kind, case):
    rng = np.random.default_rng(case)
    lay = SymplecticLayout(2)
    f = coarse_jet(rng, kind, 5)
    g = partner(rng, f, kind, 4 + case % 3)
    one = 1 if f.mode == "exact" else 1.0
    inner = [coarse_jet(rng, kind, 5, n_terms=3, min_ord=1) + z
             for z in (Jet.variable(k, 4, 5, blocks=lay.blocks,
                                    mode=f.mode) for k in range(4))]
    gen = coarse_jet(rng, kind, 5, min_ord=3)
    results = [f + g, g + f, f - g, f + one, one - f, -f, f - f, f * g,
               f / 2, f ** 2, f.truncate(3), f.degree_slice(2),
               f.project(lambda idx: idx[0] >= idx[2]), f.compose(inner),
               Jet.from_terms(4, 5, [*f.coeffs.items(), *g.coeffs.items()]),
               bracket(f, g, lay), lie_exp(HamiltonianDerivation(gen, lay),
                                           f)]
    if f.mode == "exact":
        results.append(f.to_float())
    results += [f.scale(c) for c in SCALARS[kind]]
    results += [f.derivative(k) for k in range(4)]
    for jet in results:
        assert_invariant(jet)
    # the cancellations happen: keys of f vanish from f + g, complex
    # values turn real there, and f - f is the zero jet
    total = (f + g).coeffs
    assert any(idx in g.coeffs and idx not in total for idx in f.coeffs)
    if kind in ("gaussian", "complex"):
        assert any(type(c) in (Fraction, float)
                   and type(f[idx]) in (ComplexRational, complex)
                   for idx, c in total.items())
    assert not f - f


@pytest.mark.parametrize("kind", ["exact", "gaussian", "float", "complex"])
def test_selections_keep_the_value_objects(kind):
    f = coarse_jet(np.random.default_rng(5), kind, 6, n_terms=14)
    for part in (f.truncate(4), f.degree_slice(3),
                 f.project(lambda idx: idx[1] == 0)):
        assert part
        for idx, c in part.coeffs.items():
            assert c is f.coeffs[idx]


# --- float conversion ------------------------------------------------------

def hex_terms(jet):
    """(index, float.hex of each part) in storage order."""
    return [(idx, (c.real.hex(), c.imag.hex()) if isinstance(c, complex)
             else c.hex()) for idx, c in jet.coeffs.items()]


def gaussian_jet():
    """An exact jet with Gaussian rational coefficients that floats round:
    non-real ones, a real one and a purely imaginary one."""
    third, seventh = Fraction(1, 3), Fraction(-2, 7)
    return Jet(4, 5, {(1, 0, 0, 0): ComplexRational(third, seventh),
                      (0, 2, 1, 0): Fraction(5, 3),
                      (0, 0, 1, 1): ComplexRational(0, Fraction(1, 9)),
                      (2, 1, 0, 2): ComplexRational(seventh, 1)})


@pytest.mark.parametrize("case", ["morse-n1", "morse-n2", "morse-n3",
                                  "gaussian"])
def test_to_float_of_a_complex_jet_keeps_its_values(case):
    if case == "gaussian":
        exact = gaussian_jet()
        floats = [exact.to_float()]
        assert hex_terms(floats[0]) == [
            (idx, (complex(c).real.hex(), complex(c).imag.hex())
             if isinstance(c, ComplexRational) else float(c).hex())
            for idx, c in exact.coeffs.items()]
    else:
        floats = morse_substitution(int(case[-1]), 4, mode="float")
    assert any(isinstance(c, complex) for f in floats for c in f.coeffs.values())
    for f in floats:
        again = f.to_float()
        assert again == f and again.mode == "float"
        assert again.trunc_degree == f.trunc_degree
        assert hex_terms(again) == hex_terms(f)
