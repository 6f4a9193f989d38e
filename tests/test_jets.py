"""Jet ring, filtration, Hadamard product, norms, serialization."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kamtori.arithmetic import BrunoReport, GeometricTail
from kamtori.errors import ModeMixError, OrderTooLowError, ShapeMismatchError
from kamtori.jets import ComplexRational, Jet, to_jsonable


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


# --- hadamard ---------------------------------------------------------------

def test_hadamard_unit_and_zero():
    rng = np.random.default_rng(11)
    f = random_exact_jet(rng, 2, 4)
    ones = Jet.ones(2, 4)
    assert f.hadamard(ones) == f
    assert f.hadamard(Jet.zero(2, 4)) == Jet.zero(2, 4)


def test_hadamard_ones_pattern():
    f = Jet.from_terms(1, 2, [((0,), 1), ((1,), 2), ((2,), 3)])
    g = Jet.from_terms(1, 2, [((0,), 1), ((1,), 1), ((2,), 1)])
    assert f.hadamard(g) == f


def test_hadamard_commutative_associative():
    rng = np.random.default_rng(12)
    f = random_exact_jet(rng, 2, 5)
    g = random_exact_jet(rng, 2, 5)
    h = random_exact_jet(rng, 2, 5)
    assert f.hadamard(g) == g.hadamard(f)
    assert f.hadamard(g).hadamard(h) == f.hadamard(g.hadamard(h))


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


def test_l2_norm_monomial_values():
    z = Jet.variable(0, 1, 3)
    assert math.isclose(z.l2_norm(1), math.sqrt(math.pi / 2), rel_tol=1e-12)
    one = Jet.constant(1, 1, 3)
    for s in (Fraction(1, 2), Fraction(2), Fraction(3, 4)):
        assert math.isclose(one.l2_norm(s), math.sqrt(math.pi) * float(s),
                            rel_tol=1e-12)
    assert Jet.zero(1, 3).l2_norm(1) == 0.0


def test_l2_weights_match_monte_carlo_disc_integration():
    # w_e(s) = pi s^(2e+2)/(e+1) should equal the integral of |z^e|^2
    # over the disc of radius s; check by uniform Monte-Carlo sampling.
    rng = np.random.default_rng(2024)
    n = 400_000
    s = 0.8
    u = rng.random(n)
    theta = rng.random(n) * 2 * math.pi
    r = s * np.sqrt(u)
    area = math.pi * s * s
    for e in range(4):
        mc = area * np.mean(r ** (2 * e))
        exact = math.pi * s ** (2 * e + 2) / (e + 1)
        assert abs(mc - exact) / exact < 0.01
    # two variables: product structure of the weight
    u2 = rng.random(n)
    r2 = s * np.sqrt(u2)
    mc2 = area * area * np.mean((r ** 2) * (r2 ** 4))
    exact2 = (math.pi * s ** 4 / 2) * (math.pi * s ** 6 / 3)
    assert abs(mc2 - exact2) / exact2 < 0.01
    # and the jet-level norm of f = z1 * z2^2 agrees with the same product
    f = Jet.variable(0, 2, 4) * Jet.variable(1, 2, 4) ** 2
    assert math.isclose(f.l2_norm(s), math.sqrt(exact2), rel_tol=1e-9)


def test_norms_reject_bad_radius():
    z = Jet.variable(0, 1, 3)
    with pytest.raises(ValueError):
        z.sup_norm_bound(0)
    with pytest.raises(ValueError):
        z.l2_norm(-1)


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


def test_complex_rational_parse_roundtrip():
    cases = [
        ComplexRational(Fraction(3, 4), Fraction(-1, 2)),
        ComplexRational(0, 1),
        ComplexRational(0, -1),
        ComplexRational(Fraction(-2, 7), 0),
        ComplexRational(5, Fraction(22, 7)),
    ]
    for c in cases:
        assert ComplexRational.parse(str(c)) == c


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

def test_json_roundtrip_exact_and_float():
    rng = np.random.default_rng(21)
    f = random_exact_jet(rng, 3, 5)
    f = f + Jet.from_terms(3, 5, [((1, 1, 0), ComplexRational(1, Fraction(1, 3)))])
    assert Jet.from_json(f.to_json()) == f
    g = f.to_float()
    g2 = Jet.from_json(g.to_json())
    assert g2.mode == "float"
    for idx, val in g.terms():
        assert g2[idx] == pytest.approx(val)


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
    ({"tail": GeometricTail(Fraction(1, 3), Fraction(1, 2))},
     {"tail": {"kind": "geometric", "c": "1/3", "ratio": "1/2"}}),
    # a report that is also a tuple serializes as its dict, not a list
    (BrunoReport(0.25, "moderate", 4),
     {"partial_sum": 0.25, "verdict": "moderate", "K": 4}),
    (Jet.from_terms(2, 3, [((1, 0), Fraction(2, 3)),
                           ((1, 1), ComplexRational(0, 1))],
                    blocks=(("q", 1), ("p", 1))),
     {"num_vars": 2, "trunc_degree": 3, "mode": "exact",
      "blocks": [["q", 1], ["p", 1]],
      "terms": [[[1, 0], "2/3"], [[1, 1], {"re": "0", "im": "1"}]]}),
    ("text", "text"),
])
def test_to_jsonable_each_input_kind(value, expected):
    out = to_jsonable(value)
    assert out == expected
    assert type(out) is type(expected)
    assert json.loads(json.dumps(out)) == expected


def test_text_roundtrip_graded_lex():
    f = Jet.from_terms(2, 4, [((0, 2), Fraction(1, 3)), ((1, 0), 2),
                              ((2, 2), ComplexRational(0, 1))])
    text = f.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("1,0:")  # degree 1 before degree 2
    assert Jet.from_text(text, 2, 4) == f


def test_truncation_invariant_enforced():
    f = Jet(1, 2, {(5,): 1})  # silently dropped: above truncation degree
    assert not f
    g = Jet.from_terms(1, 5, [((k,), 1) for k in range(6)])
    assert g.truncate(2) == Jet.from_terms(1, 2, [((0,), 1), ((1,), 1), ((2,), 1)])
