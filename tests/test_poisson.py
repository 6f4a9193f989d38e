"""Bracket axioms, diagonal action, Lie exponentials, symplectic checks."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from kamtori.birkhoff import morse_substitution
from kamtori.errors import (
    NonInvertibleLinearPartError,
    OrderTooLowError,
    ShapeMismatchError,
)
from kamtori.jets import Jet
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


def test_bracket_ignores_lambda_mu():
    lay = SymplecticLayout(1, lambda_dim=1, mu_dim=1)
    N = 4
    lam, mu = lay.lam(0, N), lay.mu(0, N)
    assert bracket(lam, mu, lay) == lay.zero(2)
    assert bracket(lam, lay.q(0, N), lay) == lay.zero(2)
    # but they ride along as spectators
    f = lam * lay.q(0, N)
    assert bracket(f, lay.p(0, N), lay) == lam.truncate(3)


def test_quadratic_model_float_matches_exact():
    lay = SymplecticLayout(2)
    exact = lay.quadratic_model([Fraction(1), Fraction(809, 500)], 4)
    fl = lay.quadratic_model([1.0, 1.618], 4)
    assert fl.mode == "float" and exact.mode == "exact"
    assert dict(fl.coeffs) == dict(exact.to_float().coeffs)
    assert dict(exact.coeffs) == {(1, 0, 1, 0): 1,
                                  (0, 1, 0, 1): Fraction(809, 500)}


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


def test_mixed_derivation_mu_shift():
    lay = SymplecticLayout(1, lambda_dim=1, mu_dim=1)
    N = 5
    lam, mu = lay.lam(0, N), lay.mu(0, N)
    u = HamiltonianDerivation(lay.zero(N), lay, mu_coeffs=[lam.scale(2)])
    # e^u is the substitution mu -> mu + 2 lambda
    assert lie_exp(u, mu) == mu + lam.scale(2)
    assert lie_exp(u, mu * mu) == (mu + lam.scale(2)) ** 2


def test_mixed_derivation_termination_guard():
    lay = SymplecticLayout(1, lambda_dim=1, mu_dim=1)
    N = 5
    bad_gen = lay.mu(0, N) * lay.q(0, N) * lay.p(0, N)
    u = HamiltonianDerivation(bad_gen, lay, mu_coeffs=[lay.constant(1, N)])
    with pytest.raises(ValueError):
        lie_exp(u, lay.q(0, N))


def test_mu_coeffs_must_be_lambda_only():
    lay = SymplecticLayout(1, lambda_dim=1, mu_dim=1)
    with pytest.raises(ValueError):
        HamiltonianDerivation(lay.zero(4), lay, mu_coeffs=[lay.q(0, 4)])
    with pytest.raises(ShapeMismatchError):
        HamiltonianDerivation(lay.zero(4), lay, mu_coeffs=[])


def test_mixed_derivation_truncation_grade():
    # a * d/dmu f is known to min(f's degree, deg(d/dmu f) + ord(a)): a
    # constant-free a keeps the degree-N content of f, a constant a
    # loses one degree.
    lay = SymplecticLayout(1, lambda_dim=1, mu_dim=1)
    N = 5
    q, p, lam, mu = lay.q(0, N), lay.p(0, N), lay.lam(0, N), lay.mu(0, N)
    f = q * q * p * p * mu + mu
    u = HamiltonianDerivation(lay.zero(N), lay, mu_coeffs=[lam])
    out = u(f)
    assert out.trunc_degree == f.trunc_degree == N
    assert out == q * q * p * p * lam + lam
    const = HamiltonianDerivation(lay.zero(N), lay,
                                  mu_coeffs=[lay.constant(2, N)])
    out = const(f)
    assert out.trunc_degree == N - 1
    assert out == (q * q * p * p).scale(2) + 2


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
