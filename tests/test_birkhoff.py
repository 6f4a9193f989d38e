"""Birkhoff normalization: Morse conversion, normal forms, frequency map."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from kamtori import birkhoff
from kamtori.birkhoff import (
    COMPLEX_MORSE,
    REAL_ELLIPTIC,
    EllipticHamiltonian,
    action_ideal_certificate,
    birkhoff_normalize,
    frequency_map,
    inverse_morse_substitution,
    morse_substitution,
    to_complex_morse,
)
from kamtori.errors import (
    CertificateError,
    NotEllipticError,
    OrderTooLowError,
    ResonanceError,
    ShapeMismatchError,
    SmallDivisorError,
)
from kamtori.jets import ComplexRational, Jet
from kamtori.poisson import SymplecticLayout, check_symplectic

I = ComplexRational(0, 1)


def oscillator(n, N, alphas, extra=None):
    """sum a_k (p_k^2+q_k^2) plus an optional perturbation jet."""
    lay = SymplecticLayout(n)
    H = lay.zero(N)
    for k, a in enumerate(alphas):
        H = H + (lay.q(k, N) ** 2 + lay.p(k, N) ** 2).scale(Fraction(a))
    return H if extra is None else H + extra


# --- complex-Morse conversion ------------------------------------------------

def test_morse_substitution_is_symplectic():
    for n in (1, 2):
        lay = SymplecticLayout(n)
        assert check_symplectic(morse_substitution(n, 4), lay) == 0
        assert check_symplectic(inverse_morse_substitution(n, 4), lay) == 0


def test_to_complex_morse_quadratic():
    lay = SymplecticLayout(1)
    H = lay.q(0, 4) ** 2 + lay.p(0, 4) ** 2
    M = to_complex_morse(H, REAL_ELLIPTIC)
    # p^2 + q^2 |-> 2i QP
    assert M == (lay.q(0, 4) * lay.p(0, 4)).scale(I * 2)


def test_to_complex_morse_identity_on_morse_input():
    lay = SymplecticLayout(1)
    H = (lay.q(0, 4) * lay.p(0, 4)).scale(Fraction(2, 3))
    assert to_complex_morse(H, COMPLEX_MORSE) is H


def test_to_complex_morse_roundtrip_transports_cubic():
    n, N = 2, 6
    lay = SymplecticLayout(n)
    extra = lay.q(0, N) ** 3
    H = oscillator(n, N, [2, 2], extra)
    M = to_complex_morse(H, REAL_ELLIPTIC)
    back = M.compose(inverse_morse_substitution(n, N))
    assert back == H


def test_to_complex_morse_rejects_cross_terms():
    lay = SymplecticLayout(1)
    H = lay.q(0, 4) * lay.p(0, 4)          # not of the real-elliptic shape
    with pytest.raises(NotEllipticError):
        to_complex_morse(H, REAL_ELLIPTIC)
    with pytest.raises(NotEllipticError):
        to_complex_morse(lay.q(0, 4) ** 2, REAL_ELLIPTIC)   # missing p^2


# --- EllipticHamiltonian validation -------------------------------------------

def test_elliptic_hamiltonian_extracts_frequencies():
    H = oscillator(2, 6, [Fraction(1, 2), Fraction(3, 4)])
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    assert ell.alpha.components == (Fraction(1, 2), Fraction(3, 4))
    assert ell.n == 2


def test_elliptic_hamiltonian_rejects_low_order_and_shape():
    lay = SymplecticLayout(1)
    H = oscillator(1, 4, [1])
    with pytest.raises(OrderTooLowError):
        EllipticHamiltonian(H + 1, REAL_ELLIPTIC)
    with pytest.raises(OrderTooLowError):
        EllipticHamiltonian(H + lay.q(0, 4), REAL_ELLIPTIC)
    with pytest.raises(ShapeMismatchError):
        EllipticHamiltonian(Jet.zero(3, 4), REAL_ELLIPTIC)
    with pytest.raises(ValueError):
        EllipticHamiltonian(H, "polar")
    with pytest.raises(NotEllipticError):
        EllipticHamiltonian(H + lay.q(0, 4) * lay.p(0, 4), REAL_ELLIPTIC)


# --- birkhoff_normalize ----------------------------------------------------------

def test_normalize_already_normal():
    # H = a pq + (pq)^2 in complex-Morse coordinates: nothing to do
    lay = SymplecticLayout(1)
    Y = lay.q(0, 6) * lay.p(0, 6)
    a = Fraction(3, 5)
    ell = EllipticHamiltonian(Y.scale(a) + Y * Y, COMPLEX_MORSE)
    res = birkhoff_normalize(ell, 2)
    assert res.generators == ()
    assert res.A == Jet(1, 2, {(1,): a, (2,): Fraction(1)})
    assert not res.residual


def test_normalize_quartic_oscillator_oracle():
    # H = (p^2+q^2)/2 + q^4 -> A(X) = X + (3/2) X^2, X = (p^2+q^2)/2.
    # Independent oracle: angle average of q^4 on q = sqrt(2X) cos(t),
    # i.e. 4 X^2 <cos^4> with <cos^4> computed numerically.
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 8), lay.p(0, 8)
    H = (q * q + p * p).scale(Fraction(1, 2)) + q ** 4
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    res = birkhoff_normalize(ell, 2)
    assert res.A.coeffs[(1,)] == 1
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    angle_avg = 4.0 * np.mean(np.cos(t) ** 4)
    assert abs(float(res.A.coeffs[(2,)]) - angle_avg) < 1e-12
    assert res.A.coeffs[(2,)] == Fraction(3, 2)
    assert res.achieved_order == 4
    assert res.residual.ord() > 4


def test_normalize_unique_across_strategies():
    rng = np.random.default_rng(51)
    n, N = 2, 8
    lay = SymplecticLayout(n)
    terms = {}
    for _ in range(10):
        idx = tuple(int(x) for x in rng.integers(0, 3, 2 * n))
        if 3 <= sum(idx) <= 4:
            terms[idx] = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
    pert = Jet(2 * n, N, terms, blocks=lay.blocks)
    H = oscillator(n, N, [Fraction(1), Fraction(1, 3)], pert)
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    res_deg = birkhoff_normalize(ell, 2, strategy="per-degree")
    res_mono = birkhoff_normalize(ell, 2, strategy="per-monomial")
    assert res_deg.A == res_mono.A
    # generators differ in general, the normal form does not
    assert res_deg.a_morse == res_mono.a_morse


def test_normalize_resonant_terms_land_in_A_untouched():
    lay = SymplecticLayout(2)
    N = 6
    Y1 = lay.q(0, N) * lay.p(0, N)
    Y2 = lay.q(1, N) * lay.p(1, N)
    c1, c2 = Fraction(7, 2), Fraction(-1, 3)
    H = Y1 + Y2.scale(Fraction(5, 2)) + (Y1 * Y2).scale(c1) + (Y1 * Y1).scale(c2)
    ell = EllipticHamiltonian(H, COMPLEX_MORSE)
    res = birkhoff_normalize(ell, 2)
    assert res.generators == ()
    assert res.A.coeffs[(1, 1)] == c1
    assert res.A.coeffs[(2, 0)] == c2


def test_normalize_conjugacy_and_symplectic_exact():
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 8), lay.p(0, 8)
    H = (q * q + p * p).scale(Fraction(1, 2)) + q ** 3 + (q * q) * p
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    res = birkhoff_normalize(ell, 2)
    # H_morse o (transform images) - a_morse(Morse actions Q P)
    transformed = res.input_morse.compose(res.coordinate_images())
    defect = transformed - res.a_morse.compose([lay.q(0, 8) * lay.p(0, 8)])
    assert (not defect) or defect.ord() > 4
    assert check_symplectic(res.coordinate_images(), lay) == 0


def test_normalize_float_mode():
    lay = SymplecticLayout(1)
    q, p = lay.q(0, 8).to_float(), lay.p(0, 8).to_float()
    H = (q * q + p * p).scale(0.5) + q ** 4
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    res = birkhoff_normalize(ell, 2)
    assert abs(res.A.coeffs[(1,)] - 1.0) < 1e-12
    assert abs(res.A.coeffs[(2,)] - 1.5) < 1e-12
    assert check_symplectic(res.coordinate_images(), lay) <= 1e-10


def test_normalize_float_matches_exact_two_dof():
    # float mode must cancel non-resonant monomials as exact mode does:
    # the roundoff left at their exponents is projected out per degree
    lay = SymplecticLayout(2)
    N = 6
    pert = (lay.q(0, N) ** 2 * lay.p(1, N)
            + (lay.q(1, N) ** 3).scale(Fraction(1, 2))
            + (lay.q(0, N) * lay.p(0, N) * lay.q(1, N) ** 2).scale(
                Fraction(1, 3)))
    H = oscillator(2, N, [1, Fraction(987, 610)], pert)
    exact = birkhoff_normalize(EllipticHamiltonian(H, REAL_ELLIPTIC), 3)
    fl = birkhoff_normalize(
        EllipticHamiltonian(H.to_float(), REAL_ELLIPTIC), 3)
    assert fl.residual.ord() > 6
    keys = set(exact.A.coeffs) | set(fl.A.coeffs)
    scale = max(abs(float(c)) for c in exact.A.coeffs.values())
    for m in keys:
        a = float(exact.A.coeffs.get(m, 0))
        b = fl.A.coeffs.get(m, 0.0)
        assert isinstance(b, float)
        assert abs(b - a) <= 1e-11 * scale, m


def test_normalize_small_divisor_floor():
    lay = SymplecticLayout(2)
    N = 6
    alphas = [Fraction(1), Fraction(10, 9)]
    # q1^2 p1 p2 has i-j = (1,-1): divisor 2|(alpha, i-j)| = 2/9
    pert = lay.q(0, N) ** 2 * lay.p(0, N) * lay.p(1, N)
    H = oscillator(2, N, alphas, pert)
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    with pytest.raises(SmallDivisorError):
        birkhoff_normalize(ell, 2, divisor_floor=Fraction(1, 4))
    res = birkhoff_normalize(ell, 2)    # exact mode: only true resonance aborts
    assert res.residual.ord() > 4


def test_normalize_resonance_error():
    lay = SymplecticLayout(2)
    N = 6
    Y = lay.q(0, N) * lay.p(0, N) + lay.q(1, N) * lay.p(1, N)
    pert = lay.q(0, N) ** 2 * lay.p(0, N) * lay.p(1, N)   # i-j = (1,-1)
    ell = EllipticHamiltonian(Y + pert, COMPLEX_MORSE)    # alpha = (1,1) resonant
    with pytest.raises(ResonanceError):
        birkhoff_normalize(ell, 2)



def test_normalize_float_zero_floor_resonance_is_small_divisor():
    # float mode has no exact zero test: with the floor at 0 the vanishing
    # divisor must still raise SmallDivisorError, not divide by zero
    lay = SymplecticLayout(2)
    N = 6
    Y = lay.q(0, N) * lay.p(0, N) + lay.q(1, N) * lay.p(1, N)
    pert = lay.q(0, N) ** 2 * lay.p(0, N) * lay.p(1, N)
    ell = EllipticHamiltonian((Y + pert).to_float(), COMPLEX_MORSE)
    for strategy in ("per-degree", "per-monomial"):
        with pytest.raises(SmallDivisorError, match="q0\\^2\\*p0\\*p1"):
            birkhoff_normalize(ell, 2, divisor_floor=0, strategy=strategy)


def test_normalize_requires_truncation_headroom():
    H = oscillator(1, 4, [1])
    ell = EllipticHamiltonian(H, REAL_ELLIPTIC)
    with pytest.raises(OrderTooLowError):
        birkhoff_normalize(ell, 3)     # needs trunc >= 6
    with pytest.raises(ValueError):
        birkhoff_normalize(ell, 0)


def test_normalize_refuses_an_unknown_strategy():
    ell = EllipticHamiltonian(oscillator(1, 4, [1]), REAL_ELLIPTIC)
    with pytest.raises(ValueError, match="unknown strategy 'per-term'"):
        birkhoff_normalize(ell, 2, strategy="per-term")


def test_result_json_shape():
    H = oscillator(1, 6, [Fraction(1, 2)])
    res = birkhoff_normalize(EllipticHamiltonian(H, REAL_ELLIPTIC), 2)
    d = res.to_json_dict()
    assert d["achieved_order"] == 4
    assert d["alpha"] == ["1/2"]
    assert d["generator_count"] == 0


# --- frequency map ----------------------------------------------------------------

def test_frequency_map_examples():
    A = Jet(1, 2, {(1,): Fraction(3, 7)})
    (g,) = frequency_map(A)
    assert g == Jet.constant(Fraction(3, 7), 1, 1)
    A2 = Jet(1, 2, {(1,): Fraction(1), (2,): Fraction(3, 2)})
    (g2,) = frequency_map(A2)
    assert g2 == Jet(1, 1, {(0,): Fraction(1), (1,): Fraction(3)})
    (g3,) = frequency_map(Jet.constant(Fraction(5), 1, 2))
    assert not g3


# --- action-ideal certificates ------------------------------------------------------

def test_action_ideal_certificate_accepts_normal_shape():
    lay = SymplecticLayout(2)
    N = 6
    Y1 = lay.q(0, N) * lay.p(0, N)
    Y2 = lay.q(1, N) * lay.p(1, N)
    H = Y1 + Y2 + (Y1 * Y2).scale(Fraction(5)) + Y1 * Y1 * Y2
    cert = action_ideal_certificate(H)
    assert cert.ok and cert.offending is None


def test_action_ideal_certificate_names_offender():
    lay = SymplecticLayout(1)
    H = lay.q(0, 6) * lay.p(0, 6) + lay.q(0, 6) ** 3
    cert = action_ideal_certificate(H)
    assert not cert.ok
    assert cert.offending == (3, 0)
    assert "q^3" in cert.message


# --- refusals and certificates ---------------------------------------------------

LAY2 = SymplecticLayout(2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: EllipticHamiltonian(LAY2.q(0, 4) * LAY2.p(0, 4), COMPLEX_MORSE),
     NotEllipticError, "missing action monomial p_1q_1"),
    (lambda: to_complex_morse(Jet.zero(3, 4)), ShapeMismatchError,
     "even number"),
    (lambda: EllipticHamiltonian(
        Jet(4, 4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}, blocks=(("z", 4),)),
        COMPLEX_MORSE), ShapeMismatchError, "pure"),
    (lambda: birkhoff_normalize(oscillator(1, 4, [1]), 2), TypeError,
     "needs an EllipticHamiltonian"),
], ids=[
    "missing-action-monomial", "odd-variable-count", "foreign-blocks",
    "not-elliptic-hamiltonian"])
def test_birkhoff_refusals(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


def test_normalize_certifies_that_each_degree_was_cleared(monkeypatch):
    # Lie series that change nothing leave the cubic's non-resonant
    # monomials in place
    lay = SymplecticLayout(1)
    ell = EllipticHamiltonian(oscillator(1, 4, [1], lay.q(0, 4) ** 3),
                              REAL_ELLIPTIC)
    monkeypatch.setattr(birkhoff, "lie_exp", lambda u, f: f)
    with pytest.raises(CertificateError, match="non-resonant exponent"):
        birkhoff_normalize(ell, 2)


@pytest.mark.parametrize("extra, message", [
    ((2, 0), "residual has order 2"),      # q^2: not resonant
    ((1, 1), "not real"),                  # qp: resonant, real coefficient
])
def test_normalize_certifies_its_residual_and_a_real_A(monkeypatch, extra,
                                                       message):
    # a Morse form off by one quadratic monomial: l = 1 solves nothing, so
    # the certificates alone see it
    lay = SymplecticLayout(1)
    ell = EllipticHamiltonian(oscillator(1, 4, [1], lay.q(0, 4) ** 3),
                              REAL_ELLIPTIC)
    real = birkhoff.to_complex_morse
    monkeypatch.setattr(birkhoff, "to_complex_morse", lambda H, mode: real(
        H, mode) + Jet(2, 4, {extra: 1}, blocks=lay.blocks))
    with pytest.raises(CertificateError, match=message):
        birkhoff_normalize(ell, 1)
