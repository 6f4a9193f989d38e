"""Stage recurrence, quasi-inverses, fiber normalization, replay."""

import dataclasses
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from kamtori.birkhoff import (COMPLEX_MORSE, REAL_ELLIPTIC,
                              EllipticHamiltonian, _in_action_square,
                              action_ideal_certificate, birkhoff_normalize)
from kamtori import kamengine
from kamtori.errors import (CertificateError, ConvergenceError,
                            NotEllipticError, OrderTooLowError,
                            ResonanceError, SmallDivisorError)
from kamtori.jets import ComplexRational, Jet
from kamtori.kamengine import (KamProblem, fiber_normalize,
                               hadamard_quasi_inverse, kam_iterate,
                               reste_inequalities_check)
from kamtori.poisson import (HamiltonianDerivation, SymplecticLayout, bracket,
                             lie_exp)

F1 = Fraction(1)
LAY1 = SymplecticLayout(1)
LAY2 = SymplecticLayout(2)


def mono(lay, c, qexp=(), pexp=(), N=8):
    return lay.monomial(c, qexp=qexp, pexp=pexp, trunc_degree=N)


# ---------------------------------------------------------------- the F split

def reference_split(jet, layout):
    """_split as it was: the part in F, and jet minus it."""
    absorbable = jet.project(
        lambda idx: _in_action_square(*layout.split(idx)))
    return jet - absorbable, absorbable


def described(jet):
    """Truncation degree, mode, and per key in storage order the key, the
    value's type and its value (float.hex of each float part)."""
    def show(c):
        if isinstance(c, (float, complex)):
            return (float.hex(complex(c).real), float.hex(complex(c).imag))
        return c
    return (jet.trunc_degree, jet.mode, jet.blocks,
            [(idx, type(c).__name__, show(c)) for idx, c in jet.coeffs.items()])


def every_monomial_jet(seed, kind, N):
    """Every monomial of degree 2..N in (q1, q2, p1, p2), in a seeded
    order, with a seeded value of the kind."""
    rng = random.Random(seed)
    keys = [e for e in product(range(N + 1), repeat=4) if 2 <= sum(e) <= N]
    rng.shuffle(keys)
    coeffs = {}
    for idx in keys:
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(2))
        coeffs[idx] = {"exact": a, "gaussian": ComplexRational(a, b),
                       "float": float(a),
                       "complex": complex(float(a), float(b))}[kind]
    return Jet(4, N, coeffs, blocks=LAY2.blocks)


@pytest.mark.parametrize("kind", ["exact", "gaussian", "float", "complex"])
@pytest.mark.parametrize("seed", range(3))
def test_split_equals_the_subtraction(kind, seed):
    jet = every_monomial_jet(seed, kind, 4 + seed)
    overflow, absorbable = kamengine._split(jet, LAY2)
    want_overflow, want_absorbable = reference_split(jet, LAY2)
    assert described(overflow) == described(want_overflow)
    assert described(absorbable) == described(want_absorbable)
    assert absorbable and overflow
    assert len(overflow) + len(absorbable) == len(jet)


# ---------------------------------------------------------------- quasi-inverse

def test_quasi_inverse_zero_target():
    u = hadamard_quasi_inverse([F1], LAY1.zero(8), LAY1)
    assert not u.generator


def test_quasi_inverse_single_monomial_bracket_back():
    # model (2/3) pq, target q^3: eigenvalue is (2/3)*3 = 2, so the
    # generator is -q^3/2 and bracket(model, generator) returns the target.
    model = mono(LAY1, Fraction(2, 3), qexp=(1,), pexp=(1,))
    target = mono(LAY1, F1, qexp=(3,))
    u = hadamard_quasi_inverse([Fraction(2, 3)], target, LAY1)
    assert dict(u.generator.coeffs) == {(3, 0): Fraction(-1, 2)}
    assert bracket(model, u.generator, LAY1).truncate(8) == target


def test_quasi_inverse_unit_frequency_cubic():
    # target q^3 against model pq: the magnitude is q^3/(3 alpha).
    model = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    target = mono(LAY1, F1, qexp=(3,))
    u = hadamard_quasi_inverse([F1], target, LAY1)
    (idx, c), = u.generator.coeffs.items()
    assert idx == (3, 0) and abs(c) == Fraction(1, 3)
    assert bracket(model, u.generator, LAY1).truncate(8) == target


def test_quasi_inverse_absorbable_target_contributes_nothing():
    # (p1 q1)^2 has two action factors: it belongs to F and is skipped.
    target = mono(LAY1, F1, qexp=(2,), pexp=(2,))
    u = hadamard_quasi_inverse([F1], target, LAY1)
    assert not u.generator


def test_quasi_inverse_resonant_outside_f_raises():
    target = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    with pytest.raises(ResonanceError):
        hadamard_quasi_inverse([F1], target, LAY1)


def test_quasi_inverse_correction_term():
    # Model pq + (pq)^2 (the square is accumulated drift), target q.
    # Plain division gives -q; the drift bracket {(pq)^2, -q} = 2 q^2 p
    # is re-solved, adding +2 q^2 p.  The residual of the full bracket
    # against the target is then exactly -4 q^3 p^2, inside F.
    model = mono(LAY1, F1, qexp=(1,), pexp=(1,)) + \
        mono(LAY1, F1, qexp=(2,), pexp=(2,))
    drift = mono(LAY1, F1, qexp=(2,), pexp=(2,))
    target = mono(LAY1, F1, qexp=(1,))
    u = hadamard_quasi_inverse([F1], target, LAY1, alpha_acc=drift)
    assert dict(u.generator.coeffs) == {
        (1, 0): Fraction(-1), (2, 1): Fraction(2)}
    resid = bracket(model, u.generator, LAY1).truncate(8) - target
    assert dict(resid.coeffs) == {(3, 2): Fraction(-4)}


def test_quasi_inverse_small_divisor_floor():
    # eigenvalue (1/2 - 0) * 1 = 1/2 at floor 1 names the monomial.
    target = mono(LAY1, F1, qexp=(1,))
    with pytest.raises(SmallDivisorError, match="monomial q is"):
        hadamard_quasi_inverse([Fraction(1, 2)], target, LAY1,
                               divisor_floor=1)


def test_quasi_inverse_complex_divisor_floor_is_exact():
    # |3/25 + 4/25 i| = 1/5 exactly sits on the floor 1/5; the float
    # square root of 1/25 rounds to 0.2 > 1/5 and would let it through.
    target = mono(LAY1, F1, qexp=(1,))
    lam = ComplexRational(Fraction(3, 25), Fraction(4, 25))
    with pytest.raises(SmallDivisorError, match="monomial q is"):
        hadamard_quasi_inverse((lam,), target, LAY1,
                               divisor_floor=Fraction(1, 5))
    below = Fraction(1, 5) - Fraction(1, 10 ** 9)
    u = hadamard_quasi_inverse((lam,), target, LAY1, divisor_floor=below)
    assert dict(u.generator.coeffs) == {(1, 0): -1 / lam}


# ---------------------------------------------------------------- kam_iterate

def flagship_problem(N=8, b_extra=None):
    a = mono(LAY1, F1, qexp=(1,), pexp=(1,), N=N)
    b = mono(LAY1, F1, qexp=(3,), N=N)
    if b_extra is not None:
        b = b + b_extra
    return KamProblem(layout=LAY1, a=a, b=b)


def test_iterate_zero_perturbation_terminates_at_stage_zero():
    a = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    prob = KamProblem(layout=LAY1, a=a, b=LAY1.zero(8))
    final, trace = kam_iterate(prob)
    assert final.success and final.stage == 0 and len(trace) == 1
    assert final.u_n is None and not final.alpha_n and not final.c_n
    assert final.transform == ()


def test_iterate_absorbable_perturbation_terminates_at_stage_zero():
    a = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    b = mono(LAY1, F1, qexp=(2,), pexp=(2,))
    final, trace = kam_iterate(KamProblem(layout=LAY1, a=a, b=b))
    assert final.success and final.stage == 0
    assert final.alpha_n == b and not final.c_n and final.u_n is None


def test_iterate_flagship_cubic():
    final, trace = kam_iterate(flagship_problem())
    assert final.success
    # the whole q^3 is killed in one stage: {q^3, q^3} = 0 leaves no error
    assert len(trace) == 2
    assert trace[0].ord_b == 3 and trace[1].ord_b is None
    for st in trace:
        assert st.ord_b is None or st.ord_b >= st.stage + 3
    st0 = trace[0]
    assert dict(st0.u_n.generator.coeffs) == {(3, 0): Fraction(-1, 3)}
    assert st0.min_divisor == 3
    normal = final.a_n + final.alpha_n
    assert dict(normal.coeffs) == {(1, 1): F1}


def test_iterate_flagship_state_json():
    final, trace = kam_iterate(flagship_problem())
    d = trace[0].to_json_dict()
    assert {"stage", "ord_b", "min_divisor", "solved_monomials",
            "mu_corrections", "norms", "success"} <= set(d)
    assert d["stage"] == 0 and d["solved_monomials"] == 1
    json.dumps([st.to_json_dict() for st in trace])  # serializable


def test_iterate_norm_ledger_radii():
    # s_n = s (1 + 3^-n)/2 and sigma_n = s/3^(n+2), exact fractions.
    final, trace = kam_iterate(flagship_problem())
    s = Fraction(1, 2)
    for st in trace:
        n = st.stage
        assert st.norm_ledger["s"] == s * (1 + Fraction(1, 3 ** n)) / 2
        assert st.norm_ledger["sigma"] == s / 3 ** (n + 2)


def test_iterate_agrees_with_global_elimination():
    # Two independent elimination orders must produce the same resonant
    # content: the stage recurrence (window by window) against the global
    # per-degree normalization.
    N = 8
    b_extra = mono(LAY1, F1, pexp=(3,), N=N)
    final, trace = kam_iterate(flagship_problem(N=N, b_extra=b_extra))
    assert final.success
    normal = final.a_n + final.alpha_n
    kam_resonant = normal.project(lambda idx: idx[0] == idx[1])

    H = mono(LAY1, F1, qexp=(1,), pexp=(1,), N=N) + \
        mono(LAY1, F1, qexp=(3,), N=N) + b_extra
    eh = EllipticHamiltonian(H, coordinate_mode=COMPLEX_MORSE)
    res = birkhoff_normalize(eh, N // 2)
    birkhoff_resonant = res.normal_morse.project(lambda i: i[0] == i[1])
    assert kam_resonant == birkhoff_resonant
    assert dict(kam_resonant.coeffs) == {
        (1, 1): F1, (2, 2): Fraction(-3), (3, 3): Fraction(-12),
        (4, 4): Fraction(-105)}


def test_iterate_float_quadratic_convergence():
    # Full window from the start: a genuine quadratic scheme.  The order
    # of b follows 3 -> 4 -> 7 -> 13 (errors double past the model) and
    # the log-norm drops grow strictly over >= 3 solving stages.
    N = 16
    a = mono(LAY1, 1.0, qexp=(1,), pexp=(1,), N=N)
    b = mono(LAY1, 1.0, qexp=(3,), N=N) + mono(LAY1, 1.0, pexp=(3,), N=N)
    prob = KamProblem(layout=LAY1, a=a, b=b, base_degree=N)
    final, trace = kam_iterate(prob)
    assert final.success
    assert [st.ord_b for st in trace] == [3, 4, 7, 13, None]
    solving = [st for st in trace if st.u_n is not None]
    assert len(solving) >= 4
    logs = [math.log(st.b_n.sup_norm_bound(0.25)) for st in solving]
    drops = [logs[i] - logs[i + 1] for i in range(len(logs) - 1)]
    assert len(drops) >= 3
    assert all(drops[i] < drops[i + 1] for i in range(len(drops) - 1))


def test_iterate_reads_divisors_from_the_model():
    # a = 2 pq alone fixes the divisors 2 (i - j): q^3 is divided by 6
    # and p^3 by -6; a model with a non-action quadratic term has none
    a = mono(LAY1, Fraction(2), qexp=(1,), pexp=(1,))
    b = cubic_pair() - mono(LAY1, F1, qexp=(1,), pexp=(1,))
    final, trace = kam_iterate(KamProblem(layout=LAY1, a=a, b=b))
    assert final.success and trace[0].min_divisor == 6
    assert dict(trace[0].u_n.generator.coeffs) == {
        (3, 0): Fraction(-1, 6), (0, 3): Fraction(1, 6)}
    with pytest.raises(NotEllipticError):
        kam_iterate(KamProblem(layout=LAY1, a=a + mono(LAY1, F1, qexp=(2,)),
                               b=b))


def test_problem_validation():
    a = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    with pytest.raises(OrderTooLowError):
        KamProblem(layout=LAY1, a=a, b=mono(LAY1, F1, qexp=(2,)))


# ---------------------------------------------------------------- fiber

def test_fiber_zero_perturbation_identity():
    H = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    fib = fiber_normalize(H)
    assert fib.normalized == H
    assert fib.transform == ()
    assert fib.certificate.ok


def test_fiber_absorbable_perturbation_identity_up_to_f():
    H = mono(LAY1, F1, qexp=(1,), pexp=(1,)) + \
        mono(LAY1, F1, qexp=(2,), pexp=(2,))
    fib = fiber_normalize(H)
    assert fib.transform == ()
    assert fib.normalized == H
    assert fib.certificate.ok


def test_fiber_two_frequencies_golden_ratio_convergent():
    # alpha = (1, 987/610): a Fibonacci convergent of the golden ratio;
    # coprime numerator and denominator keep every divisor nonzero at
    # this truncation.  R = q1^2 q2 + p1^3.
    N = 8
    phi = Fraction(987, 610)
    H = (LAY2.monomial(F1, qexp=(1, 0), pexp=(1, 0), trunc_degree=N) +
         LAY2.monomial(phi, qexp=(0, 1), pexp=(0, 1), trunc_degree=N) +
         LAY2.monomial(F1, qexp=(2, 1), trunc_degree=N) +
         LAY2.monomial(F1, pexp=(3, 0), trunc_degree=N))
    fib = fiber_normalize(H)
    assert fib.final.success
    assert fib.certificate.ok
    ords = [st.ord_b for st in fib.trace]
    assert ords == [3, 4, 5, 6, 7, 8, None]
    # every non-model monomial of the normal form has two action factors
    for idx in fib.normalized.coeffs:
        qe, pe = idx[:2], idx[2:]
        if qe == pe and sum(qe) == 1:
            continue
        assert sum(min(a, b) for a, b in zip(qe, pe)) >= 2
    assert fib.bruno is not None


def test_prenormal_form_round_trip():
    # real-elliptic input through the full chain: complexification,
    # per-degree elimination, stage recurrence, exponent certificate.
    N = 6
    H = (mono(LAY1, Fraction(3, 2), qexp=(2,), N=N) +
         mono(LAY1, Fraction(3, 2), pexp=(2,), N=N) +
         mono(LAY1, Fraction(1, 4), qexp=(3,), N=N))
    res = birkhoff_normalize(EllipticHamiltonian(H, REAL_ELLIPTIC), 3)
    fib = fiber_normalize(res.normal_morse)
    assert fib.eigen_freqs == (ComplexRational(0, 3),)   # 2i * 3/2
    assert fib.certificate.ok
    assert action_ideal_certificate(fib.normalized, res.layout).ok
    for idx in fib.normalized.coeffs:
        qe, pe = idx[:1], idx[1:]
        if qe == pe and sum(qe) == 1:
            continue
        assert sum(min(a, b) for a, b in zip(qe, pe)) >= 2


def test_fiber_transform_conjugates_exactly():
    # Applying the recorded generators to H reproduces the normal form.
    N = 8
    H = mono(LAY1, F1, qexp=(1,), pexp=(1,), N=N) + \
        mono(LAY1, F1, qexp=(3,), N=N) + mono(LAY1, F1, pexp=(3,), N=N)
    fib = fiber_normalize(H)
    out = H
    for u in fib.transform:
        out = lie_exp(-u, out)
    assert out == fib.normalized


def test_fiber_budget_exhaustion_raises():
    # a budget of one stage stops the run unsuccessful, which
    # fiber_normalize reports as a ConvergenceError
    a = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    final, trace = kam_iterate(KamProblem(
        layout=LAY1, a=a, b=mono(LAY1, F1, qexp=(3,)), max_stage=0))
    assert not final.success and len(trace) == 1


def test_fiber_rejects_low_order():
    H = mono(LAY1, F1, qexp=(1,), pexp=(1,)) + mono(LAY1, F1, qexp=(1,))
    with pytest.raises(OrderTooLowError):
        fiber_normalize(H)


def test_fiber_small_divisor_floor():
    a = mono(LAY1, F1, qexp=(1,), pexp=(1,))
    with pytest.raises(SmallDivisorError):
        kam_iterate(KamProblem(layout=LAY1, a=a, b=mono(LAY1, F1, qexp=(3,)),
                               divisor_floor=5))


# ---------------------------------------------------------------- replay

def iterated_image_replay(H, gens, lay):
    """The replay by iterated images: every coordinate pushed through all
    the stages, then H composed with the images once."""
    N = H.trunc_degree
    coords = [lay.q(k, N) for k in range(lay.n)] \
        + [lay.p(k, N) for k in range(lay.n)]
    images = []
    for z in coords:
        for u in gens:
            z = lie_exp(-u, z)
        images.append(z)
    return H.compose(images)


def conjugated(H, gens):
    """The stage flows applied to the whole jet, as kam_iterate does."""
    for u in gens:
        H = lie_exp(-u, H)
    return H


def assert_replay_routes_agree(H, gens, lay):
    assert gens
    replay = kamengine._replay(H, gens, lay)
    assert replay == iterated_image_replay(H, gens, lay)
    assert replay == conjugated(H, gens)


def golden_ratio_fiber_jet(N=8):
    phi = Fraction(987, 610)
    return (LAY2.monomial(F1, qexp=(1, 0), pexp=(1, 0), trunc_degree=N) +
            LAY2.monomial(phi, qexp=(0, 1), pexp=(0, 1), trunc_degree=N) +
            LAY2.monomial(F1, qexp=(2, 1), trunc_degree=N) +
            LAY2.monomial(F1, pexp=(3, 0), trunc_degree=N))


def cubic_pair(N=8):
    return mono(LAY1, F1, qexp=(1,), pexp=(1,), N=N) + \
        mono(LAY1, F1, qexp=(3,), N=N) + mono(LAY1, F1, pexp=(3,), N=N)


def dense_fiber_jet(seed, N):
    """p1q1 + (987/610) p2q2 plus every cubic and quartic monomial, each
    with a seeded coefficient n/(10d), n in +-1..9, d in 1..9."""
    rng = random.Random(seed)
    coeffs = {(1, 0, 1, 0): F1, (0, 1, 0, 1): Fraction(987, 610)}
    for deg in (3, 4):
        for idx in sorted(e for e in product(range(deg + 1), repeat=4)
                          if sum(e) == deg):
            num = rng.choice([v for v in range(-9, 10) if v])
            coeffs[idx] = Fraction(num, 10 * rng.randint(1, 9))
    return Jet(4, N, coeffs, blocks=LAY2.blocks)


def test_replay_routes_agree_on_test_problems():
    prob = flagship_problem(b_extra=mono(LAY1, F1, pexp=(3,)))
    final, _ = kam_iterate(prob)
    assert_replay_routes_agree(prob.a + prob.b, final.transform, LAY1)
    for H, lay in ((cubic_pair(), LAY1), (golden_ratio_fiber_jet(), LAY2)):
        fib = fiber_normalize(H, verify=False)
        assert_replay_routes_agree(H, fib.transform, lay)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_routes_agree_on_dense_problems(seed):
    H = dense_fiber_jet(seed, 5)
    fib = fiber_normalize(H, verify=False)
    assert len(fib.transform) >= 2
    assert_replay_routes_agree(H, fib.transform, LAY2)


def certificate_args(prob, final, T, gens):
    return (prob, final, T, list(gens), True)


def test_replay_rejects_tampered_jet_and_generator():
    # The residual check only asks that T lie over the normal form modulo
    # F; an absorbable monomial added to T, or a generator changed after
    # the fact, passes it and must be caught by the replay alone.
    prob = KamProblem(layout=LAY1, a=mono(LAY1, F1, qexp=(1,), pexp=(1,)),
                      b=cubic_pair() - mono(LAY1, F1, qexp=(1,), pexp=(1,)))
    final, _ = kam_iterate(prob)
    gens = list(final.transform)
    assert len(gens) >= 2
    T = conjugated(prob.a + prob.b, gens)
    kamengine._check_postconditions(*certificate_args(prob, final, T, gens))

    in_f = mono(LAY1, Fraction(1, 9), qexp=(2,), pexp=(2,))
    u = gens[1].generator
    idx = next(iter(u.coeffs))
    bent = list(gens)
    bent[1] = HamiltonianDerivation(
        u + mono(LAY1, Fraction(1, 100), qexp=idx[:1], pexp=idx[1:]), LAY1)
    unchecked = dataclasses.replace(prob, verify=False)
    for T_used, gens_used in ((T + in_f, gens), (T, bent)):
        kamengine._check_postconditions(
            *certificate_args(unchecked, final, T_used, gens_used))
        with pytest.raises(CertificateError, match="replay"):
            kamengine._check_postconditions(
                *certificate_args(prob, final, T_used, gens_used))


# ---------------------------------------------------------------- remainders

def test_reste_zero_derivation_all_pass():
    u = HamiltonianDerivation(LAY1.zero(8), LAY1)
    rep = reste_inequalities_check(u, LAY1.p(0, 8), Fraction(1, 2), 1)
    assert rep.all_ok
    assert rep.n_hat == 0
    assert rep.guard["ok"]
    json.dumps(rep.to_json_dict())


def test_reste_exp_bound_at_zero():
    # inequality 5 with u = 0: |x|_s <= 2 |x|_tau, strict containment.
    u = HamiltonianDerivation(LAY1.zero(8), LAY1)
    rep = reste_inequalities_check(u, LAY1.p(0, 8), Fraction(1, 2), 1)
    item = rep.items[4]
    assert item["name"] == "exp_bounded"
    assert item["lhs"] == Fraction(1, 2) and item["rhs"] == 2


def test_reste_small_generator_quadratic_remainder():
    # u generated by eps q^3, x = p: u(p) = -3 eps q^2 and u(q^2) = 0, so
    # e^{-u}(x + u(x)) - x vanishes identically -- the remainder is
    # O(eps^2) with constant zero.  With x = p^2 the remainder is exactly
    # -9 eps^2 q^4 (u(p^2) = -6 eps p q^2, u^2(p^2) = 18 eps^2 q^4, and
    # u^3(p^2) = 0), hence |.|_{1/2} = 9 eps^2 / 16.
    for eps in (Fraction(1, 100), Fraction(1, 1000)):
        g = mono(LAY1, eps, qexp=(3,))
        u = HamiltonianDerivation(g, LAY1)
        rep = reste_inequalities_check(u, LAY1.p(0, 8), Fraction(1, 2), 1)
        assert rep.all_ok
        assert rep.items[0]["lhs"] == 0

        x2 = mono(LAY1, F1, pexp=(2,))
        rep2 = reste_inequalities_check(u, x2, Fraction(1, 2), 1)
        assert rep2.items[0]["lhs"] == Fraction(9, 16) * eps ** 2
        assert rep2.all_ok


def test_reste_guard_reports_without_gating():
    # A large generator fails the exponentiability guard; the report is
    # still produced in full (diagnostic, not a gate).
    g = mono(LAY1, F1, qexp=(3,))
    u = HamiltonianDerivation(g, LAY1)
    rep = reste_inequalities_check(u, LAY1.p(0, 8), Fraction(1, 2), 1)
    assert not rep.guard["ok"]
    assert len(rep.items) == 5
    json.dumps(rep.to_json_dict())


def test_reste_validates_radii():
    u = HamiltonianDerivation(LAY1.zero(8), LAY1)
    with pytest.raises(ValueError):
        reste_inequalities_check(u, LAY1.p(0, 8), 1, Fraction(1, 2))


# ------------------------------------------------ divisors and refusals

def test_problem_refuses_a_base_degree_below_two():
    with pytest.raises(ValueError, match="base_degree"):
        dataclasses.replace(flagship_problem(), base_degree=1)


def test_a_real_gaussian_divisor_enters_the_ledger_as_a_fraction():
    # (1+i) + (1-i) = 2: the divisor of q1^2 q2 p1 is ComplexRational(2, 0)
    N = 6
    a = Jet(4, N, {(1, 0, 1, 0): ComplexRational(1, 1),
                   (0, 1, 0, 1): ComplexRational(1, -1)}, blocks=LAY2.blocks)
    b = mono(LAY2, Fraction(1, 3), qexp=(2, 1), pexp=(1, 0), N=N)
    final, trace = kam_iterate(KamProblem(layout=LAY2, a=a, b=b))
    assert final.success
    assert type(trace[1].min_divisor) is Fraction
    assert trace[1].min_divisor == 2


def test_stage_divisor_includes_the_correction_divisors():
    # alpha_acc's q1^2 p1^2 p2 is in F but not resonant: it moves the
    # correction q1^4 p1 p2 off the generator's divisor 3 to 3 - 5/2
    freqs = [F1, Fraction(5, 2)]
    target = mono(LAY2, F1, qexp=(3, 0))
    alpha_acc = mono(LAY2, F1, qexp=(2, 0), pexp=(2, 1))
    terms, min_div = kamengine._stage_solution(
        target, LAY2, freqs, None, True, alpha_acc, math.inf)
    assert terms == {(3, 0, 0, 0): Fraction(-1, 3), (4, 0, 1, 1): 4}
    assert min_div == Fraction(1, 2)


def test_quasi_inverse_drops_a_term_its_correction_cancels():
    # the target's q1^4 p1 p2 term solves to -2 * 2 = -4 and the
    # correction from q1^3 adds +4: the generator has no such monomial
    freqs = [F1, Fraction(5, 2)]
    target = mono(LAY2, F1, qexp=(3, 0)) \
        + mono(LAY2, Fraction(2), qexp=(4, 0), pexp=(1, 1))
    alpha_acc = mono(LAY2, F1, qexp=(2, 0), pexp=(2, 1))
    u = hadamard_quasi_inverse(freqs, target, LAY2, alpha_acc=alpha_acc)
    assert (4, 0, 1, 1) not in u.generator.coeffs
    assert u.generator.coeffs[(3, 0, 0, 0)] == Fraction(-1, 3)


def test_fiber_without_an_affordable_bruno_box_reports_none():
    # sigma(alpha, 4) at 6 dof needs a 33^6 box, over the budget
    lay = SymplecticLayout(6)
    H = lay.q(0, 4) ** 3
    for k in range(6):
        H = H + lay.q(k, 4) * lay.p(k, 4).scale(k + 1)
    fib = fiber_normalize(H)
    assert fib.bruno is None and fib.final.success


# ------------------------------------ certificates under injected faults

def test_iterate_refuses_a_stage_that_does_not_raise_the_order(monkeypatch):
    monkeypatch.setattr(kamengine, "lie_exp", lambda u, f: f)
    with pytest.raises(ConvergenceError, match="did not increase"):
        kam_iterate(flagship_problem())


def test_iterate_certifies_the_residual_lies_in_f(monkeypatch):
    real = kamengine._normal_form_of
    monkeypatch.setattr(kamengine, "_normal_form_of", lambda final: real(
        final) + mono(LAY1, F1, qexp=(3,)))
    with pytest.raises(CertificateError, match="escapes the absorbable"):
        kam_iterate(flagship_problem())


def test_fiber_refuses_a_run_that_exhausts_its_stages(monkeypatch):
    real = kamengine.kam_iterate
    monkeypatch.setattr(kamengine, "kam_iterate", lambda problem: real(
        dataclasses.replace(problem, max_stage=0)))
    H = mono(LAY1, F1, qexp=(1,), pexp=(1,)) + mono(LAY1, F1, qexp=(3,))
    with pytest.raises(ConvergenceError, match="stage budget exhausted"):
        fiber_normalize(H)


def test_reste_with_float_radii_reports_floats():
    u = HamiltonianDerivation(LAY1.zero(8), LAY1)
    rep = reste_inequalities_check(u, LAY1.p(0, 8), 0.5, 1)
    assert type(rep.s) is float and type(rep.tau) is float
    assert rep.items[4]["lhs"] == 0.5 and rep.items[4]["rhs"] == 2.0
