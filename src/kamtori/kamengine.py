"""Jet-level KAM iteration with Hadamard-product quasi-inverses.

The engine conjugates a model-plus-perturbation Hamiltonian jet to a
normal form by the four-term stage recurrence

    a_{n+1} = r_{n+1}(a_n + alpha_n)
    b_{n+1} = r_{n+1} e^{-u_n}(a_n + b_n) - a_{n+1}
    u_{n+1} = j_{n+1}(sum of alpha_i) applied to the class of b_{n+1}
    alpha_{n+1} + c_{n+1} = b_{n+1} - u_{n+1}(a_{n+1})

where the restrictions r_n are degree truncations (the window grows by
one degree per stage, realizing the ultraviolet cutoff of the
quasi-inverse), alpha_n collects the absorbable part (the set F), c_n
the overflow (its complement), and j_n is the quasi-inverse built by
dividing each solvable monomial by its eigenvalue under the quadratic
model.  F is fixed: the monomials with two action factors p_kq_k.
`_split` is the one place that draws this line, for the stage solution,
the stage absorption and the certificate alike.

Conventions.  A derivation acts by u_h(f) = {f, h}, so the quasi-inverse
returns the generator with bracket(model, generator) = target modulo F
and degrees beyond the window; stage transforms apply e^{-u_n}, first
stage first.

Truncation.  Every derivation the engine builds keeps the truncation
degree N of the jet it acts on, because its generator has order >= 3.
The stage flows e^{-u_n}, the products u_n(a_n) and the replay
certificate are therefore plain lie_exp and derivation calls, exact in
every degree <= N.

Replay certificate.  In exact mode the conjugated jet is recomputed on
a second route.  Each e^{-u_n} is an algebra automorphism (u_n is a
derivation), so it acts on any jet as composition with the images of
the bare coordinates under e^{-u_n} alone, and the whole transform is
the chain of those per-stage maps.
The replay composes the starting jet with them, stage by stage, and
must reproduce the iterated conjugation exactly.  It checks the same
equality as pushing every coordinate through all the stages, at the
cost of one Lie series per coordinate and one compose per stage.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import FrequencyVector, bruno_diagnostic, sigma
from .birkhoff import (COMPLEX_MORSE, _extract_frequencies,
                       _in_action_square, _qp_layout, _solve_terms,
                       action_ideal_certificate)
from .errors import (BudgetExceededError, CertificateError, ConvergenceError,
                     OrderTooLowError)
from .jets import EXACT, Jet, _abs_mag, to_jsonable
from .poisson import HamiltonianDerivation, SymplecticLayout, lie_exp


def _window(jet, w):
    """The part of degree <= w; unlike Jet.truncate it keeps the jet's
    truncation degree."""
    return jet.project(lambda idx: sum(idx) <= w)


# ---------------------------------------------------------------------------
# quasi-inverse by eigenvalue division
# ---------------------------------------------------------------------------

def hadamard_quasi_inverse(freqs, target, layout, *, alpha_acc=None,
                           divisor_floor=None):
    """Quasi-inverse of the adjoint of the quadratic model, on one target.

    The model is sum_k freqs_k p_kq_k, so the divisors are the
    eigenvalues (freqs, i-j) of its bracket; ``freqs`` are the model's
    action coefficients, which `kam_iterate` reads from its model jet.
    Every monomial of ``target`` outside the absorbable set F (the
    monomials with two action factors p_kq_k) is divided by its
    eigenvalue; the returned derivation u satisfies bracket(model,
    generator) = target modulo F, up to the degree window the caller
    imposed by truncating the target.  When the model has accumulated
    F-terms ``alpha_acc`` beyond its quadratic part, the displayed
    correction re-solves the solvable part of the bracket of alpha_acc
    against the first generator, so the identity still holds modulo F at
    the window.

    The generator sign is the one that makes bracket(model, generator)
    equal +target; callers conjugate with e^{-u}.
    """
    terms, _ = _stage_solution(target, layout, freqs, divisor_floor,
                               target.mode == EXACT, alpha_acc, math.inf)
    gen = Jet(target.num_vars, target.trunc_degree, terms,
              blocks=layout.blocks, mode=target.mode)
    return HamiltonianDerivation(gen, layout)


def _split(jet, layout):
    """Split a jet into what a stage solves and what F absorbs.

    Returns (overflow, absorbable), built in one pass in ``jet``'s order:
    ``absorbable`` the monomials in F (two action factors p_kq_k),
    ``overflow`` the rest.  The whole overflow is solvable; a resonant
    monomial in it raises when solved.
    """
    parts = {}, {}
    for idx, v in jet.coeffs.items():
        parts[_in_action_square(*layout.split(idx))][idx] = v
    return jet._like(parts[False]), jet._like(parts[True])


# ---------------------------------------------------------------------------
# problem and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KamProblem:
    """One normalization run: model ``a``, perturbation ``b``, descriptors.

    The quadratic part of ``a`` is the model sum_k alpha_k p_kq_k with
    every alpha_k nonzero; `kam_iterate` reads alpha from it, and the
    divisors are the eigenvalues (alpha, i-j) of its bracket.  The
    absorbable set F is the monomials with two action factors (see
    `_split`); the overflow c_n is its complement.  The restriction r_n
    truncates to degree base_degree + n.  The norm ledger is read at the
    stage radii s_n = s (1 + 3^-n) / 2 with s = 1/2.
    """

    layout: SymplecticLayout
    a: Jet
    b: Jet
    max_stage: int = None
    k_offset: int = 0
    base_degree: int = 3
    divisor_floor: object = None
    verify: bool = True

    def __post_init__(self):
        self.layout.check(self.a)
        self.layout.check(self.b)
        if self.b and self.b.ord() < 3:
            raise OrderTooLowError(
                f"perturbation has order {self.b.ord()} < 3")
        if self.base_degree < 2:
            raise ValueError("base_degree must be >= 2")


@dataclass(frozen=True, eq=False)
class KamState:
    """Immutable snapshot of one stage of the iteration."""

    stage: int
    a_n: Jet
    b_n: Jet
    alpha_n: Jet
    c_n: Jet
    u_n: object
    ord_b: object
    min_divisor: object
    norm_ledger: dict
    transform: tuple
    success: bool = False

    def to_json_dict(self):
        gen = self.u_n.generator if self.u_n is not None else None
        return to_jsonable({
            "stage": self.stage,
            "ord_b": self.ord_b,
            "min_divisor": self.min_divisor,
            "solved_monomials": 0 if gen is None else len(gen.coeffs),
            "mu_corrections": 0,    # always 0; keeps `kam run` bytes fixed
            "norms": self.norm_ledger,
            "success": self.success,
        })


def _norm_ledger(stage, jets, exact):
    """Sup-norm ledger at the stage radius s_n = s (1 + 3^-n) / 2, s = 1/2."""
    if exact:
        s = Fraction(1, 2)
        s_n = s * (1 + Fraction(1, 3 ** stage)) / 2
        sigma_n = s / 3 ** (stage + 2)
    else:
        s_n = 0.5 * (1 + 3.0 ** (-stage)) / 2
        sigma_n = 0.5 / 3.0 ** (stage + 2)
    ledger = {"s": s_n, "sigma": sigma_n}
    for name, j in jets.items():
        ledger[name] = 0 if j is None else j.sup_norm_bound(s_n)
    return ledger


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------

def _stage_solution(target, layout, freqs, floor, exact, alpha_acc, window):
    """Build the stage generator's terms and the smallest divisor.

    A correction that cancels a term leaves a zero there, which the
    generator's Jet drops."""
    solvable, _ = _split(target, layout)
    quotients, min_div = _solve_terms(solvable.terms(), layout, freqs, floor,
                                      exact)
    # the generator holds -coeff/eigenvalue (0 - v: no float -0.0)
    terms = {idx: 0 - v for idx, v in quotients.items()}

    if alpha_acc and terms:
        gen = Jet(target.num_vars, target.trunc_degree, terms,
                  blocks=layout.blocks, mode=target.mode)

        def in_window(idx):
            qe, pe = layout.split(idx)
            return qe != pe and sum(idx) <= window
        err = HamiltonianDerivation(gen, layout)(alpha_acc, window).project(
            in_window)
        corr_src, _ = _split(err, layout)
        corr, corr_div = _solve_terms(corr_src.terms(), layout, freqs, floor,
                                      exact)
        for idx, c in corr.items():
            terms[idx] = terms.get(idx, 0) + c     # solve the negated error
        if corr_div is not None and corr_div < min_div:
            min_div = corr_div
    return terms, min_div


def _clean_float(jet, tol):
    """Drop float coefficients at or below tol (roundoff dust)."""
    if not jet or not tol:
        return jet
    return jet.project(lambda idx: _abs_mag(jet[idx]) > tol)


def kam_iterate(problem: KamProblem):
    """Run the stage recurrence; returns (final state, full trace).

    Stages run until nothing is left to do -- a stage that solves nothing
    (u_n = 0), overflows nothing (c_n = 0), and whose absorption alpha_n
    accounts exactly for the whole conjugated jet is final -- or until
    max_stage, whichever comes first.  Each stage solves the
    non-absorbable part of b_n inside the window (degree base_degree + n)
    via the quasi-inverse, absorbs the F-part into the model with the
    next restriction, and conjugates by e^{-u_n}.  The divisors come from
    the action coefficients of problem.a's quadratic part, which must be
    sum_k alpha_k p_kq_k (NotEllipticError otherwise).  On
    success the residual of the conjugated jet over the final model is
    verified to lie in F, and (exact mode, when problem.verify) the whole
    conjugation is replayed as an independent check: a + b is composed
    with each stage's coordinate map (the images of the coordinates under
    e^{-u_n}, exact because e^{-u_n} is an algebra automorphism) and must
    equal the conjugated jet exactly.  In float mode coefficients at
    roundoff scale (1e-12 relative to the largest coefficient) are treated
    as zero; exact mode never thresholds.
    """
    lay = problem.layout
    exact = problem.a.mode == EXACT and problem.b.mode == EXACT
    freqs = _extract_frequencies(problem.a, lay.n, COMPLEX_MORSE)
    N = min(problem.a.trunc_degree, problem.b.trunc_degree)
    base = problem.base_degree
    # Default stage budget: the window walks to N in N - base steps and
    # the order of b climbs by at least one per solving stage, so N stages
    # always reach the truncation degree.
    max_stage = problem.max_stage if problem.max_stage is not None else N

    a0 = problem.a
    T = a0 + problem.b
    a_cur = a0
    gens = []
    trace = []
    final = None
    prev_solved_ord = None

    def tol():
        if exact:
            return 0
        scale = max((_abs_mag(c) for c in T.coeffs.values()), default=1.0)
        return 1e-12 * max(1.0, scale)

    n = 0
    while True:
        w = base + n
        if n == 0:
            b_n = problem.b
        else:
            b_n = _clean_float(_window(T, w) - a_cur, tol())
        ord_b = b_n.ord() if b_n else None

        if prev_solved_ord is not None and ord_b is not None \
                and ord_b <= prev_solved_ord:
            raise ConvergenceError(
                f"order of b did not increase after a solving stage "
                f"({prev_solved_ord} -> {ord_b}); the quasi-inverse is "
                "inconsistent with the F/G split")

        target = _window(b_n, w)
        alpha_acc = a_cur - a0 if n > 0 else None
        terms, min_div = _stage_solution(
            target, lay, freqs, problem.divisor_floor, exact, alpha_acc, w)

        gen = Jet(b_n.num_vars, N, terms, blocks=lay.blocks, mode=b_n.mode)
        u_n = HamiltonianDerivation(gen, lay) if gen else None
        if u_n is not None:
            gord = gen.ord()
            if gord < n - problem.k_offset:
                raise ConvergenceError(
                    f"stage {n} generator has order {gord} < "
                    f"{n - problem.k_offset}; it left the allowed filtration")

        rhs = b_n - u_n(a_cur) if u_n is not None else b_n
        rhs = _clean_float(rhs, tol())
        c_n, alpha_n = _split(rhs, lay)

        done = False
        if u_n is None:
            done = not _clean_float(T - a_cur - alpha_n, tol())
        ledger = _norm_ledger(n, {
            "a": a_cur, "b": b_n, "alpha": alpha_n, "c": c_n,
            "generator": gen if gen else None}, exact)
        state = KamState(
            stage=n, a_n=a_cur, b_n=b_n, alpha_n=alpha_n, c_n=c_n, u_n=u_n,
            ord_b=ord_b, min_divisor=min_div, norm_ledger=ledger,
            transform=tuple(gens) + ((u_n,) if u_n is not None else ()),
            success=done)
        trace.append(state)
        final = state
        if done or n == max_stage:
            break

        if u_n is not None:
            T = lie_exp(-u_n, T)
            T = _clean_float(T, tol())     # tol() reads the new T
            gens.append(u_n)
            if ord_b is not None:
                prev_solved_ord = ord_b
        a_cur = _window(a_cur + alpha_n, base + n + 1)
        n += 1

    if final.success:
        _check_postconditions(problem, final, T, gens, exact)
    return final, trace


def _normal_form_of(final):
    """The model at success, with the final stage's absorption included."""
    return final.a_n + final.alpha_n


def _check_postconditions(problem, final, T, gens, exact):
    lay = problem.layout
    bad, _ = _split(T - _normal_form_of(final), lay)
    if bad:
        raise CertificateError(
            "conjugacy residual escapes the absorbable set F at "
            f"{sorted(bad.coeffs)[:3]}")
    if problem.verify and exact and gens:
        # e^{-u_m}...e^{-u_1}(a + b) on a second route.  Each e^{-u} is an
        # automorphism, so pushing every coordinate through all stages and
        # composing once gives the same jet as composing stage by stage;
        # the check is the same exact equality with T, and still no
        # conjugated jet of the recurrence enters it.
        replay = _replay(problem.a + problem.b, gens, lay)
        if replay.truncate(T.trunc_degree) != T:
            raise CertificateError(
                "transform replay through coordinate images disagrees "
                "with the iterated conjugation")


def _replay(H, gens, lay):
    """e^{-u_m} ... e^{-u_1} H (gens[0] acts first), by composition.

    e^{-u} f = f o Phi_u, where Phi_u holds the images of the bare
    coordinates under e^{-u} (u is a derivation, so e^{-u} is an algebra
    automorphism).  The stages chain
    as H o Phi_1 o ... o Phi_m: one Lie series per coordinate and one
    compose per stage.  Each Phi_u has order 1 and is exact to H's
    truncation degree, so every compose is as well.
    """
    N = H.trunc_degree
    coords = [lay.q(k, N) for k in range(lay.n)] \
        + [lay.p(k, N) for k in range(lay.n)]
    for u in gens:
        H = H.compose([lie_exp(-u, z) for z in coords])
    return H


# ---------------------------------------------------------------------------
# fiber normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiberResult:
    """Outcome of a fiber normalization run."""

    normalized: Jet
    certificate: object
    transform: tuple
    eigen_freqs: tuple
    bruno: object
    final: KamState
    trace: tuple
    layout: SymplecticLayout


def fiber_normalize(H, *, verify=True):
    """Conjugate sum alphat_k p_kq_k + R to the model modulo the ideal square.

    ``H`` is a jet in complex-Morse shape: its quadratic part is the
    model sum_k alphat_k p_kq_k, and its action coefficients alphat are
    the frequencies in the divisors (alphat, i-j), read by `kam_iterate`
    and recorded as ``eigen_freqs``.  The perturbation R = H minus the
    quadratic part must vanish to order 3.  Drives the stage recurrence
    with the absorbable set F = two-action-factor monomials of order >= 3
    and returns the normalized jet, the applied generators, the
    exponent-inspection certificate that the residual lies in the
    action-ideal square, and a Bruno-sum diagnostic of real frequencies
    (never a gate).

    Raises ConvergenceError when the stage budget exhausts first.
    """
    lay = _qp_layout(H)
    eigen = tuple(_extract_frequencies(H, lay.n, COMPLEX_MORSE))
    try:
        alpha = FrequencyVector(eigen)
    except (TypeError, ValueError):
        alpha = None

    quad = H.degree_slice(2)
    problem = KamProblem(layout=lay, a=quad, b=H - quad, verify=verify)
    final, trace = kam_iterate(problem)
    if not final.success:
        raise ConvergenceError(
            f"stage budget exhausted at stage {final.stage} with "
            f"ord(b) = {final.ord_b}")
    normalized = _normal_form_of(final)
    cert = action_ideal_certificate(normalized, lay)
    bruno = None
    if alpha is not None:
        try:
            bruno = bruno_diagnostic(sigma(alpha, 4), 4)
        except (BudgetExceededError, ValueError, OverflowError):
            bruno = None
    return FiberResult(
        normalized=normalized, certificate=cert,
        transform=tuple(final.transform), eigen_freqs=eigen,
        bruno=bruno, final=final, trace=tuple(trace), layout=lay)


# ---------------------------------------------------------------------------
# remainder inequalities for the exponential of a derivation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResteReport:
    """Diagnostic evaluation of the five remainder inequalities.

    Each item holds both sides of one inequality in the weighted-majorant
    norm, with the fitted level-1 bounded constant standing in for the
    operator norm; ``guard`` records the exponentiability condition
    3 N1 <= (tau - s)/2 (noted, never a gate).
    """

    s: object
    tau: object
    n_hat: object
    guard: dict
    items: tuple

    @property
    def all_ok(self):
        return all(item["ok"] for item in self.items)

    def to_json_dict(self):
        return to_jsonable(vars(self))


# basis degree and dyadic grid size of the level-1 fit behind N1
_RESTE_BASIS_DEGREE = 5
_RESTE_GRID_SIZE = 3


def reste_inequalities_check(u, x, s, tau):
    """Evaluate the five remainder inequalities for e^{±u} on x at (s, tau).

    Left sides are exact jet computations; right sides use |x| and |u(x)|
    at radius tau together with the level-1 constant N1 of u, fitted on
    the spot (recorded as ``n_hat``).  The constants are 36/(tau-s)^2
    N1^2, 2/(tau-s) N1, 6/(tau-s) N1, 2, and 2.  Reports pass/fail and
    margins; diagnostic only.
    """
    from .scalednorms import fit_bounded_constant

    if isinstance(s, float) or isinstance(tau, float):
        s, tau = float(s), float(tau)
    else:
        s, tau = Fraction(s), Fraction(tau)
    if not (0 < s < tau):
        raise ValueError("need 0 < s < tau")
    n_hat = fit_bounded_constant(
        u, 1, tau, _RESTE_BASIS_DEGREE, _RESTE_GRID_SIZE,
        num_vars=x.num_vars, blocks=x.blocks).N_hat

    ux = u(x)
    exp_minus = lie_exp(-u, x)
    reste2 = lie_exp(-u, x + ux) - x
    exp_plus = lie_exp(u, x)

    x_tau = x.sup_norm_bound(tau)
    ux_tau = ux.sup_norm_bound(tau)
    gap = tau - s

    checks = [
        ("remainder_two_terms_vs_x", reste2.sup_norm_bound(s),
         36 * x_tau / gap ** 2 * n_hat ** 2),
        ("remainder_two_terms_vs_ux", reste2.sup_norm_bound(s),
         2 * ux_tau / gap * n_hat),
        ("remainder_one_term_vs_x", (exp_minus - x).sup_norm_bound(s),
         6 * x_tau / gap * n_hat),
        ("remainder_one_term_vs_ux", (exp_minus - x).sup_norm_bound(s),
         2 * ux_tau),
        ("exp_bounded", exp_plus.sup_norm_bound(s), 2 * x_tau),
    ]
    items = []
    for name, lhs, rhs in checks:
        items.append({"name": name, "lhs": lhs, "rhs": rhs,
                      "ok": lhs <= rhs, "margin": rhs - lhs})
    guard_lhs = 3 * n_hat
    guard_rhs = gap / 2
    guard = {"lhs": guard_lhs, "rhs": guard_rhs, "ok": guard_lhs <= guard_rhs}
    return ResteReport(s=s, tau=tau, n_hat=n_hat, guard=guard,
                       items=tuple(items))
