"""Birkhoff normalization near an elliptic equilibrium.

Near a nondegenerate elliptic critical point a Hamiltonian jet can be
normalized degree by degree: every non-resonant monomial of degree d is
cancelled by the time-one flow of a generator obtained by dividing its
coefficient by the eigenvalue of the monomial under the bracket with the
quadratic part.  What survives is a polynomial A in the n action variables
(the Birkhoff polynomial), unique even though the generators are not.

Internally everything runs in complex-Morse coordinates, where the
quadratic part is sum_k alphat_k P_k Q_k and the bracket acts diagonally on
monomials.  Real-elliptic input sum_k alpha_k (p_k^2 + q_k^2) is converted
by the exact linear symplectic substitution

    q_k = Q_k + (i/2) P_k,      p_k = i Q_k + (1/2) P_k,

which sends p_k^2 + q_k^2 to 2i Q_k P_k (so alphat = 2i alpha), and the
resonant monomials (QP)^m are transported back to real action monomials via
(QP)^m = (-i)^{|m|} X^m with X_k = (p_k^2 + q_k^2)/2.  All of this is exact
in rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import FrequencyVector
from .errors import (
    CertificateError,
    NotEllipticError,
    OrderTooLowError,
    ResonanceError,
    ShapeMismatchError,
    SmallDivisorError,
)
from .jets import EXACT, ComplexRational, Jet, _abs_mag, to_jsonable
from .poisson import (
    HamiltonianDerivation,
    SymplecticLayout,
    ad_eigenvalue,
    exp_product,
    lie_exp,
)

REAL_ELLIPTIC = "real-elliptic"
COMPLEX_MORSE = "complex-morse"

_I = ComplexRational(0, 1)


def morse_substitution(n, trunc, mode=EXACT):
    """Images of (q_1..q_n, p_1..p_n) under the complexifying substitution.

    Returns 2n linear jets over the Morse coordinates (Q, P):
    q_k = Q_k + (i/2) P_k and p_k = i Q_k + (1/2) P_k.  The substitution is
    symplectic: {q_k, p_k} = 1 in the (Q, P) bracket.
    """
    lay = SymplecticLayout(n)
    Q = [lay.q(k, trunc) for k in range(n)]
    P = [lay.p(k, trunc) for k in range(n)]
    images = [Q[k] + P[k].scale(_I / 2) for k in range(n)] \
        + [Q[k].scale(_I) + P[k].scale(Fraction(1, 2)) for k in range(n)]
    return images if mode == EXACT else [z.to_float() for z in images]


def inverse_morse_substitution(n, trunc, mode=EXACT):
    """Images of (Q, P) in terms of (q, p): Q_k = (q_k - i p_k)/2, P_k = p_k - i q_k."""
    lay = SymplecticLayout(n)
    q = [lay.q(k, trunc) for k in range(n)]
    p = [lay.p(k, trunc) for k in range(n)]
    images = [q[k].scale(Fraction(1, 2)) + p[k].scale(-_I / 2)
              for k in range(n)] + [q[k].scale(-_I) + p[k] for k in range(n)]
    return images if mode == EXACT else [z.to_float() for z in images]


def _close(a, b, exact):
    if exact:
        return a == b
    fa, fb = complex(a), complex(b)
    return abs(fa - fb) <= 1e-9 * max(1.0, abs(fa), abs(fb))


def _extract_frequencies(H, n, mode):
    """Frequencies of the quadratic part, validating the mode's exact shape."""
    lay = SymplecticLayout(n)
    exact = H.mode == EXACT
    quad = H.degree_slice(2)
    alpha = [None] * n
    for idx, c in quad.terms():
        qe, pe = lay.split(idx)
        if mode == REAL_ELLIPTIC:
            if sum(qe) == 2 and max(qe) == 2:
                k, kind = qe.index(2), "q"
            elif sum(pe) == 2 and max(pe) == 2:
                k, kind = pe.index(2), "p"
            else:
                raise NotEllipticError(
                    f"cross term {H.var_names()} {idx} in quadratic part")
            if alpha[k] is None:
                alpha[k] = [None, None]
            alpha[k][0 if kind == "q" else 1] = c
        else:
            if not (sum(qe) == 1 and qe == pe):
                raise NotEllipticError(
                    f"non-action quadratic term at exponent {idx}")
            alpha[qe.index(1)] = c
    if mode == REAL_ELLIPTIC:
        out = []
        for k, pair in enumerate(alpha):
            if pair is None or pair[0] is None or pair[1] is None \
                    or not _close(pair[0], pair[1], exact) or not pair[0]:
                raise NotEllipticError(
                    f"quadratic part is not sum a_k (p_k^2 + q_k^2) at k={k}")
            out.append(pair[0])
        return out
    for k, c in enumerate(alpha):
        if c is None or not c:
            raise NotEllipticError(f"missing action monomial p_{k}q_{k}")
    return alpha


def to_complex_morse(H, mode=REAL_ELLIPTIC):
    """Rewrite a (q,p)-jet in complex-Morse coordinates.

    For real-elliptic input the quadratic part sum a_k (p_k^2+q_k^2) becomes
    sum 2i*a_k P_kQ_k and every other term is transported by the same linear
    substitution (`morse_substitution`, which is the recorded map).  Input
    already in complex-Morse form is returned unchanged.
    """
    if H.num_vars % 2:
        raise ShapeMismatchError("need an even number of (q,p) variables")
    n = H.num_vars // 2
    _extract_frequencies(H, n, mode)   # validates ellipticity
    if mode == COMPLEX_MORSE:
        return H
    sub = morse_substitution(n, H.trunc_degree, mode=H.mode)
    return H.compose(sub)


def _qp_layout(H):
    """The SymplecticLayout of H, a pure (q,p) jet with no terms below
    degree 2; raises ShapeMismatchError or OrderTooLowError otherwise."""
    if H.num_vars % 2:
        raise ShapeMismatchError("need an even number of (q,p) variables")
    lay = SymplecticLayout(H.num_vars // 2)
    if H.blocks is not None and H.blocks != lay.blocks:
        raise ShapeMismatchError("H must be a pure (q,p) jet")
    if H and H.ord() < 2:
        raise OrderTooLowError("H must vanish to second order at 0")
    return lay


class EllipticHamiltonian:
    """A Hamiltonian jet with elliptic quadratic part and no lower terms.

    coordinate_mode "real-elliptic" means the quadratic part is exactly
    sum_k alpha_k (p_k^2 + q_k^2); "complex-morse" means sum_k alpha_k p_kq_k.
    In both cases alpha collects the nonzero frequencies and
    ord(H - quadratic) >= 3.
    """

    def __init__(self, H, coordinate_mode=REAL_ELLIPTIC):
        if coordinate_mode not in (REAL_ELLIPTIC, COMPLEX_MORSE):
            raise ValueError(f"unknown coordinate mode {coordinate_mode!r}")
        lay = _qp_layout(H)
        alpha = _extract_frequencies(H, lay.n, coordinate_mode)
        self.H = Jet(H.num_vars, H.trunc_degree, H.coeffs, blocks=lay.blocks,
                     mode=H.mode)
        self.alpha = FrequencyVector(alpha)
        self.coordinate_mode = coordinate_mode
        self.n = lay.n
        self.layout = lay

    def __repr__(self):
        return (f"EllipticHamiltonian(n={self.n}, mode={self.coordinate_mode!r}, "
                f"alpha={self.alpha!r})")


@dataclass(frozen=True)
class BirkhoffResult:
    """Normal form of an elliptic Hamiltonian to order 2l.

    A is the Birkhoff polynomial in the n action variables (real actions
    X_k = (p_k^2+q_k^2)/2 for real-elliptic input, X_k = p_kq_k for
    complex-Morse input).  generators hold the per-degree normalizing
    derivations in Morse coordinates, in application order; residual is
    what is left of the transformed Morse Hamiltonian beyond the resonant
    part, of order > 2l.
    """

    A: Jet
    generators: tuple
    residual: Jet
    achieved_order: int
    a_morse: Jet
    input_morse: Jet
    normal_morse: Jet
    coordinate_mode: str
    alpha: FrequencyVector
    layout: SymplecticLayout

    def coordinate_images(self, trunc=None):
        """Images of the Morse coordinates under the normalizing transform."""
        t = self.input_morse.trunc_degree if trunc is None else trunc
        lay = self.layout
        coords = [lay.q(k, t) for k in range(lay.n)] + \
                 [lay.p(k, t) for k in range(lay.n)]
        if self.input_morse.mode != EXACT:
            coords = [z.to_float() for z in coords]
        return [exp_product(self.generators, z) for z in coords]

    def to_json_dict(self):
        return to_jsonable({
            "achieved_order": self.achieved_order,
            "coordinate_mode": self.coordinate_mode,
            "alpha": self.alpha.components,
            "A": self.A,
            "generator_count": len(self.generators),
            "generator_orders": [g.generator.ord() for g in self.generators],
            "residual_order": self.residual.ord(),
        })


def birkhoff_normalize(H, l, divisor_floor=None, strategy="per-degree"):
    """Normalize an EllipticHamiltonian to order 2l.

    For each degree d = 3..2l the non-resonant monomials (q-exponent !=
    p-exponent) of the current Hamiltonian are cancelled by the flow of a
    generator with coefficients c/(alphat, i-j); resonant monomials
    accumulate into the Birkhoff polynomial A.  strategy "per-degree" uses
    one generator per degree, "per-monomial" one flow per monomial — A must
    not depend on the choice.

    divisor_floor: a non-resonant divisor |(alphat, i-j)| at or below this
    triggers SmallDivisorError; the default (`_solve_terms`) is exact-zero
    testing in rational mode (only a true resonance aborts, with
    ResonanceError) and 1e-12 in float mode.  The KAM engine's
    quasi-inverse tests its divisors with the same code.
    """
    if not isinstance(H, EllipticHamiltonian):
        raise TypeError("birkhoff_normalize needs an EllipticHamiltonian")
    if strategy not in ("per-degree", "per-monomial"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if l < 1:
        raise ValueError("l must be >= 1")
    N = H.H.trunc_degree
    if 2 * l > N:
        raise OrderTooLowError(
            f"truncation degree {N} cannot certify order {2 * l}")
    lay = H.layout
    exact = H.H.mode == EXACT

    if H.coordinate_mode == REAL_ELLIPTIC:
        hm = to_complex_morse(H.H, REAL_ELLIPTIC)
        two_i = _I * 2 if exact else 2j
        alphat = [two_i * a for a in H.alpha.components]
    else:
        hm = H.H
        alphat = list(H.alpha.components)
    input_morse = hm

    gens = []
    for d in range(3, 2 * l + 1):
        solvable = []
        for idx, c in hm.degree_slice(d).terms():
            qe, pe = lay.split(idx)
            if qe != pe:
                solvable.append((idx, c))
        chi_terms, _ = _solve_terms(solvable, lay, alphat, divisor_floor,
                                    exact)
        if strategy == "per-degree":
            groups = [chi_terms] if chi_terms else []
        else:
            # _solve_terms keeps the graded-lex order of the degree slice
            groups = [{idx: c} for idx, c in chi_terms.items()]
        for terms in groups:
            u = HamiltonianDerivation(
                Jet(2 * lay.n, N, terms, blocks=lay.blocks, mode=hm.mode), lay)
            hm = lie_exp(u, hm)
            gens.append(u)
        if exact:
            for idx, _ in hm.terms():
                qe, pe = lay.split(idx)
                if 3 <= sum(idx) <= d and qe != pe:
                    raise CertificateError(
                        f"normalization left non-resonant exponent {idx} "
                        f"at degree <= {d}")
        else:
            # the generator cancels every degree-d non-resonant monomial
            # by construction; what float arithmetic leaves there is
            # roundoff, so project it out (no magnitude threshold)
            def keep(idx):
                qe, pe = lay.split(idx)
                return sum(idx) != d or qe == pe
            hm = hm.project(keep)

    def resonant(idx):
        qe, pe = lay.split(idx)
        return qe == pe and sum(idx) <= 2 * l
    a_morse = Jet(lay.n, l, {lay.split(idx)[0]: c for idx, c in hm.terms()
                             if resonant(idx)}, mode=hm.mode)
    residual = hm.project(lambda idx: not resonant(idx))
    if residual and residual.ord() <= 2 * l:
        raise CertificateError(
            f"residual has order {residual.ord()} <= {2 * l}")

    if H.coordinate_mode == REAL_ELLIPTIC:
        transported = {}
        for m, c in a_morse.coeffs.items():
            if exact:
                transported[m] = c * (-_I) ** sum(m)
            else:
                v = complex(c) * (-1j) ** sum(m)
                transported[m] = v.real if abs(v.imag) <= 1e-12 * abs(v) else v
        a = Jet(lay.n, l, transported, mode=a_morse.mode)
        if exact and any(isinstance(c, ComplexRational)
                         for c in a.coeffs.values()):
            raise CertificateError(
                "transported Birkhoff polynomial is not real")
    else:
        a = a_morse

    return BirkhoffResult(
        A=a, generators=tuple(gens), residual=residual, achieved_order=2 * l,
        a_morse=a_morse, input_morse=input_morse, normal_morse=hm,
        coordinate_mode=H.coordinate_mode, alpha=H.alpha, layout=lay)


# ---------------------------------------------------------------------------
# frequency map
# ---------------------------------------------------------------------------

def frequency_map(A):
    """Gradient of the Birkhoff polynomial: one jet per action variable."""
    return tuple(A.derivative(k) for k in range(A.num_vars))


# ---------------------------------------------------------------------------
# the action-ideal certificate: R in the square of the action ideal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionIdealCertificate:
    """Exponent-inspection certificate that R lies in the action ideal squared.

    A monomial q^i p^j belongs to the square of the ideal generated by the
    actions p_kq_k exactly when sum_k min(i_k, j_k) >= 2.  The certificate
    checks every non-quadratic-model monomial; ok=False names the first
    offender in graded-lex order.
    """

    ok: bool
    offending: tuple = None
    message: str = ""

    def to_json_dict(self):
        return to_jsonable(vars(self))


def action_ideal_certificate(H, layout=None):
    """Check that every monomial beyond sum a_k p_kq_k has two action factors."""
    lay = layout or SymplecticLayout(H.num_vars // 2)
    for idx, _ in H.terms():
        qe, pe = lay.split(idx)
        if qe == pe and sum(qe) == 1:
            continue    # the quadratic model itself
        if not _in_action_square(qe, pe):
            name = _monomial_name(idx, lay)
            return ActionIdealCertificate(
                ok=False, offending=idx,
                message=f"monomial {name} is not in the action ideal squared")
    return ActionIdealCertificate(ok=True)


def _in_action_square(qe, pe):
    """q^qe p^pe lies in the action ideal squared: two factors p_kq_k."""
    return sum(min(a, b) for a, b in zip(qe, pe)) >= 2


def _monomial_name(idx, lay):
    return str(Jet(len(idx), sum(idx), {idx: 1}, blocks=lay.blocks))


def _check_divisor(lam, idx, layout, floor, exact):
    """|lam| for the divisor ledger, after the resonance and floor tests.

    Exact mode rejects only a vanishing lam unless a floor is given, and
    then compares exactly; float mode always compares with the floor.
    """
    if exact and not lam:
        raise ResonanceError(
            f"monomial {_monomial_name(idx, layout)} is resonant: "
            "eigenvalue (alpha, i-j) vanishes")
    mag = _abs_mag(lam)
    if floor or not exact:
        if exact and isinstance(lam, ComplexRational) and lam.re and lam.im:
            below = lam.abs2() <= Fraction(floor) ** 2
        else:
            below = mag <= floor
        if below:
            raise SmallDivisorError(
                f"divisor {mag} for monomial {_monomial_name(idx, layout)} "
                f"is at or below the floor {floor}")
    return mag


def _solve_terms(terms, layout, freqs, floor, exact):
    """Quotients coeff/eigenvalue for the given (index, coeff) pairs.

    The eigenvalue of q^i p^j is (freqs, i-j); returns the quotients by
    index and the smallest divisor magnitude (None when terms is empty).
    A floor of None means 0 (only a true resonance aborts) in exact mode
    and 1e-12 in float mode.
    """
    if floor is None:
        floor = 0 if exact else 1e-12
    out = {}
    min_div = None
    for idx, c in terms:
        qe, pe = layout.split(idx)
        if qe == pe:
            raise ResonanceError(
                f"monomial {_monomial_name(idx, layout)} is resonant and "
                "not absorbable; it cannot be solved")
        lam = ad_eigenvalue(freqs, qe, pe)
        mag = _check_divisor(lam, idx, layout, floor, exact)
        if min_div is None or mag < min_div:
            min_div = mag
        out[idx] = c / lam
    return out, min_div
