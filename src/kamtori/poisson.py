"""Poisson brackets, Hamiltonian derivations, and Lie-series exponentials.

Sign conventions, fixed once:

  {f, g} = sum_k  d_{q_k}f d_{p_k}g - d_{p_k}f d_{q_k}g      ({q_k, p_k} = 1)

  the derivation attached to a generator h is  u_h(f) = {f, h},
  the time derivative of f along the Hamiltonian flow of h.

With these, u_{H2} for H2 = sum alpha_k p_k q_k acts diagonally on monomials:
u_{H2}(q^i p^j) = <alpha, i-j> q^i p^j, which is what ad_eigenvalue returns.

bracket adds its monomial pairs in one order for every scalar type: in a
pair loop, or on numpy arrays for two operands of real floats, where a sum
can differ from the loop's only as a zero of the other sign, then dropped.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

import numpy as np

from .arithmetic import FrequencyVector
from .errors import (
    NonInvertibleLinearPartError,
    OrderTooLowError,
    ShapeMismatchError,
)
from .jets import Jet, _abs_float, _degree_rows, _finish, _numerators

__all__ = [
    "SymplecticLayout",
    "HamiltonianDerivation",
    "bracket",
    "ad_eigenvalue",
    "lie_exp",
    "exp_product",
    "check_symplectic",
]

_BLOCK = 1 << 15    # entries of one (f terms, g terms, k) block of c


class SymplecticLayout:
    """Variable layout (q_1..q_n, p_1..p_n); the bracket couples q_k with
    p_k only."""

    __slots__ = ("n",)

    def __init__(self, n):
        if n < 1:
            raise ShapeMismatchError("layout needs at least one (q,p) pair")
        self.n = int(n)

    @property
    def num_vars(self):
        return 2 * self.n

    @property
    def blocks(self):
        return (("q", self.n), ("p", self.n))

    def q_index(self, k):
        return k

    def p_index(self, k):
        return self.n + k

    def check(self, jet):
        if jet.num_vars != self.num_vars:
            raise ShapeMismatchError(
                f"jet has {jet.num_vars} variables, layout expects {self.num_vars}"
            )
        if jet.blocks is not None and jet.blocks != self.blocks:
            raise ShapeMismatchError(
                f"jet blocks {jet.blocks} differ from layout blocks {self.blocks}"
            )
        return jet

    def split(self, idx):
        """Exponent tuple -> (q part, p part)."""
        return idx[:self.n], idx[self.n:]

    # --- jet factories ----------------------------------------------------

    def zero(self, trunc_degree, mode="exact"):
        return Jet.zero(self.num_vars, trunc_degree, blocks=self.blocks, mode=mode)

    def constant(self, value, trunc_degree):
        return Jet.constant(value, self.num_vars, trunc_degree, blocks=self.blocks)

    def q(self, k, trunc_degree, mode="exact"):
        return Jet.variable(self.q_index(k), self.num_vars, trunc_degree,
                            blocks=self.blocks, mode=mode)

    def p(self, k, trunc_degree, mode="exact"):
        return Jet.variable(self.p_index(k), self.num_vars, trunc_degree,
                            blocks=self.blocks, mode=mode)

    def monomial(self, coeff, qexp=(), pexp=(), trunc_degree=8):
        qexp = tuple(qexp) or (0,) * self.n
        pexp = tuple(pexp) or (0,) * self.n
        idx = qexp + pexp
        if len(idx) != self.num_vars:
            raise ShapeMismatchError("exponent blocks do not fill the layout")
        return Jet(self.num_vars, trunc_degree, {idx: coeff}, blocks=self.blocks)

    def quadratic_model(self, alpha, trunc_degree):
        """H2 = sum_k alpha_k p_k q_k."""
        alpha = FrequencyVector(alpha)
        if alpha.dim != self.n:
            raise ShapeMismatchError("alpha dimension must equal the pair count")
        coeffs = {}
        for k, ak in enumerate(alpha.components):
            idx = [0] * self.num_vars
            idx[self.q_index(k)] = idx[self.p_index(k)] = 1
            coeffs[tuple(idx)] = ak
        return Jet(self.num_vars, trunc_degree, coeffs, blocks=self.blocks)


def _bracket_trunc(f, g):
    """Certified truncation degree of {f,g} given the operands' data."""
    t = min(f.ord() + g.trunc_degree, g.ord() + f.trunc_degree) - 2
    return max(0, min(t, max(f.trunc_degree, g.trunc_degree)))


def bracket(f, g, layout, trunc=None):
    """Poisson bracket {f,g} = sum_k d_{q_k}f d_{p_k}g - d_{p_k}f d_{q_k}g.

    Computed directly on monomial pairs.  The result's truncation degree is
    the largest certified one unless an explicit trunc is requested.

    Pairs run f's term i outer, g's term j inner, in the dicts' order, and
    k innermost; each pair forms ab = a * b once and adds ab * c at
    i + j - e_{q_k} - e_{p_k} for every k with c = i_{q_k} j_{p_k} -
    i_{p_k} j_{q_k} != 0.  Float sums and the result's key order are
    therefore those of the plain triple loop, bit for bit; sums of
    products of derivatives would move float results at roundoff.

    Exponent tuples are packed into one int each (a fixed bit field per
    variable), so a pair's output key is the packed i - e_{q_k} - e_{p_k}
    plus the packed j; a term with c != 0 has every exponent >= 0 and
    none past the operands' largest degrees, so the fields never carry.

    Two operands of real floats take this loop on numpy arrays
    (_real_float_bracket): the same products in the same order, but a
    key's sum starts from +0.0, not from its first product, which changes
    at most the sign of a zero sum, and zero sums are dropped.  Operands
    of Fractions run it on integer numerators over one denominator each
    (jets._numerators); jets._finish makes each output Fraction(n, D_f ·
    D_g).  ComplexRational and complex float operands run it on values.
    """
    layout.check(f)
    layout.check(g)
    _, blocks, mode = f._join(g)
    if trunc is None:
        trunc = _bracket_trunc(f, g)
    n = layout.n
    width = (f.max_degree() + g.max_degree()).bit_length()
    if f and g and all(type(v) is float for c in (f.coeffs, g.coeffs)
                       for v in c.values()):
        return Jet._trusted(f.num_vars, trunc, _real_float_bracket(
            f.coeffs, g.coeffs, n, trunc, width), blocks, mode)
    shifts = [width * v for v in range(f.num_vars)]

    def pack(idx):
        return sum(e << s for e, s in zip(idx, shifts))

    dens, (fc, gc) = _numerators(f.coeffs, g.coeffs)
    within = _degree_rows({j: (b, pack(j)) for j, b in gc.items()})
    acc = {}
    get = acc.get
    for i, a in fc.items():
        # (i_q, i_p, q slot, p slot, packed i - e_q - e_p) per pair i touches
        packed_i = pack(i)
        pairs = [(i[k], i[n + k], k, n + k,
                  packed_i - (1 << shifts[k]) - (1 << shifts[n + k]))
                 for k in range(n) if i[k] or i[n + k]]
        if not pairs:
            continue
        for j, (b, packed) in within(trunc + 2 - sum(i)):
            ab = None
            for iq, ip, qk, pk, shifted in pairs:
                c = iq * j[pk] - ip * j[qk]
                if c:
                    if ab is None:
                        ab = a * b
                    key = shifted + packed
                    cur = get(key)
                    contrib = ab * c
                    acc[key] = contrib if cur is None else cur + contrib
    mask = (1 << width) - 1
    out = {tuple(key >> s & mask for s in shifts): v for key, v in acc.items()}
    return Jet._trusted(f.num_vars, trunc, _finish(out, mode, dens), blocks,
                        mode)


def _real_float_bracket(fc, gc, n, trunc, width):
    """bracket's pair loop on numpy arrays for dicts of real floats, by runs
    of f terms of one degree and blocks of at most _BLOCK entries of c."""
    kind = np.int64 if width * 2 * n < 63 else object   # else Python ints
    weight = np.array([1 << width * v for v in range(2 * n)], dtype=kind)
    I, J = (np.array(list(c), dtype=np.int64) for c in (fc, gc))
    a, b = (np.fromiter(c.values(), float, len(c)) for c in (fc, gc))
    left, right, drop = I @ weight, J @ weight, weight[:n] + weight[n:]
    deg_i, deg_j = I.sum(axis=1), J.sum(axis=1)
    runs = [0, *np.flatnonzero(np.diff(deg_i)) + 1, len(I)]
    keys, vals = [], []
    with np.errstate(all="ignore"):     # as Python floats: no warnings
        for start, end in zip(runs, runs[1:]):
            kept = np.flatnonzero(deg_j <= trunc + 2 - deg_i[start])
            step = max(1, _BLOCK // max(1, len(kept) * n))
            for s in range(start, end, step):
                rows = I[s:min(end, s + step), None]
                c = rows[..., :n] * J[kept, n:] - rows[..., n:] * J[kept, :n]
                r, t, k = nz = np.nonzero(c)
                keys.append(left[r + s] - drop[k] + right[kept[t]])
                vals.append(a[r + s] * b[kept[t]] * c[nz])
        keys, first, inverse = np.unique(
            np.concatenate(keys), return_index=True, return_inverse=True)
        sums = np.bincount(inverse, np.concatenate(vals), len(keys))
    order = np.argsort(first)
    order = order[sums[order] != 0]
    exps = keys[order, None] // weight & (1 << width) - 1
    return dict(zip(map(tuple, exps.tolist()), sums[order].tolist()))


def ad_eigenvalue(alpha, i, j):
    """Eigenvalue of u_{H2}: {q^i p^j, H2} = <alpha, i-j> q^i p^j
    for H2 = sum alpha_k p_k q_k.  Resonant (i=j) gives 0.

    alpha may be a FrequencyVector or any sequence of ring scalars
    (e.g. complex frequencies of a Morse quadratic part).
    """
    comps = alpha.components if isinstance(alpha, FrequencyVector) \
        else tuple(alpha)
    i = tuple(i)
    j = tuple(j)
    if len(i) != len(comps) or len(j) != len(comps):
        raise ShapeMismatchError("exponent tuples must match alpha's dimension")
    total = None
    for ak, ik, jk in zip(comps, i, j):
        term = ak * (ik - jk)
        total = term if total is None else total + term
    return total


class HamiltonianDerivation:
    """u(f) = {f, h} for the generator h, an exact polynomial.

    u(f) keeps f's truncation degree N when ord h >= 2; it is known to
    N - 1 at order 1 and N - 2 at order 0 (never below 0).
    """

    __slots__ = ("generator", "layout")

    def __init__(self, generator, layout):
        layout.check(generator)
        self.generator = generator
        self.layout = layout

    def __call__(self, f):
        self.layout.check(f)
        h = self.generator
        if not h:
            return Jet.zero(f.num_vars, f.trunc_degree, blocks=f.blocks,
                            mode=f.mode)
        # an explicit degree: bracket's default would read h's
        # truncation degree as the start of an unknown tail
        return bracket(f, h, self.layout,
                       trunc=max(0, f.trunc_degree - max(0, 2 - h.ord())))

    def __neg__(self):
        return HamiltonianDerivation(-self.generator, self.layout)


def lie_exp(u: HamiltonianDerivation, f: Jet) -> Jet:
    """e^u f = sum_j u^j(f)/j!, exact and finite on jets.

    Requires ord(generator) >= 3 (each bracket application then raises order,
    so the series terminates at the truncation degree); every term keeps
    f's truncation degree.
    """
    h = u.generator
    if h and h.ord() <= 2:
        raise OrderTooLowError(
            f"generator has order {h.ord()} <= 2; the Lie series on jets "
            "does not terminate"
        )
    u.layout.check(f)
    total = term = f
    for j in count(1):      # at most f.trunc_degree + 1 brackets
        term = u(term)
        if not term:
            return total
        term = term / j
        total = total + term


def exp_product(us, f: Jet) -> Jet:
    """Apply e^{u_m} ... e^{u_0} to f: us[0] acts first.

    The inverse transform is exp_product(reversed negated list).
    """
    out = f
    for u in us:
        out = lie_exp(u, out)
    return out


def _linear_part_matrix(images, layout):
    n = layout.n
    rows = []
    for im in images:
        row = []
        for c in range(2 * n):
            idx = [0] * layout.num_vars
            idx[c] = 1
            row.append(im[tuple(idx)])
        rows.append(row)
    return rows


def _rref(rows):
    """Reduced row echelon form of Fraction, ComplexRational, float or
    complex rows; returns the nonzero rows, as many as the rank."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows if any(r)]


def check_symplectic(images, layout):
    """Max residual coefficient of the canonical relations for a transform
    given by the images (Q_1..Q_n, P_1..P_n) of the symplectic coordinates:
    {Q_i, P_j} - delta_ij, {Q_i, Q_j}, {P_i, P_j}.

    Exact zero means symplectic up to the truncation degree.  The
    residual is a Fraction for exact images whose residual coefficients
    are all real, and a float otherwise: float images whose residuals
    all vanish give 0.0.
    """
    images = list(images)
    n = layout.n
    if len(images) != 2 * n:
        raise ShapeMismatchError(f"need 2n = {2 * n} coordinate images")
    for im in images:
        layout.check(im)
        if im and im.ord() < 1:
            raise OrderTooLowError("coordinate images must vanish at the origin")
    lin = _linear_part_matrix(images, layout)
    if len(_rref(lin)) < 2 * n:
        raise NonInvertibleLinearPartError(
            "transform's linear part is singular on the (q,p) block"
        )
    residual_coeffs = []
    for a in range(2 * n):
        for b in range(a, 2 * n):
            r = bracket(images[a], images[b], layout)
            if b == a + n:  # {Q_a, P_a} should be exactly 1
                one = 1 if r.mode == "exact" else 1.0
                r = r - one
            residual_coeffs.extend(r.coeffs.values())
    if images[0].mode == "exact" and \
            all(isinstance(c, Fraction) for c in residual_coeffs):
        return max((abs(c) for c in residual_coeffs), default=Fraction(0))
    return max(map(_abs_float, residual_coeffs), default=0.0)
