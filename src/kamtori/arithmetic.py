"""Small-divisor sequences, arithmetic classes, lattice flows, densities.

The central quantity is sigma(alpha)_k, the smallest |<alpha, i>| over
nonzero integer vectors i with ||i|| <= 2^k.  A frequency vector belongs to
the class D_a when sigma(alpha)_k >= a_k for every k; membership is only
ever decided up to a finite k_max, and every report carries that k_max.

Index-vector norms are Euclidean by default (sup-norm behind a flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    ClassMembershipError,
    NonPositiveTermError,
    ShapeMismatchError,
)
from .jets import to_jsonable

DEFAULT_ENUM_BUDGET = 40_000_000

__all__ = [
    "FrequencyVector",
    "DecaySequence",
    "GeometricTail",
    "PowerTail",
    "DoubleExpTail",
    "BrunoReport",
    "LatticeBasis",
    "DensityReport",
    "StripRecord",
    "SmoothMap",
    "sigma",
    "bruno_diagnostic",
    "in_class",
    "density_estimate",
    "theorem1_bound",
    "lattice_basis",
    "flow_and_shortest",
    "lemma_eps_t",
    "strip_analysis",
]


# ---------------------------------------------------------------------------
# frequency vectors
# ---------------------------------------------------------------------------

class FrequencyVector:
    """Real frequency vector alpha; exact when all components are rational."""

    __slots__ = ("components",)

    def __init__(self, components):
        if isinstance(components, FrequencyVector):
            components = components.components
        comps = tuple(components)
        if len(comps) == 0:
            raise ShapeMismatchError("frequency vector needs n >= 1 components")
        clean = []
        for c in comps:
            if isinstance(c, (int, Fraction)):
                clean.append(Fraction(c))
            else:
                c = float(c)
                if not math.isfinite(c):
                    raise ValueError("frequency components must be finite")
                clean.append(c)
        self.components = tuple(clean)

    @property
    def dim(self):
        return len(self.components)

    @property
    def is_exact(self):
        return all(isinstance(c, Fraction) for c in self.components)

    def as_floats(self):
        return np.array([float(c) for c in self.components], dtype=float)

    def as_fractions(self):
        if not self.is_exact:
            raise ValueError("vector has float components; no exact form")
        return self.components

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, k):
        return self.components[k]

    def __eq__(self, other):
        if isinstance(other, FrequencyVector):
            return self.components == other.components
        return NotImplemented

    def __repr__(self):
        return f"FrequencyVector({list(self.components)!r})"


def _as_freq(alpha) -> FrequencyVector:
    return alpha if isinstance(alpha, FrequencyVector) else FrequencyVector(alpha)


# ---------------------------------------------------------------------------
# decay sequences and tail descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricTail:
    """a_k = c * ratio^k.  Always of moderate decay."""
    c: object = 1
    ratio: object = Fraction(1, 2)

    def term(self, k):
        return self.c * self.ratio ** k

    def bruno_verdict(self):
        return "moderate"

    def to_json_dict(self):
        return to_jsonable({"kind": "geometric", "c": self.c,
                            "ratio": self.ratio})


@dataclass(frozen=True)
class PowerTail:
    """a_k = c * (k+1)^(-power).  Always of moderate decay."""
    c: object = 1
    power: object = 1

    def term(self, k):
        return self.c * Fraction(k + 1) ** (-self.power) \
            if isinstance(self.c, (int, Fraction)) and isinstance(self.power, int) \
            else float(self.c) * float(k + 1) ** (-float(self.power))

    def bruno_verdict(self):
        return "moderate"

    def to_json_dict(self):
        return to_jsonable({"kind": "power", "c": self.c,
                            "power": self.power})


@dataclass(frozen=True)
class DoubleExpTail:
    """a_k = c * 2^(-rate * base^k).

    -log(a_k)/2^k grows like rate*(base/2)^k, so the decay is moderate
    exactly when base < 2; base >= 2 gives a definitely-not-moderate tail.
    """
    c: object = 1
    rate: object = 1
    base: object = 2

    def __post_init__(self):
        if not (float(self.rate) > 0 and float(self.base) > 1):
            raise ValueError("DoubleExpTail needs rate > 0 and base > 1")

    def term(self, k):
        e = self.rate * self.base ** k
        if isinstance(e, (int, Fraction)) and isinstance(self.c, (int, Fraction)):
            ef = Fraction(e)
            if ef.denominator == 1:
                return Fraction(self.c) * Fraction(2) ** (-ef.numerator)
        return float(self.c) * 2.0 ** (-float(e))

    def bruno_verdict(self):
        return "moderate" if float(self.base) < 2 else "not-moderate"

    def to_json_dict(self):
        return to_jsonable({"kind": "double-exp", "c": self.c,
                            "rate": self.rate, "base": self.base})


class DecaySequence:
    """Finite positive sequence a_0..a_K with an optional closed-form tail.

    Values must be nonnegative; zeros are only admitted with allow_zero=True
    (they arise in sigma of resonant vectors).  Operations that need strict
    positivity call require_positive().
    """

    def __init__(self, values, descriptor=None, allow_zero=False):
        vals = []
        for v in values:
            v = Fraction(v) if isinstance(v, (int, Fraction)) else float(v)
            if v < 0:
                raise NonPositiveTermError(f"negative term {v} in decay sequence")
            if v == 0 and not allow_zero:
                raise NonPositiveTermError(
                    "zero term in decay sequence (pass allow_zero=True only "
                    "for sigma-like outputs)"
                )
            vals.append(v)
        if not vals:
            raise NonPositiveTermError("decay sequence needs at least one term")
        self.values = tuple(vals)
        self.descriptor = descriptor
        self.monotone = all(vals[j + 1] <= vals[j]
                            for j in range(len(vals) - 1))

    @classmethod
    def from_descriptor(cls, descriptor, k_max, allow_zero=False):
        vals = [descriptor.term(k) for k in range(k_max + 1)]
        return cls(vals, descriptor=descriptor, allow_zero=allow_zero)

    @classmethod
    def constant(cls, value, k_max):
        return cls([value] * (k_max + 1), descriptor=GeometricTail(value, 1))

    @property
    def k_max(self):
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k):
        if 0 <= k < len(self.values):
            return self.values[k]
        if self.descriptor is not None and k >= 0:
            return self.descriptor.term(k)
        raise IndexError(f"index {k} beyond stored range and no tail descriptor")

    def __eq__(self, other):
        if isinstance(other, DecaySequence):
            return self.values == other.values
        return NotImplemented

    def require_positive(self):
        for k, v in enumerate(self.values):
            if v <= 0:
                raise NonPositiveTermError(f"term a_{k} = {v} must be positive")
        return self

    def elementwise_product(self, other):
        k = min(self.k_max, other.k_max)
        vals = [self.values[j] * other.values[j] for j in range(k + 1)]
        desc = None
        if isinstance(self.descriptor, GeometricTail) and \
                isinstance(other.descriptor, GeometricTail):
            desc = GeometricTail(self.descriptor.c * other.descriptor.c,
                                 self.descriptor.ratio * other.descriptor.ratio)
        zero_ok = any(v == 0 for v in vals)
        return DecaySequence(vals, descriptor=desc, allow_zero=zero_ok)

    __mul__ = elementwise_product

    def scale(self, factor):
        return DecaySequence([v * factor for v in self.values],
                             allow_zero=any(v == 0 for v in self.values))

    def as_floats(self):
        return np.array([float(v) for v in self.values], dtype=float)

    def to_json_dict(self):
        return to_jsonable({
            "values": self.values,
            "k_max": self.k_max,
            "monotone": self.monotone,
            "descriptor": self.descriptor,
        })

    def __repr__(self):
        shown = ", ".join(str(v) for v in self.values[:4])
        more = "..." if len(self.values) > 4 else ""
        return f"DecaySequence([{shown}{more}], k_max={self.k_max})"


# ---------------------------------------------------------------------------
# sigma and class membership
# ---------------------------------------------------------------------------

def _half_ball(n, radius, norm, budget):
    """One index per +-i pair of nonzero integer vectors with ||i|| <= radius.

    Every quantity built on the indices (|<alpha,i>|, ||i||, e(i)) is even
    in i, so of each pair only the index whose first nonzero component is
    positive is kept.  The ball is built row by row: the half box i_1 >= 0
    of the first n - 1 coordinates gives the heads, the heads inside the
    ball are kept, and each head is followed by every last coordinate
    that keeps it in the ball, |i_n| <= isqrt(R^2 - |head|^2) (the sup
    ball is the box, so there every head takes |i_n| <= R).  Returns the
    (M, n) indices in lexicographic order and their rank: the squared
    Euclidean norm, or the squared sup norm, so ||i|| <= 2^k iff
    rank <= 4^k.  The budget counts the whole (2 radius + 1)^n box.
    """
    if n < 1:
        raise ShapeMismatchError("dimension must be >= 1")
    estimated = (2 * radius + 1) ** n
    if estimated > budget:
        raise BudgetExceededError(
            f"enumeration of {estimated} integer vectors exceeds budget "
            f"{budget}; lower k_max or raise the budget"
        )
    if norm not in ("euclidean", "sup"):
        raise ValueError(f"unknown norm {norm!r}")
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    if n > 1:
        grids = np.meshgrid(axis[radius:], *([axis] * (n - 2)),
                            indexing="ij")
        head = np.stack([g.ravel() for g in grids], axis=1)
    else:
        head = np.zeros((1, 0), dtype=np.int64)
    if norm == "euclidean":
        head_rank = (head ** 2).sum(axis=1)
        inside = head_rank <= radius * radius
        head, head_rank = head[inside], head_rank[inside]
        room = radius * radius - head_rank
        top = np.sqrt(room).astype(np.int64)
        top -= top * top > room                 # integer square root,
        top += (top + 1) * (top + 1) <= room    # exact after rounding
    else:
        head_rank = np.abs(head).max(axis=1, initial=0) ** 2
        top = np.full(len(head), radius, dtype=np.int64)
    # the heads are in lexicographic order, so those before the zero head
    # lead with a negative component; the zero head takes only i_n > 0
    zero = int(np.flatnonzero(head_rank == 0)[0])
    head, head_rank, top = head[zero:], head_rank[zero:], top[zero:]
    start = -top
    start[0] = 1
    counts = top - start + 1
    first_row = np.cumsum(counts) - counts
    last = np.repeat(start - first_row, counts)
    last += np.arange(len(last))
    pts = np.empty((len(last), n), dtype=np.int64)
    for col in range(n - 1):
        pts[:, col] = np.repeat(head[:, col], counts)
    pts[:, n - 1] = last
    rank = np.repeat(head_rank, counts)
    last *= last
    if norm == "euclidean":
        rank += last
    else:
        np.maximum(rank, last, out=rank)
    return pts, rank


def _exact_dots(pts, alpha_fracs):
    """|<alpha, i>| exactly, as (numerators array, common denominator)."""
    den = 1
    for c in alpha_fracs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    scaled = [int(c * den) for c in alpha_fracs]
    bound = sum(abs(s) for s in scaled) * int(np.abs(pts).max(initial=1))
    if bound < 2 ** 62:
        nums = pts @ np.array(scaled, dtype=np.int64)
    else:
        obj = pts.astype(object)
        nums = obj @ np.array(scaled, dtype=object)
    return np.abs(nums), den


def sigma(alpha, k_max, norm="euclidean", budget=DEFAULT_ENUM_BUDGET):
    """sigma(alpha)_k = min |<alpha,i>| over 0 != i in Z^n, ||i|| <= 2^k.

    Exact Fractions when alpha is rational, floats otherwise.  |<alpha,i>|
    is even in i, so the minima are taken over `_half_ball`, one index
    per +-i pair, with one masked pass per k.
    """
    alpha = _as_freq(alpha)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    pts, rank = _half_ball(alpha.dim, 2 ** k_max, norm, budget)
    exact = alpha.is_exact
    if exact:
        absdot, den = _exact_dots(pts, alpha.as_fractions())
    else:
        absdot = np.abs(pts @ alpha.as_floats())
    # radius >= 1 keeps e_1 in every ball, so no mask is empty
    minima = [absdot[rank <= 4 ** k].min() for k in range(k_max + 1)]
    values = [Fraction(int(m), den) if exact else float(m) for m in minima]
    return DecaySequence(values, allow_zero=True)


class BrunoReport(tuple):
    """(partial_sum, verdict) with the truncation index K attached."""

    def __new__(cls, partial_sum, verdict, K):
        self = super().__new__(cls, (partial_sum, verdict))
        self.K = K
        return self

    @property
    def partial_sum(self):
        return self[0]

    @property
    def verdict(self):
        return self[1]

    def to_json_dict(self):
        return to_jsonable({"partial_sum": self.partial_sum,
                            "verdict": self.verdict, "K": self.K})


def bruno_diagnostic(a: DecaySequence, K: int) -> BrunoReport:
    """Partial sum S_K = -sum_{k<=K} log(min(1,a_k))/2^k plus a verdict.

    The verdict is definite only when a closed-form tail descriptor is
    attached; a finite prefix alone never proves (non-)summability.
    """
    total = 0.0
    for k in range(K + 1):
        v = a[k]
        if v <= 0:
            raise NonPositiveTermError(f"a_{k} = {v}: Bruno sum needs a_k > 0")
        vf = float(v)
        if vf < 1.0:
            total -= math.log(vf) / 2.0 ** k
    verdict = a.descriptor.bruno_verdict() if a.descriptor is not None \
        else "inconclusive"
    return BrunoReport(total, verdict, K)


def in_class(alpha, a: DecaySequence, k_max, norm="euclidean",
             budget=DEFAULT_ENUM_BUDGET):
    """True iff sigma(alpha)_k >= a_k for all k <= k_max."""
    a.require_positive()
    s = sigma(alpha, k_max, norm=norm, budget=budget)
    return all(s[k] >= a[k] for k in range(k_max + 1))


# ---------------------------------------------------------------------------
# density experiment
# ---------------------------------------------------------------------------

class SmoothMap:
    """Map descriptor f: R^d -> R^n for the density experiment.

    Either the identity or a polynomial map given by n jets in d variables.
    """

    def __init__(self, name, dim_in, dim_out, evaluator, is_identity=False):
        self.name = name
        self.dim_in = dim_in
        self.dim_out = dim_out
        self._evaluator = evaluator
        self.is_identity = is_identity

    @classmethod
    def identity(cls, n):
        return cls("identity", n, n, lambda pts: pts, is_identity=True)

    @classmethod
    def polynomial(cls, jets):
        jets = [j.to_float() if j.mode == "exact" else j for j in jets]
        if not jets:
            raise ValueError("polynomial map needs at least one component")
        d = jets[0].num_vars
        if any(j.num_vars != d for j in jets):
            raise ShapeMismatchError("component jets disagree on num_vars")
        tables = []
        for j in jets:
            idx = sorted(j.coeffs)
            exps = np.array(idx, dtype=np.int64) if idx else np.zeros((0, d), np.int64)
            coef = np.array([float(j.coeffs[i]) for i in idx], dtype=float)
            tables.append((exps, coef))

        def evaluate(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.empty((pts.shape[0], len(tables)), dtype=float)
            for col, (exps, coef) in enumerate(tables):
                if exps.shape[0] == 0:
                    out[:, col] = 0.0
                else:
                    monos = (pts[:, None, :] ** exps[None, :, :]).prod(axis=2)
                    out[:, col] = monos @ coef
            return out

        return cls("polynomial", d, len(jets), evaluate)

    def __call__(self, pts):
        return self._evaluator(pts)


@dataclass(frozen=True)
class DensityReport:
    radius: float
    sample_count: int
    k_max: int
    fraction_in_class: float
    rng_seed: int
    center_passes: bool
    active_constraints: int
    map_name: str = "identity"

    def to_json_dict(self):
        return to_jsonable(vars(self))


def _uniform_ball(rng, center, radius, samples):
    """Uniform points in the Euclidean ball via Gaussian direction and
    radially corrected radius."""
    d = center.shape[0]
    g = rng.standard_normal((samples, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    u = rng.random((samples, 1))
    return center[None, :] + radius * u ** (1.0 / d) * g / norms


# sample block and index chunk of density_estimate: a (block, chunk) float
# temporary is 512 KB, small enough to stay in cache
_BLOCK, _CHUNK = 256, 256


def density_estimate(f, x0, a: DecaySequence, rho: DecaySequence, r,
                     samples, k_max, seed, norm="euclidean",
                     budget=DEFAULT_ENUM_BUDGET) -> DensityReport:
    """Monte-Carlo fraction of the ball B(x0, r) mapping into D_{rho*a}.

    Membership of y = f(x) is tested up to k_max: |<y,i>| >= (rho*a)_{e(i)}
    for every nonzero i with e(i) <= k_max, where e(i) is the smallest k
    with ||i|| <= 2^k.  Counter-based RNG keyed by seed, so reports are
    reproducible sample-for-sample.  Indices that cannot fail anywhere in
    the sampled image are screened out first; the rest are tested in
    blocks of _BLOCK samples by _CHUNK indices, so the temporaries stay
    within one block by one chunk whatever `samples` is.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not float(r) > 0:
        raise ValueError("radius must be positive")
    x0 = np.asarray([float(c) for c in _as_freq(x0).components], dtype=float)
    if f is None:
        f = SmoothMap.identity(x0.shape[0])
    if f.dim_in != x0.shape[0]:
        raise ShapeMismatchError(
            f"x0 has dimension {x0.shape[0]}, map expects {f.dim_in}"
        )
    b = a.elementwise_product(rho)
    if b.k_max < k_max:
        raise ValueError("sequences shorter than k_max")
    n = f.dim_out
    pts, rank = _half_ball(n, 2 ** k_max, norm, budget)
    # e(i) = smallest k with ||i|| <= 2^k, via rank <= 4^k
    e_of_i = np.searchsorted(4 ** np.arange(k_max + 1), rank)
    t_i = np.array([float(b[k]) for k in range(k_max + 1)])[e_of_i]

    # thresholds equal to zero are vacuous
    live = t_i > 0
    pts, t_i = pts[live], t_i[live]

    rng = np.random.Generator(np.random.Philox(seed))
    X = _uniform_ball(rng, x0, float(r), samples)
    Y = X if f.is_identity else f(X)
    y0 = x0[None, :] if f.is_identity else f(x0[None, :])
    y0 = np.asarray(y0, dtype=float)

    # screening: an index i can only fail somewhere in the sampled image if
    # |<y0,i>| < t_i + R_img*||i||, R_img covering every sampled image point
    r_img = float(np.sqrt(((Y - y0) ** 2).sum(axis=1)).max(initial=0.0))
    base = np.abs(pts @ y0[0])
    margin = t_i + r_img * np.sqrt((pts ** 2).sum(axis=1)) * (1 + 1e-12) + 1e-15
    active = base < margin
    pts_a, t_a = pts[active], t_i[active]

    # a sample drops out at its first failed chunk
    alive_total = 0
    for start in range(0, samples, _BLOCK):
        Yb = Y[start:start + _BLOCK]
        for cstart in range(0, pts_a.shape[0], _CHUNK):
            P = pts_a[cstart:cstart + _CHUNK]
            T = t_a[cstart:cstart + _CHUNK]
            Yb = Yb[(np.abs(Yb @ P.T) >= T).all(axis=1)]
            if not len(Yb):
                break
        alive_total += len(Yb)

    center_ok = bool((base >= t_i).all())

    return DensityReport(
        radius=float(r),
        sample_count=int(samples),
        k_max=int(k_max),
        fraction_in_class=alive_total / samples,
        rng_seed=int(seed),
        center_passes=center_ok,
        active_constraints=int(pts_a.shape[0]),
        map_name=f.name,
    )


# ---------------------------------------------------------------------------
# the two series of the density theorem
# ---------------------------------------------------------------------------

def _exact_sqrt(x):
    """Exact square root of a Fraction if it is a perfect square, else None."""
    if not isinstance(x, Fraction):
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def theorem1_bound(rho: DecaySequence, n: int, K: int):
    """Partial sums of both series attached to the density statement:

      hypothesis_sum = sum_{k<=K} 2^((k+1)n + 1) sqrt(rho_k)
      proof_sum      = sum_{k<=K} 2^((k+1)n + k) sqrt(rho_k)

    The exponents differ (+1 versus +k); both are reported and the caller
    compares.  Exact Fractions when every rho_k is a perfect square.
    """
    rho.require_positive()
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    exact_roots = [_exact_sqrt(rho[k]) for k in range(K + 1)]
    if all(root is not None for root in exact_roots):
        hyp = sum(Fraction(2) ** ((k + 1) * n + 1) * exact_roots[k]
                  for k in range(K + 1))
        prf = sum(Fraction(2) ** ((k + 1) * n + k) * exact_roots[k]
                  for k in range(K + 1))
        return hyp, prf
    hyp = sum(2.0 ** ((k + 1) * n + 1) * math.sqrt(float(rho[k]))
              for k in range(K + 1))
    prf = sum(2.0 ** ((k + 1) * n + k) * math.sqrt(float(rho[k]))
              for k in range(K + 1))
    return hyp, prf


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeBasis:
    """Rows v_j = (e_j, alpha_j) spanning the lattice {(i, <alpha,i>)}."""
    vectors: tuple

    @property
    def dim(self):
        return len(self.vectors)

    def to_json_dict(self):
        return to_jsonable(vars(self))


def lattice_basis(alpha) -> LatticeBasis:
    alpha = _as_freq(alpha)
    n = alpha.dim
    rows = []
    for j, aj in enumerate(alpha.components):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        rows.append(tuple(e) + (aj,))
    return LatticeBasis(tuple(rows))


def flow_and_shortest(basis: LatticeBasis, t, coeff_bound,
                      budget=DEFAULT_ENUM_BUDGET):
    """Shortest nonzero vector of g_t Gamma over bounded integer combinations.

    g_t scales the first n coordinates by e^-t and the last by e^t.  Returns
    (delta_estimate, witness coefficients); an upper bound on the true
    shortest length, exact when the optimizer's coefficients are within
    the bound.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    n = basis.dim
    pts, _ = _half_ball(n, coeff_bound, "sup", budget)
    alpha = np.array([float(v[-1]) for v in basis.vectors])
    et = math.exp(float(t))
    # combination c gives the lattice point (c, <alpha, c>)
    spatial = (pts.astype(float) / et) ** 2
    dots = (pts @ alpha) * et
    lengths = np.sqrt(spatial.sum(axis=1) + dots ** 2)
    # lengths are bitwise even in c, so the witness, the lexicographically
    # first minimizer over the whole box, is minus the last one here
    j = len(lengths) - 1 - int(np.argmin(lengths[::-1]))
    return float(lengths[j]), tuple(-int(c) for c in pts[j])


def lemma_eps_t(a, i_norm):
    """Explicit resolution (eps, t) = (sqrt(2 a ||i||), log(||i||/a)/2)."""
    a = float(a)
    i_norm = float(i_norm)
    if a <= 0 or i_norm <= 0:
        raise ValueError("lemma_eps_t needs a > 0 and ||i|| > 0")
    return math.sqrt(2.0 * a * i_norm), 0.5 * math.log(i_norm / a)


# ---------------------------------------------------------------------------
# strips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripRecord:
    index: tuple
    k: int
    width: float
    intersects_ball: bool


def strip_analysis(alpha, a: DecaySequence, rho: DecaySequence, r, k_max,
                   norm="euclidean", budget=DEFAULT_ENUM_BUDGET):
    """Strips M_i = {x : |<x,i>| <= rho_k a_k}, k = e(i), near the ball B(alpha,r).

    Enumerates one representative per +-i pair (first nonzero component
    positive), reports the width rho_k a_k / ||i|| and whether the strip
    meets the ball: distance (|<alpha,i>| - rho_k a_k)/||i|| < r.  Requires
    alpha in D_a up to k_max.
    """
    alpha = _as_freq(alpha)
    a.require_positive()
    rho.require_positive()
    if not in_class(alpha, a, k_max, norm=norm, budget=budget):
        raise ClassMembershipError(
            "alpha is not in D_a up to k_max; strip geometry assumes it is"
        )
    pts, rank = _half_ball(alpha.dim, 2 ** k_max, norm, budget)
    e_of_i = np.searchsorted(4 ** np.arange(k_max + 1), rank)

    half = np.array([float(rho[k]) * float(a[k])
                     for k in range(k_max + 1)])[e_of_i]
    norms = np.sqrt((pts.astype(float) ** 2).sum(axis=1))
    width = half / norms
    dist = np.maximum(0.0, (np.abs(pts @ alpha.as_floats()) - half) / norms)
    hits = dist < float(r)
    order = np.lexsort((np.arange(len(pts)), rank))
    return [StripRecord(tuple(i), k, w, h) for i, k, w, h in zip(
        pts[order].tolist(), e_of_i[order].tolist(), width[order].tolist(),
        hits[order].tolist())]
