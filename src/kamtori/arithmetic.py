"""Small-divisor sequences, arithmetic classes, lattice flows, densities.

The central quantity is sigma(alpha)_k, the smallest |<alpha, i>| over
nonzero integer vectors i with ||i|| <= 2^k.  A frequency vector belongs to
the class D_a when sigma(alpha)_k >= a_k for every k; membership is only
ever decided up to a finite k_max, and every report carries that k_max.

Index-vector norms are Euclidean by default (sup-norm behind a flag).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    ClassMembershipError,
    NonPositiveTermError,
    ShapeMismatchError,
)
from .jets import _exact_or_float, _numerators, to_jsonable

DEFAULT_ENUM_BUDGET = 40_000_000

__all__ = [
    "FrequencyVector",
    "DecaySequence",
    "BrunoReport",
    "LatticeBasis",
    "DensityReport",
    "StripRecord",
    "StripTable",
    "SmoothMap",
    "sigma",
    "bruno_diagnostic",
    "in_class",
    "density_estimate",
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
        clean = tuple(map(_exact_or_float, comps))
        if not all(-math.inf < c < math.inf for c in clean):
            raise ValueError("frequency components must be finite")
        self.components = clean

    @property
    def dim(self):
        return len(self.components)

    @property
    def is_exact(self):
        return all(isinstance(c, Fraction) for c in self.components)

    def as_floats(self):
        return np.array([float(c) for c in self.components], dtype=float)

    def __iter__(self):
        return iter(self.components)

    def __repr__(self):
        return f"FrequencyVector({list(self.components)!r})"


def _as_freq(alpha) -> FrequencyVector:
    return alpha if isinstance(alpha, FrequencyVector) else FrequencyVector(alpha)


# ---------------------------------------------------------------------------
# decay sequences
# ---------------------------------------------------------------------------

class DecaySequence:
    """Finite positive sequence a_0..a_K.

    Only the stored terms exist: nothing is known past k_max, so no
    report built on a DecaySequence decides an infinite-sequence question.
    Values must be nonnegative; zeros are only admitted with allow_zero=True
    (they arise in sigma of resonant vectors).  Operations that need strict
    positivity call require_positive().
    """

    def __init__(self, values, allow_zero=False):
        vals = []
        for v in values:
            v = _exact_or_float(v)
            if not 0 <= v < math.inf:
                raise NonPositiveTermError(f"decay term {v} is < 0 or not finite")
            if v == 0 and not allow_zero:
                raise NonPositiveTermError(
                    "zero term in decay sequence (pass allow_zero=True only "
                    "for sigma-like outputs)"
                )
            vals.append(v)
        if not vals:
            raise NonPositiveTermError("decay sequence needs at least one term")
        self.values = tuple(vals)
        self.monotone = all(vals[j + 1] <= vals[j]
                            for j in range(len(vals) - 1))

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
        raise IndexError(f"index {k} beyond stored range 0..{self.k_max}")

    def require_positive(self):
        for k, v in enumerate(self.values):
            if v <= 0:
                raise NonPositiveTermError(f"term a_{k} = {v} must be positive")
        return self

    def elementwise_product(self, other):
        k = min(self.k_max, other.k_max)
        vals = [self.values[j] * other.values[j] for j in range(k + 1)]
        return DecaySequence(vals, allow_zero=any(v == 0 for v in vals))

    def to_json_dict(self):
        return to_jsonable({
            "values": self.values,
            "k_max": self.k_max,
            "monotone": self.monotone,
            # a finite sequence has no tail; the key keeps artifacts unchanged
            "descriptor": None,
        })


# ---------------------------------------------------------------------------
# sigma and class membership
# ---------------------------------------------------------------------------

def _ball_rows(n, radius, norm, budget):
    """The half ball of radius `radius` in Z^n, as rows: one index per
    +-i pair of nonzero integer vectors with ||i|| <= radius.

    Every quantity built on the indices (|<alpha,i>|, ||i||, e(i)) is even
    in i, so of each pair only the index whose first nonzero component is
    positive is kept.  A row is a head (i_1..i_{n-1}) inside the ball
    followed by the range start <= i_n <= top of last coordinates that
    keeps it there: |i_n| <= isqrt(R^2 - |head|^2), or |i_n| <= R for the
    sup ball, which is the box.  Returns (head, head_rank, start, top):
    the (H, n - 1) heads in lexicographic order, the zero head first (it
    takes only i_n >= 1, the others start at -top), and each head's
    rank, the squared Euclidean or squared sup norm, so that
    ||i|| <= 2^k iff rank <= 4^k.  The budget counts the whole
    (2 radius + 1)^n box.
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
    # lead with a negative component
    zero = int(np.flatnonzero(head_rank == 0)[0])
    head, head_rank, top = head[zero:], head_rank[zero:], top[zero:]
    start = -top
    start[0] = 1
    return head, head_rank, start, top


def _expand(head, head_rank, start, top, norm):
    """The (M, n) indices of rows and their ranks, in lexicographic order.

    Each head is followed by its last coordinates start..top (none when
    start > top); a rank is the head's rank plus i_n^2, or the larger of
    the two for the sup norm.
    """
    n = head.shape[1] + 1
    counts = np.maximum(top - start + 1, 0)
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


def _half_ball(n, radius, norm, budget):
    """Every index of the `_ball_rows` half ball, with its rank."""
    return _expand(*_ball_rows(n, radius, norm, budget), norm)


def _exact_scale(alpha_fracs, radius):
    """alpha as integer numerators over one common denominator.

    Returns (numerators, den): an int64 array while every |<alpha,i>|
    with sup |i| <= radius, as a numerator, stays below 2^62, else an
    object array of Python ints.
    """
    (den,), (scaled,) = _numerators(
        {k: Fraction(c) for k, c in enumerate(alpha_fracs)})
    scaled = list(scaled.values())
    small = sum(abs(s) for s in scaled) * radius < 2 ** 62
    return np.array(scaled, dtype=np.int64 if small else object), den


def _row_minima_exact(head, start, top, scaled):
    """min |<alpha,i>| numerator of each row, alpha given by `scaled`.

    |c + a t| is convex in t, so the minimum over start <= t <= top lies
    at the clamped floor or ceiling of -c/a, found by integer division.
    """
    c = head @ scaled[:-1]
    a = scaled[-1]
    if a == 0:
        return np.abs(c)
    t = np.maximum(np.minimum(-c // a, top), start)
    return np.minimum(np.abs(c + a * t),
                      np.abs(c + a * np.minimum(t + 1, top)))


def sigma(alpha, k_max, norm="euclidean", budget=DEFAULT_ENUM_BUDGET):
    """sigma(alpha)_k = min |<alpha,i>| over 0 != i in Z^n, ||i|| <= 2^k.

    Exact Fractions when alpha is rational, floats otherwise.  |<alpha,i>|
    is even in i, so the minima are taken over the `_ball_rows` half ball
    of each radius 2^k, row by row, at O(R^(n-1)) cost, not O(R^n).
    Exact mode works on int64 numerators (Python ints past 2^62) and
    takes each row's minimum at the clamped root of c + alpha_n t.

    Float mode bounds the minimum first: e_n = (0, ..., 0, 1) lies in
    every half ball and its float product is alpha_n exactly, so the
    minimum is at most |alpha_n|.  `_rows_near` then keeps, per row, the
    last coordinates whose float value can be at or below that bound,
    and only those are expanded and evaluated, with the same `pts @
    alpha` product as the whole ball: every value is the one the whole
    ball gives, bit for bit.  The budget still counts the
    (2^(k_max+1) + 1)^n box.
    """
    alpha = _as_freq(alpha)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    exact = alpha.is_exact
    if exact:
        scaled, den = _exact_scale(alpha.components, 2 ** k_max)
    else:
        af = alpha.as_floats()
    minima = []
    # k_max first, so an over-budget call fails before any work
    for k in range(k_max, -1, -1):
        head, head_rank, start, top = _ball_rows(alpha.dim, 2 ** k, norm,
                                                 budget)
        if exact:
            minima.append(Fraction(int(_row_minima_exact(
                head, start, top, scaled).min()), den))
        else:
            pts, _ = _expand(head, head_rank, *_rows_near(
                head, start, top, af, abs(af[-1]), 2 ** k), norm)
            minima.append(float(np.abs(pts @ af).min()))
    return DecaySequence(minima[::-1], allow_zero=True)


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
    """Partial sum S_K = -sum_{k<=K} log(min(1,a_k))/2^k.

    A finite prefix never proves (non-)summability, so the verdict is
    always "inconclusive"; it stays in the report so bruno artifacts keep
    their shape.
    """
    total = 0.0
    for k in range(K + 1):
        v = a[k]
        if v <= 0:
            raise NonPositiveTermError(f"a_{k} = {v}: Bruno sum needs a_k > 0")
        vf = float(v)
        if vf < 1.0:
            total -= math.log(vf) / 2.0 ** k
    return BrunoReport(total, "inconclusive", K)


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
            # by blocks of _ROWS rows, the last taking the rest (a lone row
            # would take a dot, not gemv), so the (rows, terms, d) powers
            # stay small; on one BLAS thread the bits are one call's
            pts = np.asarray(pts, dtype=float)
            out = np.zeros((pts.shape[0], len(tables)))
            edges = [*range(0, max(len(pts) - _ROWS, 1), _ROWS), len(pts)]
            for s, e in zip(edges, edges[1:]):
                for col, (exps, coef) in enumerate(tables):
                    out[s:e, col] = (pts[s:e, None, :] ** exps).prod(
                        axis=2) @ coef
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
# temporary is 512 KB, small enough to stay in cache; rows per block of a
# polynomial map's evaluation
_BLOCK, _CHUNK, _ROWS = 256, 256, 4096
_SAMPLE_BYTES_LIMIT = 2 ** 30


def _rows_near(head, start, top, y, reach, radius):
    """Rows cut to the last coordinates t with |<head, y'> + y_n t| <= reach.

    y' is y without its last component.  The cut is widened by the
    rounding of the float products (|i_j| <= radius) and by one last
    coordinate on either side, so no index of the row whose float value
    can be at or below `reach` is left out; with y_n = 0 a row is kept
    whole when |<head, y'>| is within the widened reach, inclusive, so a
    zero y keeps every row.  Returns the new (start, top); a row with
    start > top is empty.  The one float bound on `pts @ y`: `sigma`
    cuts at |y_n|, `density_estimate` at the largest screen bound.
    ValueError when radius · sum |y_j| · (1 + n · 2^-52), a bound on
    every such product and its partial sums, is not finite.
    """
    with np.errstate(over="ignore"):
        total = float(np.abs(y).sum())
    if not math.isfinite(radius * total * (1 + len(y) * 2.0 ** -52)):
        raise ValueError(
            f"float products <i, y> with |i_j| <= {radius} can pass the "
            "float range: radius * sum |y_j| with its rounding is not finite")
    c = head @ y[:-1]
    a = y[-1]
    error = len(y) * 2.0 ** -52 * radius * total
    reach = (reach + 4 * error) * (1 + 1e-9)
    if a == 0:
        near = np.abs(c) <= reach
        return np.where(near, start, 1), np.where(near, top, 0)
    with np.errstate(over="ignore"):
        ends = np.clip((-c[:, None] + np.array([-reach, reach])) / a,
                       -radius - 2, radius + 2)
    lo = np.floor(ends.min(axis=1)).astype(np.int64) - 1
    hi = np.ceil(ends.max(axis=1)).astype(np.int64) + 1
    return np.maximum(start, lo), np.minimum(top, hi)


def _cell_blocks(Y):
    """Y's rows stably sorted by cell of a grid over Y's bounding box with
    about _BLOCK rows per cell, and the bounds of its blocks: block b is
    rows bounds[b]:bounds[b + 1], at most _BLOCK rows of one cell.  The
    cell keys take the narrowest integer type, so numpy radix-sorts them
    up to 16 bits."""
    d = Y.shape[1]
    lo, hi = np.array([(col.min(), col.max()) for col in Y.T]).T
    side = max(1, math.ceil((len(Y) / _BLOCK) ** (1 / d)))
    span = np.where(hi > lo, hi - lo, 1.0)
    key = np.ravel_multi_index(tuple(np.minimum(
        ((Y - lo) / span * side).astype(np.int64), side - 1).T), (side,) * d)
    order = np.argsort(key.astype(np.min_scalar_type(side ** d - 1)),
                       kind="stable")
    # a block opens at every _BLOCK-th row of a cell
    key = key[order]
    offset = np.arange(len(Y)) - np.searchsorted(key, key)
    bounds = np.r_[np.flatnonzero(offset % _BLOCK == 0), len(Y)]
    return Y[order], bounds


def _levels(terms):
    """The float thresholds rho_k a_k as an array; a term past the float
    range raises ValueError."""
    try:
        return np.array(list(terms))
    except OverflowError:
        raise ValueError("rho_k a_k overflows a float") from None


def density_estimate(f, x0, a: DecaySequence, rho: DecaySequence, r,
                     samples, k_max, seed, norm="euclidean",
                     budget=DEFAULT_ENUM_BUDGET) -> DensityReport:
    """Monte-Carlo fraction of the ball B(x0, r) mapping into D_{rho*a}.

    Membership of y = f(x) is tested up to k_max: |<y,i>| >= (rho*a)_{e(i)}
    for every nonzero i with e(i) <= k_max, where e(i) is the smallest k
    with ||i|| <= 2^k.  Counter-based RNG keyed by seed, so reports are
    reproducible sample-for-sample.

    Indices that cannot fail anywhere in the sampled image are screened
    out first: i stays active only if |<y0,i>| < t_i + R_img ||i||, y0 =
    f(x0), R_img the largest sampled |y - y0|.  The screen never lists
    the ball: `_rows_near` keeps, per `_ball_rows` row, the last
    coordinates that come within the largest such bound, and only those
    are expanded and screened, in lexicographic order.  `_cell_blocks`
    sorts the samples into blocks of at most _BLOCK from one grid cell
    each.  The active indices are screened again against each block's
    centre and radius (plus the rounding of the two products compared)
    for a group of blocks at once, and the rest are tested by _CHUNK at a
    time, so no such temporary passes one block by one chunk.  The
    fraction counts samples, so it does not depend on the order.
    Sample arrays (about 4 · samples · d floats, d the larger map
    dimension) over _SAMPLE_BYTES_LIMIT raise BudgetExceededError first.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not (math.isfinite(float(r)) and float(r) > 0):
        raise ValueError("radius must be finite and positive")
    x0 = np.asarray([float(c) for c in _as_freq(x0).components], dtype=float)
    if f is None:
        f = SmoothMap.identity(x0.shape[0])
    if f.dim_in != x0.shape[0]:
        raise ShapeMismatchError(
            f"x0 has dimension {x0.shape[0]}, map expects {f.dim_in}"
        )
    need = 4 * samples * max(f.dim_in, f.dim_out) * 8
    if need > _SAMPLE_BYTES_LIMIT:
        raise BudgetExceededError(
            f"{samples} samples need about {need / 2 ** 30:.3g} GiB, over the "
            f"{_SAMPLE_BYTES_LIMIT / 2 ** 30:g} GiB limit; take fewer samples")
    b = a.elementwise_product(rho)
    if b.k_max < k_max:
        raise ValueError("sequences shorter than k_max")
    n = f.dim_out
    radius = 2 ** k_max
    head, head_rank, start, top = _ball_rows(n, radius, norm, budget)
    levels = _levels(float(b[k]) for k in range(k_max + 1))

    rng = np.random.Generator(np.random.Philox(seed))
    Y = _uniform_ball(rng, x0, float(r), samples)
    Y = Y if f.is_identity else f(Y)
    y0 = x0 if f.is_identity else f(x0[None, :])[0]
    y0 = np.asarray(y0, dtype=float)
    r_img = float(np.sqrt(((Y - y0) ** 2).sum(axis=1)).max(initial=0.0))

    # thresholds equal to zero are vacuous; the rest are at most `worst`
    # and ||i|| is at most `longest`
    worst = levels[levels > 0].max(initial=0.0)
    longest = radius if norm == "euclidean" else radius * math.sqrt(n)
    reach = worst + r_img * longest * (1 + 1e-12) + 1e-15
    pts, rank = _expand(head, head_rank,
                        *_rows_near(head, start, top, y0, reach, radius),
                        norm)
    # e(i) = smallest k with ||i|| <= 2^k, via rank <= 4^k
    t_i = levels[np.searchsorted(4 ** np.arange(k_max + 1), rank)]
    live = t_i > 0
    pts, t_i = pts[live], t_i[live]
    base = np.abs(pts @ y0)
    norms = np.sqrt((pts ** 2).sum(axis=1))
    active = base < t_i + r_img * norms * (1 + 1e-12) + 1e-15
    pts_a, t_a, norms_a = pts[active], t_i[active], norms[active]
    spread = np.abs(pts_a).sum(axis=1) * (n * 2.0 ** -50)

    Y, bounds = _cell_blocks(Y)
    starts = bounds[:-1]
    centres = 0.5 * (np.minimum.reduceat(Y, starts)
                     + np.maximum.reduceat(Y, starts))
    r_b = np.maximum.reduceat(np.sqrt(((
        Y - np.repeat(centres, np.diff(bounds), axis=0)) ** 2).sum(axis=1)),
        starts)
    # the screen on each block's own ball, plus the rounding of the two
    # products it compares: coordinates are within max|centre_j| + r_b
    group = max(1, _BLOCK * _CHUNK // max(1, len(pts_a)))
    alive_total = 0
    for g in range(0, len(starts), group):
        C, R = centres[g:g + group], r_b[g:g + group, None]
        near = np.abs(C @ pts_a.T) < (
            t_a + R * norms_a * (1 + 1e-12) + 1e-15
            + (np.abs(C).max(axis=1, keepdims=True) + R) * spread)
        for b, keep in enumerate(near, g):
            Yb = Y[bounds[b]:bounds[b + 1]]
            P_b, T_b = pts_a[keep], t_a[keep]
            # a sample drops out at its first failed chunk
            for cstart in range(0, len(P_b), _CHUNK):
                P = P_b[cstart:cstart + _CHUNK]
                T = T_b[cstart:cstart + _CHUNK]
                Yb = Yb[(np.abs(Yb @ P.T) >= T).all(axis=1)]
                if not len(Yb):
                    break
            alive_total += len(Yb)

    return DensityReport(
        radius=float(r),
        sample_count=int(samples),
        k_max=int(k_max),
        fraction_in_class=alive_total / samples,
        rng_seed=int(seed),
        center_passes=bool((base >= t_i).all()),
        active_constraints=int(pts_a.shape[0]),
        map_name=f.name,
    )


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
    the bound.  Raises ValueError when e^t or that length is not finite.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    n = basis.dim
    pts, _ = _half_ball(n, coeff_bound, "sup", budget)
    alpha = np.array([float(v[-1]) for v in basis.vectors])
    try:
        et = math.exp(float(t))
    except OverflowError:
        raise ValueError(f"e^t overflows at t={t}") from None
    # combination c gives the lattice point (c, <alpha, c>)
    with np.errstate(all="ignore"):
        spatial = (pts.astype(float) / et) ** 2
        dots = (pts @ alpha) * et
        lengths = np.sqrt(spatial.sum(axis=1) + dots ** 2)
    # lengths are bitwise even in c, so the witness, the lexicographically
    # first minimizer over the whole box, is minus the last one here
    j = len(lengths) - 1 - int(np.argmin(lengths[::-1]))
    delta = float(lengths[j])
    if not math.isfinite(delta):
        raise ValueError(f"the shortest length is not finite at t={t}")
    return delta, tuple(-int(c) for c in pts[j])


def lemma_eps_t(a, i_norm):
    """Explicit resolution (eps, t) = (sqrt(2 a ||i||), log(||i||/a)/2);
    ValueError when eps or t is not finite in floats."""
    a = float(a)
    i_norm = float(i_norm)
    if not (0 < a < math.inf and 0 < i_norm < math.inf):
        raise ValueError("lemma_eps_t needs finite a > 0 and ||i|| > 0")
    square, ratio = 2.0 * a * i_norm, i_norm / a
    if not (square < math.inf and 0 < ratio < math.inf):
        raise ValueError(f"lemma_eps_t(a={a!r}, ||i||={i_norm!r}) has no "
                         "finite (eps, t) in floats")
    return math.sqrt(square), 0.5 * math.log(ratio)


# ---------------------------------------------------------------------------
# strips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripRecord:
    index: tuple
    k: int
    width: float
    intersects_ball: bool


class StripTable(Sequence):
    """The strips of `strip_analysis` as read-only columns in rank order.

    index is the (M, n) int64 array of indices, k (e(i)), width and
    intersects_ball are length-M arrays.  len, indexing and iteration
    give StripRecords built from Python ints, floats and bools.
    """

    __slots__ = ("index", "k", "width", "intersects_ball")

    def __init__(self, index, k, width, intersects_ball):
        for name, column in zip(self.__slots__,
                                (index, k, width, intersects_ball)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError("StripTable is read-only")

    def __len__(self):
        return len(self.k)

    def __getitem__(self, j):
        return StripRecord(tuple(self.index[j].tolist()), int(self.k[j]),
                           float(self.width[j]),
                           bool(self.intersects_ball[j]))

    def __iter__(self):
        for index, k, width, hit in zip(
                self.index.tolist(), self.k.tolist(), self.width.tolist(),
                self.intersects_ball.tolist()):
            yield StripRecord(tuple(index), k, width, hit)


def strip_analysis(alpha, a: DecaySequence, rho: DecaySequence, r, k_max,
                   norm="euclidean", budget=DEFAULT_ENUM_BUDGET):
    """Strips M_i = {x : |<x,i>| <= rho_k a_k}, k = e(i), near the ball B(alpha,r).

    Lists the `_half_ball` once, one representative per +-i pair (first
    nonzero component positive), and reports the width rho_k a_k / ||i||
    and whether the strip meets the ball: distance
    (|<alpha,i>| - rho_k a_k)/||i|| < r.  Requires alpha in D_a up to
    k_max, which `in_class` checks by rows.  Returns a StripTable in
    order of rank, ties in lexicographic order.
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

    half = _levels(float(rho[k]) * float(a[k])
                   for k in range(k_max + 1))[e_of_i]
    norms = np.sqrt((pts.astype(float) ** 2).sum(axis=1))
    width = half / norms
    dist = np.maximum(0.0, (np.abs(pts @ alpha.as_floats()) - half) / norms)
    order = np.argsort(rank, kind="stable")
    return StripTable(pts[order], e_of_i[order], width[order],
                      dist[order] < float(r))
