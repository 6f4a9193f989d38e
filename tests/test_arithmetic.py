"""Small-divisor sequences, Bruno diagnostics, lattice flow, strips, density."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kamtori import arithmetic
from kamtori.arithmetic import (
    _BLOCK,
    _CHUNK,
    DEFAULT_ENUM_BUDGET,
    DecaySequence,
    SmoothMap,
    StripTable,
    _exact_scale,
    _half_ball,
    _uniform_ball,
    bruno_diagnostic,
    density_estimate,
    flow_and_shortest,
    in_class,
    lattice_basis,
    lemma_eps_t,
    sigma,
    strip_analysis,
)
from kamtori.errors import (
    BudgetExceededError,
    ClassMembershipError,
    NonPositiveTermError,
    ShapeMismatchError,
)
from kamtori.jets import Jet

PHI_EXACT = Fraction((1 + math.sqrt(5)) / 2).limit_denominator(10 ** 15)
PHI = float(PHI_EXACT)


def fibonacci_sigma_oracle(phi, k_max):
    """Independent values of sigma((1,phi))_k from best rational approximation.

    Candidates are the basis vectors (1,0),(0,1) and consecutive Fibonacci
    pairs i=(F_{m+1},-F_m), which realize the minima of |i1 + phi*i2| by the
    law of best approximation for the golden ratio.
    """
    fib = [1, 1]
    while fib[-1] ** 2 + fib[-2] ** 2 <= 4 ** k_max:
        fib.append(fib[-1] + fib[-2])
    out = []
    for k in range(k_max + 1):
        cands = [abs(Fraction(1)) if isinstance(phi, Fraction) else 1.0, abs(phi)]
        for m in range(len(fib) - 1):
            p, q = fib[m + 1], fib[m]
            if p * p + q * q <= 4 ** k:
                cands.append(abs(p - phi * q))
        out.append(min(cands))
    return out


# --- sigma --------------------------------------------------------------------

def test_sigma_integer_resonance():
    s = sigma([1, 1], 2)
    assert list(s) == [Fraction(1), Fraction(0), Fraction(0)]


def test_sigma_single_component():
    for c in (Fraction(-3, 7), 0.25, Fraction(5)):
        s = sigma([c], 4)
        assert all(v == abs(c) for v in s)


def test_sigma_golden_matches_fibonacci_oracle_exact():
    s = sigma([1, PHI_EXACT], 10)
    oracle = fibonacci_sigma_oracle(PHI_EXACT, 10)
    assert list(s) == oracle


def test_sigma_golden_matches_fibonacci_oracle_float():
    s = sigma([1.0, PHI], 10)
    oracle = fibonacci_sigma_oracle(PHI, 10)
    for got, want in zip(s, oracle):
        assert math.isclose(got, want, rel_tol=1e-12)


def test_sigma_two_precisions_agree():
    sf = sigma([1.0, PHI], 9)
    se = sigma([1, PHI_EXACT], 9)
    for a, b in zip(se, sf):
        assert abs(float(a) - b) < 1e-9


def full_box(n, radius):
    """Every nonzero integer vector with sup norm <= radius, in
    lexicographic order: the whole box, both members of each +-i pair."""
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[(pts != 0).any(axis=1)]


def box_rank(pts, norm):
    if norm == "euclidean":
        return (pts ** 2).sum(axis=1)
    return np.abs(pts).max(axis=1) ** 2


# numerators past 2^62: 2^61 (1, 1 + 2^-61) at radius 2 or more
HUGE = [1, Fraction(2 ** 61 + 1, 2 ** 61)]

SIGMA_CASES = [
    ([Fraction(-3, 7)], 6), ([0.25], 6), ([Fraction(5)], 3),
    ([1, PHI_EXACT], 5), ([1.0, PHI], 5), ([1, 1], 3),
    ([Fraction(-3, 5), Fraction(7, 11)], 4), ([-1.25, 0.5], 4),
    ([1, Fraction(7, 5), Fraction(-26, 15)], 3), ([1.0, 1.41421356, -1.7320508], 3),
    # alpha_n = 0, a tiny last component and more negative components
    ([Fraction(2, 3), 0], 4), ([-0.75, 0.0], 4), ([1.0, 3e-17], 4),
    ([1, Fraction(-5, 7), 0], 3), ([-2.5, 1.7, 0.0], 3),
    ([Fraction(-1, 3), -1, Fraction(8, 5)], 3), ([-1.1, -0.3, 2.9e-9], 3),
    ([1, Fraction(-7, 5), Fraction(3, 11), Fraction(-13, 17)], 2),
    ([0.5, -1.3, 0.7071, 0.0], 2), ([1.0, PHI, -1.41421356, 0.318], 3),
    (HUGE, 4),
    # zero vectors: every row of the half ball is at the minimum, 0
    ([0.0], 5), ([0.0, 0.0], 3), ([0.0, 0.0, 0.0], 2),
]


@pytest.mark.parametrize("norm", ["euclidean", "sup"])
def test_sigma_matches_full_box_oracle(norm):
    # exact minima equal as Fractions, float minima bit for bit: the row
    # candidates give what the product over the whole box gives
    assert _exact_scale(HUGE, 2)[0].dtype == object
    for alpha, k_max in SIGMA_CASES:
        pts = full_box(len(alpha), 2 ** k_max)
        rank = box_rank(pts, norm)
        keep = rank <= 4 ** k_max if norm == "euclidean" else rank > 0
        pts, rank = pts[keep], rank[keep]
        got = list(sigma(alpha, k_max, norm=norm))
        if all(isinstance(c, (int, Fraction)) for c in alpha):
            dots = np.array([abs(sum(Fraction(a) * int(c)
                                     for a, c in zip(alpha, row)))
                             for row in pts], dtype=object)
            assert all(type(v) is Fraction for v in got), alpha
        else:
            dots = np.abs(pts @ np.array(alpha, dtype=float))
            got = [v.hex() for v in got]
        want = [dots[rank <= 4 ** k].min() for k in range(k_max + 1)]
        if not isinstance(want[0], Fraction):
            want = [float(v).hex() for v in want]
        assert got == want, alpha


@pytest.mark.parametrize("norm", ["euclidean", "sup"])
def test_strip_order_matches_full_box_oracle(norm):
    # records come in order of rank, ties in lexicographic order, one per
    # +-i pair: the member whose first nonzero component is positive
    for alpha, k_max in (([1, PHI_EXACT], 3), ([1.0, 1.41421356, 1.7320508], 2)):
        a = sigma(alpha, k_max, norm=norm)
        rho = DecaySequence([Fraction(1, 2)] * (k_max + 1))
        pts = full_box(len(alpha), 2 ** k_max)
        rank = box_rank(pts, norm)
        want = []
        for j in np.lexsort((np.arange(len(pts)), rank)):
            row = tuple(int(c) for c in pts[j])
            if rank[j] > 4 ** k_max or next(c for c in row if c) < 0:
                continue
            want.append((row, next(k for k in range(k_max + 1)
                                   if rank[j] <= 4 ** k)))
        records = strip_analysis(alpha, a, rho, 0.1, k_max, norm=norm)
        assert [(rec.index, rec.k) for rec in records] == want


def test_flow_witness_matches_full_box_oracle():
    # the witness is the lexicographically first minimizer over the whole
    # box; every length ties with its mirror -c, and alpha = 0 makes the
    # unit vectors tie as well
    for alpha in ([0, 0], [1, PHI_EXACT], [2, -3], [0.5], [1.0, 1.41421356, 1.7320508]):
        basis = lattice_basis(alpha)
        af = np.array([float(c) for c in alpha])
        for bound in (1, 2, 5):
            pts = full_box(len(alpha), bound)
            for t in (-1.0, 0.0, 0.5, 2.0):
                et = math.exp(t)
                lengths = np.sqrt(((pts.astype(float) / et) ** 2).sum(axis=1)
                                  + ((pts @ af) * et) ** 2)
                j = int(np.argmin(lengths))
                want = (float(lengths[j]), tuple(int(c) for c in pts[j]))
                assert flow_and_shortest(basis, t, bound) == want, (alpha, t)


def test_sigma_nonincreasing():
    rng = np.random.default_rng(2)
    for _ in range(5):
        alpha = [float(x) for x in rng.normal(size=2)]
        s = sigma(alpha, 8)
        vals = list(s)
        assert all(vals[j + 1] <= vals[j] for j in range(len(vals) - 1))
        assert s.monotone


def test_sigma_sup_norm_flag():
    # sup ball contains the Euclidean ball, so minima can only shrink
    se = sigma([1, PHI_EXACT], 5)
    ss = sigma([1, PHI_EXACT], 5, norm="sup")
    assert all(x <= y for x, y in zip(ss, se))
    # at k=0 the sup ball already contains (1,-1)
    assert ss[0] == abs(1 - PHI_EXACT)
    assert se[0] == 1


def test_sigma_budget_guard():
    # the budget counts the whole (2 * 2^9 + 1)^3 box, not the ball
    with pytest.raises(BudgetExceededError, match="of 1076890625 integer"):
        sigma([1.0, 2.0, 3.0], 9, budget=10_000)


def box_half_ball(n, radius, norm):
    """The half box i_1 >= 0, masked to the ball and to the indices whose
    first nonzero component is positive: the box-and-mask construction
    that the row-built `_half_ball` replaced, kept as its oracle."""
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(axis[radius:], *([axis] * (n - 1)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    lead = np.argmax(pts != 0, axis=1)
    keep = pts[np.arange(len(pts)), lead] > 0
    if norm == "euclidean":
        rank = (pts ** 2).sum(axis=1)
        keep &= rank <= radius * radius
    else:
        rank = np.abs(pts).max(axis=1) ** 2
    return pts[keep], rank[keep]


@pytest.mark.parametrize("norm", ["euclidean", "sup"])
def test_half_ball_rows_match_box_and_mask(norm):
    # R = 5, 10, 25, 65 make R^2 - s a perfect square for some heads
    # ((3, 4), (6, 8), (7, 24), (16, 63), ...), so an integer square root
    # off by one either way drops or adds a row
    cases = [(n, radius) for n in (1, 2, 3, 4)
             for radius in (1, 2, 3, 5, 7, 10)]
    cases += [(3, 2 ** k) for k in range(7)] + [(2, 25), (2, 65), (1, 64)]
    for n, radius in cases:
        pts, rank = _half_ball(n, radius, norm, DEFAULT_ENUM_BUDGET)
        want_pts, want_rank = box_half_ball(n, radius, norm)
        assert pts.dtype == want_pts.dtype and rank.dtype == want_rank.dtype
        assert np.array_equal(pts, want_pts), (n, radius)
        assert np.array_equal(rank, want_rank), (n, radius)


def test_half_ball_budget_counts_the_box():
    assert len(_half_ball(3, 2, "euclidean", 125)[0]) == 16
    with pytest.raises(BudgetExceededError):
        _half_ball(3, 2, "euclidean", 124)


def test_sigma_rejects_empty_vector():
    with pytest.raises(Exception):
        sigma([], 2)


@pytest.mark.parametrize("alpha", [[1, PHI_EXACT], [1.0, PHI]])
def test_sigma_refuses_a_negative_order_and_an_unknown_norm(alpha):
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        sigma(alpha, -1)
    with pytest.raises(ValueError, match="unknown norm 'l1'"):
        sigma(alpha, 2, norm="l1")


# --- bruno ---------------------------------------------------------------------

def test_bruno_all_ones():
    rep = bruno_diagnostic(DecaySequence([1] * 7), 6)
    assert rep.partial_sum == 0.0
    ps, verdict = rep  # tuple protocol
    assert (ps, verdict) == (0.0, "inconclusive")


def test_bruno_geometric_closed_form():
    # a_k = 2^-k: S_K = log2 * sum k/2^k = log2 * (2 - (K+2)/2^K)
    K = 20
    a = DecaySequence([Fraction(1, 2 ** k) for k in range(K + 1)])
    rep = bruno_diagnostic(a, K)
    expected = math.log(2) * (2 - Fraction(K + 2, 2 ** K))
    assert math.isclose(rep.partial_sum, expected, rel_tol=1e-12)


def test_bruno_double_exponential_diverges():
    # a_k = 2^-(4^k): terms 4^k log2 / 2^k = 2^k log2 grow; partial sums
    # explode
    a = DecaySequence([Fraction(1, 2 ** 4 ** k) for k in range(4)])
    rep = bruno_diagnostic(a, 3)
    assert rep.partial_sum > bruno_diagnostic(a, 2).partial_sum


def test_bruno_no_descriptor_inconclusive():
    a = DecaySequence([Fraction(1, 2), Fraction(1, 4)])
    assert bruno_diagnostic(a, 1).verdict == "inconclusive"


def test_bruno_rejects_nonpositive():
    a = DecaySequence([1, 0, 0], allow_zero=True)
    with pytest.raises(NonPositiveTermError):
        bruno_diagnostic(a, 2)


# --- classes --------------------------------------------------------------------

def test_in_class_resonant_false():
    a = DecaySequence([Fraction(1, 10 ** 6)] * 3)
    assert not in_class([1, 1], a, 2)


def test_decay_sequence_rejects_zero_by_default():
    with pytest.raises(NonPositiveTermError):
        DecaySequence([1, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decay_sequence_rejects_a_non_finite_term(bad):
    # NaN passes every sign test, so it used to be stored and skipped by
    # bruno_diagnostic
    with pytest.raises(NonPositiveTermError):
        DecaySequence([1.0, bad, 0.5])
    with pytest.raises(NonPositiveTermError):
        DecaySequence([1.0, bad], allow_zero=True)


def test_in_class_half_sigma_true():
    s = sigma([1, PHI_EXACT], 6)
    half = DecaySequence([v / 2 for v in s])
    assert in_class([1, PHI_EXACT], half, 6)


def test_alpha_in_its_own_sigma_class():
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha = [float(x) + 0.1 for x in np.abs(rng.normal(size=2))]
        s = sigma(alpha, 5)
        if any(v == 0 for v in s):
            continue
        assert in_class(alpha, DecaySequence(list(s)), 5)


# --- density ---------------------------------------------------------------------

def test_density_center_always_passes():
    s = sigma([1, PHI_EXACT], 4)
    rho = DecaySequence([1] * 5)
    rep = density_estimate(None, [1, PHI_EXACT], s, rho, 0.05, 2000, 4, seed=7)
    assert rep.center_passes
    assert 0.0 <= rep.fraction_in_class <= 1.0


def test_density_huge_thresholds_fraction_zero():
    a = DecaySequence([Fraction(10 ** 9)] * 4)
    rho = DecaySequence([1] * 4)
    rep = density_estimate(None, [1, PHI_EXACT], a, rho, 0.1, 500, 3, seed=11)
    assert rep.fraction_in_class == 0.0
    assert not rep.center_passes


def test_density_deterministic_per_seed():
    s = sigma([1, PHI_EXACT], 5)
    rho = DecaySequence([Fraction(1, 64) ** (k + 1) for k in range(6)])
    r1 = density_estimate(None, [1, PHI_EXACT], s, rho, 0.01, 3000, 5, seed=99)
    r2 = density_estimate(None, [1, PHI_EXACT], s, rho, 0.01, 3000, 5, seed=99)
    assert r1.fraction_in_class == r2.fraction_in_class
    r3 = density_estimate(None, [1, PHI_EXACT], s, rho, 0.01, 3000, 5, seed=100)
    assert r1.rng_seed != r3.rng_seed


def test_density_polynomial_identity_matches_builtin():
    s = sigma([1, PHI_EXACT], 4)
    rho = DecaySequence([Fraction(1, 64) ** (k + 1) for k in range(5)])
    jets = [Jet.variable(0, 2, 3), Jet.variable(1, 2, 3)]
    fmap = SmoothMap.polynomial(jets)
    r1 = density_estimate(None, [1, PHI_EXACT], s, rho, 0.02, 4000, 4, seed=5)
    r2 = density_estimate(fmap, [1, PHI_EXACT], s, rho, 0.02, 4000, 4, seed=5)
    assert r1.fraction_in_class == r2.fraction_in_class


def test_density_shifted_rho_saturates():
    # with rho_k = 2^{-6(k+1)} the center is strictly inside the class and
    # small balls are entirely captured
    s = sigma([1, PHI_EXACT], 6)
    rho = DecaySequence([Fraction(1, 64) ** (k + 1) for k in range(7)])
    rep = density_estimate(None, [1, PHI_EXACT], s, rho, 0.001, 5000, 6, seed=3)
    assert rep.fraction_in_class == 1.0


def density_oracle(f, x0, a, rho, r, samples, k_max, seed,
                   norm="euclidean"):
    """(fraction_in_class, active_constraints, center_passes) by brute
    force: every index of the box-and-mask half ball with t_i > 0 against
    every sample, with no screen, no rows and no blocks.  The active
    count is the screen's definition: indices with |<y0,i>| < t_i +
    R_img ||i||, up to the screen's rounding slack, R_img the largest
    sampled |y - y0|."""
    x0 = np.array([float(c) for c in x0])
    pts, rank = box_half_ball(len(x0), 2 ** k_max, norm)
    level = [min(k for k in range(k_max + 1) if q <= 4 ** k) for q in rank]
    t = np.array([float(a[k] * rho[k]) for k in level])
    pts, t = pts[t > 0], t[t > 0]
    X = _uniform_ball(np.random.Generator(np.random.Philox(seed)), x0, r,
                      samples)
    Y, y0 = (X, x0) if f is None else (f(X), f(x0[None, :])[0])
    passes = np.abs(Y @ pts.T) >= t
    norms = np.sqrt((pts ** 2).sum(axis=1))
    r_img = np.sqrt(((Y - y0) ** 2).sum(axis=1)).max()
    margin = t + r_img * norms * (1 + 1e-12) + 1e-15
    active = np.abs(pts @ y0) < margin
    # the screen is sound: an index that fails anywhere is active
    assert active[~passes.all(axis=0)].all()
    center = bool((np.abs(pts @ y0) >= t).all())
    return int(passes.all(axis=1).sum()) / samples, int(active.sum()), center


def test_density_matches_brute_force_oracle():
    # 1000 samples is not a multiple of the sample block, and at r = 0.3
    # the active indices fill more than two chunks, so the last block and
    # the last chunk are both partial
    k_max, samples = 6, 1000
    s = sigma([1, PHI_EXACT], k_max)
    x, y = Jet.variable(0, 2, 3), Jet.variable(1, 2, 3)
    fmap = SmoothMap.polynomial([x + (y * y).scale(Fraction(1, 8)),
                                 y - (x * y).scale(Fraction(1, 16))])
    seen = set()
    for f in (None, fmap):
        for rho_0, r in ((Fraction(1, 4), 0.3), (Fraction(1), 0.3),
                         (Fraction(1, 4), 0.02)):
            rho = DecaySequence([rho_0] * (k_max + 1))
            rep = density_estimate(f, [1, PHI_EXACT], s, rho, r, samples,
                                   k_max, seed=4)
            got = (rep.fraction_in_class, rep.active_constraints,
                   rep.center_passes)
            assert got == density_oracle(f, [1, PHI_EXACT], s, rho, r,
                                         samples, k_max, seed=4)
            seen.add((rep.active_constraints > 2 * _CHUNK,
                      0 < rep.fraction_in_class < 1))
    assert samples % _BLOCK and (True, True) in seen


def test_density_rows_match_brute_force_oracle():
    # off-alpha centres, both norms, the identity and a polynomial map:
    # the row cut, the screen and the per-block screen drop no index that
    # fails anywhere, and the active count is the screen's
    k_max, samples = 5, 1500
    alpha = [1, PHI_EXACT]
    x, y = Jet.variable(0, 2, 3), Jet.variable(1, 2, 3)
    fmap = SmoothMap.polynomial([x + (y * y).scale(Fraction(1, 8)),
                                 y - (x * y).scale(Fraction(1, 16))])
    seen = set()
    for norm in ("euclidean", "sup"):
        s = sigma(alpha, k_max, norm=norm)
        for f in (None, fmap):
            for x0, r, rho_0 in (((1.05, 1.5), 0.2, Fraction(1, 4)),
                                 ((0.9, 1.7), 0.02, Fraction(1, 16)),
                                 (alpha, 0.3, Fraction(1))):
                rho = DecaySequence([rho_0] * (k_max + 1))
                rep = density_estimate(f, x0, s, rho, r, samples, k_max,
                                       seed=9, norm=norm)
                got = (rep.fraction_in_class, rep.active_constraints,
                       rep.center_passes)
                assert got == density_oracle(f, x0, s, rho, r, samples,
                                             k_max, seed=9, norm=norm)
                seen.add((0 < rep.fraction_in_class < 1, rep.center_passes))
    assert {(True, True), (True, False)} <= seen
    # with one threshold at every level the cut has to reach the corners
    # of the sup ball, where ||i|| is sqrt(2) 2^k_max
    a = DecaySequence([Fraction(1, 10)] * (k_max + 1))
    rho = DecaySequence([1] * (k_max + 1))
    rep = density_estimate(None, alpha, a, rho, 0.5, samples, k_max, seed=9,
                           norm="sup")
    assert (rep.fraction_in_class, rep.active_constraints,
            rep.center_passes) == density_oracle(None, alpha, a, rho, 0.5,
                                                 samples, k_max, seed=9,
                                                 norm="sup")


def test_density_in_three_dimensions_matches_brute_force_oracle():
    # 5000 samples put a 3 x 3 x 3 cell grid over the image, so the cell
    # keys of all three coordinates and their narrow sort are exercised
    k_max, samples = 3, 5000
    alpha = [1, PHI_EXACT, Fraction(1393, 985)]
    x, y, z = (Jet.variable(i, 3, 3) for i in range(3))
    fmap = SmoothMap.polynomial([x + (y * z).scale(Fraction(1, 8)),
                                 y - (x * z).scale(Fraction(1, 16)),
                                 z + (x * y).scale(Fraction(1, 8))])
    for norm in ("euclidean", "sup"):
        s = sigma(alpha, k_max, norm=norm)
        for f in (None, fmap):
            for x0, r, rho_0 in ((alpha, 0.05, Fraction(1, 4)),
                                 ((1.05, 1.5, 1.4), 0.1, Fraction(1, 8)),
                                 (alpha, 0.2, Fraction(1, 2))):
                rho = DecaySequence([rho_0] * (k_max + 1))
                rep = density_estimate(f, x0, s, rho, r, samples, k_max,
                                       seed=9, norm=norm)
                got = (rep.fraction_in_class, rep.active_constraints,
                       rep.center_passes)
                assert got == density_oracle(f, x0, s, rho, r, samples,
                                             k_max, seed=9, norm=norm)
                assert 0 < rep.fraction_in_class < 1


def test_density_screen_groups_match_brute_force_oracle(monkeypatch):
    # with 8-sample blocks and 16-index chunks a group is 128 // active
    # blocks: one block at a time when more than 64 indices are active,
    # several otherwise, and always more than one group in 1000 samples
    k_max, samples = 6, 1000
    s = sigma([1, PHI_EXACT], k_max)
    x, y = Jet.variable(0, 2, 3), Jet.variable(1, 2, 3)
    fmap = SmoothMap.polynomial([x + (y * y).scale(Fraction(1, 8)),
                                 y - (x * y).scale(Fraction(1, 16))])
    cases = [(f, DecaySequence([rho_0] * (k_max + 1)), r)
             for f in (None, fmap)
             for rho_0, r in ((Fraction(1, 4), 0.3), (Fraction(1, 4), 0.02),
                              (Fraction(1, 64), 0.01))]
    reports = {}
    for block, chunk in ((1, 256), (7, 256), (256, 256), (8, 16)):
        monkeypatch.setattr(arithmetic, "_BLOCK", block)
        monkeypatch.setattr(arithmetic, "_CHUNK", chunk)
        reports[block] = [density_estimate(f, [1, PHI_EXACT], s, rho, r,
                                           samples, k_max, seed=4)
                          for f, rho, r in cases]
    fractions = {block: [rep.fraction_in_class for rep in reps]
                 for block, reps in reports.items()}
    assert fractions[1] == fractions[7] == fractions[256]
    groups = set()
    for (f, rho, r), rep in zip(cases, reports[8]):
        assert (rep.fraction_in_class, rep.active_constraints,
                rep.center_passes) == density_oracle(f, [1, PHI_EXACT], s,
                                                     rho, r, samples, k_max,
                                                     seed=4)
        groups.add(max(1, 8 * 16 // rep.active_constraints))
    assert 1 in groups and max(groups) > 1 and samples // 8 > max(groups)


@pytest.mark.parametrize("alpha", [[1, PHI_EXACT],
                                   [1, PHI_EXACT, Fraction(1393, 985)]])
def test_density_peak_memory_is_within_its_estimate(alpha):
    # the refusal assumes about 4 * samples * d floats at once
    samples, d = 400_000, len(alpha)
    s = sigma(alpha, 3)
    rho = DecaySequence([Fraction(1, 4)] * 4)
    tracemalloc.start()
    try:
        density_estimate(None, alpha, s, rho, 0.05, samples, 3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4 * samples * d * 8


def polynomial_maps():
    """The two-term map x + y^2/8, y - xy/16 and a cubic map of five and
    four terms."""
    x, y = Jet.variable(0, 2, 3), Jet.variable(1, 2, 3)
    two = [x + (y * y).scale(Fraction(1, 8)),
           y - (x * y).scale(Fraction(1, 16))]
    cubic = [two[0] + (x ** 3).scale(Fraction(1, 16))
             - (x * y * y).scale(Fraction(1, 32))
             + (y ** 3).scale(Fraction(1, 64)),
             two[1] + (x * x * y).scale(Fraction(1, 32))
             - (y ** 3).scale(Fraction(1, 48))]
    return two, cubic


def one_call_values(jets, pts):
    """A polynomial map's values from one (samples, terms, d) array of
    powers and one matrix-vector product per component."""
    out = np.empty((len(pts), len(jets)))
    for col, jet in enumerate(jets):
        idx = sorted(jet.coeffs)
        exps = np.array(idx, dtype=np.int64)
        coef = np.array([float(jet.coeffs[i]) for i in idx])
        out[:, col] = (pts[:, None, :] ** exps[None, :, :]).prod(axis=2) \
            @ coef
    return out


@pytest.mark.parametrize("rows", [4, 8, 64])
def test_polynomial_map_by_row_blocks_equals_one_call(monkeypatch, rows):
    # every product here is under 9216 entries, so OpenBLAS runs gemv on
    # one thread, where a row's bits depend only on its place in its
    # group of four; blocks of 4k rows, the last taking the rest, keep
    # those places
    monkeypatch.setattr(arithmetic, "_ROWS", rows)
    rng = np.random.default_rng(8)
    for jets in polynomial_maps():
        fmap = SmoothMap.polynomial(jets)
        for samples in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 3, 1001):
            pts = rng.normal(size=(samples, 2)) * 4
            assert fmap(pts).tobytes() == one_call_values(jets, pts).tobytes()


@pytest.mark.parametrize("which", [0, 1])
def test_density_peak_memory_with_a_polynomial_map_is_within_its_estimate(
        which):
    samples, alpha = 400_000, [1, PHI_EXACT]
    fmap = SmoothMap.polynomial(polynomial_maps()[which])
    s = sigma(alpha, 3)
    rho = DecaySequence([Fraction(1, 4)] * 4)
    tracemalloc.start()
    try:
        density_estimate(fmap, alpha, s, rho, 0.05, samples, 3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4 * samples * 2 * 8


def test_density_rejects_bad_inputs():
    s = sigma([1, PHI_EXACT], 3)
    rho = DecaySequence([1] * 4)
    with pytest.raises(ValueError):
        density_estimate(None, [1, PHI_EXACT], s, rho, 0.1, 0, 3, seed=1)
    with pytest.raises(ValueError):
        density_estimate(None, [1, PHI_EXACT], s, rho, -1.0, 10, 3, seed=1)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            density_estimate(None, [1, PHI_EXACT], s, rho, r, 10, 3, seed=1)


FLOAT_EDGE = [1e308, 1.6e308]     # |<i, alpha>| passes the float range


@pytest.mark.filterwarnings("error")
def test_float_small_divisors_past_the_float_range_are_refused():
    # i = (3, -2) gives 2e307 exactly, but the ball's float products
    # overflow; radius * sum |alpha_j| is not finite at radius 4
    with pytest.raises(ValueError, match="float range"):
        sigma(FLOAT_EDGE, 2)
    with pytest.raises(ValueError, match="float range"):
        density_estimate(None, FLOAT_EDGE, DecaySequence([1.0] * 3),
                         DecaySequence([1.0] * 3), 0.1, 10, 2, seed=1)
    # a hundredth of it stays within the range at radius 4, and so do
    # the products at radius 2 of (4e307, 2e307), though n * radius *
    # sum |alpha_j| does not: sigma equals the whole ball's minimum
    for alpha, k, r in (([1e306, 1.6e306], 2, 4), ([4e307, 2e307], 1, 2)):
        pts = np.array([(a, b) for a in range(-r, r + 1)
                        for b in range(-r, r + 1)
                        if (a, b) != (0, 0) and a * a + b * b <= r * r])
        assert sigma(alpha, k)[k] == float(np.abs(pts @ np.array(alpha)).min())


def test_density_sample_arrays_are_bounded_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the memory check")
    monkeypatch.setattr(arithmetic, "_uniform_ball", no_sampling)
    s = sigma([1, PHI_EXACT], 3)
    rho = DecaySequence([1] * 4)
    # 10^9 samples in 2 dimensions: four arrays of 16 GB
    with pytest.raises(BudgetExceededError, match="GiB"):
        density_estimate(None, [1, PHI_EXACT], s, rho, 0.1, 10 ** 9, 3,
                         seed=1)
    monkeypatch.undo()
    # the limit is inclusive: 100 samples in 2 dimensions
    monkeypatch.setattr(arithmetic, "_SAMPLE_BYTES_LIMIT", 4 * 100 * 2 * 8)
    density_estimate(None, [1, PHI_EXACT], s, rho, 0.1, 100, 3, seed=1)
    with pytest.raises(BudgetExceededError):
        density_estimate(None, [1, PHI_EXACT], s, rho, 0.1, 101, 3, seed=1)


# --- lattice -------------------------------------------------------------------

def test_lattice_basis_rows():
    B = lattice_basis([0, 0])
    assert B.vectors == ((Fraction(1), Fraction(0), Fraction(0)),
                         (Fraction(0), Fraction(1), Fraction(0)))
    B1 = lattice_basis([1])
    assert B1.vectors == ((Fraction(1), Fraction(1)),)
    B2 = lattice_basis([1, PHI])
    assert B2.vectors[0] == (Fraction(1), Fraction(0), Fraction(1))
    assert B2.vectors[1][:2] == (Fraction(0), Fraction(1))
    assert B2.vectors[1][2] == PHI


def test_flow_and_shortest_trivial():
    B = lattice_basis([0, 0])
    d, w = flow_and_shortest(B, 0.0, 3)
    assert d == pytest.approx(1.0)
    assert sorted(abs(c) for c in w) == [0, 1]
    d1, _ = flow_and_shortest(B, 1.0, 3)
    assert d1 == pytest.approx(math.exp(-1))


@pytest.mark.parametrize("t", [710, -746, -360])
def test_flow_and_shortest_refuses_lengths_past_the_float_range(t):
    # e^710 overflows, e^-746 is 0, and at t = -360 every combination's
    # length e^360 ||c|| overflows
    with pytest.raises(ValueError, match=f"at t={t}( |$)"):
        flow_and_shortest(lattice_basis([1, 1.6]), t, 64)


def test_flow_and_shortest_refuses_an_empty_coefficient_box():
    with pytest.raises(ValueError, match="coeff_bound must be >= 1"):
        flow_and_shortest(lattice_basis([1, PHI_EXACT]), 0, 0)


def test_flow_and_shortest_keeps_a_finite_shortest_length():
    # at t = 350 most lengths overflow, but <alpha, c> is 0.0 for c = (8, -5)
    # in floats, so its length sqrt(89) e^-350 is the shortest
    delta, short = flow_and_shortest(lattice_basis([1, 1.6]), 350, 64)
    assert short == (-8, 5)
    assert delta == pytest.approx(math.sqrt(89) * math.exp(-350), rel=1e-14)


def test_flow_and_shortest_lemma_bound():
    # numerical transcription of the explicit-resolution lemma: whenever
    # |<alpha,i>| <= a, the flowed lattice at t from lemma_eps_t has a vector
    # of length <= eps = sqrt(2 a ||i||)
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 50:
        alpha = [float(x) for x in rng.normal(size=2) * 1.5]
        i = tuple(int(c) for c in rng.integers(-4, 5, size=2))
        if i == (0, 0):
            continue
        val = abs(alpha[0] * i[0] + alpha[1] * i[1])
        if val == 0:
            continue
        a = val * (1 + float(rng.random()))  # any a >= |<alpha,i>|
        i_norm = math.hypot(*i)
        eps, t = lemma_eps_t(a, i_norm)
        delta, _ = flow_and_shortest(lattice_basis(alpha), t, 4)
        assert delta <= eps + 1e-12
        checked += 1


def test_lemma_eps_t_values():
    eps, t = lemma_eps_t(2, 2)
    assert eps == pytest.approx(math.sqrt(8))
    assert t == 0.0
    eps, t = lemma_eps_t(0.5, 2)
    assert eps == pytest.approx(math.sqrt(2))
    assert t == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        lemma_eps_t(0, 1)
    with pytest.raises(ValueError):
        lemma_eps_t(1, -2)


@pytest.mark.parametrize("a, i_norm", [(1e-300, 1e300), (1e300, 1e300),
                                       (1e300, 1e-300)])
def test_lemma_eps_t_refuses_a_pair_past_the_float_range(a, i_norm):
    # eps = inf, eps = inf and t = log(0) in floats
    with pytest.raises(ValueError, match=r"a=1e[+-]300, \|\|i\|\|=1e[+-]300"):
        lemma_eps_t(a, i_norm)
    eps, t = lemma_eps_t(1e-150, 1e150)    # finite pairs keep their bits
    assert (eps, t) == (math.sqrt(2.0 * 1e-150 * 1e150),
                        0.5 * math.log(1e150 / 1e-150))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lemma_eps_t_rejects_non_finite_input(bad):
    with pytest.raises(ValueError):
        lemma_eps_t(bad, 2.0)
    with pytest.raises(ValueError):
        lemma_eps_t(1.0, bad)


# --- strips ---------------------------------------------------------------------

def strip_setup(k_max=3):
    alpha = [1, PHI_EXACT]
    a = sigma(alpha, k_max)
    rho = DecaySequence([Fraction(1, 2)] * (k_max + 1))
    return alpha, a, rho


def test_strips_small_ball_misses_everything():
    alpha, a, rho = strip_setup()
    floor = min((1 - float(rho[k])) * float(a[k]) / 2 ** k for k in range(4))
    records = strip_analysis(alpha, a, rho, floor * 0.9, 3)
    assert records and not any(rec.intersects_ball for rec in records)


def test_strips_membership_precondition():
    alpha, a, rho = strip_setup()
    doubled = DecaySequence([v * 2 for v in a])
    with pytest.raises(ClassMembershipError):
        strip_analysis(alpha, doubled, rho, 0.01, 3)


def test_strips_against_sampling_and_witness_oracle():
    # soundness both ways: no sampled ball point lies in a strip marked
    # disjoint, and every strip marked intersecting contains an explicitly
    # constructed point of the ball
    alpha, a, rho = strip_setup()
    r = 0.3
    records = strip_analysis(alpha, a, rho, r, 3)
    af = np.array([1.0, PHI])
    rng = np.random.default_rng(8)
    g = rng.normal(size=(20000, 2))
    pts = af + r * rng.random((20000, 1)) ** 0.5 * g / np.linalg.norm(g, axis=1, keepdims=True)
    hit_any = False
    for rec in records:
        i = np.array(rec.index, dtype=float)
        half = float(rho[rec.k]) * float(a[rec.k])
        inside = np.abs(pts @ i) <= half
        if not rec.intersects_ball:
            assert not inside.any(), f"sample found in strip {rec.index} marked disjoint"
        else:
            hit_any = True
            # analytic witness: walk from alpha toward the strip's hyperplane
            nrm = np.linalg.norm(i)
            sgn = 1.0 if af @ i >= 0 else -1.0
            dist = max(0.0, (abs(af @ i) - half) / nrm)
            u = dist + min(r - dist, half / nrm) / 2
            x = af - sgn * u * i / nrm
            assert np.linalg.norm(x - af) < r
            assert abs(x @ i) <= half + 1e-12
    assert hit_any


def strip_records_by_loop(alpha, a, rho, r, k_max):
    """(index, k, width, intersects_ball) per strip from the per-record
    loop that the array-built `strip_analysis` replaced, on the
    box-and-mask half ball."""
    pts, rank = box_half_ball(len(alpha), 2 ** k_max, "euclidean")
    e_of_i = np.searchsorted(4 ** np.arange(k_max + 1), rank)
    dots = np.abs(pts @ np.array([float(c) for c in alpha]))
    norms = np.sqrt((pts.astype(float) ** 2).sum(axis=1))
    records = []
    for j in np.lexsort((np.arange(len(pts)), rank)):
        k = int(e_of_i[j])
        half = float(rho[k]) * float(a[k])
        dist = max(0.0, (dots[j] - half) / norms[j])
        records.append((tuple(int(c) for c in pts[j]), k,
                        float(half / norms[j]), bool(dist < r)))
    return records


def test_strip_records_match_per_record_loop():
    alpha, a, rho = strip_setup(6)
    records = strip_analysis(alpha, a, rho, 0.05, 6)
    want = strip_records_by_loop(alpha, a, rho, 0.05, 6)
    assert all(type(rec.width) is float for rec in records)
    got = [(rec.index, rec.k, rec.width.hex(), rec.intersects_ball)
           for rec in records]
    assert got == [(i, k, w.hex(), hit) for i, k, w, hit in want]
    hits = sum(rec.intersects_ball for rec in records)
    assert 0 < hits < len(records)


def test_strip_table_is_a_read_only_sequence():
    alpha, a, rho = strip_setup(3)
    table = strip_analysis(alpha, a, rho, 0.1, 3)
    assert isinstance(table, StripTable)
    records = list(table)
    assert len(table) == len(records) == len(table.k)
    assert [table[j] for j in range(len(table))] == records
    assert table[-1] == records[-1] and records[0] in table
    first = table[0]
    assert (type(first.index[0]), type(first.k), type(first.width),
            type(first.intersects_ball)) == (int, int, float, bool)
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(ValueError):
        table.width[0] = 0.0
    with pytest.raises(AttributeError):
        table.k = table.k[:1]


def test_strip_widths_and_levels():
    alpha, a, rho = strip_setup(2)
    records = strip_analysis(alpha, a, rho, 0.1, 2)
    for rec in records:
        nrm = math.hypot(*rec.index)
        # e(i) is the smallest k with ||i|| <= 2^k
        assert nrm <= 2 ** rec.k
        assert rec.k == 0 or nrm > 2 ** (rec.k - 1)
        assert rec.width == pytest.approx(float(rho[rec.k]) * float(a[rec.k]) / nrm)
    # one representative per +-pair: leading nonzero component positive
    for rec in records:
        lead = next(c for c in rec.index if c != 0)
        assert lead > 0


# --- refusals, each with the type a caller catches ----------------------------

SEQ = DecaySequence([1, Fraction(1, 2), Fraction(1, 4)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: DecaySequence([]), NonPositiveTermError, "at least one term"),
    (lambda: DecaySequence([1, -1]), NonPositiveTermError, "< 0"),
    (lambda: SEQ[3], IndexError, "beyond stored range"),
    (lambda: DecaySequence([1, 0], allow_zero=True).require_positive(),
     NonPositiveTermError, "must be positive"),
    (lambda: arithmetic._ball_rows(0, 2, "euclidean", 100),
     ShapeMismatchError, "dimension must be >= 1"),
    (lambda: SmoothMap.polynomial([]), ValueError, "at least one component"),
    (lambda: SmoothMap.polynomial([Jet.variable(0, 1, 2),
                                   Jet.variable(0, 2, 2)]),
     ShapeMismatchError, "disagree on num_vars"),
    (lambda: density_estimate(SmoothMap.identity(3), [1, PHI], SEQ, SEQ,
                              0.1, 10, 2, seed=0),
     ShapeMismatchError, "x0 has dimension 2"),
    (lambda: density_estimate(None, [1, PHI], SEQ, SEQ, 0.1, 10, 3, seed=0),
     ValueError, "shorter than k_max"),
], ids=[
    "empty-sequence", "negative-term", "index-past-k-max",
    "require-positive", "ball-rows-n-0", "polynomial-no-component",
    "polynomial-num-vars", "density-x0-dimension",
    "density-short-sequences"])
def test_arithmetic_refusals(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


def test_frequency_vector_repr_lists_its_components():
    assert repr(arithmetic.FrequencyVector([1, Fraction(3, 2)])) == \
        "FrequencyVector([Fraction(1, 1), Fraction(3, 2)])"
    assert repr(arithmetic.FrequencyVector([1.0, 0.5])) == \
        "FrequencyVector([1.0, 0.5])"
