"""Symplectic integration, frequency analysis, torus-density scans."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

from kamtori import torusverify
from kamtori.errors import BudgetExceededError, NotEllipticError
from kamtori.jets import Jet
from kamtori.poisson import SymplecticLayout
from kamtori.torusverify import (_FIXED_POINT_CAP, _FIXED_POINT_TOL, _W0,
                                 _W1, FREQ_CONVENTION, SCHEME, OrbitRecord,
                                 _integrate_batch, _midpoint_substep,
                                 _Monomials, _NewtonCache, _VectorField,
                                 classify_orbit, frequency_analysis,
                                 integrate, torus_scan)

LAY1 = SymplecticLayout(1)
LAY2 = SymplecticLayout(2)
PHI = 1.6180339887498949


def harmonic(a=0.5):
    return LAY1.monomial(a, qexp=(2,), trunc_degree=4) + \
        LAY1.monomial(a, pexp=(2,), trunc_degree=4)


def perturbed(c):
    return harmonic() + LAY1.monomial(c, qexp=(3,), trunc_degree=4)


def quartic_well():
    """H = p^2/2 + q^4/4."""
    return (LAY1.monomial(0.5, pexp=(2,), trunc_degree=4)
            + LAY1.monomial(0.25, qexp=(4,), trunc_degree=4))


def two_dof(freqs, cubic=(0.0, 0.0), coupling=0.0):
    """sum_k a_k (q_k^2 + p_k^2) + c_k q_k^3 + coupling q_1^2 q_2^2."""
    H = LAY2.zero(4, mode="float")
    for k, (a, c) in enumerate(zip(freqs, cubic)):
        e = [0, 0]
        e[k] = 2
        H = H + LAY2.monomial(a, qexp=tuple(e), trunc_degree=4)
        H = H + LAY2.monomial(a, pexp=tuple(e), trunc_degree=4)
        if c:
            e[k] = 3
            H = H + LAY2.monomial(c, qexp=tuple(e), trunc_degree=4)
    if coupling:
        H = H + LAY2.monomial(coupling, qexp=(2, 2), trunc_degree=4)
    return H


def synthetic_record(z, dt, x0=None):
    traj = np.stack([z.real, z.imag], axis=1)
    return OrbitRecord(x0=x0 or (float(z[0].real), float(z[0].imag)),
                       dt=dt, steps=len(z) - 1, scheme="exact samples",
                       trajectory=traj)


def random_jet(rng, n, terms):
    """A real polynomial jet of degree <= 4 with mixed monomials."""
    lay = SymplecticLayout(n)
    H = lay.zero(4, mode="float")
    for _ in range(terms):
        while True:
            e = rng.integers(0, 3, size=2 * n)
            if 0 < e.sum() <= 4:
                break
        H = H + lay.monomial(float(rng.uniform(-1, 1)),
                             qexp=tuple(int(v) for v in e[:n]),
                             pexp=tuple(int(v) for v in e[n:]),
                             trunc_degree=4)
    return H


def reference_substep(field, x, s):
    """Full Newton on m = x + (s/2) X_H(m) from m = x: a fresh Jacobian
    and a batched solve on every iteration, with the same cap and the
    same scaled per-row test as the integrator."""
    m = x.copy()
    half = 0.5 * s
    eye = np.eye(x.shape[1])
    for _ in range(_FIXED_POINT_CAP):
        f, df = field(m)
        step = np.linalg.solve(eye - half * df,
                               (x + half * f - m)[:, :, None])[:, :, 0]
        scale = 1.0 + np.abs(m).max(axis=1)
        m = m + step
        ok = np.abs(step).max(axis=1) <= _FIXED_POINT_TOL * scale
        if ok.all():
            break
    return 2.0 * m - x, ok


def reference_integrate(field, X0, dt, steps, escape_radius):
    """_integrate_batch's step and escape rules over reference_substep:
    full Newton on every substep, nothing kept from one to the next."""
    x = X0.copy()
    traj = [x.copy()]
    esc = np.full(len(x), -1)
    why = [None] * len(x)
    live = np.arange(len(x))
    for k in range(steps):
        xa = x[live]
        good = np.ones(len(live), dtype=bool)
        for w in (_W1, _W0, _W1):
            xa, ok = reference_substep(field, xa, w * dt)
            good &= ok
        blown = ~np.isfinite(xa).all(axis=1)
        far = np.sqrt((xa ** 2).sum(axis=1)) > escape_radius
        bad = blown | ~good | far
        x[live[~bad]] = xa[~bad]
        for j in np.flatnonzero(bad):
            esc[live[j]] = k
            why[live[j]] = ("non-finite" if blown[j] else
                            "radius" if good[j] else "fixed-point-stall")
        live = live[~bad]
        traj.append(x.copy())
    return np.stack(traj, axis=1), esc, why


class CountingField(_VectorField):
    """A vector field that counts its Jacobian and value-only passes."""

    def __init__(self, H):
        super().__init__(H)
        self.jacobians = 0
        self.velocities = 0

    def __call__(self, X):
        self.jacobians += 1
        return super().__call__(X)

    def velocity(self, X):
        self.velocities += 1
        return super().velocity(X)


# ------------------------------------------------------------- vector field

@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_monomials_match_direct_products(d):
    # every row e of a random exponent table, degree-0 rows included,
    # against prod_v x_v^e_v; the empty table gives no columns
    rng = np.random.default_rng(d)
    exps = rng.integers(0, 4, size=(9, d))
    exps[[0, 5]] = 0
    X = rng.uniform(-1.5, 1.5, size=(7, d))
    got = _Monomials(exps)(X)
    want = np.prod(X[:, None, :] ** exps[None, :, :], axis=2)
    assert got.shape == (7, 9)
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    assert (got[:, [0, 5]] == 1.0).all()
    assert _Monomials(np.zeros((0, d), dtype=np.int64))(X).shape == (7, 0)
    assert (_Monomials(np.zeros((3, d), dtype=np.int64))(X) == 1.0).all()


@pytest.mark.parametrize("n,terms", [(1, 0), (1, 5), (2, 8), (3, 10)])
def test_vector_field_matches_sympy(n, terms):
    # X_H = (dH/dp, -dH/dq) and its Jacobian against sympy derivatives of
    # the same polynomial, evaluated exactly at the float sample points
    rng = np.random.default_rng(100 * n + terms)
    H = random_jet(rng, n, terms)
    d = 2 * n
    xs = sympy.symbols(f"x0:{d}")
    h = sum((sympy.Rational(Fraction(c)) *
             sympy.prod([x ** int(k) for x, k in zip(xs, e)])
             for e, c in H.coeffs.items()), sympy.Integer(0))
    grad = [sympy.diff(h, x) for x in xs]
    xh = [grad[n + j] for j in range(n)] + [-grad[j] for j in range(n)]
    jac = [[sympy.diff(f, x) for x in xs] for f in xh]
    X = rng.uniform(-1, 1, size=(5, d))
    field = _VectorField(H)
    f, df = field(X)
    for row, x in enumerate(X):
        at = {s: sympy.Rational(Fraction(float(v))) for s, v in zip(xs, x)}
        want = np.array([float(g.subs(at)) for g in xh])
        assert np.abs(f[row] - want).max() <= 1e-13
        want_jac = np.array([[float(g.subs(at)) for g in r] for r in jac])
        assert np.abs(df[row] - want_jac).max() <= 1e-13
        assert abs(field.energy(x[None, :])[0] - float(h.subs(at))) <= 1e-13


def test_newton_midpoint_solves_the_midpoint_equation():
    # every midpoint the solve accepts satisfies m = x + (s/2) X_H(m) to
    # the solve's own scaled tolerance
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        field = _VectorField(random_jet(rng, n, 3 * n))
        x = rng.uniform(-0.8, 0.8, size=(12, 2 * n))
        for s in (0.002, 0.02, -0.03, 0.1):
            x_new, ok = _midpoint_substep(field, x, s, _NewtonCache(len(x)))
            assert ok.all()
            m = 0.5 * (x + x_new)
            resid = np.abs(m - x - 0.5 * s * field(m)[0]).max(axis=1)
            scale = 1.0 + np.abs(m).max(axis=1)
            assert (resid <= _FIXED_POINT_TOL * scale).all()


def test_simplified_newton_agrees_with_full_newton():
    # one frozen inverse per substep lands on the midpoint full Newton
    # finds, on the same random jets and sizes as above
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        field = _VectorField(random_jet(rng, n, 3 * n))
        x = rng.uniform(-0.8, 0.8, size=(12, 2 * n))
        for s in (0.002, 0.02, -0.03, 0.1):
            x_new, ok = _midpoint_substep(field, x, s, _NewtonCache(len(x)))
            want, want_ok = reference_substep(field, x, s)
            assert ok.all() and want_ok.all()
            assert np.abs(x_new - want).max() <= 1e-13


def test_refresh_when_the_frozen_inverse_does_not_contract():
    # H = p^2/2 + q^4/4 from (2, 1) at s = 2: the inverse frozen at x
    # fails to halve the update, so the Jacobian is evaluated again at
    # the current midpoint, and the solve still settles
    quartic = (LAY1.monomial(0.5, pexp=(2,), trunc_degree=4)
               + LAY1.monomial(0.25, qexp=(4,), trunc_degree=4))
    field = CountingField(quartic)
    x, s = np.array([[2.0, 1.0]]), 2.0
    x_new, ok = _midpoint_substep(field, x, s, _NewtonCache(len(x)))
    assert ok.all() and field.jacobians > 1
    m = 0.5 * (x + x_new)
    resid = np.abs(m - x - 0.5 * s * field.velocity(m)).max(axis=1)
    assert (resid <= _FIXED_POINT_TOL * (1.0 + np.abs(m).max(axis=1))).all()
    # the easy substeps of the other tests need one Jacobian only
    field.jacobians = 0
    _midpoint_substep(field, np.array([[0.5, 0.0]]), 0.1, _NewtonCache(1))
    assert field.jacobians == 1


def test_stale_kept_inverse_is_refreshed():
    # an inverse kept from (0.5, 0) no longer contracts at (2, 1) with
    # s = 2: the solve evaluates the Jacobian again, keeps the fresh
    # inverse in place of the stale one, and still lands on the midpoint
    field = CountingField(quartic_well())
    s = 2.0
    cache = _NewtonCache(1)
    _midpoint_substep(field, np.array([[0.5, 0.0]]), s, cache)
    stale = cache.inverses[s]
    field.jacobians = 0
    x = np.array([[2.0, 1.0]])
    x_new, ok = _midpoint_substep(field, x, s, cache)
    assert ok.all() and field.jacobians >= 1
    assert cache.inverses[s] is not stale
    assert not np.allclose(cache.inverses[s], stale)
    # the midpoint is within the solve's scaled tolerance of the root:
    # the full Newton correction there is that small (the residual itself
    # is up to |I - (s/2) DX_H| times larger, 2.9e-14 here)
    m = 0.5 * (x + x_new)
    f, df = field(m)
    correction = np.linalg.solve(np.eye(2) - 0.5 * s * df,
                                 (x + 0.5 * s * f - m)[:, :, None])
    assert (np.abs(correction[:, :, 0]).max(axis=1)
            <= _FIXED_POINT_TOL * (1.0 + np.abs(m).max(axis=1))).all()
    # an inverse kept at a nearby point still contracts: no Jacobian
    field.jacobians = 0
    cache = _NewtonCache(1)
    _midpoint_substep(field, np.array([[0.5, 0.0]]), 0.1, cache)
    x_new, ok = _midpoint_substep(field, np.array([[0.5, 0.01]]), 0.1, cache)
    assert ok.all() and field.jacobians == 1


def test_kept_inverses_match_full_newton_with_escapes():
    # decoupled cubic oscillators: orbits leave the escape ball at many
    # different steps, so the kept inverses lose rows along the way; the
    # trajectories, escape steps and reasons match full Newton on every
    # substep
    field = _VectorField(two_dof((0.5, 0.8), cubic=(0.5, 0.4)))
    for seed in range(3):
        X0 = np.random.default_rng(seed).uniform(-0.6, 0.6, size=(10, 4))
        traj, esc, why = _integrate_batch(field, X0, 0.05, 200, 3.0)
        want, want_esc, want_why = reference_integrate(field, X0, 0.05,
                                                       200, 3.0)
        assert len(set(esc[esc >= 0])) >= 4 and (esc < 0).any()
        assert list(esc) == list(want_esc) and list(why) == want_why
        assert np.abs(traj - want).max() <= 1e-12


def test_scan_inherits_nothing_from_an_earlier_scan():
    # the kept inverses live in one batch integration, never on the field
    H = two_dof((1.0, PHI), coupling=0.05)
    alone = torus_scan(H, 0.25, 6, seed=4, steps=512, windows=2)
    torus_scan(H, 0.5, 9, seed=5, steps=512, windows=2)
    after = torus_scan(H, 0.25, 6, seed=4, steps=512, windows=2)
    for a, b in zip(alone.records, after.records):
        assert (a.trajectory == b.trajectory).all()
        assert a.to_json_dict() == b.to_json_dict()
    # nor does a batch integration inherit from an earlier one on the
    # same field: each starts by evaluating its own two Jacobians
    field = CountingField(two_dof((1.0, PHI), coupling=1.0))
    X0 = np.array([[0.6, -0.3, 0.2, 0.4], [0.3, 0.5, -0.6, 0.0]])
    first = _integrate_batch(field, X0, 0.02, 300, np.inf)[0]
    _integrate_batch(field, -1.5 * X0, 0.02, 300, np.inf)
    field.jacobians = 0
    assert (_integrate_batch(field, X0, 0.02, 300, np.inf)[0]
            == first).all()
    assert field.jacobians == 2


def test_scan_inverts_once_per_substep_size(monkeypatch):
    # the triple jump has two substep sizes; on a smooth scan no kept
    # inverse needs a refresh, so the whole scan inverts twice
    calls = []
    real = torusverify._invert_rows

    def counting(A):
        calls.append(len(A))
        return real(A)

    monkeypatch.setattr(torusverify, "_invert_rows", counting)
    for H in (two_dof((1.0, PHI)), two_dof((1.0, PHI), coupling=0.05)):
        calls.clear()
        rep = torus_scan(H, 0.25, 16, seed=2, steps=1024, windows=2)
        assert rep.fraction == 1.0
        assert calls == [16, 16]


def test_singular_newton_system_spoils_only_its_own_orbit():
    # H = q p^2 / 2: I - (s/2) DX_H is singular where p = +-1 at s = 2;
    # that orbit gets non-finite values, the others solve as alone
    H = LAY1.monomial(0.5, qexp=(1,), pexp=(2,), trunc_degree=4)
    field = _VectorField(H)
    x = np.array([[0.3, 0.2], [0.3, 1.0], [-0.1, 0.05]])
    x_new, ok = _midpoint_substep(field, x, 2.0, _NewtonCache(len(x)))
    assert not ok[1] and np.isnan(x_new[1]).all()
    for i in (0, 2):
        alone, ok_alone = _midpoint_substep(field, x[i:i + 1], 2.0,
                                            _NewtonCache(1))
        assert ok[i] and ok_alone[0]
        assert np.allclose(x_new[i], alone[0], rtol=0, atol=1e-14)


def test_escape_reasons_from_the_batch_integrator():
    # H = p (3q - q^3 - 2): at substep size 2 the q-equation of the
    # midpoint solve is Newton on q^3 - 2q + 2 from q = 0, which cycles
    # 0 -> 1 -> 0 and never settles
    cycle = (LAY1.monomial(3.0, qexp=(1,), pexp=(1,), trunc_degree=4)
             + LAY1.monomial(-1.0, qexp=(3,), pexp=(1,), trunc_degree=4)
             + LAY1.monomial(-2.0, pexp=(1,), trunc_degree=4))
    traj, esc, why = _integrate_batch(_VectorField(cycle),
                                      np.array([[0.0, 0.5]]), 2.0 / _W1, 3,
                                      np.inf)
    assert list(why) == ["fixed-point-stall"] and list(esc) == [0]
    assert (traj[0] == traj[0, 0]).all()
    # q^3 overflows at q = 1e120: the step is non-finite
    quartic = (LAY1.monomial(0.5, pexp=(2,), trunc_degree=4)
               + LAY1.monomial(0.25, qexp=(4,), trunc_degree=4))
    X0 = np.array([[1e120, 0.0], [0.5, 0.0]])
    traj, esc, why = _integrate_batch(_VectorField(quartic), X0, 0.01, 5,
                                      np.inf)
    assert list(why) == ["non-finite", None] and list(esc) == [0, -1]
    assert np.isfinite(traj).all()


# --------------------------------------------- frozen solve, bit for bit

class FrozenMonomials:
    """_Monomials.__call__ kept as a reference: a (K, top degree) table of
    factor columns, gathered into (S, K, top degree) and multiplied
    through ndarray.prod over the last axis."""

    def __init__(self, monomials):
        self.index = np.ascontiguousarray(monomials.index.T)

    def __call__(self, X):
        S, d = X.shape
        ones_x = np.empty((S, d + 1))
        ones_x[:, 0] = 1.0
        ones_x[:, 1:] = X
        return ones_x[:, self.index].prod(axis=2)


def frozen_field(H):
    """A CountingField of H that evaluates through FrozenMonomials."""
    field = CountingField(H)
    field.monomials = FrozenMonomials(field.monomials)
    field.h_monomials = FrozenMonomials(field.h_monomials)
    return field


def frozen_substep(field, x, s, cache):
    """_midpoint_substep kept as a reference: the per-row test on every
    pass, reductions through ndarray methods.  The tolerance and the cap
    are read from the module at call time, so a monkeypatch reaches both
    this and the integrator."""
    half = 0.5 * s
    inv = cache.inverses.get(s)
    if inv is None:
        f, inv = torusverify._newton_inverse(field, x, half)
    else:
        f = field.velocity(x)
    m = x
    last = np.inf
    for _ in range(torusverify._FIXED_POINT_CAP):
        step = (inv @ (x + half * f - m)[:, :, None])[:, :, 0]
        size = np.abs(step)
        largest = size.max()
        if largest <= torusverify._FIXED_POINT_TOL:
            m = m + step
            ok = cache.settled
            break
        scale = 1.0 + np.abs(m).max(axis=1)
        ok = size.max(axis=1) <= torusverify._FIXED_POINT_TOL * scale
        m = m + step
        if ok.all():
            break
        if not np.isfinite(largest) or largest > 0.5 * last:
            f, inv = torusverify._newton_inverse(field, m, half)
        else:
            f = field.velocity(m)
        last = largest
    cache.inverses[s] = inv
    return 2.0 * m - x, ok


def compare_substep(field, frozen, x, s, cache, exits):
    """_midpoint_substep on field and cache against frozen_substep on
    frozen and a copy of cache: the same midpoint bits, flags, kept
    inverses, exit and pass counts.  Counts the exit in exits: "batch"
    (the batch-wide test), "row" (the per-row test) or "cap"."""
    copy = _NewtonCache(0)
    copy.inverses, copy.settled = dict(cache.inverses), cache.settled
    counts = (field.jacobians, field.velocities)
    frozen_counts = (frozen.jacobians, frozen.velocities)
    want, want_ok = frozen_substep(frozen, x, s, copy)
    got, ok = _midpoint_substep(field, x, s, cache)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(ok, want_ok)
    assert (ok is cache.settled) == (want_ok is cache.settled)
    assert cache.inverses.keys() == copy.inverses.keys()
    for key, inv in cache.inverses.items():
        assert np.array_equal(inv, copy.inverses[key], equal_nan=True)
    assert (field.jacobians - counts[0], field.velocities - counts[1]) == \
        (frozen.jacobians - frozen_counts[0],
         frozen.velocities - frozen_counts[1])
    exits["batch" if ok is cache.settled else "row" if ok.all() else
          "cap"] += 1
    return got, ok


def compare_batch(H, X0, dt, steps, escape_radius, exits):
    """_integrate_batch with every substep checked by compare_substep."""
    field, frozen = CountingField(H), frozen_field(H)

    def checked(field, x, s, cache):
        return compare_substep(field, frozen, x, s, cache, exits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torusverify, "_midpoint_substep", checked)
        return _integrate_batch(field, X0, dt, steps, escape_radius)


def scan_starts(r, samples, seed):
    return torusverify._sample_ball(np.random.Generator(np.random.Philox(
        seed)), samples, 4, r)


BENCH_SCANS = ((two_dof((1.0, PHI)), 0.5),
               (two_dof((1.0, PHI), coupling=0.05), 0.25))


@pytest.mark.parametrize("tol,cap", [(_FIXED_POINT_TOL, _FIXED_POINT_CAP),
                                     (1e-9, 3)])
def test_midpoint_substep_matches_the_frozen_solve(monkeypatch, tol, cap):
    # bit for bit on every substep of the solve's hard and easy cases, at
    # the module's tolerance and cap and at a loose tolerance with a cap
    # of 3, where the per-row test and the cap both decide exits
    monkeypatch.setattr(torusverify, "_FIXED_POINT_TOL", tol)
    monkeypatch.setattr(torusverify, "_FIXED_POINT_CAP", cap)
    exits = {"batch": 0, "row": 0, "cap": 0}
    # the random jets of test_newton_midpoint_solves_the_midpoint_equation,
    # each size twice: a fresh inverse, then the kept one
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        H = random_jet(rng, n, 3 * n)
        field, frozen = CountingField(H), frozen_field(H)
        x = rng.uniform(-0.8, 0.8, size=(12, 2 * n))
        for s in (0.002, 0.02, -0.03, 0.1):
            cache = _NewtonCache(len(x))
            x_new, _ = compare_substep(field, frozen, x, s, cache, exits)
            compare_substep(field, frozen, x_new, s, cache, exits)
    # the singular Newton system of H = q p^2 / 2 at s = 2
    H = LAY1.monomial(0.5, qexp=(1,), pexp=(2,), trunc_degree=4)
    x = np.array([[0.3, 0.2], [0.3, 1.0], [-0.1, 0.05]])
    with np.errstate(over="ignore", invalid="ignore"):
        compare_substep(CountingField(H), frozen_field(H), x, 2.0,
                        _NewtonCache(len(x)), exits)
    # H = p^4 + q p^3 + (q^2 - p^2) / 2 from (0, 1e120), with the inverse
    # kept from (0.1, 0.2): the first update is (inf, -inf), no NaN, and
    # must count as non-finite although the last update (none) is inf
    H = (LAY1.monomial(1.0, pexp=(4,), trunc_degree=4)
         + LAY1.monomial(1.0, qexp=(1,), pexp=(3,), trunc_degree=4)
         + LAY1.monomial(0.5, qexp=(2,), trunc_degree=4)
         + LAY1.monomial(-0.5, pexp=(2,), trunc_degree=4))
    field, frozen, cache = CountingField(H), frozen_field(H), _NewtonCache(1)
    compare_substep(field, frozen, np.array([[0.1, 0.2]]), 0.01, cache,
                    exits)
    with np.errstate(over="ignore", invalid="ignore"):
        compare_substep(field, frozen, np.array([[0.0, 1e120]]), 0.01,
                        cache, exits)
    # both benchmark Hamiltonians
    for H, r in BENCH_SCANS:
        compare_batch(H, scan_starts(r, 16, 5), 0.02, 100, 10 * r, exits)
    # the escaping cubic batches, the cycling stall and the overflow of
    # test_kept_inverses_match_full_newton_with_escapes and
    # test_escape_reasons_from_the_batch_integrator
    cubic = two_dof((0.5, 0.8), cubic=(0.5, 0.4))
    for seed in range(3):
        X0 = np.random.default_rng(seed).uniform(-0.6, 0.6, size=(10, 4))
        compare_batch(cubic, X0, 0.05, 200, 3.0, exits)
    cycle = (LAY1.monomial(3.0, qexp=(1,), pexp=(1,), trunc_degree=4)
             + LAY1.monomial(-1.0, qexp=(3,), pexp=(1,), trunc_degree=4)
             + LAY1.monomial(-2.0, pexp=(1,), trunc_degree=4))
    compare_batch(cycle, np.array([[0.0, 0.5]]), 2.0 / _W1, 3, np.inf,
                  exits)
    compare_batch(quartic_well(), np.array([[1e120, 0.0], [0.5, 0.0]]),
                  0.01, 5, np.inf, exits)
    assert exits["row"] >= 1 and exits["cap"] >= 1


@pytest.mark.parametrize("H,r", BENCH_SCANS)
def test_batch_integration_matches_the_frozen_solve(monkeypatch, H, r):
    # whole trajectories, escapes and energy drifts of a benchmark-sized
    # scan batch (16 orbits, 2048 steps) over the frozen solve and the
    # frozen monomials, bit for bit
    X0 = scan_starts(r, 16, 9)
    frozen = frozen_field(H)
    with monkeypatch.context() as mp:
        mp.setattr(torusverify, "_midpoint_substep", frozen_substep)
        want = _integrate_batch(frozen, X0, 0.02, 2048, 10 * r)
    field = CountingField(H)
    got = _integrate_batch(field, X0, 0.02, 2048, 10 * r)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert (field.jacobians, field.velocities) == \
        (frozen.jacobians, frozen.velocities)
    assert np.array_equal(torusverify._relative_drift(field, got[0]),
                          torusverify._relative_drift(frozen, want[0]))


# ------------------------------------------------------------------ integrate

def test_harmonic_oscillator_energy_roundoff():
    # the scheme conserves quadratic energies up to roundoff; the circle
    # H = (q^2+p^2)/2 from (1,0) stays on its energy level.
    rec = integrate(harmonic(), (1.0, 0.0), 1e-3, 10_000)
    assert not rec.escaped and rec.escape_reason is None
    assert rec.energy_drift <= 1e-10
    assert rec.scheme == SCHEME
    radii = np.sqrt((rec.trajectory ** 2).sum(axis=1))
    assert abs(radii - 1.0).max() <= 1e-9


def test_zero_hamiltonian_is_a_fixed_point():
    H0 = LAY1.zero(4, mode="float")
    rec = integrate(H0, (0.3, 0.4), 1e-2, 300)
    assert (rec.trajectory == rec.trajectory[0]).all()
    assert rec.energy_drift == 0.0
    assert classify_orbit(rec, windows=2).classification == "undecided"


def test_linear_flow_calibration():
    # H = sum alpha_j (q_j^2 + p_j^2), alpha = (1, phi): z_j rotates at
    # omega_j = -2 alpha_j; the analysis recovers the ratio to 1e-6.
    H = (LAY2.monomial(1.0, qexp=(2, 0), trunc_degree=4) +
         LAY2.monomial(1.0, pexp=(2, 0), trunc_degree=4) +
         LAY2.monomial(PHI, qexp=(0, 2), trunc_degree=4) +
         LAY2.monomial(PHI, pexp=(0, 2), trunc_degree=4))
    rec = integrate(H, (0.5, 0.4, -0.3, 0.2), 0.02, 4096)
    fa = frequency_analysis(rec, windows=2)
    w1, w2 = fa.frequencies[0]
    assert abs(w1 - (-2.0)) <= 1e-9
    assert abs(w2 - (-2.0 * PHI)) <= 1e-9
    assert abs(abs(w2 / w1) - PHI) / PHI <= 1e-6
    assert fa.stability <= 1e-10


def test_step_size_sanity_check():
    with pytest.raises(ValueError, match="sanity"):
        integrate(harmonic(), (1.0, 0.0), 3.0, 10)


def test_scan_step_size_sanity_check():
    # the Newton midpoint solve converges on steps far too coarse for the
    # flow, so the scan must refuse them up front, as integrate does
    quartic = harmonic() + LAY1.monomial(1.0, qexp=(4,), trunc_degree=4)
    with pytest.raises(ValueError, match="sanity"):
        torus_scan(quartic, 0.5, 4, seed=1, dt=5.0, steps=16)


def test_escape_is_reported_not_raised():
    # hyperbolic H = qp grows exponentially: the orbit leaves the escape
    # ball and is frozen there, classified chaotic/escaping.
    H = LAY1.monomial(1.0, qexp=(1,), pexp=(1,), trunc_degree=4)
    rec = integrate(H, (0.5, 0.5), 0.01, 400, escape_radius=3.0)
    assert rec.escaped and rec.escape_step is not None
    assert rec.escape_reason == "radius"
    assert classify_orbit(rec, windows=2).classification == \
        "chaotic/escaping"
    radii = np.sqrt((rec.trajectory ** 2).sum(axis=1))
    assert radii.max() <= 3.0 + 1e-9


def test_escaped_orbit_is_not_frequency_analysed(monkeypatch):
    # the orbit is frozen from escape_step on, so its windows would hold a
    # constant tail: the record carries no frequencies and no stability,
    # and the window length is still checked
    H = LAY1.monomial(1.0, qexp=(1,), pexp=(1,), trunc_degree=4)
    rec = integrate(H, (0.5, 0.5), 0.01, 400, escape_radius=3.0)
    assert rec.escaped

    def no_analysis(orbit, windows=4):
        raise AssertionError("an escaped orbit was analysed")

    monkeypatch.setattr(torusverify, "frequency_analysis", no_analysis)
    out = classify_orbit(rec, windows=2)
    assert out.classification == "chaotic/escaping"
    assert out.window_frequencies is None and out.stability is None
    with pytest.raises(ValueError, match="windows"):
        classify_orbit(rec, windows=1)
    with pytest.raises(ValueError, match="64"):
        classify_orbit(rec, windows=16)


def test_integrate_escape_radius():
    # H = qp grows like e^t from (0.5, 0.5): radius 3 is passed at step
    # 179; np.inf never escapes by radius; NaN, zero and negative radii
    # are refused instead of never escaping or escaping at step 0
    H = LAY1.monomial(1.0, qexp=(1,), pexp=(1,), trunc_degree=4)
    rec = integrate(H, (0.5, 0.5), 0.01, 400, escape_radius=3.0)
    assert (rec.escape_step, rec.escape_reason) == (179, "radius")
    rec = integrate(H, (0.5, 0.5), 0.01, 400, escape_radius=np.inf)
    assert not rec.escaped and rec.escape_reason is None
    assert np.sqrt((rec.trajectory[-1] ** 2).sum()) > 27
    for bad in (float("nan"), -1.0, 0.0):
        with pytest.raises(ValueError, match="escape_radius"):
            integrate(H, (0.5, 0.5), 0.01, 400, escape_radius=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_integrate_refuses_a_non_finite_start(bad):
    # such a start used to come back as a "non-finite" escape at step 0,
    # bad input reported as dynamics, with RuntimeWarnings from the step
    # check and the drift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x0 must be finite"):
            integrate(harmonic(), (bad, 0.0), 0.01, 10)
        with pytest.raises(ValueError, match="x0 must be finite"):
            integrate(two_dof((1.0, PHI)), (0.1, 0.2, 0.0, bad), 0.01, 10)


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(harmonic(), (1.0, 0.0, 0.0), 1e-3, 10)
    with pytest.raises(ValueError):
        integrate(harmonic(), (1.0, 0.0), -1e-3, 10)
    with pytest.raises(ValueError, match="finite and positive"):
        integrate(harmonic(), (1.0, 0.0), float("nan"), 10)
    with pytest.raises(ValueError):
        # complex coefficients are not a real Hamiltonian
        H = LAY1.monomial(1j, qexp=(2,), trunc_degree=4)
        integrate(H, (1.0, 0.0), 1e-3, 10)


# --------------------------------------------------------- frequency analysis

def test_pure_rotation_recovery():
    dt = 0.02
    t = np.arange(4096) * dt
    rec = synthetic_record(0.7 * np.exp(-1.3j * t), dt)
    fa = frequency_analysis(rec, windows=4)
    for fw in fa.frequencies:
        assert abs(fw[0] - (-1.3)) / 1.3 <= 1e-6
    assert fa.stability <= 1e-10
    assert not fa.degenerate


def test_constant_signal_undecided():
    rec = synthetic_record(np.full(600, 0.25 + 0.25j), 0.02)
    fa = frequency_analysis(rec, windows=2)
    assert fa.degenerate and fa.stability is None
    assert classify_orbit(rec, windows=2).classification == "undecided"


def test_two_tone_dominance():
    # dominant peak follows the larger amplitude, not the mean frequency
    dt = 0.02
    t = np.arange(4096) * dt
    z = np.exp(-1.0j * t) + 0.3 * np.exp(-2.3j * t)
    fa = frequency_analysis(synthetic_record(z, dt), windows=4)
    for fw in fa.frequencies:
        assert abs(fw[0] - (-1.0)) <= 1e-3


def test_window_validation():
    dt = 0.02
    rec = synthetic_record(np.exp(-1j * np.arange(512) * dt), dt)
    with pytest.raises(ValueError, match="windows"):
        frequency_analysis(rec, windows=1)
    with pytest.raises(ValueError, match="64"):
        frequency_analysis(rec, windows=16)


def test_classification_is_pure():
    rec = integrate(harmonic(), (0.7, 0.0), 0.02, 512)
    a = classify_orbit(rec, windows=2)
    b = classify_orbit(rec, windows=2)
    assert a.classification == b.classification == "torus-like"
    assert a.window_frequencies == b.window_frequencies
    # thresholds change the verdict, not the record
    strict = classify_orbit(rec, windows=2, tol_freq=1e-16)
    assert strict.classification == "chaotic/escaping"
    assert rec.classification == "undecided"  # original untouched


# ----------------------------------------------------------------------- scan

def test_scan_integrable_everything_on_tori():
    rep = torus_scan(harmonic(), 0.5, 20, seed=7, steps=1024)
    assert rep.fraction == 1.0
    assert rep.counts()["torus-like"] == 20
    assert rep.alpha == (0.5,)
    assert 0.0 <= rep.fraction <= 1.0


def test_scan_monotone_in_perturbation_and_radius():
    # Observed fractions at seed 11, 15 samples: 1.0 (c=0.4, r=0.3),
    # 11/15 (c=0.4, r=0.55), 1/15 (c=1.0, r=0.55).  The trend is the
    # assertion; the bands absorb platform rounding.
    f_small_r = torus_scan(perturbed(0.4), 0.3, 15, seed=11).fraction
    f_weak = torus_scan(perturbed(0.4), 0.55, 15, seed=11).fraction
    f_strong = torus_scan(perturbed(1.0), 0.55, 15, seed=11).fraction
    assert f_small_r == 1.0
    assert 0.5 <= f_weak <= 0.95
    assert f_strong <= 0.35
    assert f_small_r >= f_weak > f_strong


def test_scan_seed_reproducible():
    a = torus_scan(perturbed(0.4), 0.4, 8, seed=3, steps=1024)
    b = torus_scan(perturbed(0.4), 0.4, 8, seed=3, steps=1024)
    assert [r.x0 for r in a.records] == [r.x0 for r in b.records]
    assert a.fraction == b.fraction


def test_scan_validation():
    with pytest.raises(ValueError):
        torus_scan(harmonic(), 0.5, 0)
    with pytest.raises(ValueError):
        torus_scan(harmonic(), -0.5, 4)
    with pytest.raises(NotEllipticError):
        torus_scan(LAY1.monomial(1.0, qexp=(3,), trunc_degree=4), 0.5, 4)


def no_integration(*args, **kwargs):
    raise AssertionError("the scan integrated before checking its inputs")


@pytest.mark.parametrize("kwargs", [
    {"dt": -0.02}, {"dt": 0.0}, {"dt": float("nan")}, {"dt": float("inf")},
    {"r": float("nan")}, {"r": 0.0}, {"escape_factor": 0.0},
    {"escape_factor": -10.0}, {"escape_factor": float("nan")}])
def test_scan_rejects_nonsense_parameters(monkeypatch, kwargs):
    # each of these used to come back as dynamics: a negative step gave
    # omega ~ -1.752 for -1, a zero step undecided orbits, NaN a
    # "non-finite" escape, escape_factor <= 0 an escape at step 0
    monkeypatch.setattr(torusverify, "_integrate_batch", no_integration)
    kwargs = dict(kwargs)
    r = kwargs.pop("r", 0.5)
    with pytest.raises(ValueError, match="finite and positive"):
        torus_scan(harmonic(), r, 4, steps=256, **kwargs)


@pytest.mark.parametrize("windows,match", [(1, "2 windows"), (20, "64")])
def test_scan_checks_windows_before_integrating(monkeypatch, windows, match):
    # classify_orbit would refuse these windows only after the whole
    # batch was integrated
    monkeypatch.setattr(torusverify, "_integrate_batch", no_integration)
    with pytest.raises(ValueError, match=match):
        torus_scan(harmonic(), 0.5, 4, steps=1024, windows=windows)


def test_scan_memory_is_bounded_before_sampling(monkeypatch):
    # 100 000 orbits of 8193 points in 4 coordinates would take 26 GB
    monkeypatch.setattr(torusverify, "_integrate_batch", no_integration)
    monkeypatch.setattr(torusverify, "_sample_ball", no_integration)
    with pytest.raises(BudgetExceededError, match="GiB"):
        torus_scan(two_dof((1.0, PHI)), 0.5, 100_000, steps=8192)
    monkeypatch.undo()
    # the limit is inclusive: 3 orbits of 1025 points in 2 coordinates
    monkeypatch.setattr(torusverify, "_SCAN_BYTES_LIMIT", 3 * 1025 * 2 * 8)
    assert torus_scan(harmonic(), 0.3, 3, steps=1024).fraction == 1.0
    with pytest.raises(BudgetExceededError):
        torus_scan(harmonic(), 0.3, 4, steps=1024)


def test_report_serialization():
    rep = torus_scan(harmonic(), 0.3, 3, seed=1, steps=1024)
    d = rep.to_json_dict()
    json.dumps(d)
    assert d["fraction_torus_like"] == rep.fraction
    assert d["scheme"] == SCHEME and d["convention"] == FREQ_CONVENTION
    header, rows = rep.csv_rows()
    assert header[:2] == ["x0_0", "x0_1"]
    assert header[-1] == "classification"
    assert len(rows) == 3 and rows[0][-1] == "torus-like"
    assert rep.records[0].to_json_dict()["escape_reason"] is None
    json.dumps(rep.records[0].to_json_dict())


@pytest.mark.parametrize("H, steps, message", [
    (Jet(3, 4, {(2, 0, 0): 1.0}), 10, "even number of variables"),
    (harmonic(), 0, "steps >= 1"),
])
def test_integrate_refusals(H, steps, message):
    with pytest.raises(ValueError, match=message):
        integrate(H, (1.0,) + (0.0,) * (H.num_vars - 1), 0.01, steps)
