"""Numerical survey of invariant-torus density near an elliptic point.

The symbolic machinery certifies normal forms; this module checks the
dynamical picture they predict.  It integrates the Hamiltonian flow with
a symplectic one-step scheme, estimates per-mode rotation frequencies by
windowed Fourier analysis of z_j = q_j + i p_j, classifies each orbit as
torus-like, chaotic/escaping, or undecided, and measures the torus-like
fraction over samples of a shrinking ball around the origin.  Everything
here is empirical: a high fraction is evidence, never a certificate.

Conventions (recorded in every report): the integrator is the
triple-jump composition of the implicit midpoint rule (order 4,
symplectic, exactly energy-conserving on quadratic Hamiltonians up to
roundoff, since each midpoint substep is); frequencies are signed
angular rates of z_j = q_j + i p_j per unit time, de-biased for the
scheme's known phase response, so H = a (q_j^2 + p_j^2) rotates z_j at
omega_j = -2 a.

Each midpoint substep solves m = x + (s/2) X_H(m) by simplified Newton
(Hairer, Lubich and Wanner, Geometric Numerical Integration, VIII.6):
an iteration costs one X_H pass and one batched matmul with a frozen
inverse of I - (s/2) DX_H.  One batch integration keeps that inverse
across steps, one per substep size (the triple jump has two, w1 dt and
w0 dt): it is evaluated and inverted on the first substep of each size
and reused after that.  Where the batch's largest update is non-finite
or fails to halve the one before, the Jacobian is evaluated and
inverted again at the current midpoint and replaces the kept inverse,
so a hard solve, or an inverse gone stale, falls back to full Newton.
The kept inverses belong to one batch and lose their rows with the
orbits that escape, so no scan inherits another's.  X_H and its
Jacobian are compiled from H once, as one coefficient matrix over one
table of monomials.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .birkhoff import REAL_ELLIPTIC, EllipticHamiltonian
from .errors import BudgetExceededError
from .jets import _to_float, to_jsonable

SCHEME = "triple-jump composition of implicit midpoint (order 4, symplectic)"
FREQ_CONVENTION = ("signed angular frequency of z_j = q_j + i p_j, "
                   "de-biased for the scheme phase response; "
                   "H = a (q_j^2 + p_j^2) rotates z_j at omega_j = -2 a")

_FIXED_POINT_TOL = 1e-14
_FIXED_POINT_CAP = 50
# triple-jump substep weights: (w1, w0, w1) with w1 = 1/(2 - 2^(1/3))
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# a scan holds samples x (steps + 1) x d float64 trajectory values; the
# largest criterion-10 scan (200 orbits, 8192 steps, d = 4) holds 52 MB
_SCAN_BYTES_LIMIT = 2 ** 30


# ------------------------------------------------------------ polynomial data

def _real_coeff(c):
    """A real jet coefficient as a float; a jet's complex values are never
    real, so they are refused."""
    c = _to_float(c)
    if isinstance(c, complex):
        raise ValueError("Hamiltonian must have real coefficients")
    return c


def _poly_data(H):
    """Exponent matrix and float coefficients of a real polynomial jet."""
    if H.num_vars % 2:
        raise ValueError("phase space needs an even number of variables")
    items = sorted(H.coeffs.items())
    exps = np.array([i for i, _ in items], dtype=np.int64).reshape(
        len(items), H.num_vars)
    coeffs = np.array([_real_coeff(c) for _, c in items], dtype=float)
    return exps, coeffs


class _Monomials:
    """Values of x^e for every row e of an exponent table, on batches.

    Row e becomes the column list of its factors in [1, x]: variable v
    e_v times, padded with the column of ones to the table's top degree.
    index holds those lists as its columns, so an evaluation is one fill
    of [1, x], one gather into (S, top degree, K) and one product over
    the middle axis, factor by factor in list order.
    """

    def __init__(self, exps):
        K, d = exps.shape
        top = int(exps.sum(axis=1).max(initial=0))
        self.index = np.zeros((top, K), dtype=np.intp)
        for r, e in enumerate(exps):
            cols = np.repeat(np.arange(1, d + 1), e)
            self.index[:len(cols), r] = cols

    def __call__(self, X):
        S, d = X.shape
        ones_x = np.empty((S, d + 1))
        ones_x[:, 0] = 1.0
        ones_x[:, 1:] = X
        return np.multiply.reduce(ones_x[:, self.index], axis=1)


class _VectorField:
    """dq/dt = dH/dp, dp/dt = -dH/dq and its Jacobian, compiled once.

    Every monomial of X_H and of its Jacobian is a row of one exponent
    table, and one (K, d + d*d) coefficient matrix over that table holds
    X_H and then its Jacobian, so an evaluation is one monomial pass and
    one matmul; velocity() is the same pass times X_H's columns alone.
    The energy keeps H's own (shorter) table, because it runs over whole
    trajectories.
    """

    def __init__(self, H):
        h_exps, self.h_coeffs = _poly_data(H)
        self.d = d = H.num_vars
        self.n = n = d // 2
        self.h_monomials = _Monomials(h_exps)
        xh = ([H.derivative(n + j) for j in range(n)]
              + [-H.derivative(j) for j in range(n)])
        parts = xh + [f.derivative(u) for f in xh for u in range(d)]
        rows = sorted({e for part in parts for e in part.coeffs})
        index = {e: r for r, e in enumerate(rows)}
        self.table = np.zeros((len(rows), len(parts)))
        for col, part in enumerate(parts):
            for e, c in part.coeffs.items():
                self.table[index[e], col] = _real_coeff(c)
        self.monomials = _Monomials(
            np.array(rows, dtype=np.int64).reshape(len(rows), d))
        self.velocity_table = np.ascontiguousarray(self.table[:, :d])

    def __call__(self, X):
        """X_H at the rows of X, and its Jacobian as an (S, d, d) array."""
        out = self.monomials(X) @ self.table
        d = self.d
        return out[:, :d], out[:, d:].reshape(len(X), d, d)

    def velocity(self, X):
        """X_H alone at the rows of X."""
        return self.monomials(X) @ self.velocity_table

    def energy(self, X):
        return self.h_monomials(X) @ self.h_coeffs


# ----------------------------------------------------------------- integrator

def _invert_rows(A):
    """The inverse of every A[i]; NaN where A[i] is singular."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        out = np.full_like(A, np.nan)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.inv(A[i])
            except np.linalg.LinAlgError:
                pass
        return out


class _NewtonCache:
    """The frozen Newton inverses of one batch, kept across steps.

    inverses maps a substep size s to the inverse of I - (s/2) DX_H last
    used at that size, one row per orbit of the batch; settled is the
    read-only all-True flag vector that a substep returns when its whole
    batch converged.  keep() drops rows together with their orbits, so a
    row always belongs to the orbit it was computed for.
    """

    def __init__(self, rows):
        self.inverses = {}
        self.settled = np.ones(rows, dtype=bool)
        self.settled.flags.writeable = False

    def keep(self, rows):
        self.inverses = {s: inv[rows] for s, inv in self.inverses.items()}
        self.settled = self.settled[rows]


def _newton_inverse(field, m, half):
    """X_H at the rows of m and the inverse of I - half DX_H at each."""
    f, df = field(m)
    return f, _invert_rows(np.eye(m.shape[1]) - half * df)


def _midpoint_substep(field, x, s, cache):
    """One implicit midpoint substep of size s on a batch.

    Solves m = x + (s/2) X_H(m) by simplified Newton from m = x: each
    iteration costs one X_H pass and one batched matmul with a frozen
    inverse of I - (s/2) DX_H.  The inverse is the one cache holds for
    size s, else it is evaluated and inverted at x.  Where the batch's
    largest update is non-finite or fails to halve the one before, the
    Jacobian is re-evaluated at the current m and inverted again, so a
    hard solve (or a stale inverse) falls back to full Newton.  The
    inverse last used goes back into cache (a _NewtonCache whose rows are
    the rows of x).  A row is accepted on the size of its last update, at
    most _FIXED_POINT_TOL times its scale 1 + max |m_j|, not on the
    residual of m = x + (s/2) X_H(m): after a refresh mid-solve that
    residual can exceed the tolerance slightly.  The per-row test runs
    only on the last pass or where the largest update is at most
    _FIXED_POINT_TOL (1 + max |m|) over the batch; no row passes above
    that.  Returns (x_new, ok): ok is False where the update failed to
    settle within the cap (the orbit has left the scheme's regime).
    """
    half = 0.5 * s
    inv = cache.inverses.get(s)
    if inv is None:
        f, inv = _newton_inverse(field, x, half)
    else:
        f = field.velocity(x)
    m = x
    last = np.inf
    for left in range(_FIXED_POINT_CAP, 0, -1):
        step = np.matmul(inv, (x + half * f - m)[:, :, None])[:, :, 0]
        size = np.abs(step)
        largest = float(np.maximum.reduce(size, axis=None))
        if largest <= _FIXED_POINT_TOL:     # every row's scale is >= 1
            m = m + step
            ok = cache.settled
            break
        mag = np.abs(m)
        m = m + step
        top = float(np.maximum.reduce(mag, axis=None))
        if largest <= _FIXED_POINT_TOL * (1.0 + top) or left == 1:
            ok = np.maximum.reduce(size, axis=1) <= _FIXED_POINT_TOL * (
                1.0 + np.maximum.reduce(mag, axis=1))
            if np.logical_and.reduce(ok):
                break
        if not math.isfinite(largest) or largest > 0.5 * last:
            f, inv = _newton_inverse(field, m, half)
        else:
            f = field.velocity(m)
        last = largest
    cache.inverses[s] = inv
    return 2.0 * m - x, ok


def _integrate_batch(field, X0, dt, steps, escape_radius):
    """Triple-jump midpoint flow of a batch of initial conditions.

    Each step composes three implicit midpoint substeps of sizes
    (w1 dt, w0 dt, w1 dt), all drawing on one _NewtonCache that lives as
    long as this call.  Escaped orbits are frozen at their last point,
    and their kept inverse rows dropped, so the rest of the batch keeps
    integrating.  Returns the trajectory array (S, steps+1, d), the
    per-orbit escape step (-1 if the orbit stayed in) and the per-orbit
    escape reason (None if it stayed in):
    "non-finite" for a step with non-finite values, else
    "fixed-point-stall" for a substep solve that did not settle, else
    "radius" for a step past escape_radius.
    """
    S, d = X0.shape
    traj = np.empty((S, steps + 1, d))
    x = np.array(X0, dtype=float)
    traj[:, 0] = x
    escape_step = np.full(S, -1, dtype=np.int64)
    escape_reason = np.full(S, None, dtype=object)
    live = np.arange(S)
    cache = _NewtonCache(S)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            if len(live):
                xa = x if len(live) == S else x[live]
                x_new = xa
                good = True
                for w in (_W1, _W0, _W1):
                    x_new, ok = _midpoint_substep(field, x_new, w * dt,
                                                  cache)
                    good = good & ok
                blown = ~np.isfinite(x_new).all(axis=1)
                far = np.sqrt((x_new ** 2).sum(axis=1)) > escape_radius
                bad = blown | ~good | far
                if len(live) == S and not bad.any():
                    x = x_new
                else:
                    x_new[bad] = xa[bad]
                    x[live] = x_new
                    newly = live[bad]
                    escape_step[newly] = k
                    escape_reason[newly] = np.where(
                        blown[bad], "non-finite",
                        np.where(good[bad], "radius", "fixed-point-stall"))
                    live = live[~bad]
                    cache.keep(~bad)
            traj[:, k + 1] = x
    return traj, escape_step, escape_reason


def _debias_freq(omega, dt):
    """Invert the scheme's phase response on a signed frequency.

    On the linear flow dz/dt = -i w z each midpoint substep of size s
    rotates by -2 atan(w s / 2), so the observed per-step phase of the
    composition is theta(w) = 2 (2 atan(w w1 dt/2) + atan(w w0 dt/2)).
    Newton-solve theta(w) = omega dt for w; the correction is odd in
    omega and O(dt^4) small inside the stable regime.
    """
    w = omega
    for _ in range(8):
        x1, x0 = w * _W1 * dt / 2.0, w * _W0 * dt / 2.0
        theta = 2.0 * (2.0 * np.arctan(x1) + np.arctan(x0))
        deriv = (2.0 * _W1 * dt / (1.0 + x1 * x1)
                 + _W0 * dt / (1.0 + x0 * x0))
        step = (theta - omega * dt) / deriv
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    return float(w)


def _relative_drift(field, traj):
    """max_t |H(x_t) - H(x_0)| / |H(x_0)| for every orbit.

    One orbit at a time, so the energy's temporaries scale with the
    steps, not with the batch.
    """
    drift = np.empty(len(traj))
    for i, orbit in enumerate(traj):
        energy = field.energy(orbit)
        drift[i] = (np.abs(energy - energy[0]).max()
                    / max(abs(energy[0]), np.finfo(float).tiny))
    return drift


@dataclass(frozen=True)
class OrbitRecord:
    """One integrated orbit plus its diagnostics.

    energy_drift is max_t |H(x_t) - H(x_0)| relative to |H(x_0)|.
    escape_reason says what froze an escaped orbit: "radius" (it left
    the escape ball), "non-finite" (a step overflowed) or
    "fixed-point-stall" (a midpoint substep solve did not settle); it is
    None for an orbit that stayed in.  window_frequencies and stability
    appear after classify_orbit (None for an escaped orbit); the
    classification is a pure function of the record and the thresholds.
    """

    x0: tuple
    dt: float
    steps: int
    scheme: str
    trajectory: np.ndarray = dataclasses.field(repr=False)
    energy_drift: float = 0.0
    escaped: bool = False
    escape_step: int = None
    escape_reason: str = None
    window_frequencies: tuple = None
    stability: float = None
    classification: str = "undecided"
    convention: str = FREQ_CONVENTION

    def to_json_dict(self):
        return to_jsonable({
            "x0": self.x0,
            "dt": self.dt,
            "steps": self.steps,
            "scheme": self.scheme,
            "energy_drift": self.energy_drift,
            "escaped": self.escaped,
            "escape_step": self.escape_step,
            "escape_reason": self.escape_reason,
            "window_frequencies": self.window_frequencies,
            "stability": self.stability,
            "classification": self.classification,
            "convention": self.convention,
        })


def _orbit_records(field, X0, dt, steps, escape_radius):
    """Integrate a batch and wrap every orbit in an unclassified record."""
    traj, esc, reason = _integrate_batch(field, X0, dt, steps, escape_radius)
    drift = _relative_drift(field, traj)
    return [OrbitRecord(
        x0=tuple(float(v) for v in X0[i]), dt=dt, steps=steps, scheme=SCHEME,
        trajectory=traj[i], energy_drift=float(drift[i]),
        escaped=bool(esc[i] >= 0),
        escape_step=int(esc[i]) if esc[i] >= 0 else None,
        escape_reason=reason[i]) for i in range(len(X0))]


def check_finite_positive(**values):
    """Raise ValueError unless every named value is finite and positive.

    A step, radius or escape factor that is zero, negative or NaN does
    not fail inside the integrator; it comes back as wrong frequencies,
    undecided orbits or a "non-finite" escape, i.e. as dynamics.
    """
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r}")


def _check_step(field, X0, dt):
    """Reject dt |X_H(x0)| > 1 at any start: a step that coarse does not
    resolve the flow, yet the midpoint solve may still converge on it."""
    speed = float(np.abs(field.velocity(X0)).max())
    if dt * speed > 1.0:
        raise ValueError(
            f"step size fails the sanity check: dt*|X_H(x0)| = "
            f"{dt * speed:.3g} > 1")


def integrate(H, x0, dt, steps, *, escape_radius=None):
    """Flow x0 under the Hamiltonian vector field of H for `steps` steps.

    H is a real-coefficient polynomial jet on (q_1..q_n, p_1..p_n); the
    scheme is the order-4 triple-jump composition of the implicit
    midpoint rule.  A step-size sanity check rejects dt |X_H(x0)| > 1
    (a step that coarse does not resolve the flow).  Escape past
    escape_radius (default 10 (1 + |x0|)) is reported on the record,
    not raised; np.inf never escapes by radius, and a radius that is
    NaN, zero or negative raises ValueError.
    """
    field = _VectorField(H)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.d,):
        raise ValueError(f"x0 must have {field.d} components")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {tuple(x0.tolist())}")
    check_finite_positive(dt=dt)
    if steps < 1:
        raise ValueError("need steps >= 1")
    _check_step(field, x0[None, :], dt)
    if escape_radius is None:
        escape_radius = 10.0 * (1.0 + float(np.sqrt((x0 ** 2).sum())))
    elif not escape_radius > 0:
        # NaN would never escape, zero or less would escape at step 0
        raise ValueError(f"escape_radius must be positive or np.inf, "
                         f"got {escape_radius!r}")
    return _orbit_records(field, x0[None, :], dt, steps, escape_radius)[0]


# ---------------------------------------------------------- frequency analysis

def _analysis_window(L, dt):
    """4-term Blackman-Harris window (-92 dB), its sum, its sample times."""
    x = 2 * np.pi * np.arange(L) / (L - 1)
    w = (0.35875 - 0.48829 * np.cos(x) + 0.14128 * np.cos(2 * x)
         - 0.01168 * np.cos(3 * x))
    return w, w.sum(), np.arange(L) * dt


def _dominant_freq(z, dt, window):
    """Signed dominant angular frequency of a complex signal, or None.

    Blackman-Harris-windowed FFT peak, parabolic interpolation on log
    magnitude, then local zoom refinements by direct Fourier sums.  The
    window-weighted mean is subtracted first so the zero-frequency line
    of the windowed transform vanishes exactly and cannot bias the peak.
    A signal whose variation around its mean is at roundoff scale is
    degenerate (None): a fixed point has no rotation number.
    """
    L = len(z)
    w, w_sum, t = window
    mean = (w @ z) / w_sum
    zc = z - mean
    amp = np.abs(zc).max()
    if amp <= 1e-12 * (1.0 + abs(mean)):
        return None
    zw = zc * w
    X = np.fft.fft(zw)
    mag = np.abs(X)
    k = int(mag.argmax())
    lm = np.log(np.maximum(mag, np.finfo(float).tiny))
    a, b, c = lm[(k - 1) % L], lm[k], lm[(k + 1) % L]
    denom = a - 2 * b + c
    delta = 0.5 * (a - c) / denom if denom else 0.0
    delta = min(0.5, max(-0.5, delta))
    kk = k + delta
    if kk > L / 2:
        kk -= L
    omega = 2 * np.pi * kk / (L * dt)
    # zoom: refit the windowed Fourier magnitude on ever finer 3-point
    # grids; on a pure tone this lands on the true frequency to ~1e-12
    h = 2 * np.pi / (L * dt) / 10.0
    for _ in range(3):
        grid = omega + np.array([-h, 0.0, h])
        m = np.abs(np.exp(-1j * np.outer(grid, t)) @ zw)
        lg = np.log(np.maximum(m, np.finfo(float).tiny))
        denom = lg[0] - 2 * lg[1] + lg[2]
        if denom:
            omega += min(1.0, max(-1.0, 0.5 * (lg[0] - lg[2]) / denom)) * h
        h /= 10.0
    return float(omega)


def _window_length(samples, windows):
    """Samples per window; at least 2 windows of at least 64 samples."""
    if windows < 2:
        raise ValueError("need at least 2 windows")
    L = samples // windows
    if L < 64:
        raise ValueError(
            f"window length {L} below 64 samples; integrate longer or "
            "use fewer windows")
    return L


@dataclass(frozen=True)
class FrequencyAnalysis:
    """Per-window dominant frequency vectors and their spread."""

    windows: int
    frequencies: tuple
    stability: float
    degenerate: bool
    convention: str = FREQ_CONVENTION


def frequency_analysis(orbit, windows=4):
    """Windowed frequency-map analysis of an orbit record.

    Splits the trajectory into `windows` equal windows (each at least 64
    samples), estimates the dominant signed frequency of every mode in
    every window (de-biased for the integrator's phase response), and
    reports the maximal inter-window deviation relative to the largest
    mean frequency.  Modes with degenerate (zero-amplitude) signal get
    None; an orbit degenerate in every mode is undecidable.

    Resolution note: a mode needs several spectral bins between its
    frequency and 0, i.e. |omega| well above 2 pi / (window length x
    dt), or the peak sits in the skirt of the suppressed zero line and
    the estimate wanders; integrate longer when slow modes matter.

    Short windows are biased while looking stable.  On the integrable
    1:phi oscillator at dt = 0.02 from x0 = (0.3, -0.2, 0.1, 0.25),
    256-sample windows put the frequencies 12 % off and 512-sample
    windows 6.6e-5 off, yet report stabilities below 1.2e-13, so such
    orbits still classify torus-like; 1024-sample windows are 9e-12 off.
    Below about 1024 samples a small stability does not show an accurate
    frequency.
    """
    traj = orbit.trajectory
    n = traj.shape[1] // 2
    L = _window_length(len(traj), windows)
    window = _analysis_window(L, orbit.dt)
    freqs = []
    for w in range(windows):
        seg = traj[w * L:(w + 1) * L]
        row = []
        for j in range(n):
            z = seg[:, j] + 1j * seg[:, n + j]
            f = _dominant_freq(z, orbit.dt, window)
            # the phase correction belongs to the integrator; records
            # carrying exact samples declare another scheme and skip it
            if f is not None and orbit.scheme == SCHEME:
                f = _debias_freq(f, orbit.dt)
            row.append(f)
        freqs.append(tuple(row))
    defined = [j for j in range(n)
               if all(fw[j] is not None for fw in freqs)]
    if not defined:
        return FrequencyAnalysis(windows, tuple(freqs), None, True)
    means = {j: np.mean([fw[j] for fw in freqs]) for j in defined}
    scale = max(abs(m) for m in means.values())
    dev = max(abs(fw[j] - means[j]) for fw in freqs for j in defined)
    stability = dev / max(scale, np.finfo(float).tiny)
    return FrequencyAnalysis(windows, tuple(freqs), float(stability), False)


def classify_orbit(orbit, *, windows=4, tol_energy=1e-6, tol_freq=1e-4):
    """Attach frequencies and a classification to an orbit record.

    torus-like iff the orbit stayed bounded, the relative energy drift
    is below tol_energy, and the frequency stability is below tol_freq;
    degenerate signals are undecided; everything else (escape, drifting
    energy, wandering frequencies) is chaotic/escaping.  Pure function
    of the record and thresholds.  An escaped orbit is frozen from
    escape_step on, so its windows are not analysed: it records None
    for window_frequencies and stability.
    """
    if orbit.escaped:
        _window_length(len(orbit.trajectory), windows)
        return dataclasses.replace(
            orbit, window_frequencies=None, stability=None,
            classification="chaotic/escaping")
    analysis = frequency_analysis(orbit, windows)
    if analysis.degenerate:
        cls = "undecided"
    elif (orbit.energy_drift < tol_energy
          and analysis.stability < tol_freq):
        cls = "torus-like"
    else:
        cls = "chaotic/escaping"
    return dataclasses.replace(
        orbit, window_frequencies=analysis.frequencies,
        stability=analysis.stability, classification=cls)


# ----------------------------------------------------------------------- scan

@dataclass(frozen=True)
class ScanReport:
    """Torus-like fraction over a random sample of a ball B(0, r)."""

    radius: float
    samples: int
    seed: int
    fraction: float
    records: tuple
    dt: float
    steps: int
    windows: int
    tol_energy: float
    tol_freq: float
    escape_radius: float
    alpha: tuple
    scheme: str = SCHEME
    convention: str = FREQ_CONVENTION

    def __post_init__(self):
        assert 0.0 <= self.fraction <= 1.0

    def counts(self):
        out = {"torus-like": 0, "chaotic/escaping": 0, "undecided": 0}
        for rec in self.records:
            out[rec.classification] += 1
        return out

    def to_json_dict(self):
        return to_jsonable({
            "radius": self.radius,
            "samples": self.samples,
            "seed": self.seed,
            "fraction_torus_like": self.fraction,
            "counts": self.counts(),
            "dt": self.dt,
            "steps": self.steps,
            "windows": self.windows,
            "tol_energy": self.tol_energy,
            "tol_freq": self.tol_freq,
            "escape_radius": self.escape_radius,
            "alpha": self.alpha,
            "scheme": self.scheme,
            "convention": self.convention,
        })

    def csv_rows(self):
        """Header and one row per orbit (x0, drift, stability, class)."""
        n2 = len(self.records[0].x0) if self.records else 0
        header = [f"x0_{i}" for i in range(n2)] + [
            "energy_drift", "stability", "classification"]
        rows = []
        for rec in self.records:
            rows.append([f"{v!r}" for v in rec.x0] +
                        [repr(rec.energy_drift),
                         "" if rec.stability is None else repr(rec.stability),
                         rec.classification])
        return header, rows


def _sample_ball(rng, samples, d, r):
    v = rng.normal(size=(samples, d))
    v /= np.sqrt((v ** 2).sum(axis=1))[:, None]
    u = rng.random(samples) ** (1.0 / d)
    return r * u[:, None] * v


def torus_scan(H, r, samples, seed=0, *, dt=0.02, steps=8192, windows=4,
               tol_energy=1e-6, tol_freq=1e-4, escape_factor=10.0):
    """Sample B(0, r), integrate every orbit, report the torus-like fraction.

    H must be elliptic at the origin (positive diagonal quadratic part
    a_k (q_k^2 + p_k^2), no constant or linear terms).  Sampling is
    uniform in the ball with a counter-based generator, so a (seed, r,
    samples) triple reproduces the same report bit for bit.  The step
    size must pass integrate's sanity check at every sampled start.
    A scan whose trajectories would exceed _SCAN_BYTES_LIMIT raises
    BudgetExceededError before anything is sampled; the windows are
    checked before anything is integrated.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    check_finite_positive(r=r, dt=dt, escape_factor=escape_factor)
    need = samples * (steps + 1) * H.num_vars * 8
    if need > _SCAN_BYTES_LIMIT:
        raise BudgetExceededError(
            f"{samples} samples x {steps + 1} points x {H.num_vars} "
            f"coordinates need {need / 2 ** 30:.3g} GiB of trajectory, over "
            f"the {_SCAN_BYTES_LIMIT / 2 ** 30:g} GiB limit; scan fewer "
            "samples or steps")
    eh = EllipticHamiltonian(H, coordinate_mode=REAL_ELLIPTIC)
    field = _VectorField(H)
    rng = np.random.Generator(np.random.Philox(seed))
    X0 = _sample_ball(rng, samples, field.d, r)
    _check_step(field, X0, dt)
    _window_length(steps + 1, windows)
    escape_radius = escape_factor * r
    records = [classify_orbit(rec, windows=windows, tol_energy=tol_energy,
                              tol_freq=tol_freq)
               for rec in _orbit_records(field, X0, dt, steps, escape_radius)]
    hits = sum(rec.classification == "torus-like" for rec in records)
    return ScanReport(
        radius=float(r), samples=samples, seed=seed,
        fraction=hits / samples, records=tuple(records), dt=dt, steps=steps,
        windows=windows, tol_energy=tol_energy, tol_freq=tol_freq,
        escape_radius=float(escape_radius),
        alpha=tuple(float(a) for a in eh.alpha.as_floats()))
