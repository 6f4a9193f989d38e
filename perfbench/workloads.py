"""The four workloads: inputs made from the seed, operations, checks.

Each workload has ``build(km)``, which makes the program's inputs (timed
as set-up), and ``operations(km, inputs)``, which prepares the oracles
(untimed) and returns the round: a fixed list of ``Op``.  ``km`` holds
the kamtori modules; every library call goes through a module attribute
so the traced run's wrappers see it.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from oracles import (INTEGRABLE_FREQ_TOL, check_actions_close,
                     check_actions_equal, check_bruno, check_density_plateau,
                     check_density_trend, check_ideal_square, check_quartic,
                     check_scan, check_sigma, check_strips,
                     float_center_margins, pure_actions, sigma_by_columns,
                     strip_hits)

PHI = (1 + 5 ** 0.5) / 2


@dataclass
class Op:
    """One operation of a round.

    kind names the end-to-end figure its time goes to in the traced run
    (fiber, birkhoff, scan, sigma, density, strips); work is orbit-steps
    for scans.  expected_error is the exception type of a known fault:
    raising it counts the op as failed but not as wrong.
    """

    name: str
    kind: str
    call: object
    check: object
    expected_error: type = None
    work: int = 0


class CliError(Exception):
    """kamtori.cli.main returned a non-zero exit code."""


def run_cli(cli, argv):
    """kamtori.cli.main(argv) in-process; returns the printed artifact."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliError(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


# ----------------------------------------------------------- torus-scan

class TorusScan:
    """torus_scan on the 1:phi oscillator, integrable and perturbed."""

    name = "torus-scan"
    EPS = 0.05
    SAMPLES, STEPS, WINDOWS = 16, 2048, 2     # 1024-sample windows
    SCANS = ((0.0, 0.5), (EPS, 0.25))   # (eps, radius)

    def __init__(self, seed):
        self.scan_seed = random.Random(seed).randrange(2 ** 32)

    def build(self, km):
        lay = km.poisson.SymplecticLayout(2)
        H = lay.zero(4, mode="float")
        for k, a in enumerate((1.0, PHI)):
            qe, pe = [0, 0], [0, 0]
            qe[k] = pe[k] = 2
            H = H + lay.monomial(a, qexp=tuple(qe), trunc_degree=4)
            H = H + lay.monomial(a, pexp=tuple(pe), trunc_degree=4)
        bump = lay.monomial(self.EPS, qexp=(2, 2), trunc_degree=4)
        return {0.0: H, self.EPS: H + bump}

    def operations(self, km, H):
        ops = []
        for eps, r in self.SCANS:
            def call(eps=eps, r=r):
                return km.torusverify.torus_scan(
                    H[eps], r, self.SAMPLES, seed=self.scan_seed,
                    steps=self.STEPS, windows=self.WINDOWS)
            tol = INTEGRABLE_FREQ_TOL if eps == 0 else eps ** 2 * r ** 4

            def check(rep, eps=eps, r=r, tol=tol):
                records = [(rec.x0, rec.window_frequencies,
                            rec.classification) for rec in rep.records]
                problems = check_scan(records, (1.0, PHI), eps, r, tol)
                if len(records) != self.SAMPLES:
                    problems.append(f"{len(records)} orbits scanned")
                return problems
            ops.append(Op(f"scan eps={eps} r={r}", "scan", call, check,
                          work=self.SAMPLES * self.STEPS))
        return ops


# ---------------------------------------------------- normal-form workloads

MODEL = Fraction(987, 610)


def dense_coeffs(rng):
    """p1q1 + (987/610) p2q2 plus every cubic and quartic monomial in
    (q1, q2, p1, p2), each with a seeded small rational n / (10 d)."""
    coeffs = {(1, 0, 1, 0): Fraction(1), (0, 1, 0, 1): MODEL}
    for deg in (3, 4):
        for idx in sorted(e for e in product(range(deg + 1), repeat=4)
                          if sum(e) == deg):
            num = rng.choice([v for v in range(-9, 10) if v])
            coeffs[idx] = Fraction(num, 10 * rng.randint(1, 9))
    return coeffs


def dense_jet(km, coeffs, N, mode):
    lay = km.poisson.SymplecticLayout(2)
    if mode == "float":
        coeffs = {i: float(c) for i, c in coeffs.items()}
    return km.jets.Jet(4, N, coeffs, blocks=lay.blocks, mode=mode)


def quartic_oscillator(km):
    """(p^2 + q^2)/2 + q^4 at N = 8, real-elliptic."""
    lay = km.poisson.SymplecticLayout(1)
    return (lay.monomial(Fraction(1, 2), qexp=(2,), trunc_degree=8)
            + lay.monomial(Fraction(1, 2), pexp=(2,), trunc_degree=8)
            + lay.monomial(Fraction(1), qexp=(4,), trunc_degree=8))


def birkhoff_morse(km, H, l):
    b = km.birkhoff
    return b.birkhoff_normalize(
        b.EllipticHamiltonian(H, coordinate_mode=b.COMPLEX_MORSE), l)


class NormalFormExact:
    """Exact fiber_normalize (with replay) and birkhoff_normalize."""

    name = "normal-form-exact"
    N = 5

    def __init__(self, seed):
        self.coeffs = dense_coeffs(random.Random(seed))

    def build(self, km):
        return {"H": dense_jet(km, self.coeffs, self.N, "exact"),
                "quartic": quartic_oscillator(km)}

    def operations(self, km, inputs):
        H, l = inputs["H"], self.N // 2
        # birkhoff runs after fiber in every round; its check compares its
        # polynomial with the pure actions of that round's fiber result
        latest = {}

        def fiber_check(fib):
            problems = check_ideal_square(fib.normalized.coeffs, 2)
            if not fib.final.success:
                problems.append("fiber_normalize did not succeed")
            latest["fiber"] = pure_actions(fib.normalized.coeffs, 2, l)
            return problems

        def birkhoff_check(res):
            got = dict(res.A.coeffs)
            problems = check_actions_equal(
                latest.pop("fiber", {}), got,
                "fiber pure actions vs Birkhoff polynomial")
            if got.get((1, 0)) != 1 or got.get((0, 1)) != MODEL:
                problems.append("Birkhoff polynomial lost the model")
            return problems

        def quartic_check(res):
            return check_quartic(dict(res.A.coeffs), not res.residual)

        return [
            Op("fiber exact", "fiber",
               lambda: km.kamengine.fiber_normalize(H), fiber_check),
            Op("birkhoff exact", "birkhoff",
               lambda: birkhoff_morse(km, H, l), birkhoff_check),
            Op("birkhoff quartic", "birkhoff",
               lambda: km.birkhoff.birkhoff_normalize(
                   km.birkhoff.EllipticHamiltonian(
                       inputs["quartic"],
                       coordinate_mode=km.birkhoff.REAL_ELLIPTIC), 4),
               quartic_check),
        ]

    def probes(self, km, inputs):
        """fiber_normalize without the replay, for kamengine.replay_s."""
        H = inputs["H"]
        return lambda: km.kamengine.fiber_normalize(H, verify=False)


class NormalFormFloat:
    """Float fiber_normalize and the failing float birkhoff_normalize."""

    name = "normal-form-float"
    N = 9
    REF_N = 6            # exact reference order for the float results
    FAULT_SEED = 0       # the failing op's input does not depend on --seed

    def __init__(self, seed):
        self.coeffs = dense_coeffs(random.Random(seed))
        self.fault_coeffs = dense_coeffs(random.Random(self.FAULT_SEED))

    def build(self, km):
        return {"H": dense_jet(km, self.coeffs, self.N, "float"),
                "H_fault": dense_jet(km, self.fault_coeffs, self.N, "float")}

    def operations(self, km, inputs):
        ref_l = self.REF_N // 2
        ref = {key: dict(birkhoff_morse(
            km, dense_jet(km, c, self.REF_N, "exact"), ref_l).A.coeffs)
            for key, c in (("H", self.coeffs), ("H_fault", self.fault_coeffs))}

        def fiber_check(fib):
            problems = check_ideal_square(fib.normalized.coeffs, 2)
            if not fib.final.success:
                problems.append("fiber_normalize did not succeed")
            problems += check_actions_close(
                pure_actions(fib.normalized.coeffs, 2, ref_l), ref["H"],
                "float fiber vs exact Birkhoff")
            return problems

        def birkhoff_check(res):
            # reached only once float birkhoff_normalize stops failing
            got = {m: c for m, c in res.A.coeffs.items() if sum(m) <= ref_l}
            return check_actions_close(got, ref["H_fault"],
                                       "float Birkhoff vs exact Birkhoff")

        return [
            Op("fiber float", "fiber",
               lambda: km.kamengine.fiber_normalize(inputs["H"]),
               fiber_check),
            Op("birkhoff float", "birkhoff",
               lambda: birkhoff_morse(km, inputs["H_fault"], self.N // 2),
               birkhoff_check,
               expected_error=km.errors.CertificateError),
        ]


# ----------------------------------------------------------- small-divisors

def seeded_alpha(rng, n, k_max):
    """(1, a_2, .., a_n), a_j dyadic with 24 fraction bits in [0.5, 2].

    Redrawn while some |<alpha, i>| vanishes in the ball of radius
    2^k_max: bruno and strips rightly reject a zero sigma.
    """
    while True:
        alpha = [Fraction(1)] + [
            Fraction(round(rng.uniform(0.5, 2.0) * 2 ** 24), 2 ** 24)
            for _ in range(n - 1)]
        values = sigma_by_columns(alpha, k_max)
        if all(values):
            return alpha, values


def _alpha_arg(alpha):
    return ",".join(str(a) for a in alpha)


class SmallDivisors:
    """sigma, bruno, density and strips through kamtori.cli.main."""

    name = "small-divisors"
    K2, K3 = 10, 6            # exact n = 2 and n = 3 sigma orders
    DENSITY_K, SAMPLES = 8, 50000
    RADII = (0.1, 0.01, 0.001)
    STRIPS_K, STRIPS_R = 8, Fraction(1, 100)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.alpha2, self.sigma2 = seeded_alpha(rng, 2, self.K2)
        self.alpha3, self.sigma3 = seeded_alpha(rng, 3, self.K3)
        self.density_seed = rng.randrange(2 ** 32)

    def build(self, km):
        a2, a3 = _alpha_arg(self.alpha2), _alpha_arg(self.alpha3)
        density = ["density", "--alpha", f"1,{PHI!r}", "--mode", "float",
                   "--kmax", str(self.DENSITY_K),
                   "--radii", ",".join(map(str, self.RADII)),
                   "--samples", str(self.SAMPLES),
                   "--seed", str(self.density_seed)]
        return {
            "sigma2": ["sigma", "--alpha", a2, "--kmax", str(self.K2)],
            "bruno2": ["bruno", "--alpha", a2, "--kmax", str(self.K2)],
            "sigma3": ["sigma", "--alpha", a3, "--kmax", str(self.K3)],
            "bruno3": ["bruno", "--alpha", a3, "--kmax", str(self.K3)],
            "density0": density + ["--rho-shift", "0"],
            "density1": density + ["--rho-shift", "1"],
            "strips": ["strips", "--alpha", a2, "--kmax", str(self.STRIPS_K),
                       "--r", str(self.STRIPS_R)],
        }

    def operations(self, km, argv):
        def sigma_check(oracle):
            def check(text):
                values = [Fraction(v) for v in
                          json.loads(text)["sigma"]["values"]]
                return check_sigma(values, oracle)
            return check

        def bruno_check(oracle):
            def check(text):
                art = json.loads(text)
                bruno = art["bruno"]
                return (sigma_check(oracle)(text)
                        + check_bruno(bruno["partial_sum"], bruno["verdict"],
                                      oracle))
            return check

        def fractions(text):
            return [rep["fraction_in_class"]
                    for rep in json.loads(text)["sweep"]]

        flat = float_center_margins((1.0, PHI), self.DENSITY_K, 0)
        rise = float_center_margins((1.0, PHI), self.DENSITY_K, 1)
        k = self.STRIPS_K
        hits = strip_hits(self.alpha2, self.sigma2[:k + 1],
                          [Fraction(2) ** (-6 * j) for j in range(k + 1)],
                          self.STRIPS_R, k)

        def strips_check(text):
            art = json.loads(text)
            return check_strips(art["strip_count"],
                                len(art["ball_intersections"]), k, hits)

        def cli_op(name, kind, check):
            return Op(name, kind, lambda: run_cli(km.cli, argv[name]), check)

        return [
            cli_op("sigma2", "sigma", sigma_check(self.sigma2)),
            cli_op("bruno2", "sigma", bruno_check(self.sigma2)),
            cli_op("sigma3", "sigma", sigma_check(self.sigma3)),
            cli_op("bruno3", "sigma", bruno_check(self.sigma3)),
            cli_op("density0", "density", lambda t: check_density_plateau(
                fractions(t), self.SAMPLES, *flat)),
            cli_op("density1", "density", lambda t: check_density_trend(
                fractions(t), rise[0])),
            cli_op("strips", "strips", strips_check),
        ]


WORKLOADS = {w.name: w for w in (TorusScan, NormalFormExact, NormalFormFloat,
                                 SmallDivisors)}
