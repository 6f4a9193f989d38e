"""Capture what one kamtori checkout computes, for a before/after diff.

    python3 tools/capture_outputs.py DIR

Runs the checkout this script lives in (its ``src/``) and writes:

- ``DIR/cli/``: a fixed list of ``kamtori`` commands (sigma, bruno,
  strips, density, lattice, birkhoff at n=1 and n=2 with each
  strategy, kam run on a real and on a complex alpha, each in both
  modes; density and strips with rho_k past the float range
  (``--rho-exp 2000``) in both modes; float sigma, bruno, strips and
  density at alpha = (1e308, 1.6e308), whose products <i, alpha> pass
  the float range; the ``small-divisors`` benchmark's sizes: density
  on (1, phi) at k=8 with 50 000 samples and both rho shifts, strips
  at k=8 and sigma at n=3, k=6; sigma, strips
  and density in the sup norm, a float sigma at n=3 and a density ball
  centred away from alpha; one torus scan and one report; and one
  config per option check that the command must refuse, plus a problem
  file whose model "a" disagrees with its alpha and one with a zero
  alpha component), run one at a time in that directory.  Per command
  NAME it keeps ``NAME.stdout``, ``NAME.stderr`` and ``NAME.exit``, next
  to the files the command wrote.  The checkout's path is replaced by
  ``<root>`` in stderr, so tracebacks from two checkouts compare.
- ``DIR/engine/``: one text file per engine case, in exact and float
  mode: every generator, the per-stage a_n/b_n/alpha_n/c_n/min_divisor/
  norm ledger and the normalized jets, written with their coefficient
  dicts in storage order.  Cases are the kamengine test problems and the
  dense fiber jets of seeds 1-3 at N=5.  The dense jet of seed 1 at
  N=7 (replay included; denominators of up to 286 bits in the
  normalized jet and 606 bits in the generators) runs in exact mode
  only.  The ``normal-form-float`` benchmark's shapes run in float
  mode only: the dense fiber jets of seeds 1-3 at N=9, and Birkhoff at
  l=4 of the seed-0 one.  Float coefficients of every jet are written
  with ``float.hex``.  A case that raises records the error.
- ``DIR/algebra/``: one text file per ``check_symplectic`` call: of the
  complex-Morse substitutions and their inverses for n = 1..3, of a
  rank-3 and a row-swapped n = 2 linear map, and of Birkhoff
  ``coordinate_images()`` for the ``tests/test_birkhoff.py``
  Hamiltonians and the CLI's ``h1``/``h2``; each in exact and float
  mode.  A call that raises records the error.
- ``DIR/torus/``: one text file per ``torus_scan`` call, one line per
  orbit with its classification, escape step and escape reason (no
  float values, so the files compare across roundoff).  The scans are
  the two ``torus-scan`` benchmark Hamiltonians at benchmark seeds 1-3,
  the three seed-11 scans of ``test_scan_monotone_in_perturbation_and_
  radius`` and the four scans of acceptance criterion 10.
- ``DIR/torus-bits/``: the same scans bit for bit, one line per orbit
  with the SHA-256 of its trajectory bytes and the ``float.hex`` of its
  energy drift, stability and window frequencies, so a diff shows
  whether a torus change moved any bit.

- ``DIR/jets/``: one text file per jet operation on seeded random jets
  with Fraction, ComplexRational, float and complex coefficients:
  ``scale`` by complex and ComplexRational scalars, ``__add__`` of
  jets at different truncation degrees (some sums cancel to zero or to
  a real value), ``derivative`` and ``truncate`` of complex jets, and
  ``to_float`` of the complex float jets and of the float complex-Morse
  images for n = 1..3; and the three kernels, ``__mul__``, ``compose``
  and ``bracket`` (n = 2), on seeded jets of each of those kinds and on
  purely imaginary float jets whose real parts are +0.0 or -0.0, alone
  and with real float partners.  Each result is written in storage order
  with ``float.hex``.

Capture two checkouts into two directories; ``diff -r A B`` then lists
every difference in behaviour.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kamtori.birkhoff import (COMPLEX_MORSE, REAL_ELLIPTIC,  # noqa: E402
                              EllipticHamiltonian, birkhoff_normalize,
                              inverse_morse_substitution, morse_substitution)
from kamtori.jets import ComplexRational, Jet  # noqa: E402
from kamtori.kamengine import (KamProblem, fiber_normalize,  # noqa: E402
                               hadamard_quasi_inverse, kam_iterate)
from kamtori.poisson import (SymplecticLayout, bracket,  # noqa: E402
                             check_symplectic)
from kamtori.torusverify import torus_scan  # noqa: E402

F1 = Fraction(1)
LAY1 = SymplecticLayout(1)
LAY2 = SymplecticLayout(2)

# ------------------------------------------------------------------ CLI

INPUTS = {
    "h1.json": {"n": 1, "trunc_degree": 6, "coeffs": {
        "2,0": "1", "0,2": "1", "3,0": "0.2", "1,2": "-0.3",
        "4,0": "0.25", "2,2": "0.125", "0,5": "0.1"}},
    "h2.json": {"n": 2, "trunc_degree": 5, "coeffs": {
        "2,0,0,0": "1", "0,0,2,0": "1", "0,2,0,0": "1.618",
        "0,0,0,2": "1.618", "3,0,0,0": "0.1", "1,0,0,2": "-0.125",
        "2,2,0,0": "0.05", "0,0,2,2": "0.15", "1,1,1,1": "-0.2"}},
    "problem.json": {"n": 2, "trunc_degree": 6, "alpha": ["1", "1.618"],
                     "b": {"3,0,0,0": "0.1", "0,1,2,0": "-0.14",
                           "1,0,0,3": "0.3", "2,0,2,0": "0.25"}},
    "problem_complex.json": {"n": 1, "trunc_degree": 6,
                             "alpha": [{"re": "1", "im": "1"}],
                             "b": {"3,0": "1"}},
    "problem_model_off_alpha.json": {
        "n": 1, "trunc_degree": 6, "alpha": ["2"], "a": {"1,1": "1"},
        "b": {"3,0": "1", "0,3": "1"}},
    "problem_zero_alpha.json": {"n": 2, "trunc_degree": 6,
                                "alpha": ["1", "0"], "b": {"3,0,0,0": "1"}},
}

ALPHA = ["--alpha", "1,1.618"]
PHI = (1 + 5 ** 0.5) / 2


def cli_commands():
    """(name, argv) pairs, in the order they run."""
    cmds = []
    for mode in ("rational", "float"):
        m = ["--mode", mode]
        cmds += [
            (f"sigma-{mode}", ["sigma", *ALPHA, "--kmax", "6", *m,
                               "--out", f"sigma-{mode}.json"]),
            (f"bruno-{mode}", ["bruno", *ALPHA, "--kmax", "6", *m]),
            (f"strips-{mode}", ["strips", *ALPHA, "--kmax", "4",
                                "--r", "0.1", *m,
                                "--csv", f"strips-{mode}.csv"]),
            (f"density-{mode}", ["density", *ALPHA, "--kmax", "4",
                                 "--radii", "0.1,0.05", "--samples", "200",
                                 "--seed", "3", *m,
                                 "--csv", f"density-{mode}.csv"]),
            (f"lattice-{mode}", ["lattice", *ALPHA, "--t-grid", "0:2:3", *m,
                                 "--csv", f"lattice-{mode}.csv"]),
            (f"birkhoff-n1-{mode}", ["birkhoff", "--H", "h1.json", "--l",
                                     "3", *m]),
            (f"birkhoff-n2-{mode}", ["birkhoff", "--H", "h2.json", "--l",
                                     "2", *m]),
            *[(f"birkhoff-{n}-per-monomial-{mode}",
               ["birkhoff", "--H", f"h{n[1]}.json", "--l", l, *m,
                "--strategy", "per-monomial"])
              for n, l in (("n1", "3"), ("n2", "2"))],
            (f"kam-run-{mode}", ["kam", "run", "--problem", "problem.json",
                                 *m, "--out", f"kam-run-{mode}.jsonl"]),
            (f"kam-run-complex-alpha-{mode}",
             ["kam", "run", "--problem", "problem_complex.json", *m]),
        ]
    # the small-divisors benchmark's sizes: the density blocks and chunks
    # at 50 000 samples, strips at k = 8 and the n = 3 ball
    density = ["density", "--alpha", f"1,{PHI!r}", "--mode", "float",
               "--kmax", "8", "--radii", "0.1,0.01,0.001",
               "--samples", "50000", "--seed", "7"]
    cmds += [
        ("density-k8-shift0", [*density, "--rho-shift", "0"]),
        ("density-k8-shift1", [*density, "--rho-shift", "1"]),
        ("strips-k8", ["strips", *ALPHA, "--kmax", "8", "--r", "1/100",
                       "--csv", "strips-k8.csv"]),
        ("sigma-n3-k6", ["sigma", "--alpha", "1,1.618,-0.7071",
                         "--kmax", "6"]),
    ]
    # the small-divisor row paths in the sup norm, float sigma at n = 3
    # and a density ball centred away from alpha
    sup = ["--norm", "sup"]
    cmds += [
        ("sigma-sup", ["sigma", *ALPHA, "--kmax", "6", *sup]),
        ("sigma-sup-float", ["sigma", *ALPHA, "--kmax", "6", *sup,
                             "--mode", "float"]),
        ("strips-sup", ["strips", *ALPHA, "--kmax", "5", "--r", "0.05",
                        *sup, "--csv", "strips-sup.csv"]),
        ("density-sup", ["density", *ALPHA, "--kmax", "6", "--radii",
                         "0.1,0.01", "--samples", "5000", "--seed", "3",
                         *sup, "--mode", "float"]),
        ("sigma-n3-float", ["sigma", "--alpha", "1,1.618,-0.7071",
                            "--kmax", "6", "--mode", "float"]),
        ("density-off-center", ["density", *ALPHA, "--kmax", "6",
                                "--radii", "0.2,0.02", "--samples", "5000",
                                "--seed", "4", "--center", "1.05,1.5",
                                "--mode", "float"]),
    ]
    # rho_k = 2^(2000 k) is past the float range from k = 1 on
    big_rho = ["--kmax", "3", "--rho-exp", "2000"]
    for mode, alpha, r in (("rational", "1,987/610", "1/10"),
                           ("float", "1,1.6", "0.1")):
        m = ["--alpha", alpha, *big_rho, "--mode", mode]
        cmds += [
            (f"density-rho-overflow-{mode}", ["density", *m, "--radii",
                                              "0.1", "--samples", "10"]),
            (f"strips-rho-overflow-{mode}", ["strips", *m, "--r", r]),
        ]
    # float products <i, alpha> past the float range from radius 1 on
    edge = ["--alpha", "1e308,1.6e308", "--mode", "float", "--kmax", "2"]
    cmds += [
        ("sigma-float-range", ["sigma", *edge]),
        ("bruno-float-range", ["bruno", *edge]),
        ("strips-float-range", ["strips", *edge, "--r", "0.1"]),
        ("density-float-range", ["density", *edge, "--radii", "0.1",
                                 "--samples", "10"]),
    ]
    cmds += [
        ("torus-scan", ["torus", "scan", "--H", "h2.json", "--r", "0.05",
                        "--samples", "4", "--steps", "512", "--seed", "5",
                        "--csv", "torus-scan.csv"]),
        ("report", ["report", "--inputs", "sigma-rational.json",
                    "kam-run-rational.jsonl", "kam-run-float.jsonl"]),
    ]
    # one value outside each option's rule; each should exit 2
    density = ["density", *ALPHA, "--kmax", "3", "--radii", "0.1"]
    scan = ["torus", "scan", "--H", "h2.json", "--r", "0.05",
            "--samples", "4", "--steps", "512"]
    cmds += [(f"reject-{name}", argv) for name, argv in [
        ("sigma-kmax", ["sigma", *ALPHA, "--kmax", "-1"]),
        ("density-samples", [*density, "--samples", "0"]),
        ("density-seed", [*density, "--samples", "10", "--seed", "-1"]),
        ("density-center", [*density, "--samples", "10", "--center",
                            "1,nan"]),
        ("strips-r-nan", ["strips", *ALPHA, "--kmax", "3", "--mode",
                          "float", "--r", "nan"]),
        ("strips-r-negative", ["strips", *ALPHA, "--kmax", "3", "--r",
                               "-1"]),
        ("lattice-t", ["lattice", *ALPHA, "--t", "nan"]),
        ("lattice-t-grid-empty", ["lattice", *ALPHA, "--t-grid", "0:1:0"]),
        ("lattice-t-grid-count", ["lattice", *ALPHA, "--t-grid",
                                  "0:1:2.7"]),
        ("lattice-coeff-bound", ["lattice", *ALPHA, "--t", "1",
                                 "--coeff-bound", "0"]),
        ("birkhoff-l", ["birkhoff", "--H", "h1.json", "--l", "0"]),
        ("birkhoff-divisor-floor", ["birkhoff", "--H", "h1.json", "--l",
                                    "3", "--divisor-floor", "-1"]),
        ("kam-run-stages", ["kam", "run", "--problem", "problem.json",
                            "--stages", "-1"]),
        ("kam-run-model-off-alpha", ["kam", "run", "--problem",
                                     "problem_model_off_alpha.json"]),
        ("kam-run-zero-alpha", ["kam", "run", "--problem",
                                "problem_zero_alpha.json"]),
        ("torus-scan-samples", ["torus", "scan", "--H", "h2.json", "--r",
                                "0.05", "--samples", "0"]),
        ("torus-scan-windows", [*scan, "--windows", "1"]),
        ("torus-scan-tol-energy", [*scan, "--tol-energy", "-1"]),
        ("torus-scan-tol-freq", [*scan, "--tol-freq", "nan"]),
        ("torus-scan-seed", [*scan, "--seed", "-1"]),
        *[(f"torus-scan-short-window-steps{steps}",
           ["torus", "scan", "--H", "h2.json", "--r", "0.05", "--samples",
            "2", "--steps", steps]) for steps in ("100", "0", "-5")],
    ]]
    return cmds


def capture_cli(out):
    out.mkdir(parents=True)
    for name, data in INPUTS.items():
        (out / name).write_text(json.dumps(data, sort_keys=True, indent=1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("KAMTORI_OUT", None)
    for name, argv in cli_commands():
        proc = subprocess.run(
            [sys.executable, "-m", "kamtori.cli", *argv], cwd=out, env=env,
            capture_output=True, text=True)
        (out / f"{name}.stdout").write_text(proc.stdout)
        (out / f"{name}.stderr").write_text(
            proc.stderr.replace(str(ROOT), "<root>"))
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")


# --------------------------------------------------------------- engine

def mono(lay, c, qexp=(), pexp=(), N=8):
    return lay.monomial(c, qexp=qexp, pexp=pexp, trunc_degree=N)


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


def golden_ratio_fiber_jet(N=8):
    return (mono(LAY2, F1, (1, 0), (1, 0), N)
            + mono(LAY2, Fraction(987, 610), (0, 1), (0, 1), N)
            + mono(LAY2, F1, (2, 1), (), N) + mono(LAY2, F1, (), (3, 0), N))


def cubic_pair(N=8):
    return (mono(LAY1, F1, (1,), (1,), N) + mono(LAY1, F1, (3,), (), N)
            + mono(LAY1, F1, (), (3,), N))


def fiber(H):
    return lambda fl: fiber_normalize(H.to_float() if fl else H)


def flagship(fl):
    a = mono(LAY1, F1, (1,), (1,))
    b = mono(LAY1, F1, (3,)) + mono(LAY1, F1, (), (3,))
    if fl:
        a, b = a.to_float(), b.to_float()
    return kam_iterate(KamProblem(layout=LAY1, a=a, b=b))


def quasi_inverse_with_drift(fl):
    drift = mono(LAY1, F1, (2,), (2,))
    target = mono(LAY1, F1, (1,)) + mono(LAY1, Fraction(1, 3), (2,), (1,)) \
        + mono(LAY1, F1, (3,), (3,))
    if fl:
        drift, target = drift.to_float(), target.to_float()
    return hadamard_quasi_inverse([1.0 if fl else F1], target, LAY1,
                                  alpha_acc=drift)


def engine_cases():
    cases = [
        ("kam-flagship", flagship),
        ("quasi-inverse-drift", quasi_inverse_with_drift),
        ("fiber-cubic-pair", fiber(cubic_pair())),
        ("fiber-golden-ratio", fiber(golden_ratio_fiber_jet())),
    ]
    cases += [(f"fiber-dense-seed{s}-N5", fiber(dense_fiber_jet(s, 5)))
              for s in (1, 2, 3)]
    return cases


def show_coeff(c):
    """repr of an exact coefficient; float.hex of each part of a float one
    and of each entry of a tuple, so that equal text means equal bits."""
    if isinstance(c, float):
        return c.hex()
    if isinstance(c, complex):
        return f"complex({c.real.hex()}, {c.imag.hex()})"
    if isinstance(c, tuple):
        return "(" + ", ".join(show_coeff(v) for v in c) + ")"
    return repr(c)


def show_jet(jet):
    if jet is None:
        return "None"
    terms = ", ".join(f"({idx!r}, {show_coeff(c)})"
                      for idx, c in jet.coeffs.items())
    return (f"Jet(vars={jet.num_vars}, N={jet.trunc_degree}, {jet.mode}, "
            f"blocks={jet.blocks}) [{terms}]")


def show_derivation(u):
    if u is None:
        return ["  None"]
    return [f"  generator {show_jet(u.generator)}"]


def show_state(st):
    lines = [f"stage {st.stage} ord_b={st.ord_b!r} "
             f"min_divisor={st.min_divisor!r} success={st.success}",
             f"  ledger {st.norm_ledger!r}"]
    for name in ("a_n", "b_n", "alpha_n", "c_n"):
        lines.append(f"  {name} {show_jet(getattr(st, name))}")
    lines.append("  u_n:")
    lines += show_derivation(st.u_n)
    lines.append(f"  transform length {len(st.transform)}")
    return lines


def show_result(res):
    if isinstance(res, tuple):          # kam_iterate: (final, trace)
        final, trace = res
        lines = ["final:"] + show_state(final)
    elif hasattr(res, "generator"):     # a quasi-inverse derivation
        return ["derivation:"] + show_derivation(res)
    elif hasattr(res, "normal_morse"):  # a BirkhoffResult
        lines = [f"achieved_order {res.achieved_order!r}",
                 f"alpha {res.alpha!r}"]
        for name in ("A", "a_morse", "input_morse", "normal_morse",
                     "residual"):
            lines.append(f"{name} {show_jet(getattr(res, name))}")
        lines.append("generators:")
        for u in res.generators:
            lines += show_derivation(u)
        return lines
    else:                               # a FiberResult
        trace = res.trace
        lines = [f"normalized {show_jet(res.normalized)}"]
        for name in ("certificate", "eigen_freqs", "bruno"):
            lines.append(f"{name} {getattr(res, name)!r}")
        lines.append("transform:")
        for u in res.transform:
            lines += show_derivation(u)
    lines.append("trace:")
    for st in trace:
        lines += show_state(st)
    return lines


def float_engine_cases():
    """The normal-form-float benchmark's shapes, in float mode only (exact
    N=9 takes minutes): fiber_normalize of the dense jets of seeds 1-3 at
    N=9, and complex-Morse birkhoff_normalize at l=4 of the seed-0 one."""
    cases = [(f"fiber-dense-seed{s}-N9", fiber(dense_fiber_jet(s, 9)))
             for s in (1, 2, 3)]
    cases.append(("birkhoff-dense-seed0-N9-l4", lambda fl: birkhoff_normalize(
        EllipticHamiltonian(dense_fiber_jet(0, 9).to_float(),
                            coordinate_mode=COMPLEX_MORSE), 4)))
    return cases


def capture_engine(out):
    out.mkdir(parents=True)
    runs = [(name, run, mode) for name, run in engine_cases()
            for mode in ("exact", "float")]
    runs.append(("fiber-dense-seed1-N7", fiber(dense_fiber_jet(1, 7)),
                 "exact"))
    runs += [(name, run, "float") for name, run in float_engine_cases()]
    for name, run, mode in runs:
        try:
            lines = show_result(run(mode == "float"))
        except Exception as exc:    # the error is the recorded outcome
            lines = [f"raised {type(exc).__name__}: {exc}"]
        (out / f"{name}-{mode}.txt").write_text("\n".join(lines) + "\n")

# -------------------------------------------------------------- algebra

def cli_jet(name):
    """The CLI input jet NAME as an exact jet."""
    data = INPUTS[name]
    lay = SymplecticLayout(data["n"])
    terms = [(tuple(int(e) for e in key.split(",")), Fraction(val))
             for key, val in data["coeffs"].items()]
    return Jet.from_terms(lay.num_vars, data["trunc_degree"], terms,
                          blocks=lay.blocks)


def birkhoff_hamiltonians():
    """(name, H, coordinate mode): Hamiltonians of the Birkhoff tests, and
    the CLI's h1 and h2."""
    Y = mono(LAY1, F1, (1,), (1,), 6)
    Y1 = mono(LAY2, F1, (1, 0), (1, 0), 6)
    Y2 = mono(LAY2, F1, (0, 1), (0, 1), 6)
    q, p = LAY1.q(0, 8), LAY1.p(0, 8)
    return [
        ("linear-point", mono(LAY1, Fraction(2, 3), (1,), (1,), 4),
         COMPLEX_MORSE),
        ("full-line", Y.scale(Fraction(2, 3)) + Y * Y, COMPLEX_MORSE),
        ("rank-one-n2", Y1 + Y2.scale(Fraction(3, 2))
         + ((Y1 + Y2) * (Y1 + Y2)).scale(Fraction(1, 2)), COMPLEX_MORSE),
        ("real-cubic-n1", (q * q + p * p).scale(Fraction(1, 2)) + q ** 3
         + (q * q) * p, REAL_ELLIPTIC),
        ("cli-h1", cli_jet("h1.json"), REAL_ELLIPTIC),
        ("cli-h2", cli_jet("h2.json"), REAL_ELLIPTIC),
    ]


def rank3_morse(mode):
    images = morse_substitution(2, 3, mode=mode)
    images[3] = images[0] + images[1]
    return images


def row_swapped(mode):
    images = [LAY2.p(0, 3), LAY2.q(1, 3), -LAY2.q(0, 3), LAY2.p(1, 3)]
    return images if mode == "exact" else [im.to_float() for im in images]


def elliptic(H, cmode):
    return lambda mode: EllipticHamiltonian(
        H if mode == "exact" else H.to_float(), coordinate_mode=cmode)


def birkhoff_symplectic(ell):
    def call(mode):
        res = birkhoff_normalize(ell(mode), 2)
        return check_symplectic(res.coordinate_images(), res.layout)
    return call


def algebra_cases():
    """(name, call) pairs; call(mode) returns the value to record."""
    cases = [(f"symplectic-birkhoff-{name}",
              birkhoff_symplectic(elliptic(H, cmode)))
             for name, H, cmode in birkhoff_hamiltonians()]
    for n in (1, 2, 3):
        lay = SymplecticLayout(n)
        for sub in (morse_substitution, inverse_morse_substitution):
            cases.append((f"symplectic-{sub.__name__}-n{n}",
                          lambda mode, sub=sub, n=n, lay=lay:
                          check_symplectic(sub(n, 4, mode=mode), lay)))
    cases += [("symplectic-rank3-morse-n2",
               lambda mode: check_symplectic(rank3_morse(mode), LAY2)),
              ("symplectic-row-swapped-n2",
               lambda mode: check_symplectic(row_swapped(mode), LAY2))]
    return cases


def capture_algebra(out):
    out.mkdir(parents=True)
    for name, call in algebra_cases():
        for mode in ("exact", "float"):
            try:
                line = repr(call(mode))
            except Exception as exc:    # the error is the recorded outcome
                line = f"raised {type(exc).__name__}: {exc}"
            (out / f"{name}-{mode}.txt").write_text(line + "\n")

# ----------------------------------------------------------------- jets

def random_value(rng, kind):
    """A seeded coefficient: "exact" a Fraction, "gaussian" a
    ComplexRational (a quarter of them real), "float" a float, "complex"
    a complex (a quarter of them real, a quarter imaginary), "imaginary"
    a complex whose real part is +0.0 or -0.0."""
    def frac():
        return Fraction(rng.choice([v for v in range(-9, 10) if v]),
                        rng.randint(1, 9))
    roll = rng.randrange(4)
    if kind == "exact":
        return frac()
    if kind == "gaussian":
        return ComplexRational(frac(), 0 if roll == 0 else frac())
    if kind == "float":
        return rng.uniform(-1, 1)
    if kind == "imaginary":
        return complex(-0.0 if roll % 2 else 0.0, rng.uniform(-1, 1))
    return complex(0.0 if roll == 1 else rng.uniform(-1, 1),
                   0.0 if roll == 0 else rng.uniform(-1, 1))


def random_jet(rng, kind, N, num_vars=3, terms=12, low=0, trunc=None,
               blocks=None):
    """`terms` seeded monomials of degree low..N with `kind` values, at
    truncation degree trunc (default N)."""
    coeffs = {}
    while len(coeffs) < terms:
        idx = tuple(rng.randint(0, N) for _ in range(num_vars))
        if low <= sum(idx) <= N:
            coeffs[idx] = random_value(rng, kind)
    return Jet(num_vars, N if trunc is None else trunc, coeffs, blocks=blocks)


def cancelling_partner(rng, jet, kind, N):
    """A jet at degree N sharing half of `jet`'s keys: on those, minus
    its value, or (complex kinds) minus its imaginary part alone."""
    coeffs = {}
    for k, (idx, v) in enumerate(jet.coeffs.items()):
        if sum(idx) > N or k % 2:
            continue
        if kind in ("gaussian", "complex") and k % 4 == 0:
            im = v.imag if kind == "complex" else getattr(v, "im", 0)
            part = random_value(rng, "float" if kind == "complex"
                                else "exact")
            coeffs[idx] = (complex(part, -im) if kind == "complex"
                           else ComplexRational(part, -im))
        else:
            coeffs[idx] = -v
    for idx, v in random_jet(rng, kind, N, jet.num_vars).coeffs.items():
        coeffs.setdefault(idx, v)
    return Jet(jet.num_vars, N, coeffs, blocks=jet.blocks)


SCALARS = {
    "exact": [ComplexRational(1, 1), ComplexRational(0, 1),
              ComplexRational(3, 0), ComplexRational(0, 0),
              ComplexRational(Fraction(-2, 3), Fraction(5, 7))],
    "gaussian": [ComplexRational(1, 1), ComplexRational(0, 1),
                 ComplexRational(3, 0), ComplexRational(0, 0),
                 ComplexRational(Fraction(-2, 3), Fraction(5, 7))],
    "float": [2 + 0j, 1j, 0.5 - 0.25j, 0j, complex(-0.0, 3.0)],
    "complex": [2 + 0j, 1j, 0.5 - 0.25j, 0j, complex(-0.0, 3.0)],
}


def jet_cases():
    """(name, call) pairs; call() returns the jet to record."""
    cases = []
    for kind in ("exact", "gaussian", "float", "complex"):
        for seed in (1, 2):
            rng = random.Random(f"{kind}-{seed}")
            jet = random_jet(rng, kind, 5)
            for k, c in enumerate(SCALARS[kind]):
                cases.append((f"scale-{kind}-seed{seed}-scalar{k}",
                              lambda jet=jet, c=c: jet.scale(c)))
            for N in (3, 5, 7):
                other = cancelling_partner(rng, jet, kind, N)
                cases.append((f"add-{kind}-seed{seed}-N5-N{N}",
                              lambda jet=jet, other=other: jet + other))
                cases.append((f"add-{kind}-seed{seed}-N{N}-N5",
                              lambda jet=jet, other=other: other + jet))
            if kind in ("gaussian", "complex"):
                for var in range(jet.num_vars):
                    cases.append((f"derivative-{kind}-seed{seed}-z{var}",
                                  lambda jet=jet, var=var:
                                  jet.derivative(var)))
                for d in (0, 2, 4, 5, 7):
                    cases.append((f"truncate-{kind}-seed{seed}-d{d}",
                                  lambda jet=jet, d=d: jet.truncate(d)))
            if kind == "complex":
                cases.append((f"to-float-{kind}-seed{seed}",
                              lambda jet=jet: jet.to_float()))
    for n in (1, 2, 3):
        for k, image in enumerate(morse_substitution(n, 4, mode="float")):
            cases.append((f"to-float-morse-n{n}-image{k}",
                          lambda image=image: image.to_float()))
    return cases + kernel_cases()


def kernel_cases():
    """(name, call) pairs of __mul__, compose and bracket.  An "imaginary"
    jet also meets "float" partners, whose products have signed-zero real
    parts; partners share keys with the first operand, so sums cancel."""
    cases = []
    for kind in ("exact", "gaussian", "float", "complex", "imaginary"):
        other = "float" if kind == "imaginary" else kind
        for seed in (1, 2):
            rng = random.Random(f"kernel-{kind}-{seed}")
            f = random_jet(rng, kind, 3, trunc=5)
            for N in (3, 5):
                g = cancelling_partner(rng, f, kind, N)
                h = random_jet(rng, other, 3, trunc=N)
                for tag, a, b in (("fg", f, g), ("gf", g, f), ("ff", f, f),
                                  ("fh", f, h), ("hf", h, f)):
                    cases.append((f"mul-{kind}-seed{seed}-N{N}-{tag}",
                                  lambda a=a, b=b: a * b))
            outer = random_jet(rng, kind, 3, terms=8, trunc=4)
            for m in (1, 2):
                args = [random_jet(rng, (kind, other)[k % 2], 3, 2, 4, low=m,
                                   trunc=5) for k in range(3)]
                cases.append((f"compose-{kind}-seed{seed}-ord{m}",
                              lambda outer=outer, args=args:
                              outer.compose(args)))
            f4, h4 = (random_jet(rng, k, 3, 4, trunc=5, blocks=LAY2.blocks)
                      for k in (kind, other))
            g4 = cancelling_partner(rng, f4, kind, 5)
            for tag, a, b in (("fg", f4, g4), ("gf", g4, f4), ("fh", f4, h4),
                              ("hf", h4, f4)):
                cases.append((f"bracket-{kind}-seed{seed}-{tag}",
                              lambda a=a, b=b: bracket(a, b, LAY2)))
    return cases


def capture_jets(out):
    out.mkdir(parents=True)
    for name, call in jet_cases():
        try:
            line = show_jet(call())
        except Exception as exc:    # the error is the recorded outcome
            line = f"raised {type(exc).__name__}: {exc}"
        (out / f"{name}.txt").write_text(line + "\n")

# ---------------------------------------------------------------- torus

PHI = (1 + 5 ** 0.5) / 2
CRITERION_10_SEED = 20260819


def golden_oscillator(eps=0.0):
    """q1^2 + p1^2 + phi (q2^2 + p2^2), plus eps q1^2 q2^2."""
    H = LAY2.zero(4, mode="float")
    for k, a in enumerate((1.0, PHI)):
        qe, pe = [0, 0], [0, 0]
        qe[k] = pe[k] = 2
        H = H + LAY2.monomial(a, qexp=tuple(qe), trunc_degree=4)
        H = H + LAY2.monomial(a, pexp=tuple(pe), trunc_degree=4)
    if eps:
        H = H + LAY2.monomial(eps, qexp=(2, 2), trunc_degree=4)
    return H


def cubic_oscillator(c):
    """(q^2 + p^2) / 2 + c q^3."""
    return (LAY1.monomial(0.5, qexp=(2,), trunc_degree=4)
            + LAY1.monomial(0.5, pexp=(2,), trunc_degree=4)
            + LAY1.monomial(c, qexp=(3,), trunc_degree=4))


def torus_cases():
    """(name, H, r, samples, seed, keyword arguments) per scan."""
    cases = []
    for bench_seed in (1, 2, 3):    # perfbench's TorusScan at that seed
        seed = random.Random(bench_seed).randrange(2 ** 32)
        for eps, r in ((0.0, 0.5), (0.05, 0.25)):
            cases.append((f"bench-seed{bench_seed}-eps{eps}-r{r}",
                          golden_oscillator(eps), r, 16, seed,
                          {"steps": 2048, "windows": 2}))
    for c, r in ((0.4, 0.3), (0.4, 0.55), (1.0, 0.55)):
        cases.append((f"monotone-c{c}-r{r}", cubic_oscillator(c), r, 15,
                      11, {}))
    cases.append(("criterion10-integrable-r0.5", golden_oscillator(), 0.5,
                  200, CRITERION_10_SEED, {}))
    for r in (0.5, 0.25, 0.1):
        cases.append((f"criterion10-eps0.05-r{r}", golden_oscillator(0.05),
                      r, 100, CRITERION_10_SEED, {}))
    return cases


def capture_torus(out, bits):
    out.mkdir(parents=True)
    bits.mkdir(parents=True)
    for name, H, r, samples, seed, kwargs in torus_cases():
        rep = torus_scan(H, r, samples, seed, **kwargs)
        lines = [f"{i} {rec.classification} {rec.escape_step} "
                 f"{rec.escape_reason}" for i, rec in enumerate(rep.records)]
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n")
        lines = [f"{i} {hashlib.sha256(rec.trajectory.tobytes()).hexdigest()}"
                 f" {show_coeff(rec.energy_drift)} {show_coeff(rec.stability)}"
                 f" {show_coeff(rec.window_frequencies)}"
                 for i, rec in enumerate(rep.records)]
        (bits / f"{name}.txt").write_text("\n".join(lines) + "\n")


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():
        print(f"{out} exists; pick a new directory", file=sys.stderr)
        return 2
    capture_cli(out / "cli")
    capture_engine(out / "engine")
    capture_algebra(out / "algebra")
    capture_jets(out / "jets")
    capture_torus(out / "torus", out / "torus-bits")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
