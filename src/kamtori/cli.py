"""Command-line entry points tying the library into runnable experiments.

One executable, one subcommand per experiment family:

    sigma     smallest small-divisor sequence of a frequency vector
    bruno     sigma plus the summability diagnostic
    density   class-membership fraction over shrinking balls (sweep)
    lattice   diagonal-flow shortest-vector sweep
    strips    resonance-strip decomposition summary
    birkhoff  normal form of an elliptic Hamiltonian jet
    kam       stage-recurrence runs (JSON-lines trace)
    torus     orbit scans (CSV per orbit, JSON summary)
    report    digest of previously produced artifacts

Every run prints a single JSON artifact to stdout whose "config" block
records the resolved parameters: re-running the same config reproduces
the artifact byte for byte (float results subject to platform
rounding).  Bulk tables go to CSV files, summaries to stdout.  Exit
codes: 0 success, 1 module/domain error (machine-readable JSON on
stderr), 2 config/schema violation.

Jet files are JSON: {"n": 1, "trunc_degree": 8, "coeffs": {"3,0": "1"}}
with exponent keys "q_1..q_n,p_1..p_n" and string coefficients (parsed
exactly in rational mode, as floats in float mode; {"re": ..., "im":
...} for complex entries).  Problem files for `kam run` add "alpha" and
"b" (and optionally "a", "base_degree", "k_offset", "divisor_floor").
"""

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import arithmetic
from .birkhoff import (COMPLEX_MORSE, REAL_ELLIPTIC, EllipticHamiltonian,
                       birkhoff_normalize)
from .errors import KamtoriError
from .jets import ComplexRational, Jet, to_jsonable
from .kamengine import KamProblem, kam_iterate
from .poisson import SymplecticLayout
from .torusverify import check_finite_positive, torus_scan

RATIONAL, FLOAT = "rational", "float"


class SchemaError(ValueError):
    """A config, jet, or problem file violates the expected shape."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _print_error("schema", message)
        raise SystemExit(2)


def _print_error(kind, message):
    json.dump({"error": {"type": kind, "message": str(message)}},
              sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


# ------------------------------------------------------------------- parsing

def _parse_number(text, mode):
    if isinstance(text, dict):
        if set(text) - {"re", "im"}:
            raise SchemaError(f"complex entry {text!r} needs only re/im")
        re = _parse_number(text.get("re", "0"), mode)
        im = _parse_number(text.get("im", "0"), mode)
        if mode == RATIONAL:
            return ComplexRational(re, im)
        return complex(re, im)
    try:
        return Fraction(str(text)) if mode == RATIONAL else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad number {text!r}: {exc}") from None


def _parse_vector(text, mode):
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise SchemaError("empty number list")
    return [_parse_number(p.strip(), mode) for p in parts]


def _parse_alpha(args):
    """--alpha as a FrequencyVector; a non-finite entry is a schema error."""
    comps = _parse_vector(args.alpha, args.mode)
    try:
        return arithmetic.FrequencyVector(comps)
    except ValueError as exc:
        raise SchemaError(f"bad --alpha {args.alpha!r}: {exc}") from None


def _decay_from_args(args, k_max):
    base = Fraction(2) ** Fraction(args.rho_exp)
    vals = [base ** (k + args.rho_shift) for k in range(k_max + 1)]
    if args.mode == FLOAT:
        vals = [float(v) for v in vals]
    return arithmetic.DecaySequence(vals)


def _load_json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _load_artifact(path):
    """Read a JSON artifact, or the last document of a JSON-lines one.

    `kam run` writes one line per stage and ends with the line that holds
    its config and final result, which is what a report digests.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        error = exc
    try:
        docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        docs = []
    if not docs:
        raise SchemaError(f"{path} is not valid JSON: {error}")
    return docs[-1]


def _jet_from_dict(data, mode, *, what="jet"):
    try:
        n = int(data["n"])
        trunc = int(data["trunc_degree"])
        raw = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"{what} needs n, trunc_degree and coeffs: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{what} coeffs must be an object mapping "
                          "exponents to coefficients")
    lay = SymplecticLayout(n)
    terms = []
    for key, val in raw.items():
        try:
            exps = tuple(int(e) for e in str(key).split(","))
        except ValueError:
            exps = None
        if exps is None or len(exps) != 2 * n or any(e < 0 for e in exps):
            raise SchemaError(
                f"{what} exponent {key!r} must be {2 * n} nonnegative "
                "integers")
        terms.append((exps, _parse_number(val, mode)))
    jet = Jet.from_terms(lay.num_vars, trunc, terms, blocks=lay.blocks,
                         mode="exact" if mode == RATIONAL else "float")
    return jet, lay


# --------------------------------------------------------------------- output

def _resolve_out(path, args):
    if path is None or os.path.isabs(path):
        return path
    base = getattr(args, "out_dir", None) or os.environ.get("KAMTORI_OUT")
    return os.path.join(base, path) if base else path


def _write_text(text, args):
    """Print an artifact's text and copy it to --out when one is given."""
    print(text)
    out = _resolve_out(args.out, args)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _emit(artifact, args):
    _write_text(json.dumps(to_jsonable(artifact), sort_keys=True, indent=2),
                args)


def _write_csv(path, header, rows, args):
    path = _resolve_out(path, args)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _config_of(args, names):
    command = args.command
    for nested in ("kam_command", "torus_command"):
        if getattr(args, nested, None):
            command += " " + getattr(args, nested)
    cfg = {"command": command}
    for name in names:
        cfg[name.replace("_", "-")] = getattr(args, name)
    return cfg


# ----------------------------------------------------------------- commands

def _cmd_sigma(args):
    alpha = _parse_alpha(args)
    seq = arithmetic.sigma(alpha, args.kmax, norm=args.norm)
    _emit({"config": _config_of(args, ["alpha", "kmax", "norm", "mode"]),
           "sigma": seq}, args)
    return 0


def _cmd_bruno(args):
    alpha = _parse_alpha(args)
    seq = arithmetic.sigma(alpha, args.kmax, norm=args.norm)
    rep = arithmetic.bruno_diagnostic(seq, args.kmax)
    _emit({"config": _config_of(args, ["alpha", "kmax", "norm", "mode"]),
           "sigma": seq, "bruno": rep}, args)
    return 0


def _cmd_density(args):
    alpha = _parse_alpha(args)
    radii = _parse_vector(args.radii, FLOAT)
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise SchemaError(f"--radii entries must be finite and positive: "
                          f"{args.radii!r}")
    center = (_parse_vector(args.center, FLOAT) if args.center
              else [float(c) for c in alpha])
    if len(center) != alpha.dim:
        raise SchemaError(f"--center has {len(center)} entries, --alpha "
                          f"has {alpha.dim}")
    a = arithmetic.sigma(alpha, args.kmax, norm=args.norm)
    rho = _decay_from_args(args, args.kmax)
    ident = arithmetic.SmoothMap.identity(len(center))
    sweep = []
    for r in radii:
        rep = arithmetic.density_estimate(
            ident, tuple(center), a, rho, r, args.samples, args.kmax,
            seed=args.seed, norm=args.norm)
        sweep.append(rep.to_json_dict())
    artifact = {
        "config": _config_of(args, ["alpha", "kmax", "radii", "samples",
                                    "seed", "rho_exp", "rho_shift", "norm",
                                    "mode"]),
        "center": center,
        "sweep": sweep,
    }
    _emit(artifact, args)
    if args.csv:
        header = ["radius", "fraction_in_class", "sample_count", "rng_seed"]
        rows = [[rep["radius"], rep["fraction_in_class"],
                 rep["sample_count"], rep["rng_seed"]] for rep in sweep]
        _write_csv(args.csv, header, rows, args)
    return 0


def _cmd_lattice(args):
    alpha = _parse_alpha(args)
    basis = arithmetic.lattice_basis(alpha)
    if args.t_grid:
        try:
            start, stop, count = (float(x) for x in args.t_grid.split(":"))
            count = int(count)
        except ValueError:
            raise SchemaError("--t-grid needs start:stop:count") from None
        ts = [start + (stop - start) * i / (count - 1) if count > 1
              else start for i in range(count)]
    elif args.t is None:
        raise SchemaError("lattice needs --t or --t-grid")
    else:
        ts = [float(args.t)]
    rows = []
    for t in ts:
        delta, short = arithmetic.flow_and_shortest(
            basis, t, args.coeff_bound)
        rows.append({"t": t, "delta": float(delta),
                     "shortest": list(short)})
    _emit({"config": _config_of(args, ["alpha", "t", "t_grid", "coeff_bound",
                                       "mode"]),
           "rows": rows}, args)
    if args.csv:
        _write_csv(args.csv, ["t", "delta", "shortest"],
                   [[r["t"], r["delta"],
                     " ".join(str(c) for c in r["shortest"])]
                    for r in rows], args)
    return 0


def _cmd_strips(args):
    alpha = _parse_alpha(args)
    a = arithmetic.sigma(alpha, args.kmax, norm=args.norm)
    rho = _decay_from_args(args, args.kmax)
    r = _parse_number(args.r, args.mode)
    strips = arithmetic.strip_analysis(alpha, a, rho, r, args.kmax,
                                       norm=args.norm)
    hit = strips.intersects_ball
    artifact = {
        "config": _config_of(args, ["alpha", "kmax", "r", "rho_exp",
                                    "rho_shift", "norm", "mode"]),
        "strip_count": len(strips),
        "ball_intersections": [
            {"index": index, "k": k, "width": width}
            for index, k, width in zip(strips.index[hit].tolist(),
                                       strips.k[hit].tolist(),
                                       strips.width[hit].tolist())],
        "min_width": float(strips.width.min()) if len(strips) else None,
    }
    _emit(artifact, args)
    if args.csv:
        _write_csv(args.csv, ["index", "k", "width", "intersects_ball"],
                   [[" ".join(map(str, rec.index)), rec.k, rec.width,
                     int(rec.intersects_ball)] for rec in strips], args)
    return 0


def _cmd_birkhoff(args):
    data = _load_json_file(args.H)
    jet, _ = _jet_from_dict(data, args.mode, what="Hamiltonian jet")
    coordinate_mode = (REAL_ELLIPTIC if args.coordinates == "real"
                       else COMPLEX_MORSE)
    eh = EllipticHamiltonian(jet, coordinate_mode=coordinate_mode)
    floor = (_parse_number(args.divisor_floor, args.mode)
             if args.divisor_floor is not None else None)
    res = birkhoff_normalize(eh, args.l, divisor_floor=floor,
                             strategy=args.strategy)
    _emit({"config": _config_of(args, ["H", "l", "coordinates", "strategy",
                                       "divisor_floor", "mode"]),
           "result": res}, args)
    return 0


def _cmd_kam_run(args):
    data = _load_json_file(args.problem)
    try:
        n = int(data["n"])
        trunc = int(data["trunc_degree"])
        # FrequencyVector refuses complex entries with a TypeError
        alpha = arithmetic.FrequencyVector(
            _parse_number(x, args.mode) for x in data["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"problem file needs n, trunc_degree and a real alpha: "
            f"{exc}") from None
    if "b" not in data:
        raise SchemaError("problem file needs a perturbation jet 'b'")
    lay = SymplecticLayout(n)
    b, _ = _jet_from_dict(
        {"n": n, "trunc_degree": trunc, "coeffs": data["b"]},
        args.mode, what="perturbation b")
    if "a" in data:
        a, _ = _jet_from_dict(
            {"n": n, "trunc_degree": trunc, "coeffs": data["a"]},
            args.mode, what="model a")
    else:
        a = lay.quadratic_model(alpha, trunc)
    floor = (_parse_number(data["divisor_floor"], args.mode)
             if "divisor_floor" in data else None)
    problem = KamProblem(
        layout=lay, a=a, b=b, alpha=alpha,
        max_stage=args.stages,
        base_degree=int(data.get("base_degree", 3)),
        k_offset=int(data.get("k_offset", 0)),
        divisor_floor=floor)
    final, trace = kam_iterate(problem)
    lines = [json.dumps(to_jsonable(st), sort_keys=True) for st in trace]
    lines.append(json.dumps(to_jsonable(
        {"config": _config_of(args, ["problem", "stages", "mode"]),
         "final": final}), sort_keys=True))
    _write_text("\n".join(lines), args)
    return 0 if final.success else 1


def _cmd_torus_scan(args):
    try:
        check_finite_positive(r=args.r, dt=args.dt,
                              escape_factor=args.escape_factor)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    data = _load_json_file(args.H)
    jet, _ = _jet_from_dict(data, FLOAT, what="Hamiltonian jet")
    rep = torus_scan(jet, args.r, args.samples, seed=args.seed, dt=args.dt,
                     steps=args.steps, windows=args.windows,
                     tol_energy=args.tol_energy, tol_freq=args.tol_freq,
                     escape_factor=args.escape_factor)
    _emit({"config": _config_of(args, ["H", "r", "samples", "seed", "dt",
                                       "steps", "windows", "tol_energy",
                                       "tol_freq", "escape_factor"]),
           "report": rep}, args)
    if args.csv:
        header, rows = rep.csv_rows()
        _write_csv(args.csv, header, rows, args)
    return 0


def _cmd_report(args):
    sections = []
    for path in args.inputs:
        data = _load_artifact(path)
        cfg = data.get("config", {})
        headline = {}
        for key in ("sigma", "bruno", "sweep", "rows", "strip_count",
                    "result", "report", "final"):
            if key in data:
                headline[key] = data[key]
        sections.append({"path": path,
                         "command": cfg.get("command", "unknown"),
                         "config": cfg, "headline": headline})
    _emit({"config": {"command": "report", "inputs": list(args.inputs)},
           "sections": sections}, args)
    return 0


# -------------------------------------------------------------------- parser

def _add_common(sub, *, mode=True, seed=False, csv_flag=False):
    sub.add_argument("--out", default=None,
                     help="also write the JSON artifact to this file")
    sub.add_argument("--out-dir", default=None,
                     help="base directory for relative outputs "
                          "(default: env KAMTORI_OUT)")
    if mode:
        sub.add_argument("--mode", choices=[RATIONAL, FLOAT],
                         default=RATIONAL)
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if csv_flag:
        sub.add_argument("--csv", default=None,
                         help="write the bulk table to this CSV file")


def build_parser():
    parser = _Parser(prog="kamtori",
                     description="small divisors, normal forms, torus scans")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sigma", help="smallest small-divisor sequence")
    p.add_argument("--alpha", required=True,
                   help="comma-separated frequency components")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--norm", choices=["euclidean", "sup"],
                   default="euclidean")
    _add_common(p)
    p.set_defaults(func=_cmd_sigma)

    p = subs.add_parser("bruno", help="sigma + summability diagnostic")
    p.add_argument("--alpha", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--norm", choices=["euclidean", "sup"],
                   default="euclidean")
    _add_common(p)
    p.set_defaults(func=_cmd_bruno)

    p = subs.add_parser("density",
                        help="class-membership fraction over a radius sweep")
    p.add_argument("--alpha", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--radii", required=True,
                   help="comma-separated ball radii")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--rho-exp", type=int, default=-6,
                   help="rho_k = 2^(rho-exp (k + rho-shift))")
    p.add_argument("--rho-shift", type=int, default=0)
    p.add_argument("--center", default=None,
                   help="ball center (default: alpha itself)")
    p.add_argument("--norm", choices=["euclidean", "sup"],
                   default="euclidean")
    _add_common(p, seed=True, csv_flag=True)
    p.set_defaults(func=_cmd_density)

    p = subs.add_parser("lattice", help="diagonal-flow shortest vectors")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", default=None, help="start:stop:count")
    p.add_argument("--coeff-bound", type=int, default=64)
    _add_common(p, csv_flag=True)
    p.set_defaults(func=_cmd_lattice)

    p = subs.add_parser("strips", help="resonance strip decomposition")
    p.add_argument("--alpha", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--r", required=True, help="ball radius")
    p.add_argument("--rho-exp", type=int, default=-6)
    p.add_argument("--rho-shift", type=int, default=0)
    p.add_argument("--norm", choices=["euclidean", "sup"],
                   default="euclidean")
    _add_common(p, csv_flag=True)
    p.set_defaults(func=_cmd_strips)

    p = subs.add_parser("birkhoff", help="normal form of an elliptic jet")
    p.add_argument("--H", required=True, help="Hamiltonian jet JSON file")
    p.add_argument("--l", type=int, required=True,
                   help="action degree: normalize to order 2l")
    p.add_argument("--coordinates", choices=["real", "morse"],
                   default="real")
    p.add_argument("--strategy", choices=["per-degree", "per-monomial"],
                   default="per-degree")
    p.add_argument("--divisor-floor", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_birkhoff)

    p = subs.add_parser("kam", help="stage recurrence")
    kam_subs = p.add_subparsers(dest="kam_command", required=True)
    pr = kam_subs.add_parser("run", help="run a problem file")
    pr.add_argument("--problem", required=True)
    pr.add_argument("--stages", type=int, default=None,
                    help="stage budget (default: engine choice)")
    _add_common(pr)
    pr.set_defaults(func=_cmd_kam_run)

    p = subs.add_parser("torus", help="orbit scans")
    torus_subs = p.add_subparsers(dest="torus_command", required=True)
    ps = torus_subs.add_parser("scan", help="sample a ball and classify")
    ps.add_argument("--H", required=True, help="Hamiltonian jet JSON file")
    ps.add_argument("--r", type=float, required=True)
    ps.add_argument("--samples", type=int, required=True)
    ps.add_argument("--dt", type=float, default=0.02)
    ps.add_argument("--steps", type=int, default=8192)
    ps.add_argument("--windows", type=int, default=4)
    ps.add_argument("--tol-energy", type=float, default=1e-6)
    ps.add_argument("--tol-freq", type=float, default=1e-4)
    ps.add_argument("--escape-factor", type=float, default=10.0)
    _add_common(ps, mode=False, seed=True, csv_flag=True)
    ps.set_defaults(func=_cmd_torus_scan)

    p = subs.add_parser("report", help="digest earlier artifacts")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_common(p, mode=False)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except SchemaError as exc:
        _print_error("schema", exc)
        return 2
    except (KamtoriError, ValueError, ZeroDivisionError, OSError) as exc:
        _print_error(type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
