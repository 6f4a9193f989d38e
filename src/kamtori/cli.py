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

Each option is declared once, in OPTIONS, and checked before any work:
a value outside its rule exits 2.  Every run prints a single JSON
artifact to stdout whose "config" block records the options as given:
re-running the same config reproduces the artifact byte for byte (float
results subject to platform rounding).  Bulk tables go to CSV files,
summaries to stdout.  Exit codes: 0 success, 1 module/domain error
(machine-readable JSON on stderr), 2 config/schema violation.

Jet files are JSON: {"n": 1, "trunc_degree": 8, "coeffs": {"3,0": "1"}}
with exponent keys "q_1..q_n,p_1..p_n" and string coefficients (parsed
exactly in rational mode, as floats in float mode; {"re": ..., "im":
...} for complex entries).  Problem files for `kam run` add "alpha" and
"b" (and optionally "a", "base_degree", "k_offset", "divisor_floor").
A given "a" must have alpha as its action coefficients: its quadratic
part is sum alpha_k p_k q_k, the model whose divisors the run uses.
"""

import argparse
import csv
import functools
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
from .torusverify import _window_length, torus_scan

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


def _decay(v):
    base = Fraction(2) ** Fraction(v.rho_exp)
    vals = [base ** (k + v.rho_shift) for k in range(v.kmax + 1)]
    if v.mode == FLOAT:
        try:
            vals = [float(x) for x in vals]
        except OverflowError:
            raise ValueError("rho_k overflows a float") from None
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


# -------------------------------------------------------------------- checks
#
# A check takes an option's argparse value and the options resolved so
# far (earlier rows of its table), and returns the value a command uses;
# a ValueError from a check is a config violation.

def _rule(text, ok):
    """Pass a value when ok(value) holds, or when it is None (unset)."""
    def check(value, v):
        if value is not None and not ok(value):
            raise ValueError(f"must be {text}, got {value}")
        return value
    return check


def _finite(x):
    return not isinstance(x, float) or math.isfinite(x)  # exact ones are


_NONNEG = _rule("nonnegative", lambda x: x >= 0)
_POSITIVE = _rule("positive", lambda x: x > 0)
_NONZERO = _rule("nonzero", lambda x: x != 0)
_FINITE = _rule("finite", _finite)
_FINITE_POSITIVE = _rule("finite and positive", lambda x: _finite(x) and x > 0)
_FINITE_NONNEG = _rule("finite and nonnegative",
                       lambda x: _finite(x) and x >= 0)


def _in_mode(rule):
    """A number parsed in the run's --mode, then checked by RULE."""
    return lambda text, v: rule(
        None if text is None else _parse_number(text, v.mode), v)


def _each(rule):
    """A comma-separated list of floats, each checked by RULE."""
    return lambda text, v: [rule(x, v) for x in _parse_vector(text, FLOAT)]


_AT_LEAST_TWO = _rule("at least 2", lambda x: x >= 2)


def _windows(windows, v):
    """At least 2 windows, each of at least 64 of the --steps + 1 samples."""
    _window_length(v.steps + 1, _AT_LEAST_TWO(windows, v))
    return windows


def _alpha(text, v):
    return arithmetic.FrequencyVector(_parse_vector(text, v.mode))


def _center(text, v):
    """The ball center: --alpha itself unless given, of --alpha's length."""
    if not text:
        return [float(c) for c in v.alpha]
    center = _each(_FINITE)(text, v)
    if len(center) != v.alpha.dim:
        raise ValueError(f"has {len(center)} entries, not {v.alpha.dim}")
    return center


def _t_values(text, v):
    """The flow times: --t-grid start:stop:count, else --t alone."""
    if not text:
        if v.t is None:
            raise ValueError("lattice needs --t or --t-grid")
        return [v.t]
    try:
        start, stop, count = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError("needs start:stop:count") from None
    if not (math.isfinite(start) and math.isfinite(stop)
            and count.is_integer() and count >= 1):
        raise ValueError(f"needs finite ends and a whole count >= 1, "
                         f"got {text}")
    count = int(count)
    return [start + (stop - start) * i / (count - 1) if count > 1 else start
            for i in range(count)]


# --------------------------------------------------------------- the options
#
# OPTIONS[command] holds (flag, kind, default, check[, help]) per option:
# kind is an argparse type, a list of choices, or `list` for one or more
# strings.  Every option but those in _NOT_IN_CONFIG enters the config
# block as given.

REQUIRED = object()
_NOT_IN_CONFIG = {"--out", "--out-dir", "--csv", "--center"}

_ALPHA = ("--alpha", str, REQUIRED, _alpha,
          "comma-separated frequency components")
_KMAX = ("--kmax", int, REQUIRED, _NONNEG)
_NORM = ("--norm", ["euclidean", "sup"], "euclidean", None)
_RHO = [("--rho-exp", int, -6, None, "rho_k = 2^(rho-exp (k + rho-shift))"),
        ("--rho-shift", int, 0, None)]
_MODE = ("--mode", [RATIONAL, FLOAT], RATIONAL, None)
_SEED = ("--seed", int, 0, _NONNEG)
_OUT = [("--out", str, None, None,
         "also write the JSON artifact to this file"),
        ("--out-dir", str, None, None,
         "base directory for relative outputs (default: env KAMTORI_OUT)")]
_CSV = ("--csv", str, None, None, "write the bulk table to this CSV file")

OPTIONS = {
    "sigma": [_ALPHA, _KMAX, _NORM, *_OUT, _MODE],
    "bruno": [_ALPHA, _KMAX, _NORM, *_OUT, _MODE],
    "density": [
        _ALPHA, _KMAX,
        ("--radii", str, REQUIRED, _each(_FINITE_POSITIVE),
         "comma-separated ball radii"),
        ("--samples", int, REQUIRED, _POSITIVE), *_RHO,
        ("--center", str, None, _center,
         "ball center (default: alpha itself)"),
        _NORM, *_OUT, _MODE, _SEED, _CSV],
    "lattice": [
        _ALPHA, ("--t", float, None, _FINITE),
        ("--t-grid", str, None, _t_values, "start:stop:count"),
        ("--coeff-bound", int, 64, _POSITIVE), *_OUT, _MODE, _CSV],
    "strips": [
        _ALPHA, _KMAX,
        ("--r", str, REQUIRED, _in_mode(_FINITE_POSITIVE), "ball radius"),
        *_RHO, _NORM, *_OUT, _MODE, _CSV],
    "birkhoff": [
        ("--H", str, REQUIRED, None, "Hamiltonian jet JSON file"),
        ("--l", int, REQUIRED, _POSITIVE,
         "action degree: normalize to order 2l"),
        ("--coordinates", ["real", "morse"], "real", None),
        ("--strategy", ["per-degree", "per-monomial"], "per-degree", None),
        ("--divisor-floor", str, None, _in_mode(_FINITE_NONNEG)),
        *_OUT, _MODE],
    "kam run": [
        ("--problem", str, REQUIRED, None),
        ("--stages", int, None, _NONNEG,
         "stage budget (default: engine choice)"),
        *_OUT, _MODE],
    "torus scan": [
        ("--H", str, REQUIRED, None, "Hamiltonian jet JSON file"),
        ("--r", float, REQUIRED, _FINITE_POSITIVE),
        ("--samples", int, REQUIRED, _POSITIVE),
        ("--dt", float, 0.02, _FINITE_POSITIVE),
        ("--steps", int, 8192, _POSITIVE),
        ("--windows", int, 4, _windows),
        ("--tol-energy", float, 1e-6, _FINITE_POSITIVE),
        ("--tol-freq", float, 1e-4, _FINITE_POSITIVE),
        ("--escape-factor", float, 10.0, _FINITE_POSITIVE),
        *_OUT, _SEED, _CSV],
    "report": [("--inputs", list, REQUIRED, None), *_OUT],
}


def _resolve(args):
    """Every option of ARGS' command through its check, in table order,
    plus the artifact's config block; raises SchemaError on the first
    value outside its rule, before any work is done."""
    v = argparse.Namespace(**vars(args))
    v.config = {"command": args.name}
    for flag, _, _, check, *_ in OPTIONS[args.name]:
        dest = flag[2:].replace("-", "_")
        if flag not in _NOT_IN_CONFIG:
            v.config[flag[2:]] = getattr(args, dest)
        if check is not None:
            try:
                setattr(v, dest, check(getattr(args, dest), v))
            except ValueError as exc:
                raise SchemaError(f"{flag}: {exc}") from None
    return v


# --------------------------------------------------------------------- output

def _resolve_out(path, args):
    if path is None or os.path.isabs(path):
        return path
    base = args.out_dir or os.environ.get("KAMTORI_OUT")
    return os.path.join(base, path) if base else path


def _write_text(text, args):
    """Print an artifact's text and copy it to --out when one is given."""
    print(text)
    out = _resolve_out(args.out, args)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _write_csv(path, header, rows, args):
    path = _resolve_out(path, args)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ----------------------------------------------------------------- commands
#
# A command takes the resolved options and returns its artifact body, or
# (body, CSV header, CSV rows) when it has a bulk table for --csv.

def _cmd_sigma(v):
    return {"sigma": arithmetic.sigma(v.alpha, v.kmax, norm=v.norm)}


def _cmd_bruno(v):
    body = _cmd_sigma(v)
    body["bruno"] = arithmetic.bruno_diagnostic(body["sigma"], v.kmax)
    return body


def _cmd_density(v):
    a = arithmetic.sigma(v.alpha, v.kmax, norm=v.norm)
    rho = _decay(v)
    ident = arithmetic.SmoothMap.identity(len(v.center))
    sweep = [arithmetic.density_estimate(
        ident, tuple(v.center), a, rho, r, v.samples, v.kmax, seed=v.seed,
        norm=v.norm).to_json_dict() for r in v.radii]
    header = ["radius", "fraction_in_class", "sample_count", "rng_seed"]
    return ({"center": v.center, "sweep": sweep}, header,
            [[rep[key] for key in header] for rep in sweep])


def _cmd_lattice(v):
    basis = arithmetic.lattice_basis(v.alpha)
    rows = []
    for t in v.t_grid:
        delta, short = arithmetic.flow_and_shortest(basis, t, v.coeff_bound)
        rows.append({"t": t, "delta": float(delta), "shortest": list(short)})
    return ({"rows": rows}, ["t", "delta", "shortest"],
            [[r["t"], r["delta"], " ".join(str(c) for c in r["shortest"])]
             for r in rows])


def _cmd_strips(v):
    a = arithmetic.sigma(v.alpha, v.kmax, norm=v.norm)
    strips = arithmetic.strip_analysis(v.alpha, a, _decay(v), v.r, v.kmax,
                                       norm=v.norm)
    hit = strips.intersects_ball
    body = {
        "strip_count": len(strips),
        "ball_intersections": [
            {"index": index, "k": k, "width": width}
            for index, k, width in zip(strips.index[hit].tolist(),
                                       strips.k[hit].tolist(),
                                       strips.width[hit].tolist())],
        "min_width": float(strips.width.min()) if len(strips) else None,
    }
    # a generator: one record per strip is built only when --csv asks
    rows = ([" ".join(map(str, rec.index)), rec.k, rec.width,
             int(rec.intersects_ball)] for rec in strips)
    return body, ["index", "k", "width", "intersects_ball"], rows


def _cmd_birkhoff(v):
    jet, _ = _jet_from_dict(_load_json_file(v.H), v.mode,
                            what="Hamiltonian jet")
    eh = EllipticHamiltonian(jet, coordinate_mode={
        "real": REAL_ELLIPTIC, "morse": COMPLEX_MORSE}[v.coordinates])
    return {"result": birkhoff_normalize(eh, v.l,
                                         divisor_floor=v.divisor_floor,
                                         strategy=v.strategy)}


def _cmd_kam_run(v):
    """Writes its own JSON lines, one per stage and the artifact last, and
    returns the exit code: 1 when the run does not succeed."""
    data = _load_json_file(v.problem)
    try:
        n = int(data["n"])
        trunc = int(data["trunc_degree"])
        # FrequencyVector refuses complex entries with a TypeError; a zero
        # component has no action monomial p_k q_k in the model
        alpha = arithmetic.FrequencyVector(
            _NONZERO(_parse_number(x, v.mode), v) for x in data["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"problem file needs n, trunc_degree and a real alpha: "
            f"{exc}") from None
    if "b" not in data:
        raise SchemaError("problem file needs a perturbation jet 'b'")
    lay = SymplecticLayout(n)
    b, _ = _jet_from_dict(
        {"n": n, "trunc_degree": trunc, "coeffs": data["b"]},
        v.mode, what="perturbation b")
    if "a" in data:
        a, _ = _jet_from_dict(
            {"n": n, "trunc_degree": trunc, "coeffs": data["a"]},
            v.mode, what="model a")
        if a.degree_slice(2) != lay.quadratic_model(alpha, trunc):
            raise SchemaError(
                "model a: its quadratic part must be sum alpha_k p_k q_k "
                "with the file's alpha as its action coefficients")
    else:
        a = lay.quadratic_model(alpha, trunc)
    floor = (_parse_number(data["divisor_floor"], v.mode)
             if "divisor_floor" in data else None)
    problem = KamProblem(
        layout=lay, a=a, b=b, max_stage=v.stages,
        base_degree=int(data.get("base_degree", 3)),
        k_offset=int(data.get("k_offset", 0)),
        divisor_floor=floor)
    final, trace = kam_iterate(problem)
    lines = [json.dumps(to_jsonable(st), sort_keys=True) for st in trace]
    lines.append(json.dumps(to_jsonable(
        {"config": v.config, "final": final}), sort_keys=True))
    _write_text("\n".join(lines), v)
    return 0 if final.success else 1


def _cmd_torus_scan(v):
    jet, _ = _jet_from_dict(_load_json_file(v.H), FLOAT,
                            what="Hamiltonian jet")
    rep = torus_scan(jet, v.r, v.samples, seed=v.seed, dt=v.dt,
                     steps=v.steps, windows=v.windows,
                     tol_energy=v.tol_energy, tol_freq=v.tol_freq,
                     escape_factor=v.escape_factor)
    return ({"report": rep}, *rep.csv_rows())


def _cmd_report(v):
    sections = []
    for path in v.inputs:
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
    return {"sections": sections}


# command (nested ones as "group leaf") -> (function, help); a group
# itself has no function and comes before its leaves
COMMANDS = {
    "sigma": (_cmd_sigma, "smallest small-divisor sequence"),
    "bruno": (_cmd_bruno, "sigma + summability diagnostic"),
    "density": (_cmd_density,
                "class-membership fraction over a radius sweep"),
    "lattice": (_cmd_lattice, "diagonal-flow shortest vectors"),
    "strips": (_cmd_strips, "resonance strip decomposition"),
    "birkhoff": (_cmd_birkhoff, "normal form of an elliptic jet"),
    "kam": (None, "stage recurrence"),
    "kam run": (_cmd_kam_run, "run a problem file"),
    "torus": (None, "orbit scans"),
    "torus scan": (_cmd_torus_scan, "sample a ball and classify"),
    "report": (_cmd_report, "digest earlier artifacts"),
}


@functools.cache
def build_parser():
    parser = _Parser(prog="kamtori",
                     description="small divisors, normal forms, torus scans")
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (run, text) in COMMANDS.items():
        group, _, leaf = command.rpartition(" ")
        p = subs[group].add_parser(leaf, help=text)
        if run is None:
            subs[command] = p.add_subparsers(dest=f"{command}_command",
                                             required=True)
            continue
        for flag, kind, default, _, *help_text in OPTIONS[command]:
            kw = ({"nargs": "+"} if kind is list else {"choices": kind}
                  if isinstance(kind, list) else {"type": kind})
            p.add_argument(flag, required=default is REQUIRED,
                           default=None if default is REQUIRED else default,
                           help=help_text[0] if help_text else None, **kw)
        p.set_defaults(run=run, name=command)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        v = _resolve(args)
        result = args.run(v)
        if isinstance(result, int):     # kam run printed its JSON lines
            return result
        body, *table = result if isinstance(result, tuple) else (result,)
        _write_text(json.dumps(to_jsonable({"config": v.config, **body}),
                               sort_keys=True, indent=2), v)
        if table and v.csv:
            _write_csv(v.csv, *table, v)
        return 0
    except SchemaError as exc:
        _print_error("schema", exc)
        return 2
    except (KamtoriError, ValueError, ZeroDivisionError, OSError) as exc:
        _print_error(type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
