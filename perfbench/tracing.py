"""Spans and counts around kamtori's public functions, for the traced run.

The wrappers live here, not in the library: ``install`` replaces each
traced function in every kamtori module that holds it (modules that did
``from .poisson import bracket`` hold their own reference) and the
traced ``Jet`` methods on the class; ``uninstall`` puts the originals
back.  Spans are kept in memory as [name, start, end, parent index].
"""

import functools
import sys
import time
from fractions import Fraction


def _bits(c):
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if hasattr(c, "re") and hasattr(c, "im"):
        return max(_bits(c.re), _bits(c.im))
    return 0


def _count_init(counts, args, kwargs, result):
    counts["jets.init_calls"] += 1


def _count_mul(counts, args, kwargs, result):
    f, g = args[0], args[1]
    if hasattr(g, "coeffs"):
        counts["jets.mul_pairs"] += len(f.coeffs) * len(g.coeffs)


def _count_bracket(counts, args, kwargs, result):
    counts["poisson.bracket_calls"] += 1
    f, g = args[0], args[1]
    counts["poisson.bracket_pairs"] += len(f.coeffs) * len(g.coeffs)


def _count_lie_exp(counts, args, kwargs, result):
    counts["poisson.lie_exp_calls"] += 1


def _count_fiber(counts, args, kwargs, result):
    counts["kamengine.stages"] += len(result.trace)
    gens = [st.u_n.generator for st in result.trace if st.u_n is not None]
    counts["kamengine.solved_monomials"] += sum(len(g.coeffs) for g in gens)
    bits = [_bits(c) for jet in gens + [result.normalized]
            for c in jet.coeffs.values()]
    counts["kamengine.coeff_bits_max"] = max(
        [counts["kamengine.coeff_bits_max"]] + bits)


def _count_birkhoff(counts, args, kwargs, result):
    counts["birkhoff.generators"] += len(result.generators)


def _count_density(counts, args, kwargs, result):
    counts["arithmetic.active_constraints"] += result.active_constraints


def _count_strips(counts, args, kwargs, result):
    counts["arithmetic.strip_count"] += len(result)


def _count_scan(counts, args, kwargs, result):
    counts["torusverify.torus_like"] += sum(
        rec.classification == "torus-like" for rec in result.records)


# (module, attribute, span name, count hook); "Class.method" patches the
# method on the class.
TRACED = (
    ("kamtori.jets", "Jet.__init__", "jets.init", _count_init),
    ("kamtori.jets", "Jet.__mul__", "jets.mul", _count_mul),
    ("kamtori.jets", "Jet.compose", "jets.compose", None),
    ("kamtori.poisson", "bracket", "poisson.bracket", _count_bracket),
    ("kamtori.poisson", "lie_exp", "poisson.lie_exp", _count_lie_exp),
    ("kamtori.arithmetic", "sigma", "arithmetic.sigma", None),
    ("kamtori.arithmetic", "bruno_diagnostic", "arithmetic.bruno", None),
    ("kamtori.arithmetic", "density_estimate", "arithmetic.density",
     _count_density),
    ("kamtori.arithmetic", "strip_analysis", "arithmetic.strips",
     _count_strips),
    ("kamtori.birkhoff", "birkhoff_normalize", "birkhoff.normalize",
     _count_birkhoff),
    ("kamtori.kamengine", "fiber_normalize", "kamengine.fiber",
     _count_fiber),
    ("kamtori.torusverify", "torus_scan", "torusverify.scan", _count_scan),
    ("kamtori.torusverify", "classify_orbit", "torusverify.classify", None),
    ("kamtori.cli", "main", "cli.main", None),
)

# per-layer time metric -> span whose self time it reports
SELF_TIMES = {
    "torusverify.integrate_s": "torusverify.scan",
    "torusverify.analysis_s": "torusverify.classify",
    "poisson.bracket_s": "poisson.bracket",
    "poisson.lie_exp_s": "poisson.lie_exp",
    "jets.mul_s": "jets.mul",
    "jets.compose_s": "jets.compose",
    "jets.init_s": "jets.init",
    "birkhoff.self_s": "birkhoff.normalize",
    "arithmetic.sigma_s": "arithmetic.sigma",
    "arithmetic.density_s": "arithmetic.density",
    "arithmetic.strips_s": "arithmetic.strips",
    "cli.self_s": "cli.main",
}

COUNTS = (
    "torusverify.torus_like",
    "poisson.bracket_calls", "poisson.bracket_pairs",
    "poisson.lie_exp_calls",
    "jets.mul_pairs", "jets.init_calls",
    "kamengine.stages", "kamengine.solved_monomials",
    "kamengine.coeff_bits_max",
    "birkhoff.generators",
    "arithmetic.active_constraints", "arithmetic.strip_count",
    "cli.artifact_bytes",
)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return traced

    def install(self):
        for modname, attr, name, count in TRACED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, count)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] != "kamtori":
                    continue
                if getattr(other, attr, None) is orig:
                    setattr(other, attr, wrapper)
                    self._undo.append((other, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """Seconds per span name, each span minus what its children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0 - c)
        return out

    def layer_metrics(self):
        own = self.self_times()
        metrics = {m: own.get(span, 0.0) for m, span in SELF_TIMES.items()}
        metrics.update(self.counts)
        return metrics

    def write(self, path):
        """One line per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\n")
