"""Truncated multivariate power series (jets) with exact or float coefficients.

A Jet is a polynomial in m variables, truncated at total degree N, stored as
a sparse map from exponent tuples to coefficients.  Two numeric modes exist:
"exact" (int / Fraction / ComplexRational coefficients) and "float"
(float / complex).  A computation never mixes modes; converting is explicit
via to_float().

Variables may carry block labels (e.g. q/p) so that callers working
with symplectic coordinates can keep track of which slot is which; the ring
operations themselves never look inside the blocks beyond checking equality.

The scalar rules that every module shares live here: _exact_or_float
(coercion), _to_float (float conversion), _abs_float and _abs_mag (magnitudes).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from types import MappingProxyType

from .errors import ModeMixError, OrderTooLowError, ShapeMismatchError

__all__ = ["ComplexRational", "Jet", "to_jsonable"]


class ComplexRational:
    """Gaussian rational a + b·i with Fraction real and imaginary parts.

    Only exact inputs (int, Fraction, ComplexRational) are accepted;
    mixing with floats raises instead of silently losing exactness.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    # --- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _as_cr(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_cr(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_cr(other)
        return ComplexRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _as_cr(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_cr(other)
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _as_cr(other)
        return other / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ComplexRational(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- structure ------------------------------------------------------

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}j" if self.im < 0 else f"+{self.im}j"
        if self.re == 0:
            return f"{self.im}j"
        return f"{self.re}{imag}"


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ModeMixError(
        f"exact arithmetic needs int or Fraction parts, got {type(x).__name__}"
    )


def _as_cr(x):
    if isinstance(x, ComplexRational):
        return x
    return ComplexRational(x)


# ---------------------------------------------------------------------------
# coefficient coercion / mode detection
# ---------------------------------------------------------------------------

EXACT = "exact"
FLOAT = "float"


def _coerce(value, mode):
    """Normalize a raw coefficient to the canonical type of the given mode."""
    if mode == EXACT:
        if isinstance(value, ComplexRational):
            return value.re if value.im == 0 else value
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise ModeMixError(
            f"coefficient {value!r} is not exact; build the jet in float mode "
            "or convert inputs to Fraction/ComplexRational"
        )
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (Fraction, ComplexRational)):
        raise ModeMixError(
            f"coefficient {value!r} is exact; float-mode jets take float/complex"
        )
    raise ModeMixError(f"unsupported coefficient type {type(value).__name__}")


def _detect_mode(values):
    mode = None
    for v in values:
        if isinstance(v, bool):
            raise ModeMixError("bool is not a coefficient")
        got = _scalar_mode(v)
        if mode is not None and got not in (None, mode):
            raise ModeMixError("cannot mix exact and float coefficients in one jet")
        mode = mode or got
    return mode or EXACT


def _scalar_mode(value):
    if isinstance(value, (Fraction, ComplexRational)):
        return EXACT
    if isinstance(value, int):
        return None  # fits either mode
    if isinstance(value, (float, complex)):
        return FLOAT
    raise ModeMixError(f"unsupported scalar type {type(value).__name__}")


class Jet:
    """Sparse truncated power series in num_vars variables.

    coeffs maps exponent tuples to nonzero coefficients of the mode's
    canonical type (see _coerce); every stored index has total degree <=
    trunc_degree.  __init__ and the operations that make values clean
    them once; selections reuse them.  Instances are immutable.
    """

    __slots__ = ("num_vars", "trunc_degree", "_coeffs", "mode", "blocks")

    def __init__(self, num_vars, trunc_degree, coeffs=None, blocks=None, mode=None):
        if num_vars < 0 or trunc_degree < 0:
            raise ShapeMismatchError("num_vars and trunc_degree must be >= 0")
        if blocks is not None:
            blocks = tuple((str(name), int(size)) for name, size in blocks)
            if sum(size for _, size in blocks) != num_vars:
                raise ShapeMismatchError(
                    f"block sizes {blocks} do not sum to num_vars={num_vars}"
                )
        raw = dict(coeffs) if coeffs else {}
        if mode is None:
            mode = _detect_mode(raw.values())
        elif mode not in (EXACT, FLOAT):
            raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}")
        kept = {}
        for idx, value in raw.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != num_vars:
                raise ShapeMismatchError(
                    f"exponent tuple {idx} has length {len(idx)}, expected {num_vars}"
                )
            if any(e < 0 for e in idx):
                raise ShapeMismatchError(f"negative exponent in {idx}")
            if sum(idx) <= trunc_degree:
                kept[idx] = value
        self._fill(num_vars, trunc_degree, _clean(kept, mode), blocks, mode)

    @classmethod
    def _trusted(cls, num_vars, trunc_degree, coeffs, blocks, mode):
        """A jet from an operation on validated jets, whose coeffs
        already hold the invariant: keys within trunc_degree, values
        reused or cleaned once where they were made.  Only trunc_degree
        >= 0 is checked again."""
        jet = object.__new__(cls)
        jet._fill(num_vars, trunc_degree, coeffs, blocks, mode)
        return jet

    def _fill(self, num_vars, trunc_degree, coeffs, blocks, mode):
        """Store the fields; coeffs is neither cut nor cleaned."""
        if trunc_degree < 0:
            raise ShapeMismatchError("num_vars and trunc_degree must be >= 0")
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "trunc_degree", int(trunc_degree))
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("Jet instances are immutable")

    # --- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, num_vars, trunc_degree, blocks=None, mode=EXACT):
        return cls(num_vars, trunc_degree, {}, blocks=blocks, mode=mode)

    @classmethod
    def constant(cls, value, num_vars, trunc_degree, blocks=None, mode=None):
        idx = (0,) * num_vars
        return cls(num_vars, trunc_degree, {idx: value}, blocks=blocks, mode=mode)

    @classmethod
    def variable(cls, which, num_vars, trunc_degree, blocks=None, mode=EXACT):
        if not (0 <= which < num_vars):
            raise ShapeMismatchError(f"variable index {which} out of range")
        idx = tuple(1 if k == which else 0 for k in range(num_vars))
        one = 1 if mode == EXACT else 1.0
        return cls(num_vars, trunc_degree, {idx: one}, blocks=blocks, mode=mode)

    @classmethod
    def from_terms(cls, num_vars, trunc_degree, terms, blocks=None, mode=None):
        """terms: iterable of (exponent tuple, coefficient)."""
        acc = {}
        for idx, value in terms:
            idx = tuple(idx)
            acc[idx] = acc.get(idx, 0) + value
        return cls(num_vars, trunc_degree, acc, blocks=blocks, mode=mode)

    # --- inspection -------------------------------------------------------

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __getitem__(self, idx):
        idx = tuple(idx)
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self._coeffs.get(idx, zero)

    def terms(self):
        """Yield (index, coefficient) in graded-lex order (degree, exponents)."""
        for idx in sorted(self._coeffs, key=lambda idx: (sum(idx), idx)):
            yield idx, self._coeffs[idx]

    def ord(self):
        """Smallest total degree with a nonzero coefficient.

        The zero jet returns trunc_degree + 1, a sentinel meaning
        "order beyond the truncation".
        """
        if not self._coeffs:
            return self.trunc_degree + 1
        return min(sum(idx) for idx in self._coeffs)

    def max_degree(self):
        if not self._coeffs:
            return 0
        return max(sum(idx) for idx in self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.num_vars == other.num_vars and self._coeffs == other._coeffs

    # --- shape helpers ----------------------------------------------------

    def _check_like(self, other):
        if self.num_vars != other.num_vars:
            raise ShapeMismatchError(
                f"jets in {self.num_vars} and {other.num_vars} variables"
            )
        if self.blocks is not None and other.blocks is not None:
            if self.blocks != other.blocks:
                raise ShapeMismatchError(
                    f"block structures differ: {self.blocks} vs {other.blocks}"
                )
        if self.mode != other.mode:
            if not self._coeffs or not other._coeffs:
                pass  # a zero jet adapts to the other operand's mode
            else:
                raise ModeMixError(
                    "exact and float jets cannot be combined; call to_float()"
                )

    def _join(self, other):
        self._check_like(other)
        mode = self.mode
        if not self._coeffs and other._coeffs:
            mode = other.mode
        blocks = self.blocks if self.blocks is not None else other.blocks
        return min(self.trunc_degree, other.trunc_degree), blocks, mode

    def _like(self, coeffs, trunc=None):
        return Jet._trusted(self.num_vars,
                            self.trunc_degree if trunc is None else trunc,
                            coeffs, self.blocks, self.mode)

    # --- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            sm = _scalar_mode(other)
            if sm is not None and sm != self.mode and self._coeffs:
                raise ModeMixError(f"cannot add {other!r} to a {self.mode} jet")
            other = Jet.constant(other, self.num_vars, self.trunc_degree,
                                 blocks=self.blocks, mode=sm or self.mode)
        trunc, blocks, mode = self._join(other)
        acc = dict(self._coeffs)
        for idx, value in other._coeffs.items():
            cur = acc.get(idx)
            acc[idx] = value if cur is None else cur + value
        if self.trunc_degree != other.trunc_degree:     # cut the higher
            acc = {idx: v for idx, v in acc.items() if sum(idx) <= trunc}
        return Jet._trusted(self.num_vars, trunc, _clean(acc, mode), blocks,
                            mode)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self._like({idx: -value for idx, value in self._coeffs.items()})

    def scale(self, scalar):
        sm = _scalar_mode(scalar)
        if sm is not None and sm != self.mode and self._coeffs:
            raise ModeMixError(f"cannot scale a {self.mode} jet by {scalar!r}")
        if scalar == 0:
            return self._like({})
        return self._like(_clean({idx: value * scalar for idx, value
                                  in self._coeffs.items()}, self.mode))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        trunc, blocks, mode = self._join(other)
        dens, (left, right) = _numerators(self._coeffs, other._coeffs)
        acc = _product(left, _degree_rows(right), trunc)
        return Jet._trusted(self.num_vars, trunc, _finish(acc, mode, dens),
                            blocks, mode)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, scalar):
        if isinstance(scalar, Jet):
            raise TypeError("jet division is not defined; divide by a scalar")
        return self.scale((Fraction(1) if self.mode == EXACT else 1.0)
                          / scalar)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers take a nonnegative integer exponent")
        out = Jet.constant(1 if self.mode == EXACT else 1.0, self.num_vars,
                           self.trunc_degree, blocks=self.blocks, mode=self.mode)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # --- filtration / selection ----------------------------------------------

    def truncate(self, degree):
        """The terms of degree <= degree, at truncation degree
        min(degree, trunc_degree): a jet never certifies beyond what it
        knew."""
        coeffs = {i: v for i, v in self._coeffs.items() if sum(i) <= degree}
        return self._like(coeffs, trunc=min(degree, self.trunc_degree))

    def degree_slice(self, degree):
        coeffs = {i: v for i, v in self._coeffs.items() if sum(i) == degree}
        return self._like(coeffs)

    def project(self, predicate):
        """Keep only monomials whose exponent tuple satisfies the predicate."""
        coeffs = {i: v for i, v in self._coeffs.items() if predicate(i)}
        return self._like(coeffs)

    # --- calculus -------------------------------------------------------------

    def derivative(self, var):
        if not (0 <= var < self.num_vars):
            raise ShapeMismatchError(f"variable index {var} out of range")
        acc = {}
        for idx, value in self._coeffs.items():
            e = idx[var]
            if e == 0:
                continue
            new = list(idx)
            new[var] = e - 1
            acc[tuple(new)] = value * e
        # differentiating degree-N information only certifies degree N-1
        return self._like(acc, trunc=max(self.trunc_degree - 1, 0))

    def compose(self, args):
        """Substitute args[k] for variable k; every substituted jet needs ord >= 1.

        The unknown outer terms start at degree N + 1 (N this jet's
        truncation degree) and substitute to order >= (N + 1)·m, where m
        is the smallest inner order, so the result is certified to degree
        min((N + 1)·m - 1, smallest inner truncation degree): past the
        outer truncation when m >= 2.

        Each outer monomial is expanded one variable power at a time, and
        a partial product keeps only the degrees the monomial can still
        reach: the result's degree minus the lowest degree its remaining
        factors add (their exponents times their inner orders).  Outer
        terms are added in graded-lex order into one coefficient dict, so
        float results do not depend on the outer jet's dict order; partial
        products and sums drop what cancels, as a jet would.

        When this jet and every substituted jet hold only Fractions, all
        of that runs on integer numerators from _numerators: each jet's
        coefficients over one denominator D (the outer D_0, the inner
        D_k), so args[k]^e is over D_k^e and a partial product over the
        product of its factors' denominators, none of them reduced.  The
        outer terms are added over the lcm L of those denominators, and
        _finish reduces each result coefficient once, as Fraction(n, D_0
        · L).  A zero numerator is a zero value, so the same keys drop at
        the same places.  Float and ComplexRational coefficients run the
        same loops on their values, partial products coerced as they are
        made (complex(x, -0.0) and x multiply to other zero signs), sums once
        by _finish (they differ only in the sign of a zero imaginary part).
        """
        args = list(args)
        if len(args) != self.num_vars:
            raise ShapeMismatchError(
                f"compose needs {self.num_vars} jets, got {len(args)}"
            )
        if not args:
            return self
        inner_vars = args[0].num_vars
        inner_blocks = args[0].blocks
        for g in args:
            if g.num_vars != inner_vars:
                raise ShapeMismatchError("substituted jets disagree on num_vars")
            if g.ord() < 1:
                raise OrderTooLowError(
                    "compose requires substituted jets with zero constant term"
                )
        ords = [g.ord() for g in args]
        trunc = min((self.trunc_degree + 1) * min(ords) - 1,
                    min(g.trunc_degree for g in args))
        mode = self.mode
        for g in args:
            if g._coeffs and self._coeffs and g.mode != mode:
                raise ModeMixError("compose cannot mix exact and float jets")
        dens, (coeffs, *inner) = _numerators(self._coeffs,
                                             *(g._coeffs for g in args))
        exact = dens is not None
        outer_den, *dens = dens if exact else [1] * (len(args) + 1)
        one = 1 if exact else Fraction(1) if mode == EXACT else 1.0

        def keep(acc):
            if exact:
                return {k: v for k, v in acc.items() if v}
            return _clean(acc, mode)

        # the outer terms that reach degree trunc, each with the
        # denominator of its unreduced numerators
        reach = []
        for idx, _ in self.terms():
            rest = sum(e * o for e, o in zip(idx, ords))
            if rest <= trunc:
                den = math.prod(d ** e for d, e in zip(dens, idx))
                reach.append((idx, coeffs[idx], rest, den))
        common = math.lcm(*(den for *_, den in reach))
        unit = {(0,) * inner_vars: one}
        # powers[k][e]: args[k]^e and its row lookup, each built once
        powers = [[(unit, None)] for _ in args]
        inner = [_degree_rows(g) for g in inner]
        acc = {}
        for idx, value, rest, den in reach:
            term = unit
            for k, e in enumerate(idx):
                if not e:
                    continue
                table = powers[k]
                while len(table) <= e:
                    power = keep(_product(table[-1][0], inner[k], trunc))
                    table.append((power, _degree_rows(power)))
                rest -= e * ords[k]
                term = keep(_product(term, table[e][1], trunc - rest))
            if exact:
                value *= common // den
            for key, v in term.items():
                v = v * value
                if v == 0:
                    continue
                cur = acc.get(key)
                if cur is not None:
                    v = cur + v
                    if v == 0:
                        del acc[key]
                        continue
                acc[key] = v
        dens = (outer_den, common) if exact else None
        return Jet._trusted(inner_vars, trunc, _finish(acc, mode, dens),
                            inner_blocks, mode)

    def evaluate(self, point):
        """Numeric evaluation at a point (tuple of scalars)."""
        point = list(point)
        if len(point) != self.num_vars:
            raise ShapeMismatchError("point length does not match num_vars")
        exact_point = all(isinstance(x, (int, Fraction)) for x in point)
        total = None
        for idx, value in self._coeffs.items():
            if self.mode == EXACT and not exact_point:
                value = _to_float(value)
            term = value
            for x, e in zip(point, idx):
                if e:
                    term = term * x ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if (self.mode == EXACT and exact_point) else 0.0
        return total

    def to_float(self):
        acc = {idx: _to_float(v) for idx, v in self._coeffs.items()}
        return Jet(self.num_vars, self.trunc_degree, acc, blocks=self.blocks,
                   mode=FLOAT)

    # --- norms ------------------------------------------------------------

    def sup_norm_bound(self, s):
        """l1-majorant of the sup norm on the polydisc of radius s:
        sum of |a_i| s^{|i|}.  Exact (Fraction) when all coefficients are
        real rationals and s is rational; float otherwise.
        """
        s = _check_radius(s)
        exact = isinstance(s, Fraction) and self.mode == EXACT and all(
            not isinstance(v, ComplexRational) for v in self._coeffs.values()
        )
        if exact:
            return sum((abs(v) * s ** sum(i) for i, v in self._coeffs.items()),
                       Fraction(0))
        sf = float(s)
        total = 0.0
        for idx, value in self._coeffs.items():
            total += _abs_float(value) * sf ** sum(idx)
        return total

    # --- serialization -------------------------------------------------------

    def var_names(self):
        if self.blocks is None:
            return [f"z{k}" for k in range(self.num_vars)]
        names = []
        for label, size in self.blocks:
            if size == 1:
                names.append(label)
            else:
                names.extend(f"{label}{k}" for k in range(size))
        return names

    def __str__(self):
        if not self._coeffs:
            return "0"
        names = self.var_names()
        parts = []
        for idx, value in self.terms():
            factors = []
            for name, e in zip(names, idx):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            cs = str(value)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or (body and cs == "1"):
                cs = "" if (body and cs == "1") else f"({cs})"
            if body:
                parts.append(f"{cs}*{body}" if cs else body)
            else:
                parts.append(str(value))
        return " + ".join(parts)

    def __repr__(self):
        return (f"Jet({self.num_vars} vars, N={self.trunc_degree}, "
                f"{self.mode}, {len(self._coeffs)} terms: {self})")

    def to_json_dict(self):
        return to_jsonable({
            "num_vars": self.num_vars,
            "trunc_degree": self.trunc_degree,
            "mode": self.mode,
            "blocks": self.blocks or None,
            "terms": list(self.terms()),
        })


def _degree_rows(terms):
    """A lookup room -> the (index, value) pairs of terms whose total
    degree is <= room, in terms' order.

    terms maps exponent tuples to what a pair loop needs of a right term:
    its coefficient, or the coefficient with more per-term data.  Each
    row is built on its first lookup and kept, so a pair loop that asks
    once per left term does the degree test once per room and right term,
    not once per pair, and meets the right terms in their own order.
    """
    graded = [(j, b, sum(j)) for j, b in terms.items()]
    rows = {}

    def within(room):
        row = rows.get(room)
        if row is None:
            row = rows[room] = [(j, b) for j, b, d in graded if d <= room]
        return row
    return within


def _numerators(*dicts):
    """(dens, numerator dicts): the way into integer numerators.

    When every value of every dict is a Fraction, each dict comes back
    as {key: n} with each value equal to n / D, D its entry of dens: the
    lcm of its denominators (1 for an empty dict).  Otherwise dens is
    None and the dicts come back as they are: float and ComplexRational
    coefficients stay on their values.
    """
    dens, out = [], []
    for coeffs in dicts:
        ratios = []
        for v in coeffs.values():
            if not isinstance(v, Fraction):
                return None, dicts
            ratios.append(v.as_integer_ratio())
        den = math.lcm(*{d for _, d in ratios})
        dens.append(den)
        out.append({k: n * (den // d) for k, (n, d) in zip(coeffs, ratios)})
    return dens, out


def _finish(acc, mode, dens):
    """A kernel's accumulator as a jet's coefficients: the way out.

    With dens (the denominators from _numerators whose product the
    accumulated numerators stand over), one Fraction(n, prod(dens)) per
    nonzero n, the order kept; with dens None, _clean(acc, mode).
    """
    if dens is None:
        return _clean(acc, mode)
    den = math.prod(dens)
    return {k: Fraction(n, den) for k, n in acc.items() if n}


def _product(left, within, cap):
    """Coefficient dict of left · right, without exponents of degree > cap.

    left maps exponent tuples to coefficients; within is the
    _degree_rows lookup of the right operand's dict, built once by the
    caller so that an operand used again (compose's powers) is not
    graded again.  Pairs run left term outer, right term inner, in the
    dicts' order, and each product is added in that order.  Float sums
    and the result's key order are thus those of the plain double loop,
    bit for bit, whatever the degree filter skips: within keeps the
    right terms' order.  Any other order (by degree, say) would move
    float results at roundoff.  Zeros are kept; callers clean.

    The loop needs only ring scalars.  Exact callers (Jet.__mul__ and
    compose) pass integer numerators from _numerators, over one
    denominator per operand, so a pair costs one int product and one int
    sum, and _finish reduces each output to a Fraction once.
    """
    acc = {}
    get = acc.get
    for i, a in left.items():
        for j, b in within(cap - sum(i)):
            k = tuple(map(add, i, j))
            ab = a * b
            cur = get(k)
            acc[k] = ab if cur is None else cur + ab
    return acc


def _clean(acc, mode):
    """The coefficients a jet keeps: each coerced to its mode (a float in
    float mode already is), zeros dropped, the order kept."""
    out = {}
    for k, v in acc.items():
        if type(v) is not float or mode != FLOAT:
            v = _coerce(v, mode)
        if v != 0:
            out[k] = v
    return out


def _exact_or_float(x):
    """x as a Fraction when it is an int or Fraction, else as a float."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else float(x)


def _to_float(value):
    """A complex for a ComplexRational or complex, else a float."""
    if isinstance(value, (ComplexRational, complex)):
        return complex(value)
    return float(value)


def _abs_float(value):
    """|value| as a float."""
    if isinstance(value, ComplexRational):
        return math.sqrt(float(value.abs2()))
    if isinstance(value, Fraction):
        return abs(float(value))
    return abs(value)


def _abs_mag(value):
    """|value| as Fraction when exact, float otherwise (divisor ledger)."""
    if isinstance(value, ComplexRational):
        if not value.im:
            return abs(value.re)
        if not value.re:
            return abs(value.im)
        return math.sqrt(float(value.abs2()))
    return abs(value)


def _check_radius(s):
    s = _exact_or_float(s)
    if not 0 < s < math.inf:
        raise ValueError("radius s must be positive and finite")
    return s


def to_jsonable(x):
    """The JSON form of a result; every artifact goes through this one rule.

    Fraction -> "p/q"; ComplexRational -> {"re", "im"} as strings; complex
    -> {"re", "im"} as floats; numpy scalars -> Python scalars; objects
    with a ``to_json_dict`` -> that dict; dicts (keys as str), lists and
    tuples recursively.  Anything else is returned as it is.
    """
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, ComplexRational):
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if hasattr(x, "to_json_dict"):  # before tuple: BrunoReport is one
        return x.to_json_dict()
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if hasattr(x, "item") and not isinstance(x, (str, bytes)):
        return x.item()  # numpy scalars
    return x


def _all_indices(num_vars, max_degree):
    if num_vars == 0:
        yield ()
        return
    for head in range(max_degree + 1):
        for tail in _all_indices(num_vars - 1, max_degree - head):
            yield (head,) + tail
