"""Fitted boundedness constants for operators on scaled jet norms.

A linear operator ``u`` on jets is *k-bounded* on the scale ``(0, tau]`` if

    |u(x)|_s  <=  C * sigma^(-k) * |x|_(s+sigma)

for all 0 < s < tau, 0 < sigma <= tau - s, where ``|.|_s`` is the
l1-majorant norm ``Jet.sup_norm_bound(s)``.  The smallest such ``C`` is
approximated from below by maximizing the ratio over a finite dyadic grid
of ``(s, sigma)`` pairs and a basis of monomial inputs; the report records
the grid so every claim can be replayed.  Exact rational arithmetic is used
whenever ``tau`` and the operator outputs are rational.

``moderate_growth`` reports the partial sums of
``sum_n log(max(1, N_n)) / 2^n`` over a finite sequence of fitted
constants ``N_n``; like ``arithmetic.bruno_diagnostic`` it never decides
whether the infinite sum is bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPositiveTermError
from .jets import EXACT, Jet, _all_indices, _exact_or_float, to_jsonable


# ---------------------------------------------------------------------------
# boundedness fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundednessFit:
    """Result of fitting the smallest k-bounded constant on a finite grid.

    N_hat is the grid maximum of |u(x)|_s * sigma^k / |x|_(s+sigma); the
    residuals give N_hat minus the best ratio at each grid point, so
    replaying the grid must reproduce N_hat with all residuals >= 0.
    """

    k: int
    tau: object
    N_hat: object
    grid: tuple
    residuals: tuple
    max_point: tuple          # (s, sigma, exponent tuple)
    basis_degree: int
    num_vars: int

    def to_json_dict(self):
        s, sigma, exponent = self.max_point
        return to_jsonable({
            "k": self.k,
            "tau": self.tau,
            "N_hat": self.N_hat,
            "grid_spec": {
                "tau": self.tau,
                "grid_size": int(round(math.sqrt(len(self.grid)))),
                "basis_degree": self.basis_degree,
                "num_vars": self.num_vars,
            },
            "max_point": {"s": s, "sigma": sigma, "exponent": exponent},
        })


def dyadic_grid(tau, grid_size):
    """(s, sigma) = (tau/2^i, tau/2^j), i, j = 1..grid_size.

    Every pair satisfies s + sigma <= tau, so the whole square is admissible
    for the boundedness inequality.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1 (empty grid)")
    tau = _exact_or_float(tau)
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    scales = [tau / 2 ** i for i in range(1, grid_size + 1)]
    return tuple((s, sigma) for s in scales for sigma in scales)


def fit_bounded_constant(u, k, tau, basis_degree, grid_size,
                         num_vars=1, blocks=None, input_trunc=None):
    """Fit the smallest constant C with |u(x)|_s <= C sigma^(-k) |x|_(s+sigma).

    ``u`` is any linear callable Jet -> Jet.  Inputs x range over the
    monomials of total degree <= basis_degree in ``num_vars`` variables
    (carrying ``input_trunc`` headroom, default basis_degree + 4, so
    degree-raising operators are measured exactly), and (s, sigma) over
    ``dyadic_grid(tau, grid_size)``.  Deterministic: same arguments, same
    fit, exactly.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if basis_degree < 0:
        raise ValueError("basis_degree must be >= 0")
    grid = dyadic_grid(tau, grid_size)
    tau = _exact_or_float(tau)
    trunc = basis_degree + 4 if input_trunc is None else input_trunc

    best = [None] * len(grid)       # best ratio per grid point
    arg = [None] * len(grid)        # exponent achieving it
    for e in _all_indices(num_vars, basis_degree):
        x = Jet(num_vars, trunc, {e: Fraction(1)}, blocks=blocks, mode=EXACT)
        y = u(x)
        for g, (s, sigma) in enumerate(grid):
            ratio = y.sup_norm_bound(s) * sigma ** k / x.sup_norm_bound(s + sigma)
            if best[g] is None or ratio > best[g]:
                best[g] = ratio
                arg[g] = e
    n_hat = max(best)
    g_max = best.index(n_hat)
    s, sigma = grid[g_max]
    return BoundednessFit(
        k=k, tau=tau, N_hat=n_hat, grid=grid,
        residuals=tuple(n_hat - b for b in best),
        max_point=(s, sigma, arg[g_max]),
        basis_degree=basis_degree, num_vars=num_vars)


# ---------------------------------------------------------------------------
# moderate growth of fitted constants across stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModerateGrowthReport:
    """Partial sums of log(max(1, N_n))/2^n."""

    values: tuple
    partial_sums: tuple

    @property
    def partial_sum(self):
        return self.partial_sums[-1] if self.partial_sums else 0.0


def moderate_growth(values):
    """Report on sum_n log(max(1, N_n))/2^n for a stage sequence N_n.

    The finitely many observed values never decide convergence, so the
    report holds only the partial sums.
    """
    vals = tuple(values)
    sums = []
    acc = 0.0
    for n, v in enumerate(vals):
        if not 0 <= v < math.inf:
            raise NonPositiveTermError("fitted constants must be finite, >= 0")
        acc += math.log(max(1.0, float(v))) / 2.0 ** n
        sums.append(acc)
    return ModerateGrowthReport(values=vals, partial_sums=tuple(sums))
