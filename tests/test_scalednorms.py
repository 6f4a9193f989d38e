"""Boundedness fits and moderate-growth reports."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from kamtori.errors import NonPositiveTermError
from kamtori.jets import Jet
from kamtori.poisson import HamiltonianDerivation, SymplecticLayout
from kamtori.scalednorms import dyadic_grid, fit_bounded_constant, moderate_growth


def d_dz(x):
    return x.derivative(0)


def mult_z(x):
    return x * Jet.variable(0, 1, x.trunc_degree)


# --- grids ----------------------------------------------------------------------

def test_dyadic_grid_admissible():
    grid = dyadic_grid(Fraction(1), 4)
    assert len(grid) == 16
    for s, sigma in grid:
        assert 0 < s < 1 and 0 < sigma <= 1 - s


def test_dyadic_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        dyadic_grid(1, 0)
    with pytest.raises(ValueError):
        dyadic_grid(0, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dyadic_grid_rejects_a_non_finite_tau(bad):
    with pytest.raises(ValueError):
        dyadic_grid(bad, 2)


# --- fit_bounded_constant --------------------------------------------------------

def test_identity_fit_is_one():
    fit = fit_bounded_constant(lambda x: x, 0, 1, 4, 4)
    assert fit.N_hat == 1
    for k in (1, 2, 3):
        fit = fit_bounded_constant(lambda x: x, k, 1, 4, 4)
        assert 0 < fit.N_hat <= 1


def test_derivative_fit_cauchy_estimate():
    fit = fit_bounded_constant(d_dz, 1, 1, 6, 5)
    assert 0 < fit.N_hat <= 1
    # the extremal monomial is z itself, ratio sigma/(s+sigma)
    s, sigma, e = fit.max_point
    assert e == (1,)
    assert fit.N_hat == sigma / (s + sigma)


def test_multiplication_fit_bounded_by_tau():
    tau = Fraction(3, 4)
    fit = fit_bounded_constant(mult_z, 0, tau, 5, 4)
    assert 0 < fit.N_hat <= tau


def test_fit_exact_and_deterministic():
    fit1 = fit_bounded_constant(d_dz, 1, 1, 5, 4)
    fit2 = fit_bounded_constant(d_dz, 1, 1, 5, 4)
    assert fit1 == fit2
    assert isinstance(fit1.N_hat, Fraction)
    assert min(fit1.residuals) == 0
    assert all(r >= 0 for r in fit1.residuals)


def test_fit_scales_linearly():
    c = Fraction(7, 3)
    base = fit_bounded_constant(d_dz, 1, 1, 5, 4)
    scaled = fit_bounded_constant(lambda x: d_dz(x).scale(c), 1, 1, 5, 4)
    assert scaled.N_hat == c * base.N_hat


def test_fit_json_report_keys():
    fit = fit_bounded_constant(d_dz, 1, 1, 4, 3)
    d = fit.to_json_dict()
    assert set(d) == {"k", "tau", "N_hat", "grid_spec", "max_point"}
    assert d["grid_spec"]["grid_size"] == 3
    assert d["max_point"]["exponent"] == [1]


def test_fit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fit_bounded_constant(d_dz, -1, 1, 4, 3)
    with pytest.raises(ValueError):
        fit_bounded_constant(d_dz, 1, 1, -1, 3)
    with pytest.raises(ValueError):
        fit_bounded_constant(d_dz, 1, 1, 4, 0)


# --- the fitted inequality extends from monomials to all jets --------------------

def test_derivation_norm_ledger():
    # for a Hamiltonian derivation u and any jet f of covered degree:
    #   |u(f)|_s <= N_hat * sigma^(-1) * |f|_(s+sigma)   on every grid point
    rng = np.random.default_rng(41)
    lay = SymplecticLayout(2)
    h = Jet(4, 8, {(3, 0, 0, 0): Fraction(1, 2), (1, 1, 1, 0): Fraction(-2, 3),
                   (0, 2, 0, 1): Fraction(1, 4)}, blocks=lay.blocks)
    u = HamiltonianDerivation(h, lay)
    fit = fit_bounded_constant(u, 1, 1, 4, 3, num_vars=4, blocks=lay.blocks)
    for _ in range(5):
        terms = {}
        for _ in range(6):
            idx = tuple(int(t) for t in rng.integers(0, 2, 4))
            terms[idx] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        f = Jet(4, 8, terms, blocks=lay.blocks)
        uf = u(f)
        for s, sigma in fit.grid:
            assert uf.sup_norm_bound(s) * sigma <= fit.N_hat * f.sup_norm_bound(s + sigma)


# --- moderate growth ---------------------------------------------------------------

def test_moderate_growth_partial_sums():
    rep = moderate_growth([1, 1, 1, 1])
    assert rep.partial_sum == 0.0
    rep = moderate_growth([Fraction(1, 2), 4.0, 2.0])
    # log(max(1,.)) ignores values below one
    import math
    expected = math.log(4.0) / 2 + math.log(2.0) / 4
    assert abs(rep.partial_sum - expected) < 1e-15
    assert all(b >= a for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))


def test_moderate_growth_rejects_negative():
    with pytest.raises(NonPositiveTermError):
        moderate_growth([1.0, -2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_moderate_growth_rejects_a_non_finite_value(bad):
    with pytest.raises(NonPositiveTermError):
        moderate_growth([1.0, bad, 3.0])
