"""Tests of the reference solvers in tests/oracles.py themselves."""

import math

import numpy as np
import pytest

from gsfv.diffusion import ImplicitDiffusionOperator, NoConvergence, apply
from gsfv.field import CellField, MeshMismatch, full
from gsfv.mesh import build_mesh
from oracles import dense_operator, solve_cg


def test_solve_constant_rhs_immediate():
    m = build_mesh(4, 4)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    x = solve_cg(op, full(m, m.h ** 2))
    assert np.array_equal(x.values, np.ones(16))


def test_solve_round_trip():
    rng = np.random.default_rng(7)
    m = build_mesh(8, 8)
    op = ImplicitDiffusionOperator(m, 0.3, 2.0)
    x_true = rng.uniform(-1, 1, m.n_cells)
    rhs = apply(op, CellField(m, x_true))
    tol = 1e-10
    x = solve_cg(op, rhs, tol=tol)
    rel = np.linalg.norm(x.values - x_true) / np.linalg.norm(x_true)
    assert rel <= 10 * tol


def test_solve_matches_dense_elimination():
    m = build_mesh(2, 2)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    rhs = CellField(m, np.array([1.0, 0.0, 0.0, 0.0]))
    want = np.linalg.solve(dense_operator(m, 1.0, 1.0), rhs.values)
    got = solve_cg(op, rhs, tol=1e-13).values
    assert np.max(np.abs(got - want)) <= 1e-10


def test_solve_zero_rhs():
    m = build_mesh(4, 4)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    x = solve_cg(op, full(m, 0.0))
    assert np.array_equal(x.values, np.zeros(16))


def test_solve_validation():
    m = build_mesh(2, 2)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    rhs = full(m, 1.0)
    with pytest.raises(ValueError):
        solve_cg(op, rhs, tol=0.0)
    with pytest.raises(ValueError):
        solve_cg(op, rhs, tol=1.0)
    with pytest.raises(ValueError):
        solve_cg(op, rhs, max_iter=0)
    with pytest.raises(MeshMismatch):
        solve_cg(op, full(build_mesh(4, 4), 1.0))


def test_no_convergence_reports_state():
    m = build_mesh(8, 8)
    op = ImplicitDiffusionOperator(m, 5.0, 10.0)
    rhs = CellField(m, np.eye(m.n_cells)[0])
    with pytest.raises(NoConvergence) as ei:
        solve_cg(op, rhs, tol=1e-14, max_iter=1)
    assert ei.value.iterations == 1
    assert np.isfinite(ei.value.residual)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rhs_raises_at_once(bad):
    m = build_mesh(16, 16)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    b = np.ones(m.n_cells)
    b[37] = bad
    with pytest.raises(NoConvergence) as ei:
        solve_cg(op, CellField(m, b))
    assert ei.value.iterations == 0
    assert math.isnan(ei.value.residual)
