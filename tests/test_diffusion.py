import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gsfv import diffusion
from gsfv.diffusion import (ImplicitDiffusionOperator, NoConvergence, apply,
                            solve, solve_cg)
from gsfv.field import CellField, MeshMismatch, full
from gsfv.mesh import build_mesh


def dense_matrix(mesh, d, dt):
    """Assemble A from the bilinear form definition, independently of apply."""
    n = mesh.n_cells
    A = np.zeros((n, n))
    np.fill_diagonal(A, mesh.h ** 2)
    for K, L, tau in mesh.interior_faces():
        A[K, K] += dt * d * tau
        A[L, L] += dt * d * tau
        A[K, L] -= dt * d * tau
        A[L, K] -= dt * d * tau
    return A


coeffs = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
vals = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def op_and_field(draw, max_n=8):
    nx, ny = draw(st.integers(2, max_n)), draw(st.integers(2, max_n))
    m = build_mesh(nx, ny)
    op = ImplicitDiffusionOperator(m, draw(coeffs), draw(coeffs))
    u = CellField(m, np.asarray(
        draw(st.lists(vals, min_size=m.n_cells, max_size=m.n_cells))))
    return op, u


def test_operator_validation():
    m = build_mesh(2, 2)
    with pytest.raises(ValueError):
        ImplicitDiffusionOperator(m, 0.0, 1.0)
    with pytest.raises(ValueError):
        ImplicitDiffusionOperator(m, 1.0, -1.0)
    with pytest.raises(ValueError):
        ImplicitDiffusionOperator(m, math.nan, 1.0)
    with pytest.raises(ValueError):
        ImplicitDiffusionOperator(m, 1.0, math.nan)


@given(ou=op_and_field())
def test_apply_matches_dense_assembly(ou):
    op, u = ou
    A = dense_matrix(op.mesh, op.d, op.dt)
    got = apply(op, u).values
    want = A @ u.values
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@given(ou=op_and_field())
def test_dense_matrix_spd(ou):
    op, _ = ou
    A = dense_matrix(op.mesh, op.d, op.dt)
    assert np.array_equal(A, A.T)
    assert np.min(np.linalg.eigvalsh(A)) > 0.0


def test_apply_constant():
    m = build_mesh(4, 4)
    op = ImplicitDiffusionOperator(m, 2.0, 0.5)
    out = apply(op, full(m, 3.0)).values
    assert np.allclose(out, m.h ** 2 * 3.0, rtol=1e-15)


def test_apply_unit_vector_stencil():
    m = build_mesh(2, 2)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    e0 = CellField(m, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(apply(op, e0).values, [2.25, -1.0, -1.0, 0.0])


@given(ou=op_and_field())
def test_apply_linear(ou):
    op, u = ou
    v = CellField(op.mesh, np.roll(u.values, 1))
    uv = CellField(op.mesh, u.values + v.values)
    lhs = apply(op, uv).values
    rhs = apply(op, u).values + apply(op, v).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


@given(ou=op_and_field())
def test_symmetry_and_coercivity(ou):
    op, u = ou
    v = CellField(op.mesh, u.values[::-1].copy())
    auv = float(np.dot(apply(op, u).values, v.values))
    uav = float(np.dot(u.values, apply(op, v).values))
    assert abs(auv - uav) <= 1e-12 * (1.0 + abs(auv))
    quad = float(np.dot(apply(op, u).values, u.values))
    assert quad >= op.mesh.h ** 2 * float(np.dot(u.values, u.values)) * (1 - 1e-12)


def _cancelling_example():
    m = build_mesh(8, 3)
    u = np.zeros(m.n_cells)
    u[[5, 6, 21, 22, 23]] = [1.0, 47.0, 10.0, -24.0, -34.0]
    return ImplicitDiffusionOperator(m, 9.0, 3.4976157027517623), \
        CellField(m, u)


@given(ou=op_and_field())
@example(ou=_cancelling_example())
def test_stiffness_mass_neutral(ou):
    op, u = ou
    Au = apply(op, u).values
    total = float(np.sum(Au))
    mass = op.mesh.h ** 2 * float(np.sum(u.values))
    # the fluxes cancel in exact arithmetic; in floating point their sum
    # keeps a rounding error relative to the summed magnitudes, which can
    # dwarf the mass (here 0)
    assert abs(total - mass) <= 1e-12 * (1.0 + float(np.sum(np.abs(Au))))


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
    want = np.linalg.solve(dense_matrix(m, 1.0, 1.0), rhs.values)
    got = solve_cg(op, rhs, tol=1e-13).values
    assert np.max(np.abs(got - want)) <= 1e-10


def test_solve_zero_rhs():
    m = build_mesh(4, 4)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    for solver in (solve, solve_cg):
        x = solver(op, full(m, 0.0))
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
    for solver in (solve, solve_cg):
        with pytest.raises(MeshMismatch):
            solver(op, full(build_mesh(4, 4), 1.0))
    with pytest.raises(MeshMismatch):
        apply(op, full(build_mesh(4, 4), 1.0))


def test_no_convergence_reports_state():
    m = build_mesh(8, 8)
    op = ImplicitDiffusionOperator(m, 5.0, 10.0)
    rhs = CellField(m, np.eye(m.n_cells)[0])
    with pytest.raises(NoConvergence) as ei:
        solve_cg(op, rhs, tol=1e-14, max_iter=1)
    assert ei.value.iterations == 1
    assert np.isfinite(ei.value.residual)


@pytest.mark.parametrize("solver", [solve, solve_cg])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rhs_raises_at_once(solver, bad):
    m = build_mesh(16, 16)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    b = np.ones(m.n_cells)
    b[37] = bad
    with pytest.raises(NoConvergence) as ei:
        solver(op, CellField(m, b))
    assert ei.value.iterations == 0
    assert math.isnan(ei.value.residual)


def test_solve_accepts_huge_finite_rhs():
    # rhs . rhs overflows above ~1e154; solve needs no norm of rhs
    m = build_mesh(8, 8)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    g = np.random.default_rng(5).uniform(-1.0, 1.0, m.n_cells)
    want = solve(op, CellField(m, g)).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve(op, CellField(m, g * 1e156)).values / 1e156
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# Oracles for the eigenbasis solve. Tolerances are relative 2-norms: 1e-12
# against dense elimination on the acceptance-07 meshes (condition numbers
# up to ~130), 1e-10 against CG at tol=1e-13 (condition numbers up to ~8e3).

def test_solve_matches_dense_on_oracle_meshes():
    rng = np.random.default_rng(11)
    meshes = [build_mesh(n, n) for n in range(2, 9)]
    meshes.append(build_mesh(4, 8))
    # odd sizes pin the folded basis's middle row and pad column
    meshes += [build_mesh(5, 7), build_mesh(7, 4), build_mesh(8, 3),
               build_mesh(37, 5)]
    for m in meshes:
        for d, dt in ((1.6e-5, 1.0), (1.0, 0.25)):
            op = ImplicitDiffusionOperator(m, d, dt)
            b = rng.uniform(-1.0, 1.0, m.n_cells)
            want = np.linalg.solve(dense_matrix(m, d, dt), b)
            got = solve(op, CellField(m, b)).values
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-12, (m.nx, m.ny, d, dt, rel)


@given(nx=st.integers(2, 24), ny=st.integers(2, 24),
       log_ratio=st.floats(-6.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_agrees_with_cg(nx, ny, log_ratio, seed):
    m = build_mesh(nx, ny)
    # d = 1, so dt * d / h^2 = 10 ** log_ratio
    op = ImplicitDiffusionOperator(m, 1.0, 10.0 ** log_ratio * m.h * m.h)
    rhs = CellField(m, np.random.default_rng(seed).uniform(-1, 1, m.n_cells))
    want = solve_cg(op, rhs, tol=1e-13).values
    got = solve(op, rhs).values
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@given(nx=st.sampled_from([2, 4, 8, 16, 32, 64]),
       ny=st.sampled_from([2, 4, 8, 16, 32, 64]),
       c=st.floats(-1e3, 1e3).filter(lambda c: c == 0.0 or abs(c) > 1e-300),
       d=coeffs, dt=coeffs)
def test_solve_constant_rhs_exact(nx, ny, c, d, dt):
    # power-of-two h makes c * h^2 / h^2 == c (barring underflow), and A maps
    # constants to h^2 c
    m = build_mesh(nx, ny)
    h = m.h
    x = solve(ImplicitDiffusionOperator(m, d, dt), full(m, c * h * h))
    assert np.array_equal(x.values, np.full(m.n_cells, c))


@pytest.mark.parametrize("nx, ny", [(128, 128), (512, 512), (129, 127)])
@pytest.mark.parametrize("dt_rule", ["1", "h^2"])
def test_solve_agrees_with_cg_at_production_sizes(nx, ny, dt_rule):
    # the pattern runs step with dt = 1, the MMS ladder with dt = h^2
    m = build_mesh(nx, ny)
    op = ImplicitDiffusionOperator(m, 1.6e-5,
                                   1.0 if dt_rule == "1" else m.h ** 2)
    rhs = CellField(m, np.random.default_rng(nx + ny).uniform(0, 1, m.n_cells))
    want = solve_cg(op, rhs, tol=1e-13).values
    got = solve(op, rhs).values
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_workspace_does_not_leak_between_calls():
    rng = np.random.default_rng(3)
    m, other = build_mesh(12, 12), build_mesh(9, 5)
    op = ImplicitDiffusionOperator(m, 0.5, 0.01)
    b1 = CellField(m, rng.uniform(-1, 1, m.n_cells))
    b2 = CellField(m, rng.uniform(-1, 1, m.n_cells))
    first = solve(op, b1)
    kept = first.values.copy()
    second = solve(op, b2)
    solve(ImplicitDiffusionOperator(other, 0.5, 0.01),
          CellField(other, rng.uniform(-1, 1, other.n_cells)))
    assert np.array_equal(first.values, kept)
    assert not np.shares_memory(first.values, second.values)
    want = solve(op, b2).values.copy()
    second.values[:] = np.nan
    again = solve(op, b2)
    assert np.array_equal(again.values, want)
    assert not np.shares_memory(again.values, second.values)


@pytest.mark.parametrize("nx, ny", [(128, 128), (127, 127), (37, 5)])
def test_solve_near_identity_residual(nx, ny):
    # at dt = h^2 the correction to rhs / h^2 is ~1e-4 of it; transforming
    # rhs itself instead of its spectral residual leaves ~4e-15 here
    m = build_mesh(nx, ny)
    op = ImplicitDiffusionOperator(m, 1.6e-5, m.h ** 2)
    b = np.random.default_rng(nx * ny).uniform(0.0, 1.0, m.n_cells)
    x = solve(op, CellField(m, b))
    r = apply(op, x).values - b
    assert np.linalg.norm(r) <= 1e-15 * np.linalg.norm(b)


@pytest.mark.parametrize("dt_rule", ["1", "h^2"])
def test_solve_large_first_cell_agrees_with_cg(dt_rule):
    # the shift s = rhs[0] is then 1e6 times the rest of rhs
    m = build_mesh(64, 64)
    op = ImplicitDiffusionOperator(m, 1.6e-5, 1.0 if dt_rule == "1" else m.h ** 2)
    b = np.random.default_rng(2).uniform(0.0, 1.0, m.n_cells)
    b[0] = 1e6 * b[1:].max()
    rhs = CellField(m, b)
    want = solve_cg(op, rhs, tol=1e-13).values
    got = solve(op, rhs).values
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_factor_cache_keyed_per_operator():
    # two species at the pattern step and one at the ladder step share a mesh
    m = build_mesh(24, 24)
    ops = [ImplicitDiffusionOperator(m, 1.6e-5, 1.0),
           ImplicitDiffusionOperator(m, 0.8e-5, 1.0),
           ImplicitDiffusionOperator(m, 1.6e-5, m.h ** 2)]
    rhs = CellField(m, np.random.default_rng(9).uniform(0.0, 1.0, m.n_cells))
    first = []
    for op in ops:
        diffusion._spectral_factor.cache_clear()
        first.append(solve(op, rhs).values)
    for _ in range(2):
        for op, want in zip(ops, first):
            assert np.array_equal(solve(op, rhs).values, want)


def test_solve_cached_arrays_read_only():
    m = build_mesh(6, 5)
    op = ImplicitDiffusionOperator(m, 0.5, 0.1)
    solve(op, full(m, 1.0))
    factor = diffusion._spectral_factor(m.ny, m.nx, m.h ** 2, op.dt * op.d)
    blocks, lam = diffusion._folded_basis(m.nx)
    for arr in (factor, blocks, lam):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
