import functools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gsfv import diffusion
from gsfv.diffusion import (ImplicitDiffusionOperator, NoConvergence, apply,
                            solve)
from gsfv.field import CellField, MeshMismatch, full
from gsfv.mesh import build_mesh
from oracles import dense_operator, interior_faces, solve_cg


# solve() on a CellField, forced onto each cosine path
_DCT = functools.partial(diffusion._solve_cosine, path="dct")
_FFT = functools.partial(diffusion._solve_cosine, path="fft")


def _paths(op):
    """The paths of solve(), forced: both cosine paths always, the series
    where the rule allows it (elsewhere it diverges or is slow)."""
    paths = [_DCT, _FFT]
    if diffusion.series_passes(op) is not None:
        paths.append(diffusion._solve_series)
    return paths


def _op_with_rho(m, rho, d=1.0):
    """The operator on m whose series bound 8 dt d / h^2 is rho."""
    return ImplicitDiffusionOperator(m, d, rho * m.h * m.h / (8.0 * d))


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
    A = dense_operator(op.mesh, op.d, op.dt)
    got = apply(op, u).values
    want = A @ u.values
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@given(ou=op_and_field())
def test_dense_matrix_spd(ou):
    op, _ = ou
    A = dense_operator(op.mesh, op.d, op.dt)
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


def test_solve_zero_rhs():
    m = build_mesh(4, 4)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    for solver in [solve] + _paths(op):
        x = solver(op, full(m, 0.0))
        assert np.array_equal(x.values, np.zeros(16))


def test_solve_validation():
    m = build_mesh(2, 2)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    with pytest.raises(MeshMismatch):
        solve(op, full(build_mesh(4, 4), 1.0))
    with pytest.raises(MeshMismatch):
        apply(op, full(build_mesh(4, 4), 1.0))


# the CG oracle's cases of this test are in test_oracles.py
@pytest.mark.parametrize("solver", [solve])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rhs_raises_at_once(solver, bad):
    m = build_mesh(16, 16)
    op = ImplicitDiffusionOperator(m, 1.0, 1.0)
    b = np.ones(m.n_cells)
    b[37] = bad
    with pytest.raises(NoConvergence) as ei:
        solver(op, CellField(m, b))
    assert type(ei.value) is NoConvergence
    assert str(ei.value) == "non-finite right-hand side"


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


# Oracles for the eigenbasis solves. Tolerances are relative 2-norms: 1e-12
# against dense elimination on the acceptance-07 meshes (condition numbers
# up to ~130), 1e-10 against CG at tol=1e-13 (condition numbers up to ~8e3),
# 1e-12 between the two cosine paths.

def test_solve_matches_dense_on_oracle_meshes():
    rng = np.random.default_rng(11)
    meshes = [build_mesh(n, n) for n in range(2, 9)]
    meshes.append(build_mesh(4, 8))
    # odd sizes pin the folded basis's middle row and pad column, and the
    # FFT path's reordering and pairing at its narrowest odd widths
    meshes += [build_mesh(5, 7), build_mesh(7, 4), build_mesh(8, 3),
               build_mesh(37, 5), build_mesh(3, 2), build_mesh(3, 9),
               build_mesh(9, 3), build_mesh(11, 4), build_mesh(2, 13)]
    for m in meshes:
        for d, dt in ((1.6e-5, 1.0), (1.0, 0.25)):
            op = ImplicitDiffusionOperator(m, d, dt)
            b = rng.uniform(-1.0, 1.0, m.n_cells)
            want = np.linalg.solve(dense_operator(m, d, dt), b)
            for path in [solve] + _paths(op):
                got = path(op, CellField(m, b)).values
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert rel <= 1e-12, (m.nx, m.ny, d, dt, path, rel)


@given(nx=st.integers(2, 24), ny=st.integers(2, 24),
       log_ratio=st.floats(-6.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_agrees_with_cg(nx, ny, log_ratio, seed):
    m = build_mesh(nx, ny)
    # d = 1, so dt * d / h^2 = 10 ** log_ratio
    op = ImplicitDiffusionOperator(m, 1.0, 10.0 ** log_ratio * m.h * m.h)
    rhs = CellField(m, np.random.default_rng(seed).uniform(-1, 1, m.n_cells))
    want = solve_cg(op, rhs, tol=1e-13).values
    for path in [solve] + _paths(op):
        got = path(op, rhs).values
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
    op = ImplicitDiffusionOperator(m, d, dt)
    for path in [solve] + _paths(op):
        x = path(op, full(m, c * h * h))
        assert np.array_equal(x.values, np.full(m.n_cells, c)), path


@pytest.mark.parametrize("nx, ny", [(128, 128), (512, 512), (129, 127)])
@pytest.mark.parametrize("dt_rule", ["1", "h^2"])
def test_solve_agrees_with_cg_at_production_sizes(nx, ny, dt_rule):
    # the pattern runs step with dt = 1, the MMS ladder with dt = h^2
    m = build_mesh(nx, ny)
    op = ImplicitDiffusionOperator(m, 1.6e-5,
                                   1.0 if dt_rule == "1" else m.h ** 2)
    rhs = CellField(m, np.random.default_rng(nx + ny).uniform(0, 1, m.n_cells))
    want = solve_cg(op, rhs, tol=1e-13).values
    # dt = h^2 takes the series, dt = 1 the cosine basis
    assert len(_paths(op)) == (3 if dt_rule == "h^2" else 2)
    for path in [solve] + _paths(op):
        got = path(op, rhs).values
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("n, path", [(128, "dct"), (257, "dct"), (512, "fft")])
def test_solve_known_solution_at_stiff_end(n, path):
    # rho = 8 dt d / h^2 is 5e5 at 512^2: a residual form's correction
    # cancelled rhs / h^2 there and erred by 5e-12 (128^2) to 7e-11 (512^2);
    # the direct form, with the mean shift, by at most 1.7e-13 over 20 x
    m = build_mesh(n, n)
    op = ImplicitDiffusionOperator(m, 1.0, 0.25)
    assert diffusion.solve_path(op) == path
    x = np.random.default_rng(n).uniform(0.0, 1.0, m.n_cells)
    got = solve(op, apply(op, CellField(m, x))).values
    assert np.linalg.norm(got - x) <= 2e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [37, 128, 257])
def test_solve_known_solution_near_identity(n):
    # rho = 8 dt d / h^2 from just above the series' reach up to 4, where the
    # cosine paths once took a residual form; the direct form erred by at
    # most 4.9e-16 over 6 x
    m = build_mesh(n, n)
    rhos = (1.01 * 2.0 ** (-53 / 5), 1e-2, 1.0, 2.0, 4.0)
    for rho in rhos:
        op = _op_with_rho(m, rho)
        for seed in range(6):
            x = np.random.default_rng(seed).uniform(0.0, 1.0, m.n_cells)
            b = apply(op, CellField(m, x))
            for path in (_DCT, _FFT):
                got = path(op, b).values
                rel = np.linalg.norm(got - x) / np.linalg.norm(x)
                assert rel <= 1e-15, (rho, seed, path, rel)


def test_solve_workspace_does_not_leak_between_calls():
    rng = np.random.default_rng(3)
    m, other = build_mesh(12, 12), build_mesh(9, 5)
    op = ImplicitDiffusionOperator(m, 0.5, 0.01)
    b1 = CellField(m, rng.uniform(-1, 1, m.n_cells))
    b2 = CellField(m, rng.uniform(-1, 1, m.n_cells))
    b_other = CellField(other, rng.uniform(-1, 1, other.n_cells))
    near = ImplicitDiffusionOperator(m, 0.5, 1e-7)
    assert diffusion.series_passes(near) is not None
    kept = []
    # the two cosine paths share the real scratch
    for cosine in (_DCT, _FFT):
        first = cosine(op, b1)
        kept.append((first, first.values.copy()))
        second = cosine(op, b2)
        cosine(ImplicitDiffusionOperator(other, 0.5, 0.01), b_other)
        assert np.array_equal(first.values, kept[-1][1])
        assert not np.shares_memory(first.values, second.values)
        want = cosine(op, b2).values.copy()
        second.values[:] = np.nan
        again = cosine(op, b2)
        assert np.array_equal(again.values, want)
        assert not np.shares_memory(again.values, second.values)
        # the series works in the cosine paths' scratch
        third = solve(near, b1)
        assert np.array_equal(cosine(op, b2).values, want)
        assert not np.shares_memory(third.values, again.values)
    for result, values in kept:
        assert np.array_equal(result.values, values)


@pytest.mark.parametrize("nx, ny", [(128, 128), (127, 127), (37, 5)])
def test_solve_near_identity_residual(nx, ny):
    # at dt = h^2 the correction to rhs / h^2 is ~1e-4 of it; the cosine
    # paths transform rhs itself, less its mean, and left 2.1e-16 to
    # 3.4e-16 here
    m = build_mesh(nx, ny)
    op = ImplicitDiffusionOperator(m, 1.6e-5, m.h ** 2)
    b = np.random.default_rng(nx * ny).uniform(0.0, 1.0, m.n_cells)
    assert len(_paths(op)) == 3
    for path in _paths(op):
        x = path(op, CellField(m, b))
        r = apply(op, x).values - b
        assert np.linalg.norm(r) <= 1e-15 * np.linalg.norm(b), path


@pytest.mark.parametrize("dt_rule", ["1", "h^2"])
def test_solve_large_first_cell_agrees_with_cg(dt_rule):
    # the shift s = rhs[0] is then 1e6 times the rest of rhs
    m = build_mesh(64, 64)
    op = ImplicitDiffusionOperator(m, 1.6e-5, 1.0 if dt_rule == "1" else m.h ** 2)
    b = np.random.default_rng(2).uniform(0.0, 1.0, m.n_cells)
    b[0] = 1e6 * b[1:].max()
    rhs = CellField(m, b)
    want = solve_cg(op, rhs, tol=1e-13).values
    for path in [solve] + _paths(op):
        got = path(op, rhs).values
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_factor_cache_keyed_per_operator():
    # two species at the pattern step and one at the ladder step share a
    # mesh; the cosine paths are forced, as solve() takes the series at
    # dt = h^2
    m = build_mesh(24, 24)
    ops = [ImplicitDiffusionOperator(m, 1.6e-5, 1.0),
           ImplicitDiffusionOperator(m, 0.8e-5, 1.0),
           ImplicitDiffusionOperator(m, 1.6e-5, m.h ** 2)]
    rhs = CellField(m, np.random.default_rng(9).uniform(0.0, 1.0, m.n_cells))
    for path in (_DCT, _FFT):
        first = []
        for op in ops:
            diffusion._factor.cache_clear()
            first.append(path(op, rhs).values)
        for _ in range(2):
            for op, want in zip(ops, first):
                assert np.array_equal(path(op, rhs).values, want)


def test_solve_cached_arrays_read_only():
    m = build_mesh(6, 5)
    op = ImplicitDiffusionOperator(m, 0.5, 0.1)
    for path in [solve] + _paths(op):
        path(op, full(m, 1.0))
    h2, c = m.h ** 2, op.dt * op.d
    factors = [diffusion._factor(path, m.ny, m.nx, h2, c)
               for path in ("dct", "fft")]
    dense = diffusion._plan(m.ny, m.nx).dense
    for arr in (*factors, dense.by, dense.bx, dense.bx_t,
                diffusion._twiddles(m.nx)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_solve_scratch_starts_on_cache_lines():
    # the series' passes slow by ~30% at 128^2 with the scratch mid-line
    for nx, ny in ((2, 2), (37, 5), (128, 128), (129, 127)):
        plan = diffusion._plan(ny, nx)
        for buf in (plan.a, plan.b, plan.z):
            assert buf.ctypes.data % 64 == 0
            assert buf.flags.c_contiguous


@pytest.mark.parametrize("n, dt_rule, path, reps", [
    (128, "h^2", "series", 200), (128, "1", "dct", 200),
    (127, "1", "dct", 200), (256, "1", "fft", 40)])
def test_solve_from_two_threads_matches_serial(n, dt_rule, path, reps):
    # the paths share one scratch per mesh shape; without solve()'s lock
    # most of these solves came back wrong, with no error
    m = build_mesh(n, n)
    op = ImplicitDiffusionOperator(m, 1.6e-5, 1.0 if dt_rule == "1" else m.h ** 2)
    assert diffusion.solve_path(op) == path
    rng = np.random.default_rng(n)
    rhss = [CellField(m, rng.uniform(0.0, 1.0, m.n_cells)) for _ in range(2)]
    want = [solve(op, b).values for b in rhss]
    start = threading.Barrier(2)
    done, wrong = [0, 0], [0, 0]

    def work(i):
        start.wait(timeout=60)
        for _ in range(reps):
            wrong[i] += not np.array_equal(solve(op, rhss[i]).values, want[i])
            done[i] += 1

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert done == [reps, reps]
    assert wrong == [0, 0]


def test_transforms_from_two_threads_match_serial():
    # odd sides: the dense pair's middle rows are written into the shared
    # scratch through the plan's views
    m = build_mesh(37, 5)
    assert diffusion._cosine_path(m) == "dct"
    rng = np.random.default_rng(37)
    values = [rng.uniform(-1.0, 1.0, m.n_cells) for _ in range(2)]
    want = [(diffusion.transform(m, v).coeffs,
             diffusion.inverse_transform(diffusion.transform(m, v)))
            for v in values]
    start = threading.Barrier(2)
    done, wrong = [0, 0], [0, 0]

    def work(i):
        start.wait(timeout=60)
        for _ in range(500):
            modes = diffusion.transform(m, values[i])
            wrong[i] += not np.array_equal(modes.coeffs, want[i][0])
            wrong[i] += not np.array_equal(diffusion.inverse_transform(modes),
                                           want[i][1])
            done[i] += 1

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert done == [500, 500]
    assert wrong == [0, 0]


# The FFT path against the dense one, at 1e-12 relative (against a known
# solution both erred by under 1e-15 at 512^2 in the pattern runs' regime,
# and by ~5e-14 at d = 1, dt = 0.25), in the pattern runs' regime and at the
# stiff end, on every width from 2 to 9 and at the sizes on each side of
# the switch.

@pytest.mark.parametrize("nx, ny", [(nx, ny) for nx in range(2, 10)
                                    for ny in (2, 3, 4, 7)]
                         + [(3, 40), (12, 2), (37, 5), (129, 127),
                            (256, 256), (257, 256), (300, 301), (511, 511),
                            (512, 512), (513, 512)])
def test_fft_matches_dct(nx, ny):
    m = build_mesh(nx, ny)
    rhs = CellField(m, np.random.default_rng(nx * ny).uniform(-1, 1, m.n_cells))
    for d, dt in ((1.6e-5, 1.0), (8e-6, 1.0), (1.6e-5, 64 * m.h)):
        op = ImplicitDiffusionOperator(m, d, dt)
        want = _DCT(op, rhs).values
        got = _FFT(op, rhs).values
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-12, (d, dt, rel)


def test_solve_path_rule():
    def path(nx, ny, dt=1.0):
        return diffusion.solve_path(
            ImplicitDiffusionOperator(build_mesh(nx, ny), 1.6e-5, dt))

    # the pattern runs: 128^2 on the dense products, 512^2 on the FFTs
    assert path(128, 128) == "dct"
    assert path(512, 512) == "fft"
    assert path(512, 512, dt=1.0 / 512 ** 2) == "series"
    # just below and at the switch, on sides the FFT has passes for
    assert 256 * 224 < diffusion.FFT_MIN_CELLS <= 240 * 240
    assert path(256, 224) == "dct"
    assert path(240, 240) == "fft"
    assert path(1920, 30) == "fft"
    assert path(242, 242) == "fft"  # 2 * 11^2
    # a prime factor above 11 on either side keeps the dense products
    for nx, ny in ((257, 256), (256, 257), (260, 260), (509, 509)):
        assert path(nx, ny) == "dct", (nx, ny)


# The series path. Its truncation error is at most rho^(p+1) ||x|| <= 2^-53
# ||x||, so it matches the cosine path to 1e-15 relative; the systems are
# near the identity (condition number <= 1 + rho), so CG's 1e-13 residual
# bounds its error by ~1e-13.

def _reference_stencil(op, g):
    """The operator on the (ny, nx) grid, x faces then y faces."""
    m = op.mesh
    g = g.reshape(m.ny, m.nx)
    out = m.h ** 2 * g
    c = op.dt * op.d
    fx = c * (g[:, :-1] - g[:, 1:])
    out[:, :-1] += fx
    out[:, 1:] -= fx
    fy = c * (g[:-1, :] - g[1:, :])
    out[:-1, :] += fy
    out[1:, :] -= fy
    return out.ravel()


@pytest.mark.parametrize("nx, ny", [(2, 2), (2, 7), (4, 8), (5, 7), (12, 2),
                                    (37, 5), (128, 128), (127, 129)])
def test_apply_matches_grid_stencil_and_face_loop(nx, ny):
    # the flat x-difference across a row end must be zeroed; nx = 2 puts
    # every other difference there
    m = build_mesh(nx, ny)
    op = ImplicitDiffusionOperator(m, 0.7, 0.3)
    g = np.random.default_rng(nx + 100 * ny).uniform(-1.0, 1.0, m.n_cells)
    got = diffusion._apply_values(op, g)
    assert np.array_equal(got, _reference_stencil(op, g))
    if m.n_cells <= 200:
        want = m.h ** 2 * g
        for K, L, tau in interior_faces(m):
            flux = op.dt * op.d * tau * (g[K] - g[L])
            want[K] += flux
            want[L] -= flux
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("p", range(diffusion.SERIES_MAX_PASSES + 1))
@pytest.mark.parametrize("nx, ny", [(2, 2), (4, 8), (12, 2), (37, 5),
                                    (128, 128), (129, 127)])
def test_series_matches_dct_and_cg(nx, ny, p):
    # rho just under the p-pass threshold 2^(-53 / (p + 1)), the largest
    # truncation error the rule allows for p
    m = build_mesh(nx, ny)
    op = _op_with_rho(m, 0.9 * 2.0 ** (-53.0 / (p + 1)))
    assert diffusion.series_passes(op) == p
    rhs = CellField(m, np.random.default_rng(p + nx).uniform(-1, 1, m.n_cells))
    got = diffusion._solve_series(op, rhs).values
    assert np.array_equal(solve(op, rhs).values, got)
    dct = _DCT(op, rhs).values
    assert np.linalg.norm(got - dct) <= 1e-15 * np.linalg.norm(dct)
    cg = solve_cg(op, rhs, tol=1e-13).values
    assert np.linalg.norm(got - cg) <= 1e-12 * np.linalg.norm(cg)


def _copyto_horner(op, rhs, p):
    """p Horner passes, each a copy of rhs plus the flux stencil added in
    place: the reference for the copy-free passes."""
    m, v = op.mesh, rhs.values
    nx, c = m.nx, -(op.dt * op.d / m.h ** 2)
    y = v
    for _ in range(p):
        out = np.empty_like(v)
        np.copyto(out, v)
        f = c * (y[:-1] - y[1:])
        f[nx - 1::nx] = 0.0
        out[:-1] += f
        out[1:] -= f
        f = c * (y[:-nx] - y[nx:])
        out[:-nx] += f
        out[nx:] -= f
        y = out
    return y / m.h ** 2


@pytest.mark.parametrize("p", range(diffusion.SERIES_MAX_PASSES + 1))
@pytest.mark.parametrize("nx, ny", [(2, 2), (37, 5), (128, 128)])
def test_series_matches_copyto_horner(nx, ny, p):
    m = build_mesh(nx, ny)
    op = _op_with_rho(m, 0.9 * 2.0 ** (-53.0 / (p + 1)))
    assert diffusion.series_passes(op) == p
    rhs = CellField(m, np.random.default_rng(p + ny).uniform(-1, 1, m.n_cells))
    got = diffusion._solve_series(op, rhs).values
    assert np.array_equal(got, _copyto_horner(op, rhs, p))


def test_series_rule():
    m = build_mesh(128, 128)
    cap = diffusion.SERIES_MAX_PASSES
    # the least p has rho^(p+1) <= 2^-53: just below and above a threshold
    below, above = 2.0 ** (-53.0 / (cap + 1)), 2.0 ** (-53.0 / (cap + 2))
    assert diffusion.series_passes(_op_with_rho(m, 0.99 * below)) == cap
    assert diffusion.series_passes(_op_with_rho(m, 1.01 * below)) is None
    assert diffusion.series_passes(_op_with_rho(m, 0.99 * above)) is None
    for rho in (1.0, 2.0, 1e300):
        assert diffusion.series_passes(_op_with_rho(m, rho)) is None
    # the ladder's d_u and d_v at dt = h^2 take 4 and 3 passes
    assert diffusion.series_passes(
        ImplicitDiffusionOperator(m, 1.6e-5, m.h ** 2)) == 4
    assert diffusion.series_passes(
        ImplicitDiffusionOperator(m, 0.8e-5, m.h ** 2)) == 3
    # the pattern runs (dt = 1), stability (dt = h) and interface
    # (dt = 1/256) studies stay on the cosine basis
    for mesh, dt in ((m, 1.0), (build_mesh(512, 512), 1.0), (m, m.h),
                     (m, 1.0 / 256.0)):
        assert diffusion.series_passes(
            ImplicitDiffusionOperator(mesh, 1.6e-5, dt)) is None


@given(log_rho=st.floats(-290.0, 1.0), n=st.integers(2, 64))
def test_series_passes_is_least_count_within_bound(log_rho, n):
    m = build_mesh(n, n)
    op = _op_with_rho(m, 10.0 ** log_rho, d=1.6e-5)
    rho = 8.0 * op.dt * op.d / m.h ** 2
    p = diffusion.series_passes(op)
    eps = 2.0 ** -53
    if p is None:
        assert rho >= 1.0 or rho ** (diffusion.SERIES_MAX_PASSES + 1) > eps
    else:
        assert 0 <= p <= diffusion.SERIES_MAX_PASSES
        assert rho ** (p + 1) <= eps
        assert p == 0 or rho ** p > eps


@pytest.mark.parametrize("dt_rule", ["1", "h^2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rhs_raises_on_both_paths(dt_rule, bad):
    # dt = 1 takes the dense products at 16^2 and the FFTs at 256^2
    for n, cosine in ((16, "dct"), (256, "fft")):
        m = build_mesh(n, n)
        dt = 1.0 if dt_rule == "1" else m.h ** 2
        op = ImplicitDiffusionOperator(m, 1.6e-5, dt)
        assert diffusion.solve_path(op) == (
            cosine if dt_rule == "1" else "series")
        b = np.ones(m.n_cells)
        b[37] = bad
        with pytest.raises(NoConvergence) as ei:
            solve(op, CellField(m, b))
        assert type(ei.value) is NoConvergence
        assert str(ei.value) == "non-finite right-hand side"


# The transform pair, cell values to modes (a shift and the cosine
# coefficients of the deviation from it) and back. The dense path's round
# trip erred by up to 1.4e-15 relative on the sides below, the FFT path's by
# up to 7.3e-16.

def _natural(path, c, ny, nx):
    """The coefficients c in path's layout as an (ny, nx) grid indexed
    [row mode, column mode]. On the FFT path the imaginary part of pair j
    holds minus the coefficient of row mode ny - j."""
    if path == "dct":  # [row parity, column parity, column // 2, row // 2]
        my, mx = (ny + 1) // 2, (nx + 1) // 2
        return c.transpose(3, 0, 2, 1).reshape(2 * my, 2 * mx)[:ny, :nx]
    ky = ny // 2 + 1
    pairs = c.reshape(nx, ky, 2)
    grid = np.empty((ny, nx))
    grid[:ky] = pairs[:, :, 0].T
    j = np.arange(1, (ny + 1) // 2)
    grid[ny - j] = -pairs[:, j, 1].T
    return grid


def _dct2_by_matrices(g):
    """The orthonormal 2-D DCT-II of the (ny, nx) grid g from full cosine
    matrices, [row mode, column mode]."""
    def q(n):
        k, i = np.meshgrid(np.arange(n), np.arange(n))
        m = np.cos(np.pi * (i + 0.5) * k / n) * math.sqrt(2.0 / n)
        m[:, 0] = math.sqrt(1.0 / n)
        return m

    return q(g.shape[0]).T @ g @ q(g.shape[1])


def test_transform_round_trip():
    rng = np.random.default_rng(17)
    dense = ([(n, n) for n in range(2, 131)]
             + [(n, n + d) for n in range(2, 125, 11) for d in (1, 6)]
             + [(n + 5, n) for n in range(2, 125, 13)])
    for nx, ny in dense + [(240, 240), (250, 250), (512, 512)]:
        m = build_mesh(nx, ny)
        fft = diffusion._cosine_path(m) == "fft"
        assert fft == (nx >= 240), (nx, ny)
        v = rng.uniform(-1.0, 1.0, m.n_cells)
        modes = diffusion.transform(m, v)
        assert modes.shift == v[0]
        x = diffusion.inverse_transform(modes)
        rel = np.linalg.norm(x - v) / np.linalg.norm(v)
        assert rel <= (1e-15 if fft else 2e-15), (nx, ny, rel)
        # in place: the values at the start of the coefficient array
        out = diffusion.coefficient_array(m)
        out.reshape(-1)[:m.n_cells] = v
        in_place = diffusion.transform(m, out.reshape(-1)[:m.n_cells], out)
        assert np.array_equal(in_place.coeffs, modes.coeffs)


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 7), (8, 3), (64, 64),
                                    (127, 129), (240, 240), (512, 512)])
def test_transform_of_constant_is_its_shift(nx, ny):
    # the constant lives in the shift alone: every coefficient is an exact
    # zero, pads included, and the inverse gives the constant back exactly
    m = build_mesh(nx, ny)
    for c in (0.3, -7.5e12, 1e-300, 0.0):
        modes = diffusion.transform(m, full(m, c).values)
        assert modes.shift == c
        assert not modes.coeffs.any()
        assert np.array_equal(diffusion.inverse_transform(modes),
                              np.full(m.n_cells, c))


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 2), (9, 7), (12, 10),
                                    (37, 5), (64, 48)])
def test_dense_and_fft_layouts_hold_the_same_coefficients(nx, ny):
    m = build_mesh(nx, ny)
    v = np.random.default_rng(nx * ny).uniform(-1.0, 1.0, m.n_cells)
    want = _dct2_by_matrices((v - v[0]).reshape(ny, nx))
    for path in ("dct", "fft"):
        c = np.empty(diffusion._coefficient_shape(path, ny, nx))
        diffusion._FORWARD[path](v.reshape(ny, nx), v[0], c)
        got = _natural(path, c, ny, nx)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if path == "dct":  # the pad modes of odd sides
            assert not c[:, 1, nx // 2:].any() and not c[1, :, :, ny // 2:].any()
        else:  # pair 0 has no imaginary part; an even side's last pair
            # holds its mode twice
            pairs = c.reshape(nx, -1, 2)
            assert not pairs[:, 0, 1].any()
            if ny % 2 == 0:
                assert np.max(np.abs(pairs[:, -1, 1] + pairs[:, -1, 0])) \
                    <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n, path", [(64, "dct"), (240, "fft")])
def test_solve_modes_scales_them_into_the_solution(n, path):
    m = build_mesh(n, n)
    op = ImplicitDiffusionOperator(m, 1.6e-5, 1.0)
    assert diffusion.solve_path(op) == path
    b = np.random.default_rng(n).uniform(0.0, 1.0, m.n_cells)
    modes = diffusion.transform(m, b)
    x = solve(op, modes).values
    want = solve_cg(op, CellField(m, b), tol=1e-13).values
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    # the right-hand side's modes became those of x
    assert modes.shift == b[0] / m.h ** 2
    assert np.array_equal(diffusion.inverse_transform(modes), x)
    modes.coeffs.flat[3] = math.nan
    with pytest.raises(NoConvergence, match="non-finite right-hand side"):
        solve(op, modes)
