"""Reference implementations the tests check the package against.

The face list, the dense operator assembled from it, the matrix-free
conjugate-gradient solve the paper describes, and one semi-implicit step
built on that solve. None of them runs outside the tests.
"""

import math

import numpy as np

from gsfv import diffusion
from gsfv.diffusion import ImplicitDiffusionOperator, NoConvergence
from gsfv.field import CellField, MeshMismatch
from gsfv.imex import SimState, reaction_f, reaction_g


def interior_faces(mesh) -> list:
    """List of (k, l, tau) triples, python scalars: x-oriented faces
    between k and l = k + 1 first, then y-oriented faces between k and
    l = k + nx, each row-major. tau is 1 on square cells."""
    nx, ny = mesh.nx, mesh.ny
    x_faces = [(j * nx + i, j * nx + i + 1, 1.0)
               for j in range(ny) for i in range(nx - 1)]
    y_faces = [(k, k + nx, 1.0) for k in range((ny - 1) * nx)]
    return x_faces + y_faces


def dense_operator(mesh, d, dt) -> np.ndarray:
    """Assemble A = h^2 I + dt d K densely from the face list, independently
    of the package's stencil."""
    n = mesh.n_cells
    A = np.zeros((n, n))
    np.fill_diagonal(A, mesh.h ** 2)
    for K, L, tau in interior_faces(mesh):
        A[K, K] += dt * d * tau
        A[L, L] += dt * d * tau
        A[K, L] -= dt * d * tau
        A[L, K] -= dt * d * tau
    return A


class CGNoConvergence(NoConvergence):
    """solve_cg stopped short of its tolerance after iterations iterations,
    at the relative residual residual (nan when it could not start)."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence in {iterations} iterations, "
            f"relative residual {residual:.3e}")


def solve_cg(op, rhs, tol=1e-10, max_iter=1000):
    """Solve A x = rhs by CG to ||A x - rhs||_2 <= tol * ||rhs||_2.

    The initial guess is rhs / h^2 (exact when rhs is constant). Raises
    CGNoConvergence with the iteration count and final relative residual,
    or at once (0 iterations, nan residual) when rhs is non-finite or
    ||rhs||^2 overflows (values above ~1e154), since the stopping test
    needs ||rhs||_2.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"need 0 < tol < 1, got {tol}")
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    if not rhs.mesh.compatible(op.mesh):
        raise MeshMismatch("rhs mesh does not match operator mesh")
    b = rhs.values
    bb = float(np.dot(b, b))
    if not math.isfinite(bb):
        raise CGNoConvergence(0, math.nan)
    bnorm = math.sqrt(bb)
    x = b / op.mesh.h ** 2
    if bnorm == 0.0:
        return CellField(op.mesh, np.zeros_like(b))
    threshold = tol * bnorm

    r = b - diffusion._apply_values(op, x)
    rs = float(np.dot(r, r))
    if np.sqrt(rs) <= threshold:
        return CellField(op.mesh, x)
    p = r.copy()
    for it in range(1, max_iter + 1):
        Ap = diffusion._apply_values(op, p)
        alpha = rs / float(np.dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        if np.sqrt(rs_new) <= threshold:
            return CellField(op.mesh, x)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise CGNoConvergence(max_iter, float(np.sqrt(rs)) / bnorm)


def step_cg(state, params, dt, sources=None):
    """One semi-implicit step as imex.step defines it, term by term, with
    solve_cg(tol=1e-13) for the two implicit solves."""
    m = state.u.mesh
    u, v = state.u.values, state.v.values
    fu, gv = reaction_f(u, v, params.F), reaction_g(u, v, params.F, params.k)
    if sources is not None:
        s_u, s_v = sources
        fu = fu + s_u(state.t, m.xc, m.yc)
        gv = gv + s_v(state.t, m.xc, m.yc)
    h2 = m.h ** 2
    new = [solve_cg(ImplicitDiffusionOperator(m, d, dt),
                    CellField(m, h2 * (w + dt * rate)), tol=1e-13)
           for d, w, rate in ((params.d_u, u, fu), (params.d_v, v, gv))]
    return SimState(state.n + 1, state.t + dt, *new)
