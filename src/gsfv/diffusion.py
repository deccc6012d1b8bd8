"""Per-step implicit diffusion operator, its exact solve and a CG reference.

The operator is (A u)_K = h^2 u_K + dt * d * sum_{L ~ K} (u_K - u_L): the
h^2-weighted identity plus the two-point flux stiffness (transmissibility 1
on square cells), symmetric positive definite for any dt > 0, d > 0.
Constants are eigenvectors with eigenvalue h^2, so the initial guess
rhs / h^2 solves constant right-hand sides exactly.

The orthonormal 2-D DCT-II basis diagonalises A on the uniform grid, with
eigenvalues h^2 + dt*d*(4 sin^2(pi i / 2 nx) + 4 sin^2(pi j / 2 ny))
(Strang, SIAM Rev. 41, 1999; Schumann & Sweet, J. Comput. Phys. 20, 1976).
solve() uses that basis on every step; solve_cg() is the matrix-free
conjugate-gradient method the paper describes, kept as the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import CellField, MeshMismatch
from .mesh import UniformMesh


class NoConvergence(RuntimeError):
    """A solve produced no solution.

    Either CG did not reach the requested residual within max_iter, or the
    right-hand side is non-finite: then both solves raise at once with
    iterations 0 and residual nan.
    """

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence in {iterations} iterations, "
            f"relative residual {residual:.3e}")


@dataclass(frozen=True, eq=False)
class ImplicitDiffusionOperator:
    """A = h^2 I + dt * d * (two-point flux stiffness)."""

    mesh: UniformMesh
    d: float
    dt: float

    def __post_init__(self):
        if self.d <= 0.0:
            raise ValueError(f"need d > 0, got {self.d}")
        if self.dt <= 0.0:
            raise ValueError(f"need dt > 0, got {self.dt}")


def _apply_values(op: ImplicitDiffusionOperator, g_flat: np.ndarray) -> np.ndarray:
    m = op.mesh
    nx, ny = m.nx, m.ny
    g = g_flat.reshape(ny, nx)
    out = (m.h ** 2) * g
    c = op.dt * op.d
    # scaled unit-transmissibility fluxes across x faces, then y faces
    fx = c * (g[:, :-1] - g[:, 1:])
    out[:, :-1] += fx
    out[:, 1:] -= fx
    fy = c * (g[:-1, :] - g[1:, :])
    out[:-1, :] += fy
    out[1:, :] -= fy
    return out.ravel()


def apply(op: ImplicitDiffusionOperator, u: CellField) -> CellField:
    """Matrix-free operator application."""
    if not u.mesh.compatible(op.mesh):
        raise MeshMismatch("field mesh does not match operator mesh")
    return CellField(op.mesh, _apply_values(op, u.values))


def _check_rhs(op: ImplicitDiffusionOperator, rhs: CellField) -> float:
    """rhs . rhs; raises at once on a mismatched mesh or non-finite rhs."""
    if not rhs.mesh.compatible(op.mesh):
        raise MeshMismatch("rhs mesh does not match operator mesh")
    bb = float(np.dot(rhs.values, rhs.values))
    if not math.isfinite(bb):
        raise NoConvergence(0, math.nan)
    return bb


@functools.lru_cache(maxsize=16)
def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix Q[i, k] = c_k cos(pi (i + 1/2) k / n), with
    c_0 = sqrt(1/n) and c_k = sqrt(2/n), and the eigenvalues
    4 sin^2(pi k / 2n) of the 1-D Neumann stiffness for its columns."""
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(k + 0.5, k) / n) * math.sqrt(2.0 / n)
    q[:, 0] = math.sqrt(1.0 / n)
    lam = 4.0 * np.sin(0.5 * np.pi * k / n) ** 2
    q.setflags(write=False)
    lam.setflags(write=False)
    return q, lam


def solve(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """Solve A x = rhs exactly in the cosine eigenbasis.

    Starts from x0 = rhs / h^2 and adds the eigenbasis solve of the residual
    rhs - A x0, so constant right-hand sides stay exact. Raises NoConvergence
    (0 iterations, nan residual) when rhs is non-finite.
    """
    _check_rhs(op, rhs)
    m = op.mesh
    h2 = m.h ** 2
    x = rhs.values / h2
    r = (rhs.values - _apply_values(op, x)).reshape(m.ny, m.nx)
    qx, lam_x = _cosine_basis(m.nx)
    qy, lam_y = _cosine_basis(m.ny)
    c = qy.T @ r @ qx
    c /= h2 + (op.dt * op.d) * (lam_y[:, None] + lam_x[None, :])
    x += (qy @ c @ qx.T).ravel()
    return CellField(m, x)


def solve_cg(op: ImplicitDiffusionOperator, rhs: CellField, tol: float = 1e-10,
             max_iter: int = 1000, x0: CellField | None = None) -> CellField:
    """Solve A x = rhs by CG to ||A x - rhs||_2 <= tol * ||rhs||_2.

    Default initial guess rhs / h^2 (exact when rhs is constant). Raises
    NoConvergence with the iteration count and final relative residual, or
    at once (0 iterations, nan residual) when rhs is non-finite.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"need 0 < tol < 1, got {tol}")
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    bnorm = math.sqrt(_check_rhs(op, rhs))

    b = rhs.values
    if x0 is None:
        x = b / op.mesh.h ** 2
    else:
        x = x0.values.copy()
    if bnorm == 0.0:
        return CellField(op.mesh, np.zeros_like(b))
    threshold = tol * bnorm

    r = b - _apply_values(op, x)
    rs = float(np.dot(r, r))
    if np.sqrt(rs) <= threshold:
        return CellField(op.mesh, x)
    p = r.copy()
    for it in range(1, max_iter + 1):
        Ap = _apply_values(op, p)
        alpha = rs / float(np.dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        if np.sqrt(rs_new) <= threshold:
            return CellField(op.mesh, x)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NoConvergence(max_iter, float(np.sqrt(rs)) / bnorm)
