"""Per-step implicit diffusion operator and its conjugate-gradient solve.

The operator is (A u)_K = h^2 u_K + dt * d * sum_{L ~ K} (u_K - u_L): the
h^2-weighted identity plus the two-point flux stiffness (transmissibility 1
on square cells), symmetric positive definite for any dt > 0, d > 0.
Constants are eigenvectors with eigenvalue h^2, so the default initial guess
rhs / h^2 solves constant right-hand sides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import CellField, MeshMismatch
from .mesh import UniformMesh


class NoConvergence(RuntimeError):
    """CG failed to reach the requested residual within max_iter."""

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
    # unit-transmissibility fluxes across x faces, then y faces
    jx = g[:, :-1] - g[:, 1:]
    out[:, :-1] += c * jx
    out[:, 1:] -= c * jx
    jy = g[:-1, :] - g[1:, :]
    out[:-1, :] += c * jy
    out[1:, :] -= c * jy
    return out.ravel()


def apply(op: ImplicitDiffusionOperator, u: CellField) -> CellField:
    """Matrix-free operator application."""
    if not u.mesh.compatible(op.mesh):
        raise MeshMismatch("field mesh does not match operator mesh")
    return CellField(op.mesh, _apply_values(op, u.values))


def solve(op: ImplicitDiffusionOperator, rhs: CellField, tol: float = 1e-10,
          max_iter: int = 1000, x0: CellField | None = None) -> CellField:
    """Solve A x = rhs by CG to ||A x - rhs||_2 <= tol * ||rhs||_2.

    Default initial guess rhs / h^2 (exact when rhs is constant). Raises
    NoConvergence with the iteration count and final relative residual.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"need 0 < tol < 1, got {tol}")
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    if not rhs.mesh.compatible(op.mesh):
        raise MeshMismatch("rhs mesh does not match operator mesh")

    b = rhs.values
    bnorm = float(np.sqrt(np.dot(b, b)))
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
