"""Piecewise-constant grid functions and the discrete forms over them.

The discrete L2 inner product is (w, phi)_h = h^2 sum_K w_K phi_K and the
gradient form is sum over interior faces of tau * (w_K - w_L)(phi_K - phi_L),
with tau = 1 on the uniform square-cell mesh. face_differences() is the one
two-point stencil: the gradient form and the diffusion operator use it.
Reductions use numpy's fixed left-to-right pairwise order, so repeated calls
on the same data are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import UniformMesh


class MeshMismatch(ValueError):
    """Binary field operation on fields from different meshes."""


@dataclass
class CellField:
    """One double per cell, flat array in mesh cell order."""

    mesh: UniformMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.mesh.n_cells:
            raise ValueError(
                f"field has {v.size} values for {self.mesh.n_cells} cells")
        self.values = v

    def copy(self) -> "CellField":
        return CellField(self.mesh, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())


def full(mesh: UniformMesh, value: float) -> CellField:
    """Constant field."""
    return CellField(mesh, np.full(mesh.n_cells, float(value)))


# Gauss-Legendre 3-point rule on [-1/2, 1/2]: abscissa offsets are
# xi * h with xi below; weights sum to 1 per direction. The tensor rule
# integrates bivariate polynomials of total degree 5 exactly.
_GAUSS3 = (
    (-0.5 * 0.7745966692414834, 5.0 / 18.0),
    (0.0, 8.0 / 18.0),
    (0.5 * 0.7745966692414834, 5.0 / 18.0),
)


def project(mesh: UniformMesh, f) -> CellField:
    """Project f(x, y) to cell averages with the tensor 3x3 Gauss rule,
    exact for polynomials up to total degree 5. f may return a scalar or an
    array broadcast against the coordinate grids.
    """
    X, Y = mesh.xc, mesh.yc
    h = mesh.h
    out = np.zeros_like(X)
    for xi_a, w_a in _GAUSS3:
        for xi_b, w_b in _GAUSS3:
            out += (w_a * w_b) * np.asarray(
                f(X + xi_a * h, Y + xi_b * h), dtype=np.float64)
    return CellField(mesh, out)


def _require_same_mesh(w: CellField, phi: CellField) -> None:
    if w.mesh is not phi.mesh and not w.mesh.compatible(phi.mesh):
        raise MeshMismatch("fields live on different meshes")


def inner_h(w: CellField, phi: CellField) -> float:
    """Discrete L2 inner product h^2 sum_K w_K phi_K."""
    _require_same_mesh(w, phi)
    return float(w.mesh.h ** 2 * np.dot(w.values, phi.values))


def face_differences(g: np.ndarray, nx: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Face differences g_K - g_L of the flat row-major cell array g of a
    mesh nx cells wide, in out (new if None) of 2 g.size - nx doubles: one
    x difference g[k] - g[k + 1] per cell, 0 where k ends a row (no face
    there), then the y differences g[k] - g[k + nx]."""
    n = g.size
    out = np.empty(2 * n - nx) if out is None else out
    np.subtract(g[:-1], g[1:], out=out[:n - 1])
    out[nx - 1:n:nx] = 0.0
    np.subtract(g[:-nx], g[nx:], out=out[n:])
    return out


def grad_form_h(w: CellField, phi: CellField) -> float:
    """Discrete gradient form: sum_faces tau (w_K - w_L)(phi_K - phi_L)."""
    _require_same_mesh(w, phi)
    # tau = 1, and the zeroed row-end entries add exact zeros
    nx = w.mesh.nx
    dw = face_differences(w.values, nx)
    dphi = dw if phi is w else face_differences(phi.values, nx)
    return float(np.dot(dw, dphi))


def norm_l2_h(w: CellField) -> float:
    """Discrete L2 norm, sqrt of inner_h(w, w)."""
    return float(np.sqrt(w.mesh.h ** 2 * np.dot(w.values, w.values)))


def norm_linf(w: CellField) -> float:
    """Max absolute cell value."""
    return float(np.max(np.abs(w.values)))


def seminorm_h1_h(w: CellField) -> float:
    """Discrete H1 seminorm, sqrt of grad_form_h(w, w)."""
    return float(np.sqrt(grad_form_h(w, w)))
