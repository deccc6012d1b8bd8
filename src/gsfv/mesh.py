"""Uniform square-cell meshes on the unit square, with two-point flux topology.

An nx*ny grid has cells of side h = 1/max(nx, ny), so its longer side spans
[0, 1] (the whole unit square when nx == ny). Cells are numbered row-major
with x fastest: cell k = j*nx + i sits at center ((i+1/2)h, (j+1/2)h).
Interior faces have transmissibility tau = |face| / (center distance) = 1
and follow from the numbering: cell k meets k + 1 unless k ends a row, and
k + nx (field.face_differences forms the differences across them). Boundary
faces carry no flux (homogeneous Neumann boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidSize(ValueError):
    """Mesh needs at least 2 cells per direction."""


@dataclass(frozen=True, eq=False)
class UniformMesh:
    """Immutable mesh geometry.

    xc, yc are flat, read-only cell-center coordinates in cell order.
    """

    nx: int
    ny: int
    h: float
    xc: np.ndarray
    yc: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def compatible(self, other: "UniformMesh") -> bool:
        """True if other has the same resolution (h follows from it)."""
        return self.nx == other.nx and self.ny == other.ny


def build_mesh(nx: int, ny: int) -> UniformMesh:
    """Construct the uniform nx*ny grid of square cells of side
    h = 1/max(nx, ny), so the longer side spans [0, 1].

    Raises InvalidSize for fewer than 2 cells per direction.
    """
    if nx < 2 or ny < 2:
        raise InvalidSize(f"need nx, ny >= 2, got ({nx}, {ny})")
    h = 1.0 / max(nx, ny)
    X, Y = np.meshgrid((np.arange(nx) + 0.5) * h, (np.arange(ny) + 0.5) * h)
    # read-only before ravel, so xc and yc are views that cannot be made
    # writable again: the source memos in mms key on their identity
    X.setflags(write=False)
    Y.setflags(write=False)
    return UniformMesh(nx, ny, h, X.ravel(), Y.ravel())
