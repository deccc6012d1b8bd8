"""Uniform Cartesian control-volume meshes with two-point flux topology.

Cells are squares of side h covering a rectangle, numbered row-major with x
fastest: cell k = j*nx + i sits at center (origin_x + (i+1/2)h,
origin_y + (j+1/2)h). Interior faces carry a transmissibility
tau = |face| / (center distance), which is identically 1 on a uniform square
grid, so flux code works on structured differences of the (ny, nx) grid.
Boundary faces carry no flux (homogeneous Neumann boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidSize(ValueError):
    """Mesh needs at least 2 cells per direction and positive side lengths."""


class NonSquareCells(ValueError):
    """Cell aspect ratio must be exactly 1, i.e. Lx/nx == Ly/ny."""


class IndexOutOfRange(IndexError):
    """Cell index outside 0 .. nx*ny - 1."""


@dataclass(frozen=True, eq=False)
class UniformMesh:
    """Immutable mesh geometry.

    xc, yc are flat, read-only cell-center coordinates in cell order.
    Interior faces are implied by the grid; interior_faces() lists them on
    demand.
    """

    nx: int
    ny: int
    h: float
    origin: tuple[float, float]
    xc: np.ndarray
    yc: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_faces(self) -> int:
        return self.nx * (self.ny - 1) + self.ny * (self.nx - 1)

    def interior_faces(self) -> list:
        """List of (k, l, tau) triples, python scalars: x-oriented faces
        between k and l = k + 1 first, then y-oriented faces between k and
        l = k + nx, each row-major. tau is 1 on square cells."""
        nx, ny = self.nx, self.ny
        x_faces = [(j * nx + i, j * nx + i + 1, 1.0)
                   for j in range(ny) for i in range(nx - 1)]
        y_faces = [(k, k + nx, 1.0) for k in range((ny - 1) * nx)]
        return x_faces + y_faces

    def compatible(self, other: "UniformMesh") -> bool:
        """True if other has identical resolution, spacing and origin."""
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and self.h == other.h
            and self.origin == other.origin
        )


def build_mesh(nx: int, ny: int, Lx: float = 1.0, Ly: float = 1.0,
               origin: tuple[float, float] = (0.0, 0.0)) -> UniformMesh:
    """Construct a uniform mesh of nx*ny square cells on an Lx*Ly rectangle.

    Raises InvalidSize for fewer than 2 cells per direction or non-positive
    lengths, NonSquareCells when Lx/nx and Ly/ny disagree.
    """
    if nx < 2 or ny < 2:
        raise InvalidSize(f"need nx, ny >= 2, got ({nx}, {ny})")
    if Lx <= 0.0 or Ly <= 0.0:
        raise InvalidSize(f"need positive side lengths, got ({Lx}, {Ly})")
    hx = Lx / nx
    hy = Ly / ny
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise NonSquareCells(f"cell sides differ: {hx} vs {hy}")
    h = hx

    ox, oy = float(origin[0]), float(origin[1])
    x1 = ox + (np.arange(nx) + 0.5) * h
    y1 = oy + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(x1, y1)
    # read-only before ravel, so xc and yc are views that cannot be made
    # writable again: the source memos in mms key on their identity
    X.setflags(write=False)
    Y.setflags(write=False)
    return UniformMesh(nx, ny, h, (ox, oy), X.ravel(), Y.ravel())


def cell_center(mesh: UniformMesh, k: int) -> tuple[float, float]:
    """Center coordinates of cell k; raises IndexOutOfRange off the mesh."""
    if not 0 <= k < mesh.n_cells:
        raise IndexOutOfRange(f"cell {k} outside 0..{mesh.n_cells - 1}")
    j, i = divmod(int(k), mesh.nx)
    return (mesh.origin[0] + (i + 0.5) * mesh.h,
            mesh.origin[1] + (j + 0.5) * mesh.h)
