"""Per-step implicit diffusion operator, its exact solve and a CG reference.

The operator is (A u)_K = h^2 u_K + dt * d * sum_{L ~ K} (u_K - u_L): the
h^2-weighted identity plus the two-point flux stiffness (transmissibility 1
on square cells), symmetric positive definite for any dt > 0, d > 0.

The orthonormal 2-D DCT-II basis Q diagonalises A on the uniform grid, with
eigenvalues h^2 + c L, c = dt * d and
L = 4 sin^2(pi i / 2 nx) + 4 sin^2(pi j / 2 ny)
(Strang, SIAM Rev. 41, 1999; Schumann & Sweet, J. Comput. Phys. 20, 1976).
solve() uses that basis on every step; solve_cg() is the matrix-free
conjugate-gradient method the paper describes, kept as the reference.

solve() makes one forward and one inverse transform and no operator apply.
With phi = c L / (h^2 + c L), A^-1 = (I - Q phi Q^T) / h^2, so
x = rhs / h^2 - Q (phi / h^2) Q^T (rhs - s) for any shift s, as phi is 0 on
the constant mode. The correction is A^-1 applied to the residual
rhs - A (rhs / h^2), formed in spectral space; relative to x it is at most
c L / h^2, so near the identity (dt ~ h^2) its rounding is far below that
of rhs / h^2. With s = rhs[0] a constant rhs transforms an exact zero and
is solved exactly. The factor grid -phi / h^2 is cached per operator.

solve() never forms the n x n cosine matrix Q. Its columns are mirror
symmetric, Q[n-1-i, k] = (-1)^k Q[i, k], so a transform needs only its top
m = ceil(n/2) rows: the even-k coefficients depend only on the sums of
mirrored input entries, the odd-k ones only on their differences (a
butterfly; the inverse unfolds the same way). Each of the four n x n x n
products of a dense transform becomes two (n/2) x (n/2) x n products, half
the multiply-adds. For odd n the middle row is its own mirror and is
counted once; the odd-k block is padded to m columns with a zero column,
and its middle row is exactly 0. Coefficients stay in this [even | odd]
order between the forward and the inverse transform.

The products and butterflies write into two scratch buffers cached per
mesh shape, so solve() is not re-entrant across threads (nothing in the
package calls it from more than one thread). Its result is a new array.
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
    iterations 0 and residual nan (solve_cg also when ||rhs||^2 overflows).
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
        if not self.d > 0.0:
            raise ValueError(f"need d > 0, got {self.d}")
        if not self.dt > 0.0:
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


def _check_rhs(op: ImplicitDiffusionOperator, rhs: CellField) -> None:
    """Raises at once on a mismatched mesh or a non-finite rhs value."""
    if not rhs.mesh.compatible(op.mesh):
        raise MeshMismatch("rhs mesh does not match operator mesh")
    if not np.isfinite(rhs.values).all():
        raise NoConvergence(0, math.nan)


@functools.lru_cache(maxsize=16)
def _folded_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Top m = ceil(n/2) rows of the orthonormal DCT-II matrix
    Q[i, k] = c_k cos(pi (i + 1/2) k / n), c_0 = sqrt(1/n), c_k = sqrt(2/n),
    as a (2, m, m) stack of its even-k and its odd-k columns, with the
    eigenvalues 4 sin^2(pi k / 2n) of the 1-D Neumann stiffness for those
    columns in the same (2, m) order. For odd n the odd block's last column
    is a zero pad with eigenvalue 0, and its middle row is exactly 0."""
    m = (n + 1) // 2
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(np.arange(m) + 0.5, k) / n) * math.sqrt(2.0 / n)
    q[:, 0] = math.sqrt(1.0 / n)
    lam = 4.0 * np.sin(0.5 * np.pi * k / n) ** 2
    blocks = np.zeros((2, m, m))
    blocks[0] = q[:, 0::2]
    blocks[1, :, :n // 2] = q[:, 1::2]
    lam_p = np.zeros((2, m))
    lam_p[0] = lam[0::2]
    lam_p[1, :n // 2] = lam[1::2]
    if n % 2:
        # cos(pi k / 2) for odd k, which rounding leaves at ~1e-16
        blocks[1, m - 1] = 0.0
    blocks.setflags(write=False)
    lam_p.setflags(write=False)
    return blocks, lam_p


@functools.lru_cache(maxsize=16)
def _workspace(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flat scratch buffers for solve() on an ny x nx mesh, each the
    size of the padded coefficient array: n_cells doubles for even sizes."""
    size = 4 * ((ny + 1) // 2) * ((nx + 1) // 2)
    return np.empty(size), np.empty(size)


@functools.lru_cache(maxsize=16)
def _spectral_factor(ny: int, nx: int, h2: float, c: float) -> np.ndarray:
    """-phi / h^2, phi = c L / (h^2 + c L), for the operator with c = dt * d
    on an ny x nx mesh of spacing sqrt(h2): a read-only (2, 2, my, mx) array
    in solve()'s coefficient order [row parity, column parity, row mode,
    column mode], 0 on the constant mode and on pad modes."""
    lam_y, lam_x = _folded_basis(ny)[1], _folded_basis(nx)[1]
    cl = c * (lam_y[:, None, :, None] + lam_x[None, :, None, :])
    f = -cl / (h2 + cl) / h2
    f.setflags(write=False)
    return f


def _fold(v: np.ndarray, out: np.ndarray) -> None:
    """Butterfly along axis 0 of v (length n) into out (2, ceil(n/2), ...):
    out[0] = top + mirrored bottom, out[1] = top - mirrored bottom, with an
    odd middle slice counted once."""
    k = v.shape[0] // 2
    np.add(v[:k], v[::-1][:k], out=out[0, :k])
    np.subtract(v[:k], v[::-1][:k], out=out[1, :k])
    if v.shape[0] % 2:
        out[:, k] = v[k]


def _unfold(y: np.ndarray, out: np.ndarray) -> None:
    """Inverse butterfly of y (2, ceil(n/2), ...) into out (n, ...) along
    axis 0: top = y[0] + y[1], mirrored bottom = y[0] - y[1]."""
    k = out.shape[0] // 2
    np.add(y[0], y[1], out=out[:y.shape[1]])
    np.subtract(y[0, :k], y[1, :k], out=out[::-1][:k])


def solve(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """Solve A x = rhs exactly in the cosine eigenbasis.

    Returns rhs / h^2 plus the spectral correction described in the module
    docstring, with the shift s = rhs[0]. The shifted values are folded by
    rows (their mirror symmetry splits them into the parts the even-k and
    the odd-k basis columns see) and transformed by one stacked product
    against the two half-size blocks, then likewise by columns. The
    coefficients are scaled by _spectral_factor in that permuted order and
    transformed back the same way; odd sizes carry one zero pad mode. Works
    in buffers cached per mesh shape, so it is not re-entrant across
    threads; the returned array is always new. Raises NoConvergence
    (0 iterations, nan residual) when rhs is non-finite.
    """
    _check_rhs(op, rhs)
    m = op.mesh
    ny, nx = m.ny, m.nx
    h2 = m.h ** 2
    v = rhs.values
    x = v / h2
    by, bx = _folded_basis(ny)[0], _folded_basis(nx)[0]
    my, mx = by.shape[1], bx.shape[1]
    a, b = _workspace(ny, nx)
    half = 2 * my * nx
    a2, b2 = a[:half].reshape(2, my, nx), b[:half].reshape(2, my, nx)
    # coefficient blocks, indexed [row parity, column parity]
    a4, b4 = a.reshape(2, 2, my, mx), b.reshape(2, 2, my, mx)
    r = b[:m.n_cells].reshape(ny, nx)
    np.subtract(v.reshape(ny, nx), v[0], out=r)
    # forward: fold and transform the rows, then the columns
    _fold(r, a2)
    np.matmul(by.transpose(0, 2, 1), a2, out=b2)
    _fold(b2.transpose(2, 0, 1), a4.transpose(1, 3, 0, 2))
    np.matmul(a4, bx, out=b4)
    b4 *= _spectral_factor(ny, nx, h2, op.dt * op.d)
    # inverse: transform and unfold the columns, then the rows
    np.matmul(b4, bx.transpose(0, 2, 1), out=a4)
    _unfold(a4.transpose(1, 3, 0, 2), b2.transpose(2, 0, 1))
    np.matmul(by, b2, out=a2)
    _unfold(a2, r)
    x += b[:m.n_cells]
    return CellField(m, x)


def solve_cg(op: ImplicitDiffusionOperator, rhs: CellField, tol: float = 1e-10,
             max_iter: int = 1000) -> CellField:
    """Solve A x = rhs by CG to ||A x - rhs||_2 <= tol * ||rhs||_2.

    The initial guess is rhs / h^2 (exact when rhs is constant). Raises
    NoConvergence with the iteration count and final relative residual, or
    at once (0 iterations, nan residual) when rhs is non-finite or
    ||rhs||^2 overflows (values above ~1e154), since the stopping test
    needs ||rhs||_2.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"need 0 < tol < 1, got {tol}")
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    _check_rhs(op, rhs)
    b = rhs.values
    bb = float(np.dot(b, b))
    if not math.isfinite(bb):
        raise NoConvergence(0, math.nan)
    bnorm = math.sqrt(bb)
    x = b / op.mesh.h ** 2
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
