"""Per-step implicit diffusion operator and its solve.

The operator is (A u)_K = h^2 u_K + dt * d * sum_{L ~ K} (u_K - u_L): the
h^2-weighted identity plus the two-point flux stiffness K (transmissibility
1 on square cells), symmetric positive definite for any dt > 0, d > 0.
_add_fluxes applies K from field.face_differences; _apply_values and the
series below share it. The tests' reference solvers (CG, dense
elimination) are in tests/oracles.py.

The orthonormal 2-D DCT-II basis Q diagonalises A on the uniform grid, with
eigenvalues h^2 + c L, c = dt * d and
L = 4 sin^2(pi i / 2 nx) + 4 sin^2(pi j / 2 ny)
(Strang, SIAM Rev. 41, 1999; Schumann & Sweet, J. Comput. Phys. 20, 1976).
solve() takes one of three exact paths, which solve_path() names:

- "series". A = h^2 (I + c' K) with c' = c / h^2, and L < 8, so
  rho = 8 c' bounds the spectral radius of c' K. series_passes() returns
  the least p with rho^(p+1) <= 2^-53, or None when that p exceeds
  SERIES_MAX_PASSES. For p <= SERIES_MAX_PASSES solve() takes p Horner
  passes y <- rhs - c' K y from y = rhs (a truncated Neumann series, or
  Richardson iteration; Saad, Iterative Methods for Sparse Linear Systems,
  SIAM 2003) and returns y / h^2. The error after p passes is
  (-c' K)^(p+1) applied to x, at most rho^(p+1) ||x||: the DCT's rounding.
  The runs at dt = h^2 take it (rho ~ 1e-4, p = 3 or 4).
- "dct" and "fft", the cosine basis, for every other operator (the
  pattern runs at dt = 1, the stiff end): by folded dense products below
  FFT_MIN_CELLS cells, by real FFTs from there up. Dense products cost
  O(n^3) multiply-adds per n x n mesh and FFTs O(n^2 log n); the comment
  at FFT_MIN_CELLS records where they cross. Meshes with a side that has
  a prime factor above 11 stay on the dense products, as numpy's FFT is
  several times slower on such lengths.

Both cosine paths make one forward and one inverse transform and no
operator apply. With phi = c L / (h^2 + c L),
A^-1 = (I - Q phi Q^T) / h^2, so
x = rhs / h^2 - Q (phi / h^2) Q^T (rhs - s) for any shift s, as phi is 0 on
the constant mode. The correction is A^-1 applied to the residual
rhs - A (rhs / h^2), formed in spectral space; relative to x it is at most
c L / h^2, so near the identity (dt ~ h^2) its rounding is far below that
of rhs / h^2. With s = rhs[0] a constant rhs transforms an exact zero and
is solved exactly. One uncached helper, _factor_grid, evaluates -phi / h^2
on the natural ny x nx mode grid. Per operator, the dense path caches its
copy in folded order (_spectral_factor) and the FFT path the 2 x 2 maps
built from its transpose (_fft_factor).

Neither forms the n x n cosine matrix Q. Its columns are mirror
symmetric, Q[n-1-i, k] = (-1)^k Q[i, k], so a dense transform needs only
its top m = ceil(n/2) rows: the even-k coefficients depend only on the
sums of mirrored input entries, the odd-k ones only on their differences
(a butterfly; the inverse unfolds the same way). Each of the four
n x n x n products of a dense transform becomes two (n/2) x (n/2) x n
products, half the multiply-adds. For odd n the middle row is its own
mirror and is counted once; the odd-k block is padded to m columns with a
zero column, and its middle row is exactly 0. Coefficients stay in this
[even | odd] order between the forward and the inverse transform.

The FFT path makes each 1-D transform from one real FFT of the same
length (Makhoul, IEEE Trans. ASSP 28, 1980). With the input reordered as
[evens | reversed odds], V its DFT and z_k = exp(-i pi k / 2n) V_k, the
unnormalised DCT-II coefficient of mode k is Re z_k and that of mode n - k
is -Im z_k, for k <= n/2. The inverse pairs the coefficients as
Y_k - i Y_(n-k), multiplies by the conjugate twiddle and inverts the FFT;
it is the unnormalised DCT-III with weights 1/n on mode 0 and 2/n on the
rest, the squares of Q's normalisations, so the scaling is -phi / h^2
itself. The mesh rows are transformed this way first. Their coefficients
are written transposed, so that the column transforms also run along
contiguous memory (at 512^2 a real FFT along axis 0 took 1.1 ms, along
axis 1 0.66 ms). Between the forward and the inverse column FFT the
twiddle, the scaling of the modes j and ny - j, and the conjugate
twiddle are one real symmetric 2 x 2 map [[P, R], [R, Q]] on (Re, Im) of
frequency j, cached per operator.

All three paths work in one scratch cache, _workspace, per mesh shape:
two real buffers and one complex one, each starting on a cache line
(_aligned_empty). The products, butterflies and FFTs write into the real
buffers, and the FFTs into the complex one besides; the series alternates
its passes between the first real buffer and the result, and forms its
face differences in the second. solve() holds one module lock while it
uses that scratch, so threads that solve at once take turns and get the
results a serial caller would. The result of solve() is a new array.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .field import CellField, MeshMismatch, face_differences
from .mesh import UniformMesh


class NoConvergence(RuntimeError):
    """A solve produced no solution: solve() raises it at once, with the
    message "non-finite right-hand side", when rhs is not finite."""


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


SERIES_MAX_PASSES = 4  # above it the series no longer beats the DCT at 64^2
# The cosine basis by real FFTs from this many cells up, by folded dense
# products below. Min of 30 solves at dt = 1, one BLAS thread: dense vs FFT
# 0.65 vs 0.71 ms at 192^2, 1.06 vs 1.13 at 224^2, 1.23 vs 1.10 at 240^2,
# 1.44 vs 1.39 at 256^2, 10.6 vs 6.5 at 512^2.
FFT_MIN_CELLS = 240 * 240


def _aligned_empty(size: int) -> np.ndarray:
    """size doubles starting on a 64-byte (cache line) boundary; numpy's
    allocator aligns to 16 bytes only. Four series passes at 128^2 took
    ~145 us with every buffer on a line boundary and 195-205 us with the
    scratch where the heap happened to put it (min of 300, one process)."""
    buf = np.empty(size + 7)
    k = -buf.ctypes.data % 64 // 8
    return buf[k:k + size]


def _add_fluxes(g: np.ndarray, nx: int, c: float, base: np.ndarray,
                out: np.ndarray, f: np.ndarray | None = None) -> None:
    """out = base + c K g for the flat row-major cell array g of a mesh nx
    cells wide, with f as face_differences' buffer (new when None). base
    may be out; none of them may overlap g."""
    n = g.size
    f = face_differences(g, nx, f)
    f *= c
    fx, fy = f[:n], f[n:]
    np.add(base, fx, out=out)
    out[1:] -= fx[:-1]
    out[:-nx] += fy
    out[nx:] -= fy


def _apply_values(op: ImplicitDiffusionOperator, g_flat: np.ndarray) -> np.ndarray:
    out = (op.mesh.h ** 2) * g_flat
    _add_fluxes(g_flat, op.mesh.nx, op.dt * op.d, out, out)
    return out


def apply(op: ImplicitDiffusionOperator, u: CellField) -> CellField:
    """Matrix-free operator application."""
    if not u.mesh.compatible(op.mesh):
        raise MeshMismatch("field mesh does not match operator mesh")
    return CellField(op.mesh, _apply_values(op, u.values))


def _neumann_eigenvalues(n: int) -> np.ndarray:
    """4 sin^2(pi k / 2n), k = 0 .. n-1: the eigenvalues of the 1-D Neumann
    stiffness for the DCT-II columns k."""
    return 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2


def _factor_grid(ny: int, nx: int, h2: float, c: float) -> np.ndarray:
    """-phi / h^2, phi = c L / (h^2 + c L), for the operator with c = dt * d
    on an ny x nx mesh of spacing sqrt(h2): an (ny, nx) array indexed
    [row mode, column mode], 0 on the constant mode."""
    cl = c * (_neumann_eigenvalues(ny)[:, None] + _neumann_eigenvalues(nx))
    return -cl / (h2 + cl) / h2


@functools.lru_cache(maxsize=16)
def _folded_basis(n: int) -> np.ndarray:
    """Top m = ceil(n/2) rows of the orthonormal DCT-II matrix
    Q[i, k] = c_k cos(pi (i + 1/2) k / n), c_0 = sqrt(1/n), c_k = sqrt(2/n),
    as a read-only (2, m, m) stack of its even-k and its odd-k columns. For
    odd n the odd block's last column is a zero pad, and its middle row is
    exactly 0."""
    m = (n + 1) // 2
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(np.arange(m) + 0.5, k) / n) * math.sqrt(2.0 / n)
    q[:, 0] = math.sqrt(1.0 / n)
    blocks = np.zeros((2, m, m))
    blocks[0] = q[:, 0::2]
    blocks[1, :, :n // 2] = q[:, 1::2]
    if n % 2:
        # cos(pi k / 2) for odd k, which rounding leaves at ~1e-16
        blocks[1, m - 1] = 0.0
    blocks.setflags(write=False)
    return blocks


@functools.lru_cache(maxsize=16)
def _workspace(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scratch of every solve on an ny x nx mesh, each buffer flat and
    starting on a cache line: a real buffer the size of the padded
    coefficient array (n_cells doubles for even sizes); a second one that
    also has room for the series' 2 n_cells - nx face differences; and the
    FFT path's complex buffer, with room for the row spectrum,
    ny x (nx/2 + 1), and the column spectrum, nx x (ny/2 + 1). solve()
    holds _scratch_lock while it uses them."""
    size = 4 * ((ny + 1) // 2) * ((nx + 1) // 2)
    n_spec = max(ny * (nx // 2 + 1), nx * (ny // 2 + 1))
    return (_aligned_empty(size), _aligned_empty(max(size, 2 * ny * nx - nx)),
            _aligned_empty(2 * n_spec).view(complex))


_scratch_lock = threading.Lock()


@functools.lru_cache(maxsize=16)
def _spectral_factor(ny: int, nx: int, h2: float, c: float) -> np.ndarray:
    """_factor_grid in solve()'s coefficient order [row parity, column
    parity, row mode, column mode]: a read-only (2, 2, my, mx) copy, 0 on
    pad modes."""
    my, mx = (ny + 1) // 2, (nx + 1) // 2
    f = np.zeros((2 * my, 2 * mx))
    f[:ny, :nx] = _factor_grid(ny, nx, h2, c)
    f = np.ascontiguousarray(f.reshape(my, 2, mx, 2).transpose(1, 3, 0, 2))
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


def series_passes(op: ImplicitDiffusionOperator) -> int | None:
    """The least p with rho^(p+1) <= 2^-53, rho = 8 dt d / h^2, when it is
    at most SERIES_MAX_PASSES: solve() then takes p series passes. None
    means solve() takes the cosine basis."""
    rho = 8.0 * op.dt * op.d / op.mesh.h ** 2
    if rho < 1.0:  # else the powers could overflow
        for p in range(SERIES_MAX_PASSES + 1):
            if rho ** (p + 1) <= 2.0 ** -53:
                return p
    return None


def _fft_radices_only(n: int) -> bool:
    """Whether n factors over 2, 3, 5, 7 and 11. Larger prime factors make
    numpy's FFT several times slower: a 257^2 solve took 5.6 ms by FFTs
    against 1.7 ms by dense products, a 509^2 one 40 against 16."""
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1


def solve_path(op: ImplicitDiffusionOperator) -> str:
    """The path solve() takes for op: "series" when series_passes(op) gives
    a pass count; else the cosine basis, by real FFTs ("fft") on meshes of
    at least FFT_MIN_CELLS cells whose sides factor over 2, 3, 5, 7 and 11,
    by folded dense products ("dct") on the others."""
    if series_passes(op) is not None:
        return "series"
    m = op.mesh
    if (m.n_cells >= FFT_MIN_CELLS and _fft_radices_only(m.nx)
            and _fft_radices_only(m.ny)):
        return "fft"
    return "dct"


def solve(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """Solve A x = rhs, exact to rounding, on the path solve_path(op) names
    (module docstring). Threads that call it at once take turns on the
    scratch of _workspace; the returned array is always new. Raises
    NoConvergence when rhs is non-finite.
    """
    if not rhs.mesh.compatible(op.mesh):
        raise MeshMismatch("rhs mesh does not match operator mesh")
    if not np.isfinite(rhs.values).all():
        raise NoConvergence("non-finite right-hand side")
    path = solve_path(op)
    with _scratch_lock:
        if path == "series":
            return _solve_series(op, rhs)
        if path == "fft":
            return _solve_fft(op, rhs)
        return _solve_dct(op, rhs)


def _solve_series(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """series_passes(op) Horner passes y <- rhs - c' K y from y = rhs, then
    x = y / h^2. The passes alternate between the result and the first
    scratch buffer so that the last one writes the result; the face
    differences go to the second."""
    m = op.mesh
    h2 = m.h ** 2
    v = rhs.values
    x = np.empty_like(v)
    a, b, _ = _workspace(m.ny, m.nx)
    s, f = a[:m.n_cells], b[:2 * m.n_cells - m.nx]
    c = -(op.dt * op.d / h2)
    y = v
    for k in range(series_passes(op), 0, -1):  # k passes left
        out = x if k % 2 else s
        _add_fluxes(y, m.nx, c, v, out, f)
        y = out
    np.divide(y, h2, out=x)
    return CellField(m, x)


@functools.lru_cache(maxsize=16)
def _twiddles(n: int) -> np.ndarray:
    """exp(-i pi k / 2n) and its conjugate for k = 0 .. n/2, as a read-only
    (2, n // 2 + 1) array."""
    w = np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
    tw = np.stack([w, w.conj()])
    tw.setflags(write=False)
    return tw


@functools.lru_cache(maxsize=16)
def _fft_factor(ny: int, nx: int, h2: float, c: float) -> np.ndarray:
    """The FFT path's map for the operator with c = dt * d on an ny x nx
    mesh of spacing sqrt(h2): a read-only (3, nx, ny // 2 + 1) stack
    [P, Q, R] indexed [column mode, row frequency j]. With f the
    transposed _factor_grid, f1 = f at row mode j, f2 = f at row mode
    ny - j (mode 0 at j = 0) and t = pi j / 2 ny: P = f1 cos^2 t +
    f2 sin^2 t, Q = f1 sin^2 t + f2 cos^2 t, R = (f1 - f2) sin t cos t."""
    f = _factor_grid(ny, nx, h2, c).T
    j = np.arange(ny // 2 + 1)
    f1, f2 = f[:, j], f[:, -j]
    t = 0.5 * np.pi * j / ny
    cos2, sin2 = np.cos(t) ** 2, np.sin(t) ** 2
    pqr = np.stack([f1 * cos2 + f2 * sin2, f1 * sin2 + f2 * cos2,
                    (f1 - f2) * (np.sin(t) * np.cos(t))])
    pqr.setflags(write=False)
    return pqr


def _solve_fft(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """Solve A x = rhs exactly in the cosine eigenbasis, by real FFTs.

    The same x as _solve_dct, each 1-D transform made by Makhoul's
    reordering (module docstring). The shifted rows are reordered, FFT'd
    and twiddled. Their real coefficients are written transposed, one
    column mode per row, with the mesh rows reordered along it; each such
    row gets one real FFT, the 2 x 2 map of _fft_factor and one inverse
    real FFT. The result is paired back into the row spectrum, twiddled
    back, inverse FFT'd, un-reordered and added to rhs / h^2.
    """
    m = op.mesh
    ny, nx = m.ny, m.nx
    n, h2 = m.n_cells, m.h ** 2
    v = rhs.values
    x = v / h2
    my, mx, kx = (ny + 1) // 2, (nx + 1) // 2, nx // 2 + 1
    a, b, z = _workspace(ny, nx)
    zr, zc = z[:ny * kx].reshape(ny, kx), z[:nx * (ny // 2 + 1)].reshape(nx, -1)
    w, w_conj = _twiddles(nx)
    # rows: reorder [evens | reversed odds], transform, twiddle
    v2, rows = v.reshape(ny, nx), a[:n].reshape(ny, nx)
    np.subtract(v2[:, 0::2], v[0], out=rows[:, :mx])
    np.subtract(v2[:, 1::2], v[0], out=rows[:, :mx - 1:-1])
    np.fft.rfft(rows, axis=1, out=zr)
    zr *= w
    # real coefficients [Re | -Im reversed], transposed, the mesh rows
    # reordered along each. -1.0 * and not np.negative: numpy 2.4's negative
    # loop misreads an input strided by 64 bytes into a strided output
    cols = b[:n].reshape(nx, ny)
    for src, dst in ((zr[0::2], cols[:, :my]), (zr[1::2], cols[:, :my - 1:-1])):
        np.copyto(dst[:kx], src.real.T)
        np.multiply(src.imag[:, 1:mx].T, -1.0, out=dst[:kx - 1:-1])
    # columns: transform, map each frequency pair, transform back
    np.fft.rfft(cols, axis=1, out=zc)
    p, q, r = _fft_factor(ny, nx, h2, op.dt * op.d)
    re, im = zc.real, zc.imag
    t1, t2 = a[:zc.size].reshape(zc.shape), b[:zc.size].reshape(zc.shape)
    np.multiply(r, im, out=t1)
    np.multiply(r, re, out=t2)
    re *= p
    re += t1
    im *= q
    im += t2
    cols = a[:n].reshape(nx, ny)
    np.fft.irfft(zc, n=ny, axis=1, out=cols)
    # rows back: pair Y_k - i Y_(n-k) with the mesh rows un-reordered,
    # twiddle back, transform, un-reorder and add
    for src, dst in ((cols[:, :my], zr[0::2]), (cols[:, :my - 1:-1], zr[1::2])):
        np.copyto(dst.real, src[:kx].T)
        np.multiply(src[:-kx:-1].T, -1.0, out=dst.imag[:, 1:])
    zr.imag[:, 0] = 0.0  # Y_n = 0
    zr *= w_conj
    rows = b[:n].reshape(ny, nx)
    np.fft.irfft(zr, n=nx, axis=1, out=rows)
    x2 = x.reshape(ny, nx)
    x2[:, 0::2] += rows[:, :mx]
    x2[:, 1::2] += rows[:, :mx - 1:-1]
    return CellField(m, x)


def _solve_dct(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """Solve A x = rhs exactly in the cosine eigenbasis, by folded dense
    products.

    Returns rhs / h^2 plus the spectral correction described in the module
    docstring, with the shift s = rhs[0]. The shifted values are folded by
    rows (their mirror symmetry splits them into the parts the even-k and
    the odd-k basis columns see) and transformed by one stacked product
    against the two half-size blocks, then likewise by columns. The
    coefficients are scaled by _spectral_factor in that permuted order and
    transformed back the same way; odd sizes carry one zero pad mode.
    """
    m = op.mesh
    ny, nx = m.ny, m.nx
    h2 = m.h ** 2
    v = rhs.values
    x = v / h2
    by, bx = _folded_basis(ny), _folded_basis(nx)
    my, mx = by.shape[1], bx.shape[1]
    a, b, _ = _workspace(ny, nx)
    half = 2 * my * nx
    a2, b2 = a[:half].reshape(2, my, nx), b[:half].reshape(2, my, nx)
    # coefficient blocks, indexed [row parity, column parity]
    a4, b4 = a.reshape(2, 2, my, mx), b[:a.size].reshape(2, 2, my, mx)
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

