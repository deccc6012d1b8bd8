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

The cosine paths rest on one transform pair each. transform() takes cell
values to Modes: a scalar shift s = values[0] and the orthonormal cosine
coefficients Q^T (values - s), in the path's own layout.
inverse_transform() takes them back to s + Q coeffs. A constant field is
its shift alone, with coefficients that are exact zeros, and comes back
exactly. solve() solves in the cosine basis in the direct form
x = s / h^2 + Q Lambda^-1 Q^T (rhs - s), Lambda = h^2 + c L (Chen & Shen,
Comput. Phys. Commun. 108, 1998), one factor grid 1 / Lambda per operator
(_factor). A CellField takes s = mean(rhs), mean mode 0 (_solve_cosine):
as transform() would (s = rhs[0], mean mode kept) it erred 5.2e-12,
3.5e-11, 3.0e-11 at 128^2, 257^2, 512^2 against a known x at d = 1,
dt = 0.25, and 2.9e-14, 5.3e-14, 1.7e-13 this way (worst of 20 x).

Neither path forms the n x n cosine matrix Q. Its columns are mirror
symmetric, Q[n-1-i, k] = (-1)^k Q[i, k], so a dense transform needs only
its top m = ceil(n/2) rows (_folded_basis): the even-k coefficients
depend only on the sums of mirrored input entries, the odd-k ones only on
their differences (a butterfly; the inverse unfolds the same way). Each of
the four n x n x n products of a dense transform becomes two
(n/2) x (n/2) x n products, half the multiply-adds. For odd n the middle
row is its own mirror and is counted once; the odd-k block is padded to m
columns with a zero column, and its middle row is exactly 0. The rows are
folded and transformed first; BLAS writes that product transposed for
free, so the columns are then folded along the first axis as well. Each
butterfly first copies the mirrored half into scratch, as numpy would
copy an operand strided backwards for each op itself. Coefficients are
laid out [row parity, column parity, column mode // 2, row mode // 2].
The basis angles are reduced in integers: rounded, an angle of size ~n
errs by ~n ulps, and the round trip at 512^2 erred by 3e-14 against
1.7e-15.

The FFT path makes each 1-D transform from one real FFT of the same
length (Makhoul, IEEE Trans. ASSP 28, 1980). With the input reordered as
[evens | reversed odds], V its DFT and z_k = c_k exp(-i pi k / 2n) V_k,
with Q's normalisation c_k, the coefficient of mode k is Re z_k and that
of mode n - k is -Im z_k, for k <= n/2. The inverse pairs the
coefficients as Y_k - i Y_(n-k), multiplies by exp(i pi k / 2n) / c_k and
inverts the FFT. The mesh rows are transformed this way first. Their
coefficients are written transposed, so that the column transforms also
run along contiguous memory (at 512^2 a real FFT along axis 0 took
1.1 ms, along axis 1 0.66 ms). The twiddled column spectra are the
layout, viewed as reals: nx rows of ny // 2 + 1 pairs (Re, Im), the
coefficients of row modes j and -(ny - j).

All three paths work in the scratch of one plan per mesh shape, _plan:
two real buffers and one complex one, each starting on a cache line
(_aligned_empty), and the views the dense pair takes of them and of the
folded bases, built on the pair's first use. The dense products and
butterflies alternate between the real buffers and copy mirrored halves
into the complex one; the FFT path uses the first real buffer and the
complex one; the series alternates its passes between the first real
buffer and the result, and forms its face differences in the second.
The transforms and solve() hold one module lock while they use that
scratch, so threads that solve at once take turns and get the results a
serial caller would. The result of solve() is a new array.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from types import SimpleNamespace

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


def _coefficient_shape(path: str, ny: int, nx: int) -> tuple:
    """The shape of a coefficient array on the cosine path `path` (module
    docstring): (2, 2, ceil(nx/2), ceil(ny/2)) for "dct", (nx,
    2 (ny // 2 + 1)) for "fft"."""
    if path == "dct":
        return (2, 2, (nx + 1) // 2, (ny + 1) // 2)
    return (nx, 2 * (ny // 2 + 1))


@functools.lru_cache(maxsize=16)
def _factor(path: str, ny: int, nx: int, h2: float, c: float) -> np.ndarray:
    """The spectral factor 1 / (h^2 + c L) of the operator with c = dt * d
    on an ny x nx mesh of spacing sqrt(h2), read-only, in the coefficient
    layout of `path`. Pad modes get 0."""
    cl = c * (_neumann_eigenvalues(ny)[:, None] + _neumann_eigenvalues(nx))
    g = (1.0 / (h2 + cl)).T
    if path == "dct":  # [column mode, row mode] to [p, q, column, row]
        my, mx = (ny + 1) // 2, (nx + 1) // 2
        f = np.zeros((2 * mx, 2 * my))
        f[:nx, :ny] = g
        f = np.ascontiguousarray(f.reshape(mx, 2, my, 2).transpose(3, 1, 0, 2))
    else:  # row mode j in the real part, ny - j in the imaginary part
        j = np.arange(ny // 2 + 1)
        f = np.stack([g[:, j], g[:, -j]], axis=-1).reshape(nx, -1)
    f.setflags(write=False)
    return f


@functools.lru_cache(maxsize=16)
def _folded_basis(n: int) -> np.ndarray:
    """Top m = ceil(n/2) rows of the orthonormal DCT-II matrix
    Q[i, k] = c_k cos(pi (i + 1/2) k / n), c_0 = sqrt(1/n), c_k = sqrt(2/n),
    as a read-only (2, m, m) stack of its even-k and its odd-k columns. For
    odd n the odd block's last column is a zero pad, and its middle row is
    exactly 0 (r = n)."""
    m = (n + 1) // 2
    # the angle pi (2i + 1) k / 2n as pi r / 2n, with r reduced in integers
    # to [0, n] and the sign folded out; sin(pi (n - r) / 2n) above pi / 4.
    # Rounding an angle of size ~n would cost ~n ulps.
    r = np.outer(2 * np.arange(m) + 1, np.arange(n)) % (4 * n)
    r = np.minimum(r, 4 * n - r)
    sign = np.where(r > n, -1.0, 1.0)
    r = np.minimum(r, 2 * n - r)
    q = sign * np.where(2 * r <= n, np.cos(0.5 * np.pi * r / n),
                        np.sin(0.5 * np.pi * (n - r) / n)) * math.sqrt(2.0 / n)
    q[:, 0] = math.sqrt(1.0 / n)
    blocks = np.zeros((2, m, m))
    blocks[0] = q[:, 0::2]
    blocks[1, :, :n // 2] = q[:, 1::2]  # for odd n the middle row is 0
    blocks.setflags(write=False)
    return blocks


@functools.lru_cache(maxsize=16)
def _twiddles(n: int) -> np.ndarray:
    """The FFT path's twiddles for length n, k = 0 .. n/2, as a read-only
    (2, n // 2 + 1) array: forward c_k exp(-i pi k / 2n) and inverse
    exp(i pi k / 2n) / c_k, with Q's normalisation c_0 = sqrt(1/n),
    c_k = sqrt(2/n)."""
    k = np.arange(n // 2 + 1)
    w = np.exp(-0.5j * np.pi * k / n)
    ck = np.full(k.size, math.sqrt(2.0 / n))
    ck[0] = math.sqrt(1.0 / n)
    tw = np.stack([ck * w, w.conj() / ck])
    tw.setflags(write=False)
    return tw


def _butterfly(g: np.ndarray, y: np.ndarray, tmp: np.ndarray):
    """The views of a butterfly between a C-contiguous grid g and its
    folded pair y, along their first axes: g has length n there, y
    (2, ceil(n/2)); k = n // 2, and tmp is scratch laid out as g[:k]."""
    k = len(g) // 2
    return SimpleNamespace(
        top=g[:k], half=g[:y.shape[1]], bottom=g[::-1][:k], tmp=tmp,
        y0=y[0], y1=y[1], sum=y[0, :k], diff=y[1, :k],
        mid=(y[:, k], g[k]) if len(g) % 2 else None)


class _Plan:
    """The scratch of every transform and solve on an ny x nx mesh, flat
    buffers on cache lines: a, the padded dense coefficient array's size;
    b, with room for the series' 2 n_cells - nx face differences too; the
    FFT path's complex z, for the row spectrum ny x (nx/2 + 1) and the
    column spectrum nx x (ny/2 + 1). Users hold _scratch_lock."""

    def __init__(self, ny: int, nx: int):
        self.shape, size = (ny, nx), 4 * ((ny + 1) // 2) * ((nx + 1) // 2)
        n_spec = max(ny * (nx // 2 + 1), nx * (ny // 2 + 1))
        self.a, self.b = (_aligned_empty(size),
                          _aligned_empty(max(size, 2 * ny * nx - nx)))
        self.z = _aligned_empty(2 * n_spec).view(complex)

    @functools.cached_property
    def dense(self) -> SimpleNamespace:
        """The dense pair's views, built on its first use: grid (ny, nx)
        and cols (2, nx, my) in b, rows (2, my, nx) and f4 (2, 2, mx, my)
        in a, the transposes its products take, and its butterflies."""
        ny, nx = self.shape
        by, bx = _folded_basis(ny), _folded_basis(nx)
        my, mx, tmp = by.shape[1], bx.shape[1], self.z.view(float)
        grid, cols = (self.b[:ny * nx].reshape(ny, nx),
                      self.b[:2 * nx * my].reshape(2, nx, my))
        rows, f4 = (self.a[:2 * my * nx].reshape(2, my, nx),
                    self.a.reshape(2, 2, mx, my))
        return SimpleNamespace(
            grid=grid, rows=rows, cols=cols, f4=f4, by=by, bx=bx,
            rows_t=rows.transpose(0, 2, 1), cols_t=cols.transpose(0, 2, 1),
            bx_t=bx.transpose(0, 2, 1), row_fold=_butterfly(
                grid, rows, tmp[:ny // 2 * nx].reshape(-1, nx)),
            col_fold=_butterfly(
                cols.transpose(1, 0, 2), f4.transpose(1, 2, 0, 3),
                tmp[:nx // 2 * 2 * my].reshape(2, -1, my).transpose(1, 0, 2)))


_plan = functools.lru_cache(maxsize=16)(_Plan)  # one plan per mesh shape
_scratch_lock = threading.Lock()


def _dct_forward(v2: np.ndarray, shift: float, out: np.ndarray) -> None:
    """The coefficients of the (ny, nx) grid v2 - shift by folded dense
    products (module docstring), into out (2, 2, ceil(nx/2), ceil(ny/2))."""
    p = _plan(*v2.shape).dense
    r, c = p.row_fold, p.col_fold
    np.subtract(v2, shift, out=p.grid)
    np.copyto(r.tmp, r.bottom)
    np.add(r.top, r.tmp, out=r.sum)
    np.subtract(r.top, r.tmp, out=r.diff)
    if r.mid:
        np.copyto(*r.mid)
    np.matmul(p.rows_t, p.by, out=p.cols)
    np.copyto(c.tmp, c.bottom)
    np.add(c.top, c.tmp, out=c.sum)
    np.subtract(c.top, c.tmp, out=c.diff)
    if c.mid:
        np.copyto(*c.mid)
    np.matmul(p.bx_t, p.f4, out=out)


def _dct_inverse(c4: np.ndarray, base: float, out2: np.ndarray) -> None:
    """out2 = base + the (ny, nx) grid with the coefficients c4: the steps
    of _dct_forward backwards."""
    p = _plan(*out2.shape).dense
    r, c = p.row_fold, p.col_fold
    np.matmul(p.bx, c4, out=p.f4)
    np.add(c.y0, c.y1, out=c.half)
    np.subtract(c.sum, c.diff, out=c.tmp)
    np.copyto(c.bottom, c.tmp)
    np.matmul(p.by, p.cols_t, out=p.rows)
    np.add(r.y0, r.y1, out=r.half)
    np.subtract(r.sum, r.diff, out=r.tmp)
    np.copyto(r.bottom, r.tmp)
    np.add(p.grid, base, out=out2)


def _fft_forward(v2: np.ndarray, shift: float, out: np.ndarray) -> None:
    """The coefficients of the (ny, nx) grid v2 - shift by real FFTs, into
    out (nx, 2 (ny // 2 + 1)). The shifted rows are reordered, FFT'd and
    twiddled. Their real coefficients are written transposed, one column
    mode per row, with the mesh rows reordered along it; each such row is
    FFT'd and twiddled into out. Only the first real and the complex
    scratch buffers are used."""
    ny, nx = v2.shape
    my, mx, kx = (ny + 1) // 2, (nx + 1) // 2, nx // 2 + 1
    p = _plan(ny, nx)
    zr, rows = p.z[:ny * kx].reshape(ny, kx), p.a[:ny * nx].reshape(ny, nx)
    np.subtract(v2[:, 0::2], shift, out=rows[:, :mx])
    np.subtract(v2[:, 1::2], shift, out=rows[:, :mx - 1:-1])
    np.fft.rfft(rows, axis=1, out=zr)
    zr *= _twiddles(nx)[0]
    # real coefficients [Re | -Im reversed], transposed, the mesh rows
    # reordered along each. -1.0 * and not np.negative: numpy 2.4's negative
    # loop misreads an input strided by 64 bytes into a strided output
    cols = p.a[:ny * nx].reshape(nx, ny)
    for src, dst in ((zr[0::2], cols[:, :my]), (zr[1::2], cols[:, :my - 1:-1])):
        np.copyto(dst[:kx], src.real.T)
        np.multiply(src.imag[:, 1:mx].T, -1.0, out=dst[:kx - 1:-1])
    zc = out.view(complex)
    np.fft.rfft(cols, axis=1, out=zc)
    zc *= _twiddles(ny)[0]


def _fft_inverse(c2: np.ndarray, base: float, out2: np.ndarray) -> None:
    """out2 = base + the (ny, nx) grid with the coefficients c2: the steps
    of _fft_forward backwards, the real coefficients of each mesh row
    paired as Y_k - i Y_(n-k)."""
    ny, nx = out2.shape
    my, mx, kx = (ny + 1) // 2, (nx + 1) // 2, nx // 2 + 1
    p = _plan(ny, nx)
    zc = p.z[:c2.size // 2].reshape(nx, -1)
    np.multiply(c2.view(complex), _twiddles(ny)[1], out=zc)
    cols = p.a[:ny * nx].reshape(nx, ny)
    np.fft.irfft(zc, n=ny, axis=1, out=cols)
    zr = p.z[:ny * kx].reshape(ny, kx)
    for src, dst in ((cols[:, :my], zr[0::2]), (cols[:, :my - 1:-1], zr[1::2])):
        np.copyto(dst.real, src[:kx].T)
        np.multiply(src[:-kx:-1].T, -1.0, out=dst.imag[:, 1:])
    zr.imag[:, 0] = 0.0  # Y_n = 0
    zr *= _twiddles(nx)[1]
    rows = p.a[:ny * nx].reshape(ny, nx)
    np.fft.irfft(zr, n=nx, axis=1, out=rows)
    np.add(rows[:, :mx], base, out=out2[:, 0::2])
    np.add(rows[:, :mx - 1:-1], base, out=out2[:, 1::2])


_FORWARD = {"dct": _dct_forward, "fft": _fft_forward}
_INVERSE = {"dct": _dct_inverse, "fft": _fft_inverse}


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


def _cosine_path(mesh: UniformMesh) -> str:
    """The mesh's cosine path: "fft" on meshes of at least FFT_MIN_CELLS
    cells whose sides factor over 2, 3, 5, 7 and 11, else "dct"."""
    if (mesh.n_cells >= FFT_MIN_CELLS and _fft_radices_only(mesh.nx)
            and _fft_radices_only(mesh.ny)):
        return "fft"
    return "dct"


def solve_path(op: ImplicitDiffusionOperator) -> str:
    """The path solve() takes for op and a CellField: "series" when
    series_passes(op) gives a pass count, else the mesh's cosine path, by
    real FFTs ("fft") or by folded dense products ("dct")."""
    if series_passes(op) is not None:
        return "series"
    return _cosine_path(op.mesh)


@dataclass(eq=False)
class Modes:
    """A cell field as shift + Q coeffs: a scalar shift and the cosine
    coefficients of the field's deviation from it, in the layout of the
    mesh's cosine path. transform() makes them; solve() takes them as a
    right-hand side."""

    mesh: UniformMesh
    shift: float
    coeffs: np.ndarray

    def is_finite(self) -> bool:
        return math.isfinite(self.shift) and bool(np.isfinite(self.coeffs).all())


def coefficient_array(mesh: UniformMesh) -> np.ndarray:
    """A new, uninitialised coefficient array for the mesh's cosine path.
    It has room for n_cells doubles, so its flat start can hold the cell
    values that transform() then replaces by their coefficients."""
    return np.empty(_coefficient_shape(_cosine_path(mesh), mesh.ny, mesh.nx))


def transform(mesh: UniformMesh, values: np.ndarray,
              out: np.ndarray | None = None) -> Modes:
    """The modes of the cell values on mesh, with the shift values[0], so
    that a constant field has exactly zero coefficients. out, when given,
    is a coefficient_array() to write them into; values may be its first
    n_cells doubles, as they are read before out is written."""
    if out is None:
        out = coefficient_array(mesh)
    shift = float(values[0])
    # a non-finite value makes non-finite coefficients, which solve()
    # rejects; numpy need not warn of it
    with _scratch_lock, np.errstate(invalid="ignore"):
        _FORWARD[_cosine_path(mesh)](values.reshape(mesh.ny, mesh.nx), shift,
                                     out)
    return Modes(mesh, shift, out)


def inverse_transform(modes: Modes) -> np.ndarray:
    """The cell values shift + Q coeffs of modes, as a new array."""
    m = modes.mesh
    x = np.empty(m.n_cells)
    with _scratch_lock:
        _INVERSE[_cosine_path(m)](modes.coeffs, modes.shift,
                                  x.reshape(m.ny, m.nx))
    return x


def solve(op: ImplicitDiffusionOperator, rhs: CellField | Modes) -> CellField:
    """Solve A x = rhs, exact to rounding (module docstring). A CellField
    takes the path solve_path(op) names. Modes are solved in the cosine
    basis: their coefficients are scaled in place into the modes of x, and
    x is their inverse transform. Threads that call it at once take turns
    on the scratch of _plan; the returned array is always new. Raises
    NoConvergence when rhs is non-finite.
    """
    if not rhs.mesh.compatible(op.mesh):
        raise MeshMismatch("rhs mesh does not match operator mesh")
    if not rhs.is_finite():
        raise NoConvergence("non-finite right-hand side")
    m = op.mesh
    h2 = m.h ** 2
    if isinstance(rhs, Modes):
        rhs.coeffs *= _factor(_cosine_path(m), m.ny, m.nx, h2, op.dt * op.d)
        rhs.shift = rhs.shift / h2
        return CellField(m, inverse_transform(rhs))
    path = solve_path(op)
    with _scratch_lock:
        if path == "series":
            return _solve_series(op, rhs)
        return _solve_cosine(op, rhs, path)


def _solve_series(op: ImplicitDiffusionOperator, rhs: CellField) -> CellField:
    """series_passes(op) Horner passes y <- rhs - c' K y from y = rhs, then
    x = y / h^2. The passes alternate between the result and the first
    scratch buffer so that the last one writes the result; the face
    differences go to the second."""
    m = op.mesh
    h2 = m.h ** 2
    v = rhs.values
    x = np.empty_like(v)
    p = _plan(m.ny, m.nx)
    s, f = p.a[:m.n_cells], p.b[:2 * m.n_cells - m.nx]
    c = -(op.dt * op.d / h2)
    y = v
    for k in range(series_passes(op), 0, -1):  # k passes left
        out = x if k % 2 else s
        _add_fluxes(y, m.nx, c, v, out, f)
        y = out
    np.divide(y, h2, out=x)
    return CellField(m, x)


def _solve_cosine(op: ImplicitDiffusionOperator, rhs: CellField,
                  path: str) -> CellField:
    """A x = rhs on the cosine path `path`; the caller holds _scratch_lock."""
    m = op.mesh
    h2 = m.h ** 2
    v = rhs.values
    c = np.empty(_coefficient_shape(path, m.ny, m.nx))
    # the mean of rhs as it is (rhs[0] + mean(rhs - rhs[0]) erred ~50x more),
    # and rhs[0] for a constant rhs, which then comes back exactly
    s = v[0] if v.min() == v.max() else np.mean(v)
    _FORWARD[path](v.reshape(m.ny, m.nx), s, c)
    # the mean mode of rhs - s, first in either layout, is 0 but for
    # rounding, which 1 / h^2 amplifies: at 512^2, d = 1, dt = 0.25 the
    # error against 20 known x was 1e-13 to 6e-12 with it kept, 2e-14 to
    # 1.5e-13 with it zeroed
    c.flat[0] = 0.0
    c *= _factor(path, m.ny, m.nx, h2, op.dt * op.d)
    x = np.empty(m.n_cells)
    _INVERSE[path](c, s / h2, x.reshape(m.ny, m.nx))
    return CellField(m, x)
