import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsfv.mesh import InvalidSize, build_mesh
from oracles import interior_faces

sizes = st.integers(min_value=2, max_value=12)


def test_build_4x4_counts():
    m = build_mesh(4, 4)
    assert m.h == 0.25
    assert m.n_cells == 16
    assert len(interior_faces(m)) == 24


def test_build_128_h():
    m = build_mesh(128, 128)
    assert m.h == 0.0078125


def test_build_rejects_small_sizes():
    with pytest.raises(InvalidSize):
        build_mesh(1, 4)
    with pytest.raises(InvalidSize):
        build_mesh(4, 1)


def test_rectangle_with_square_cells_ok():
    # the longer side spans [0, 1]
    m = build_mesh(4, 2)
    assert m.h == 0.25
    assert m.n_cells == 8


def test_cell_center_examples():
    m = build_mesh(4, 4)
    assert (m.xc[0], m.yc[0]) == (0.125, 0.125)
    assert (m.xc[5], m.yc[5]) == (0.375, 0.375)
    m2 = build_mesh(2, 2)
    assert (m2.xc[3], m2.yc[3]) == (0.75, 0.75)


@given(nx=sizes, ny=sizes)
def test_face_count_formula(nx, ny):
    m = build_mesh(nx, ny)
    assert len(interior_faces(m)) == nx * (ny - 1) + ny * (nx - 1)


@given(nx=sizes, ny=sizes)
def test_faces_join_axis_neighbors_with_unit_tau(nx, ny):
    m = build_mesh(nx, ny)
    for K, L, tau in interior_faces(m):
        assert tau == 1.0
        assert L - K in (1, nx)
        if L - K == 1:  # x-neighbors never wrap a row
            assert K % nx != nx - 1


@given(nx=sizes, ny=sizes)
def test_face_ordering_x_then_y(nx, ny):
    m = build_mesh(nx, ny)
    faces = interior_faces(m)
    n_xf = ny * (nx - 1)
    assert all(L - K == 1 for K, L, _ in faces[:n_xf])
    assert all(L - K == nx for K, L, _ in faces[n_xf:])


@given(nx=sizes, ny=sizes)
def test_incidence_counts(nx, ny):
    m = build_mesh(nx, ny)
    deg = np.zeros(m.n_cells, dtype=int)
    for K, L, _ in interior_faces(m):
        deg[K] += 1
        deg[L] += 1
    deg = deg.reshape(ny, nx)
    # corners touch 2 interior faces, edges 3, interior cells 4
    assert deg[0, 0] == deg[0, -1] == deg[-1, 0] == deg[-1, -1] == 2
    if nx > 2:
        assert np.all(deg[0, 1:-1] == 3) and np.all(deg[-1, 1:-1] == 3)
    if ny > 2:
        assert np.all(deg[1:-1, 0] == 3) and np.all(deg[1:-1, -1] == 3)
    if nx > 2 and ny > 2:
        assert np.all(deg[1:-1, 1:-1] == 4)


@given(nx=sizes, ny=sizes)
def test_total_area(nx, ny):
    m = build_mesh(nx, ny)
    assert m.h == 1.0 / max(nx, ny)
    Lx, Ly = nx * m.h, ny * m.h
    assert max(Lx, Ly) == 1.0
    assert m.h ** 2 * m.n_cells == pytest.approx(Lx * Ly, rel=1e-15)


@given(nx=sizes, ny=sizes)
def test_cell_center_formula(nx, ny):
    # row-major with x fastest: cell k = j*nx + i sits at ((i+1/2)h, (j+1/2)h)
    m = build_mesh(nx, ny)
    assert m.xc.shape == m.yc.shape == (m.n_cells,)
    k = np.arange(m.n_cells)
    i, j = k % nx, k // nx
    assert np.array_equal(m.xc, (i + 0.5) * m.h)
    assert np.array_equal(m.yc, (j + 0.5) * m.h)


def test_compatible():
    a = build_mesh(4, 4)
    b = build_mesh(4, 4)
    c = build_mesh(8, 8)
    assert a.compatible(b)
    assert not a.compatible(c)
    assert not build_mesh(4, 2).compatible(build_mesh(2, 4))


def test_cell_centers_read_only():
    m = build_mesh(4, 3)
    for a in (m.xc, m.yc):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a.setflags(write=True)
