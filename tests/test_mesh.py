import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsfv.mesh import (IndexOutOfRange, InvalidSize, NonSquareCells,
                       build_mesh, cell_center)

sizes = st.integers(min_value=2, max_value=12)


def test_build_4x4_counts():
    m = build_mesh(4, 4, 1.0, 1.0)
    assert m.h == 0.25
    assert m.n_cells == 16
    assert m.n_faces == 24


def test_build_128_h():
    m = build_mesh(128, 128, 1.0, 1.0)
    assert m.h == 0.0078125


def test_build_rejects_non_square_cells():
    with pytest.raises(NonSquareCells):
        build_mesh(4, 2, 1.0, 1.0)


def test_build_rejects_small_sizes():
    with pytest.raises(InvalidSize):
        build_mesh(1, 4, 1.0, 1.0)
    with pytest.raises(InvalidSize):
        build_mesh(4, 1, 1.0, 1.0)


def test_rectangle_with_square_cells_ok():
    m = build_mesh(4, 2, 2.0, 1.0)
    assert m.h == 0.5
    assert m.n_cells == 8


def test_cell_center_examples():
    m = build_mesh(4, 4, 1.0, 1.0)
    assert cell_center(m, 0) == (0.125, 0.125)
    assert cell_center(m, 5) == (0.375, 0.375)
    m2 = build_mesh(2, 2, 1.0, 1.0)
    assert cell_center(m2, 3) == (0.75, 0.75)


def test_cell_center_out_of_range():
    m = build_mesh(4, 4, 1.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        cell_center(m, 16)
    with pytest.raises(IndexOutOfRange):
        cell_center(m, -1)


def test_origin_shift():
    m = build_mesh(2, 2, 1.0, 1.0, origin=(3.0, -1.0))
    assert cell_center(m, 0) == (3.25, -0.75)


@given(nx=sizes, ny=sizes)
def test_face_count_formula(nx, ny):
    m = build_mesh(nx, ny, nx * 0.5, ny * 0.5)
    assert m.n_faces == nx * (ny - 1) + ny * (nx - 1)
    assert len(m.interior_faces()) == m.n_faces


@given(nx=sizes, ny=sizes)
def test_faces_join_axis_neighbors_with_unit_tau(nx, ny):
    m = build_mesh(nx, ny, float(nx), float(ny))
    for K, L, tau in m.interior_faces():
        assert tau == 1.0
        assert L - K in (1, nx)
        if L - K == 1:  # x-neighbors never wrap a row
            assert K % nx != nx - 1


@given(nx=sizes, ny=sizes)
def test_face_ordering_x_then_y(nx, ny):
    m = build_mesh(nx, ny, float(nx), float(ny))
    faces = m.interior_faces()
    n_xf = ny * (nx - 1)
    assert all(L - K == 1 for K, L, _ in faces[:n_xf])
    assert all(L - K == nx for K, L, _ in faces[n_xf:])


@given(nx=sizes, ny=sizes)
def test_incidence_counts(nx, ny):
    m = build_mesh(nx, ny, float(nx), float(ny))
    deg = np.zeros(m.n_cells, dtype=int)
    for K, L, _ in m.interior_faces():
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
    Lx, Ly = nx * 0.25, ny * 0.25
    m = build_mesh(nx, ny, Lx, Ly)
    assert m.h ** 2 * m.n_cells == pytest.approx(Lx * Ly, rel=1e-15)


@given(nx=sizes, ny=sizes, k=st.integers(min_value=0, max_value=143))
def test_cell_center_formula(nx, ny, k):
    m = build_mesh(nx, ny, float(nx), float(ny))
    if k >= m.n_cells:
        with pytest.raises(IndexOutOfRange):
            cell_center(m, k)
        return
    x, y = cell_center(m, k)
    i, j = k % nx, k // nx
    assert x == pytest.approx((i + 0.5) * m.h, abs=1e-15)
    assert y == pytest.approx((j + 0.5) * m.h, abs=1e-15)


def test_compatible():
    a = build_mesh(4, 4, 1.0, 1.0)
    b = build_mesh(4, 4, 1.0, 1.0)
    c = build_mesh(8, 8, 1.0, 1.0)
    assert a.compatible(b)
    assert not a.compatible(c)


def test_cell_centers_read_only():
    m = build_mesh(4, 3, 4.0, 3.0)
    for a in (m.xc, m.yc):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a.setflags(write=True)
