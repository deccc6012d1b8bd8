import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gsfv.field import (CellField, MeshMismatch, face_differences, full,
                        grad_form_h, inner_h, norm_l2_h, norm_linf, project,
                        seminorm_h1_h)
from gsfv.mesh import build_mesh
from oracles import interior_faces

GP = 0.7745966692414834  # Gauss-Legendre 3-point abscissa sqrt(3/5)
QP = ((-0.5 * GP, 5 / 18), (0.0, 8 / 18), (0.5 * GP, 5 / 18))

finite_vals = st.floats(min_value=-100.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)


def field_on(mesh, draw_vals):
    return CellField(mesh, np.asarray(draw_vals, dtype=np.float64))


@st.composite
def mesh_and_fields(draw, n_fields=2, max_n=6):
    nx = draw(st.integers(2, max_n))
    ny = draw(st.integers(2, max_n))
    m = build_mesh(nx, ny)
    fs = [field_on(m, draw(st.lists(finite_vals, min_size=m.n_cells,
                                    max_size=m.n_cells)))
          for _ in range(n_fields)]
    return m, fs


@given(c=finite_vals)
def test_project_constant(c):
    m = build_mesh(3, 3)
    P = project(m, lambda x, y: np.full_like(x, c))
    assert np.allclose(P.values, c, rtol=0, atol=1e-13 * (1 + abs(c)))


def test_project_cosine_gauss_cell0():
    # cell average of cos(2*pi*x) over [0, 1/4] is 2/pi; the 3x3 rule's
    # own error on that cell is ~5.2e-6, so the match is at that level
    # and the sharp check is against the rule applied independently
    m = build_mesh(4, 4)
    val = project(m, lambda x, y: np.cos(2 * np.pi * x)).values[0]
    assert abs(val - 2 / np.pi) <= 1e-5
    nodes, weights = np.polynomial.legendre.leggauss(3)
    ref = sum(w / 2 * np.cos(2 * np.pi * (0.125 + t / 2 * 0.25))
              for t, w in zip(nodes, weights))
    assert abs(val - ref) <= 1e-15


@given(coeffs=st.lists(st.floats(-2, 2, allow_nan=False), min_size=21,
                       max_size=21))
def test_project_gauss_exact_to_degree_5(coeffs):
    terms = [(i, j) for i in range(6) for j in range(6) if i + j <= 5]
    assert len(terms) == 21

    def poly(x, y):
        return sum(c * x ** i * y ** j for c, (i, j) in zip(coeffs, terms))

    m = build_mesh(4, 4)
    P = project(m, poly)

    def mono_avg(i, a, b):  # cell average of t^i over [a, b]
        return (b ** (i + 1) - a ** (i + 1)) / ((i + 1) * (b - a))

    xs = np.arange(4) * m.h
    exact = np.zeros(16)
    for k in range(16):
        ix, iy = k % 4, k // 4
        xa, ya = xs[ix], xs[iy]
        exact[k] = sum(c * mono_avg(i, xa, xa + m.h) * mono_avg(j, ya, ya + m.h)
                       for c, (i, j) in zip(coeffs, terms))
    scale = 1.0 + np.max(np.abs(exact))
    assert np.max(np.abs(P.values - exact)) <= 1e-12 * scale


def test_interpolant_l2_error_first_order():
    # piecewise-constant approximation of a smooth function loses one
    # power of h in L2; the slope must sit near 1
    f = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    errs, hs = [], []
    for nx in (8, 16, 32, 64):
        m = build_mesh(nx, nx)
        P = project(m, f).values
        acc = np.zeros_like(P)
        for ox, wx in QP:
            for oy, wy in QP:
                acc += wx * wy * (f(m.xc + ox * m.h, m.yc + oy * m.h) - P) ** 2
        errs.append(float(np.sqrt(np.sum(acc) * m.h ** 2)))
        hs.append(m.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_inner_h_examples():
    m = build_mesh(4, 4)
    one = full(m, 1.0)
    assert inner_h(one, one) == 1.0
    m2 = build_mesh(2, 2)
    assert inner_h(full(m2, 2.0), full(m2, 3.0)) == 6.0
    e0 = CellField(m, np.eye(16)[0])
    assert inner_h(e0, e0) == 0.0625


def test_inner_h_mesh_mismatch():
    a = full(build_mesh(4, 4), 1.0)
    b = full(build_mesh(8, 8), 1.0)
    with pytest.raises(MeshMismatch):
        inner_h(a, b)
    with pytest.raises(MeshMismatch):
        grad_form_h(a, b)


def test_grad_form_examples():
    m = build_mesh(2, 2)
    e0 = CellField(m, np.array([1.0, 0.0, 0.0, 0.0]))
    assert grad_form_h(e0, e0) == 2.0
    cols = CellField(m, np.array([0.0, 1.0, 0.0, 1.0]))
    assert grad_form_h(cols, cols) == 2.0
    assert seminorm_h1_h(cols) == math.sqrt(2)


@given(mf=mesh_and_fields(n_fields=2))
def test_grad_form_constant_kernel(mf):
    m, (w, phi) = mf
    const = full(m, 4.2)
    assert grad_form_h(const, phi) == 0.0
    assert grad_form_h(phi, const) == 0.0


@given(mf=mesh_and_fields(n_fields=2))
def test_inner_and_grad_symmetric(mf):
    m, (w, phi) = mf
    assert inner_h(w, phi) == pytest.approx(inner_h(phi, w), rel=1e-12,
                                            abs=1e-13)
    assert grad_form_h(w, phi) == pytest.approx(grad_form_h(phi, w),
                                                rel=1e-12, abs=1e-13)


@given(mf=mesh_and_fields(n_fields=3), a=st.floats(-10, 10, allow_nan=False))
def test_bilinearity(mf, a):
    m, (w1, w2, phi) = mf
    lhs_i = inner_h(CellField(m, a * w1.values + w2.values), phi)
    rhs_i = a * inner_h(w1, phi) + inner_h(w2, phi)
    lhs_g = grad_form_h(CellField(m, a * w1.values + w2.values), phi)
    rhs_g = a * grad_form_h(w1, phi) + grad_form_h(w2, phi)
    scale_i = 1.0 + abs(a) * abs(inner_h(w1, phi)) + abs(inner_h(w2, phi))
    scale_g = 1.0 + abs(a) * abs(grad_form_h(w1, phi)) + abs(grad_form_h(w2, phi))
    assert abs(lhs_i - rhs_i) <= 1e-12 * scale_i
    assert abs(lhs_g - rhs_g) <= 1e-12 * scale_g


def tiny_field(nx, ny, cells):
    """A field holding the smallest normal double in the given cells."""
    m = build_mesh(nx, ny)
    v = np.zeros(m.n_cells)
    v[cells] = 2.2250738585072014e-308
    return m, [CellField(m, v)]


@given(mf=mesh_and_fields(n_fields=1))
@example(mf=tiny_field(2, 2, slice(None)))
@example(mf=tiny_field(3, 2, 2))
def test_positivity(mf):
    m, (w,) = mf
    assert inner_h(w, w) >= 0.0
    assert grad_form_h(w, w) >= 0.0
    # h^2 w_K^2 underflows to 0 for tiny w; from 1e-150 up it stays a normal
    # double for every h >= 1/6 the strategy draws, so the sum is positive
    if np.max(np.abs(w.values)) >= 1e-150:
        assert inner_h(w, w) > 0.0


@given(nx=st.integers(2, 12), ny=st.integers(2, 12),
       seed=st.integers(0, 2 ** 32 - 1))
@example(nx=4, ny=8, seed=0)
@example(nx=12, ny=2, seed=1)
def test_grad_form_matches_face_list(nx, ny, seed):
    # the flat stencil against the face-by-face definition
    m = build_mesh(nx, ny)
    rng = np.random.default_rng(seed)
    w = CellField(m, rng.uniform(-1.0, 1.0, m.n_cells))
    phi = CellField(m, rng.uniform(-1.0, 1.0, m.n_cells))
    wv, pv = w.values, phi.values
    faces = interior_faces(m)
    # face differences in face-list order once the zeroed row ends are cut
    diffs = face_differences(wv, nx)
    row_ends = np.arange(nx - 1, m.n_cells, nx)
    assert np.all(diffs[row_ends] == 0.0)
    assert np.array_equal(np.delete(diffs, row_ends),
                          [wv[K] - wv[L] for K, L, _ in faces])
    terms = [tau * (wv[K] - wv[L]) * (pv[K] - pv[L]) for K, L, tau in faces]
    got = grad_form_h(w, phi)
    assert abs(got - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("nx, ny", [(3, 7), (128, 128), (512, 512)])
def test_grad_form_self_bit_identical(nx, ny):
    # grad_form_h(w, w) reuses one set of face differences
    m = build_mesh(nx, ny)
    w = CellField(m, np.random.default_rng(nx).uniform(-1.0, 1.0, m.n_cells))
    assert grad_form_h(w, w) == grad_form_h(w, w.copy())


def test_grad_form_positive_on_nonconstant():
    m = build_mesh(3, 3)
    vals = np.zeros(9)
    vals[4] = 1.0
    assert grad_form_h(CellField(m, vals), CellField(m, vals)) > 0.0


def test_norms_examples():
    m = build_mesh(4, 4)
    one = full(m, 1.0)
    assert norm_l2_h(one) == 1.0
    assert norm_linf(one) == 1.0
    assert seminorm_h1_h(one) == 0.0
    e0 = CellField(m, np.eye(16)[0])
    assert norm_l2_h(e0) == 0.25


def test_field_validation():
    m = build_mesh(2, 2)
    with pytest.raises(ValueError):
        CellField(m, np.zeros(5))
    f = CellField(m, np.zeros(4))
    assert f.is_finite()
    g = CellField(m, np.array([0.0, np.nan, 0.0, 0.0]))
    assert not g.is_finite()
