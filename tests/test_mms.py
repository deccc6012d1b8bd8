import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsfv.field import norm_linf, project
from gsfv.imex import GrayScottParams, reaction_f, reaction_g
from gsfv.mesh import build_mesh
from gsfv.mms import (DomainError, ErrorRow, ManufacturedCase,
                      SampleTimeUnreachable, UnresolvableInterface,
                      convergence_study, default_sample_times, error_norms,
                      interface_study, observed_orders, residual_check,
                      stability_study, tanh_case, trig_case)

LAB = GrayScottParams(1.6e-5, 8e-6, 0.037, 0.060)


# --- case builders ---------------------------------------------------------

@given(a=st.floats(0.01, 0.99, allow_nan=False))
def test_trig_initial_point_values(a):
    c = trig_case(a, LAB)
    assert c.u_star(0.0, 0.0, 0.0) == pytest.approx(1.0 - a, abs=1e-15)
    assert c.v_star(0.0, 0.0, 0.0) == 0.5


def test_trig_source_frozen_value():
    # hand-recomputed: first term vanishes at t=0, leaving
    # -2*a*d_u*(2 pi)^2 - (F*(1-u) - u v^2) with u=0.5, v=0.5
    c = trig_case(0.5, LAB)
    assert c.S_u(0.0, 0.0, 0.0) == pytest.approx(0.10586834531833028,
                                                 abs=1e-16)


def test_trig_rejects_bad_amplitude():
    for a in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            trig_case(a, LAB)


@given(t=st.floats(0, 3, allow_nan=False), x=st.floats(0, 1, allow_nan=False),
       y=st.floats(0, 1, allow_nan=False))
def test_tanh_species_sum_to_one(t, x, y):
    c = tanh_case(0.1, LAB)
    assert c.u_star(t, x, y) + c.v_star(t, x, y) == pytest.approx(1.0,
                                                                  abs=1e-15)


def test_tanh_level_set_value_half():
    # pick (x, y) with r(x, y) = r0(0) = 0.25: y = 1/2 gives
    # cos(2 pi (x - 1/2)) = -0.75
    c = tanh_case(0.1, LAB)
    x = 0.5 + math.acos(-0.75) / (2 * math.pi)
    assert c.u_star(0.0, x, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_tanh_rejects_bad_inputs():
    with pytest.raises(DomainError):
        tanh_case(0.0, LAB)
    with pytest.raises(DomainError):
        tanh_case(-0.1, LAB)
    with pytest.raises(DomainError):
        tanh_case(math.nan, LAB)
    with pytest.raises(DomainError):
        tanh_case(0.1, LAB, variant="diagonal")


CASE_BUILDERS = {
    "trig": lambda: trig_case(0.5, LAB),
    "tanh-centered": lambda: tanh_case(0.1, LAB, variant="centered"),
    "tanh-halfwave": lambda: tanh_case(0.1, LAB, variant="halfwave"),
}


@pytest.mark.parametrize("nx", [16, 37, 128])
@pytest.mark.parametrize("kind", sorted(CASE_BUILDERS))
def test_sources_bit_identical_to_uncached_evaluation(kind, nx):
    # the memoised case sees repeated times, a step back in time, S_v before
    # S_u and two meshes interleaved; a fresh case on writable copies of the
    # coordinates bypasses both of its memos
    case = CASE_BUILDERS[kind]()
    meshes = (build_mesh(nx, nx), build_mesh(nx + 1, nx + 1))
    schedule = [(0.3, 0), (0.3, 0), (0.1, 0), (0.1, 1), (0.0, 1), (0.3, 1),
                (0.0, 0), (0.7, 0)]
    for t, i in schedule:
        m = meshes[i]
        for name in ("S_v", "S_u", "S_v"):
            got = getattr(case, name)(t, m.xc, m.yc)
            fresh = getattr(CASE_BUILDERS[kind](), name)(
                t, m.xc.copy(), m.yc.copy())
            assert np.array_equal(got, fresh), (name, t, m.nx)
            # the caller owns what it is handed: the next call at this t
            # must not see the write
            got[:] = -1.0


# The sources in term-by-term closed form (sech^2 by exp, each term of S_u
# and S_v on its own): the reference for the pieces the cases share.

def _oracle_trig(a, params):
    w = 2.0 * math.pi
    d_u, d_v, F, k = params.d_u, params.d_v, params.F, params.k

    def cc(x, y):
        return np.cos(w * x) * np.cos(w * y)

    def pieces(t, x, y):
        c = cc(x, y)
        u = 1.0 - a * c * np.cos(w * t)
        v = 0.25 + 0.25 * c * np.cos(w * t)
        return c, u, v

    def S_u(t, x, y):
        c, u, v = pieces(t, x, y)
        return (a * w * c * np.sin(w * t)
                - 2.0 * d_u * a * w * w * c * np.cos(w * t)
                + u * v * v - F * (1.0 - u))

    def S_v(t, x, y):
        c, u, v = pieces(t, x, y)
        return (-0.25 * w * c * np.sin(w * t)
                + 0.5 * d_v * w * w * c * np.cos(w * t)
                - u * v * v + (F + k) * v)

    return S_u, S_v


def _sech2(z):
    # overflow-safe sech^2 via exp(-2|z|)
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def _oracle_tanh(eps, params, variant, r00=0.25):
    w, shift = {"centered": (2.0 * math.pi, 0.5),
                "halfwave": (math.pi, 0.0)}[variant]
    d_u, d_v, F, k = params.d_u, params.d_v, params.F, params.k
    A, lam = 0.25, 2.0 * math.pi

    def r(x, y):
        return np.cos(w * (x - shift)) + np.cos(w * (y - shift))

    def grad_r_sq(x, y):
        return w * w * (np.sin(w * (x - shift)) ** 2
                        + np.sin(w * (y - shift)) ** 2)

    def pieces(t, x, y):
        rr = r(x, y)
        th = (r00 + A * np.sin(lam * t) - rr) / eps
        s2 = _sech2(th)
        tnh = np.tanh(th)
        dudt = s2 * (A * lam * np.cos(lam * t)) / (2.0 * eps)
        lap_u = (-s2 * tnh * grad_r_sq(x, y) / (eps * eps)
                 - s2 * (-w * w * rr) / (2.0 * eps))
        return dudt, lap_u, 0.5 * (1.0 + tnh), 0.5 * (1.0 - tnh)

    def S_u(t, x, y):
        dudt, lap_u, u, v = pieces(t, x, y)
        return dudt - d_u * lap_u + u * v * v - F * (1.0 - u)

    def S_v(t, x, y):
        dudt, lap_u, u, v = pieces(t, x, y)
        return -dudt + d_v * lap_u - u * v * v + (F + k) * v

    return S_u, S_v


ORACLES = {
    "trig": lambda: _oracle_trig(0.5, LAB),
    "tanh-centered": lambda: _oracle_tanh(0.1, LAB, "centered"),
    "tanh-halfwave": lambda: _oracle_tanh(0.1, LAB, "halfwave"),
}


@pytest.mark.parametrize("kind", sorted(CASE_BUILDERS))
def test_sources_match_closed_form_oracle(kind):
    # within 1e-14 of max |S| on the finest mesh at that time; the Python
    # scalar points are held to the same scale
    case, oracle = CASE_BUILDERS[kind](), ORACLES[kind]()
    meshes = [build_mesh(n, n) for n in (16, 37, 128)]
    points = [(m.xc, m.yc) for m in meshes] + [(0.3, 0.7), (0.0, 0.0)]
    for t in (0.0, 0.1, 0.3, 0.45, 0.77, 1.3):
        for got, want in zip((case.S_u, case.S_v), oracle):
            scale = np.max(np.abs(want(t, meshes[-1].xc, meshes[-1].yc)))
            for x, y in points:
                g, w = got(t, x, y), want(t, x, y)
                assert np.shape(g) == np.shape(w)
                assert np.max(np.abs(g - w)) <= 1e-14 * scale, \
                    (kind, t, np.size(x))


# --- defect oracle ---------------------------------------------------------

def test_residual_decays_second_order_trig():
    prev = None
    for nx in (32, 64):
        m = build_mesh(nx, nx)
        d = residual_check(trig_case(0.5, LAB), 0.3, m, m.h ** 2)
        if prev is not None:
            assert prev[0] / d[0] >= 3.5
            assert prev[1] / d[1] >= 3.5
        prev = d


@pytest.mark.parametrize("variant", ["centered", "halfwave"])
def test_residual_decays_second_order_tanh(variant):
    prev = None
    for nx in (64, 128):
        m = build_mesh(nx, nx)
        d = residual_check(tanh_case(0.2, LAB, variant=variant), 0.2, m,
                           m.h ** 2)
        if prev is not None:
            assert prev[0] / d[0] >= 3.4
            assert prev[1] / d[1] >= 3.4
        prev = d


def test_residual_zero_for_fd_derived_sources():
    # sources built from the same stencils the checker uses must cancel
    p, m = LAB, build_mesh(32, 32)
    base = trig_case(0.5, p)
    us, vs = base.u_star, base.v_star
    h, dt_fd = m.h, m.h ** 2

    def fd_src(w_star, d, kin):
        def S(t, x, y):
            dw = (w_star(t + dt_fd, x, y) - w_star(t - dt_fd, x, y)) \
                / (2 * dt_fd)
            lap = (w_star(t, x + h, y) + w_star(t, x - h, y)
                   + w_star(t, x, y + h) + w_star(t, x, y - h)
                   - 4 * w_star(t, x, y)) / (h * h)
            return dw - d * lap - kin(t, x, y)
        return S

    case = ManufacturedCase(
        "fd-truth", p, us, vs,
        fd_src(us, p.d_u, lambda t, x, y: reaction_f(us(t, x, y),
                                                     vs(t, x, y), p.F)),
        fd_src(vs, p.d_v, lambda t, x, y: reaction_g(us(t, x, y),
                                                     vs(t, x, y), p.F, p.k)))
    du, dv = residual_check(case, 0.3, m, dt_fd)
    assert du <= 1e-10 and dv <= 1e-10


def test_residual_detects_corrupted_source():
    base = trig_case(0.5, LAB)
    bad = ManufacturedCase(
        "corrupted", LAB, base.u_star, base.v_star,
        lambda t, x, y: base.S_u(t, x, y) + 0.01, base.S_v)
    m = build_mesh(64, 64)
    du, dv = residual_check(bad, 0.3, m, m.h ** 2)
    assert 0.009 <= du <= 0.011
    assert dv <= 1e-5  # v source untouched


def test_residual_validation():
    m = build_mesh(16, 16)
    c = trig_case(0.5, LAB)
    with pytest.raises(ValueError):
        residual_check(c, 0.3, m, 0.0)
    with pytest.raises(ValueError):
        residual_check(c, 0.01, m, 0.02)  # centered stencil needs t-dt_fd>=0
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="need finite t"):
            residual_check(c, t, m, m.h ** 2)


# --- error norms -----------------------------------------------------------

def constant_case():
    one = lambda t, x, y: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ManufacturedCase("steady", LAB, one, zero, zero, zero)


def test_error_norms_exact_on_steady_case():
    m = build_mesh(16, 16)
    row = error_norms(constant_case(), LAB, m, 0.25, 1.0, [0.5, 1.0])
    assert row.err_linf_l2_u <= 1e-12
    assert row.err_linf_l2_v <= 1e-12
    assert row.err_linf_linf_u <= 1e-12
    assert row.err_linf_linf_v <= 1e-12


def test_error_norms_initial_snapshot_zero():
    m = build_mesh(16, 16)
    row = error_norms(trig_case(0.5, LAB), LAB, m, 0.1, 1.0, [0.0])
    assert row.err_linf_linf_u <= 1e-10
    assert row.err_linf_linf_v <= 1e-10


def test_error_norms_monotone_refinement():
    c = trig_case(0.5, LAB)
    samples = list(range(1, 11))
    r16 = error_norms(c, LAB, build_mesh(16, 16), 16.0 ** -2,
                      10.0, samples)
    r32 = error_norms(c, LAB, build_mesh(32, 32), 32.0 ** -2,
                      10.0, samples)
    for col in ("err_linf_l2_u", "err_linf_l2_v",
                "err_linf_linf_u", "err_linf_linf_v"):
        assert math.isfinite(getattr(r32, col))
        assert getattr(r32, col) < getattr(r16, col)


def test_error_norms_sample_validation():
    m = build_mesh(8, 8)
    c = trig_case(0.5, LAB)
    with pytest.raises(SampleTimeUnreachable):
        error_norms(c, LAB, m, 0.1, 1.0, [0.5, 0.25])
    with pytest.raises(SampleTimeUnreachable):
        error_norms(c, LAB, m, 0.1, 1.0, [0.5, 1.5])
    with pytest.raises(SampleTimeUnreachable):
        error_norms(c, LAB, m, 0.1, 1.0, [])


# --- order estimation ------------------------------------------------------

def synth_rows(c, hs):
    rows = []
    for h in hs:
        e = c * h ** 2
        rows.append(ErrorRow(h, h ** 2, e, e, e, e, 0.0))
    return rows


def test_observed_order_exact_line():
    rows = synth_rows(3.7, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    orders = observed_orders(rows, [r.h ** 2 for r in rows])
    for col, slope in orders.items():
        assert slope == pytest.approx(1.0, abs=1e-9)


@given(scale=st.floats(1e-6, 1e6, allow_nan=False))
def test_observed_order_scale_invariant(scale):
    rows = synth_rows(1.0, [1 / 8, 1 / 16, 1 / 32])
    scaled = [ErrorRow(r.h, r.dt, scale * r.err_linf_l2_u,
                       scale * r.err_linf_l2_v, scale * r.err_linf_linf_u,
                       scale * r.err_linf_linf_v, 0.0) for r in rows]
    a = observed_orders(rows, [r.h ** 2 for r in rows])
    b = observed_orders(scaled, [r.h ** 2 for r in scaled])
    for col in a:
        assert a[col] == pytest.approx(b[col], abs=1e-9)


def test_observed_order_needs_two_finite_points():
    rows = synth_rows(1.0, [1 / 8, 1 / 16])
    rows[1].err_linf_l2_u = math.nan
    orders = observed_orders(rows, [r.h ** 2 for r in rows])
    assert math.isnan(orders["err_linf_l2_u"])
    assert orders["err_linf_l2_v"] == pytest.approx(1.0, abs=1e-9)


def test_default_sample_times():
    assert default_sample_times(1.0) == pytest.approx(
        [0.1 * i for i in range(1, 11)])
    assert default_sample_times(10.0) == pytest.approx(list(range(1, 11)))


# --- studies ---------------------------------------------------------------

def test_convergence_study_shape_and_meta():
    c = trig_case(0.5, LAB)
    tab = convergence_study(c, LAB, [8, 16], T=0.25,
                            sample_times=[0.125, 0.25])
    assert len(tab.rows) == 2
    assert tab.rows[0].h == 1 / 8 and tab.rows[0].dt == (1 / 8) ** 2
    assert tab.meta["order_abscissa"] == "h^2"
    assert set(tab.orders) == {"err_linf_l2_u", "err_linf_l2_v",
                               "err_linf_linf_u", "err_linf_linf_v"}
    with pytest.raises(ValueError):
        convergence_study(c, LAB, [16, 8], T=0.25)


def test_stability_k1_row_coincides_with_error_norms():
    c = trig_case(0.5, LAB)
    m = build_mesh(16, 16)
    tab = stability_study(c, LAB, [1, 2], m, T=0.5)
    direct = error_norms(c, LAB, m, m.h, 0.5, [0.25, 0.5])
    assert tab.failures == []
    row = tab.rows[0]
    assert abs(row.err_linf_l2_u - direct.err_linf_l2_u) <= 1e-14
    assert abs(row.err_linf_l2_v - direct.err_linf_l2_v) <= 1e-14
    assert abs(row.err_linf_linf_u - direct.err_linf_linf_u) <= 1e-14
    assert abs(row.err_linf_linf_v - direct.err_linf_linf_v) <= 1e-14


def _stopped_stability():
    # S_u = 1e308 makes the solution of u overflow on the third step
    base = trig_case(0.5, LAB)
    blow = ManufacturedCase(
        "blow", LAB, base.u_star, base.v_star,
        lambda t, x, y: np.full_like(np.asarray(x, dtype=float), 1e308),
        base.S_v)
    tab = stability_study(blow, LAB, [1], build_mesh(16, 16), T=0.5)
    return tab, 3, 0.125


# F = 1e308 overflows the kinetics of u on the second step
HUGE_F = GrayScottParams(1.6e-5, 8e-6, 1e308, 0.060)
_STOPPED = {
    "stability": _stopped_stability,
    "convergence": lambda: (convergence_study(
        trig_case(0.5, HUGE_F), HUGE_F, [8], T=0.5), 2, 0.015625),
    # the first step is shortened to the sample time 0.05
    "interface": lambda: (interface_study(
        HUGE_F, [0.5], build_mesh(8, 8), 0.25, T=0.5), 2, 0.05),
}


@pytest.mark.parametrize("study", list(_STOPPED))
def test_study_records_nan_instead_of_raising(study):
    with np.errstate(all="ignore"):
        tab, step, t = _STOPPED[study]()
    (row,) = tab.rows
    assert not row.finite()
    assert math.isnan(row.err_linf_l2_u)
    ((stopped, err),) = tab.failures
    assert stopped is row
    assert (err.step, err.t, err.species) == (step, t, "u")


def test_stability_rejects_unreachable_samples():
    c = trig_case(0.5, LAB)
    with pytest.raises(SampleTimeUnreachable):
        stability_study(c, LAB, [3], build_mesh(16, 16), T=0.5,
                        sample_times=[0.25, 0.5])  # 0.25 not a multiple


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_stability_rejects_bad_multipliers(k):
    with pytest.raises(ValueError, match="multipliers must be positive"):
        stability_study(trig_case(0.5, LAB), LAB, [1.0, k],
                        build_mesh(16, 16), T=0.5)


def test_interface_guard_and_ordering():
    m = build_mesh(128, 128)
    with pytest.raises(UnresolvableInterface):
        interface_study(LAB, [0.2, 2.0 / 128.0], m, 1 / 256, T=0.25,
                        sample_times=[0.25])
    with pytest.raises(ValueError):
        interface_study(LAB, [0.1, 0.2], m, 1 / 256, T=0.25,
                        sample_times=[0.25])


def test_interface_error_grows_as_eps_shrinks():
    m = build_mesh(32, 32)
    tab = interface_study(LAB, [0.2, 0.1], m, 1.0 / 64.0, T=0.25,
                          sample_times=[0.25])
    assert tab.rows[0].eps == 0.2 and tab.rows[1].eps == 0.1
    assert tab.rows[1].err_linf_linf_u > tab.rows[0].err_linf_linf_u
    assert tab.meta["order_abscissa"] == "1/eps"


def test_wider_interface_flattens_projected_gradient():
    m = build_mesh(64, 64)

    def max_face_jump(eps):
        c = tanh_case(eps, LAB)
        P = project(m, lambda x, y: c.u_star(0.0, x, y))
        g = P.values.reshape(m.ny, m.nx)
        jx = np.max(np.abs(np.diff(g, axis=1)))
        jy = np.max(np.abs(np.diff(g, axis=0)))
        return max(jx, jy) / m.h

    assert max_face_jump(0.2) < max_face_jump(0.1)


def test_trig_case_exactness_proxy_small_run():
    # one coarse run end to end: errors stay small and finite
    c = trig_case(0.5, LAB)
    m = build_mesh(16, 16)
    row = error_norms(c, LAB, m, m.h ** 2, 0.5, [0.25, 0.5])
    assert row.finite()
    assert row.err_linf_linf_u < 0.05
