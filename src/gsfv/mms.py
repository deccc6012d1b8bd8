"""Manufactured solutions and the verification studies built on them.

Each manufactured case carries closed-form fields u*, v* satisfying the
homogeneous Neumann boundary condition on the unit square, plus the source
terms that make them exact solutions of the forced system:

    S_u = du*/dt - d_u lap(u*) + u* v*^2 - F (1 - u*)
    S_v = dv*/dt - d_v lap(v*) - u* v*^2 + (F + k) v*

residual_check() verifies that consistency independently of the scheme, by
finite differences on the closed forms. error_norms() runs the scheme
against a case and reports max-over-samples discrete L2 and max errors.
The studies sweep mesh size, step multiplier, or interface width and fit
observed orders by least squares in log-log.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .diffusion import NoConvergence
from .field import CellField, norm_l2_h, norm_linf, project
from .imex import (GrayScottParams, RunConfig, SimState, reaction_f,
                   reaction_g, run, whole_steps)
from .mesh import UniformMesh, build_mesh

TWO_PI = 2.0 * math.pi
FRONT_AMPLITUDE = 0.25
FRONT_OMEGA = TWO_PI


class DomainError(ValueError):
    """Case parameter outside its admissible range."""


class SampleTimeUnreachable(ValueError):
    """Sample times not ascending, outside [0, T], or incompatible with dt."""


class UnresolvableInterface(ValueError):
    """Interface width too thin for the mesh (eps <= 2h)."""


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact solution plus matching sources and parameters."""

    label: str
    params: GrayScottParams
    u_star: object  # callable (t, x, y)
    v_star: object
    S_u: object
    S_v: object


def _read_only(a) -> bool:
    return isinstance(a, np.ndarray) and not a.flags.writeable


def _last_call(fn):
    """One-entry memo of fn(*times, x, y), for the source pairs: S_u and S_v
    of a step share one evaluation of their common pieces (trig: c and
    u* v*^2; tanh: -lap(u*), du*/dt + u* v*^2 and v*, from one tanh), and
    the time-independent factors are built once per mesh.

    x and y are matched by identity, which pins their contents only when
    they are read-only arrays (mesh coordinates are); other coordinates, and
    times that are not Python floats, are computed afresh. Times match by
    value and sign, since 0.0 == -0.0. Callers must not write to the result.
    """
    last = [None]

    def call(*args):
        *times, x, y = args
        if not (_read_only(x) and _read_only(y)) \
                or any(type(t) is not float for t in times):
            return fn(*args)
        key = [(t, math.copysign(1.0, t)) for t in times]
        hit = last[0]
        if hit is None or hit[0] is not x or hit[1] is not y \
                or hit[2] != key:
            hit = (x, y, key, fn(*args))
            last[0] = hit
        return hit[3]

    return call


def trig_case(a: float, params: GrayScottParams) -> ManufacturedCase:
    """Smooth oscillating case: u* = 1 - a C, v* = 1/4 + (1/4) C with
    C = cos(2 pi x) cos(2 pi y) cos(2 pi t). Requires 0 < a < 1 so u* stays
    in (0, 1)."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"need 0 < a < 1, got {a}")
    w, F, k = TWO_PI, params.F, params.k
    # S_u = c alpha_u(t) + u* v*^2 and S_v = c alpha_v(t) + (F + k)/4
    # - u* v*^2 with c = cc(x, y): du*/dt, lap(u*) = 2 w^2 (1 - u*) and the
    # linear kinetic terms are all multiples of c
    lin_u = a * (2.0 * params.d_u * w * w + F)
    lin_v = 0.5 * params.d_v * w * w + 0.25 * (F + k)

    def cc(x, y):
        return np.cos(w * x) * np.cos(w * y)

    def u_star(t, x, y):
        return 1.0 - a * cc(x, y) * np.cos(w * t)

    def v_star(t, x, y):
        return 0.25 + 0.25 * cc(x, y) * np.cos(w * t)

    _space = _last_call(cc)

    @_last_call
    def _pieces(t, x, y):
        c = _space(x, y)
        cw = c * np.cos(w * t)
        v = 0.25 + 0.25 * cw
        return c, (1.0 - a * cw) * v * v

    def S_u(t, x, y):
        c, uvv = _pieces(t, x, y)
        return c * (a * w * np.sin(w * t) - lin_u * np.cos(w * t)) + uvv

    def S_v(t, x, y):
        c, uvv = _pieces(t, x, y)
        return (c * (lin_v * np.cos(w * t) - 0.25 * w * np.sin(w * t))
                + 0.25 * (F + k) - uvv)

    return ManufacturedCase("trig", params, u_star, v_star, S_u, S_v)


# level-set r = cos(w (x - shift)) + cos(w (y - shift)) per variant: (w, shift)
_TANH_VARIANTS = {"centered": (TWO_PI, 0.5), "halfwave": (math.pi, 0.0)}


def tanh_case(eps: float, params: GrayScottParams, r00: float = 0.25,
              variant: str = "centered") -> ManufacturedCase:
    """Moving-front case: u* = (1 + tanh(s/eps))/2, v* = 1 - u*, where
    s(t, x, y) = r0(t) - r(x, y) and r0(t) = r00 + A sin(lam t), with
    A = FRONT_AMPLITUDE = 1/4 and lam = FRONT_OMEGA = 2 pi (period 1).

    variant selects the level-set function r:
      "centered": r = cos(2 pi (x - 1/2)) + cos(2 pi (y - 1/2))  (default)
      "halfwave": r = cos(pi x) + cos(pi y)
    Both have vanishing normal derivative on the unit-square boundary.
    """
    if not eps > 0.0:
        raise DomainError(f"need eps > 0, got {eps}")
    if not isinstance(variant, str) or variant not in _TANH_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    w, shift = _TANH_VARIANTS[variant]

    def r(x, y):
        return np.cos(w * (x - shift)) + np.cos(w * (y - shift))

    d_u, d_v, F, k = params.d_u, params.d_v, params.F, params.k
    A, lam = FRONT_AMPLITUDE, FRONT_OMEGA

    def r0(t):
        return r00 + A * np.sin(lam * t)

    def u_star(t, x, y):
        return 0.5 * (1.0 + np.tanh((r0(t) - r(x, y)) / eps))

    def v_star(t, x, y):
        return 0.5 * (1.0 - np.tanh((r0(t) - r(x, y)) / eps))

    @_last_call
    def _space(x, y):
        # r, g = |grad r|^2 / eps^2 and l = lap(r) / (2 eps) = -w^2 r / (2 eps)
        rr = r(x, y)
        g = (np.sin(w * (x - shift)) ** 2 + np.sin(w * (y - shift)) ** 2)
        return rr, g * (w / eps) ** 2, (-w * w / (2.0 * eps)) * rr

    @_last_call
    def _pieces(t, x, y):
        # with T = tanh((r0 - r) / eps): sech^2 = 1 - T^2, v* = (1 - T)/2,
        # -lap(u*) = sech^2 (T g + l) and, as u* v* = sech^2 / 4,
        # du*/dt + u* v*^2 = sech^2 (A lam cos(lam t) / (2 eps) + v* / 4)
        rr, g, l = _space(x, y)
        tnh = np.tanh((r0(t) - rr) / eps)
        s2 = 1.0 - tnh * tnh
        v = 0.5 - 0.5 * tnh
        beta = A * lam * np.cos(lam * t) / (2.0 * eps)
        return s2 * (tnh * g + l), s2 * (beta + 0.25 * v), v

    # v* = 1 - u* flips the signs of du*/dt and lap(u*) in S_v
    def S_u(t, x, y):
        neg_lap, rate, v = _pieces(t, x, y)
        return d_u * neg_lap + rate - F * v

    def S_v(t, x, y):
        neg_lap, rate, v = _pieces(t, x, y)
        return (F + k) * v - d_v * neg_lap - rate

    return ManufacturedCase(f"tanh_eps{eps:g}", params,
                            u_star, v_star, S_u, S_v)


def residual_check(case: ManufacturedCase, t: float, mesh: UniformMesh,
                   dt_fd: float) -> tuple[float, float]:
    """Max-abs defect of the case's sources against finite differences.

    Uses a centered time difference of width dt_fd and the 5-point Laplacian
    at cell centers (the closed forms are evaluable outside the domain, so no
    boundary treatment is needed). The defect is O(h^2 + dt_fd^2) when the
    sources are consistent with u*, v*; it does not involve the scheme.
    """
    if not dt_fd > 0.0:
        raise ValueError(f"need dt_fd > 0, got {dt_fd}")
    if not (math.isfinite(t) and t - dt_fd >= 0.0):
        raise ValueError(f"need finite t >= dt_fd, got t={t}, dt_fd={dt_fd}")
    X, Y = mesh.xc, mesh.yc
    h = mesh.h
    p = case.params
    u0 = np.asarray(case.u_star(t, X, Y), dtype=np.float64)
    v0 = np.asarray(case.v_star(t, X, Y), dtype=np.float64)

    def defect(w_star, d, kin, src):
        dw = (np.asarray(w_star(t + dt_fd, X, Y))
              - np.asarray(w_star(t - dt_fd, X, Y))) / (2.0 * dt_fd)
        lap = (np.asarray(w_star(t, X + h, Y)) + np.asarray(w_star(t, X - h, Y))
               + np.asarray(w_star(t, X, Y + h)) + np.asarray(w_star(t, X, Y - h))
               - 4.0 * np.asarray(w_star(t, X, Y))) / (h * h)
        res = dw - d * lap - kin - np.asarray(src(t, X, Y))
        return float(np.max(np.abs(res)))

    du = defect(case.u_star, p.d_u, reaction_f(u0, v0, p.F), case.S_u)
    dv = defect(case.v_star, p.d_v, reaction_g(u0, v0, p.F, p.k), case.S_v)
    return du, dv


@dataclass
class ErrorRow:
    """One study row: resolution, step, errors, wall time, optional eps."""

    h: float
    dt: float
    err_linf_l2_u: float
    err_linf_l2_v: float
    err_linf_linf_u: float
    err_linf_linf_v: float
    runtime_s: float
    eps: float | None = None

    def finite(self) -> bool:
        """True when all four error norms are finite (no blow-up)."""
        return all(math.isfinite(e) for e in (
            self.err_linf_l2_u, self.err_linf_l2_v,
            self.err_linf_linf_u, self.err_linf_linf_v))


ERROR_COLUMNS = ("err_linf_l2_u", "err_linf_l2_v",
                 "err_linf_linf_u", "err_linf_linf_v")


@dataclass
class ErrorTable:
    """Study rows plus least-squares observed orders per error column."""

    rows: list
    orders: dict
    meta: dict = dc_field(default_factory=dict)


def _validate_samples(samples, T: float, default=None) -> list:
    ts = [float(s) for s in (default if samples is None else samples)]
    if not ts:
        raise SampleTimeUnreachable("no sample times given")
    prev = -math.inf
    for s in ts:
        if not s > prev:
            raise SampleTimeUnreachable(f"sample times not ascending: {ts}")
        prev = s
    if not (ts[0] >= 0.0 and ts[-1] <= T * (1.0 + 1e-12) + 1e-15):
        raise SampleTimeUnreachable(
            f"sample times must lie in [0, T={T}], got {ts}")
    return ts


def error_norms(case: ManufacturedCase, params: GrayScottParams,
                mesh: UniformMesh, dt: float, T: float,
                sample_times) -> ErrorRow:
    """Run the scheme against a case and measure errors at sample times.

    Initial data is the exact solution projected with the 3x3 Gauss rule;
    the same projection at each sample time is the comparison target, so the
    reported error is the scheme's and not the quadrature's. Sample times
    need not be multiples of dt: each segment of the run lands on its
    sample time, with one shortened step when needed. Returns the max over
    samples of the discrete L2 and max-norm errors per species, plus wall
    time.
    """
    times = _validate_samples(sample_times, T)
    t_start = time.perf_counter()
    u0 = project(mesh, lambda x, y: case.u_star(0.0, x, y))
    v0 = project(mesh, lambda x, y: case.v_star(0.0, x, y))
    state = SimState(0, 0.0, u0, v0)
    sources = (case.S_u, case.S_v)
    e_l2_u = e_l2_v = e_li_u = e_li_v = 0.0
    for ts in times:
        if ts > state.t:
            cfg = RunConfig(dt=dt, T=ts, monitors=False)
            state, _ = run(state, params, cfg, sources=sources)
        ex_u = project(mesh, lambda x, y: case.u_star(ts, x, y))
        ex_v = project(mesh, lambda x, y: case.v_star(ts, x, y))
        du = CellField(mesh, state.u.values - ex_u.values)
        dv = CellField(mesh, state.v.values - ex_v.values)
        e_l2_u = max(e_l2_u, norm_l2_h(du))
        e_l2_v = max(e_l2_v, norm_l2_h(dv))
        e_li_u = max(e_li_u, norm_linf(du))
        e_li_v = max(e_li_v, norm_linf(dv))
    runtime = time.perf_counter() - t_start
    return ErrorRow(mesh.h, dt, e_l2_u, e_l2_v, e_li_u, e_li_v, runtime)


def observed_orders(rows, x_values) -> dict:
    """Least-squares slope of log(err) vs log(x) per error column.

    Columns with fewer than two finite positive entries get nan.
    """
    out = {}
    lx_all = np.log(np.asarray(x_values, dtype=np.float64))
    for col in ERROR_COLUMNS:
        ys = np.asarray([getattr(r, col) for r in rows], dtype=np.float64)
        mask = np.isfinite(ys) & (ys > 0.0) & np.isfinite(lx_all)
        if mask.sum() < 2:
            out[col] = math.nan
            continue
        out[col] = float(np.polyfit(lx_all[mask], np.log(ys[mask]), 1)[0])
    return out


def default_sample_times(T: float, n: int = 10) -> list:
    """n evenly spaced sample times T/n, 2T/n, ..., T."""
    return [T * i / n for i in range(1, n + 1)]


def _run_rows(params, rows, T, samples, meta, abscissa, nan_rows=False):
    """Run a checked study: error_norms per (case, mesh, dt, eps) row, then
    orders against abscissa(row); nan_rows makes a blow-up a NaN row."""
    table = []
    for case, mesh, dt, eps in rows:
        try:
            table.append(error_norms(case, params, mesh, dt, T, samples))
        except NoConvergence:
            if not nan_rows:
                raise
            table.append(ErrorRow(mesh.h, dt, *[math.nan] * 5))
        table[-1].eps = eps
    orders = observed_orders(table, [abscissa(r) for r in table])
    return ErrorTable(table, orders, meta)


def convergence_study(case: ManufacturedCase, params: GrayScottParams,
                      mesh_sizes, T: float = 1.0,
                      sample_times=None) -> ErrorTable:
    """Refinement sweep with dt = h^2 on nx*nx unit-square meshes.

    Reported orders are slopes vs h^2: 1.0 means error ~ h^2 ~ dt.
    """
    return _check_convergence(case, params, mesh_sizes, T, sample_times)()


def _check_convergence(case, params, mesh_sizes, T, sample_times):
    sizes = [int(n) for n in mesh_sizes]
    if not sizes:
        raise ValueError("need at least one mesh size (--sizes)")
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ValueError(f"mesh sizes must be ascending, got {sizes}")
    samples = _validate_samples(sample_times, T, default_sample_times(T))
    rows = [(case, m, m.h ** 2, None) for m in map(build_mesh, sizes, sizes)]
    meta = {"study": "convergence", "T": T, "sample_times": samples,
            "dt_rule": "h^2", "order_abscissa": "h^2"}
    return partial(_run_rows, params, rows, T, samples, meta,
                   lambda r: r.h ** 2)


def stability_study(case: ManufacturedCase, params: GrayScottParams,
                    multipliers, mesh: UniformMesh, T: float = 1.0,
                    sample_times=None) -> ErrorTable:
    """Fixed mesh, dt = k*h for each multiplier k.

    Sample times must be whole_steps of every dt so no step is shortened
    (which would silently change the dt under test); defaults to {T/2, T}.
    Orders are slopes vs dt.
    """
    return _check_stability(case, params, multipliers, mesh, T,
                            sample_times)()


def _check_stability(case, params, multipliers, mesh, T, sample_times):
    h = mesh.h
    ks = [float(k) for k in multipliers]
    if not ks:
        raise ValueError("need at least one multiplier (--multipliers)")
    if any(not (k > 0 and math.isfinite(k)) for k in ks):
        raise ValueError(f"multipliers must be positive and finite, got {ks}")
    samples = _validate_samples(sample_times, T, [T / 2.0, T])
    for k in ks:
        for s in samples:
            if whole_steps(s, k * h) is None:
                raise SampleTimeUnreachable(
                    f"sample {s} is not a multiple of dt={k * h} (k={k})")
    meta = {"study": "stability", "T": T, "h": h, "multipliers": ks,
            "sample_times": samples, "order_abscissa": "dt"}
    return partial(_run_rows, params, [(case, mesh, k * h, None) for k in ks],
                   T, samples, meta, lambda r: r.dt, nan_rows=True)


def interface_study(params: GrayScottParams, eps_list, mesh: UniformMesh,
                    dt: float, T: float = 1.0, sample_times=None,
                    variant: str = "centered") -> ErrorTable:
    """Front-width sweep on a fixed mesh and dt.

    Errors grow as eps shrinks; orders are slopes vs 1/eps (positive ~2 when
    the error scales like eps^-2). eps at or below 2h raises
    UnresolvableInterface.

    Sampling note: the front position r0 of tanh_case has period 1.
    Sampling at whole periods (e.g. sample_times=[1.0])
    cancels the generic first-order source-quadrature lag, which otherwise
    dominates with an eps^-1 signature and hides the eps^-2 sensitivity.
    """
    return _check_interface(params, eps_list, mesh, dt, T, sample_times,
                            variant)()


def _check_interface(params, eps_list, mesh, dt, T, sample_times, variant):
    epss = [float(e) for e in eps_list]
    if not epss:
        raise ValueError("need at least one eps (--eps-list)")
    if sorted(epss, reverse=True) != epss or len(set(epss)) != len(epss):
        raise ValueError(f"eps values must be descending, got {epss}")
    for e in epss:
        if e <= 2.0 * mesh.h:
            raise UnresolvableInterface(
                f"eps={e} at or below 2h={2.0 * mesh.h:g}; front not resolved")
    RunConfig(dt=dt, T=T)  # validates dt and T/dt
    samples = _validate_samples(sample_times, T, default_sample_times(T))
    rows = [(tanh_case(e, params, variant=variant), mesh, dt, e)
            for e in epss]
    meta = {"study": "interface", "T": T, "dt": dt, "h": mesh.h,
            "eps_list": epss, "sample_times": samples,
            "variant": variant, "order_abscissa": "1/eps"}
    return partial(_run_rows, params, rows, T, samples, meta,
                   lambda r: 1.0 / r.eps)
