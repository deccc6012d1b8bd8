"""Semi-implicit time stepping: explicit kinetics, implicit diffusion.

One step advances both species from the same (u^n, v^n):

    (h^2 + dt*d_u*stiffness) u^{n+1} = h^2 (u^n + dt f(u^n, v^n) + dt S_u(t^n))
    (h^2 + dt*d_v*stiffness) v^{n+1} = h^2 (v^n + dt g(u^n, v^n) + dt S_v(t^n))

with f(u, v) = -u v^2 + F (1 - u) and g(u, v) = u v^2 - (F + k) v. Optional
source callables (t, x, y) are sampled at cell centers at the old time.
Monitors report bound violations and track an energy ledger; they never
modify the solution. A non-finite right-hand side raises NonFiniteState.

A species whose solve takes the series (diffusion.solve_path) gets its
right-hand side in cell values, as written above. On the cosine paths the
implicit operator is diagonal in the cosine basis, and so are the linear
kinetic terms F (1 - u) and -(F + k) v, so the step works in modes
(diffusion.Modes: a shift and the cosine coefficients of the deviation
from it), the semi-implicit spectral step of Chen & Shen (Comput. Phys.
Commun. 108, 1998). run() keeps the modes of u and v from step to step;
a step transforms u v^2 once (with sources, each species' whole rate,
which a source may cancel), builds each right-hand side from the
coefficients, and hands it to solve(), which returns the new field from
one inverse transform and leaves its modes in place of the right-hand
side's. The shifts follow the formula above on one value, so a uniform
state keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .diffusion import (ImplicitDiffusionOperator, NoConvergence,
                        coefficient_array, solve, solve_path, transform)
from .field import CellField, grad_form_h, inner_h


@dataclass(frozen=True)
class GrayScottParams:
    """Diffusivities and kinetic rates. d_u, d_v > 0; F, k >= 0."""

    d_u: float
    d_v: float
    F: float
    k: float

    def __post_init__(self):
        if not (self.d_u > 0.0 and self.d_v > 0.0):
            raise ValueError(f"need positive diffusivities, got "
                             f"d_u={self.d_u}, d_v={self.d_v}")
        if not (self.F >= 0.0 and self.k >= 0.0):
            raise ValueError(f"need F, k >= 0, got F={self.F}, k={self.k}")


def reaction_f(u, v, F):
    """Kinetic rate for u: -u v^2 + F (1 - u)."""
    return -u * v * v + F * (1.0 - u)


def reaction_g(u, v, F, k):
    """Kinetic rate for v: u v^2 - (F + k) v."""
    return u * v * v - (F + k) * v


@dataclass
class SimState:
    """Step counter, time, and the two species fields."""

    n: int
    t: float
    u: CellField
    v: CellField


class NonFiniteState(NoConvergence):
    """The solve of step number step from time t rejected a non-finite
    right-hand side. species is the first species with a non-finite state,
    else (kinetics or sources overflowed) the species whose solve failed."""

    def __init__(self, step: int, t: float, species: str):
        super().__init__(f"non-finite {species} at step {step}, t={t!r}")
        self.step = step
        self.t = t
        self.species = species


BOUND_TOLERANCE = 1e-12  # RunConfig's default slack on the [0, 1] bounds


@dataclass
class RunConfig:
    """Time-stepping and monitoring knobs for run().

    T is the absolute terminal time; dt, T and T / dt must be finite.
    monitors switches the bound and energy monitors together. Bounds are
    reported against [0, 1] for both species with the given slack.
    """

    dt: float
    T: float
    monitors: bool = True
    bound_tolerance: float = BOUND_TOLERANCE

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # t / inf would make every t step 0
            raise ValueError(f"need dt > 0 and finite, got {self.dt}")
        if not math.isfinite(self.T):
            raise ValueError(f"need a finite terminal time, got {self.T}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T/dt overflows: dt={self.dt}, T={self.T}")
        if not self.bound_tolerance >= 0.0:
            raise ValueError("bound_tolerance must be non-negative")


@dataclass
class MonitorReport:
    """What the monitors saw over a run.

    bound_violations counts recorded states with any component outside its
    band by more than the tolerance. energy_max is max over recorded states
    of ||u||^2 + ||v||^2 (discrete L2). dissipation is the running sum of
    dt * (d_u |u|_H1^2 + d_v |v|_H1^2) after each step, one entry per step.
    """

    steps: int = 0
    shortened_final_step: bool = False
    min_u: float = math.inf
    max_u: float = -math.inf
    min_v: float = math.inf
    max_v: float = -math.inf
    bound_violations: int = 0
    energy_max: float = -math.inf
    dissipation: list = dc_field(default_factory=list)

    def record(self, state: SimState, params: GrayScottParams,
               config: RunConfig, step_dt: float | None = None) -> None:
        """Fold one state in; step_dt is None for the initial state."""
        if step_dt is not None:
            self.steps += 1
        if not config.monitors:
            return
        u, v = state.u.values, state.v.values
        mu, Mu = float(u.min()), float(u.max())
        mv, Mv = float(v.min()), float(v.max())
        self.min_u = min(self.min_u, mu)
        self.max_u = max(self.max_u, Mu)
        self.min_v = min(self.min_v, mv)
        self.max_v = max(self.max_v, Mv)
        tol = config.bound_tolerance
        if mu < -tol or Mu > 1.0 + tol or mv < -tol or Mv > 1.0 + tol:
            self.bound_violations += 1
        e = inner_h(state.u, state.u) + inner_h(state.v, state.v)
        self.energy_max = max(self.energy_max, e)
        if step_dt is not None:
            inc = step_dt * (
                params.d_u * grad_form_h(state.u, state.u)
                + params.d_v * grad_form_h(state.v, state.v))
            prev = self.dissipation[-1] if self.dissipation else 0.0
            self.dissipation.append(prev + inc)


def _sample_source(src, t: float, mesh) -> np.ndarray:
    # midpoint sampling at cell centers; scalar returns broadcast fine
    return np.asarray(src(t, mesh.xc, mesh.yc), dtype=np.float64)


def _rate(species: str, x, uvv, F: float, Fk: float):
    """reaction_f or reaction_g from u v^2, on arrays or on one value."""
    return F * (1.0 - x) - uvv if species == "u" else uvv - Fk * x


def _rhs(rate, x, s, dt: float, h2: float):
    """h^2 (x + dt (rate + s)), built in place on an array rate: IEEE * and
    + commute, so the bits are those of the formula."""
    if s is not None:
        rate += s
    rate *= dt
    rate += x
    rate *= h2
    return rate


def step(state: SimState, params: GrayScottParams, dt: float,
         sources=None, modes=None) -> SimState:
    """One semi-implicit step of size dt from state.

    sources, when given, is a pair (S_u, S_v) of callables (t, x, y)
    evaluated at the old time. modes is the record run() keeps over its
    steps, a dict holding the Modes of state.u and state.v under "u" and
    "v" for each species on a cosine path; step() leaves the new state's
    there. Without it step() transforms u and v itself. A non-finite
    right-hand side raises NonFiniteState.
    """
    if not dt > 0.0:
        raise ValueError(f"need dt > 0, got {dt}")
    mesh = state.u.mesh
    h2 = mesh.h ** 2
    F, Fk = params.F, params.F + params.k
    ops = {"u": ImplicitDiffusionOperator(mesh, params.d_u, dt),
           "v": ImplicitDiffusionOperator(mesh, params.d_v, dt)}
    record = {} if modes is None else modes
    cosine = {sp for sp, op in ops.items() if solve_path(op) != "series"}
    for sp in ops.keys() - cosine:  # modes left stale by a series step
        record.pop(sp, None)

    u, v = state.u.values, state.v.values
    s_u = s_v = None
    if sources is not None:
        s_u, s_v = (_sample_source(s, state.t, mesh) for s in sources)
    terms = (("u", u, s_u, F), ("v", v, s_v, Fk))
    # when the cosine paths transform u v^2 alone, it is written at the
    # start of the coefficient array that its transform then fills
    alone = bool(cosine) and sources is None
    w = coefficient_array(mesh) if alone else None
    uvv = np.multiply(u, v, out=None if w is None else w.reshape(-1)[:u.size])
    uvv *= v
    rhs = {sp: CellField(mesh, _rhs(_rate(sp, x, uvv, F, Fk), x, s, dt, h2))
           for sp, x, s, _ in terms if sp not in cosine}
    if alone:
        w = transform(mesh, uvv, w)
        w.coeffs *= dt * h2
    for sp, x, s, decay in terms:
        if sp not in cosine:
            continue
        # on a cosine path the right-hand side is built in modes: its shift
        # by the formula on one value, its coefficients from those of x
        if sp not in record:
            record[sp] = transform(mesh, x)
        m = record[sp]
        if s is None:  # the rate is linear in the modes of x and u v^2
            rate = _rate(sp, m.shift, w.shift, F, Fk)
            m.coeffs *= h2 * (1.0 - dt * decay)
            (np.subtract if sp == "u" else np.add)(m.coeffs, w.coeffs,
                                                   out=m.coeffs)
        else:  # transformed whole: apart, a source and the kinetics can
            # overflow where their sum does not
            r = _rate(sp, x, uvv, F, Fk)
            r += s
            r = transform(mesh, r)
            rate = r.shift
            m.coeffs *= h2
            r.coeffs *= dt * h2
            m.coeffs += r.coeffs
        m.shift = _rhs(rate, m.shift, None, dt, h2)
        rhs[sp] = m
    del uvv, w  # freed before the solves
    try:
        u_new = solve(ops["u"], rhs["u"])
        v_new = solve(ops["v"], rhs["v"])
    except NoConvergence as e:
        # the solve rejects only a non-finite right-hand side
        named = (("u", state.u), ("v", state.v), ("u", rhs["u"]))
        species = next((s for s, f in named if not f.is_finite()), "v")
        raise NonFiniteState(state.n + 1, state.t, species) from e
    return SimState(state.n + 1, state.t + dt, u_new, v_new)


def whole_steps(t: float, dt: float) -> int | None:
    """The step index n with t = n dt, or None when t is no whole number
    of steps. A time within 1e-9 (relative) of a step is that step; a
    t / dt that is not finite is no step."""
    ratio = t / dt
    if not math.isfinite(ratio):
        return None
    n = round(ratio)
    return n if abs(ratio - n) <= 1e-9 * max(ratio, 1.0) else None


def run(initial: SimState, params: GrayScottParams, config: RunConfig,
        sources=None, observers=()) -> tuple[SimState, MonitorReport]:
    """Advance from initial to t = config.T with uniform steps config.dt.

    When T - initial.t is not whole_steps of dt, the last step is shortened
    to land on T exactly (flagged in the report). Step times are initial.t
    + n*dt, not accumulated, and T on the last step. Observers are called
    after every step and must not mutate the state.
    """
    span = config.T - initial.t
    if not span > 0.0:
        raise ValueError(f"terminal time {config.T} not ahead of "
                         f"state time {initial.t}")
    n = whole_steps(span, config.dt)
    shortened = not n
    n_steps = n if n else math.floor(span / config.dt) + 1

    report = MonitorReport(shortened_final_step=shortened)
    report.record(initial, params, config, step_dt=None)
    state = initial
    t0 = initial.t
    modes = {}  # step()'s record of the state's modes
    for i in range(n_steps):
        last = i == n_steps - 1
        dt = config.T - state.t if last and shortened else config.dt
        state = step(state, params, dt, sources, modes)
        state.t = config.T if last else t0 + (i + 1) * config.dt
        report.record(state, params, config, step_dt=dt)
        for obs in observers:
            obs(state)
    return state, report
