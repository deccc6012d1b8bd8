import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsfv.diffusion import (SERIES_MAX_PASSES, ImplicitDiffusionOperator,
                            NoConvergence, series_passes, solve)
from gsfv.field import CellField, full, inner_h, project
from gsfv.imex import (GrayScottParams, MonitorReport, NonFiniteState,
                       RunConfig, SimState, reaction_f, reaction_g, run, step,
                       whole_steps)
from gsfv.mesh import build_mesh
from gsfv.mms import tanh_case
from gsfv.patterns import pattern_initial_condition
from oracles import step_cg

LAB = GrayScottParams(1.6e-5, 8e-6, 0.037, 0.060)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def uniform_state(mesh, u0, v0):
    return SimState(0, 0.0, full(mesh, u0), full(mesh, v0))


def test_reaction_examples():
    assert reaction_f(1.0, 0.0, LAB.F) == 0.0
    assert reaction_g(1.0, 0.0, LAB.F, LAB.k) == 0.0
    assert reaction_f(0.5, 0.25, 0.037) == pytest.approx(-0.01275, abs=1e-15)
    assert reaction_g(0.5, 0.25, 0.037, 0.060) == pytest.approx(0.007,
                                                                abs=1e-15)


@given(F=st.floats(0.0, 1.0, allow_nan=False))
def test_reaction_f_at_depleted_u(F):
    assert reaction_f(0.0, 1.0, F) == F


def test_params_validation():
    for bad in ((0.0, 1.0, 0.1, 0.1), (1.0, -1.0, 0.1, 0.1),
                (1.0, 1.0, -0.1, 0.1), (math.nan, 1.0, 0.1, 0.1),
                (1.0, math.nan, 0.1, 0.1), (1.0, 1.0, math.nan, 0.1),
                (1.0, 1.0, 0.1, math.nan)):
        with pytest.raises(ValueError):
            GrayScottParams(*bad)
    GrayScottParams(1.0, 0.5, 0.0, 0.0)  # zero kinetics allowed


def test_step_preserves_steady_state_exactly():
    m = build_mesh(8, 8)
    s1 = step(uniform_state(m, 1.0, 0.0), LAB, dt=1.0)
    assert np.array_equal(s1.u.values, np.ones(64))
    assert np.array_equal(s1.v.values, np.zeros(64))


def test_step_uniform_reduces_to_kinetics():
    # power-of-two h makes the h^2 scalings exact, so the kinetics-only
    # update is reproduced bit for bit
    m = build_mesh(8, 8)
    s1 = step(uniform_state(m, 0.5, 0.25), LAB, dt=1.0)
    assert np.all(s1.u.values == 0.48725)
    assert np.all(s1.v.values == 0.257)
    assert s1.n == 1 and s1.t == 1.0


def test_step_rejects_bad_dt():
    m = build_mesh(4, 4)
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            step(uniform_state(m, 1.0, 0.0), LAB, dt=dt)


@pytest.mark.parametrize("kwargs", [
    {"dt": 0.0}, {"dt": -1.0}, {"dt": math.nan},
    {"dt": 1.0, "bound_tolerance": -1e-12},
    {"dt": 1.0, "bound_tolerance": math.nan},
    {"dt": 1e-320},  # 1 / 1e-320 overflows: no whole number of steps
    {"dt": math.inf}])
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(T=1.0, **kwargs)


@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan])
def test_run_config_rejects_non_finite_terminal_time(T):
    with pytest.raises(ValueError, match="need a finite terminal time"):
        RunConfig(dt=1.0, T=T)


@pytest.mark.parametrize("t, dt, n", [
    (3.0, 1.0, 3), (0.3, 0.1, 3), (100.0000000001, 1.0, 100),
    (99.9999999995, 1.0, 100), (1e-10, 1.0, 0), (0.0, 1.0, 0),
    (2.5, 1.0, None), (1.0, 1e-320, None), (1.0, math.inf, 0),
    (math.nan, 1.0, None)])
def test_whole_steps(t, dt, n):
    assert whole_steps(t, dt) == n


def test_pure_diffusion_conserves_mass():
    m = build_mesh(16, 16)
    params = GrayScottParams(1e-2, 1e-2, 0.0, 0.0)
    u0 = project(m, lambda x, y: 0.5 + 0.4 * np.cos(np.pi * x))
    state = SimState(0, 0.0, u0, full(m, 0.0))
    mass0 = m.h ** 2 * float(np.sum(state.u.values))
    for _ in range(10):
        state = step(state, params, dt=0.1)
        mass = m.h ** 2 * float(np.sum(state.u.values))
        assert abs(mass - mass0) <= 1e-12 * abs(mass0)


@given(u0=unit, v0=unit, dt=st.floats(0.01, 2.0, allow_nan=False))
def test_mass_identity_single_step(u0, v0, dt):
    # diffusion fluxes telescope: the mass change equals dt * total kinetics
    m = build_mesh(8, 8)
    s0 = uniform_state(m, u0, v0)
    s1 = step(s0, LAB, dt=dt)
    dm = m.h ** 2 * float(np.sum(s1.u.values - s0.u.values))
    rhs = dt * m.h ** 2 * float(np.sum(reaction_f(s0.u.values, s0.v.values,
                                                  LAB.F)))
    assert abs(dm - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_step_deterministic():
    m = build_mesh(16, 16)
    u0, v0 = pattern_initial_condition(m)
    a = step(SimState(0, 0.0, u0, v0), LAB, dt=1.0)
    b = step(SimState(0, 0.0, u0.copy(), v0.copy()), LAB, dt=1.0)
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.v.values, b.v.values)


# Hashes u and v after three dt = 1 steps from a seeded random state, at
# 128^2 and 127^2 (the dense cosine products, on BLAS) and 256^2 (the FFTs);
# the thread count must not change a bit.
_HASH_STEPS = """
import hashlib
import numpy as np
from gsfv.field import CellField
from gsfv.imex import GrayScottParams, SimState, step
from gsfv.mesh import build_mesh
digest = hashlib.sha256()
for n in (128, 127, 256):
    m = build_mesh(n, n)
    rng = np.random.default_rng(5)
    s = SimState(0, 0.0, CellField(m, rng.random(m.n_cells)),
                 CellField(m, rng.random(m.n_cells)))
    for _ in range(3):
        s = step(s, GrayScottParams(1.6e-5, 8e-6, 0.037, 0.060), 1.0)
    digest.update(s.u.values.tobytes() + s.v.values.tobytes())
print(digest.hexdigest())
"""


def test_step_bits_independent_of_blas_threads(src_env):
    digests = []
    for threads in ("1", "2"):
        env = dict(src_env, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _HASH_STEPS], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_run_steady_three_steps():
    m = build_mesh(8, 8)
    cfg = RunConfig(dt=0.5, T=1.5)
    final, rep = run(uniform_state(m, 1.0, 0.0), LAB, cfg)
    assert rep.steps == 3
    assert not rep.shortened_final_step
    assert final.t == 1.5
    assert np.array_equal(final.u.values, np.ones(64))
    assert rep.bound_violations == 0
    assert rep.energy_max == 1.0
    assert rep.dissipation == [0.0, 0.0, 0.0]


def test_run_shortened_final_step():
    m = build_mesh(8, 8)
    cfg = RunConfig(dt=1.0, T=2.5)
    seen = []
    final, rep = run(uniform_state(m, 1.0, 0.0), LAB, cfg,
                     observers=[lambda s: seen.append((s.n, s.t))])
    assert rep.steps == 3
    assert rep.shortened_final_step
    assert final.t == 2.5
    assert seen == [(1, 1.0), (2, 2.0), (3, 2.5)]


def test_run_rejects_non_advancing():
    m = build_mesh(8, 8)
    with pytest.raises(ValueError, match="not ahead of"):
        run(uniform_state(m, 1.0, 0.0), LAB, RunConfig(dt=1.0, T=0.0))
    # RunConfig refuses a NaN terminal time before run() sees it
    with pytest.raises(ValueError, match="need a finite terminal time"):
        run(uniform_state(m, 1.0, 0.0), LAB, RunConfig(dt=1.0, T=math.nan))


def test_run_observers_called_each_step():
    m = build_mesh(8, 8)
    seen = []
    run(uniform_state(m, 1.0, 0.0), LAB, RunConfig(dt=0.25, T=1.0),
        observers=[lambda s: seen.append((s.n, s.t))])
    assert seen == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]


def test_monitor_flags_out_of_band_state():
    m = build_mesh(4, 4)
    cfg = RunConfig(dt=1.0, T=1.0)
    rep = MonitorReport()
    bad = SimState(0, 0.0, full(m, 1.0 + 1e-6), full(m, 0.0))
    rep.record(bad, LAB, cfg, step_dt=None)
    assert rep.bound_violations == 1
    ok = SimState(0, 0.0, full(m, 1.0 + 1e-13), full(m, 0.0))
    rep2 = MonitorReport()
    rep2.record(ok, LAB, cfg, step_dt=None)
    assert rep2.bound_violations == 0


def test_monitors_off():
    m = build_mesh(8, 8)
    cfg = RunConfig(dt=0.5, T=1.0, monitors=False)
    _, rep = run(uniform_state(m, 1.0, 0.0), LAB, cfg)
    assert rep.steps == 2
    assert rep.dissipation == []
    assert rep.min_u == math.inf  # nothing recorded
    assert rep.energy_max == -math.inf


def test_dissipation_monotone_on_pattern_run():
    m = build_mesh(32, 32)
    u0, v0 = pattern_initial_condition(m)
    cfg = RunConfig(dt=1.0, T=20.0)
    _, rep = run(SimState(0, 0.0, u0, v0), LAB, cfg)
    d = np.asarray(rep.dissipation)
    assert d.shape == (20,)
    assert np.all(np.diff(d) >= 0.0)
    assert np.isfinite(rep.energy_max)
    assert rep.bound_violations == 0


def test_large_dt_stays_finite():
    # semi-implicit diffusion has no step-size restriction; dt = 64 h
    m = build_mesh(32, 32)
    u0, v0 = pattern_initial_condition(m)
    state = SimState(0, 0.0, u0, v0)
    for _ in range(5):
        state = step(state, LAB, dt=64.0 / 32.0)
    assert state.u.is_finite() and state.v.is_finite()


# d_u's series bound 8 dt d_u / h^2 on the 37^2 mesh just inside the
# largest pass count of the series rule, and just outside it (the DCT path)
_EDGE = 2.0 ** (-53.0 / (SERIES_MAX_PASSES + 1)) / (8.0 * LAB.d_u * 37 ** 2)


@pytest.mark.parametrize("nx, dt", [(16, 1.0), (37, 37.0 ** -2),
                                    (128, 1.0), (128, 128.0 ** -2),
                                    (37, 0.9 * _EDGE), (37, 1.1 * _EDGE)])
@pytest.mark.parametrize("with_sources", [False, True])
def test_step_matches_step_assembled_from_reactions(nx, dt, with_sources):
    # the step's shared u v^2 and in-place right-hand side must round as
    # reaction_f, reaction_g and h^2 (u + dt f) do, and the whole step must
    # agree with the same arithmetic on the CG reference solve
    m = build_mesh(nx, nx)
    if dt in (0.9 * _EDGE, 1.1 * _EDGE):
        assert series_passes(ImplicitDiffusionOperator(m, LAB.d_u, dt)) == (
            SERIES_MAX_PASSES if dt < _EDGE else None)
    rng = np.random.default_rng(nx)
    u, v = rng.uniform(0, 1, m.n_cells), rng.uniform(0, 1, m.n_cells)
    sources = None
    fu, gv = reaction_f(u, v, LAB.F), reaction_g(u, v, LAB.F, LAB.k)
    if with_sources:
        case = tanh_case(0.1, LAB)
        sources = (case.S_u, case.S_v)
        fu = fu + case.S_u(0.3, m.xc, m.yc)
        gv = gv + case.S_v(0.3, m.xc, m.yc)
    h2 = m.h ** 2
    want_u = solve(ImplicitDiffusionOperator(m, LAB.d_u, dt),
                   CellField(m, h2 * (u + dt * fu)))
    want_v = solve(ImplicitDiffusionOperator(m, LAB.d_v, dt),
                   CellField(m, h2 * (v + dt * gv)))
    state = SimState(0, 0.3, CellField(m, u), CellField(m, v))
    got = step(state, LAB, dt, sources)
    assert np.array_equal(got.u.values, want_u.values)
    assert np.array_equal(got.v.values, want_v.values)
    ref = step_cg(state, LAB, dt, sources)
    for new, cg in ((got.u, ref.u), (got.v, ref.v)):
        assert np.linalg.norm(new.values - cg.values) <= \
            1e-12 * np.linalg.norm(cg.values)


def test_sources_sampled_at_old_time():
    m = build_mesh(8, 8)
    seen = []

    def S(t, x, y):
        seen.append(t)
        return np.zeros_like(x)

    state = SimState(0, 0.0, full(m, 1.0), full(m, 0.0))
    state = step(state, LAB, dt=0.5, sources=(S, S))
    step(state, LAB, dt=0.5, sources=(S, S))
    assert seen == [0.0, 0.0, 0.5, 0.5]


@pytest.mark.parametrize("where, species", [
    ("v cell", "v"), ("u cell", "u"), ("S_u", "u"), ("S_v", "v")])
def test_non_finite_state_names_step_time_species(where, species):
    m = build_mesh(16, 16)
    u0, v0 = pattern_initial_condition(m)
    if where == "v cell":
        v0.values[37] = math.nan
    if where == "u cell":
        u0.values[37] = math.nan

    def S(bad):
        return lambda t, x, y: np.where(x > 0.5, math.inf, 0.0) if bad else 0.0

    sources = (S(where == "S_u"), S(where == "S_v"))
    with pytest.raises(NonFiniteState) as info:
        step(SimState(0, 0.25, u0, v0), LAB, dt=1.0, sources=sources)
    err = info.value
    assert (err.step, err.t, err.species) == (1, 0.25, species)
    assert isinstance(err, NoConvergence)  # study NaN rows, CLI exit 2
    assert str(err) == f"non-finite {species} at step 1, t=0.25"
