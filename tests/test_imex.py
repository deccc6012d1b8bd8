import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsfv import imex
from gsfv.diffusion import (SERIES_MAX_PASSES, ImplicitDiffusionOperator,
                            NoConvergence, coefficient_array, series_passes,
                            solve, solve_path)
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
    # on the series the step's shared u v^2 and in-place right-hand side
    # must round as reaction_f, reaction_g and h^2 (u + dt f) do; a cosine
    # path's right-hand side, built in its modes, must agree with that one
    # solved to 2e-15 (4.4e-16 seen). The whole step must agree with the
    # same arithmetic on the CG reference solve
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
    for d, new, want in ((LAB.d_u, got.u, want_u), (LAB.d_v, got.v, want_v)):
        if solve_path(ImplicitDiffusionOperator(m, d, dt)) == "series":
            assert np.array_equal(new.values, want.values)
        else:  # a cosine path builds the right-hand side in its modes
            assert np.linalg.norm(new.values - want.values) <= \
                2e-15 * np.linalg.norm(want.values)
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


@pytest.mark.parametrize("nx, dt, steps, paths", [
    (16, 1.0, 3, ("dct", "dct")),
    (256, 1.0, 2, ("fft", "fft")),
    (16, 16.0 ** -2, 3, ("series", "series")),
    (37, 1.1 * _EDGE, 3, ("dct", "series"))],
    ids=["dense", "fft", "series", "mixed"])
def test_run_calls_step_and_solve_once_each(monkeypatch, nx, dt, steps,
                                            paths):
    # the benchmark's traced counts rest on this: run() calls step() once
    # per step, and step() calls solve() once per species
    calls = {"step": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(imex, "step", counted("step", imex.step))
    monkeypatch.setattr(imex, "solve", counted("solve", imex.solve))
    m = build_mesh(nx, nx)
    assert tuple(solve_path(ImplicitDiffusionOperator(m, d, dt))
                 for d in (LAB.d_u, LAB.d_v)) == paths
    u0, v0 = pattern_initial_condition(m)
    run(SimState(0, 0.0, u0, v0), LAB, RunConfig(dt=dt, T=steps * dt))
    assert calls == {"step": steps, "solve": 2 * steps}


@pytest.mark.parametrize("nx, steps", [(24, 12), (240, 2)],
                         ids=["dense", "fft"])
@pytest.mark.parametrize("with_sources", [False, True])
def test_run_matches_steps_on_cg(nx, steps, with_sources):
    # a run carries each species' modes from step to step; it must agree
    # with the steps of the reference arithmetic on CG: the pattern run at
    # dt = 1, the moving front from its exact start at dt = 1/16
    m = build_mesh(nx, nx)
    dt, sources = 1.0, None
    u0, v0 = pattern_initial_condition(m)
    if with_sources:
        case = tanh_case(0.1, LAB)
        dt, sources = 1.0 / 16.0, (case.S_u, case.S_v)
        u0 = project(m, lambda x, y: case.u_star(0.0, x, y))
        v0 = project(m, lambda x, y: case.v_star(0.0, x, y))
    assert solve_path(ImplicitDiffusionOperator(m, LAB.d_v, dt)) != "series"
    final, _ = run(SimState(0, 0.0, u0, v0), LAB,
                   RunConfig(dt=dt, T=steps * dt), sources)
    ref = SimState(0, 0.0, u0, v0)
    for _ in range(steps):
        ref = step_cg(ref, LAB, dt, sources)
    for got, want in ((final.u, ref.u), (final.v, ref.v)):
        assert np.linalg.norm(got.values - want.values) <= \
            1e-12 * np.linalg.norm(want.values)


def test_run_takes_the_series_on_a_short_last_step():
    # the last step, shortened to 1e-7, takes the series for both species
    m = build_mesh(16, 16)
    u0, v0 = pattern_initial_condition(m)
    cfg = RunConfig(dt=1.0, T=3.0 + 1e-7)
    last = cfg.T - 3.0
    assert solve_path(ImplicitDiffusionOperator(m, LAB.d_u, last)) == "series"
    final, rep = run(SimState(0, 0.0, u0, v0), LAB, cfg)
    assert rep.shortened_final_step
    ref = SimState(0, 0.0, u0, v0)
    for dt in (1.0, 1.0, 1.0, last):
        ref = step_cg(ref, LAB, dt)
    for got, want in ((final.u, ref.u), (final.v, ref.v)):
        assert np.linalg.norm(got.values - want.values) <= \
            1e-12 * np.linalg.norm(want.values)


def test_step_record_forgets_modes_on_a_series_step():
    # the record must not hand a later cosine step the modes of a state
    # that a series step has since replaced
    m = build_mesh(16, 16)
    u0, v0 = pattern_initial_condition(m)
    record, with_record, bare = {}, SimState(0, 0.0, u0, v0), \
        SimState(0, 0.0, u0, v0)
    for dt in (1.0, 1e-7, 1.0):
        with_record = step(with_record, LAB, dt, modes=record)
        bare = step(bare, LAB, dt)
        assert np.array_equal(with_record.u.values, bare.u.values)
        assert np.array_equal(with_record.v.values, bare.v.values)


@pytest.mark.parametrize("nx, path", [(64, "dct"), (240, "fft")])
def test_run_step_allocations_stay_flat(nx, path):
    # tracemalloc's peak within each step, above what was held when it
    # began: u v^2 (which its coefficients then replace) and the two new
    # fields, plus small objects, alike on every step; and the numpy arrays
    # held after a step (the state, the record's modes, the caches) the
    # same from step to step
    m = build_mesh(nx, nx)
    assert solve_path(ImplicitDiffusionOperator(m, LAB.d_v, 1.0)) == path
    u0, v0 = pattern_initial_condition(m)
    initial = SimState(0, 0.0, u0, v0)
    cfg = RunConfig(dt=1.0, T=200.0 if path == "dct" else 20.0,
                    monitors=False)
    run(initial, LAB, RunConfig(dt=1.0, T=2.0))  # fills the caches
    steps = whole_steps(cfg.T, cfg.dt)
    above = np.zeros(steps + 1, dtype=np.int64)
    held = np.zeros(steps + 1, dtype=np.int64)
    arrays = []

    def array_sizes():
        domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([domain]).traces
        return sorted(t.size for t in traces)

    def observe(state):
        current, peak = tracemalloc.get_traced_memory()
        above[state.n] = peak - held[state.n - 1]
        held[state.n] = current
        if state.n in (2, steps):
            arrays.append(array_sizes())
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        held[0] = tracemalloc.get_traced_memory()[0]
        run(initial, LAB, cfg, observers=[observe])
    finally:
        tracemalloc.stop()
    # the first step also transforms u and v into the run's record
    block = 8 * coefficient_array(m).size
    assert np.ptp(above[2:]) <= 4096
    assert np.max(above[2:]) <= block + 2 * 8 * m.n_cells + 4096
    assert arrays[0] == arrays[1]


@pytest.mark.parametrize("nx", [64, 240], ids=["dense", "fft"])
def test_runs_in_two_threads_match_serial(nx):
    # each run keeps its own record of modes; the transforms share one
    # scratch per mesh shape, under the solver's lock
    m = build_mesh(nx, nx)
    rng = np.random.default_rng(nx)
    starts = [SimState(0, 0.0, CellField(m, 1.0 - 0.1 * rng.random(m.n_cells)),
                       CellField(m, 0.1 * rng.random(m.n_cells)))
              for _ in range(2)]
    cfg = RunConfig(dt=1.0, T=40.0 if nx == 64 else 6.0, monitors=False)
    want = [run(s, LAB, cfg)[0] for s in starts]
    got = [None, None]
    start = threading.Barrier(2)

    def work(i):
        start.wait(timeout=60)
        got[i] = run(starts[i], LAB, cfg)[0]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert np.array_equal(g.u.values, w.u.values)
        assert np.array_equal(g.v.values, w.v.values)
