import numpy as np
import pytest

from gsfv.mesh import build_mesh
from gsfv.patterns import (SNAPSHOT_TIMES, UnknownPreset,
                           pattern_initial_condition, preset, preset_names,
                           run_pattern)


def test_preset_values():
    lab = preset("labyrinthine")
    assert (lab.F, lab.k) == (0.037, 0.060)
    mov = preset("moving_spots")
    assert (mov.F, mov.k) == (0.014, 0.054)
    pul = preset("pulsating_spots")
    assert (pul.F, pul.k) == (0.025, 0.060)
    for p in (lab, mov, pul):
        assert p.snapshot_times == SNAPSHOT_TIMES == (100.0, 500.0, 1000.0,
                                                      2000.0)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("stripes")


def test_preset_names_sorted_complete():
    assert set(preset_names()) == {"labyrinthine", "moving_spots",
                                   "pulsating_spots"}


def test_initial_condition_geometry():
    m = build_mesh(10, 10)
    u0, v0 = pattern_initial_condition(m)
    seeded = u0.values != 1.0
    assert int(np.sum(seeded)) == 4  # centers at 0.45 and 0.55 only
    assert float(np.mean(u0.values)) == pytest.approx(0.98, abs=1e-15)
    assert u0.values[0] == 1.0 and v0.values[0] == 0.0  # corner untouched
    assert np.all(u0.values[seeded] == 0.5)
    assert np.all(v0.values[seeded] == 0.25)
    assert np.all(v0.values[~seeded] == 0.0)


def test_initial_condition_rejects_non_unit_domain():
    with pytest.raises(ValueError):
        pattern_initial_condition(build_mesh(4, 2))


def test_smoke_run_bounds_hold():
    m = build_mesh(64, 64)
    snaps, report = run_pattern(preset("labyrinthine"), m, dt=0.5, t_end=10.0)
    assert report.bound_violations == 0
    assert report.steps == 20
    assert snaps[-1].t == 10.0
    assert snaps[-1].u.is_finite() and snaps[-1].v.is_finite()
    assert -1e-12 <= report.min_u and report.max_u <= 1.0 + 1e-12
    assert -1e-12 <= report.min_v and report.max_v <= 1.0 + 1e-12


def test_snapshot_times_default_filtering():
    m = build_mesh(32, 32)
    snaps, _ = run_pattern(preset("labyrinthine"), m, dt=1.0, t_end=120.0)
    assert [s.t for s in snaps] == [100.0, 120.0]


def test_explicit_snapshot_times_and_t0():
    m = build_mesh(32, 32)
    snaps, _ = run_pattern(preset("labyrinthine"), m, dt=1.0, t_end=4.0,
                           snapshot_times=[0.0, 2.0, 4.0])
    assert [s.t for s in snaps] == [0.0, 2.0, 4.0]
    u0, _ = pattern_initial_condition(m)
    assert np.array_equal(snaps[0].u.values, u0.values)


def test_times_on_one_step_give_one_snapshot():
    # 2.0000000000001 is within 1e-9 of step 2, so both times are step 2
    m = build_mesh(8, 8)
    snaps, _ = run_pattern(preset("labyrinthine"), m, dt=1.0, t_end=4.0,
                           snapshot_times=[2.0, 2.0000000000001])
    assert [(s.n, s.t) for s in snaps] == [(2, 2.0)]


def test_snapshot_times_must_be_step_aligned():
    m = build_mesh(32, 32)
    with pytest.raises(ValueError):
        run_pattern(preset("labyrinthine"), m, dt=1.0, t_end=4.0,
                    snapshot_times=[2.5])
    with pytest.raises(ValueError):
        run_pattern(preset("labyrinthine"), m, dt=1.0, t_end=4.0,
                    snapshot_times=[-1.0])
    # beyond the last whole step before t_end
    with pytest.raises(ValueError, match="beyond t_end"):
        run_pattern(preset("labyrinthine"), m, dt=1.0, t_end=3.5,
                    snapshot_times=[4.0])


def test_runs_reproducible_bit_for_bit():
    m = build_mesh(32, 32)
    a, _ = run_pattern(preset("moving_spots"), m, dt=1.0, t_end=25.0,
                       snapshot_times=[25.0])
    b, _ = run_pattern(preset("moving_spots"), m, dt=1.0, t_end=25.0,
                       snapshot_times=[25.0])
    assert np.array_equal(a[0].u.values, b[0].u.values)
    assert np.array_equal(a[0].v.values, b[0].v.values)


def test_homogeneous_control_stays_fixed():
    from gsfv.field import full
    from gsfv.imex import RunConfig, SimState, run

    m = build_mesh(32, 32)
    p = preset("labyrinthine")
    from gsfv.imex import GrayScottParams
    params = GrayScottParams(1.6e-5, 8e-6, p.F, p.k)
    state = SimState(0, 0.0, full(m, 1.0), full(m, 0.0))
    final, _ = run(state, params, RunConfig(dt=1.0, T=50.0))
    assert np.max(np.abs(final.u.values - 1.0)) <= 1e-12
    assert np.max(np.abs(final.v.values)) <= 1e-12
