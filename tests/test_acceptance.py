"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Every test measures its quantity at a pinned configuration, prints
  ACCEPTANCE NN <name>: PASS/FAIL (<measured numbers>)
records that line in the session log (echoed in the terminal summary by
conftest), then asserts. A failing criterion still reports its numbers.

Pinned physics throughout: d_u = 1.6e-5, d_v = d_u/2, F = 0.037,
k = 0.060 (the labyrinthine kinetics).
"""

import math

import numpy as np
import pytest

from gsfv.diffusion import ImplicitDiffusionOperator, apply
from gsfv.field import CellField, full
from gsfv.imex import GrayScottParams, RunConfig, SimState, run
from gsfv.mesh import build_mesh
from gsfv.mms import (convergence_study, interface_study, observed_orders,
                      residual_check, stability_study, tanh_case,
                      trig_case)
from gsfv.patterns import preset, run_pattern
from oracles import dense_operator

D_U = 1.6e-5
D_V = 8e-6
PARAMS = GrayScottParams(D_U, D_V, 0.037, 0.060)
SLOPE_BAND = (0.8, 1.2)
EPS_BAND = (1.6, 2.4)


def _verdict(log, num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    log.append(line)
    return line


def _in_band(x: float, band) -> bool:
    return band[0] <= x <= band[1]


@pytest.fixture(scope="module")
def labyrinthine_t200():
    """One shared 64^2, dt=1, T=200 labyrinthine run for criteria 5 and 6."""
    mesh = build_mesh(64, 64)
    snaps, report = run_pattern(preset("labyrinthine"), mesh, dt=1.0,
                                t_end=200.0, snapshot_times=[200.0])
    return snaps, report


def test_01_smooth_case_convergence_order(acceptance_log):
    case = trig_case(0.5, PARAMS)
    table = convergence_study(case, PARAMS, [16, 32, 64, 128], T=1.0)
    su = table.orders["err_linf_l2_u"]
    sv = table.orders["err_linf_l2_v"]
    ok = _in_band(su, SLOPE_BAND) and _in_band(sv, SLOPE_BAND)
    line = _verdict(acceptance_log, 1, "smooth-case convergence order", ok,
                    f"Linf(L2) slopes u={su:.4f} v={sv:.4f}, "
                    f"band [{SLOPE_BAND[0]}, {SLOPE_BAND[1]}]")
    assert ok, line


# Criterion 02 fits the asymptotic order. The paper's estimate needs
# regularity bounds that grow like powers of 1/eps, so every rung must
# resolve the front by the rule interface_study enforces: eps > 2h. Rungs
# below that are pre-asymptotic (README, "Acceptance gate"). The max-norm
# slope on this ladder clears the band's lower edge by only ~0.06.
FRONT_EPS = 0.1
FRONT_LADDER = [32, 64, 128]


def test_02_moving_front_convergence_order(acceptance_log):
    name = "moving-front convergence order"
    unresolved = [nx for nx in FRONT_LADDER if FRONT_EPS <= 2.0 / nx]
    if unresolved:
        line = _verdict(acceptance_log, 2, name, False,
                        f"ladder {FRONT_LADDER} has rungs nx={unresolved} "
                        f"with eps={FRONT_EPS} <= 2h; front not resolved")
        pytest.fail(line)
    case = tanh_case(FRONT_EPS, PARAMS)
    table = convergence_study(case, PARAMS, FRONT_LADDER, T=1.0)
    l2u = table.orders["err_linf_l2_u"]
    l2v = table.orders["err_linf_l2_v"]
    liu = table.orders["err_linf_linf_u"]
    liv = table.orders["err_linf_linf_v"]
    pairs = [observed_orders(p, [r.h ** 2 for r in p])
             for p in zip(table.rows, table.rows[1:])]
    pairwise = {sp: " -> ".join(f"{o[f'err_linf_linf_{sp}']:.2f}"
                                for o in pairs) for sp in ("u", "v")}
    ok = all(_in_band(s, SLOPE_BAND) for s in (l2u, l2v, liu, liv))
    line = _verdict(acceptance_log, 2, name, ok,
                    f"Linf(L2) slopes u={l2u:.4f} v={l2v:.4f}, "
                    f"Linf(Linf) slopes u={liu:.4f} v={liv:.4f}, "
                    f"pairwise Linf(Linf) orders u={pairwise['u']} "
                    f"v={pairwise['v']}, ladder {FRONT_LADDER}, "
                    f"band [{SLOPE_BAND[0]}, {SLOPE_BAND[1]}]")
    assert ok, line


def test_03_large_time_step_robustness(acceptance_log):
    case = trig_case(0.5, PARAMS)
    ks = [1.0, 2.0, 4.0, 16.0, 32.0, 64.0]
    table = stability_study(case, PARAMS, ks, build_mesh(128, 128), T=1.0)
    finite = all(r.finite() for r in table.rows)
    first, last = table.rows[0], table.rows[-1]
    grew = (last.err_linf_l2_u > first.err_linf_l2_u
            and last.err_linf_l2_v > first.err_linf_l2_v)
    ok = finite and grew
    line = _verdict(acceptance_log, 3, "large time step robustness", ok,
                    f"all finite={finite}, Linf(L2)_u "
                    f"k=1: {first.err_linf_l2_u:.3e} -> "
                    f"k=64: {last.err_linf_l2_u:.3e}")
    assert ok, line


def test_04_front_width_sensitivity(acceptance_log):
    mesh = build_mesh(128, 128)
    table = interface_study(PARAMS, [0.2, 0.1, 0.05, 0.025], mesh,
                            1.0 / 256.0, T=1.0, sample_times=[1.0])
    su = table.orders["err_linf_linf_u"]
    sv = table.orders["err_linf_linf_v"]
    l2u = table.orders["err_linf_l2_u"]
    l2v = table.orders["err_linf_l2_v"]
    ok = _in_band(su, EPS_BAND) and _in_band(sv, EPS_BAND)
    line = _verdict(acceptance_log, 4, "front width sensitivity", ok,
                    f"Linf(Linf) slopes vs 1/eps u={su:.4f} v={sv:.4f}, "
                    f"band [{EPS_BAND[0]}, {EPS_BAND[1]}]; "
                    f"Linf(L2) u={l2u:.4f} v={l2v:.4f} informational")
    assert ok, line


def test_05_bound_preservation(acceptance_log, labyrinthine_t200):
    _, report = labyrinthine_t200
    tol = 1e-12
    ok = (report.min_u >= -tol and report.max_u <= 1.0 + tol
          and report.min_v >= -tol)
    line = _verdict(acceptance_log, 5, "bound preservation", ok,
                    f"min u={report.min_u:.3e}, max u={report.max_u:.6f}, "
                    f"min v={report.min_v:.3e}, tol {tol}")
    assert ok, line


def test_06_energy_ledger(acceptance_log, labyrinthine_t200):
    _, report = labyrinthine_t200
    diss = np.asarray(report.dissipation)
    energy_ok = report.energy_max <= 2.0  # 2 * |domain|, unit square
    diss_ok = (diss.size == report.steps
               and bool(np.all(np.isfinite(diss)))
               and bool(np.all(np.diff(diss) >= 0.0)) and diss[0] >= 0.0)
    ok = energy_ok and diss_ok
    line = _verdict(acceptance_log, 6, "energy ledger", ok,
                    f"max ||u||^2+||v||^2 = {report.energy_max:.6f} <= 2.0, "
                    f"dissipation sum final={diss[-1]:.3e}, "
                    f"finite+monotone={diss_ok}")
    assert ok, line


def test_07_diffusion_operator_oracle(acceptance_log):
    meshes = [build_mesh(n, n) for n in range(2, 9)]
    meshes.append(build_mesh(4, 8))  # square cells, non-square grid
    worst_diff = 0.0
    min_eig = math.inf
    symmetric = True
    for mesh in meshes:
        for d, dt in ((D_U, 1.0), (1.0, 0.25)):
            op = ImplicitDiffusionOperator(mesh, d, dt)
            dense = dense_operator(mesh, d, dt)
            n = mesh.n_cells
            cols = np.column_stack([
                apply(op, CellField(mesh, np.eye(n)[:, j])).values
                for j in range(n)])
            worst_diff = max(worst_diff, float(np.abs(cols - dense).max()))
            symmetric = symmetric and bool(np.array_equal(dense, dense.T))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(dense).min()))
    ok = worst_diff <= 1e-12 and symmetric and min_eig > 0.0
    line = _verdict(acceptance_log, 7, "diffusion operator oracle", ok,
                    f"{len(meshes)} meshes up to 8x8, max entry "
                    f"diff={worst_diff:.2e} <= 1e-12, symmetric={symmetric}, "
                    f"min eigenvalue={min_eig:.3e} > 0")
    assert ok, line


def test_08_manufactured_source_defects(acceptance_log):
    windows = (("smooth", trig_case(0.5, PARAMS), (32, 64, 128)),
               ("front", tanh_case(0.1, PARAMS), (128, 256, 512)))
    details = []
    ok = True
    for label, case, sizes in windows:
        defects = []
        for nx in sizes:
            mesh = build_mesh(nx, nx)
            du, dv = residual_check(case, 0.3, mesh, mesh.h ** 2)
            defects.append((du, dv))
        ratios = [(d0 / d1, e0 / e1)
                  for (d0, e0), (d1, e1) in zip(defects, defects[1:])]
        ok = ok and all(ru >= 3.5 and rv >= 3.5 for ru, rv in ratios)
        pretty = ", ".join(f"u x{ru:.2f}/v x{rv:.2f}" for ru, rv in ratios)
        details.append(f"{label} {sizes}: {pretty}")
    line = _verdict(acceptance_log, 8, "manufactured source defects", ok,
                    "decay per doubling >= 3.5: " + "; ".join(details))
    assert ok, line


def test_09_steady_state_fixed_point(acceptance_log):
    worst = 0.0
    combos = ((16, 0.5), (64, 1.0), (128, 2.0))
    for nx, dt in combos:
        mesh = build_mesh(nx, nx)
        state = SimState(0, 0.0, full(mesh, 1.0), full(mesh, 0.0))
        final, report = run(state, PARAMS, RunConfig(dt=dt, T=1000 * dt))
        assert report.steps == 1000
        dev = max(float(np.abs(final.u.values - 1.0).max()),
                  float(np.abs(final.v.values).max()))
        worst = max(worst, dev)
    ok = worst <= 1e-14
    line = _verdict(acceptance_log, 9, "steady state fixed point", ok,
                    f"1000 steps from (1,0) at (nx,dt) in {combos}: "
                    f"max |drift| = {worst:.3e} <= 1e-14")
    assert ok, line


def test_10_pattern_formation(acceptance_log):
    mesh = build_mesh(128, 128)
    snaps, _ = run_pattern(preset("labyrinthine"), mesh, dt=1.0,
                           t_end=2000.0, snapshot_times=[2000.0])
    std_seeded = float(np.std(snaps[-1].u.values))

    state = SimState(0, 0.0, full(mesh, 1.0), full(mesh, 0.0))
    final, _ = run(state, PARAMS, RunConfig(dt=1.0, T=2000.0))
    std_control = float(np.std(final.u.values))

    ok = std_seeded > 0.05 and std_control < 1e-12
    line = _verdict(acceptance_log, 10, "pattern formation", ok,
                    f"std(u) at t=2000: seeded={std_seeded:.4f} > 0.05, "
                    f"homogeneous control={std_control:.3e} < 1e-12")
    assert ok, line
