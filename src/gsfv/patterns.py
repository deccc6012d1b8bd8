"""Named kinetic presets and long-horizon pattern runs.

Initial data is the near-homogeneous state u = 1, v = 0 with the center
box [0.4, 0.6]^2 seeded to (u, v) = (0.5, 0.25); cell membership is by
cell center. Default diffusivities d_u = 1.6e-5, d_v = d_u / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import CellField
from .imex import (GrayScottParams, MonitorReport, RunConfig, SimState, run,
                   whole_steps)
from .mesh import UniformMesh


class UnknownPreset(ValueError):
    """No preset registered under that name."""


@dataclass(frozen=True)
class PatternPreset:
    name: str
    F: float
    k: float
    snapshot_times: tuple


SNAPSHOT_TIMES = (100.0, 500.0, 1000.0, 2000.0)

_PRESETS = {
    "labyrinthine": (0.037, 0.060),
    "moving_spots": (0.014, 0.054),
    "pulsating_spots": (0.025, 0.060),
}

SEED_BOX = (0.4, 0.6)
SEED_U = 0.5
SEED_V = 0.25
DEFAULT_D_U = 1.6e-5


def preset_names() -> list:
    return sorted(_PRESETS)


def preset(name: str) -> PatternPreset:
    """Look up a preset by name; raises UnknownPreset."""
    try:
        F, k = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; have {preset_names()}") from None
    return PatternPreset(name, F, k, SNAPSHOT_TIMES)


def pattern_initial_condition(mesh: UniformMesh) -> tuple[CellField, CellField]:
    """Seeded near-homogeneous initial state on a square (nx == ny) mesh."""
    if mesh.nx != mesh.ny:
        raise ValueError("pattern initial condition expects the unit square")
    lo, hi = SEED_BOX
    inside = ((mesh.xc >= lo) & (mesh.xc <= hi)
              & (mesh.yc >= lo) & (mesh.yc <= hi))
    u = np.ones(mesh.n_cells)
    v = np.zeros(mesh.n_cells)
    u[inside] = SEED_U
    v[inside] = SEED_V
    return CellField(mesh, u), CellField(mesh, v)


def run_pattern(pat: PatternPreset, mesh: UniformMesh, dt: float = 1.0,
                d_u: float = DEFAULT_D_U, d_v: float | None = None,
                t_end: float | None = None,
                snapshot_times=None) -> tuple[list, MonitorReport]:
    """Run a preset from the seeded state, capturing snapshots.

    Snapshot times default to the preset's times before t_end, plus t_end.
    A snapshot is the state at step whole_steps(t, dt): each time must be
    a whole number of steps, and times on one step give one snapshot.
    Returns the snapshots (the run's own SimStates, which no later step
    writes to) and the monitor report of the whole run.
    """
    snaps: list = []
    report = _check_pattern(pat, mesh, dt, d_u, d_v, t_end,
                            snapshot_times)(snaps.append)
    return snaps, report


def _check_pattern(pat, mesh, dt, d_u, d_v, t_end, snapshot_times):
    """run_pattern's argument checks; returns the run itself, which hands
    the SimState of each snapshot step to take(state) as it is reached and
    returns the MonitorReport."""
    if d_v is None:
        d_v = d_u / 2.0
    params = GrayScottParams(d_u, d_v, pat.F, pat.k)
    if snapshot_times is None:
        t_end = max(pat.snapshot_times) if t_end is None else float(t_end)
        times = [t for t in pat.snapshot_times if t < t_end] + [t_end]
    else:
        times = [float(t) for t in snapshot_times]
        if not (times and np.isfinite(times).all() and min(times) >= 0.0):
            raise ValueError(f"need finite --snapshots >= 0, got {times}")
        t_end = max(times) if t_end is None else float(t_end)
    cfg = RunConfig(dt=dt, T=t_end)  # validates dt and T/dt before the rest
    if not t_end > 0.0:
        raise ValueError(f"need t_end > 0, got {t_end}")
    steps = set()
    for ts in times:
        n = whole_steps(ts, dt)
        if n is None:
            raise ValueError(f"snapshot time {ts} not a multiple of dt={dt}")
        steps.add(n)
    # the last step a snapshot can take is t_end's, or before a shortened one
    if max(steps) > (whole_steps(t_end, dt) or math.floor(t_end / dt)):
        raise ValueError("snapshot time beyond t_end")
    u0, v0 = pattern_initial_condition(mesh)  # rejects a non-square mesh

    def go(take) -> MonitorReport:
        def capture(state: SimState) -> None:
            if state.n in steps:
                take(state)

        state = SimState(0, 0.0, u0, v0)
        capture(state)  # a t=0 snapshot, if requested
        return run(state, params, cfg, observers=(capture,))[1]

    return go
