#!/usr/bin/env python3
"""Run one benchmark workload in this process and print what it measured.

run.py starts this file in a fresh interpreter with BLAS pinned to one
thread. With --setup-only it builds the workload's inputs (import, meshes,
initial data, case), prints the monotonic clock reading at which it was
ready and exits; run.py turns that into setup_s. Otherwise it repeats the
workload's unit of work for about --seconds, checks the outputs of every
unit and prints one JSON object as its last stdout line. With --trace 1 it
alternates untraced and traced units; the traced ones supply per-layer
numbers and the untraced ones the base of the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gsfv import cli, diffusion, imex, mms  # noqa: E402
from gsfv import mesh as gmesh  # noqa: E402
from gsfv import patterns  # noqa: E402
from gsfv.diffusion import ImplicitDiffusionOperator, NoConvergence  # noqa: E402
from gsfv.field import CellField  # noqa: E402
from gsfv.imex import GrayScottParams, RunConfig, SimState  # noqa: E402

from spans import Tracer, summarize  # noqa: E402

OUT_DIR = ROOT / ".bench_out"

# Pattern runs: the labyrinthine preset at dt = 1 with both monitors on.
# The seeded perturbation lowers u and raises v by at most PERTURB, so the
# initial state stays inside the monitored bounds [0, 1].
PATTERN_PRESET = "labyrinthine"
PATTERN_DT = 1.0
PERTURB = 0.01
BOUND_TOL = 1e-12
# Front ladder: the tanh case at dt = h^2, monitors off.
FRONT_EPS = 0.1
FRONT_R00 = (0.2, 0.3)
# A correct solve leaves ||A x - rhs|| / ||rhs|| near CG's 1e-10 stopping
# tolerance or below it; 1e-8 leaves room for the rebuilt right-hand side
# rounding differently from the one the step assembled.
RHS_RTOL = 1e-8
# Minimum traffic of one operator apply: read the input, write the output.
APPLY_BYTES_PER_CELL = 16


@dataclass(frozen=True)
class Pattern:
    n: int
    steps: int


@dataclass(frozen=True)
class Ladder:
    sizes: tuple
    T: float
    samples: int


WORKLOADS = {
    "pattern128": Pattern(128, 300),
    "pattern512": Pattern(512, 8),
    "front_ladder": Ladder((16, 32, 64, 128), 1.0 / 16.0, 4),
}


@dataclass
class PatternInputs:
    spec: Pattern
    params: GrayScottParams
    mesh: gmesh.UniformMesh
    state: SimState


@dataclass
class LadderInputs:
    spec: Ladder
    params: GrayScottParams
    meshes: list
    case: mms.ManufacturedCase


@dataclass
class UnitResult:
    """What one unit of work did and how its checks came out."""

    wall_s: float = math.nan
    cell_steps: int = 0
    step_s: list = field(default_factory=list)  # finest mesh only
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {name}")

    def step_failure(self, err: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"step failed: {err}")


class StepClock:
    """Durations between consecutive ticks, the first from start()."""

    def __init__(self):
        self.durations = []
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def tick(self, _state=None) -> None:
        now = time.perf_counter()
        self.durations.append(now - self._last)
        self._last = now


def _pattern_params() -> GrayScottParams:
    pat = patterns.preset(PATTERN_PRESET)
    d_u = patterns.DEFAULT_D_U
    return GrayScottParams(d_u, d_u / 2.0, pat.F, pat.k)


def setup(name: str, seed: int, spec=None):
    """Build a workload's inputs from its seed; spec overrides the size."""
    spec = spec or WORKLOADS[name]
    rng = np.random.default_rng(seed)
    if isinstance(spec, Pattern):
        mesh = gmesh.build_mesh(spec.n, spec.n)
        lo, hi = patterns.SEED_BOX
        width = hi - lo
        x0, y0 = rng.uniform(0.2, 0.8 - width, size=2)
        inside = ((mesh.xc >= x0) & (mesh.xc <= x0 + width)
                  & (mesh.yc >= y0) & (mesh.yc <= y0 + width))
        u = np.where(inside, patterns.SEED_U, 1.0) \
            - PERTURB * rng.random(mesh.n_cells)
        v = np.where(inside, patterns.SEED_V, 0.0) \
            + PERTURB * rng.random(mesh.n_cells)
        state = SimState(0, 0.0, CellField(mesh, u), CellField(mesh, v))
        return PatternInputs(spec, _pattern_params(), mesh, state)
    params = _pattern_params()
    case = mms.tanh_case(FRONT_EPS, params, r00=float(rng.uniform(*FRONT_R00)))
    meshes = [gmesh.build_mesh(n, n) for n in spec.sizes]
    return LadderInputs(spec, params, meshes, case)


def _rhs_residual(prev: SimState, last: SimState, params, dt: float,
                  species: str) -> float:
    """Relative residual of the last step's solve, rebuilt from prev."""
    u, v = prev.u.values, prev.v.values
    if species == "u":
        d, old, new = params.d_u, u, last.u
        kin = imex.reaction_f(u, v, params.F)
    else:
        d, old, new = params.d_v, v, last.v
        kin = imex.reaction_g(u, v, params.F, params.k)
    mesh = new.mesh
    rhs = mesh.h ** 2 * (old + dt * kin)
    lhs = diffusion.apply(ImplicitDiffusionOperator(mesh, d, dt), new).values
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def run_pattern_unit(inp: PatternInputs, out_dir: Path) -> UnitResult:
    res = UnitResult()
    steps = inp.spec.steps
    cfg = RunConfig(dt=PATTERN_DT, T=steps * PATTERN_DT,
                    bound_tolerance=BOUND_TOL)
    clock = StepClock()
    history = [inp.state, inp.state]  # states before and after the last step

    def observe(state: SimState) -> None:
        clock.tick()
        history[0], history[1] = history[1], state

    pgm, csv = out_dir / "u.pgm", out_dir / "u.csv"
    t0 = time.perf_counter()
    clock.start()
    try:
        final, report = imex.run(inp.state, inp.params, cfg,
                                 observers=(observe,))
    except NoConvergence as e:
        res.step_failure(e)
        final = report = None
    else:
        cli.write_field_snapshot(final.u, str(pgm), "pgm")
        cli.write_field_snapshot(final.u, str(csv), "csv")
    res.wall_s = time.perf_counter() - t0
    done = len(clock.durations)
    res.attempted += done
    res.step_s = clock.durations
    res.cell_steps = inp.mesh.n_cells * done

    prev, last = history
    res.check("finite", last.u.is_finite() and last.v.is_finite())
    res.check("bounds", report is not None and report.bound_violations == 0)
    ledger = np.asarray(report.dissipation if report else [])
    res.check("ledger monotone", ledger.size == steps and ledger[0] >= 0.0
              and bool(np.all(np.diff(ledger) >= 0.0)))
    for sp in ("u", "v"):
        ok = done > 0 and _rhs_residual(prev, last, inp.params, PATTERN_DT,
                                        sp) <= RHS_RTOL
        res.check(f"rhs rebuild {sp}", ok)
    if final is None:
        res.check("snapshot", False)
        return res
    m = inp.mesh
    header = f"P5\n# manifest: {cli.MANIFEST_NAME}\n{m.nx} {m.ny}\n65535\n"
    grid = final.u.values.reshape(m.ny, m.nx)
    res.check("snapshot", pgm.stat().st_size == len(header) + 2 * m.n_cells
              and np.array_equal(cli.read_field_csv(str(csv)), grid))
    res.bytes_written = pgm.stat().st_size + csv.stat().st_size
    return res


def run_ladder_unit(inp: LadderInputs, case) -> UnitResult:
    res = UnitResult()
    spec = inp.spec
    samples = mms.default_sample_times(spec.T, spec.samples)
    orig_run = mms.run
    clock = StepClock()

    def clocked_run(initial, params, config, sources=None, observers=()):
        clock.start()
        return orig_run(initial, params, config, sources=sources,
                        observers=(*observers, clock.tick))

    rows = []
    mms.run = clocked_run
    t0 = time.perf_counter()
    try:
        for mesh in inp.meshes:
            clock = StepClock()
            try:
                rows.append(mms.error_norms(case, inp.params, mesh,
                                            mesh.h ** 2, spec.T, samples))
            except NoConvergence as e:
                res.step_failure(e)
                break
            finally:
                res.attempted += len(clock.durations)
                res.cell_steps += mesh.n_cells * len(clock.durations)
        orders = mms.observed_orders(rows, [r.h ** 2 for r in rows])
        res.wall_s = time.perf_counter() - t0
    finally:
        mms.run = orig_run
    res.step_s = clock.durations

    for mesh, row in zip(inp.meshes, rows):
        res.check(f"finite errors {mesh.nx}", row.finite())
    for n in range(1, len(inp.meshes)):
        ok = n < len(rows) and all(
            getattr(rows[n], c) < getattr(rows[n - 1], c)
            for c in mms.ERROR_COLUMNS)
        res.check(f"errors fall at {inp.meshes[n].nx}", ok)
    res.check("orders finite", all(math.isfinite(v) for v in orders.values()))
    return res


def trace_targets():
    """(owner, attribute, span name, work) for every traced call site."""
    def apply_bytes(op, g):
        return APPLY_BYTES_PER_CELL * g.size

    return [
        (imex, "step", "imex.step", None),
        (imex, "solve", "diffusion.solve", None),
        (diffusion, "_apply_values", "diffusion.apply", apply_bytes),
        (imex.MonitorReport, "record", "imex.monitor", None),
        (imex, "grad_form_h", "field.grad_form", None),
        (imex, "inner_h", "field.inner", None),
        (mms, "project", "field.project", None),
        (cli, "write_field_snapshot", "cli.write", None),
    ]


def run_unit(inp, out_dir: Path, tracer: Tracer | None = None) -> UnitResult:
    """One unit of the workload, traced when a tracer is given."""
    if tracer is None:
        if isinstance(inp, PatternInputs):
            return run_pattern_unit(inp, out_dir)
        return run_ladder_unit(inp, inp.case)
    with tracer.installed(trace_targets()):
        if isinstance(inp, PatternInputs):
            return run_pattern_unit(inp, out_dir)
        case = replace(inp.case,
                       S_u=tracer.wrap("mms.source", inp.case.S_u),
                       S_v=tracer.wrap("mms.source", inp.case.S_v))
        return run_ladder_unit(inp, case)


def _quantile(values, q: int) -> float:
    """q-th percentile, inclusive method; nan when no step was timed."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced unit from its span summary."""
    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "work": 0})

    solve, apply_ = row("diffusion.solve"), row("diffusion.apply")
    return {
        "mms.source_s": row("mms.source")["total_s"],
        "mms.source_calls": row("mms.source")["calls"],
        "diffusion.solve_s": solve["self_s"],
        "diffusion.solve_calls": solve["calls"],
        "diffusion.apply_s": apply_["total_s"],
        "diffusion.applies": apply_["calls"],
        "diffusion.applies_per_solve":
            apply_["calls"] / solve["calls"] if solve["calls"] else 0.0,
        "diffusion.apply_bytes_computed": apply_["work"],
        "field.grad_form_s": row("field.grad_form")["total_s"],
        "field.grad_form_calls": row("field.grad_form")["calls"],
        "imex.monitor_s": row("imex.monitor")["total_s"],
        "imex.step_self_s": row("imex.step")["self_s"],
        "imex.steps": row("imex.step")["calls"],
        "field.project_s": row("field.project")["total_s"],
        "field.project_calls": row("field.project")["calls"],
        "cli.write_s": row("cli.write")["total_s"],
    }


# counts that must repeat exactly between units of the same seed
EXACT_COUNTS = ("imex.steps", "diffusion.solve_calls", "diffusion.applies",
                "mms.source_calls", "field.project_calls", "cli.bytes_written")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, repeat units for about `seconds`, return the run's figures."""
    setup_tracer = Tracer()
    if trace:
        with setup_tracer.installed([(gmesh, "build_mesh", "mesh.build",
                                      None)]):
            inp = setup(name, seed)
    else:
        inp = setup(name, seed)
    out_dir = OUT_DIR / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    plain, traced = [], []  # UnitResult; (UnitResult, Tracer, rusage delta)
    start = time.perf_counter()
    try:
        while True:
            if trace and len(traced) < len(plain):
                tracer = Tracer()
                before = resource.getrusage(resource.RUSAGE_SELF)
                res = run_unit(inp, out_dir, tracer)
                after = resource.getrusage(resource.RUSAGE_SELF)
                traced.append((res, tracer, {
                    "process.sys_s": after.ru_stime - before.ru_stime,
                    "process.minor_faults": after.ru_minflt - before.ru_minflt,
                }))
            else:
                plain.append(run_unit(inp, out_dir))
            units = plain + [r for r, _, _ in traced]
            enough = len(plain) >= 2 and (not trace or len(traced) >= 2)
            typical = statistics.median(u.wall_s for u in units)
            if enough and time.perf_counter() - start + typical > seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    out = {"attempted": attempted, "failed": failed,
           "problems": sorted(set(problems)),
           "info": {"numpy": np.__version__, "units": len(units),
                    "finest_cells": _finest_cells(inp),
                    "array_bytes": 8 * _finest_cells(inp),
                    "timed_steps": sum(len(u.step_s) for u in plain)}}
    if not trace:
        steps_ms = [1e3 * s for u in plain for s in u.step_s]
        out["metrics"] = {
            "wall_s": statistics.median(u.wall_s for u in plain),
            "cell_steps_per_s": statistics.median(
                u.cell_steps / u.wall_s for u in plain),
            "step_ms_p50": _quantile(steps_ms, 50),
            "step_ms_p90": _quantile(steps_ms, 90),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return out

    per_unit = []
    for res, tracer, process in traced:
        m = layer_metrics(summarize(tracer.spans))
        m["cli.bytes_written"] = res.bytes_written
        m.update(process)
        per_unit.append(m)
    counts = [{k: m[k] for k in EXACT_COUNTS} for m in per_unit]
    out["attempted"] += 1
    if any(c != counts[0] for c in counts):
        out["failed"] += 1
        out["problems"].append(f"counts differ between repeats: {counts}")
    # times and faults vary between repeats and are reported as medians
    metrics = dict(per_unit[0])
    for k in metrics:
        if k.endswith(("_s", "_faults")):
            metrics[k] = statistics.median(m[k] for m in per_unit)
    metrics["mesh.build_s"] = summarize(setup_tracer.spans)["mesh.build"][
        "total_s"]
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r, _, _ in traced)
        / statistics.median(u.wall_s for u in plain) - 1.0)
    out["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    traced[0][1].write(OUT_DIR / f"spans-{name}-seed{seed}.json")
    return out


def _finest_cells(inp) -> int:
    return inp.mesh.n_cells if isinstance(inp, PatternInputs) \
        else inp.meshes[-1].n_cells


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}))
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
