"""Tests of the benchmark itself, on meshes small enough to run in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

SMALL_PATTERN = worker.Pattern(16, 6)
SMALL_LADDER = worker.Ladder((16, 32), 1.0 / 16.0, 2)


def test_clean_pattern_unit_passes_every_check(tmp_path):
    inp = worker.setup("pattern128", 3, SMALL_PATTERN)
    res = worker.run_unit(inp, tmp_path)
    assert res.failed == 0, res.problems
    assert res.attempted == SMALL_PATTERN.steps + 6
    assert len(res.step_s) == SMALL_PATTERN.steps
    assert res.bytes_written > 0


def test_clean_ladder_unit_passes_every_check(tmp_path):
    inp = worker.setup("front_ladder", 3, SMALL_LADDER)
    res = worker.run_unit(inp, tmp_path)
    assert res.failed == 0, res.problems
    # dt = h^2: T / h^2 steps per rung
    assert res.attempted - 4 == sum(round(SMALL_LADDER.T * n * n)
                                    for n in SMALL_LADDER.sizes)
    assert len(res.step_s) == round(SMALL_LADDER.T * 32 * 32)


def test_non_finite_initial_cell_is_counted_not_raised(tmp_path):
    inp = worker.setup("pattern128", 3, SMALL_PATTERN)
    inp.state.u.values[7] = math.nan
    res = worker.run_unit(inp, tmp_path)
    assert res.failed > 0
    assert res.failed / res.attempted > 0.0
    assert any(p.startswith("step failed") for p in res.problems)
    assert "check failed: finite" in res.problems


def test_traced_counts_repeat_and_tracer_restores(tmp_path):
    orig_step, orig_record = worker.imex.step, worker.imex.MonitorReport.record
    counts = []
    for _ in range(2):
        for name, spec in (("pattern128", SMALL_PATTERN),
                           ("front_ladder", SMALL_LADDER)):
            tracer = Tracer()
            res = worker.run_unit(worker.setup(name, 5, spec), tmp_path,
                                  tracer)
            m = worker.layer_metrics(summarize(tracer.spans))
            counts.append((m["imex.steps"], m["diffusion.solve_calls"],
                           m["diffusion.applies"], m["mms.source_calls"],
                           m["field.project_calls"], res.bytes_written))
    assert counts[:2] == counts[2:]
    pattern, ladder = counts[0], counts[1]
    assert pattern[0] == SMALL_PATTERN.steps and pattern[1] == 2 * pattern[0]
    assert ladder[3] == 2 * ladder[0]  # S_u and S_v once per step
    assert worker.imex.step is orig_step
    assert worker.imex.MonitorReport.record is orig_record


def test_self_time_subtracts_direct_children():
    spans = [["outer", 0.0, 10.0, -1, 0],
             ["inner", 1.0, 4.0, 0, 5],
             ["leaf", 2.0, 3.0, 1, 0],
             ["inner", 5.0, 6.0, 0, 5]]
    s = summarize(spans)
    assert s["outer"]["self_s"] == pytest.approx(6.0)
    assert s["inner"]["self_s"] == pytest.approx(3.0)
    assert s["inner"]["calls"] == 2 and s["inner"]["work"] == 10
    assert s["leaf"]["total_s"] == pytest.approx(1.0)


def test_tracer_nests_real_calls():
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert np.all([s[2] >= s[1] for s in tracer.spans])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*bench["command"], "--workload", bench["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
