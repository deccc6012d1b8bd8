#!/usr/bin/env python3
"""gsfv benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload pattern128 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the one holding src/gsfv). Every
process this starts is a fresh interpreter with BLAS pinned to one thread:

* one worker process (worker.py) that repeats the workload's unit of work
  for about --seconds and checks every output;
* SETUP_SAMPLES processes, half before the worker and half after it, that
  only set the workload up (import gsfv, meshes, initial data, case) and
  report when they were ready; setup_s is the median time from spawn to
  ready.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer ones. The line before it records the run environment. See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "gsfv"
WORKER = HERE / "worker.py"
WORKLOADS = ("front_ladder", "pattern128", "pattern512")
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 170.0
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
UNITS = {"wall_s": "s", "setup_s": "s", "cell_steps_per_s": "1/s",
         "step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MiB",
         "diffusion.applies_per_solve": "applies/solve",
         "diffusion.apply_bytes_computed": "B", "cli.bytes_written": "B",
         "trace.overhead_frac": "ratio", "process.minor_faults": "count"}


class ChildFailed(RuntimeError):
    """A benchmark child process exited abnormally."""


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _child(args: list, deadline: float) -> tuple[dict, float]:
    """Run worker.py with args; return its last JSON line and spawn time."""
    env = dict(os.environ, **ONE_THREAD)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {' '.join(args)} exited "
                          f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="ascii").strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    """HEAD of a .git directory at the root, read without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        ref = head[5:]
        return _read(ROOT / ".git" / ref) or next(
            (line.split()[0] for line in
             (_read(ROOT / ".git" / "packed-refs") or "").splitlines()
             if line.endswith(" " + ref)), None)
    return head


def _source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_bytes(level: int) -> int | None:
    """Size of the unified cache at level, from sysfs (read-only)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "level") == str(level) \
                and _read(index / "type") in ("Unified", "Data"):
            text = _read(index / "size") or ""
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
            digits = text.rstrip("KM")
            return int(digits) * scale if digits.isdigit() else None
    return None


def environment(worker_info: dict) -> dict:
    l2 = _cache_bytes(2)
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_sha(),
        "python": platform.python_version(),
        "numpy": worker_info["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": ONE_THREAD,
        "l2_bytes": l2,
        "l3_bytes": _cache_bytes(3),
        "finest_cells": worker_info["finest_cells"],
        "array_bytes": worker_info["array_bytes"],
        "array_bytes_over_l2": worker_info["array_bytes"] / l2 if l2 else None,
        "units": worker_info["units"],
        "timed_steps": worker_info["timed_steps"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no gsfv sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            ready, spawned = _child([*common, "--setup-only"], deadline)
            setups.append(ready["ready"] - spawned)

    try:
        # the machine's speed drifts over tens of seconds: sample set-up on
        # both sides of the worker rather than in one burst
        sample_setup(SETUP_SAMPLES // 2)
        out, _ = _child([*common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    for problem in out["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"env": environment(out["info"])}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
