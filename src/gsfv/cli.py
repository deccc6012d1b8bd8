"""Command-line front end and file output.

Study tables go to CSV with the header
h,dt,err_Linf_L2_u,err_Linf_L2_v,err_Linf_Linf_u,err_Linf_Linf_v,runtime_s
(interface tables prepend an eps column) and a final
``order,<slope per error column>`` row. Field snapshots are written both as
16-bit binary PGM images and as raw CSV value grids. Every run writes a
manifest.json echoing the configuration and monitor summary.

Exit codes: 0 success, 1 usage error, 2 numerical failure (non-finite
values), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .diffusion import ImplicitDiffusionOperator, NoConvergence, solve_path
from .field import CellField
from .imex import BOUND_TOLERANCE, GrayScottParams, MonitorReport
from .mesh import InvalidSize, build_mesh
from .mms import (DomainError, ErrorTable, SampleTimeUnreachable,
                  UnresolvableInterface, _check_convergence,
                  _check_interface, _check_stability, residual_check,
                  tanh_case, trig_case, ERROR_COLUMNS)
from .patterns import UnknownPreset, _check_pattern, preset, preset_names

CSV_HEADER = ("h,dt,err_Linf_L2_u,err_Linf_L2_v,"
              "err_Linf_Linf_u,err_Linf_Linf_v,runtime_s")
MANIFEST_NAME = "manifest.json"


class IoFailure(OSError):
    """Snapshot, table, or manifest could not be written or read."""


def write_field_snapshot(field: CellField, path: str,
                         fmt: str = "pgm") -> None:
    """Write a field as a 16-bit binary PGM image or a CSV value grid.

    PGM: values are clipped to [0, 1] and scaled to 0..65535, rows written
    top-to-bottom (largest y first); a header comment carries the manifest
    reference. CSV: one row per mesh row in cell order (smallest y first),
    full double precision via repr, formatted a row at a time, no comment
    rows.
    """
    m = field.mesh
    grid = field.values.reshape(m.ny, m.nx)
    try:
        if fmt == "pgm":
            scaled = np.clip(grid, 0.0, 1.0)
            # round half up so 0.5 maps to 32768, not banker's 32767/32768 mix
            pix = np.floor(scaled * 65535.0 + 0.5).astype(">u2")
            header = f"P5\n# manifest: {MANIFEST_NAME}\n" \
                     f"{m.nx} {m.ny}\n65535\n"
            with open(path, "wb") as fh:
                fh.write(header.encode("ascii"))
                fh.write(np.flipud(pix).tobytes())
        elif fmt == "csv":
            with open(path, "w", encoding="ascii") as fh:
                for row in grid:
                    fh.write(",".join(map(repr, row.tolist())))
                    fh.write("\n")
        else:
            raise ValueError(f"unknown snapshot format {fmt!r}")
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def read_field_csv(path: str) -> np.ndarray:
    """Read a CSV value grid back as a (ny, nx) array, bit-exact.

    Parsed straight into float64 by numpy. An empty file, a ragged row or
    a token that is not a number raises ValueError naming the path.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not as loadtxt's warning
            warnings.simplefilter("ignore", UserWarning)
            grid = np.loadtxt(path, delimiter=",", dtype=np.float64,
                              ndmin=2, comments=None, encoding="ascii")
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    if grid.size == 0:
        raise ValueError(f"{path}: no values")
    return grid


def write_error_table(table: ErrorTable, path: str) -> None:
    """Write study rows as CSV with the pinned header and final order row.

    Interface tables (rows carrying eps) prepend an eps column to the
    header and data rows; the order row always has the four error-column
    slopes after the literal ``order``.
    """
    with_eps = any(r.eps is not None for r in table.rows)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(("eps," if with_eps else "") + CSV_HEADER + "\n")
            for r in table.rows:
                cells = [] if not with_eps else [repr(float(r.eps))]
                cells += [repr(float(r.h)), repr(float(r.dt))]
                cells += [repr(float(getattr(r, c))) for c in ERROR_COLUMNS]
                cells.append(f"{r.runtime_s:.6f}")
                fh.write(",".join(cells) + "\n")
            slopes = ",".join(f"{table.orders[c]:.6f}" for c in ERROR_COLUMNS)
            fh.write(f"order,{slopes}\n")
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


@dataclass
class RunManifest:
    """Configuration echo, timestamps, monitor summary, output list."""

    command: str
    version: str
    created_utc: str
    config: dict
    monitors: dict | None
    outputs: list

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, MANIFEST_NAME)
        try:
            with open(path, "w", encoding="ascii") as fh:
                json.dump(asdict(self), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            raise IoFailure(f"cannot write {path}: {e}") from e
        return path


def _monitor_summary(report: MonitorReport) -> dict:
    return {
        "steps": report.steps,
        "shortened_final_step": report.shortened_final_step,
        "min_u": report.min_u, "max_u": report.max_u,
        "min_v": report.min_v, "max_v": report.max_v,
        "bound_violations": report.bound_violations,
        "energy_max": report.energy_max,
        "dissipation_total": report.dissipation[-1]
        if report.dissipation else 0.0,
    }


def _manifest(command: str, config: dict, monitors: dict | None,
              outputs: list) -> RunManifest:
    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return RunManifest(command, __version__, created, config, monitors,
                       list(outputs))


def _ensure_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot create {path}: {e}") from e


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise IoFailure(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


def _opt(args, cfg: dict, key: str, default):
    """Resolve one option: explicit flag > config file > default."""
    v = getattr(args, key, None)
    if v is not None:
        return v
    if key in cfg:
        return cfg[key]
    return default


def _numbers(text, kind=float) -> list:
    if isinstance(text, (list, tuple)):
        return [kind(x) for x in text]
    return [kind(tok) for tok in str(text).split(",") if tok.strip()]


def _sample_times(args, cfg: dict):
    """None means "let the study pick its T-dependent default"."""
    raw = _opt(args, cfg, "sample_times", None)
    return None if raw is None else _numbers(raw)


def _t_end(args, cfg: dict, default: float) -> float:
    """The --t-end option, checked finite before any output is made."""
    t_end = float(_opt(args, cfg, "t_end", default))
    if not math.isfinite(t_end):
        raise ValueError(f"need a finite --t-end, got {t_end}")
    return t_end


def _solver_paths(mesh, dt: float, d_u: float, d_v: float):
    """The path solve() takes per species ("series", "dct" or "fft"): one
    name when both species take the same one, else the two keyed by
    species."""
    paths = {species: solve_path(ImplicitDiffusionOperator(mesh, d, dt))
             for species, d in (("u", d_u), ("v", d_v))}
    return paths["u"] if paths["u"] == paths["v"] else paths


def _fmt_t(t: float) -> str:
    """t for a snapshot file name: %g unless that loses digits, else repr,
    so two snapshot times never share a name."""
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


def _diffusivities(args, cfg: dict) -> tuple[float, float]:
    """d_u and d_v; d_v defaults to d_u / 2."""
    d_u = float(_opt(args, cfg, "d_u", 1.6e-5))
    d_v_opt = _opt(args, cfg, "d_v", None)
    d_v = float(d_v_opt) if d_v_opt is not None else d_u / 2.0
    return d_u, d_v


def _params_from(args, cfg: dict) -> GrayScottParams:
    d_u, d_v = _diffusivities(args, cfg)
    F = float(_opt(args, cfg, "F", 0.037))
    k = float(_opt(args, cfg, "k", 0.060))
    return GrayScottParams(d_u, d_v, F, k)


def _case_from(args, cfg: dict, params: GrayScottParams):
    name = _opt(args, cfg, "case", "trig")
    if name == "trig":
        return trig_case(float(_opt(args, cfg, "a", 0.5)), params)
    if name == "tanh":
        return tanh_case(float(_opt(args, cfg, "eps", 0.1)), params,
                         variant=_opt(args, cfg, "variant", "centered"))
    raise ValueError(f"unknown case {name!r}; have trig, tanh")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    name = _opt(args, cfg, "preset", None)
    if name is None:
        raise ValueError("simulate needs --preset")
    pat = preset(name)
    nx = int(_opt(args, cfg, "nx", 128))
    dt = float(_opt(args, cfg, "dt", 1.0))
    t_end = _t_end(args, cfg, 2000.0)
    d_u, d_v = _diffusivities(args, cfg)
    snap_opt = _opt(args, cfg, "snapshots", None)
    snap_times = _numbers(snap_opt) if snap_opt is not None else None
    with_v = bool(args.with_v or cfg.get("with_v", False))
    out = _opt(args, cfg, "out", None)
    if out is None:
        raise ValueError("simulate needs --out")
    mesh = build_mesh(nx, nx)
    run = _check_pattern(pat, mesh, dt, d_u, d_v, t_end, snap_times)
    _ensure_out_dir(out)
    snaps, report = run()

    outputs = []
    for snap in snaps:
        fields = [("u", snap.u)] + ([("v", snap.v)] if with_v else [])
        for label, fld in fields:
            base = f"{label}_t{_fmt_t(snap.t)}"
            write_field_snapshot(fld, os.path.join(out, base + ".pgm"), "pgm")
            write_field_snapshot(fld, os.path.join(out, base + ".csv"), "csv")
            outputs += [base + ".pgm", base + ".csv"]

    config_echo = {"preset": pat.name, "F": pat.F, "k": pat.k, "nx": nx,
                   "h": mesh.h, "dt": dt, "t_end": t_end, "d_u": d_u,
                   "d_v": d_v, "with_v": with_v,
                   "snapshot_times": [s.t for s in snaps],
                   "solver": _solver_paths(mesh, dt, d_u, d_v),
                   "bound_tolerance": BOUND_TOLERANCE}
    man = _manifest("simulate", config_echo, _monitor_summary(report),
                    outputs)
    man.write(out)
    if report.bound_violations:
        print(f"warning: {report.bound_violations} monitored states "
              f"outside bounds (see {MANIFEST_NAME})", file=sys.stderr)
    if not all(s.u.is_finite() and s.v.is_finite() for s in snaps):
        print("error: non-finite field values", file=sys.stderr)
        return 2
    print(f"wrote {len(outputs)} snapshot files + {MANIFEST_NAME} to {out}")
    return 0


def _table_exit(table: ErrorTable, path: str) -> int:
    bad = not all(r.finite() for r in table.rows)
    for c in ERROR_COLUMNS:
        print(f"{c}: order {table.orders[c]:.4f}")
    print(f"wrote {path}")
    if bad:
        print("error: non-finite errors in table", file=sys.stderr)
        return 2
    return 0


def _read_convergence(args, cfg: dict, params: GrayScottParams):
    case = _case_from(args, cfg, params)
    sizes = _numbers(_opt(args, cfg, "sizes", "16,32,64,128"), int)

    def check(T, samples):
        return _check_convergence(case, params, sizes, T, samples)

    fname = f"convergence_{case.label.split('_')[0]}.csv"
    return check, fname, {"case": case.label, "sizes": sizes}


def _read_stability(args, cfg: dict, params: GrayScottParams):
    case = _case_from(args, cfg, params)
    nx = int(_opt(args, cfg, "nx", 128))
    mesh = build_mesh(nx, nx)  # raises InvalidSize for nx < 2
    ks = _numbers(_opt(args, cfg, "multipliers", "1,2,4,16,32,64"))

    def check(T, samples):
        return _check_stability(case, params, ks, mesh, T, samples)

    fname = f"stability_{case.label.split('_')[0]}.csv"
    return check, fname, {"case": case.label, "nx": nx, "multipliers": ks}


def _read_interface(args, cfg: dict, params: GrayScottParams):
    eps_list = _numbers(_opt(args, cfg, "eps_list", "0.2,0.1,0.05,0.025"))
    nx = int(_opt(args, cfg, "nx", 128))
    mesh = build_mesh(nx, nx)  # raises InvalidSize for nx < 2
    dt = float(_opt(args, cfg, "dt", 1.0 / 256.0))
    variant = _opt(args, cfg, "variant", "centered")

    def check(T, samples):
        return _check_interface(params, eps_list, mesh, dt, T, samples,
                                variant)

    echo = {"eps_list": eps_list, "nx": nx, "dt": dt}
    return check, "interface_tanh.csv", echo


@dataclass(frozen=True)
class _Study:
    """One ``mms`` study subcommand.

    read(args, cfg, params) resolves the study's own options and returns
    (check(T, sample_times), CSV file name, config echo); check validates
    every argument and returns the study's run, () -> ErrorTable.
    """

    help: str
    with_case: bool
    options: tuple  # (flag, argparse keywords) beyond the shared options
    read: object


_STUDIES = {
    "convergence": _Study(
        "dt = h^2 refinement sweep", True,
        (("--sizes", {"help": "comma-separated mesh sizes"}),),
        _read_convergence),
    "stability": _Study(
        "dt = k*h sweep on fixed mesh", True,
        (("--nx", {"type": int}),
         ("--multipliers", {"help": "comma-separated k values"})),
        _read_stability),
    "interface": _Study(
        "front-width sensitivity sweep", False,
        (("--variant", {"choices": ("centered", "halfwave")}),
         ("--eps-list", {"dest": "eps_list",
                         "help": "comma-separated widths, descending"}),
         ("--nx", {"type": int}),
         ("--dt", {"type": float})),
        _read_interface),
}


def _cmd_mms_study(args) -> int:
    """Shared scaffold: options, checks, out dir, run, CSV, manifest, exit
    code. Every usage error is raised before the out dir is made."""
    name = args.mms_command
    cfg = _load_config(args.config)
    params = _params_from(args, cfg)
    check, fname, echo = _STUDIES[name].read(args, cfg, params)
    T = _t_end(args, cfg, 1.0)
    out = _opt(args, cfg, "out", None)
    if out is None:
        raise ValueError(f"mms {name} needs --out")
    run = check(T, _sample_times(args, cfg))
    _ensure_out_dir(out)
    table = run()
    path = os.path.join(out, fname)
    write_error_table(table, path)
    man = _manifest(f"mms {name}",
                    {**echo, "T": T, "params": asdict(params), **table.meta},
                    None, [fname])
    man.write(out)
    return _table_exit(table, path)


def _cmd_mms_residual(args) -> int:
    cfg = _load_config(args.config)
    params = _params_from(args, cfg)
    case = _case_from(args, cfg, params)
    t = float(_opt(args, cfg, "t", 0.3))
    sizes = _numbers(_opt(args, cfg, "sizes", "32,64"), int)
    if not sizes or sizes != sorted(set(sizes)):
        raise ValueError(f"need one or more ascending --sizes, got {sizes}")
    defects = []
    for nx in sizes:
        mesh = build_mesh(nx, nx)
        du, dv = residual_check(case, t, mesh, mesh.h ** 2)
        defects.append((nx, du, dv))
        print(f"nx={nx:4d} defect_u={du:.6e} defect_v={dv:.6e}")
    for (n0, du0, dv0), (n1, du1, dv1) in zip(defects, defects[1:]):
        print(f"decay ratio {n0}->{n1}: "
              f"u x{du0 / du1:.2f}, v x{dv0 / dv1:.2f}")
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        p = preset(name)
        print(f"{p.name}: F={p.F}, k={p.k}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsfv",
        description="Finite-volume Gray-Scott simulator and verification "
                    "harness")
    sub = ap.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run a pattern preset")
    sim.add_argument("--preset", choices=preset_names())
    sim.add_argument("--nx", type=int)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-end", dest="t_end", type=float)
    sim.add_argument("--d-u", dest="d_u", type=float)
    sim.add_argument("--d-v", dest="d_v", type=float)
    sim.add_argument("--snapshots", help="comma-separated times")
    sim.add_argument("--with-v", dest="with_v", action="store_true",
                     help="also write v snapshots")
    sim.add_argument("--out")
    sim.add_argument("--config", help="JSON file with option defaults")
    sim.set_defaults(func=_cmd_simulate)

    mms = sub.add_parser("mms", help="manufactured-solution studies")
    msub = mms.add_subparsers(dest="mms_command")

    def common(p, with_case=True):
        if with_case:
            p.add_argument("--case", choices=("trig", "tanh"))
            p.add_argument("--a", type=float, help="trig amplitude")
            p.add_argument("--eps", type=float, help="tanh front width")
            p.add_argument("--variant", choices=("centered", "halfwave"))
        p.add_argument("--F", type=float)
        p.add_argument("--k", type=float)
        p.add_argument("--d-u", dest="d_u", type=float)
        p.add_argument("--d-v", dest="d_v", type=float)
        p.add_argument("--config", help="JSON file with option defaults")

    for name, study in _STUDIES.items():
        p = msub.add_parser(name, help=study.help)
        common(p, with_case=study.with_case)
        for flag, kwargs in study.options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--sample-times", dest="sample_times",
                       help="comma-separated error sample times")
        p.add_argument("--out")
        p.set_defaults(func=_cmd_mms_study)

    resid = msub.add_parser("residual", help="source-term defect oracle")
    common(resid)
    resid.add_argument("--t", type=float)
    resid.add_argument("--sizes", help="comma-separated mesh sizes")
    resid.set_defaults(func=_cmd_mms_residual)

    pre = sub.add_parser("presets", help="list pattern presets")
    pre.set_defaults(func=_cmd_presets)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        return 0 if code == 0 else 1
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except NoConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IoFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (UnknownPreset, DomainError, SampleTimeUnreachable,
            UnresolvableInterface, InvalidSize, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
