"""Command-line front end and file output.

Study tables go to CSV with the header
h,dt,err_Linf_L2_u,err_Linf_L2_v,err_Linf_Linf_u,err_Linf_Linf_v,runtime_s
(interface tables prepend an eps column) and a final
``order,<slope per error column>`` row. Field snapshots are written both as
16-bit binary PGM images and as raw CSV value grids. Every run writes a
manifest.json echoing the configuration, monitor summary and status.

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
from .imex import (BOUND_TOLERANCE, GrayScottParams, MonitorReport,
                   NonFiniteState)
from .mesh import build_mesh
from .mms import (ErrorTable, _check_convergence, _check_interface,
                  _check_stability, residual_check, tanh_case, trig_case,
                  ERROR_COLUMNS)
from .patterns import DEFAULT_D_U, _check_pattern, preset, preset_names

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


def _monitor_summary(report: MonitorReport) -> dict:
    summary = asdict(report)
    dissipation = summary.pop("dissipation")
    summary["dissipation_total"] = dissipation[-1] if dissipation else 0.0
    return summary


def _write_manifest(out: str, command: str, config: dict,
                    monitors: dict | None, outputs: list, **status) -> None:
    """Write out/manifest.json: configuration echo, timestamp, monitor
    summary, output list and the status entries given."""
    path = os.path.join(out, MANIFEST_NAME)
    manifest = {"command": command, "version": __version__,
                "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                             time.gmtime()),
                "config": config, "monitors": monitors, "outputs": outputs,
                **status}
    try:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def _ensure_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot create {path}: {e}") from e


def _config_options(path: str, parser: argparse.ArgumentParser) -> list:
    """A --config file's JSON object as options of the (sub)command parser.

    A key becomes its long option ("t_end" -> --t-end), read as argparse
    reads it, abbreviations included; a key that names no option of parser,
    or is read as --help, is a ValueError naming the file. true is the bare
    flag, false and null leave the option at its default, a list is joined
    with commas and any other value is given as --key=value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise IoFailure(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    known = parser._option_string_actions
    options = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        read_as = [o for o in known if o == flag] \
            or [o for o in known if o.startswith(flag)]
        if not read_as:
            raise ValueError(f"config {path}: key {key!r} names no option "
                             f"of {parser.prog} ({flag})")
        if len(read_as) > 1:
            raise ValueError(f"config {path}: key {key!r} abbreviates "
                             f"several options: {', '.join(read_as)}")
        if known[read_as[0]].dest == "help":
            raise ValueError(f"config {path}: key {key!r} is read as --help, "
                             f"which runs nothing")
        if value is True:
            options.append(flag)
        elif value is not False and value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            options.append(f"{flag}={value}")  # "-inf" is read as a value
    return options


def _parse(parser: argparse.ArgumentParser, argv: list):
    """Parse argv; a --config file's options go in right after the
    (sub)command names, so that the user's own options win over them and
    both pass the same types and choices."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    depth = 2 if args.command == "mms" else 1
    return parser.parse_args(argv[:depth]
                             + _config_options(args.config, args.parser)
                             + argv[depth:])


def _list_of(kind):
    """argparse type: comma-separated values of kind, empty items dropped."""
    def parse(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    parse.__name__ = f"comma-separated {kind.__name__}"  # for its errors
    return parse


def _t_end(args) -> float:
    """The --t-end option, checked finite before any output is made."""
    if not math.isfinite(args.t_end):
        raise ValueError(f"need a finite --t-end, got {args.t_end}")
    return args.t_end


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


def _diffusivities(args) -> tuple[float, float]:
    """d_u and d_v; d_v defaults to d_u / 2."""
    return args.d_u, (args.d_u / 2.0 if args.d_v is None else args.d_v)


def _params_from(args) -> GrayScottParams:
    return GrayScottParams(*_diffusivities(args), args.F, args.k)


def _case_from(args, params: GrayScottParams):
    if args.case == "trig":
        return trig_case(args.a, params)
    return tanh_case(args.eps, params, variant=args.variant)


def _cmd_simulate(args) -> int:
    if args.preset is None:
        raise ValueError("simulate needs --preset")
    pat = preset(args.preset)
    t_end = _t_end(args)
    d_u, d_v = _diffusivities(args)
    out = args.out
    if out is None:
        raise ValueError("simulate needs --out")
    mesh = build_mesh(args.nx, args.nx)
    run = _check_pattern(pat, mesh, args.dt, d_u, d_v, t_end, args.snapshots)
    _ensure_out_dir(out)
    outputs, times, finite = [], [], []
    config_echo = {"preset": pat.name, "F": pat.F, "k": pat.k,
                   "nx": args.nx, "h": mesh.h, "dt": args.dt,
                   "t_end": t_end, "d_u": d_u, "d_v": d_v,
                   "with_v": args.with_v, "snapshot_times": times,
                   "solver": _solver_paths(mesh, args.dt, d_u, d_v),
                   "bound_tolerance": BOUND_TOLERANCE}

    def take(state) -> None:
        """Write one snapshot as the run reaches it; none is held."""
        times.append(state.t)
        finite.append(state.u.is_finite() and state.v.is_finite())
        fields = [("u", state.u)] + ([("v", state.v)] if args.with_v else [])
        for label, fld in fields:
            for fmt in ("pgm", "csv"):
                name = f"{label}_t{_fmt_t(state.t)}.{fmt}"
                write_field_snapshot(fld, os.path.join(out, name), fmt)
                outputs.append(name)

    try:
        report = run(take)
    except NonFiniteState as e:  # the manifest lists what was written
        _write_manifest(out, "simulate", config_echo, None, outputs,
                        status="non-finite", failure={
                            "step": e.step, "t": e.t, "species": e.species})
        raise
    _write_manifest(out, "simulate", config_echo, _monitor_summary(report),
                    outputs, status="ok" if all(finite) else "non-finite")
    if report.bound_violations:
        print(f"warning: {report.bound_violations} monitored states "
              f"outside bounds (see {MANIFEST_NAME})", file=sys.stderr)
    if not all(finite):
        print("error: non-finite field values", file=sys.stderr)
        return 2
    print(f"wrote {len(outputs)} snapshot files + {MANIFEST_NAME} to {out}")
    return 0


def _read_convergence(args, params: GrayScottParams, T: float):
    case = _case_from(args, params)
    run = _check_convergence(case, params, args.sizes, T, args.sample_times)
    fname = f"convergence_{case.label.split('_')[0]}.csv"
    return run, fname, {"case": case.label, "sizes": args.sizes}


def _read_stability(args, params: GrayScottParams, T: float):
    case = _case_from(args, params)
    mesh = build_mesh(args.nx, args.nx)  # raises InvalidSize for nx < 2
    run = _check_stability(case, params, args.multipliers, mesh, T,
                           args.sample_times)
    fname = f"stability_{case.label.split('_')[0]}.csv"
    echo = {"case": case.label, "nx": args.nx, "multipliers": args.multipliers}
    return run, fname, echo


def _read_interface(args, params: GrayScottParams, T: float):
    mesh = build_mesh(args.nx, args.nx)  # raises InvalidSize for nx < 2
    run = _check_interface(params, args.eps_list, mesh, args.dt, T,
                           args.sample_times, args.variant)
    echo = {"eps_list": args.eps_list, "nx": args.nx, "dt": args.dt}
    return run, "interface_tanh.csv", echo


@dataclass(frozen=True)
class _Study:
    """One ``mms`` study subcommand.

    read(args, params, T) validates every argument and returns (run, CSV
    file name, config echo); run() -> ErrorTable.
    """

    help: str
    with_case: bool
    options: tuple  # (flag, argparse keywords) beyond the shared options
    read: object


_STUDIES = {
    "convergence": _Study(
        "dt = h^2 refinement sweep", True,
        (("--sizes", {"type": _list_of(int), "default": "16,32,64,128",
                      "help": "comma-separated mesh sizes"}),),
        _read_convergence),
    "stability": _Study(
        "dt = k*h sweep on fixed mesh", True,
        (("--nx", {"type": int, "default": 128}),
         ("--multipliers", {"type": _list_of(float),
                            "default": "1,2,4,16,32,64",
                            "help": "comma-separated k values"})),
        _read_stability),
    "interface": _Study(
        "front-width sensitivity sweep", False,
        (("--variant", {"choices": ("centered", "halfwave"),
                        "default": "centered"}),
         ("--eps-list", {"dest": "eps_list", "type": _list_of(float),
                         "default": "0.2,0.1,0.05,0.025",
                         "help": "comma-separated widths, descending"}),
         ("--nx", {"type": int, "default": 128}),
         ("--dt", {"type": float, "default": 1.0 / 256.0})),
        _read_interface),
}


def _cmd_mms_study(args) -> int:
    """Shared scaffold: options, checks, out dir, run, CSV, manifest, exit
    code. Every usage error is raised before the out dir is made; a table
    with a non-finite row is written too, then exits 2."""
    name = args.mms_command
    params = _params_from(args)
    T = _t_end(args)
    run, fname, echo = _STUDIES[name].read(args, params, T)
    if args.out is None:
        raise ValueError(f"mms {name} needs --out")
    _ensure_out_dir(args.out)
    table = run()
    path = os.path.join(args.out, fname)
    write_error_table(table, path)
    ok = all(r.finite() for r in table.rows)
    failures = [{"h": r.h, "dt": r.dt, "eps": r.eps, "step": e.step,
                 "t": e.t, "species": e.species} for r, e in table.failures]
    _write_manifest(args.out, f"mms {name}",
                    {**echo, "T": T, "params": asdict(params), **table.meta},
                    None, [fname], status="ok" if ok else "non-finite",
                    **({} if ok else {"failures": failures}))
    for c in ERROR_COLUMNS:
        print(f"{c}: order {table.orders[c]:.4f}")
    print(f"wrote {path}")
    if ok:
        return 0
    stop = "non-finite errors in table"
    if failures:  # name the first stop and its run
        row, err = table.failures[0]
        eps = "" if row.eps is None else f", eps={row.eps!r}"
        stop = f"{err} (run h={row.h!r}, dt={row.dt!r}{eps})"
    print(f"error: {stop}", file=sys.stderr)
    return 2


def _cmd_mms_residual(args) -> int:
    params = _params_from(args)
    case = _case_from(args, params)
    sizes = args.sizes
    if not sizes or sizes != sorted(set(sizes)):
        raise ValueError(f"need one or more ascending --sizes, got {sizes}")
    defects = []
    for nx in sizes:
        mesh = build_mesh(nx, nx)
        du, dv = residual_check(case, args.t, mesh, mesh.h ** 2)
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
    config_help = "JSON object of options, read before the command line's"

    sim = sub.add_parser("simulate", help="run a pattern preset")
    sim.add_argument("--preset", choices=preset_names())
    sim.add_argument("--nx", type=int, default=128)
    sim.add_argument("--dt", type=float, default=1.0)
    sim.add_argument("--t-end", dest="t_end", type=float, default=2000.0)
    sim.add_argument("--d-u", dest="d_u", type=float, default=DEFAULT_D_U)
    sim.add_argument("--d-v", dest="d_v", type=float)
    sim.add_argument("--snapshots", type=_list_of(float),
                     help="comma-separated times")
    sim.add_argument("--with-v", dest="with_v", action="store_true",
                     help="also write v snapshots")
    sim.add_argument("--out")
    sim.add_argument("--config", help=config_help)
    sim.set_defaults(func=_cmd_simulate, parser=sim)

    mms = sub.add_parser("mms", help="manufactured-solution studies")
    msub = mms.add_subparsers(dest="mms_command")

    def common(p, with_case=True):
        if with_case:
            p.add_argument("--case", choices=("trig", "tanh"), default="trig")
            p.add_argument("--a", type=float, default=0.5,
                           help="trig amplitude")
            p.add_argument("--eps", type=float, default=0.1,
                           help="tanh front width")
            p.add_argument("--variant", choices=("centered", "halfwave"),
                           default="centered")
        p.add_argument("--F", type=float, default=0.037)
        p.add_argument("--k", type=float, default=0.060)
        p.add_argument("--d-u", dest="d_u", type=float, default=DEFAULT_D_U)
        p.add_argument("--d-v", dest="d_v", type=float)
        p.add_argument("--config", help=config_help)

    for name, study in _STUDIES.items():
        p = msub.add_parser(name, help=study.help)
        common(p, with_case=study.with_case)
        for flag, kwargs in study.options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
        p.add_argument("--sample-times", dest="sample_times",
                       type=_list_of(float),
                       help="comma-separated error sample times")
        p.add_argument("--out")
        p.set_defaults(func=_cmd_mms_study, parser=p)

    resid = msub.add_parser("residual", help="source-term defect oracle")
    common(resid)
    resid.add_argument("--t", type=float, default=0.3)
    resid.add_argument("--sizes", type=_list_of(int), default="32,64",
                       help="comma-separated mesh sizes")
    resid.set_defaults(func=_cmd_mms_residual, parser=resid)

    pre = sub.add_parser("presets", help="list pattern presets")
    pre.set_defaults(func=_cmd_presets)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        if not hasattr(args, "func"):
            parser.print_help()
            return 1
        # a run's overflow is reported on its one error: line, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SystemExit as e:  # from argparse: 0 after --help, else misuse
        return 0 if e.code == 0 else 1
    except NoConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IoFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # every usage error the checks raise
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
