import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gsfv
from gsfv.cli import (CSV_HEADER, ERROR_COLUMNS, IoFailure, _build_parser,
                      _fmt_t, main, read_field_csv, write_error_table,
                      write_field_snapshot)
from gsfv import diffusion
from gsfv.field import CellField, full, project
from gsfv.imex import RunConfig
from gsfv.mesh import UniformMesh, build_mesh
from gsfv.mms import (ErrorRow, ErrorTable, interface_study, stability_study,
                      tanh_case)
from gsfv.patterns import SNAPSHOT_TIMES, run_pattern

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"P5\n")
    # magic, comment line, dims, maxval, then raw big-endian u16 samples
    rest = data[3:]
    comment, rest = rest.split(b"\n", 1)
    assert comment.startswith(b"#")
    dims, rest = rest.split(b"\n", 1)
    maxval, raw = rest.split(b"\n", 1)
    nx, ny = map(int, dims.split())
    assert maxval == b"65535"
    pix = np.frombuffer(raw, dtype=">u2").reshape(ny, nx)
    return comment.decode(), pix


def test_pgm_constant_extremes(tmp_path):
    m = build_mesh(4, 4)
    p1 = tmp_path / "one.pgm"
    write_field_snapshot(full(m, 1.0), str(p1))
    comment, pix = read_pgm(p1)
    assert "manifest.json" in comment
    assert np.all(pix == 65535)

    p0 = tmp_path / "half.pgm"
    write_field_snapshot(full(m, 0.5), str(p0))
    _, pix = read_pgm(p0)
    assert np.all(pix == 32768)  # round half up


def test_pgm_clips_and_orients(tmp_path):
    m = build_mesh(2, 2)
    f = CellField(m, np.array([2.0, -1.0, 0.0, 1.0]))
    path = tmp_path / "f.pgm"
    write_field_snapshot(f, str(path))
    _, pix = read_pgm(path)
    # rows are written top-to-bottom: image row 0 is the mesh's top row
    assert pix[0, 0] == 0 and pix[0, 1] == 65535
    assert pix[1, 0] == 65535 and pix[1, 1] == 0


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = build_mesh(5, 3)
    vals = rng.uniform(-1, 1, 15)
    vals[[0, 6, 14]] = -0.0, 5e-324, 1e300
    f = CellField(m, vals)
    path = tmp_path / "f.csv"
    write_field_snapshot(f, str(path), fmt="csv")
    # the pinned format: repr of each double, one mesh row per line
    assert path.read_text(encoding="ascii") == "".join(
        ",".join(repr(float(x)) for x in row) + "\n"
        for row in vals.reshape(3, 5))
    back = read_field_csv(str(path))
    assert back.shape == (3, 5)
    assert np.array_equal(back.ravel(), f.values)
    assert np.array_equal(np.signbit(back.ravel()), np.signbit(f.values))


def test_csv_snapshot_memory_is_streamed(tmp_path):
    # rows are formatted and parsed one at a time: no Python float per cell
    m = build_mesh(256, 256)
    f = CellField(m, np.random.default_rng(5).uniform(0.0, 1.0, m.n_cells))
    path = str(tmp_path / "f.csv")
    tracemalloc.start()
    try:
        write_field_snapshot(f, path, fmt="csv")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_field_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.ravel(), f.values)
    assert write_peak < 0.5 * f.values.nbytes
    assert read_peak < 2.5 * f.values.nbytes


def test_read_field_csv_rejects_bad_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match=re.escape(str(empty))):
        read_field_csv(str(empty))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="at row 2") as err:
        read_field_csv(str(ragged))
    assert str(ragged) in str(err.value)
    with pytest.raises(IoFailure):
        read_field_csv(str(tmp_path / "missing.csv"))


def test_fmt_t_keeps_every_digit():
    assert _fmt_t(2000.0) == "2000"
    assert _fmt_t(1e-07) == "1e-07"
    # %g keeps 6 digits, so these two used to share the name u_t100000
    assert _fmt_t(100000.0) == "100000"
    assert _fmt_t(100000.5) == "100000.5"
    for t in SNAPSHOT_TIMES:  # every preset's names are the %g ones
        assert _fmt_t(t) == f"{t:g}"


def test_snapshot_write_failure(tmp_path):
    m = build_mesh(2, 2)
    with pytest.raises(IoFailure):
        write_field_snapshot(full(m, 1.0),
                             str(tmp_path / "no" / "such" / "dir.pgm"))


def test_error_table_format(tmp_path):
    rows = [ErrorRow(1 / 8, 1 / 64, 1e-2, 2e-2, 3e-2, 4e-2, 0.5),
            ErrorRow(1 / 16, 1 / 256, 2.5e-3, 5e-3, 7.5e-3, 1e-2, 1.5)]
    tab = ErrorTable(rows, {"err_linf_l2_u": 1.0, "err_linf_l2_v": 1.0,
                            "err_linf_linf_u": 1.0, "err_linf_linf_v": 1.0},
                     {"study": "convergence"})
    path = tmp_path / "conv.csv"
    write_error_table(tab, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert lines[-1].startswith("order,")
    assert float(lines[1].split(",")[0]) == 1 / 8
    # full precision round trip of an error entry
    assert float(lines[1].split(",")[2]) == 1e-2


def test_error_table_interface_gets_eps_column(tmp_path):
    rows = [ErrorRow(1 / 8, 1 / 64, 1e-2, 2e-2, 3e-2, 4e-2, 0.5, eps=0.2),
            ErrorRow(1 / 8, 1 / 64, 2e-2, 4e-2, 6e-2, 8e-2, 0.5, eps=0.1)]
    orders = {c: 1.0 for c in ERROR_COLUMNS}
    tab = ErrorTable(rows, orders, {"study": "interface"})
    path = tmp_path / "iface.csv"
    write_error_table(tab, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "eps," + CSV_HEADER
    assert lines[1].split(",")[0] == "0.2"


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "0.037" in out and "0.014" in out and "0.025" in out
    assert out.count("\n") == 3


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--preset", "labyrinthine", "--nx", "64",
               "--dt", "1", "--t-end", "10", "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "manifest.json" in names
    pgms = [n for n in names if n.endswith(".pgm")]
    csvs = [n for n in names if n.endswith(".csv")]
    assert len(pgms) == 1 and len(csvs) == 1  # one snapshot set at t_end
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok" and "failure" not in manifest
    assert manifest["config"]["preset"] == "labyrinthine"
    assert manifest["monitors"]["bound_violations"] == 0
    assert (manifest["config"]["bound_tolerance"]
            == RunConfig(dt=1, T=1).bound_tolerance)
    assert set(manifest["outputs"]) == set(n for n in names
                                           if n != "manifest.json")


def test_simulate_unknown_preset(tmp_path):
    rc = main(["simulate", "--preset", "stripes", "--out",
               str(tmp_path / "x")])
    assert rc == 1


def test_usage_error_exit_code():
    assert main(["simulate", "--bogus-flag"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("nx", ["0", "1"])
def test_stability_rejects_too_small_nx(tmp_path, capsys, nx):
    out = tmp_path / "stab"
    rc = main(["mms", "stability", "--nx", nx, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: need nx, ny >= 2")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--preset", "labyrinthine"], ["mms", "interface"]])
def test_too_small_nx_leaves_no_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main(command + ["--nx", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: need nx, ny >= 2")
    assert not out.exists()


def test_simulate_zero_dt_is_a_usage_error(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "gsfv", "simulate", "--preset", "labyrinthine",
         "--nx", "8", "--dt", "0", "--t-end", "2", "--out",
         str(tmp_path / "sim")],
        env=src_env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: need dt > 0")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, message", [
    (["simulate", "--preset", "labyrinthine", "--nx", "8", "--t-end", "2",
      "--d-u", "nan"], "need positive diffusivities"),
    (["mms", "stability", "--nx", "8", "--F", "nan"], "need F, k >= 0"),
    (["mms", "interface", "--nx", "32", "--eps-list", "0.2", "--dt", "nan"],
     "need dt > 0")])
def test_nan_parameter_is_a_usage_error(tmp_path, capsys, command, message):
    rc = main(command + ["--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", [
    ["simulate", "--preset", "labyrinthine", "--nx", "8"],
    ["mms", "convergence"], ["mms", "stability", "--nx", "8"],
    ["mms", "interface", "--nx", "32", "--eps-list", "0.2"]])
@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_non_finite_t_end_is_a_usage_error(tmp_path, capsys, command, t_end):
    out = tmp_path / "out"
    rc = main(command + ["--t-end", t_end, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: need a finite --t-end, got {t_end}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["mms", "convergence", "--sizes", "4,8"],
    ["mms", "convergence", "--sizes", "4,8", "--sample-times", "0"],
    ["mms", "stability", "--nx", "8"],
    ["mms", "interface", "--nx", "32", "--eps-list", "0.2"]])
@pytest.mark.parametrize("t_end", ["0", "-1"])
def test_study_rejects_terminal_time_at_or_below_zero(tmp_path, capsys,
                                                      command, t_end):
    # with --sample-times 0 the study ran and wrote a table of zero errors
    out = tmp_path / "out"
    rc = main(command + ["--t-end", t_end, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: need a terminal time T > 0, got T={float(t_end)}\n"
    assert not out.exists()


def test_stability_rejects_infinite_multiplier(tmp_path, capsys):
    rc = main(["mms", "stability", "--nx", "8", "--t-end", "0.25",
               "--multipliers", "1,inf", "--out", str(tmp_path / "stab")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: multipliers must be positive and finite")


def _numbers(*fine):
    return st.sampled_from(("0", "-1", "nan", "inf", "-inf", "1e-320")
                           + fine)


def _lists(*fine):
    # any order, so descending and repeated entries come up too, and empty
    items = st.sampled_from(("0", "-1", "nan", "inf", "1e-320") + fine)
    return st.lists(items, max_size=3).map(",".join)


# every subcommand with hostile numbers among a few small valid ones: sizes
# stay <= 8 and --t-end <= 0.5, and every positive value but the subnormal
# 1e-320 is at least 1/16, so a valid run takes few steps: a time over a
# subnormal step overflows (a usage error), a subnormal time is < 1 step
_SIZES = st.sampled_from(("0", "-1", "1", "2", "8"))
_T_END = _numbers("0.25", "0.5")
_SAMPLES = st.none() | _lists("0.125", "0.25", "0.5")
_HOSTILE = {
    "simulate": {"--preset": st.just("labyrinthine"), "--nx": _SIZES,
                 "--dt": _numbers("0.25", "1"), "--t-end": _T_END,
                 "--snapshots": st.none() | _lists("0.25", "0.5")},
    "convergence": {"--case": st.sampled_from(("trig", "tanh")),
                    "--sizes": _lists("1", "2", "4", "8"), "--t-end": _T_END,
                    "--sample-times": _SAMPLES},
    "stability": {"--nx": _SIZES, "--multipliers": _lists("1", "2"),
                  "--t-end": _T_END, "--sample-times": _SAMPLES},
    "interface": {"--nx": _SIZES, "--eps-list": _lists("0.5", "0.3"),
                  "--dt": _numbers("0.0625", "0.25"), "--t-end": _T_END,
                  "--sample-times": _SAMPLES},
    "residual": {"--case": st.sampled_from(("trig", "tanh")),
                 "--sizes": _lists("2", "4", "8"), "--t": _numbers("0.3")},
    "presets": {},
}


def _run_hostile(argv, command, config=None):
    """Run argv (plus a --config file holding config, when given) in a
    fresh directory; check that it ends cleanly and return its exit code
    and what it printed."""
    printed, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = list(argv)
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        if command not in ("residual", "presets"):
            argv += ["--out", out]
        with contextlib.redirect_stdout(printed), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2, 3), (argv, config, rc)
        assert "Traceback" not in err.getvalue()
        assert not (rc == 1 and os.path.exists(out)), (argv, config,
                                                       err.getvalue())
        if rc == 0 and command not in ("simulate", "residual", "presets"):
            # a study that succeeds has a table row besides header and order
            (table,) = [f for f in os.listdir(out) if f.endswith(".csv")]
            with open(os.path.join(out, table), encoding="ascii") as fh:
                assert len(fh.readlines()) >= 3, (argv, config)
        return rc, printed.getvalue().replace(tmp, "<tmp>")


@pytest.mark.parametrize("command", sorted(_HOSTILE))
@given(data=st.data())
def test_hostile_numbers_never_crash_or_leave_output(command, data):
    argv = [command] if command in ("simulate", "presets") \
        else ["mms", command]
    options, config = [], {}
    for flag, values in _HOSTILE[command].items():
        value = data.draw(values, label=flag)
        if value is not None:
            options.append(f"{flag}={value}")  # "-inf" is not read as a flag
            config[flag[2:].replace("-", "_")] = value
    rc, printed = _run_hostile(argv + options, command)
    if command == "residual" and rc == 0:
        # a successful defect check prints at least one defect, all finite
        assert "defect_u=" in printed
        assert not {"nan", "inf"} & set(re.findall(r"[a-z]+", printed))
    if command != "presets":
        # the same options from a --config file end the same way
        assert _run_hostile(argv, command, config) == (rc, printed), config


def test_convergence_too_small_size_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "conv"
    rc = main(["mms", "convergence", "--sizes", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: need nx, ny >= 2")
    assert not out.exists()


@pytest.mark.parametrize("extra, solver", [
    ([], "dct"),
    (["--dt", "1e-4", "--t-end", "1e-3"], "series"),
    (["--dt", "1e-4", "--t-end", "1e-3", "--d-u", "1", "--d-v", "8e-6"],
     {"u": "dct", "v": "series"}),
    (["--nx", "256"], "fft")])
def test_simulate_manifest_names_solver_path(tmp_path, extra, solver):
    # dt = 1 takes the cosine basis, by FFTs at 256^2; at dt = 1e-4 on 16^2,
    # rho = 8 dt d / h^2 is at most 3.3e-6 for the default diffusivities,
    # and 0.2 for d_u = 1
    out = tmp_path / "sim"
    rc = main(["simulate", "--preset", "labyrinthine", "--nx", "16",
               "--t-end", "2", *extra, "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["solver"] == solver


def test_python_m_gsfv_help_is_clean(src_env):
    proc = subprocess.run([sys.executable, "-m", "gsfv", "--help"],
                          env=src_env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: gsfv")


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a dir")
    rc = main(["simulate", "--preset", "labyrinthine", "--nx", "32",
               "--dt", "1", "--t-end", "2", "--out",
               str(blocker / "sub")])
    assert rc == 3


def test_mms_convergence_csv(tmp_path):
    out = tmp_path / "conv"
    rc = main(["mms", "convergence", "--case", "trig", "--sizes", "8,16",
               "--t-end", "0.5", "--out", str(out)])
    assert rc == 0
    lines = (out / "convergence_trig.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + 2 rows + order line
    assert lines[3].startswith("order,")
    slopes = [float(s) for s in lines[3].split(",")[1:]]
    assert len(slopes) == 4 and all(math.isfinite(s) for s in slopes)


def test_mms_convergence_reproducible(tmp_path):
    args = ["mms", "convergence", "--case", "trig", "--sizes", "8,16",
            "--t-end", "0.5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    def numeric_content(p):
        rows = []
        for line in (p / "convergence_trig.csv").read_text().splitlines():
            cells = line.split(",")
            if cells[0] in ("h", "order"):
                rows.append(line)
            else:
                rows.append(",".join(cells[:-1]))  # drop wall-clock column
        return rows

    assert numeric_content(out1) == numeric_content(out2)


def test_mms_interface_csv(tmp_path):
    out = tmp_path / "iface"
    rc = main(["mms", "interface", "--eps", "0.2,0.1", "--nx", "32",
               "--dt", str(1 / 64), "--t-end", "0.25",
               "--sample-times", "0.25", "--out", str(out)])
    assert rc == 0
    lines = (out / "interface_tanh.csv").read_text().strip().split("\n")
    assert lines[0].startswith("eps,")
    assert len(lines) == 4


def test_mms_residual_prints_defects(capsys):
    rc = main(["mms", "residual", "--case", "trig", "--sizes", "16,32",
               "--t", "0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "defect" in out.lower()
    assert "ratio" in out.lower()


def test_mms_stability_csv(tmp_path):
    out = tmp_path / "stab"
    rc = main(["mms", "stability", "--case", "trig", "--nx", "16",
               "--multipliers", "1,2", "--t-end", "0.5", "--out", str(out)])
    assert rc == 0
    lines = (out / "stability_trig.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok" and "failures" not in manifest


@pytest.mark.parametrize("command, table, path, abscissa", [
    (["convergence", "--sizes", "8,16,32", "--t-end", "0.25"],
     "convergence_trig.csv", "series", lambda h, dt: h * h),
    (["stability", "--nx", "16", "--multipliers", "1,2,4", "--t-end", "0.5"],
     "stability_trig.csv", "dct", lambda h, dt: dt)],
    ids=["convergence", "stability"])
def test_study_manifest_rows_and_pairwise_orders(tmp_path, command, table,
                                                 path, abscissa):
    # dt = h^2 takes the series; dt = k h at 16^2 the dense cosine path
    out = tmp_path / "out"
    assert main(["mms", *command, "--case", "trig", "--out", str(out)]) == 0
    lines = (out / table).read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    csv_rows = [[float(c) for c in line.split(",")] for line in lines[1:-1]]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == [
        {"h": r[0], "dt": r[1], "eps": None, "paths": {"u": path, "v": path}}
        for r in csv_rows]
    pairwise = manifest["pairwise_orders"]
    assert sorted(pairwise) == sorted(ERROR_COLUMNS)
    for i, col in enumerate(ERROR_COLUMNS):
        want = [math.log(r1[2 + i] / r0[2 + i])
                / math.log(abscissa(*r1[:2]) / abscissa(*r0[:2]))
                for r0, r1 in zip(csv_rows, csv_rows[1:])]
        assert pairwise[col] == pytest.approx(want, rel=1e-9), col


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx": 16, "t_end": 4.0, "dt": 1.0}))
    out = tmp_path / "run"
    rc = main(["simulate", "--preset", "labyrinthine", "--config", str(cfg),
               "--nx", "32", "--out", str(out)])  # flag beats config
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["nx"] == 32
    assert manifest["config"]["t_end"] == 4.0  # config beats default


def _simulate_with_config(tmp_path, config, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    rc = main(["simulate", "--preset", "labyrinthine", "--nx", "8",
               "--t-end", "2", *flags, "--config", str(cfg),
               "--out", str(out)])
    return rc, out


@pytest.mark.parametrize("config", [
    {"nx": 8.0}, {"nx": [1, 2]}, {"nx": True}, {"nx": {"a": 1}},
    {"dt": "fast"}, {"snapshots": "1,x"}, {"preset": "stripes"},
    {"with_v": "false"}, {"with_v": 1}, {"tend": 3}, {"eps": 0.1},
    {"help": True}, {"he": True}, {"d": 3}],
    ids=json.dumps)
def test_config_rejects_what_its_flag_would(tmp_path, capsys, config):
    # a wrong-typed value, a key that names no option of the command, a key
    # read as --help (which would print help and run nothing), or a key that
    # abbreviates several options
    rc, out = _simulate_with_config(tmp_path, config)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    (key,) = config
    assert "--" + key.replace("_", "-") in err.splitlines()[-1]  # named
    if key in ("tend", "eps", "help", "he", "d"):  # so is its file
        assert err.startswith(
            f"error: config {tmp_path / 'cfg.json'}: key {key!r} ")
    if key == "d":  # one line, naming every option it could be
        assert err.endswith(": --dt, --d-u, --d-v\n")
        assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("with_v, written", [(True, True), (False, False)])
def test_config_with_v(tmp_path, with_v, written):
    rc, out = _simulate_with_config(tmp_path, {"with_v": with_v})
    assert rc == 0
    assert (out / "v_t2.csv").exists() == written
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["with_v"] is written


def test_config_null_keeps_the_default(tmp_path):
    rc, out = _simulate_with_config(tmp_path, {"dt": None, "d_v": None,
                                               "snapshots": None})
    assert rc == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["dt"] == 1.0
    assert config["d_v"] == config["d_u"] / 2
    assert config["snapshot_times"] == [2.0]


def test_config_key_reads_as_its_long_option(tmp_path):
    # "eps" abbreviates --eps-list on mms interface, as the flag does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": [0.4, 0.3], "nx": 16,
                               "dt": 0.0625, "t_end": 0.25}))
    out = tmp_path / "iface"
    assert main(["mms", "interface", "--config", str(cfg),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eps_list"] == [0.4, 0.3]


def test_config_list_matches_comma_string(tmp_path):
    tables = []
    for multipliers in ([1, 2], "1,2"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nx": 16, "multipliers": multipliers,
                                   "t_end": 0.5}))
        out = tmp_path / str(len(tables))
        assert main(["mms", "stability", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = (out / "stability_trig.csv").read_text().splitlines()
        # drop the wall-clock column
        tables.append([line.rsplit(",", 1)[0] for line in lines[:-1]]
                      + lines[-1:])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 4


@pytest.mark.parametrize("text, code", [
    (None, 3), ("{bad", 1), ("[1, 2]", 1)])
def test_config_file_errors(tmp_path, capsys, text, code):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "run"
    rc = main(["simulate", "--preset", "labyrinthine", "--config", str(cfg),
               "--out", str(out)])
    assert rc == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_simulate_repeated_snapshot_time_written_once(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--preset", "labyrinthine", "--nx", "8",
                 "--t-end", "4", "--snapshots", "2,2,4",
                 "--out", str(out)]) == 0
    assert "wrote 4 snapshot files" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["snapshot_times"] == [2.0, 4.0]
    assert manifest["outputs"] == ["u_t2.pgm", "u_t2.csv",
                                   "u_t4.pgm", "u_t4.csv"]
    assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                             + ["manifest.json"])


@pytest.mark.parametrize("t_end", ["99.9999999995", "100.0000000001"])
def test_simulate_times_on_one_step_give_one_snapshot(tmp_path, capsys,
                                                      t_end):
    # the preset's t=100 and t_end are both step 100 of dt=1
    out = tmp_path / "sim"
    assert main(["simulate", "--preset", "labyrinthine", "--nx", "8",
                 "--dt", "1", "--t-end", t_end, "--out", str(out)]) == 0
    assert "wrote 2 snapshot files" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["snapshot_times"] == [float(t_end)]
    assert manifest["outputs"] == [f"u_t{t_end}.pgm", f"u_t{t_end}.csv"]
    assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                             + ["manifest.json"])


@pytest.mark.parametrize("command", [
    ["simulate", "--preset", "labyrinthine", "--nx", "8", "--dt", "1e-320",
     "--t-end", "1"],
    ["mms", "stability", "--nx", "8", "--multipliers", "1e-318",
     "--t-end", "1"],
    ["mms", "interface", "--nx", "8", "--eps-list", "0.5", "--dt", "1e-320",
     "--t-end", "0.5"],
    ["simulate", "--preset", "labyrinthine", "--nx", "8", "--dt", "inf",
     "--t-end", "1"],
    ["mms", "interface", "--nx", "8", "--eps-list", "0.5", "--dt", "inf",
     "--t-end", "0.5"]])
def test_step_off_the_grid_is_a_usage_error(tmp_path, capsys, command):
    # t / dt overflows, or is 0 for every t: no traceback, no output
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failed_simulate_manifest_lists_what_it_wrote(tmp_path, capsys):
    # step 2 from t=1e150 overflows the kinetics of u
    out = tmp_path / "fail"
    assert main(["simulate", "--preset", "labyrinthine", "--nx", "8",
                 "--dt", "1e150", "--t-end", "4e150",
                 "--snapshots", "1e150,4e150", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: non-finite u at step 2, t=1e+150\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-finite"
    assert manifest["failure"] == {"step": 2, "t": 1e150, "species": "u"}
    assert manifest["monitors"] is None
    assert manifest["config"]["snapshot_times"] == [1e150]
    assert manifest["outputs"] == ["u_t1e+150.pgm", "u_t1e+150.csv"]
    assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                             + ["manifest.json"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, table, stops", [
    (["convergence", "--sizes", "8"], "convergence_trig.csv",
     [(0.125, 0.015625, None, 2, 0.015625)]),
    (["stability", "--nx", "8", "--multipliers", "1,2"], "stability_trig.csv",
     [(0.125, 0.125, None, 2, 0.125), (0.125, 0.25, None, 2, 0.25)]),
    # the first step is shortened to the sample time 0.05
    (["interface", "--nx", "8", "--eps-list", "0.5", "--dt", "0.25"],
     "interface_tanh.csv", [(0.125, 0.25, 0.5, 2, 0.05)])],
    ids=["convergence", "stability", "interface"])
def test_stopped_study_writes_its_table_and_manifest(tmp_path, capsys,
                                                     command, table, stops):
    # F = 1e308 overflows the kinetics of u on the second step of each run
    out = tmp_path / "out"
    assert main(["mms", *command, "--t-end", "0.5", "--F", "1e308",
                 "--out", str(out)]) == 2
    h, dt, eps, step, t = stops[0]
    run = f"h={h!r}, dt={dt!r}" + ("" if eps is None else f", eps={eps!r}")
    assert capsys.readouterr().err == \
        f"error: non-finite u at step {step}, t={t!r} (run {run})\n"
    assert sorted(os.listdir(out)) == sorted(["manifest.json", table])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-finite"
    assert manifest["outputs"] == [table]
    assert [(f["h"], f["dt"], f["eps"], f["step"], f["t"], f["species"])
            for f in manifest["failures"]] == [s + ("u",) for s in stops]
    lines = (out / table).read_text().splitlines()
    assert len(lines) == len(stops) + 2  # header, a NaN row per run, orders
    assert all(line.endswith(",nan,nan,nan,nan,nan") for line in lines[1:-1])


def test_stopped_study_error_line_names_its_run(tmp_path, capsys):
    # both rows stop at step 2; only h and dt tell them apart
    assert main(["mms", "stability", "--nx", "8", "--multipliers", "1,2",
                 "--t-end", "0.5", "--F", "1e308",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: non-finite u at step 2, "
                                       "t=0.125 (run h=0.125, dt=0.125)\n")


def test_simulate_writes_each_snapshot_as_it_is_reached(tmp_path, capsys):
    # holding 40 snapshots of u and v at 64^2 would take 2.6 MB
    def simulate(out, times):
        return main(["simulate", "--preset", "labyrinthine", "--nx", "64",
                     "--t-end", str(times),
                     "--snapshots", ",".join(map(str, range(1, times + 1))),
                     "--out", str(tmp_path / out)])

    assert simulate("warm", 2) == 0  # fills the solver's caches
    tracemalloc.start()
    try:
        assert simulate("run", 40) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 40 * 2 * build_mesh(64, 64).n_cells * 8
    assert peak < 0.5 * held


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _option_surface(parser, prefix=()):
    """Map each (sub)command path to the set of its option strings."""
    surface = {prefix: {s for a in parser._actions for s in a.option_strings}}
    for name, sub in _subparsers(parser).items():
        surface.update(_option_surface(sub, prefix + (name,)))
    return surface


def test_cli_option_surface():
    help_ = {"-h", "--help"}
    params = {"--F", "--k", "--d-u", "--d-v", "--config"}
    case = {"--case", "--a", "--eps", "--variant"}
    study = {"--t-end", "--sample-times", "--out"}
    assert _option_surface(_build_parser()) == {
        (): help_,
        ("simulate",): help_ | {"--preset", "--nx", "--dt", "--t-end", "--d-u",
                                "--d-v", "--snapshots", "--with-v", "--out",
                                "--config"},
        ("mms",): help_,
        ("mms", "convergence"): help_ | params | case | study | {"--sizes"},
        ("mms", "stability"): help_ | params | case | study
        | {"--nx", "--multipliers"},
        # no --eps here: "--eps 0.2,0.1" must expand to --eps-list
        ("mms", "interface"): help_ | params | study
        | {"--variant", "--eps-list", "--nx", "--dt"},
        ("mms", "residual"): help_ | params | case | {"--t", "--sizes"},
        ("presets",): help_,
    }


def test_library_option_surface():
    # every parameter and config field below has a caller outside the tests
    def params(f):
        return list(inspect.signature(f).parameters)

    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "dt", "T", "monitors", "bound_tolerance"]
    assert params(tanh_case) == ["eps", "params", "r00", "variant"]
    assert params(interface_study) == [
        "params", "eps_list", "mesh", "dt", "T", "sample_times", "variant"]
    assert params(run_pattern) == [
        "pat", "mesh", "dt", "d_u", "d_v", "t_end", "snapshot_times"]
    assert params(write_field_snapshot) == ["field", "path", "fmt"]
    assert params(build_mesh) == ["nx", "ny"]
    assert params(project) == ["mesh", "f"]
    assert params(stability_study) == [
        "case", "params", "multipliers", "mesh", "T", "sample_times"]
    for gone in ("cell_center", "NonSquareCells", "IndexOutOfRange",
                 "solve_cg", "Snapshot"):
        assert not hasattr(gsfv, gone) and gone not in gsfv.__all__
    # the CG reference and the face list live in tests/oracles.py
    # the cosine paths solve a CellField in one form, at every rho
    for owner, gone in ((diffusion, "solve_cg"), (UniformMesh, "n_faces"),
                        (UniformMesh, "interior_faces"),
                        (diffusion, "DIRECT_MIN_RHO")):
        assert not hasattr(owner, gone)


def test_readme_commands_parse():
    with open(README, encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("gsfv ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line.strip()}")
        assert hasattr(args, "func"), line
