import functools
import json
import logging
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from groundbem import cli
from groundbem import blas
from groundbem.blas import blas_thread_counts, one_blas_thread
from groundbem.cli import main
from groundbem.errors import GroundBemError
from groundbem.ground_kernel import KernelConfig, kernel_series


def run_cli(*args):
    return main(list(args))


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("kernel", "mesh", "solve", "experiment"):
        assert cmd in out


def test_subcommand_help(capsys):
    for cmd in ("kernel", "mesh", "solve", "experiment"):
        with pytest.raises(SystemExit) as exc:
            run_cli(cmd, "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out


def test_kernel_plane_point_is_zero(capsys):
    assert run_cli("kernel", "--y", "0,0,0", "--x", "0.2,0,0.3", "--r", "1") == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_kernel_paths_agree(capsys, tmp_path):
    # a pair inside 0.95 R takes the series route
    args = ("--y", "0.2,0.1,0.25", "--x", "0.1,-0.2,0.3", "--r", "1", "--p", "16")
    out = tmp_path / "k.txt"
    assert run_cli("kernel", *args, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    want = kernel_series((0.2, 0.1, 0.25), (0.1, -0.2, 0.3), KernelConfig(p=16))
    assert float(printed.strip()) == want


def test_kernel_neumann_duality(capsys):
    # |y| = 0.995 R: the integral route
    assert run_cli("kernel", "--y", "0.2,0.1,0.97", "--x", "0.1,-0.2,0.3",
                   "--neumann") == 0
    kn = float(capsys.readouterr().out.strip())
    assert run_cli("kernel", "--y", "0.1,-0.2,0.3", "--x", "0.2,0.1,0.97") == 0
    kd = float(capsys.readouterr().out.strip())
    assert kn == -kd
    assert kn != 0.0


def test_malformed_coordinates_exit_usage():
    assert run_cli("kernel", "--y", "nope", "--x", "0,0,0.3") == 1
    assert run_cli("kernel", "--y", "0,0", "--x", "0,0,0.3") == 1


def test_numeric_failure_exit_code():
    # a truncation past the float64-safe limit on either route (the series
    # at 0.25, the integral at 0.97), and a source on the plane outside the
    # hole, where the quadrature meets the singular set
    for y in ("0.2,0.1,0.25", "0.2,0.1,0.97"):
        assert run_cli("kernel", "--y", y, "--x", "0.1,-0.2,0.3", "--p", "200") == 2
    assert run_cli("kernel", "--y", "0.2,0.1,0.25", "--x", "1.5,0,0") == 2


def test_solve_refuses_a_truncation_past_the_limit_before_assembling(tmp_path, monkeypatch):
    # re = 1.05 r0 at eps = 1e-4 needs p = 189, past the float64-safe 128:
    # the config refuses it before the free block is queued
    mesh_path = str(tmp_path / "dip.mesh")
    assert run_cli("mesh", "--kind", "dip", "--re", "1.05", "--edge", "0.3",
                   "--out", mesh_path) == 0
    assembled = []
    monkeypatch.setattr(cli, "assemble", lambda *args: assembled.append(args))
    assert run_cli("solve", "--mesh", mesh_path, "--source", "0,0,0.5",
                   "--out-prefix", str(tmp_path / "run")) == 2
    assert assembled == [] and not list(tmp_path.glob("run*"))


def test_solve_on_a_singular_mesh_is_a_numeric_error(tmp_path, capsys):
    # two coincident faces give identical collocation rows: assemble
    # refuses them before building anything, and nothing is written
    mesh_path = tmp_path / "twice.mesh"
    mesh_path.write_text(
        "vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nface 0 1 2 1\nface 0 1 2 1\n"
    )
    assert run_cli("solve", "--mesh", str(mesh_path), "--source", "0.3,0.3,1",
                   "--out-prefix", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert "numeric error: " in err and "panels 0 and 1 have coincident collocation points" in err
    assert not list(tmp_path.glob("run*"))


def test_missing_mesh_file_is_usage_error(tmp_path):
    assert run_cli("solve", "--mesh", str(tmp_path / "none.mesh"),
                   "--source", "0,0,2") == 1


def test_mesh_solve_round_trip(tmp_path, capsys, caplog):
    mesh_path = str(tmp_path / "dip.mesh")
    assert run_cli("mesh", "--kind", "dip", "--re", "1.124", "--edge", "0.3",
                   "--out", mesh_path) == 0
    capsys.readouterr()
    prefix = str(tmp_path / "run")
    caplog.set_level(logging.DEBUG, logger="groundbem")
    assert run_cli("solve", "--mesh", mesh_path, "--source", "0,0,0.5",
                   "--eps", "1e-3", "--out-prefix", prefix) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "run_solution.json").read_text())
    # the Fig-8-style configuration: extension ratio 1.124 inferred from tags
    assert meta["re"] == pytest.approx(1.124, rel=1e-12)
    assert meta["r0"] == pytest.approx(1.0, rel=1e-12)
    assert meta["use_ground_kernel"] is True
    assert meta["p"] == math.ceil(math.log(1e-3) / math.log(1.0 / 1.124))
    # next to the cap p, the degree the kernel factors took, as assemble logged it
    assembled = [r.getMessage() for r in caplog.records if r.getMessage().startswith("assemble ")]
    fields = dict(w.split("=") for w in assembled[0].split()[1:])
    assert meta["degree"] == int(fields["p"]) < meta["p"]
    sigma_lines = (tmp_path / "run_sigma.csv").read_text().splitlines()
    assert sigma_lines[0] == "x,y,z,area,tag,sigma"
    assert len(sigma_lines) == 1 + meta["panels"]


def test_solve_without_extension_drops_kernel(tmp_path, capsys):
    mesh_path = str(tmp_path / "disc.mesh")
    assert run_cli("mesh", "--kind", "disc", "--radius", "2.0", "--edge", "0.35",
                   "--out", mesh_path) == 0
    prefix = str(tmp_path / "d")
    assert run_cli("solve", "--mesh", mesh_path, "--source", "0,0,0.5",
                   "--field", "3,4", "--out-prefix", prefix) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "d_solution.json").read_text())
    assert meta["use_ground_kernel"] is False
    # no kernel term, so no truncation; r0 and re are the mesh's radii
    assert meta["p"] is None and meta["degree"] is None
    assert meta["r0"] == meta["re"] == pytest.approx(2.0, rel=1e-12)
    field = json.loads((tmp_path / "d_field.json").read_text())["metadata"]
    assert field["use_ground_kernel"] is False
    assert field["p"] is None and field["re"] is None and field["r0"] is None
    assert field["degree"] is None


@pytest.fixture(scope="module")
def disc_mesh(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("disc") / "disc.mesh")
    assert main(["mesh", "--kind", "disc", "--radius", "2.0", "--edge", "0.35",
                 "--out", path]) == 0
    return path


def test_field_export_round_trip(disc_mesh, tmp_path, capsys):
    prefix = str(tmp_path / "d")
    assert run_cli("solve", "--mesh", disc_mesh, "--source", "0,0,0.5",
                   "--field", "3,4", "--out-prefix", prefix) == 0
    capsys.readouterr()
    lines = (tmp_path / "d_field.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,value,induced,below_ground"
    assert len(lines) == 1 + 3 * 4
    payload = json.loads((tmp_path / "d_field.json").read_text())
    rows = [line.split(",") for line in lines[1:]]
    assert [[float(c) for c in row[:3]] for row in rows] == payload["points"]
    assert [float(row[3]) for row in rows] == payload["values"]
    assert [float(row[4]) for row in rows] == payload["induced"]
    assert [int(row[5]) for row in rows] == payload["below_ground"]
    assert payload["metadata"]["source"] == [0.0, 0.0, 0.5]


@pytest.mark.parametrize("field", ["--field=-1,4", "--field=0,4", "--field=3,0", "--field=3"])
def test_solve_refuses_a_bad_field_grid_before_the_mesh_is_loaded(
    field, disc_mesh, tmp_path, capsys, monkeypatch
):
    # nr or nth below 1 (or not two values) is a usage error raised before
    # the mesh is read, so no solve runs and nothing is written
    loaded = []
    monkeypatch.setattr(cli, "load_mesh", lambda path: loaded.append(path))
    assert run_cli("solve", "--mesh", disc_mesh, "--source", "0,0,0.5", field,
                   "--out-prefix", str(tmp_path / "d")) == 1
    assert "usage error: --field expects nr,nth" in capsys.readouterr().err
    assert loaded == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("source, status", [
    ("0,0", 1), ("0,0,x", 1), ("0,0,nan", 2), ("0,inf,1", 2),
])
def test_solve_refuses_a_bad_source_before_the_mesh_is_loaded(
    source, status, disc_mesh, tmp_path, capsys, monkeypatch
):
    # a malformed source is a usage error (1), a non-finite one a domain
    # error (2); both are refused before the mesh is read or assembled
    calls = []
    monkeypatch.setattr(cli, "load_mesh", lambda path: calls.append("load_mesh"))
    monkeypatch.setattr(cli, "assemble", lambda *args: calls.append("assemble"))
    assert run_cli("solve", "--mesh", disc_mesh, "--source", source,
                   "--out-prefix", str(tmp_path / "s")) == status
    assert calls == [] and not list(tmp_path.iterdir())


def test_solve_field_files_are_byte_identical(disc_mesh, tmp_path, capsys):
    for run in ("a", "b"):
        assert run_cli("solve", "--mesh", disc_mesh, "--source", "0,0,0.5",
                       "--field", "3,4", "--out-prefix", str(tmp_path / run)) == 0
    capsys.readouterr()
    for suffix in ("_sigma.csv", "_field.csv"):
        first = (tmp_path / f"a{suffix}").read_bytes()
        assert first == (tmp_path / f"b{suffix}").read_bytes()
        assert b"np." not in first


def test_solve_field_on_a_dip_mesh(tmp_path, capsys):
    # a sunken feature takes the dip study's grid: inside re and above the
    # bowl (the bump's half-disc grid crossed re here)
    mesh_path = str(tmp_path / "dip.mesh")
    assert run_cli("mesh", "--kind", "dip", "--re", "1.124", "--edge", "0.3",
                   "--out", mesh_path) == 0
    prefix = str(tmp_path / "run")
    assert run_cli("solve", "--mesh", mesh_path, "--source", "0,0,0.5",
                   "--eps", "1e-3", "--field", "3,4", "--out-prefix", prefix) == 0
    capsys.readouterr()
    field = json.loads((tmp_path / "run_field.json").read_text())
    assert len(field["points"]) == 3 * 4
    assert np.all(np.linalg.norm(field["points"], axis=1) < field["metadata"]["re"])
    assert field["below_ground"] == [0] * 12
    # the field's own degree, under the cap the solution reports
    meta = json.loads((tmp_path / "run_solution.json").read_text())
    assert field["metadata"]["p"] == meta["p"]
    assert 2 <= field["metadata"]["degree"] <= meta["p"]


def test_experiment_passes_only_the_flags_set(monkeypatch):
    # unset flags take the study's signature defaults
    seen = []
    real = cli._STUDIES["bump"]

    @functools.wraps(real)
    def spy(**kwargs):
        seen.append(kwargs)
        raise GroundBemError("stop")

    monkeypatch.setitem(cli._STUDIES, "bump", spy)
    assert run_cli("experiment", "bump", "--edge", "0.4", "--seed", "3") == 2
    assert seen == [{"target_edge": 0.4, "seed": 3}]


@pytest.mark.parametrize("args", [
    ("experiment", "dip", "--ratios", "1.2,x"),
    ("experiment", "accuracy-map", "--p-values", "4,6.5"),
    ("experiment", "accuracy-map", "--delta", "0.3"),
    ("experiment", "cost-curve", "--edge", "0.2"),
    # the kernel picks its route from the pair, the solve its radii and
    # truncation from the mesh and --eps
    ("kernel", "--y", "0.2,0.1,0.25", "--x", "0.1,-0.2,0.3", "--path", "series"),
    ("solve", "--mesh", "DISC", "--source", "0,0,0.5", "--re", "3.5"),
    ("solve", "--mesh", "DISC", "--source", "0,0,0.5", "--r0", "1.5"),
    ("solve", "--mesh", "DISC", "--source", "0,0,0.5", "--p", "8"),
])
def test_experiment_bad_flags_are_usage_errors(args, disc_mesh, tmp_path, capsys):
    # --out is each command's output (solve's --out-prefix, abbreviated),
    # so a command that ran would leave files in tmp_path
    args = [disc_mesh if a == "DISC" else a for a in args]
    assert run_cli(*args, "--out", str(tmp_path / "run")) == 1
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind, flag", [
    ("dip", "--r0"), ("dip", "--radius"), ("bump", "--radius"),
    ("sphere", "--r0"), ("sphere", "--re"), ("disc", "--r0"), ("disc", "--re"),
])
def test_mesh_flags_the_kind_does_not_take_are_usage_errors(kind, flag, tmp_path, capsys):
    out = tmp_path / "m.mesh"
    assert run_cli("mesh", "--kind", kind, flag, "2", "--out", str(out)) == 1
    assert f"mesh --kind {kind} takes no {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_accuracy_map_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ("experiment", "accuracy-map", "--ratios", "2.5", "--p-values", "4,6",
            "--seed", "11")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    capsys.readouterr()
    c1 = (out1 / "accuracy_map_seed11_table.csv").read_bytes()
    c2 = (out2 / "accuracy_map_seed11_table.csv").read_bytes()
    assert c1 == c2
    rows = c1.decode().splitlines()
    assert rows[0] == "ratio,p,eps2"
    assert len(rows) == 3


def test_experiment_bump_tiny(tmp_path, capsys):
    assert run_cli("experiment", "bump", "--h", "2", "--eps", "1e-3",
                   "--edge", "0.4", "--delta", "0.3", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "bump_seed0.json").read_text())
    assert payload["eps2_inf"] < payload["eps2_truncated"]
    assert "bump_seed0_fields.csv" in out or (tmp_path / "bump_seed0_fields.csv").exists()


def test_caps_held_at_once_combine_and_restore_out_of_order():
    # callers on two threads hold one-thread caps at once, and the first
    # to begin ends first: the count stays at one until the last ends,
    # which restores the counts from before the first.  Every loaded
    # OpenBLAS (numpy's and scipy's) starts at two threads here, so the
    # restore shows.
    controls = blas._controls()
    start = blas_thread_counts()
    assert start
    for _, set_ in controls.values():
        set_(2)
    try:
        before = blas_thread_counts()
        first, second = one_blas_thread(), one_blas_thread()
        with ThreadPoolExecutor(1) as other:
            assert other.submit(first.__enter__).result(timeout=10) == dict.fromkeys(before, 1)
            assert second.__enter__() == dict.fromkeys(before, 1)
            other.submit(first.__exit__, None, None, None).result(timeout=10)
            assert blas_thread_counts() == dict.fromkeys(before, 1)
        second.__exit__(None, None, None)
        assert blas_thread_counts() == before
    finally:
        for path, (_, set_) in controls.items():
            set_(start[path])


def test_console_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "groundbem.cli", "kernel",
         "--y", "0,0,0", "--x", "0.2,0,0.3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 0.0


@pytest.mark.parametrize("args", [
    ("mesh", "--kind", "bump", "--edge", "nan"),
    ("mesh", "--kind", "bump", "--re", "inf"),
    ("mesh", "--kind", "disc", "--radius", "nan"),
    ("experiment", "bump", "--edge", "nan"),
    # an edge larger than the unit feature radius
    ("mesh", "--kind", "bump", "--edge", "5"),
    # extension ratios that leave the plane sources no annulus
    ("experiment", "accuracy-map", "--ratios", "0.8", "--p-values", "4"),
    ("experiment", "cost-curve", "--ratios", "1.0005"),
])
def test_non_finite_sizes_are_numeric_errors(args, tmp_path):
    # run as a script: a size the generators let through would end in a
    # traceback and exit 1
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "groundbem.cli", *args, "--out", str(tmp_path / "out.mesh")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "numeric error: " in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GROUNDBEM_OUTDIR", str(tmp_path))
    args = ("experiment", "accuracy-map", "--ratios", "2.5", "--p-values", "4",
            "--seed", "1")
    assert run_cli(*args) == 0
    capsys.readouterr()
    assert (tmp_path / "accuracy_map_seed1_table.csv").exists()
