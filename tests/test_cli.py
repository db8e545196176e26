import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ptcontrol import cli, control, fem, mesh as mesh_module
from ptcontrol.cli import (
    ConfigError,
    StudyConfig,
    format_config,
    main,
    parse_config,
    run_oracle_check,
    run_solve,
    run_study,
)
from ptcontrol.control import DivergenceError
from ptcontrol.mesh import build_disc_mesh, build_square_mesh, format_mesh


def test_config_round_trip():
    config = StudyConfig(
        variant="postproc", level_min=1, level_max=3, alpha=0.75,
        lower=-0.2, upper=0.2, out="table.csv",
    )
    assert parse_config(format_config(config)) == config


def test_config_center_sequence_round_trips():
    # any two-number sequence is stored as the tuple that parsing gives
    config = StudyConfig(center=[0.5, 0.25])
    assert config.center == (0.5, 0.25) and isinstance(config.center, tuple)
    assert parse_config(format_config(config)) == config


def test_config_round_trip_infinite_bounds():
    config = StudyConfig(lower=float("-inf"), upper=float("inf"))
    text = format_config(config)
    assert "-inf" in text
    assert parse_config(text) == config


def test_config_accepts_comments_and_sections():
    text = """
# benchmark sweep
[study]
variant = cellwise
levels = 2..3

bounds = -1, 1
"""
    config = parse_config(text)
    assert config.variant == "cellwise"
    assert (config.level_min, config.level_max) == (2, 3)
    assert (config.lower, config.upper) == (-1.0, 1.0)


@pytest.mark.parametrize("text", [
    "variant = magic",
    "levels = 2..9",
    "levels = 4..2",
    "bounds = 1, -1",
    "bounds = 1",
    "mystery = 1",
    "alpha",
    "alpha = fast",
    "variant = cellwise\nvariant = greens",
    "subdivision = 1.5",
    # the solver sets its own threshold: tol is no key
    "tol = 1e-20",
    "tol = inf",
    "tol = 1e-12",
    "solver = quantum",
    "solver = direct",
    "domain = hexagon",
    "center = nan, 0.5",
    "center = inf, 0.5",
    "radius = inf",
    "alpha = inf",
    "alpha = nan",
    "out =",
])
def test_config_rejects_invalid(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("field, value", [
    ("center", (0.5,)),
    ("center", (0.5, 0.5, 0.5)),
    ("center", 0.5),
    ("center", ("0.5", "0.5")),
    ("center", (0.5, None)),
    ("center", (0.5, float("nan"))),
    ("level_min", None),
    ("level_min", 1.0),
    ("level_max", "4"),
    ("level_min", True),
    ("radius", None),
    ("alpha", "1"),
    ("lower", None),
    ("upper", "inf"),
    ("out", 5),
])
def test_config_rejects_bad_types_and_shapes(field, value):
    with pytest.raises(ConfigError):
        StudyConfig(**{field: value})


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    domain=st.sampled_from(["disc", "square"]),
    center=st.tuples(finite, finite),
    radius=st.floats(min_value=1e-300, max_value=1e300),
    variant=st.sampled_from(cli.VARIANTS),
    levels=st.lists(st.integers(0, cli.MAX_STUDY_LEVEL), min_size=2, max_size=2),
    alpha=st.floats(min_value=1e-300, max_value=1e300),
    bounds=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
    out=st.none() | st.text("abcXYZ019._-/", min_size=1, max_size=20),
)
def test_config_round_trip_property(domain, center, radius, variant, levels,
                                    alpha, bounds, out):
    lower, upper = sorted(bounds)
    assume(lower < upper)
    config = StudyConfig(
        domain=domain, center=center, radius=radius, variant=variant,
        level_min=min(levels), level_max=max(levels), alpha=alpha,
        lower=lower, upper=upper, out=out,
    )
    assert parse_config(format_config(config)) == config


@settings(max_examples=300, deadline=None)
@given(out=st.text(max_size=20))
@example(out=" x.csv")
@example(out="a\nlevels = 5..5")
@example(out="a\u2028b")
def test_config_out_round_trips_or_is_rejected(out):
    # format writes out on one line and parse strips it, so an out that
    # would not come back whole is refused when the config is built
    try:
        config = StudyConfig(out=out)
    except ConfigError:
        return
    assert parse_config(format_config(config)) == config


@pytest.mark.parametrize("out", [" x.csv", "x.csv\t", "a\nlevels = 5..5", "a\rb"])
def test_config_rejects_out_that_would_not_round_trip(out):
    with pytest.raises(ConfigError, match="one line"):
        StudyConfig(out=out)


@pytest.mark.parametrize("config, text", [
    (StudyConfig(),
     "domain = disc\ncenter = 0.5, 0.5\nradius = 0.5\nvariant = cellwise\n"
     "levels = 2..4\nalpha = 1\nbounds = -1, 1\n"),
    (StudyConfig(variant="postproc", level_min=1, level_max=3, alpha=0.75,
                 lower=-0.2, upper=0.2, out="table.csv"),
     "domain = disc\ncenter = 0.5, 0.5\nradius = 0.5\nvariant = postproc\n"
     "levels = 1..3\nalpha = 0.75\n"
     "bounds = -0.20000000000000001, 0.20000000000000001\n"
     "out = table.csv\n"),
    (StudyConfig(domain="square", center=(0.25, -1e-300), radius=2.0 / 3.0,
                 variant="greens", level_min=0, level_max=8, alpha=1e4,
                 lower=float("-inf"), upper=float("inf"), out="runs/l8.csv"),
     "domain = square\ncenter = 0.25, -1e-300\nradius = 0.66666666666666663\n"
     "variant = greens\nlevels = 0..8\nalpha = 10000\nbounds = -inf, inf\n"
     "out = runs/l8.csv\n"),
], ids=["default", "postproc-out", "square-unbounded"])
def test_format_config_bytes(config, text):
    assert format_config(config) == text


@pytest.mark.parametrize("key, value", [
    ("variant", "variational"),
    ("levels", "1..3"),
    ("alpha", "0.25"),
    ("bounds", "-0.2, 0.2"),
    ("out", "table.csv"),
])
def test_flag_matches_config_file(tmp_path, key, value):
    config_file = tmp_path / "one.cfg"
    config_file.write_text(f"{key} = {value}\n")
    parser = cli._build_parser()
    from_file = cli._config_from_args(
        parser.parse_args(["study", "--config", str(config_file)]))
    from_flag = cli._config_from_args(
        parser.parse_args(["study", f"--{key}={value}"]))
    assert from_flag == from_file != StudyConfig()


def test_mesh_dump_subcommand(tmp_path):
    out = tmp_path / "mesh.txt"
    assert main(["mesh-dump", "--levels", "2..2", "--out", str(out)]) == 0
    assert out.read_bytes() == format_mesh(build_disc_mesh(level=2)).encode()
    again = tmp_path / "mesh2.txt"
    main(["mesh-dump", "--levels", "2..2", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("domain", ["disc", "square"])
def test_mesh_dump_streams_the_bytes_of_format_mesh(tmp_path, domain):
    build = build_disc_mesh if domain == "disc" else build_square_mesh
    for level in range(7):
        out = tmp_path / f"mesh{level}.txt"
        cli.run_mesh_dump(StudyConfig(domain=domain, level_min=level, level_max=level,
                                      out=str(out)))
        assert out.read_bytes() == format_mesh(build(level=level)).encode()


def test_mesh_dump_peak_is_below_the_file_size(tmp_path, monkeypatch):
    # the dump streams its blocks as the solve dump does, so its peak is the
    # formatting of two blocks of _text.BLOCK_VALUES values at any level.
    # On a level-8 disc mesh it measured 8.8 MiB for a 20.4 MiB file on two
    # CPUs (61.1 MiB when the whole text was joined, decoded and encoded)
    mesh = build_disc_mesh(level=8)
    monkeypatch.setattr(cli, "_build_mesh", lambda config, level: mesh)
    out = tmp_path / "mesh.txt"
    tracemalloc.start()
    try:
        cli.run_mesh_dump(StudyConfig(level_min=8, level_max=8, out=str(out)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


def test_study_csv_schema(tmp_path):
    out = tmp_path / "table.csv"
    config = StudyConfig(variant="cellwise", level_min=1, level_max=3,
                         out=str(out))
    records = run_study(config)
    lines = out.read_text().splitlines()
    assert lines[0] == "level,h,n_vertices,n_cells,error,eoc"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[5] == ""
    # full-precision columns let the eoc be recomputed exactly
    for previous, current, record in zip(lines[1:], lines[2:], records[1:]):
        h0, e0 = float(previous.split(",")[1]), float(previous.split(",")[4])
        h1, e1 = float(current.split(",")[1]), float(current.split(",")[4])
        stored = float(current.split(",")[5])
        assert stored == np.log(e0 / e1) / np.log(h0 / h1)
        assert stored == record.eoc


def test_study_deterministic_bytes(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        run_study(StudyConfig(variant="variational", level_min=1, level_max=2,
                              lower=-0.2, upper=0.2, out=str(out)))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("variant", ["cellwise", "greens"])
def test_study_builds_one_refinement_chain(tmp_path, monkeypatch, variant):
    calls = []
    refine = mesh_module.refine_uniform

    def counted(mesh):
        calls.append(mesh.level)
        return refine(mesh)

    monkeypatch.setattr(mesh_module, "refine_uniform", counted)
    config = StudyConfig(variant=variant, level_min=2, level_max=4,
                         out=str(tmp_path / "chain.csv"))
    run_study(config)
    assert calls == [0, 1, 2, 3]
    monkeypatch.undo()
    # the same table from one mesh built from level 0 per study level
    monkeypatch.setattr(cli, "_study_meshes", lambda c: [
        build_disc_mesh(level=level) for level in c.levels])
    run_study(replace(config, out=str(tmp_path / "per-level.csv")))
    assert (tmp_path / "chain.csv").read_bytes() == (
        tmp_path / "per-level.csv").read_bytes()


@pytest.mark.parametrize("variant", ["cellwise", "greens"])
def test_study_assembles_each_stiffness_once(tmp_path, monkeypatch, variant):
    # every level solves on its own stiffness and builds a multigrid
    # hierarchy from the stiffness of each coarser level down to level 2;
    # all of them are the study's own meshes, assembled once each
    calls = []
    assemble = fem._stiffness_csr

    def counted(mesh):
        calls.append(mesh.level)
        return assemble(mesh)

    monkeypatch.setattr(fem, "_stiffness_csr", counted)
    run_study(StudyConfig(variant=variant, level_min=2, level_max=5,
                          out=str(tmp_path / "study.csv")))
    assert sorted(calls) == [2, 3, 4, 5]


def test_greens_study_runs(tmp_path):
    out = tmp_path / "greens.csv"
    records = run_study(StudyConfig(variant="greens", level_min=2, level_max=3,
                                    out=str(out)))
    assert out.exists()
    assert 0 < records[-1].error < records[0].error


def test_flag_overrides(tmp_path):
    config_file = tmp_path / "base.cfg"
    config_file.write_text(format_config(StudyConfig(variant="cellwise")))
    out = tmp_path / "o.csv"
    code = main([
        "study", "--config", str(config_file), "--variant", "variational",
        "--levels", "1..2", "--bounds=-0.2,0.2", "--alpha", "2.0",
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_solve_dump(tmp_path):
    out = tmp_path / "fields.txt"
    code = main([
        "solve", "--variant", "cellwise", "--levels", "2..2",
        "--bounds=-0.2,0.2", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("# level 2 variant cellwise")
    counts = [line for line in text if line.startswith("#")]
    assert len(counts) == 4
    values = [line for line in text if not line.startswith("#")]
    assert len(values) == 81 + 128
    sample = np.array([float(v) for v in values[0].split()])
    assert sample.shape == (3,)


def test_solve_dump_matches_per_value_format(tmp_path):
    configs = [
        StudyConfig(variant="variational", level_min=2, level_max=2,
                    lower=-0.2, upper=0.2),
        # exact zeros (the boundary adjoint), negative values, and controls
        # of about -1e-5, which print in exponent notation
        StudyConfig(variant="cellwise", level_min=3, level_max=3, alpha=1e4,
                    lower=-np.inf, upper=np.inf),
    ]
    for number, config in enumerate(configs):
        out = tmp_path / f"fields-{number}.txt"
        solution = run_solve(replace(config, out=str(out)))
        mesh = solution.adjoint.mesh
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        controls = solution.control.sample_cells(np.full((1, 3), 1.0 / 3.0)).ravel()
        expected = [
            f"{x:.17g} {y:.17g} {z:.17g}"
            for points, values in (
                (mesh.vertices, solution.adjoint.values), (centroids, controls)
            )
            for (x, y), z in zip(points, values)
        ]
        values = [line for line in out.read_text().splitlines()
                  if not line.startswith("#")]
        assert values == expected
    tokens = " ".join(values).split()
    assert "0" in tokens
    assert any(t.startswith("-") for t in tokens)
    assert any("e-" in t for t in tokens)


def test_solve_requires_out():
    assert main(["solve", "--levels", "2..2"]) == 3


@pytest.mark.parametrize("command", ["study", "solve"])
def test_infinite_tol_is_a_config_error(tmp_path, capsys, command):
    # the solver sets its own threshold, so --tol is no flag: any value, an
    # infinite one too, exits 3 before anything is solved or written
    out = tmp_path / "out.txt"
    assert main([command, "--variant", "variational", "--levels", "3..3",
                 "--bounds=-0.2,0.2", "--tol", "inf", "--out", str(out)]) == 3
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["study", "solve"])
def test_large_tol_is_a_config_error(tmp_path, capsys, command):
    # nor is tol a config key: a tol line exits 3, as an unknown key does
    config_file = tmp_path / "tol.cfg"
    config_file.write_text("variant = variational\nbounds = -0.2, 0.2\ntol = 1e-2\n")
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(config_file), "--levels", "3..3",
                 "--out", str(out)]) == 3
    assert "unknown key 'tol'" in capsys.readouterr().err
    assert not out.exists()


def test_tol_is_the_solver_constant():
    # a read-only property, not a field: no constructor argument sets it
    # and format_config writes no line for it
    config = StudyConfig()
    assert config.tol == control.RESIDUAL_TOL == 1e-12
    with pytest.raises(AttributeError):
        config.tol = 1e-10
    with pytest.raises(TypeError, match="tol"):
        StudyConfig(tol=1e-12)
    assert "tol" not in format_config(config)


def test_a_study_that_stalls_at_its_rounding_floor_succeeds(tmp_path, capsys):
    # alpha = 1e-10 and no lower bound: each level's solve stalls with
    # max|F| near 1e-8, its last Newton step at working precision, and is
    # accepted, where a residual threshold alone would exit 2
    out = tmp_path / "stall.csv"
    assert main(["study", "--variant", "variational", "--levels", "2..3",
                 "--alpha", "1e-10", "--bounds=-inf,0.2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_square_domain_study_rejected(tmp_path):
    config_file = tmp_path / "sq.cfg"
    config_file.write_text("domain = square\nvariant = cellwise\n")
    assert main(["study", "--config", str(config_file)]) == 3


UNMESHABLE_DISCS = [
    # the level-0 vertices overflow, and the mesh rejects them
    pytest.param("study", "center = 1e308, 1e308\nradius = 1e308\n", "2..3",
                 id="overflow"),
    # the refined midpoints all snap from the center itself, 0 / 0
    pytest.param("mesh-dump", "radius = 1e-160\n", "1..1", id="snap-from-center"),
    # every level-0 vertex rounds to the center, so no cell has an area
    pytest.param("solve", "radius = 1e-160\n", "0..0", id="no-area-solve"),
    pytest.param("oracle", "radius = 1e-160\n", "0..0", id="no-area-oracle"),
    # finite vertices, but the areas and the element entries overflow
    pytest.param("solve", "center = 0, 0\nradius = 1e308\n", "0..0", id="overflowing-area"),
]


@pytest.mark.parametrize("command, text, levels", UNMESHABLE_DISCS)
def test_a_disc_that_cannot_be_meshed_is_a_config_error(tmp_path, capsys, command,
                                                        text, levels):
    # a valid config whose disc has no mesh exits 3, with no traceback and
    # no RuntimeWarning (an error under the suite's filters) on the way
    config_file = tmp_path / "disc.cfg"
    config_file.write_text(text)
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(config_file), "--levels", levels,
                 "--out", str(out)]) == 3
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_subcommand(capsys):
    code = main(["oracle", "--levels", "1..1", "--bounds=-0.2,0.2"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("ptcontrol.cli.ORACLE_MATCH_TOL", -1.0)
    code = main(["oracle", "--levels", "1..1", "--bounds=-0.2,0.2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["study", "solve", "mesh-dump"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys, command):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "out.txt"
    assert main([command, "--levels", "1..1", "--out", str(out)]) == 4
    assert "output error: rename refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["study", "solve", "mesh-dump"])
def test_missing_output_directory_exit_code(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.csv"
    assert main([command, "--levels", "1..1", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    # the message names the target, not the temp file beside it
    assert "output error:" in err and str(out) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["study", "solve", "mesh-dump"])
def test_empty_out_is_a_config_error(monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(cli, "_build_mesh", never)
    assert main([command, "--levels", "1..1", "--out", ""]) == 3


@pytest.mark.parametrize("command", ["study", "solve", "mesh-dump"])
def test_written_files_respect_umask(tmp_path, command):
    out = tmp_path / "out.txt"
    previous = os.umask(0o022)
    try:
        assert main([command, "--levels", "1..1", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o644
    assert list(tmp_path.iterdir()) == [out]


def test_oracle_reports(tmp_path):
    reports = run_oracle_check(
        StudyConfig(variant="cellwise", level_min=0, level_max=1)
    )
    assert [r["level"] for r in reports] == [0, 1]
    assert all(r["passed"] for r in reports)
    with pytest.raises(ConfigError):
        run_oracle_check(StudyConfig(variant="cellwise", level_max=3))
    with pytest.raises(ConfigError, match="cellwise variant"):
        run_oracle_check(StudyConfig(variant="greens", level_min=1, level_max=1))


def test_divergence_exit_code(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise DivergenceError("stuck", [1.0, 0.9])

    monkeypatch.setattr("ptcontrol.control.solve_discrete", explode)
    out = tmp_path / "x.csv"
    code = main(["study", "--variant", "cellwise", "--levels", "1..2",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("variant, alpha, code", [
    ("variational", "1e-300", 0),
    ("variational", "1e-320", 2),
    ("cellwise", "1e-320", 0),
    ("postproc", "1e-320", 0),
])
def test_tiny_alpha_study_raises_no_warning(tmp_path, variant, alpha, code):
    # a subprocess with RuntimeWarning as an error, which would end in a
    # traceback and exit 1.  At alpha = 1e-300 the variational study runs;
    # at 1e-320, where -z/alpha overflows, it stops with the typed
    # divergence, while the cellwise controls and the closed-form control,
    # clamped quotients, take the bound
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "x.csv"
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ptcontrol", "study",
         "--variant", variant, "--levels", "1..2", "--alpha", alpha, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == code, result.stderr
    assert "Warning" not in result.stderr
    if code:
        assert "solver error" in result.stderr and "non-finite" in result.stderr
    assert out.exists() == (code == 0)


# a level-6 solve dump, three acceptance studies and an unbounded cellwise
# study, each past the 10 000 entries from which OpenBLAS splits a dot
# product across its threads
THREAD_OUTPUTS = (
    ("solve", "variational", "6..6", "-0.2,0.2", "1", "solve-6.txt"),
    ("study", "cellwise", "2..7", "-1,1", "1", "cellwise.csv"),
    ("study", "variational", "2..6", "-0.2,0.2", "1", "variational.csv"),
    ("study", "greens", "2..6", "-1,1", "1", "greens.csv"),
    # every cell free: the cellwise Jacobian sums the whole mesh
    ("study", "cellwise", "2..6", "-inf,inf", "1e-3", "cellwise-unbounded.csv"),
)


def test_outputs_keep_their_bytes_at_any_blas_thread_count(tmp_path):
    # one process per BLAS thread count, which OpenBLAS reads once, as it
    # loads; with two threads, the long reductions that reach BLAS split
    # and move the last bits of every output
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "from ptcontrol.cli import main\n"
        f"for command, variant, levels, bounds, alpha, name in {THREAD_OUTPUTS!r}:\n"
        "    args = [command, '--variant', variant, '--levels', levels, '--bounds=' + bounds,\n"
        "            '--alpha', alpha]\n"
        "    assert main(args + ['--out', sys.argv[1] + '/' + name]) == 0\n"
    )
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        (tmp_path / threads).mkdir()
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path / threads)],
                                env=env, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
    for *_, name in THREAD_OUTPUTS:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_missing_config_file_exit_code():
    assert main(["study", "--config", "/nonexistent/path.cfg"]) == 3


def test_bad_flag_exit_code():
    assert main(["study", "--levels", "one..two"]) == 3
