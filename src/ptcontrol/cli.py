"""Configuration-driven experiment runner.

Subcommands: ``study`` (level sweep of one discretization variant, CSV
output), ``solve`` (single solve with field dumps), ``oracle`` (dense
cross-check on a coarse level), ``mesh-dump`` (triangulation as text).
Configs are flat "key = value" text files, and flags override six of the
keys; a StudyConfig validates itself on construction.  Exit codes: 0
success, 1 oracle comparison failed, 2 solver failure, 3 config error, 4
output write failed.  Every output file is written atomically.
"""

import argparse
import itertools
import math
import numbers
import os
import secrets
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import control, error, fem, oracle
from ._text import text_rows
from .greens import ExactSolution
from .mesh import (
    _ancestors,
    build_disc_mesh,
    build_square_mesh,
    cell_centroids,
    format_mesh,
)

__all__ = [
    "ConfigError",
    "StudyConfig",
    "parse_config",
    "format_config",
    "run_study",
    "run_solve",
    "run_oracle_check",
    "run_mesh_dump",
    "main",
]

VARIANTS = ("variational", "cellwise", "postproc", "greens")
MAX_STUDY_LEVEL = 8
ORACLE_MATCH_TOL = 1e-8
KKT_MATCH_TOL = 1e-10


class ConfigError(Exception):
    """Invalid configuration file or command line."""


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class StudyConfig:
    """Everything one run needs; parse/format round-trip exactly."""

    domain: str = "disc"
    center: tuple = (0.5, 0.5)
    radius: float = 0.5
    variant: str = "cellwise"
    level_min: int = 2
    level_max: int = 4
    alpha: float = 1.0
    lower: float = -1.0
    upper: float = 1.0
    tol: float = 1e-12
    out: Optional[str] = None

    def __post_init__(self):
        if self.domain not in ("disc", "square"):
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not all(_is_int(level) for level in (self.level_min, self.level_max)):
            raise ConfigError("levels must be integers")
        for name in ("radius", "alpha", "lower", "upper", "tol"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a number")
        if not (0 <= self.level_min <= self.level_max <= MAX_STUDY_LEVEL):
            raise ConfigError(
                f"levels must satisfy 0 <= min <= max <= {MAX_STUDY_LEVEL}"
            )
        if not (isinstance(self.center, Sequence) and len(self.center) == 2
                and all(_is_real(x) and math.isfinite(x) for x in self.center)):
            raise ConfigError("center must be two finite numbers")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ConfigError("radius must be positive and finite")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ConfigError("alpha must be positive and finite")
        if not self.lower < self.upper:
            raise ConfigError("bounds must satisfy lower < upper")
        if not self.tol >= 1e-13:
            raise ConfigError("tol must be at least 1e-13")
        if self.out == "":
            raise ConfigError("out must not be empty")

    @property
    def levels(self):
        return range(self.level_min, self.level_max + 1)


def _fmt(x):
    return f"{x:.17g}"


def _parse_float(text, key):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}")


def _parse_text(text, key):
    return text


def _parse_levels(text, key):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{key}: expected A..B, got {text!r}")
    return lo, hi


def _parse_pair(text, key):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two comma-separated values")
    return _parse_float(parts[0], key), _parse_float(parts[1], key)


def _format_pair(pair):
    return f"{_fmt(pair[0])}, {_fmt(pair[1])}"


# One row per config key, in file order: the StudyConfig fields it sets, its
# parser, its formatter, and the help text of its command-line flag (None
# for a file-only key).  A key that sets two fields parses to a pair.
_KEYS = {
    "domain": (("domain",), _parse_text, str, None),
    "center": (("center",), _parse_pair, _format_pair, None),
    "radius": (("radius",), _parse_float, _fmt, None),
    "variant": (("variant",), _parse_text, str, "|".join(VARIANTS)),
    "levels": (("level_min", "level_max"), _parse_levels,
               "{0[0]}..{0[1]}".format, "inclusive level range A..B"),
    "alpha": (("alpha",), _parse_float, _fmt, "regularization weight"),
    "bounds": (("lower", "upper"), _parse_pair, _format_pair,
               "control bounds A,B (inf allowed)"),
    "tol": (("tol",), _parse_float, _fmt, "solver tolerance"),
    "out": (("out",), _parse_text, str, "output path"),
}


def _fields(texts):
    """The StudyConfig fields that a ``{key: text}`` dict of config keys sets."""
    fields = {}
    for key, text in texts.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        names, parse, _, _ = _KEYS[key]
        value = parse(text, key)
        fields.update(zip(names, value if len(names) > 1 else (value,)))
    return fields


def parse_config(text):
    """Parse flat "key = value" config text into a StudyConfig.

    Blank lines, comment lines starting with '#', and section headers in
    brackets are ignored; unknown keys are an error.
    """
    values = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (
            line.startswith("[") and line.endswith("]")
        ):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ConfigError(f"line {number}: duplicate key {key!r}")
        values[key] = value

    return StudyConfig(**_fields(values))


def format_config(config):
    """Serialize a StudyConfig to config text; parses back identically."""
    lines = []
    for key, (names, _, format_value, _) in _KEYS.items():
        value = tuple(getattr(config, name) for name in names)
        value = value if len(names) > 1 else value[0]
        if value is not None:
            lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def _exact_solution(config):
    if config.domain != "disc":
        raise ConfigError(
            "the convergence benchmark is defined on the disc domain only"
        )
    return ExactSolution(
        center=config.center,
        radius=config.radius,
        alpha=config.alpha,
        lower=config.lower,
        upper=config.upper,
    )


def _build_mesh(config, level):
    if config.domain == "disc":
        return build_disc_mesh(config.center, config.radius, level)
    return build_square_mesh(level)


def _solve_variant(config, problem, mesh):
    """Solve the control variant of ``config`` on ``mesh``.

    Returns the DiscreteSolution and the control it stands for: the
    solution's own control, or its post-processed control for "postproc".
    """
    variant = (
        control.VARIATIONAL if config.variant == "variational" else control.CELLWISE
    )
    solution = control.solve_discrete(problem, mesh, variant, tol=config.tol)
    discrete = solution.control
    if config.variant == "postproc":
        discrete = control.post_process(
            solution, config.alpha, config.lower, config.upper
        )
    return solution, discrete


def _study_meshes(config):
    """The meshes of the study's levels, coarsest first, from one chain.

    The finest level is built once; each coarser one is its ancestor in the
    refinement chain that ``refine_uniform`` keeps.
    """
    return _ancestors(_build_mesh(config, config.level_max), config.level_min)[::-1]


def _level_error(config, exact, mesh):
    """Solve on one level's mesh and measure the error against the exact solution."""
    if config.variant == "greens":
        g = fem.assemble_stiffness(mesh)
        factorization = fem.factorize(g)
        field = g.field(factorization.solve(fem.load_point(mesh, config.center)))
        value = error.l1_error_fe(
            mesh,
            exact.greens,
            field,
            singular_point=config.center,
        )
    else:
        _, discrete = _solve_variant(
            config, control.benchmark_problem(exact), mesh
        )
        value = error.l2_error_control(mesh, exact.control, discrete)
    return error.ConvergenceRecord(
        level=mesh.level,
        h=mesh.h,
        n_vertices=mesh.n_vertices,
        n_cells=mesh.n_cells,
        error=value,
    )


def run_study(config, parallel=False):
    """Run the level sweep of ``config.variant`` and write the CSV.

    The meshes of all levels come from one refinement chain, built before
    any level is solved.  Levels run sequentially unless ``parallel`` is set
    (levels are independent; results are ordered by level either way, so
    the CSV is identical).  On solver divergence nothing is written.

    Returns
    -------
    list of ConvergenceRecord
    """
    exact = _exact_solution(config)
    meshes = _study_meshes(config)

    def solve_level(mesh):
        try:
            return _level_error(config, exact, mesh)
        except control.DivergenceError as exc:
            raise control.DivergenceError(
                f"level {mesh.level}: {exc}", exc.residual_history
            )

    if parallel:
        with ThreadPoolExecutor(max_workers=len(meshes)) as pool:
            records = list(pool.map(solve_level, meshes))
    else:
        records = [solve_level(mesh) for mesh in meshes]
    pairs = [(r.h, r.error) for r in records]
    if len(records) >= 2:
        for record, order in zip(records[1:], error.estimate_eoc(pairs)):
            record.eoc = order
    if config.out is not None:
        _write_csv(records, config.out)
    return records


def _write_csv(records, path):
    """Write the convergence table."""
    lines = ["level,h,n_vertices,n_cells,error,eoc"]
    for r in records:
        eoc = "" if r.eoc is None else _fmt(r.eoc)
        lines.append(
            f"{r.level},{_fmt(r.h)},{r.n_vertices},{r.n_cells},"
            f"{_fmt(r.error)},{eoc}"
        )
    _write_text(path, ("\n".join(lines) + "\n").encode())


def _write_text(path, data):
    """Write bytes to ``path`` atomically (no partial files).

    ``data`` is one bytes object or an iterable of byte chunks, written in
    order in binary mode; callers encode their text.  The bytes go to a
    temp file in the target's directory, which is then renamed over the
    target; on failure the temp file is removed.  The temp file is created
    with mode 0o666 for the kernel to mask with the umask, as ``open``
    would; reading the umask in Python means setting it, which races other
    threads.  An ``OSError`` about the temp file is raised naming ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(
        directory, f"{os.path.basename(path)}.{secrets.token_hex(8)}.tmp"
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.writelines((data,) if isinstance(data, bytes) else data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # the error names the target, not the temp file the user never chose
        if exc.filename == tmp:
            exc.filename, exc.filename2 = path, None
        raise


def run_solve(config):
    """Solve a single level (the low end of the range) and dump the fields.

    The dump is a text file holding the adjoint at every vertex and the
    control at every cell centroid, full precision: every value prints as
    ``format(x, ".17g")``.

    Returns
    -------
    DiscreteSolution
    """
    if config.out is None:
        raise ConfigError("solve requires an output path")
    if config.variant == "greens":
        raise ConfigError("solve applies to the control variants only")
    exact = _exact_solution(config)
    level = config.level_min
    mesh = _build_mesh(config, level)
    solution, discrete = _solve_variant(
        config, control.benchmark_problem(exact), mesh
    )
    centroids = cell_centroids(mesh)
    third = np.full(3, 1.0 / 3.0)
    values = discrete.sample_cells(third[None, :]).ravel()
    header = (
        f"# level {level} variant {config.variant}\n"
        f"# iterations {solution.iterations} residual {_fmt(solution.residual)}\n"
        f"# adjoint ({mesh.n_vertices} vertices: x y value)\n"
    )
    _write_text(config.out, itertools.chain(
        [header.encode()],
        text_rows(*mesh.vertices.T, solution.adjoint.values),
        [f"# control ({mesh.n_cells} cell centroids: x y value)\n".encode()],
        text_rows(*centroids.T, values),
    ))
    return solution


def run_oracle_check(config):
    """Compare the cellwise solver against the dense oracles, per level.

    Bounded problems go against the projected-gradient quadratic program
    (match to 1e-8); unbounded ones against the dense saddle-point solve
    (match to 1e-10).

    Returns
    -------
    list of dict with keys level, max_diff, tol, passed.
    """
    if config.variant != "cellwise":
        raise ConfigError("oracle check applies to the cellwise variant")
    if config.level_max > 2:
        raise ConfigError("oracle check is dense; restrict levels to <= 2")
    exact = _exact_solution(config)
    problem = control.benchmark_problem(exact)
    unbounded = np.isinf(config.lower) and np.isinf(config.upper)
    reports = []
    for level in config.levels:
        mesh = _build_mesh(config, level)
        solution, _ = _solve_variant(config, problem, mesh)
        values = solution.control.values
        if unbounded:
            reference = oracle.unconstrained_kkt(problem, mesh)[0]
            tol = KKT_MATCH_TOL
        else:
            reference = oracle.cellwise_qp_oracle(problem, mesh)
            tol = ORACLE_MATCH_TOL
        diff = float(np.max(np.abs(values - reference)))
        reports.append(
            {"level": level, "max_diff": diff, "tol": tol, "passed": diff <= tol}
        )
    return reports


def run_mesh_dump(config):
    """Write the level-range-low mesh as text to the output path."""
    if config.out is None:
        raise ConfigError("mesh-dump requires an output path")
    mesh = _build_mesh(config, config.level_min)
    _write_text(config.out, format_mesh(mesh).encode())
    return mesh


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="ptcontrol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("study", "solve", "oracle", "mesh-dump"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        for key, (_, _, _, help_text) in _KEYS.items():
            if help_text is not None:
                p.add_argument(f"--{key}", help=help_text)
        if name == "study":
            p.add_argument(
                "--parallel-levels", action="store_true",
                help="run study levels concurrently",
            )
    return parser


def _config_from_args(args):
    if args.config is not None:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        config = parse_config(text)
    else:
        config = StudyConfig()
    flags = {key: text for key, text in vars(args).items()
             if key in _KEYS and text is not None}
    return replace(config, **_fields(flags))


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if args.command == "study":
            records = run_study(config, parallel=args.parallel_levels)
            for r in records:
                eoc = "" if r.eoc is None else f" eoc={r.eoc:.3f}"
                print(
                    f"level {r.level}: h={r.h:.6g} error={r.error:.6g}{eoc}"
                )
            if config.out is not None:
                print(f"wrote {config.out}")
        elif args.command == "solve":
            solution = run_solve(config)
            print(
                f"converged in {solution.iterations} iterations, "
                f"residual {solution.residual:.3e}, wrote {config.out}"
            )
        elif args.command == "oracle":
            reports = run_oracle_check(config)
            failed = False
            for r in reports:
                status = "PASS" if r["passed"] else "FAIL"
                print(
                    f"level {r['level']}: max diff {r['max_diff']:.3e} "
                    f"(tol {r['tol']:g}) {status}"
                )
                failed = failed or not r["passed"]
            if failed:
                return 1
        else:
            mesh = run_mesh_dump(config)
            print(
                f"wrote {config.out} ({mesh.n_vertices} vertices, "
                f"{mesh.n_cells} cells)"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (control.DivergenceError, oracle.OracleError, fem.FactorizationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
