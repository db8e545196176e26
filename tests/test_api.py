import ast
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import ptcontrol

PUBLIC_API = [
    "AT_BOUND",
    "CELLWISE",
    "CUT",
    "CapacityError",
    "CellwiseFunction",
    "ControlProblem",
    "ConvergenceRecord",
    "DiscDomain",
    "DiscreteSolution",
    "DivergenceError",
    "ExactSolution",
    "FREE",
    "Factorization",
    "FactorizationError",
    "FeFunction",
    "Mesh",
    "MeshError",
    "PointNotFoundError",
    "ReducedSystem",
    "StiffnessMatrix",
    "VARIATIONAL",
    "VariationalControl",
    "__version__",
    "assemble_stiffness",
    "audit_mesh",
    "benchmark_problem",
    "build_disc_mesh",
    "build_square_mesh",
    "centroid_project",
    "classify_cells",
    "cut_area_ratio",
    "eoc_least_squares",
    "estimate_eoc",
    "evaluate",
    "factorize",
    "format_mesh",
    "l1_error_fe",
    "l2_error_control",
    "l2_norm",
    "l2_project_cells",
    "load_cellwise",
    "load_clipped_linear",
    "load_point",
    "load_smooth",
    "locate_point",
    "post_process",
    "refine_uniform",
    "solve_discrete",
]


def test_public_api_is_pinned():
    # the package's public names change only together with this list
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(ptcontrol.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(ptcontrol, name) is not None
    for removed in (
        "coefficient_residual",
        "reduced_gradient",
        "CellwiseControl",
        "project_interval",
        "SquareDomain",
        "cell_centroid",
        "parse_mesh",
        "assemble_mass",
        "clipped_field_l2_sq",
    ):
        assert removed not in ptcontrol.__all__
        assert not hasattr(ptcontrol, removed)
    # only tests and the benchmark's tracer call it, through the module
    assert callable(ptcontrol.fem.clipped_field_l2_sq)
    # point location tests bounding boxes; no per-cell inverse maps are kept
    assert not hasattr(ptcontrol.Mesh, "barycentric_maps")


def test_classify_cells_takes_no_tolerance():
    # the tags come from the vertex values alone; perfbench/spans.py calls
    # classify_cells(mesh, control, lower, upper) positionally
    parameters = inspect.signature(ptcontrol.classify_cells).parameters
    assert list(parameters) == ["mesh", "control", "lower", "upper"]
    assert not hasattr(ptcontrol.error, "CLASSIFY_RTOL")
    assert not hasattr(ptcontrol.error, "_CLASSIFY_BARY")


def test_fem_does_not_import_error():
    # the node map lives in mesh and the chunk loop in _parallel, so fem
    # sits below error: it binds no error name and imports nothing of it
    assert not hasattr(ptcontrol.fem, "error")
    tree = ast.parse(pathlib.Path(ptcontrol.fem.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # "from .error import x", "from . import error" and their
            # absolute forms all name ".error" or "ptcontrol.error"
            base = "." * node.level + (node.module or "")
            modules.add(base)
            modules.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    assert not modules & {".error", "ptcontrol.error"}, modules


SOLUTION_FIELDS = [
    "adjoint",
    "coefficients",
    "control",
    "iterations",
    "objective_history",
    "residual",
]


def test_solution_fields_are_pinned():
    # a discrete solution holds what the Newton iteration computed; its
    # fields change only together with this list
    assert SOLUTION_FIELDS == sorted(SOLUTION_FIELDS)
    names = [f.name for f in dataclasses.fields(ptcontrol.DiscreteSolution)]
    assert sorted(names) == SOLUTION_FIELDS
    assert "state" not in names
    assert not hasattr(ptcontrol.ReducedSystem, "state_of_load")


def test_cli_import_leaves_out_sparse_linalg():
    # every solve is the package's own PCG with a dense bottom, so the CLI
    # does not pay for importing scipy's sparse solvers
    env = dict(os.environ)
    src = str(pathlib.Path(ptcontrol.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, ptcontrol.cli; print(*sys.modules, sep='\\n')"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    modules = result.stdout.split()
    assert "ptcontrol.cli" in modules
    assert "scipy.sparse.linalg" not in modules
