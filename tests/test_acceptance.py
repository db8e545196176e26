"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line straight to the terminal."""

import time

import numpy as np
import pytest

from ptcontrol import fem, oracle
from ptcontrol.cli import StudyConfig, run_study
from ptcontrol.control import (
    CELLWISE,
    VARIATIONAL,
    benchmark_problem,
    solve_discrete,
)
from ptcontrol.error import (
    CUT,
    classify_cells,
    cut_area_ratio,
    eoc_least_squares,
)
from ptcontrol.greens import ExactSolution
from ptcontrol.mesh import build_disc_mesh

from oracles import clipped_loads_on_mesh

RUNTIME_BUDGET_SECONDS = 300.0


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_reports(capsys):
    # report() suspends capture while printing, so the PASS/FAIL lines
    # reach the terminal even without -s
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(tag, ok, detail):
    line = f"[{tag}] {detail}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is None:
        print(line)
    else:
        with _CAPTURE.disabled():
            print(line)
    return ok


@pytest.fixture(scope="module")
def wide_study():
    start = time.time()
    records = run_study(
        StudyConfig(variant="cellwise", level_min=2, level_max=7,
                    lower=-1.0, upper=1.0)
    )
    return records, time.time() - start


@pytest.fixture(scope="module")
def narrow_studies():
    out = {}
    for variant in ("variational", "postproc"):
        out[variant] = run_study(
            StudyConfig(variant=variant, level_min=2, level_max=6,
                        lower=-0.2, upper=0.2)
        )
    return out


@pytest.fixture(scope="module")
def greens_fields():
    fields = {}
    for level in range(2, 7):
        mesh = build_disc_mesh(level=level)
        matrix = fem.assemble_stiffness(mesh)
        solved = fem.factorize(matrix).solve(fem.load_point(mesh, (0.5, 0.5)))
        fields[level] = (mesh, matrix.field(solved))
    return fields


def test_a1_cellwise_first_order(wide_study):
    records, elapsed = wide_study
    slope = eoc_least_squares([(r.h, r.error) for r in records])
    ok = 0.85 <= slope <= 1.30 and elapsed < RUNTIME_BUDGET_SECONDS
    assert report(
        "A1",
        ok,
        f"cellwise rate levels 2-7: ls-eoc {slope:.3f} in [0.85, 1.30], "
        f"{elapsed:.0f}s < {RUNTIME_BUDGET_SECONDS:.0f}s",
    )


def test_a2_postprocessed_second_order(narrow_studies):
    slope = eoc_least_squares(
        [(r.h, r.error) for r in narrow_studies["postproc"]]
    )
    ok = 1.70 <= slope <= 2.35
    assert report(
        "A2", ok, f"post-processed rate levels 2-6: ls-eoc {slope:.3f} in "
        f"[1.70, 2.35]"
    )


def test_a3_variational_second_order(narrow_studies):
    slope = eoc_least_squares(
        [(r.h, r.error) for r in narrow_studies["variational"]]
    )
    ok = 1.70 <= slope <= 2.35
    assert report(
        "A3", ok, f"variational rate levels 2-6: ls-eoc {slope:.3f} in "
        f"[1.70, 2.35]"
    )


def test_a4_greens_l1_rate_and_l2_bound(greens_fields):
    exact = ExactSolution()
    records = run_study(StudyConfig(variant="greens", level_min=2, level_max=6))
    slope = eoc_least_squares([(r.h, r.error) for r in records])
    norms = [fem.l2_norm(field) for _, field in
             (greens_fields[lv] for lv in range(4, 7))]
    spread = (max(norms) - min(norms)) / max(norms)
    ok = 1.60 <= slope <= 2.35 and spread < 0.05
    assert report(
        "A4", ok,
        f"point-source field: L1 ls-eoc {slope:.3f} in [1.60, 2.35], "
        f"L2 norm spread {100 * spread:.2f}% < 5%",
    )


def test_a5_oracle_equivalence():
    worst = 0.0
    for lower, upper in ((-1.0, 1.0), (-0.2, 0.2)):
        problem = benchmark_problem(ExactSolution(lower=lower, upper=upper))
        for level in (1, 2):
            mesh = build_disc_mesh(level=level)
            solution = solve_discrete(problem, mesh, CELLWISE)
            reference = oracle.cellwise_qp_oracle(problem, mesh)
            diff = float(
                np.max(np.abs(solution.control.values - reference))
            )
            worst = max(worst, diff)
    ok = worst <= 1e-8
    assert report(
        "A5", ok,
        f"cellwise vs dense QP oracle, levels 1-2, both bounds: "
        f"max cell diff {worst:.2e} <= 1e-8",
    )


def test_a6_optimality_system_audit():
    problem = benchmark_problem(ExactSolution(lower=-0.2, upper=0.2))
    mesh = build_disc_mesh(level=3)

    cellwise = solve_discrete(problem, mesh, CELLWISE)
    values = cellwise.control.values
    z_means = cellwise.adjoint.values[mesh.cells].mean(axis=1)
    projection_gap = float(
        np.max(np.abs(values - np.clip(-z_means / problem.alpha, -0.2, 0.2)))
    )

    variational = solve_discrete(problem, mesh, VARIATIONAL)
    bary = np.array([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25],
                     [0.1, 0.1, 0.8]])
    sampled = variational.control.sample_cells(bary)
    z_sampled = variational.adjoint.sample_cells(bary)
    pointwise_gap = float(
        np.max(np.abs(sampled - np.clip(-z_sampled / problem.alpha, -0.2, 0.2)))
    )

    # variational inequality: the reduced gradient pushes outward at the
    # bounds and vanishes on the free region
    cell_gradient = problem.alpha * values + z_means
    at_lower = values <= -0.2 + 1e-13
    at_upper = values >= 0.2 - 1e-13
    free = ~(at_lower | at_upper)
    sign_violation = 0.0
    if at_lower.any():
        sign_violation = max(sign_violation, float(-cell_gradient[at_lower].min()))
    if at_upper.any():
        sign_violation = max(sign_violation, float(cell_gradient[at_upper].max()))
    if free.any():
        sign_violation = max(sign_violation,
                             float(np.max(np.abs(cell_gradient[free]))))

    ok = projection_gap <= 1e-12 and pointwise_gap <= 1e-12 \
        and sign_violation <= 1e-10
    assert report(
        "A6", ok,
        f"projection formula gaps {projection_gap:.2e}/{pointwise_gap:.2e} "
        f"<= 1e-12, inequality sign violation {sign_violation:.2e} <= 1e-10",
    )


def test_a7_cut_cell_band():
    exact = ExactSolution(lower=-0.2, upper=0.2)
    ratios = []
    for level in range(2, 7):
        mesh = build_disc_mesh(level=level)
        tags = classify_cells(mesh, exact.control, -0.2, 0.2)
        ratios.append(cut_area_ratio(tags, mesh))
    band = max(ratios) / min(ratios)
    ok = band <= 2.0
    assert report(
        "A7", ok,
        f"cut-cell area ratios levels 2-6 within factor {band:.2f} <= 2",
    )


def test_a8_fem_invariants():
    mesh = build_disc_mesh(level=2)
    matrix = fem.assemble_stiffness(mesh)
    symmetric = (matrix.mat != matrix.mat.T).nnz == 0
    definite = np.linalg.eigvalsh(
        fem.assemble_stiffness(build_disc_mesh(level=1)).mat.toarray()
    ).min() > 0

    rng = np.random.default_rng(1)
    partition = True
    for _ in range(10):
        r, t = 0.4 * np.sqrt(rng.random()), 2 * np.pi * rng.random()
        load = fem.load_point(mesh, (0.5 + r * np.cos(t), 0.5 + r * np.sin(t)))
        partition = partition and abs(load.sum() - 1.0) <= 1e-12

    affine = fem.FeFunction(mesh, 2 * mesh.vertices[:, 0] - mesh.vertices[:, 1])
    projected = fem.l2_project_cells(mesh, affine)
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    centroid_exact = np.max(np.abs(
        projected.values - (2 * centroids[:, 0] - centroids[:, 1])
    )) <= 1e-13
    nodal = fem.FeFunction(mesh, np.repeat(projected.values[:1], mesh.n_vertices))
    idempotent = np.max(np.abs(
        fem.l2_project_cells(mesh, nodal).values - nodal.values[0]
    )) <= 1e-14

    w = 0.4 * rng.standard_normal(mesh.n_vertices)
    clipped_gap = float(np.max(np.abs(
        fem.load_clipped_linear(mesh, w, -0.3, 0.3, 1.0)
        - clipped_loads_on_mesh(mesh, w, -0.3, 0.3, 1.0)
    )))

    exact = ExactSolution()
    state_mesh = build_disc_mesh(level=3)
    state_matrix = fem.assemble_stiffness(state_mesh)
    b = fem.load_smooth(state_mesh, exact.source)
    residual = float(np.max(np.abs(
        state_matrix.mat @ fem.factorize(state_matrix).solve(b) - b
    )))

    ok = symmetric and definite and partition and centroid_exact \
        and idempotent and clipped_gap <= 1e-12 and residual <= 1e-9
    assert report(
        "A8", ok,
        f"fem invariants: symmetry {symmetric}, definite {definite}, "
        f"delta partition {partition}, projection exact {centroid_exact}, "
        f"idempotent {idempotent}, clipped-load gap {clipped_gap:.2e}, "
        f"galerkin residual {residual:.2e}",
    )


def test_a9_study_determinism(tmp_path):
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        run_study(StudyConfig(variant="cellwise", level_min=2, level_max=4,
                              lower=-1.0, upper=1.0, out=str(path)))
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    assert report("A9", ok, "consecutive study runs byte-identical")
