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
    "clipped_field_l2_sq",
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
    ):
        assert removed not in ptcontrol.__all__
        assert not hasattr(ptcontrol, removed)
