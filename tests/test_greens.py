import numpy as np
import pytest

from ptcontrol import fem
from ptcontrol.cli import StudyConfig, run_study
from ptcontrol.error import eoc_least_squares
from ptcontrol.greens import ExactSolution
from ptcontrol.mesh import build_disc_mesh

from oracles import bisect_root


@pytest.fixture(scope="module")
def narrow():
    return ExactSolution(lower=-0.2, upper=0.2)


def test_greens_vanishes_on_boundary(narrow):
    assert narrow.greens_radial(0.5) == 0.0
    angles = np.linspace(0.0, 2 * np.pi, 17)
    rim = np.column_stack(
        [0.5 + 0.5 * np.cos(angles), 0.5 + 0.5 * np.sin(angles)]
    )
    assert np.max(np.abs(narrow.greens(rim))) <= 1e-15


def test_greens_closed_form_values(narrow):
    assert narrow.greens_radial(0.25) == pytest.approx(
        np.log(2.0) / (2 * np.pi), rel=1e-15
    )
    assert narrow.greens_radial(0.0) == np.inf


def test_greens_radial_monotone(narrow):
    r = np.linspace(1e-6, 0.5, 10_000)
    values = narrow.greens_radial(r)
    assert np.all(np.diff(values) < 0)
    assert np.all(values >= 0)


def test_state_and_target(narrow):
    assert narrow.state(np.array([0.5, 0.5])) == 1.0
    assert narrow.target() == 0.0
    # state vanishes on the boundary circle
    assert narrow.state(np.array([1.0, 0.5])) == pytest.approx(0.0, abs=1e-15)


def test_active_radius_matches_bisection(narrow):
    level = 0.2  # z equals -lower * alpha at the active-set boundary
    root = bisect_root(lambda r: narrow.greens_radial(r) - level, 1e-6, 0.4999)
    r_star = narrow.active_radius()
    assert r_star == pytest.approx(root, abs=1e-12)
    assert r_star == pytest.approx(0.142307, abs=5e-6)


def test_active_radius_wide_bounds():
    wide = ExactSolution(lower=-1.0, upper=1.0)
    root = bisect_root(lambda r: wide.greens_radial(r) - 1.0, 1e-12, 0.4999)
    assert wide.active_radius() == pytest.approx(root, rel=1e-10)
    assert wide.active_radius() < 1e-3
    unconstrained = ExactSolution(lower=-np.inf, upper=np.inf)
    assert unconstrained.active_radius() == 0.0


def test_control_saturates_inside_active_radius(narrow):
    r_star = narrow.active_radius()
    rng = np.random.default_rng(6)
    t = 2 * np.pi * rng.random(64)
    r = 0.5 * r_star * np.sqrt(rng.random(64))
    points = np.column_stack(
        [0.5 + r * np.cos(t), 0.5 + r * np.sin(t)]
    )
    assert np.all(narrow.control(points) == -0.2)


def test_control_sign_structure(narrow):
    rng = np.random.default_rng(8)
    t = 2 * np.pi * rng.random(256)
    r = 0.5 * np.sqrt(rng.random(256))
    points = np.column_stack([0.5 + r * np.cos(t), 0.5 + r * np.sin(t)])
    q = narrow.control(points)
    # adjoint is non-negative, so the control sits in [lower, 0]
    assert np.all(q <= 1e-12)
    assert np.all(q >= -0.2 - 1e-12)


def test_source_closed_form_values():
    wide = ExactSolution(lower=-1.0, upper=1.0)
    assert wide.source_radial(0.0) == pytest.approx(2 * np.pi**2 + 1.0, rel=1e-14)
    assert wide.source_radial(0.5) == pytest.approx(2 * np.pi, rel=1e-13)
    narrow = ExactSolution(lower=-0.2, upper=0.2)
    assert narrow.source_radial(0.0) == pytest.approx(2 * np.pi**2 + 0.2, rel=1e-14)


def test_source_series_seam_continuous(narrow):
    # the radial term switches to its series limit near zero; the two
    # branches agree where they meet
    left = narrow.source_radial(0.99e-8)
    right = narrow.source_radial(1.01e-8)
    assert left == pytest.approx(right, rel=1e-9)


def test_source_vectorized_matches_radial(narrow):
    rng = np.random.default_rng(12)
    t = 2 * np.pi * rng.random(32)
    r = 0.499 * np.sqrt(rng.random(32))
    points = np.column_stack([0.5 + r * np.cos(t), 0.5 + r * np.sin(t)])
    assert np.allclose(narrow.source(points), narrow.source_radial(r), rtol=1e-13)


@pytest.mark.parametrize("bounds", [(-0.2, 0.2), (-1.0, 1.0), (-np.inf, 0.3)])
def test_fields_match_norm_based_values_bitwise(bounds):
    # the distance to the center and the fields built on it equal, bit for
    # bit, the plain formulas on np.linalg.norm(x - center, axis=1)
    lower, upper = bounds
    exact = ExactSolution(center=(0.3, 0.6), radius=0.5, alpha=0.7,
                          lower=lower, upper=upper)
    rng = np.random.default_rng(3)
    points = np.vstack([(0.3, 0.6), 0.3 + rng.random((500, 2)) - 0.5, (0.8, 0.6)])
    with np.errstate(divide="ignore"):
        r = np.linalg.norm(points - exact.center, axis=1)
        greens = np.log(exact.radius / r) / (2.0 * np.pi)
    control = np.clip(-greens / exact.alpha, lower, upper)
    small = r < 1e-8
    safe = np.where(small, 1.0, r)
    radial = np.where(small, np.pi**2, np.pi * np.sin(np.pi * safe) / safe)
    source = np.pi**2 * np.cos(np.pi * r) + radial - control
    assert greens[0] == np.inf and control[0] == lower
    assert np.array_equal(exact.greens(points), greens)
    assert np.array_equal(exact.control(points), control)
    assert np.array_equal(exact.source(points), source)
    for k in (0, 1, len(points) - 1):
        assert exact.greens(points[k]) == greens[k]
        assert exact.control(points[k]) == control[k]
        assert exact.source(points[k]) == source[k]


@pytest.mark.parametrize("radius", [0.3, 0.5, 0.8, 2.0])
def test_state_vanishes_on_the_rim_of_any_disc(radius):
    exact = ExactSolution(center=(0.5, 0.5), radius=radius, alpha=0.7)
    angles = np.linspace(0.0, 2 * np.pi, 17)
    rim = 0.5 + radius * np.column_stack([np.cos(angles), np.sin(angles)])
    assert np.max(np.abs(exact.state(rim))) <= 1e-15
    assert exact.state(exact.center) == 1.0 and exact.target() == 0.0


@pytest.mark.parametrize("radius", [0.3, 0.5, 0.8, 2.0])
@pytest.mark.parametrize("bounds", [(-0.2, 0.2), (-np.inf, np.inf)])
def test_state_equation_holds_on_the_radial_closed_form(radius, bounds):
    # -Laplace(u) = f + q, with the radial Laplacian u'' + u'/r of the
    # state taken by central differences along a ray, a check independent
    # of the closed form of the source; the differences are off by
    # O(h^2) k^4 with k = pi / (2 R)
    lower, upper = bounds
    exact = ExactSolution(center=(0.5, 0.5), radius=radius, alpha=0.7,
                          lower=lower, upper=upper)
    r = radius * np.linspace(0.05, 0.95, 19)
    h = 1e-4 * radius

    def along(field, t):
        return field(np.column_stack([0.5 + t, np.full_like(t, 0.5)]))

    u_minus, u, u_plus = (along(exact.state, r + d) for d in (-h, 0.0, h))
    laplacian = (u_plus - 2.0 * u + u_minus) / h**2 + (u_plus - u_minus) / (2.0 * h * r)
    rhs = along(exact.source, r) + along(exact.control, r)
    scale = (np.pi / (2.0 * radius)) ** 2
    assert np.max(np.abs(-laplacian - rhs)) <= 1e-5 * scale


def test_variational_study_on_a_smaller_disc_converges_at_second_order():
    # the A2 band on a disc of radius 0.3: with a state that did not vanish
    # on its rim the errors stalled at 0.027 with EOCs near zero
    records = run_study(StudyConfig(variant="variational", level_min=2, level_max=6,
                                    radius=0.3, lower=-0.2, upper=0.2))
    assert records[-1].error < 1e-5
    assert 1.70 <= eoc_least_squares([(r.h, r.error) for r in records]) <= 2.35


def test_fem_self_check_reproduces_state(narrow):
    # solving the state equation with the exact control reproduces the
    # exact state at the tracking point
    mesh = build_disc_mesh(level=5)
    matrix = fem.assemble_stiffness(mesh)
    control_cells = fem.centroid_project(mesh, narrow.control)
    b = fem.load_smooth(mesh, narrow.source) + fem.load_cellwise(
        mesh, control_cells.values
    )
    u = matrix.field(fem.factorize(matrix).solve(b))
    assert fem.evaluate(u, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-3)


def test_validation():
    with pytest.raises(ValueError):
        ExactSolution(alpha=0.0)
    with pytest.raises(ValueError):
        ExactSolution(lower=0.3, upper=0.2)
    with pytest.raises(ValueError):
        ExactSolution(radius=-0.5)
    with pytest.raises(ValueError):
        ExactSolution(radius=np.inf)
    with pytest.raises(ValueError):
        ExactSolution(center=(np.nan, 0.5))
