"""The work shared by the calling thread and one helper thread.

``_parallel.drain`` hands the levels of a study, the chunks of the error
quadrature and of ``load_smooth``, and the blocks of the text dumps, to the
caller and a helper.  These tests check that the results keep their bits,
and the dumps and study tables their bytes, whichever thread runs a level or
a chunk, that a study raises the failure of its coarsest failing level, that
the caller's ``np.errstate`` holds in the helper, that a failure stops the
hand-out and propagates, and that ``drain`` cannot deadlock when the
helper's pool is busy.
"""

import dataclasses
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptcontrol import _parallel, _text, cli, control, error, fem
from ptcontrol.control import VariationalControl
from ptcontrol.greens import ExactSolution
from ptcontrol.mesh import build_disc_mesh, build_square_mesh, format_mesh, refine_uniform
from ptcontrol.quadrature import rule_degree4

from oracles import sliced_load_smooth

TIMEOUT_S = 30.0
DRAIN = _parallel.drain
LEVEL_ERROR = cli._level_error
EXACT = ExactSolution(lower=-0.2, upper=0.2)
MESHES = {level: build_disc_mesh(level=level) for level in range(6)}


def helper_joins(fn, items):
    """``drain`` in which the helper runs at least one item of every call with two.

    The caller holds its first item until the helper has started one, so the
    helper takes the second.
    """
    items = list(items)
    if len(items) < 2:
        return DRAIN(fn, items)
    caller = threading.get_ident()
    joined = threading.Event()

    def gated(item):
        if threading.get_ident() != caller:
            joined.set()
        elif not joined.wait(TIMEOUT_S):
            raise AssertionError("the helper thread never took an item")
        fn(item)

    DRAIN(gated, items)
    assert joined.is_set()


@pytest.fixture
def with_helper(monkeypatch):
    monkeypatch.setattr(_parallel, "drain", helper_joins)


def quadratic(c):
    return lambda p: (c[0] + c[1] * p[:, 0] + c[2] * p[:, 1] + c[3] * p[:, 0] ** 2
                      + c[4] * p[:, 0] * p[:, 1] + c[5] * p[:, 1] ** 2)


def results(mesh, exact, discrete, source):
    return (error.l2_error_control(mesh, exact, discrete),
            error.l1_error_fe(mesh, exact, discrete, singular_point=mesh.domain.center),
            fem.load_smooth(mesh, source))


@settings(max_examples=30, deadline=None)
@given(level=st.integers(0, 4),
       kind=st.sampled_from(["fe", "cellwise", "variational"]),
       closed_form=st.booleans(),
       c=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([1, 192, 4 * 192 + 5, _parallel.CHUNK_POINTS])
       | st.integers(64, 20000))
def test_helper_keeps_every_bit(level, kind, closed_form, c, seed, budget):
    # the same budget with the helper taking chunks and without a helper
    # (one usable CPU): l2 and l1 errors and the load are bitwise equal
    mesh = MESHES[level]
    rng = np.random.default_rng(seed)
    nodal = fem.FeFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_vertices))
    discrete = {
        "fe": nodal,
        "cellwise": fem.CellwiseFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_cells)),
        "variational": VariationalControl(nodal, 0.5, -0.3, 0.3),
    }[kind]
    exact, source = (EXACT.control, EXACT.source) if closed_form else (quadratic(c),) * 2
    runs = []
    for helper in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_parallel, "CHUNK_POINTS", budget)
            if helper:
                patch.setattr(_parallel, "drain", helper_joins)
            else:
                patch.setattr(_parallel, "_usable_cpus", lambda: 1)
            runs.append(results(mesh, exact, discrete, source))
    (l2, l1, load), (l2_serial, l1_serial, load_serial) = runs
    assert np.float64(l2).view(np.int64) == np.float64(l2_serial).view(np.int64)
    assert np.float64(l1).view(np.int64) == np.float64(l1_serial).view(np.int64)
    assert np.array_equal(load.view(np.int64), load_serial.view(np.int64))


def test_load_smooth_keeps_the_bits_of_one_call():
    # chunk slices of the default size evaluate the field as one call on
    # every quadrature point did
    mesh = build_disc_mesh(level=6)
    bary, weights = rule_degree4()
    points = np.matmul(bary, mesh.vertices[mesh.cells]).reshape(-1, 2)
    assert len(points) > _parallel.CHUNK_POINTS
    fvals = EXACT.source(points).reshape(mesh.n_cells, len(weights))
    want = fem._scatter_cell_loads(
        mesh, ((fvals * weights) @ bary) * mesh.cell_areas()[:, None])
    got = fem.load_smooth(mesh, EXACT.source)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


SMOOTH_FIELDS = (EXACT.source, quadratic([0.3, -1.2, 0.7, 2.0, -0.4, 1.1]),
                 lambda p: np.sin(7.0 * p[:, 0]) * np.exp(p[:, 1]))


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
@pytest.mark.parametrize("threads", ["helper", "caller"])
def test_load_smooth_keeps_the_bits_of_the_sliced_formula(monkeypatch, build, threads):
    # each chunk contracts its own values: the load is the one formed from
    # a single array of every node's value, bit for bit, on levels 0-7,
    # with the helper taking chunks and on one CPU
    if threads == "helper":
        monkeypatch.setattr(_parallel, "drain", helper_joins)
    else:
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    mesh = build(level=0)
    for level in range(8):
        if level:
            mesh = refine_uniform(mesh)
        for field in SMOOTH_FIELDS:
            got = fem.load_smooth(mesh, field)
            want = sliced_load_smooth(mesh, field)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def dumps(tmp_path, name):
    """The level-5 variational and cellwise solve dumps and the level-5 mesh dump."""
    files = []
    for variant in ("variational", "cellwise"):
        out = tmp_path / f"{name}-{variant}.txt"
        cli.run_solve(cli.StudyConfig(variant=variant, level_min=5, level_max=5,
                                      lower=-0.2, upper=0.2, out=str(out)))
        files.append(out.read_bytes())
    return files + [format_mesh(MESHES[5]).encode()]


def test_dumps_keep_their_bytes_with_and_without_the_helper(tmp_path):
    # blocks of 1000 rows split the 4225 vertex rows and 8192 cell rows of
    # level 5 into 5 and 9 blocks: pairs, and a last block on its own
    assert MESHES[5].n_vertices == 4225 and MESHES[5].n_cells == 8192
    runs = {}
    for block_values in (_text.BLOCK_VALUES, 3 * 1000):
        for helper in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_text, "BLOCK_VALUES", block_values)
                if helper:
                    patch.setattr(_text, "drain", helper_joins)
                else:
                    patch.setattr(_parallel, "_usable_cpus", lambda: 1)
                runs[block_values, helper] = dumps(tmp_path, f"{block_values}-{helper}")
    first = next(iter(runs.values()))
    for files in runs.values():
        assert files == first


STUDY_BOUNDS = {"cellwise": (-1.0, 1.0), "variational": (-0.2, 0.2),
                "postproc": (-0.2, 0.2), "greens": (-1.0, 1.0)}


def study(tmp_path, name, variant):
    """The CSV bytes and the record fields of a level 2..5 study."""
    out = tmp_path / f"{name}-{variant}.csv"
    lower, upper = STUDY_BOUNDS[variant]
    records = cli.run_study(cli.StudyConfig(variant=variant, level_min=2, level_max=5,
                                            lower=lower, upper=upper, out=str(out)))
    return out.read_bytes(), [dataclasses.astuple(r) for r in records]


def coarsest_first(fn, items):
    """``drain`` with the items handed out in reverse order."""
    DRAIN(fn, list(items)[::-1])


def study_threads(patch, threads):
    """Patch ``run_study``'s hand-out of levels for one of three thread set-ups."""
    if threads == "helper":
        patch.setattr(cli, "drain", helper_joins)
    elif threads == "caller":
        patch.setattr(_parallel, "_usable_cpus", lambda: 1)
    else:
        patch.setattr(cli, "drain", coarsest_first)


@pytest.mark.parametrize("variant", sorted(STUDY_BOUNDS))
def test_study_keeps_its_bytes_on_one_thread_and_two(tmp_path, variant):
    # the helper solving some levels, the caller solving all of them, and
    # the levels handed out coarsest first: the same table and records
    runs = {}
    for threads in ("helper", "caller", "coarsest first"):
        with pytest.MonkeyPatch.context() as patch:
            study_threads(patch, threads)
            runs[threads] = study(tmp_path, threads, variant)
    first = runs["helper"]
    assert first[1][-1][0] == 5 and first[1][-1][-1] is not None
    for run in runs.values():
        assert run == first


def failing_at(failures):
    """``cli._level_error`` that raises ``failures[level]`` at the named levels."""
    solved = []

    def fn(config, exact, mesh):
        solved.append(mesh.level)
        if mesh.level in failures:
            raise failures[mesh.level]
        return LEVEL_ERROR(config, exact, mesh)

    return fn, solved


@pytest.mark.parametrize("threads", ["helper", "caller"])
def test_study_raises_its_coarsest_failure(tmp_path, monkeypatch, threads):
    # levels 3 and 5 diverge; whichever finishes first, level 3's error is
    # raised with its level and its residual history, and nothing is written
    study_threads(monkeypatch, threads)
    fn, solved = failing_at({
        3: control.DivergenceError("stalled", [1.0, 0.5, 0.25]),
        5: control.DivergenceError("line search failed", [2.0, 1.5]),
    })
    monkeypatch.setattr(cli, "_level_error", fn)
    out = tmp_path / "study.csv"
    config = cli.StudyConfig(variant="cellwise", level_min=2, level_max=5, out=str(out))
    with pytest.raises(control.DivergenceError) as info:
        cli.run_study(config)
    assert str(info.value) == "level 3: stalled"
    assert info.value.residual_history == [1.0, 0.5, 0.25]
    assert sorted(solved) == [2, 3, 4, 5]
    assert list(tmp_path.iterdir()) == []
    # any other exception propagates as raised
    raised = ValueError("no such level")
    fn, _ = failing_at({4: raised})
    monkeypatch.setattr(cli, "_level_error", fn)
    with pytest.raises(ValueError) as info:
        cli.run_study(config)
    assert info.value is raised
    assert list(tmp_path.iterdir()) == []


class Interrupt(BaseException):
    """Not an ``Exception``, as ``KeyboardInterrupt`` is not."""


def test_study_interrupt_stops_the_hand_out_of_levels(tmp_path, monkeypatch):
    # on one CPU the levels go finest first: the interrupt at level 4 is not
    # kept for later, so levels 3 and 2 never start
    study_threads(monkeypatch, "caller")
    fn, solved = failing_at({4: Interrupt()})
    monkeypatch.setattr(cli, "_level_error", fn)
    with pytest.raises(Interrupt):
        cli.run_study(cli.StudyConfig(variant="cellwise", level_min=2, level_max=5,
                                      out=str(tmp_path / "study.csv")))
    assert solved == [5, 4]
    assert list(tmp_path.iterdir()) == []


def divides_by_zero_in(thread):
    """A field that divides by zero when the named thread evaluates it."""
    caller = threading.get_ident()

    def field(p):
        helper = threading.get_ident() != caller
        zero = np.zeros(len(p))
        if helper == (thread == "helper"):
            return np.divide(1.0, zero)
        return zero

    return field


@pytest.mark.parametrize("thread", ["caller", "helper"])
def test_errstate_holds_in_both_threads(with_helper, monkeypatch, thread):
    mesh = MESHES[3]
    monkeypatch.setattr(_parallel, "CHUNK_POINTS", 4 * 192)
    field = divides_by_zero_in(thread)
    for run in (lambda: error.l2_error_control(mesh, field, fem.FeFunction(
                    mesh, np.zeros(mesh.n_vertices))),
                lambda: fem.load_smooth(mesh, field)):
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                run()
        # ignored, the division gives no warning (an error under the suite's
        # filters) in either thread, and a non-finite result
        with np.errstate(all="ignore"):
            assert not np.isfinite(run()).all()


def test_first_failure_propagates_and_stops_the_hand_out():
    started = []
    lock = threading.Lock()

    def fn(item):
        with lock:
            started.append(item)
        if item == 5:
            raise KeyError(item)
        time.sleep(0.001)

    with pytest.raises(KeyError):
        DRAIN(fn, range(1000))
    count = len(started)
    # the hand-out stopped at the failure, long before the last item, and
    # nothing starts after drain returns
    assert 5 in started and count < 500
    time.sleep(0.05)
    assert len(started) == count


def test_field_failure_propagates_from_the_quadrature(with_helper, monkeypatch):
    mesh = MESHES[3]
    monkeypatch.setattr(_parallel, "CHUNK_POINTS", 2 * 192)
    calls = []

    def field(p):
        calls.append(len(p))
        if len(calls) == 3:
            raise ValueError("field failed")
        return np.zeros(len(p))

    with pytest.raises(ValueError, match="field failed"):
        error.l2_error_control(mesh, field, field)
    count = len(calls)
    assert count < mesh.n_cells // 2
    time.sleep(0.05)
    assert len(calls) == count


def test_drain_inside_the_pool_thread_completes():
    # the helper's one thread is busy running this call, so the helper the
    # call submits cannot start: the caller runs every item itself, and a
    # nested call from inside an item completes too
    done = []

    def nested(item):
        DRAIN(done.append, [2 * item, 2 * item + 1])

    future = _parallel._POOL.submit(DRAIN, nested, range(10))
    future.result(timeout=TIMEOUT_S)
    assert sorted(done) == list(range(20))


def test_first_item_runs_in_the_calling_thread(monkeypatch):
    # also when the drain starts the pool's thread, which could otherwise
    # take the first item while the caller waits for the thread to start
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    for _ in range(20):
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(_parallel, "_POOL", pool)
        threads = {}
        try:
            DRAIN(lambda item: threads.setdefault(item, threading.get_ident()), range(3))
        finally:
            pool.shutdown(wait=True)
        assert threads[0] == threading.get_ident()


def test_study_solves_its_finest_level_in_the_calling_thread(tmp_path, monkeypatch):
    # so that the finest level's error chunks can go to the helper
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(_parallel, "_POOL", pool)
    threads = {}

    def fn(config, exact, mesh):
        threads[mesh.level] = threading.get_ident()
        return LEVEL_ERROR(config, exact, mesh)

    monkeypatch.setattr(cli, "_level_error", fn)
    try:
        cli.run_study(cli.StudyConfig(variant="greens", level_min=2, level_max=4,
                                      out=str(tmp_path / "study.csv")))
    finally:
        pool.shutdown(wait=True)
    assert threads[4] == threading.get_ident()


def test_helper_follows_the_affinity_mask(monkeypatch):
    threads = set()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    DRAIN(lambda item: threads.add(threading.get_ident()), range(100))
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("cpus", [1, 2])
def test_cpu_count_where_there_is_no_affinity_call(monkeypatch, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    threads = set()
    meet = threading.Barrier(cpus, timeout=TIMEOUT_S)

    def fn(item):
        threads.add(threading.get_ident())
        meet.wait()

    DRAIN(fn, range(cpus))
    assert len(threads) == cpus


def test_many_callers_hand_out_every_item_once():
    # more callers than cores, switching threads every microsecond: an item
    # handed out twice or lost would leave a count other than one
    counts = [np.zeros(2000, dtype=int) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=DRAIN, args=(lambda i, c=c: c.__setitem__(
                       i, c[i] + 1), range(len(c)))) for c in counts]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(TIMEOUT_S)
        assert not any(caller.is_alive() for caller in callers)
    finally:
        sys.setswitchinterval(interval)
    for c in counts:
        assert np.all(c == 1)
