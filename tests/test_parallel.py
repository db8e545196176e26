"""The work shared by the calling thread and one helper thread.

``_parallel.drain`` hands the chunks of the error quadrature and of
``load_smooth``, and the blocks of the text dumps, to the caller and a
helper.  These tests check that the results keep their bits, and the dumps
their bytes, whichever thread runs a chunk, that the caller's
``np.errstate`` holds in the helper, that a failure stops the hand-out and
propagates, and that ``drain`` cannot deadlock when the helper's pool is busy.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptcontrol import _parallel, _text, cli, error, fem
from ptcontrol.control import VariationalControl
from ptcontrol.greens import ExactSolution
from ptcontrol.mesh import build_disc_mesh, format_mesh
from ptcontrol.quadrature import rule_degree4

TIMEOUT_S = 30.0
DRAIN = _parallel.drain
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
    monkeypatch.setattr(error, "drain", helper_joins)
    monkeypatch.setattr(fem, "drain", helper_joins)


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
       budget=st.sampled_from([1, 192, 4 * 192 + 5, error.CHUNK_POINTS])
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
            patch.setattr(error, "CHUNK_POINTS", budget)
            if helper:
                patch.setattr(error, "drain", helper_joins)
                patch.setattr(fem, "drain", helper_joins)
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
    assert len(points) > error.CHUNK_POINTS
    fvals = EXACT.source(points).reshape(mesh.n_cells, len(weights))
    want = fem._scatter_cell_loads(
        mesh, ((fvals * weights) @ bary) * mesh.cell_areas()[:, None])
    got = fem.load_smooth(mesh, EXACT.source)
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
    monkeypatch.setattr(error, "CHUNK_POINTS", 4 * 192)
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
    monkeypatch.setattr(error, "CHUNK_POINTS", 2 * 192)
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
