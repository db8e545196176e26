"""One loop shared by the calling thread and one helper thread.

``drain(fn, items)`` calls ``fn`` once on every item of a sequence.  The
caller and one helper thread take the items from one shared iterator under
a lock, so each item runs exactly once, in either thread; the first item
always runs in the calling thread.  The helper joins only when there are
two or more items and the process may run on two or more CPUs: its
affinity mask (``taskset``), or ``os.cpu_count()`` where the platform has
no affinity call.  Otherwise the caller runs every item itself, on the
same code path.

The work gains from the second thread only where it releases the GIL, as
numpy ufuncs and matmuls do.  Each call must write its own part of the
output and nothing else, so that the result does not depend on which thread
ran which item.

The helper runs in a copy of the caller's context, so ``np.errstate`` and
every other context variable set by the caller hold in both threads.  After
the first exception, in either thread, no further item is handed out; the
in-flight item of the other thread finishes and the exception propagates
from ``drain``.  A helper that has not started by the time the caller has
run out of items is cancelled rather than waited for: a call made while the
pool's one thread is busy, from inside that thread or from another caller,
completes in the calling thread alone.

Three loops drain: a study's levels (``cli.run_study``), the chunks of the
smooth load and the error quadrature, through one chunk loop
(``_over_chunks``), and the blocks of a text dump
(``_text.text_rows``).  Drains nest: a study drains its levels, finest
first, and each level's smooth load and error quadrature drain their
chunks.  The caller solves the finest level, its first item, while the
pool's thread runs the helper's share of the levels.  A chunk drain of
the finest level submits a helper that waits in the pool's queue until
that thread runs out of levels; it then shares the remaining chunks,
unless the caller has run them all and cancelled it.  A chunk drain
inside a level that the pool's thread solves is run by that thread alone:
the helper it submits cannot start before it is cancelled.

A chunk holds cells of about ``CHUNK_POINTS`` quadrature nodes, so each of
its temporaries (node coordinates, field values, differences) takes at most
1 MiB and stays in cache between the passes that build, sample and reduce
it.  The chunk boundaries do not depend on the threads, and each chunk
writes only its own cells' rows; the sum over all cells runs in the caller
afterwards, as an ``np.einsum``, which never calls BLAS (OpenBLAS splits a
long dot product across its threads, which moves the last bits).  So every
result is bitwise the same with or without the helper.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# quadrature nodes per chunk of ``_over_chunks``
CHUNK_POINTS = 2**17

# one worker thread for the process, started by the first drain that uses it
_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ptcontrol-drain")
_END = object()
_NEXT = object()


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def drain(fn, items):
    """Call ``fn(item)`` for every item of ``items``, in this thread and a helper.

    Returns once every item has run.  After a failure it returns once the
    other thread's item in flight, if any, has finished, and raises the
    first exception that ``fn`` or the iterator raised.
    """
    # a single item is not worth waking the helper for
    share = len(items) > 1 and _usable_cpus() >= 2
    items = iter(items)
    lock = threading.Lock()
    errors = []

    def work(item=_NEXT):
        try:
            while True:
                if item is _NEXT:
                    with lock:
                        item = _END if errors else next(items, _END)
                if item is _END:
                    return
                fn(item)
                item = _NEXT
        except BaseException as exc:  # re-raised by drain below
            with lock:
                errors.append(exc)

    # taken before the helper exists: a pool thread that this call starts
    # would often win the first item otherwise, and the drains nested in
    # that item would find the pool's one thread busy and run on one core
    first = next(items, _END)
    helper = _POOL.submit(contextvars.copy_context().run, work) if share else None
    work(first)
    # the items are exhausted or an error is recorded, so a helper that has
    # started takes no further item
    if helper is not None and not helper.cancel():
        helper.result()
    if errors:
        raise errors[0]


def _over_chunks(n, q, fn):
    """Call ``fn(part)`` on the slices of range(n) of ``CHUNK_POINTS // q`` items.

    Each item has ``q`` quadrature nodes, so a slice has about
    ``CHUNK_POINTS`` of them (one item at least).  The slices are drained
    by the calling thread and a helper, so ``fn`` must write only the
    slice's own part of its output.
    """
    size = max(1, CHUNK_POINTS // q)
    drain(lambda start: fn(slice(start, start + size)), range(0, n, size))
