"""An order-preserving map over the usable CPUs, for independent calls.

One forked worker per usable CPU takes item indices from one queue, the next
one as soon as it is free, and the calling process only waits.  The function
and the items reach the workers through the forked memory without pickling:
closures work, and module globals the caller patched are the ones the
workers call.  Only indices, results and exceptions travel, pickled.  The
results come back in input order, so no output depends on how many CPUs ran
the map or which worker ran which item.  ``fork`` is safe here: the package
starts no threads of its own; numpy's OpenBLAS keeps a thread pool, but it
rebuilds that pool in each forked child; and the pool forks its workers
before it starts its manager thread.
"""

from __future__ import annotations

import os

#: (fn, items) of the map in progress.  Forked workers inherit it, and a map
#: started while it is set (from inside ``fn``) runs in-process, so nested
#: maps never start more processes than there are CPUs.
_job = None


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _call(i: int):
    fn, items = _job
    return fn(items[i])


def map_in_order(fn, items) -> list:
    """``[fn(x) for x in items]``, with the calls spread over the usable CPUs.

    Runs in-process when there is one usable CPU, one item, no ``fork``, or
    a map already in progress.  Otherwise forked workers run every call, a
    free worker taking the next item.  An exception raised by ``fn`` in a
    worker is raised here.  Every worker has exited when this returns.
    """
    global _job
    items = list(items)
    n = min(_cpu_count(), len(items))
    if n <= 1 or _job is not None or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _job = (fn, items)
    try:
        # with fork, the pool starts all its workers at the first submit
        with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_call, range(len(items))))
    finally:
        _job = None
