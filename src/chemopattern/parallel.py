"""An order-preserving map over the usable CPUs, for independent calls.

The items are split round-robin into one share per usable CPU.  The calling
process runs share 0 itself and forked workers run the others, so the
function and the items reach the workers through the forked memory without
pickling: closures work, and module globals the caller patched are the ones
the workers call.  Only results and exceptions travel back, pickled.  The
results come back in input order, so no output depends on how many CPUs ran
the map.  ``fork`` is safe here because the package starts no threads of its
own, and the pool forks its workers before it starts its manager thread.
"""

from __future__ import annotations

import os

#: (fn, shares) of the map in progress.  Forked workers inherit it, and a
#: map started while it is set (from inside ``fn``) runs in-process, so
#: nested maps never start more processes than there are CPUs.
_job = None


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _run_share(k: int) -> list:
    fn, shares = _job
    return [fn(x) for x in shares[k]]


def map_in_order(fn, items) -> list:
    """``[fn(x) for x in items]``, with the calls spread over the usable CPUs.

    Runs in-process when there is one usable CPU, one item, no ``fork``, or
    a map already in progress.  An exception raised by ``fn`` in a worker is
    raised here.  Every worker has exited when this returns.
    """
    global _job
    items = list(items)
    n = min(_cpu_count(), len(items))
    if n <= 1 or _job is not None or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _job = (fn, [items[k::n] for k in range(n)])
    try:
        # with fork, the pool starts all its workers at the first submit
        with ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_run_share, k) for k in range(1, n)]
            shares = [_run_share(0)] + [f.result() for f in futures]
    finally:
        _job = None
    out = [None] * len(items)
    for k, share in enumerate(shares):
        out[k::n] = share
    return out
