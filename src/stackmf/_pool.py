"""The worker pool of the replication driver and the rate curve.

``_run_replications`` maps a function over unit indices and returns the
results in index order, so the number of worker processes never changes a
number.  With one worker it runs the units in this process, with no pool;
there are never more workers than units or CPUs this process may use.
"""
from __future__ import annotations

import os

_unit_fn = None     # set in each forked worker only; see _run_replications


def _set_unit(fn):
    global _unit_fn
    _unit_fn = fn


def _call_unit(i):
    return _unit_fn(i)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(threads, units) -> int:
    """`threads` capped by the units and the CPUs this process may use."""
    return min(int(threads or 1), units, _usable_cpus())


def _run_replications(fn, units, threads):
    """fn(i) for i in range(units), results and the first error in order.

    A unit is a block of replications (``rates._replicate``) or one
    assignment solve of the rate curve (``measures.empirical_rate_curve``);
    its result depends on its index only.  One worker (``_workers``) runs
    the units here, with no pool.  Units are closures, which do not pickle,
    so the workers are forked: each inherits `fn` as its initializer
    argument, unpickled, and maps `_call_unit` over the indices.  A spawned
    worker would also import numpy and scipy again, which costs as much as
    a whole small run.  A worker that dies raises BrokenProcessPool."""
    workers = _workers(threads, units)
    if workers <= 1:
        return [fn(i) for i in range(units)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_unit, initargs=(fn,)) as pool:
        return list(pool.map(_call_unit, range(units)))
