"""Deterministic random-number streams for parallel replication.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are derived from a base seed plus an
integer key path (e.g. ``(t_index, rep_index)``) through a counter-based
Philox generator, so results are bit-identical no matter how replications
are scheduled across workers.  :func:`map_blocks` is that scheduler: it
splits a range of work items into contiguous blocks and returns their
results in item order, in one process or in a process pool.  Its callers
build what a block needs once and pass it in as arguments, so a worker
rebuilds nothing and imports nothing of its own.  Inside a
:func:`shared_pool` block, which ``experiment.run`` opens around a whole
run, every such pool is one pool: the replications of every intensity and
the outer loop of the error-term estimate start no processes of their own.
"""
from __future__ import annotations

import contextlib
import functools
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["stream", "substream", "map_blocks", "shared_pool"]

# the pool of the enclosing shared_pool block, if any
_shared: ProcessPoolExecutor | None = None


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *key)``.

    Identical arguments always yield an identical stream; distinct key
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def substream(rng: np.random.Generator, index: int) -> np.random.Generator:
    """Derive a child stream of ``rng`` keyed by ``index``.

    Used where a routine receives an already-built generator but needs
    per-work-item determinism (results must not depend on the order in
    which work items are consumed).
    """
    root = rng.bit_generator.seed_seq
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=root.spawn_key + (int(index),)
    )
    return np.random.Generator(np.random.Philox(child))


def map_blocks(fn, n: int, workers: int, args: tuple = ()) -> list:
    """``[fn(*args, start, stop), ...]`` over contiguous blocks covering
    ``range(n)``, in block order.

    With ``workers <= 1`` this is the single call ``fn(*args, 0, n)`` in
    this process.  Otherwise about four blocks per worker run in a
    process pool, so ``fn`` and ``args`` must be picklable: the pool of
    the enclosing :func:`shared_pool` block, or else a block of this
    call's own.  Each work item must draw only from its own keyed stream;
    then the concatenated results do not depend on ``workers``.
    """
    if workers <= 1:
        return [fn(*args, 0, n)]
    chunk = max(1, math.ceil(n / (workers * 4)))
    starts = range(0, n, chunk)
    stops = [min(s + chunk, n) for s in starts]
    with shared_pool(workers):
        return list(_shared.map(functools.partial(fn, *args), starts, stops))


@contextlib.contextmanager
def shared_pool(workers: int):
    """Serve every :func:`map_blocks` call in the block from one process
    pool of ``workers`` processes, shut down when the block exits, also
    by an exception.

    The workers start at the first such call, and each block gets its
    inputs from the caller as :func:`map_blocks` arguments, so nothing
    depends on what this process has imported by then.  With
    ``workers <= 1``, or inside another such block, this does nothing.
    """
    global _shared
    if workers <= 1 or _shared is not None:
        yield
        return
    _shared = ProcessPoolExecutor(max_workers=workers)
    try:
        yield
    finally:
        pool, _shared = _shared, None
        pool.shutdown()
