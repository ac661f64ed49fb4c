"""Multi-process execution substrate for sharded interval pipelines.

:mod:`repro.experiments.sweep` fans out *whole experiments*; this module
fans out *one experiment's intervals* across fabric shards (see
:mod:`repro.ixp.shard`).  The moving parts:

* :func:`spawn_context` — the one multiprocessing context the repo uses.
  Spawn (not fork) everywhere: workers import a fresh interpreter, so
  results cannot depend on the parent's inherited state or on the
  platform's default start method.
* :class:`ShardWorkerPool` — ``W`` single-worker spawn executors with a
  fixed shard→worker mapping.  Shard runtimes are *stateful* (per-port
  token buckets, cumulative counters, cached delivery plans), so every
  chunk of a given shard must execute in the process that holds that
  shard's runtime; a shared multi-worker pool could migrate a shard
  between processes mid-run.  ``shard i`` always runs on
  ``worker i % W``, and single-worker executors execute their queue in
  FIFO order, which preserves interval order per shard.
* :func:`iter_shard_intervals` — the pipeline driver.  It streams a
  bounded window of interval chunks through the pool (so an hour-long
  trace never materialises at once), resolves the workers'
  :class:`~repro.traffic.sharedtable.SharedFlowTable` handles into
  zero-copy tables, and yields ``(interval_start, per-shard payloads)``
  in time order.  ``execution="serial"`` runs the *identical* per-shard
  runtimes in-process — the parity oracle: same shard decomposition,
  same merge order, no workers.

A shard runtime is any object with ``run_interval(interval_start,
interval) -> dict``; a payload's optional ``"table"`` entry (a
:class:`~repro.traffic.flowtable.FlowTable`) is the only part treated
specially — it travels through shared memory instead of pickle.  Bulky
read-only inputs can ride shared memory in the other direction too: the
city-scale runner hands every worker one
:class:`~repro.traffic.sharedtable.SharedMemberTable` handle, and each
shard runtime materialises its members from the mapped block instead of
unpickling the population per shard.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import secrets
from collections import deque
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from ..traffic.flowtable import FlowTable
from ..traffic.sharedtable import SharedFlowTable, unlink_block

#: Chunks in flight per shard: the current chunk being consumed plus this
#: many queued/computing behind it.  Bounds shared-memory usage at
#: ``shards x window x chunk_intervals`` tables regardless of trace length.
WINDOW_CHUNKS = 2

#: Execution modes of :func:`iter_shard_intervals`.
EXECUTION_MODES = ("sharded", "serial")


class ShardWorkerError(RuntimeError):
    """A shard's chunk failed in its worker (an exception or a dead process).

    The original exception is the ``__cause__``.  By the time this reaches
    the caller the pool is shut down and every shared-memory table the
    run produced has been unlinked.
    """

    def __init__(self, shard_index: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_index} failed in its worker: {type(cause).__name__}: {cause}"
        )
        self.shard_index = shard_index


def spawn_context() -> multiprocessing.context.BaseContext:
    """The explicit spawn start-method context every pool should pin.

    Relying on the platform default makes results
    start-method-dependent: fork inherits the parent's RNG and module
    state, spawn does not.  Pinning spawn keeps sweep and shard results
    identical across Linux/macOS/Windows.
    """
    return multiprocessing.get_context("spawn")


class ShardWorkerPool:
    """A pool of single-worker executors with sticky shard placement."""

    def __init__(self, workers: int, mp_context=None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        context = mp_context if mp_context is not None else spawn_context()
        self._executors = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in range(workers)
        ]

    @property
    def worker_count(self) -> int:
        return len(self._executors)

    def submit(self, shard_index: int, fn: Callable, *args: Any) -> Future:
        """Queue ``fn(*args)`` on the worker that owns ``shard_index``."""
        return self._executors[shard_index % len(self._executors)].submit(fn, *args)

    def shutdown(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Worker-process cache of shard runtimes, keyed by (run token, shard).
#: A runtime carries all cross-interval state; the sticky placement in
#: :class:`ShardWorkerPool` guarantees every chunk of a shard lands in
#: the process holding its runtime.
_RUNTIMES: dict[tuple[int, int], Any] = {}

_run_tokens = itertools.count(1)


def _next_run_token() -> int:
    """A token distinguishing pipeline runs (new run = fresh runtimes)."""
    return (os.getpid() << 20) | (next(_run_tokens) & 0xFFFFF)


def _block_names(prefix: str, shard_index: int, first: int, count: int) -> tuple[str, ...]:
    """Shared-memory block names of one chunk's interval tables.

    ``prefix`` is random per run, and the names are unique per shard and
    interval within it and short enough for every platform's limit, so
    the parent can destroy a dead worker's blocks by name.
    """
    return tuple(f"{prefix}_{shard_index}_{index}" for index in range(first, first + count))


def _unlink_tables(payloads: Sequence[Mapping[str, Any]]) -> None:
    """Destroy the shared-memory block of every payload table still shipped."""
    for payload in payloads:
        handle = payload.get("table")
        if isinstance(handle, SharedFlowTable):
            handle.unlink()


def _run_shard_chunk(
    factory: Callable[..., Any],
    factory_kwargs: Mapping[str, Any],
    run_token: int,
    shard_index: int,
    times: tuple[float, ...],
    interval: float,
    block_names: tuple[str, ...],
) -> list[dict[str, Any]]:
    """Run one chunk of intervals on one shard's runtime (worker side).

    The first chunk of a run instantiates the runtime via ``factory``
    (a module-level callable, so it pickles by reference under spawn);
    later chunks reuse it.  Flow tables in the payloads are swapped for
    shared-memory handles, in the blocks ``block_names`` names (one per
    interval), with ownership transferred to the parent.
    """
    key = (run_token, shard_index)
    runtime = _RUNTIMES.get(key)
    if runtime is None:
        for stale in [k for k in _RUNTIMES if k[0] != run_token]:
            del _RUNTIMES[stale]
        runtime = factory(**dict(factory_kwargs))
        _RUNTIMES[key] = runtime
    payloads: list[dict[str, Any]] = []
    try:
        for interval_start, name in zip(times, block_names):
            payload = runtime.run_interval(interval_start, interval)
            table = payload.get("table")
            if isinstance(table, FlowTable):
                payload["table"] = SharedFlowTable.from_table(table, transfer=True, name=name)
            payloads.append(payload)
    except BaseException:
        # The parent never receives these handles.  Destroying the blocks
        # here, by handle, also spares a block of another process whose
        # name this chunk collided with.
        _unlink_tables(payloads)
        raise
    return payloads


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def iter_shard_intervals(
    factory: Callable[..., Any],
    shard_kwargs: Sequence[Mapping[str, Any]],
    times: Sequence[float],
    interval: float,
    execution: str = "sharded",
    workers: int = 4,
    chunk_intervals: int = 8,
    mp_context=None,
) -> Iterator[tuple[float, list[dict[str, Any]]]]:
    """Stream per-shard interval payloads in time order.

    Yields ``(interval_start, payloads)`` with one payload per shard, in
    shard order; any ``"table"`` entries arrive as ready-to-use
    :class:`FlowTable` views.  A yielded table is valid until the next
    iteration step (its shared-memory block is released when the
    consumer advances), which is exactly the streaming contract: consume
    an interval, move on, nothing accumulates.  A chunk that fails in its
    worker raises :class:`ShardWorkerError`; the pool is shut down and
    every unconsumed block destroyed before it propagates.

    ``execution="serial"`` builds the same runtimes in-process and walks
    them sequentially — bit-for-bit the reference for the sharded mode,
    because both run identical runtime code over identical shard specs
    and identical per-shard seeds; workers only add concurrency.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {execution!r}; known: {', '.join(EXECUTION_MODES)}"
        )
    if chunk_intervals < 1:
        raise ValueError(f"chunk_intervals must be >= 1, got {chunk_intervals}")
    shard_count = len(shard_kwargs)
    if shard_count == 0:
        return
    times = list(times)
    if not times:
        return

    if execution == "serial":
        runtimes = [factory(**dict(kwargs)) for kwargs in shard_kwargs]
        for interval_start in times:
            yield interval_start, [
                runtime.run_interval(interval_start, interval) for runtime in runtimes
            ]
        return

    chunks = [
        times[start : start + chunk_intervals]
        for start in range(0, len(times), chunk_intervals)
    ]
    run_token = _next_run_token()
    prefix = f"rp{secrets.token_hex(6)}"
    pool = ShardWorkerPool(workers=min(workers, shard_count), mp_context=mp_context)
    #: Per shard: ``(future, block names)`` of every chunk in flight.
    pending: list[deque[tuple[Future, tuple[str, ...]]]] = [
        deque() for _ in range(shard_count)
    ]
    next_chunk = [0] * shard_count

    def submit_next(shard_index: int) -> None:
        index = next_chunk[shard_index]
        if index >= len(chunks):
            return
        next_chunk[shard_index] += 1
        chunk = tuple(chunks[index])
        names = _block_names(prefix, shard_index, index * chunk_intervals, len(chunk))
        try:
            future = pool.submit(
                shard_index,
                _run_shard_chunk,
                factory,
                dict(shard_kwargs[shard_index]),
                run_token,
                shard_index,
                chunk,
                interval,
                names,
            )
        except BrokenProcessPool as exc:  # the shard's worker already died
            raise ShardWorkerError(shard_index, exc) from exc
        pending[shard_index].append((future, names))

    #: Per shard, the payloads of the chunk being collected or walked.
    chunk_payloads: list[list[dict[str, Any]]] = []
    #: Block names of chunks whose worker died: it may have made some.
    lost_names: list[str] = []
    try:
        for _ in range(WINDOW_CHUNKS):
            for shard_index in range(shard_count):
                submit_next(shard_index)
        for chunk in chunks:
            chunk_payloads = []
            for shard_index in range(shard_count):
                future, names = pending[shard_index].popleft()
                try:
                    chunk_payloads.append(future.result())
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool):
                        lost_names.extend(names)
                    raise ShardWorkerError(shard_index, exc) from exc
            for shard_index in range(shard_count):
                submit_next(shard_index)
            for position, interval_start in enumerate(chunk):
                row = [
                    chunk_payloads[shard_index][position]
                    for shard_index in range(shard_count)
                ]
                handles = []
                for payload in row:
                    handle = payload.get("table")
                    if isinstance(handle, SharedFlowTable):
                        payload["table"] = handle.table()
                        handles.append(handle)
                try:
                    yield interval_start, row
                finally:
                    for handle in handles:
                        handle.release()
    finally:
        pool.shutdown()
        # Destroy every block that was produced but not consumed — after
        # an early exit, a failure downstream or a failed worker: the
        # unyielded rest of the current chunk plus every chunk still in
        # flight.  A worker that raised destroyed its chunk's blocks
        # itself; one that died leaves only their names.
        leftovers = [payload for payloads in chunk_payloads for payload in payloads]
        for queue in pending:
            for future, names in queue:
                if not future.done() or future.cancelled():
                    continue
                failure = future.exception()
                if failure is None:
                    leftovers.extend(future.result())
                elif isinstance(failure, BrokenProcessPool):
                    lost_names.extend(names)
        _unlink_tables(leftovers)
        for name in lost_names:
            unlink_block(name)
