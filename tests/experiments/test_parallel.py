"""Fault injection for the sharded pipeline: a shard runtime that fails.

A failure inside a worker — an exception in a shard runtime, or the
worker process dying — must reach the caller as a typed
:class:`~repro.experiments.parallel.ShardWorkerError`, with the worker
pool shut down and no shared-memory block left behind: neither the
interval tables the workers ship back
(:class:`~repro.traffic.sharedtable.SharedFlowTable`) nor the parent's
:class:`~repro.traffic.sharedtable.SharedMemberTable`.

The failing factory below lives at module level so that spawn workers
can unpickle it by reference; the workers inherit the test session's
``sys.path`` and import this module.  A worker whose block name is
already taken by another process must fail the same way, without
touching that block.
"""

import functools
import os
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.experiments import city_scale, parallel
from repro.experiments.parallel import ShardWorkerError
from repro.experiments.registry import get_experiment

SHM_DIR = Path("/dev/shm")

#: The shard whose runtime fails, and the interval it fails at: the
#: second interval of the second two-interval chunk, so the failing
#: worker has already shipped a block for this chunk and the other
#: shard's result for the same chunk has already arrived.
FAILING_SHARD = 1
FAILING_INTERVAL = 3
CHUNK_INTERVALS = 2


class InjectedFault(RuntimeError):
    """The exception the failing shard runtime raises."""


def failing_shard_runtime(config, spec, events, member_table=None, mode="raise"):
    """The city runtime factory, with one shard failing mid-chunk."""
    runtime = city_scale._ShardRuntime(config, spec, events, member_table)
    if spec.index == FAILING_SHARD:
        run_interval = runtime.run_interval

        def failing(interval_start, interval):
            if interval_start >= FAILING_INTERVAL * interval:
                if mode == "exit":
                    os._exit(3)
                raise InjectedFault(f"injected at t={interval_start}")
            return run_interval(interval_start, interval)

        runtime.run_interval = failing
    return runtime


def shared_blocks() -> set[str]:
    """Names of every POSIX shared-memory block on the host."""
    return {path.name for path in SHM_DIR.iterdir()}


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="needs POSIX shared memory in /dev/shm")
@pytest.mark.parametrize("mode, cause", [("raise", InjectedFault), ("exit", BrokenProcessPool)])
def test_failing_shard_runtime_is_typed_and_leaks_nothing(monkeypatch, mode, cause):
    pools = []

    class RecordingPool(parallel.ShardWorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(parallel, "ShardWorkerPool", RecordingPool)
    monkeypatch.setattr(
        city_scale, "_build_shard_runtime", functools.partial(failing_shard_runtime, mode=mode)
    )
    config = get_experiment("city_scale").make_config(
        quick=True,
        execution="sharded",
        workers=2,
        chunk_intervals=CHUNK_INTERVALS,
        collect_tables=True,
    )
    before = shared_blocks()

    with pytest.raises(ShardWorkerError) as raised:
        city_scale.run_city_scale_experiment(config)

    assert raised.value.shard_index == FAILING_SHARD
    assert isinstance(raised.value.__cause__, cause)
    assert len(pools) == 1
    with pytest.raises(RuntimeError, match="shutdown"):
        pools[0].submit(0, int)
    assert shared_blocks() - before == set()


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="needs POSIX shared memory in /dev/shm")
def test_a_block_under_a_scheduled_name_is_neither_reused_nor_unlinked(monkeypatch):
    """A name collision fails the run and leaves the other block intact."""
    # Pin the run's random name prefix, so the scheduled block names are
    # known, and hold blocks of another process under two of them: the
    # first interval of shard 0, whose failure is raised, and of shard 2,
    # which shares shard 0's worker and whose chunk runs before the pool
    # shuts down.
    monkeypatch.setattr(
        parallel.secrets, "token_hex", lambda nbytes: f"{os.getpid():0{2 * nbytes}x}"
    )
    prefix = f"rp{os.getpid():012x}"
    others = [
        shared_memory.SharedMemory(
            name=parallel._block_names(prefix, shard, 0, 1)[0], create=True, size=16
        )
        for shard in (0, 2)
    ]
    try:
        for other in others:
            other.buf[:5] = b"other"
        config = get_experiment("city_scale").make_config(
            quick=True,
            execution="sharded",
            workers=2,
            chunk_intervals=CHUNK_INTERVALS,
            collect_tables=True,
        )
        before = shared_blocks()

        with pytest.raises(ShardWorkerError) as raised:
            city_scale.run_city_scale_experiment(config)

        assert raised.value.shard_index == 0
        assert isinstance(raised.value.__cause__, FileExistsError)
        assert shared_blocks() == before
        for other in others:
            intact = shared_memory.SharedMemory(name=other.name)
            assert bytes(intact.buf[:5]) == b"other"
            intact.close()
    finally:
        for other in others:
            other.close()
            other.unlink()
