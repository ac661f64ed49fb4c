"""One benchmark repetition, in a fresh interpreter.

Run by ``run.py`` (never imported by it)::

    python3 perfbench/job.py --workload churn --seed 23 --mode full --t0 <monotonic>

``--t0`` is the launcher's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so every time reported
here counts from interpreter start.  Modes:

``full``
    run the scenario, check its outputs, report wall and set-up time;
``setup``
    stop at the first simulated interval and report set-up time only;
``traced``
    ``full`` with every layer call of :mod:`tracer` wrapped.

The last stdout line is one JSON object; ``"ok": false`` carries the
reason a run failed its checks.  Only the standard library is imported
at module level: spawned shard workers re-import this file as their main
module.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from tracer import DRIVER_SPAN, IMPORT_SPAN, SETUP_SPAN, SpanRecorder, install, replace_everywhere
from workloads import (
    INTERVAL_TOTALS,
    WORKLOADS,
    CheckFailed,
    check_reference,
    conserved,
    expected_intervals,
    require,
    result_digest,
)

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(BaseException):
    """Raised at the first interval of a ``setup`` run (unwinds the runner's cleanup)."""


def _vm_hwm_kib(pid: int) -> int | None:
    """Peak resident set of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class RunProbe:
    """The few hooks every mode installs: set-up end and per-interval checks."""

    def __init__(self, mode: str, recorder: SpanRecorder | None) -> None:
        self.mode = mode
        self.recorder = recorder
        self.setup_index = -1
        self.setup_end: float | None = None
        self.intervals = 0
        self.broken: list[str] = []
        self.worker_hwm_kib: dict[int, int] = {}

    def mark_setup_end(self) -> None:
        if self.setup_end is not None:
            return
        self.setup_end = time.monotonic()
        if self.recorder is not None:
            self.recorder.close(self.setup_index)
        if self.mode == "setup":
            raise SetupDone

    def install(self, setup_target: str, when: str, interval_output: str) -> None:
        def marked(fn: Any) -> Any:
            if when == "call":

                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    self.mark_setup_end()
                    return fn(*args, **kwargs)

            else:

                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    result = fn(*args, **kwargs)
                    self.mark_setup_end()
                    return result

            return wrapper

        totals_of = INTERVAL_TOTALS[interval_output]

        def checked(fn: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                output = fn(*args, **kwargs)
                self.intervals += 1
                if not conserved(*totals_of(output)):
                    self.broken.append(f"interval {self.intervals}: {totals_of(output)}")
                # Shard workers are alive between intervals; their peak
                # resident set only grows, so the last reading is the peak.
                for child in multiprocessing.active_children():
                    hwm = _vm_hwm_kib(child.pid)
                    if hwm is not None:
                        self.worker_hwm_kib[child.pid] = hwm
                return output

            return wrapper

        replace_everywhere(setup_target, marked)
        replace_everywhere(interval_output, checked)


def spawn_seconds(workers: int) -> float:
    """Start a shard worker pool and run a trivial task on every worker.

    The task lives in the package the real shard runtimes come from, so
    each worker pays the same interpreter start and ``repro`` import.
    """
    from repro.experiments.parallel import ShardWorkerPool
    from repro.experiments.registry import experiment_names

    start = time.monotonic()
    pool = ShardWorkerPool(workers)
    try:
        futures = [pool.submit(index, experiment_names) for index in range(workers)]
        for future in futures:
            future.result()
        return time.monotonic() - start
    finally:
        pool.shutdown()


def run_once(args: argparse.Namespace) -> dict[str, Any]:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise FileNotFoundError(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    recorder = SpanRecorder() if args.mode == "traced" else None

    import_start = time.monotonic()
    from repro.experiments.registry import get_experiment

    import_end = time.monotonic()
    workload = WORKLOADS[args.workload]
    extra = json.loads(args.extra)
    config = workload.config(args.seed, tiny=args.tiny, **extra)
    runner = get_experiment(workload.experiment).runner

    probe = RunProbe(args.mode, recorder)
    if recorder is not None:
        recorder.add(IMPORT_SPAN, import_start, import_end)
        install(recorder)
    target, when = workload.setup_end
    probe.install(target, when, workload.interval_output)

    driver = -1
    if recorder is not None:
        driver = recorder.open(DRIVER_SPAN)
        probe.setup_index = recorder.open(SETUP_SPAN)
    try:
        result = runner(config)
    except SetupDone:
        return {"ok": True, "setup_s": probe.setup_end - args.t0}
    if recorder is not None:
        recorder.close(driver)

    require(probe.setup_end is not None, "the set-up marker never fired")
    expected = expected_intervals(config)
    require(result.intervals == expected, f"{result.intervals} intervals, expected {expected}")
    require(probe.intervals == expected, f"{probe.intervals} interval outputs, expected {expected}")
    require(not probe.broken, "conservation broken at " + "; ".join(probe.broken[:3]))
    workload.check(result)
    if args.seed == workload.default_seed and not args.tiny and not extra:
        check_reference(workload, result)
    digest = result_digest(workload, result)
    done = time.monotonic()

    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record: dict[str, Any] = {
        "ok": True,
        "digest": digest,
        "intervals": result.intervals,
        "setup_s": probe.setup_end - args.t0,
        "wall_s": done - args.t0,
        "peak_rss_kib": own_kib + sum(probe.worker_hwm_kib.values()),
    }
    if recorder is not None:
        unclosed = recorder.unclosed()
        require(not unclosed, f"spans left open: {unclosed}")
        record["spans"] = recorder.self_times()
        record["counts"] = dict(recorder.counts)
        record["covered_s"] = recorder.top_level_seconds()
        stats = getattr(result, "stats", None)
        if stats is not None:
            record["service"] = {
                **stats,
                "rules_version_bumps": result.rules_version_bumps,
                "ops_per_data_plane_call": result.ops_per_data_plane_call,
            }
    if args.spawn_probe:
        record["spawn_s"] = spawn_seconds(config.workers)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup", "traced"), default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--extra", default="{}", help="JSON config overrides")
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument(
        "--spawn-probe", action="store_true", help="also time a trivial worker-pool start"
    )
    args = parser.parse_args(argv)
    try:
        record = run_once(args)
    except CheckFailed as failure:
        record = {"ok": False, "error": f"check failed: {failure}"}
    except Exception:
        record = {"ok": False, "error": traceback.format_exc(limit=8)}
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
