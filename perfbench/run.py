"""Benchmark entry point: full-size scenario runs, host-time metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 23 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds

Each repetition is a fresh interpreter (``perfbench/job.py``) that runs
one scenario config through the experiment registry's runner and checks
its outputs.  ``--trace 0`` reports the end-to-end metrics:

``wall_s``
    interpreter start to verified result (median of the full runs);
``setup_s``
    interpreter start to the first simulated interval (median of the full
    runs, topped up to ``SETUP_SAMPLES`` by runs that stop there);
``intervals_per_s``
    simulated intervals / (``wall_s`` - ``setup_s``), per run, median;
``cpu_s``
    user + system CPU of the run's processes, workers included;
``peak_rss_mb``
    sum of each process's peak resident set (MiB).

Full runs repeat until they add up to ``--seconds``; at least one always
runs.  ``--trace 1`` runs the workload once untraced and once
with every layer call wrapped (``perfbench/tracer.py``) and reports the
per-layer metrics; the traced digest must equal the untraced one.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
earlier lines name every metric with its unit and stamp the provenance.
Without the program's sources next to ``perfbench/`` it exits with 2.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Mapping
from importlib import metadata
from pathlib import Path
from typing import Any

from tracer import COUNT_METRICS, SPAN_METRICS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"

#: Whole-invocation budget; the benchmark must exit within 180 s.
DEADLINE_S = 170.0
#: Set-up time samples per invocation; runs that stop at the first
#: interval top up the full runs' samples to this count.
SETUP_SAMPLES = 3
#: Seconds a finished run's process group may take to disappear.
REAP_S = 10.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "intervals_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

SERVICE_METRICS = {
    "ixp.service.requests": "submitted",
    "ixp.service.applied": "applied_requests",
    "ixp.service.rejected_budget": "rejected_budget",
    "ixp.service.rejected_backpressure": "rejected_backpressure",
    "ixp.service.rejected_shutdown": "rejected_shutdown",
    "ixp.service.data_plane_calls": "data_plane_calls",
    "ixp.service.ops_per_call": "ops_per_data_plane_call",
    "ixp.service.rules_version_bumps": "rules_version_bumps",
}

#: Layers that run inside shard workers; a sharded workload takes them
#: from its traced in-process (serial) run.
WORKER_SIDE = ("setup.fabric_s", "setup.stream_s", "traffic.", "ixp.", "report.to_")

PER_LAYER_UNITS: dict[str, str] = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS if name != "ixp.plan.requests"},
    "ixp.plan.reuse_ratio": "ratio",
    **{name: "count" for name in SERVICE_METRICS},
    "ixp.service.ops_per_call": "ops/call",
    "shard.spawn_s": "s",
    "shard.wait_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def _live_group_members(pgid: int) -> list[int]:
    """PIDs of processes in ``pgid`` that have not exited yet."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            live.append(int(entry))
    return live


def _stop_group(pgid: int) -> None:
    """Wait for every process of a run's group to end; kill stragglers."""
    deadline = time.monotonic() + REAP_S
    while _live_group_members(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + REAP_S
        time.sleep(0.02)


def launch(
    workload: Workload,
    seed: int,
    mode: str,
    deadline: float,
    *,
    extra: Mapping[str, Any] | None = None,
    tiny: bool = False,
    spawn_probe: bool = False,
) -> dict[str, Any]:
    """Run one repetition in a fresh interpreter; returns its record.

    The record gains ``cpu_s``: the CPU the process and every worker it
    reaped used, read from this process's child-resource counters.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    command = [
        sys.executable,
        str(JOB),
        "--workload", workload.name,
        "--seed", str(seed),
        "--mode", mode,
        "--t0", repr(t0),
        "--extra", json.dumps(dict(extra or {})),
    ]
    if tiny:
        command.append("--tiny")
    if spawn_probe:
        command.append("--spawn-probe")
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        record: dict[str, Any] = {"ok": False, "error": f"{mode} run timed out"}
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    else:
        try:
            record = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"ok": False, "error": f"exit {process.returncode}: {stderr[-2000:]}"}
    finally:
        _stop_group(process.pid)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    record["mode"] = mode
    return record


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Record fields too long for the per-run log line.
_BULKY = ("spans", "counts", "service")


class Outcome:
    """Repetition bookkeeping: what was attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def take(self, record: dict[str, Any]) -> dict[str, Any] | None:
        self.attempted += 1
        print(json.dumps({"run": {k: v for k, v in record.items() if k not in _BULKY}}))
        if record.get("ok"):
            return record
        self.failures.append(str(record.get("error", "unknown failure")))
        return None


def end_to_end(
    workload: Workload, seed: int, seconds: float, deadline: float, outcome: Outcome, tiny: bool
) -> dict[str, float]:
    full: list[dict[str, Any]] = []
    measured = 0.0
    # Full runs until ``seconds`` of them are measured: a short workload
    # repeats, so every workload's median spans a similar stretch of
    # host time.  Stop early rather than overrun the deadline.
    while measured < seconds:
        record = outcome.take(launch(workload, seed, "full", deadline, tiny=tiny))
        if record is None:
            break
        full.append(record)
        measured += record["wall_s"]
        if time.monotonic() + 2 * record["wall_s"] > deadline:
            break
    if not full:
        return {}
    setups = [record["setup_s"] for record in full]
    for _ in range(SETUP_SAMPLES - len(full)):
        record = outcome.take(launch(workload, seed, "setup", deadline, tiny=tiny))
        if record is not None:
            setups.append(record["setup_s"])
    return {
        "wall_s": statistics.median(r["wall_s"] for r in full),
        "setup_s": statistics.median(setups),
        "intervals_per_s": statistics.median(
            r["intervals"] / (r["wall_s"] - r["setup_s"]) for r in full
        ),
        "cpu_s": statistics.median(r["cpu_s"] for r in full),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024.0 for r in full),
    }


def _layers(record: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced run record."""
    metrics: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(record["spans"])
    counts = record["counts"]
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0.0)
    requests = metrics.pop("ixp.plan.requests")
    metrics["ixp.plan.reuse_ratio"] = (
        1.0 - metrics["ixp.plan.compiles"] / requests if requests else 0.0
    )
    service = record.get("service", {})
    for name, key in SERVICE_METRICS.items():
        metrics[name] = float(service.get(key, 0.0))
    metrics["shard.spawn_s"] = record.get("spawn_s", 0.0)
    metrics["shard.wait_share"] = metrics["shard.wait_s"] / record["wall_s"]
    metrics["trace.coverage"] = record["covered_s"] / record["wall_s"]
    return metrics


def per_layer(
    workload: Workload, seed: int, deadline: float, outcome: Outcome, tiny: bool
) -> dict[str, float]:
    untraced = outcome.take(launch(workload, seed, "full", deadline, tiny=tiny))
    traced = outcome.take(
        launch(
            workload,
            seed,
            "traced",
            deadline,
            tiny=tiny,
            spawn_probe=bool(workload.serial_overrides),
        )
    )
    if untraced is None or traced is None:
        return {}
    if traced["digest"] != untraced["digest"]:
        outcome.failures.append("traced digest differs from the untraced one")
    metrics = _layers(traced)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    if workload.serial_overrides:
        serial = outcome.take(
            launch(
                workload, seed, "traced", deadline, extra=workload.serial_overrides, tiny=tiny
            )
        )
        if serial is None:
            return {}
        if serial["digest"] != untraced["digest"]:
            outcome.failures.append("in-process run digest differs from the sharded one")
        inside = _layers(serial)
        for name in metrics:
            if name.startswith(WORKER_SIDE):
                metrics[name] = inside[name]
    return metrics


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, seed: int) -> dict[str, Any]:
    return {
        "workload": workload.name,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
        "experiment": workload.experiment,
        "overrides": dict(workload.overrides),
        "command": workload.command(seed),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict[str, Any]:
    """Measure one workload; returns the result object of the last output line."""
    print(json.dumps({"provenance": provenance(workload, seed)}), flush=True)
    deadline = time.monotonic() + DEADLINE_S
    outcome = Outcome()
    if trace:
        values = per_layer(workload, seed, deadline, outcome, tiny)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(workload, seed, seconds, deadline, outcome, tiny)
        units = END_TO_END_UNITS
    for failure in outcome.failures:
        print(f"FAILED {workload.name}: {failure}", file=sys.stderr)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not outcome.failures and len(metrics) == len(units),
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Stellar simulator benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the scenario's own")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception so the running
    # repetition's process group is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile once up front so no timed run pays for it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        results[name] = run_workload(workload, seed, args.seconds, bool(args.trace))
    if not any(result["metrics"] for result in results.values()):
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
