"""Self-test of the benchmark: every workload at a tiny size, same code paths.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

For each workload it runs the end-to-end and the traced measurement at
the workload's ``tiny`` size and asserts that every metric named in
``BENCHMARK.json`` is emitted with its unit, that no run failed (the
traced run's digest must equal the untraced one), and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, run_workload
from workloads import WORKLOADS


def check_result(result: dict, declared: list[dict], label: str) -> None:
    assert result["correct"], f"{label}: not correct: {result}"
    assert result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}"
    emitted = result["metrics"]
    for metric in declared:
        assert metric["name"] in emitted, f"{label}: {metric['name']} missing"
        assert emitted[metric["name"]]["unit"] == metric["unit"], f"{label}: {metric['name']} unit"
        assert isinstance(emitted[metric["name"]]["value"], float), f"{label}: {metric['name']}"
    assert len(emitted) == len(declared), f"{label}: undeclared metrics emitted"


def check_declaration(spec: dict) -> None:
    """``BENCHMARK.json`` and the benchmark's own unit tables agree."""
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [*spec["command"], "--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode != 0, "ran without the program's sources"
        assert not completed.stdout.strip(), "printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declaration(spec)
    for name, workload in WORKLOADS.items():
        untraced = run_workload(workload, workload.default_seed, 1.0, False, tiny=True)
        check_result(untraced, spec["end_to_end"], f"{name} --trace 0")
        traced = run_workload(workload, workload.default_seed, 1.0, True, tiny=True)
        check_result(traced, spec["per_layer"], f"{name} --trace 1")
    check_refuses_without_sources(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
