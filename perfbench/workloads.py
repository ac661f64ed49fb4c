"""The benchmark's workloads: one full-size registry scenario each.

Every workload runs ``get_experiment(experiment).runner`` on the config
``overrides`` + ``seed`` give — the same entry point as
``python -m repro run <experiment> --field value ...``.  All are open-loop
in simulated time: requests and traffic are pure functions of the config,
so a seed fixes the inputs exactly.

``setup_end`` names the call that starts the first simulated interval
(``"call"``: on entry; ``"return"``: once it returns); everything before
it — import, population, fabric build and connect, rule preinstall, the
churn-stream build — is set-up.

``reference`` holds the outputs recorded at ``default_seed``; a run at
that seed must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    overrides: Mapping[str, Any]
    default_seed: int
    setup_end: tuple[str, str]
    #: ``"report_digest"`` or ``"summary"``: what the reference pins.
    reference_kind: str
    reference: Any
    #: Workload-specific invariant on the result (raises on violation).
    check: Callable[[Any], None]
    #: The call whose return value carries one interval's platform totals
    #: (see :data:`INTERVAL_TOTALS`); checked once per simulated interval.
    interval_output: str = "repro.ixp.fabric:SwitchingFabric.deliver"
    #: Overrides that shrink the workload for the self-test.
    tiny: Mapping[str, Any] = field(default_factory=dict)
    #: Extra overrides of the traced in-process run that attributes the
    #: worker-side layers (only for workloads that spawn workers).
    serial_overrides: Mapping[str, Any] = field(default_factory=dict)

    def config(self, seed: int, tiny: bool = False, **extra: Any) -> Any:
        from repro.experiments.registry import get_experiment

        params = {**self.overrides, **(self.tiny if tiny else {}), **extra, "seed": seed}
        return get_experiment(self.experiment).make_config(**params)

    def command(self, seed: int) -> str:
        """The CLI line that reproduces this workload's run."""
        options = " ".join(
            f"--{key.replace('_', '-')} {value}"
            for key, value in {**self.overrides, "seed": seed}.items()
        )
        return f"PYTHONPATH=src python -m repro run {self.experiment} {options}"


class CheckFailed(Exception):
    """A run's output broke an invariant or missed its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def conserved(offered: float, delivered: float, filtered: float, congested: float) -> bool:
    """Offered bits = delivered + filtered + congestion-dropped bits."""
    return math.isclose(offered, delivered + filtered + congested, rel_tol=1e-9, abs_tol=1e-6)


_TOTAL_KEYS = ("offered_bits", "delivered_bits", "filtered_bits", "congestion_dropped_bits")

#: How to read ``(offered, delivered, filtered, congestion-dropped)`` bits
#: off each kind of per-interval output.
INTERVAL_TOTALS: dict[str, Callable[[Any], tuple[float, ...]]] = {
    "repro.ixp.fabric:SwitchingFabric.deliver": (
        lambda report: tuple(getattr(report, key) for key in _TOTAL_KEYS)
    ),
    "repro.ixp.shard:merge_interval_columns": (
        lambda merged: tuple(merged["totals"][key] for key in _TOTAL_KEYS)
    ),
}


def result_digest(workload: Workload, result: Any) -> str:
    """The value two runs of one config must share (traced or not)."""
    if workload.reference_kind == "report_digest":
        return str(result.report_digest)
    text = json.dumps(result.summary(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_reference(workload: Workload, result: Any) -> None:
    if workload.reference_kind == "report_digest":
        require(
            result.report_digest == workload.reference,
            f"report_digest {result.report_digest} != reference {workload.reference}",
        )
    else:
        summary = result.summary()
        require(summary == workload.reference, f"summary {summary} != reference")


def _check_churn(result: Any) -> None:
    require(result.mitigation_latency is not None, "the mitigation was never applied")


def _check_storm(result: Any) -> None:
    require(result.stats["applied_requests"] > 0, "no churn request was applied")


def _check_fine(result: Any) -> None:
    require(
        conserved(
            result.offered_bits,
            result.delivered_bits,
            result.filtered_bits,
            result.congestion_dropped_bits,
        ),
        "run totals break offered = delivered + filtered + congestion-dropped",
    )
    require(result.late_bits_before == 0.0, "the late rule dropped bits before its install")
    require(result.late_bits_after > 0.0, "the late rule dropped nothing after its install")


def _check_city(result: Any) -> None:
    require(result.shard_count > 1, "the plan did not shard the platform")


_CHURN_TINY = {
    "duration": 60.0,
    "member_count": 400,
    "pop_count": 4,
    "routers_per_pop": 1,
    "attack_peer_count": 20,
    "attack_start": 10.0,
    "attack_duration": 40.0,
    "mitigation_time": 20.0,
    "background_flows_per_interval": 500,
}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="churn",
            why=(
                "rule_churn at its defaults: rules change every interval while "
                "per-member delivery and the report digest dominate"
            ),
            experiment="rule_churn",
            overrides={},
            default_seed=23,
            setup_end=("repro.experiments.rule_churn:generate_churn_requests", "return"),
            reference_kind="report_digest",
            reference="07e0e890f16091d01d0b086490c9f9fdb93c6bc70ed6cb94f4a15310fc237d46",
            check=_check_churn,
            tiny=_CHURN_TINY,
        ),
        Workload(
            name="churn_storm",
            why=(
                "saturated router lanes: admission, drain, install, index patching "
                "and the asyncio driver dominate, delivery shrinks"
            ),
            experiment="rule_churn",
            overrides={
                "churn_events_per_second": 8.0,
                "burst_min": 8,
                "burst_max": 32,
                "background_flows_per_interval": 2000,
            },
            default_seed=23,
            setup_end=("repro.experiments.rule_churn:generate_churn_requests", "return"),
            reference_kind="report_digest",
            reference="34dfde0e098bd995b4a7c7c422f768fd85884d61a0fa93e2277fdc6cd6211457",
            check=_check_storm,
            tiny={**_CHURN_TINY, "background_flows_per_interval": 200},
        ),
        Workload(
            name="fine_rules",
            why=(
                "12k static rules read every interval: compiled-index classification "
                "and per-rule accounting, no service, few members"
            ),
            experiment="fine_grained",
            overrides={"duration": 1200.0, "late_rule_time": 600.0},
            default_seed=7,
            setup_end=(
                "repro.experiments.fine_grained:FineGrainedTrafficSource.interval_table",
                "call",
            ),
            reference_kind="summary",
            reference={
                "installed_rules": 12041.0,
                "exact_rules": 12001.0,
                "fallback_rules": 40.0,
                "matched_rules": 12002.0,
                "filtered_fraction": 0.4600262210687464,
                "delivered_gbit": 625.005618728,
                "filtered_gbit": 532.468397816,
                "late_rule_bits_before": 0.0,
                "late_rule_bits_after": 11587001800.0,
            },
            check=_check_fine,
            tiny={
                "duration": 60.0,
                "late_rule_time": 30.0,
                "member_count": 40,
                "protected_member_count": 4,
                "rules_per_member": 60,
                "hosts_per_member": 20,
                "flows_per_interval": 4000,
            },
        ),
        Workload(
            name="city_sharded",
            why=(
                "the only cross-process workload: worker spawn, shared-memory "
                "transport and the columnar merge over 10k members"
            ),
            experiment="city_scale",
            overrides={"workers": 2},
            default_seed=20,
            setup_end=("repro.experiments.parallel:iter_shard_intervals", "call"),
            reference_kind="report_digest",
            reference="2c658fcaf57e184b510aa202a07d7a4ac8cd79e43e6889e72b81f0ca8bf10962",
            check=_check_city,
            interval_output="repro.ixp.shard:merge_interval_columns",
            tiny={
                "duration": 240.0,
                "member_count": 300,
                "pop_count": 4,
                "attack_peer_count": 20,
                "attack_start": 30.0,
                "attack_duration": 150.0,
                "mitigation_time": 90.0,
                "background_flows_per_interval": 600,
            },
            serial_overrides={"execution": "serial"},
        ),
    )
}


def expected_intervals(config: Any) -> int:
    return int(config.duration / config.interval + 1e-9)
