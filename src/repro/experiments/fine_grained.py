"""Fine-grained rule-load experiment: the paper's scalability claim, live.

Table 1 and §5 of the paper argue that advanced blackholing stays
effective with *tens of thousands* of fine-grained rules — far beyond what
RTBH or ACL pre-filtering hardware sustains.  This driver puts that claim
on the data plane: ``protected_member_count`` members each hold
``rules_per_member`` Stellar drop/shape rules (the dominant
``dst host + UDP + src_port`` shape, plus MAC policy-control rules that
exercise the masked fallback), and every observation interval pushes a mix
of rule-targeted reflection traffic and platform background through the
multi-PoP fabric.

Classification runs on the compiled rule-match index
(:mod:`repro.ixp.ruleindex`) by default; ``classification_engine`` is a
sweepable knob, so the indexed and per-rule engines can be compared from
the CLI — their results are pinned identical (modulo the knob itself) in
``tests/experiments/test_scenarios.py``, and
``benchmarks/test_bench_ruleindex.py`` pins the speedup.

A mid-run rule install (``late_rule_time``) proves end to end that the
version-counter cache invalidation works: the late rule's (host, port)
traffic forwards before the install and is dropped after it, without any
manual recompilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.rules import BlackholingRule
from ..sim.rng import derive_seed, make_rng
from ..traffic.flowtable import FlowTable
from .harness import SteppedExperiment
from .results import JsonResultMixin
from .scenario import FineGrainedScenario, build_fine_grained_scenario


@dataclass
class FineGrainedConfig:
    """Parameters of the fine-grained rule-load scenario."""

    duration: float = 120.0
    interval: float = 10.0
    member_count: int = 200
    pop_count: int = 4
    routers_per_pop: int = 2
    #: Members holding fine-grained rule sets.
    protected_member_count: int = 20
    #: Stellar drop/shape rules per protected member (defaults: 20 x 600
    #: = 12 000 exact-shape rules, the paper-claim regime).
    rules_per_member: int = 600
    hosts_per_member: int = 50
    #: Every n-th rule is a SHAPE telemetry rule instead of a DROP.
    shape_every: int = 10
    shape_rate_bps: float = 5e6
    #: MAC policy-control rules per protected member (fallback path).
    mac_rules_per_member: int = 2
    #: Flows per observation interval (targeted + background).
    flows_per_interval: int = 60000
    #: Share of the interval aimed at rule-covered (host, port) pairs.
    targeted_fraction: float = 0.5
    #: Share of the interval aimed at the late rule's pair (forwarded
    #: until the rule is installed mid-run).
    late_fraction: float = 0.02
    #: When the late rule is installed (< 0 disables the event).
    late_rule_time: float = 60.0
    #: QoS classification engine: "indexed" (compiled rule-match index)
    #: or "per-rule" (the parity-tested fallback pass) — sweepable.
    classification_engine: str = "indexed"
    #: Fabric delivery engine: "batched" or "per-member".
    delivery_engine: str = "batched"
    seed: int = 7


class FineGrainedTrafficSource:
    """Seeded per-interval columnar traffic for the fine-grained scenario.

    Three deterministic sub-populations per interval:

    * **targeted** — UDP flows whose (dst host, src port, egress member)
      triple is covered by an installed rule (drawn uniformly over all
      covered pairs), tagged ``is_attack``;
    * **late** — flows aimed at the late rule's pair, forwarded until the
      rule exists;
    * **background** — the platform mesh: random addresses, ephemeral
      ports, random egress members.
    """

    def __init__(
        self,
        scenario: FineGrainedScenario,
        flows_per_interval: int,
        targeted_fraction: float,
        late_fraction: float,
        interval: float,
        seed: int,
    ) -> None:
        if not 0.0 <= targeted_fraction <= 1.0:
            raise ValueError("targeted_fraction must be within [0, 1]")
        if not 0.0 <= late_fraction <= 1.0 - targeted_fraction:
            raise ValueError("late_fraction must fit beside targeted_fraction")
        self.flows_per_interval = flows_per_interval
        self.interval = interval
        self.seed = seed
        pairs = scenario.covered_pairs
        self._pair_dst = np.fromiter((p[0] for p in pairs), np.uint32, len(pairs))
        self._pair_port = np.fromiter((p[1] for p in pairs), np.int32, len(pairs))
        self._pair_egress = np.fromiter((p[2] for p in pairs), np.int64, len(pairs))
        self._late_dst, self._late_port, self._late_egress = scenario.late_pair
        self._member_asns = np.fromiter(
            (member.asn for member in scenario.members), np.int64, len(scenario.members)
        )
        self._late_count = int(flows_per_interval * late_fraction)
        self._targeted_count = int(flows_per_interval * targeted_fraction)
        self._background_count = (
            flows_per_interval - self._targeted_count - self._late_count
        )
        if self._targeted_count > 0 and not len(self._pair_dst):
            raise ValueError(
                "no rule-covered (host, port) pairs to target: install rules "
                "(rules_per_member >= 1) or set targeted_fraction=0"
            )

    # ------------------------------------------------------------------
    def interval_table(self, t: float) -> FlowTable:
        """One observation interval's flow batch (deterministic per t)."""
        rng = make_rng(derive_seed(self.seed, int(round(t * 1000))))
        n_t, n_l, n_b = self._targeted_count, self._late_count, self._background_count
        n = n_t + n_l + n_b

        dst_ip = np.empty(n, dtype=np.uint32)
        src_port = np.empty(n, dtype=np.int32)
        egress = np.empty(n, dtype=np.int64)
        is_attack = np.zeros(n, dtype=bool)

        if n_t:
            choice = rng.integers(0, len(self._pair_dst), size=n_t)
            dst_ip[:n_t] = self._pair_dst[choice]
            src_port[:n_t] = self._pair_port[choice]
            egress[:n_t] = self._pair_egress[choice]
            is_attack[:n_t] = True

        dst_ip[n_t:n_t + n_l] = self._late_dst
        src_port[n_t:n_t + n_l] = self._late_port
        egress[n_t:n_t + n_l] = self._late_egress
        is_attack[n_t:n_t + n_l] = True

        dst_ip[n_t + n_l:] = rng.integers(0x0B000000, 0xDF000000, size=n_b)
        src_port[n_t + n_l:] = rng.integers(49152, 65536, size=n_b)
        egress[n_t + n_l:] = rng.choice(self._member_asns, size=n_b)

        return FlowTable(
            src_ip=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.uint32),
            dst_ip=dst_ip,
            protocol=np.where(is_attack, 17, rng.choice([6, 17], size=n)).astype(np.uint8),
            src_port=src_port,
            dst_port=rng.integers(1024, 65536, size=n).astype(np.int32),
            start=np.full(n, t),
            duration=np.full(n, self.interval),
            bytes=rng.integers(200, 40000, size=n).astype(np.int64),
            packets=np.maximum(1, rng.integers(1, 30, size=n)).astype(np.int64),
            ingress_asn=rng.choice(self._member_asns, size=n),
            egress_asn=egress,
            is_attack=is_attack,
        )


@dataclass
class FineGrainedResult(JsonResultMixin):
    """Platform accounting of the fine-grained rule-load run."""

    config: FineGrainedConfig
    installed_rule_count: int
    #: Aggregated compiled-index shape over the protected ports
    #: (exact vs fallback rules/groups) — engine-independent.
    index_stats: dict[str, int]
    intervals: int
    offered_bits: float
    delivered_bits: float
    filtered_bits: float
    congestion_dropped_bits: float
    #: Distinct rule ids that matched traffic at least once.
    matched_rule_count: int
    #: Bits the mid-run ("late") rule dropped before/after its install.
    late_bits_before: float
    late_bits_after: float
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        offered = self.offered_bits or 1.0
        return {
            "installed_rules": float(self.installed_rule_count),
            "exact_rules": float(self.index_stats.get("exact_rules", 0)),
            "fallback_rules": float(self.index_stats.get("fallback_rules", 0)),
            "matched_rules": float(self.matched_rule_count),
            "filtered_fraction": self.filtered_bits / offered,
            "delivered_gbit": self.delivered_bits / 1e9,
            "filtered_gbit": self.filtered_bits / 1e9,
            "late_rule_bits_before": self.late_bits_before,
            "late_rule_bits_after": self.late_bits_after,
        }


def run_fine_grained_experiment(
    config: FineGrainedConfig | None = None,
    scenario: FineGrainedScenario | None = None,
) -> FineGrainedResult:
    """Run the fine-grained rule-load scenario."""
    config = config if config is not None else FineGrainedConfig()
    if scenario is None:
        scenario = build_fine_grained_scenario(
            member_count=config.member_count,
            pop_count=config.pop_count,
            routers_per_pop=config.routers_per_pop,
            protected_member_count=config.protected_member_count,
            rules_per_member=config.rules_per_member,
            hosts_per_member=config.hosts_per_member,
            shape_every=config.shape_every,
            shape_rate_bps=config.shape_rate_bps,
            mac_rules_per_member=config.mac_rules_per_member,
            delivery_engine=config.delivery_engine,
            classification_engine=config.classification_engine,
            seed=config.seed,
        )
    fabric = scenario.fabric
    source = FineGrainedTrafficSource(
        scenario,
        flows_per_interval=config.flows_per_interval,
        targeted_fraction=config.targeted_fraction,
        late_fraction=config.late_fraction,
        interval=config.interval,
        seed=config.seed + 1,
    )
    harness = SteppedExperiment(duration=config.duration, interval=config.interval)
    totals = {
        "offered": 0.0,
        "delivered": 0.0,
        "filtered": 0.0,
        "congested": 0.0,
        "late_before": 0.0,
        "late_after": 0.0,
    }
    matched_rule_ids: set = set()
    late_rule_id = "late-fine-grained"
    late_installed = {"done": False}

    def install_late_rule() -> None:
        member_asn = scenario.late_pair[2]
        host = scenario.late_pair[0]
        rule = BlackholingRule(
            owner_asn=member_asn,
            dst_prefix=_host_prefix(host),
            protocol=None,
            src_port=int(scenario.late_pair[1]),
        )
        qos_rule = rule.to_qos_rule()
        qos_rule = _with_rule_id(qos_rule, late_rule_id)
        fabric.router_for_member(member_asn).install_rule(member_asn, qos_rule)
        late_installed["done"] = True

    if config.late_rule_time >= 0:
        harness.at(config.late_rule_time, install_late_rule, name="late-rule-install")

    def step(t: float, interval: float) -> None:
        flows = source.interval_table(t)
        report = fabric.deliver(flows, interval, t)
        totals["offered"] += report.offered_bits
        totals["delivered"] += report.delivered_bits
        totals["filtered"] += report.filtered_bits
        totals["congested"] += report.congestion_dropped_bits
        for stats_by_rule in report.rule_stats.values():
            matched_rule_ids.update(stats_by_rule)
        late_stats = report.rule_stats.get(scenario.late_pair[2], {})
        key = "late_after" if late_installed["done"] else "late_before"
        totals[key] += late_stats.get(late_rule_id, {}).get("dropped", 0.0)

    harness.run(step)

    index_stats: dict[str, int] = {}
    for member in scenario.protected:
        stats = fabric.port_for_member(member.asn).qos.compiled_index().describe()
        for key, value in stats.items():
            index_stats[key] = index_stats.get(key, 0) + value

    return FineGrainedResult(
        config=config,
        installed_rule_count=scenario.installed_rule_count
        + (1 if late_installed["done"] else 0),
        index_stats=index_stats,
        intervals=len(harness.step_times()),
        offered_bits=totals["offered"],
        delivered_bits=totals["delivered"],
        filtered_bits=totals["filtered"],
        congestion_dropped_bits=totals["congested"],
        matched_rule_count=len(matched_rule_ids - {late_rule_id}),
        late_bits_before=totals["late_before"],
        late_bits_after=totals["late_after"],
        events=harness.events(),
    )


def _host_prefix(address_int: int):
    from ..bgp.prefix import parse_prefix
    from ..traffic.flowtable import ints_to_ips

    return parse_prefix(ints_to_ips([address_int])[0])


def _with_rule_id(rule, rule_id: str):
    from dataclasses import replace

    return replace(rule, rule_id=rule_id)
