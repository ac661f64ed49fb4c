"""The IXP switching fabric.

The fabric ties everything together on the data plane: members connect to
edge routers (grouped into PoPs), traffic entering through one member's
port crosses the platform and leaves through the destination member's
egress port, where the QoS policy (and thus any Stellar blackholing rule)
is applied.  The fabric also tracks platform-level utilisation, because
the paper's egress-filtering choice is only viable while the platform has
spare capacity to carry attack traffic to the egress port (§4.5).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..traffic.flow import FlowRecord
from ..traffic.flowtable import FlowTable
from ..traffic.ipfix import IpfixCollector, IpfixExporter
from .delivery import FabricDeliveryPlan
from .edge_router import EdgeRouter, PortNotFoundError
from .hardware_profiles import HardwareProfile
from .member import IxpMember
from .port import MemberPort
from .qos import PortQosResult


@dataclass
class FabricIntervalReport:
    """Platform-level outcome of one delivery interval."""

    interval_start: float
    interval: float
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    filtered_bits: float = 0.0
    congestion_dropped_bits: float = 0.0
    results_by_member: dict[int, PortQosResult] = field(default_factory=dict)

    @property
    def platform_load_bps(self) -> float:
        """Traffic carried across the platform during the interval (bps)."""
        if self.interval <= 0:
            return 0.0
        return self.offered_bits / self.interval

    def to_dict(self) -> dict:
        """Canonical JSON-serializable view of the interval outcome.

        Every number the delivery engines *compute* is included — platform
        totals plus each member's bit accounting and per-rule stats — so
        equality of two reports' ``to_dict()`` is the parity contract
        between the ``batched`` and ``per-member`` engines (the fuzz suite
        asserts it for arbitrary generated topologies and rule sets).
        """
        return {
            "interval_start": self.interval_start,
            "interval": self.interval,
            "offered_bits": self.offered_bits,
            "delivered_bits": self.delivered_bits,
            "filtered_bits": self.filtered_bits,
            "congestion_dropped_bits": self.congestion_dropped_bits,
            "members": {
                str(asn): {
                    "forwarded_bits": result.forwarded_bits,
                    "dropped_bits": result.dropped_bits,
                    "shaped_passed_bits": result.shaped_passed_bits,
                    "shaped_dropped_bits": result.shaped_dropped_bits,
                    "congestion_dropped_bits": result.congestion_dropped_bits,
                    "rule_stats": {
                        rule_id: dict(stats)
                        for rule_id, stats in sorted(result.rule_stats.items())
                    },
                }
                for asn, result in sorted(self.results_by_member.items())
            },
        }

    def to_columns(self) -> dict:
        """Columnar view of the interval outcome, for the shard merge.

        Same numbers as :meth:`to_dict`, but per-member accounting is laid
        out as parallel numpy arrays in ascending-ASN order, so
        :func:`~repro.ixp.shard.merge_interval_columns` reduces shards with
        array concatenation + one argsort instead of per-member dict
        copies.  Sparse ``rule_stats`` stay a nested dict (only members
        with claimed rules carry entries).
        :func:`~repro.ixp.shard.columns_to_report_dict` converts back to
        the :meth:`to_dict` shape bit-for-bit (float64 round-trips
        exactly).
        """
        ordered = sorted(self.results_by_member.items())
        return {
            "interval_start": self.interval_start,
            "interval": self.interval,
            "totals": {
                "offered_bits": self.offered_bits,
                "delivered_bits": self.delivered_bits,
                "filtered_bits": self.filtered_bits,
                "congestion_dropped_bits": self.congestion_dropped_bits,
            },
            "member_asns": np.fromiter(
                (asn for asn, _ in ordered), dtype=np.int64, count=len(ordered)
            ),
            "member_fields": {
                name: np.fromiter(
                    (getattr(result, name) for _, result in ordered),
                    dtype=np.float64,
                    count=len(ordered),
                )
                for name in MEMBER_REPORT_FIELDS
            },
            "rule_stats": {
                str(asn): {
                    rule_id: dict(stats)
                    for rule_id, stats in sorted(result.rule_stats.items())
                }
                for asn, result in ordered
                if result.rule_stats
            },
        }


#: Per-member bit-accounting fields carried by the columnar report view,
#: in the order :meth:`FabricIntervalReport.to_dict` lists them.
MEMBER_REPORT_FIELDS = (
    "forwarded_bits",
    "dropped_bits",
    "shaped_passed_bits",
    "shaped_dropped_bits",
    "congestion_dropped_bits",
)


#: Delivery engines :meth:`SwitchingFabric.deliver` can run.
DELIVERY_ENGINES = ("batched", "per-member")


class SwitchingFabric:
    """The IXP's layer-2 switching platform.

    ``delivery_engine`` selects how an interval's columnar traffic crosses
    the platform: ``"batched"`` (the default) compiles a
    :class:`~repro.ixp.delivery.FabricDeliveryPlan` and runs one
    platform-level group-by + classification pass; ``"per-member"`` is the
    parity-tested fallback that walks egress members one at a time.
    Record-list input always takes the per-member path.
    """

    def __init__(
        self,
        name: str = "l-ixp",
        platform_capacity_bps: float = 25e12,
        ipfix_sampling_rate: int = 1,
        delivery_engine: str = "batched",
        collect_ipfix: bool = True,
        retain_reports: bool = True,
        retain_history: bool = True,
    ) -> None:
        if platform_capacity_bps <= 0:
            raise ValueError("platform capacity must be positive")
        if delivery_engine not in DELIVERY_ENGINES:
            raise ValueError(
                f"unknown delivery engine {delivery_engine!r}; "
                f"known: {', '.join(DELIVERY_ENGINES)}"
            )
        self.name = name
        self.delivery_engine = delivery_engine
        #: Connected member capacity of the platform (25 Tbps at DE-CIX
        #: Frankfurt in 2017, paper footnote 1).
        self.platform_capacity_bps = platform_capacity_bps
        #: Streaming knobs: an hour-long city-scale run delivers thousands
        #: of intervals through one fabric, so accumulating every IPFIX
        #: export, interval report and per-port result history would hold
        #: the whole trace in memory.  Disabling retention changes no
        #: delivered/filtered accounting — reports are still returned to
        #: the caller, just not stored on the fabric.
        self.collect_ipfix = collect_ipfix
        self.retain_reports = retain_reports
        self.retain_history = retain_history
        self._edge_routers: dict[str, EdgeRouter] = {}
        self._members: dict[int, IxpMember] = {}
        self._router_for_member: dict[int, str] = {}
        self.collector = IpfixCollector()
        self._exporter = IpfixExporter(
            exporter_id=f"{name}-fabric", sampling_rate=ipfix_sampling_rate
        )
        self.reports: list[FabricIntervalReport] = []
        self._plan_cache: Optional[FabricDeliveryPlan] = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_edge_router(self, router: EdgeRouter) -> EdgeRouter:
        if router.name in self._edge_routers:
            raise ValueError(f"edge router {router.name!r} already exists")
        self._edge_routers[router.name] = router
        return router

    def connect_member(self, member: IxpMember, router_name: Optional[str] = None) -> MemberPort:
        """Connect a member to an edge router (the first one by default)."""
        if not self._edge_routers:
            raise RuntimeError("add an edge router before connecting members")
        if router_name is None:
            # Prefer the router in the member's PoP, else the least loaded one.
            candidates = [
                router for router in self._edge_routers.values() if router.pop == member.pop
            ] or list(self._edge_routers.values())
            router = min(candidates, key=lambda r: len(r.member_asns))
        else:
            router = self._edge_routers[router_name]
        port = router.connect_member(member)
        port.retain_history = self.retain_history
        self._members[member.asn] = member
        self._router_for_member[member.asn] = router.name
        return port

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def members(self) -> list[IxpMember]:
        return list(self._members.values())

    @property
    def member_asns(self) -> set[int]:
        return set(self._members)

    def member(self, asn: int) -> IxpMember:
        try:
            return self._members[asn]
        except KeyError as exc:
            raise KeyError(f"AS{asn} is not a member of {self.name}") from exc

    def edge_routers(self) -> list[EdgeRouter]:
        return list(self._edge_routers.values())

    def router_for_member(self, member_asn: int) -> EdgeRouter:
        try:
            return self._edge_routers[self._router_for_member[member_asn]]
        except KeyError as exc:
            raise PortNotFoundError(f"AS{member_asn} is not connected") from exc

    def port_for_member(self, member_asn: int) -> MemberPort:
        return self.router_for_member(member_asn).port_for(member_asn)

    @property
    def connected_capacity_bps(self) -> float:
        """Sum of member port capacities (the "connected capacity")."""
        return sum(member.port_capacity_bps for member in self._members.values())

    def rules_version_total(self) -> int:
        """Sum of every connected port's ``rules_version``.

        Each bump is one rule-set mutation — and thus one compiled
        match-index (and delivery-plan slice) recompile the next interval
        pays for.  The control-plane service's coalescing exists to keep
        this total low under churn; the ``rule_churn`` scenario and the
        service bench report it as the recompile-amortization metric.
        """
        return sum(
            port.qos.rules_version
            for router in self._edge_routers.values()
            for port in router.ports()
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def compile_delivery_plan(self) -> FabricDeliveryPlan:
        """Snapshot the connected ports + rules into a batched delivery plan."""
        return FabricDeliveryPlan(self)

    def current_delivery_plan(self) -> FabricDeliveryPlan:
        """The cached delivery plan, recompiled only when stale.

        Plans snapshot every port's rule-set version
        (:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`); installs,
        removals and membership changes invalidate the cache, so a
        mid-run configuration change is picked up on the next interval
        while steady-state intervals skip the recompile entirely — and
        the per-port compiled match indexes are cached on the policies
        themselves, so a recompile compiles only the touched ports'
        indexes afresh.

        A stale cached plan is *patched*, not rebuilt: the replacement
        plan adopts the previous plan's compiled segment for every port
        whose rule-set version is unchanged, so a single-port install
        re-derives only that port's slice of the platform rule set.
        """
        plan = self._plan_cache
        if plan is None or not plan.is_current():
            plan = FabricDeliveryPlan(self, previous=plan)
            self._plan_cache = plan
        return plan

    def set_classification_engine(self, engine: str) -> None:
        """Switch every connected port's QoS classification engine.

        ``"indexed"`` (the default) or ``"per-rule"`` — the parity knob
        the fine-grained experiments sweep.  Applies to currently
        connected ports; ports connected later use the policy default.
        """
        from .qos import CLASSIFICATION_ENGINES

        if engine not in CLASSIFICATION_ENGINES:
            raise ValueError(
                f"unknown classification engine {engine!r}; "
                f"known: {', '.join(CLASSIFICATION_ENGINES)}"
            )
        for router in self._edge_routers.values():
            for port in router.ports():
                port.qos.classification_engine = engine

    def deliver(
        self,
        flows: Union[Iterable[FlowRecord], FlowTable],
        interval: float,
        interval_start: float = 0.0,
        engine: Optional[str] = None,
    ) -> FabricIntervalReport:
        """Carry one observation interval of traffic across the platform.

        Flows are grouped by their egress member, pushed through that
        member's port QoS policy, and the per-member results plus a
        platform-level summary are returned.  Flows whose egress member is
        unknown are ignored (they never entered the IXP) — including by the
        IPFIX export, which only sees traffic the platform actually
        carried.  A columnar :class:`FlowTable` input runs on the fabric's
        configured ``delivery_engine`` (overridable per call via
        ``engine``); record-list input always takes the per-member path.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        engine = self.delivery_engine if engine is None else engine
        if engine not in DELIVERY_ENGINES:
            raise ValueError(
                f"unknown delivery engine {engine!r}; known: {', '.join(DELIVERY_ENGINES)}"
            )
        if isinstance(flows, FlowTable):
            export_flows: Union[list[FlowRecord], FlowTable] = self._known_egress(flows)
            if engine == "batched":
                report = self.current_delivery_plan().execute(
                    flows, interval, interval_start
                )
            else:
                report = self._deliver_per_member(
                    self._group_table(flows), interval, interval_start
                )
        else:
            flows = list(flows)
            grouped: dict[int, list[FlowRecord]] = defaultdict(list)
            export_flows = []
            for flow in flows:
                if flow.egress_member_asn in self._members:
                    grouped[flow.egress_member_asn].append(flow)
                    export_flows.append(flow)
            report = self._deliver_per_member(dict(grouped), interval, interval_start)

        if self.collect_ipfix:
            self.collector.receive(
                self._exporter.export(export_flows, export_time=interval_start)
            )
        if self.retain_reports:
            self.reports.append(report)
        return report

    def _known_egress(self, flows: FlowTable) -> FlowTable:
        """The rows whose egress member is connected (= traffic the IXP saw)."""
        if not len(flows):
            return flows
        if not self._members:
            return flows.select(np.zeros(len(flows), dtype=bool))
        member_asns = np.fromiter(
            self._members, dtype=np.int64, count=len(self._members)
        )
        known = np.isin(flows.egress_asn, member_asns)
        return flows if bool(known.all()) else flows.select(known)

    def _group_table(self, flows: FlowTable) -> dict[int, FlowTable]:
        """Per-member sub-tables (the per-member engine's group-by)."""
        by_member: dict[int, FlowTable] = {}
        egress = flows.egress_asn
        for member_asn in np.unique(egress).tolist():
            if member_asn in self._members:
                by_member[member_asn] = flows.select(egress == member_asn)
        return by_member

    def _deliver_per_member(
        self,
        by_member: dict[int, Union[list[FlowRecord], FlowTable]],
        interval: float,
        interval_start: float,
    ) -> FabricIntervalReport:
        """The fallback engine: one ``qos.apply`` per egress member."""
        report = FabricIntervalReport(interval_start=interval_start, interval=interval)
        # Platform totals are collected per member and reduced once after
        # the loop; sum() adds left-to-right in member order, exactly the
        # sequence the old running `+=` produced, so report payloads stay
        # bit-for-bit identical (RPL006: no float `+=` in loops).
        offered_terms: list[float] = []
        delivered_terms: list[float] = []
        filtered_terms: list[float] = []
        congestion_terms: list[float] = []
        for member_asn, member_flows in by_member.items():
            router = self.router_for_member(member_asn)
            result = router.deliver(
                {member_asn: member_flows}, interval, interval_start
            )[member_asn]
            report.results_by_member[member_asn] = result
            if isinstance(member_flows, FlowTable):
                offered = float(member_flows.total_bits)
            else:
                offered = float(sum(flow.bits for flow in member_flows))
            offered_terms.append(offered)
            delivered_terms.append(result.delivered_bits)
            filtered_terms.append(result.dropped_bits + result.shaped_dropped_bits)
            congestion_terms.append(result.congestion_dropped_bits)
        report.offered_bits = float(sum(offered_terms))
        report.delivered_bits = float(sum(delivered_terms))
        report.filtered_bits = float(sum(filtered_terms))
        report.congestion_dropped_bits = float(sum(congestion_terms))
        return report

    def platform_overloaded(self, report: FabricIntervalReport) -> bool:
        """True if the interval's load exceeded the platform capacity."""
        return report.platform_load_bps > self.platform_capacity_bps
