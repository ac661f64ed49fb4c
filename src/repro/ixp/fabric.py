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

import json
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Optional, Union

import numpy as np

from ..traffic.flow import FlowRecord
from ..traffic.flowtable import FlowTable
from ..traffic.ipfix import IpfixCollector, IpfixExporter
from .accounting import ordered_sum
from .delivery import FabricDeliveryPlan
from .edge_router import EdgeRouter, PortNotFoundError
from .hardware_profiles import HardwareProfile
from .member import IxpMember
from .port import MemberPort
from .qos import PortQosResult
from .shard import columns_to_report_dict

#: Per-member bit-accounting fields carried by the columnar report view,
#: in the order :meth:`FabricIntervalReport.to_dict` lists them.
MEMBER_REPORT_FIELDS = (
    "forwarded_bits",
    "dropped_bits",
    "shaped_passed_bits",
    "shaped_dropped_bits",
    "congestion_dropped_bits",
)

#: A member's entry in :meth:`FabricIntervalReport.canonical_json`, in
#: sorted-key order: the text before each field's value.
_MEMBER_JSON = (
    ('":{"congestion_dropped_bits":', "congestion_dropped_bits"),
    (',"dropped_bits":', "dropped_bits"),
    (',"forwarded_bits":', "forwarded_bits"),
    (',"rule_stats":', "rule_stats"),
    (',"shaped_dropped_bits":', "shaped_dropped_bits"),
    (',"shaped_passed_bits":', "shaped_passed_bits"),
)


def _json_floats(values: np.ndarray) -> list[str]:
    """How :func:`json.dumps` writes each float of ``values``."""
    texts = ["0.0"] * len(values)
    # Zeros need no repr call; -0.0 compares equal to zero but keeps its sign.
    written = np.flatnonzero((values != 0.0) | np.signbit(values))
    for index, text in zip(written.tolist(), map(float.__repr__, values[written].tolist())):
        texts[index] = text
    for index in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[index] = json.dumps(float(values[index]))
    return texts


def _no_members() -> dict[str, np.ndarray]:
    return {name: np.zeros(0) for name in MEMBER_REPORT_FIELDS}


@dataclass(eq=False)
class FabricIntervalReport:
    """Platform-level outcome of one delivery interval, held as columns.

    Per-member accounting is one float64 array per
    :data:`MEMBER_REPORT_FIELDS` name, aligned with the ascending
    :attr:`member_asns`; :attr:`rule_stats` is sparse (only members whose
    rules claimed traffic have an entry).  :attr:`results_by_member` is a
    read-only mapping of member ASN to
    :class:`~repro.ixp.qos.PortQosResult`: the batched engine builds a
    rule-less member's result only when that member is looked up, so
    consumers that scan every member should read the columns (or
    :meth:`port_utilisation`) instead.
    """

    interval_start: float
    interval: float
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    filtered_bits: float = 0.0
    congestion_dropped_bits: float = 0.0
    member_asns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    member_fields: dict[str, np.ndarray] = field(default_factory=_no_members)
    #: ``{member ASN: {rule id: {"matched", "dropped", "shaped"}}}``.
    rule_stats: dict[int, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: Each member's egress port capacity, aligned with ``member_asns``.
    port_capacity_bps: np.ndarray = field(default_factory=lambda: np.zeros(0))
    results_by_member: Mapping[int, PortQosResult] = field(
        default_factory=lambda: MappingProxyType({})
    )

    @classmethod
    def from_results(
        cls,
        interval_start: float,
        interval: float,
        results: Mapping[int, PortQosResult],
        port_capacity_bps: Mapping[int, float],
        **totals: float,
    ) -> "FabricIntervalReport":
        """The report of the per-member engine: its eager results, each
        port's capacity, and the platform ``totals`` (``offered_bits=`` …)."""
        ordered = sorted(results.items())
        count = len(ordered)
        return cls(
            interval_start=interval_start,
            interval=interval,
            **totals,
            member_asns=np.fromiter(
                (asn for asn, _ in ordered), dtype=np.int64, count=count
            ),
            member_fields={
                name: np.fromiter(
                    (getattr(result, name) for _, result in ordered),
                    dtype=np.float64,
                    count=count,
                )
                for name in MEMBER_REPORT_FIELDS
            },
            rule_stats={
                asn: result.rule_stats for asn, result in ordered if result.rule_stats
            },
            port_capacity_bps=np.fromiter(
                (port_capacity_bps[asn] for asn, _ in ordered),
                dtype=np.float64,
                count=count,
            ),
            results_by_member=MappingProxyType(dict(ordered)),
        )

    @property
    def platform_load_bps(self) -> float:
        """Traffic carried across the platform during the interval (bps)."""
        if self.interval <= 0:
            return 0.0
        return self.offered_bits / self.interval

    def port_utilisation(self) -> np.ndarray:
        """Every member port's egress demand relative to its capacity.

        :meth:`~repro.ixp.port.MemberPort.utilisation`, column-wise and
        aligned with :attr:`member_asns`: delivered plus congestion-dropped
        bits over the interval's capacity budget (can exceed 1).
        """
        fields = self.member_fields
        demand_bits = (
            fields["forwarded_bits"]
            + fields["shaped_passed_bits"]
            + fields["congestion_dropped_bits"]
        )
        return demand_bits / (self.port_capacity_bps * self.interval)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-serializable view of the interval outcome.

        Every number the delivery engines *compute* is included — platform
        totals plus each member's bit accounting and per-rule stats — so
        equality of two reports' ``to_dict()`` is the parity contract
        between the ``batched`` and ``per-member`` engines (the fuzz suite
        asserts it for arbitrary generated topologies and rule sets).
        """
        return columns_to_report_dict(self.to_columns())

    def to_columns(self) -> dict[str, Any]:
        """Columnar view of the interval outcome, for the shard merge.

        Same numbers as :meth:`to_dict`, but per-member accounting is laid
        out as parallel numpy arrays in ascending-ASN order (the report's
        own arrays, not copies), so
        :func:`~repro.ixp.shard.merge_interval_columns` reduces shards with
        array concatenation + one argsort instead of per-member dict
        copies.  Sparse ``rule_stats`` stay a nested dict keyed by the
        ASN's string.  :func:`~repro.ixp.shard.columns_to_report_dict`
        converts back to the :meth:`to_dict` shape bit-for-bit (float64
        round-trips exactly).
        """
        return {
            "interval_start": self.interval_start,
            "interval": self.interval,
            "totals": {
                "offered_bits": self.offered_bits,
                "delivered_bits": self.delivered_bits,
                "filtered_bits": self.filtered_bits,
                "congestion_dropped_bits": self.congestion_dropped_bits,
            },
            "member_asns": self.member_asns,
            "member_fields": dict(self.member_fields),
            "rule_stats": {
                str(asn): {rule_id: dict(stats) for rule_id, stats in sorted(by_rule.items())}
                for asn, by_rule in self.rule_stats.items()
            },
        }

    def canonical_json(self) -> str:
        """The interval's digest text, written straight from the columns.

        Byte-identical to ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))`` without building a dict per member:
        member keys sort as strings, every float is ``float.__repr__``
        (json's ``NaN``/``Infinity`` spellings for the non-finite ones),
        a zero entry is ``0.0`` without a repr call, and the sparse
        ``rule_stats`` go through :func:`json.dumps`.
        """
        keys = [str(asn) for asn in self.member_asns.tolist()]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[index] for index in order]
        texts = {
            name: _json_floats(values[order]) for name, values in self.member_fields.items()
        }
        stats_texts = {
            str(asn): json.dumps(by_rule, sort_keys=True, separators=(",", ":"))
            for asn, by_rule in self.rule_stats.items()
        }
        texts["rule_stats"] = [stats_texts.get(key, "{}") for key in keys]
        # Member entries are laid out in one flat list by strided slice
        # assignment — key, then (prefix, value) per field, then the
        # separator — with no per-member formatting call.
        stride = 2 * len(_MEMBER_JSON) + 2
        parts = [""] * (stride * len(keys))
        parts[0::stride] = keys
        for slot, (prefix, name) in enumerate(_MEMBER_JSON):
            parts[2 * slot + 1 :: stride] = [prefix] * len(keys)
            parts[2 * slot + 2 :: stride] = texts[name]
        parts[stride - 1 :: stride] = ['},"'] * len(keys)
        members = '{"' + "".join(parts[:-1]) + "}}" if keys else "{}"
        dumps = json.dumps
        return (
            f'{{"congestion_dropped_bits":{dumps(self.congestion_dropped_bits)}'
            f',"delivered_bits":{dumps(self.delivered_bits)}'
            f',"filtered_bits":{dumps(self.filtered_bits)}'
            f',"interval":{dumps(self.interval)}'
            f',"interval_start":{dumps(self.interval_start)}'
            f',"members":{members}'
            f',"offered_bits":{dumps(self.offered_bits)}}}'
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
        self._connects = 0

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
        self._connects += 1
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

    @property
    def membership_version(self) -> int:
        """Counter bumped by every :meth:`connect_member` call.

        A delivery plan keys its port map off it, so checking that the
        membership is unchanged costs one comparison per interval.
        """
        return self._connects

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

        Plans snapshot every port's configuration version
        (:attr:`~repro.ixp.qos.PortQosPolicy.config_version`); installs,
        removals, engine switches and membership changes invalidate the
        cache, so a
        mid-run configuration change is picked up on the next interval
        while steady-state intervals skip the recompile entirely — and
        the per-port compiled match indexes are cached on the policies
        themselves, so a recompile compiles only the touched ports'
        indexes afresh.

        A stale cached plan is *patched*, not rebuilt: the replacement
        plan adopts the previous plan's compiled segment for every port
        whose configuration version is unchanged, so a single-port install
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
        A switch moves the ports' ``config_version``, so the next
        interval recompiles the delivery plan.
        """
        from .qos import _checked_engine

        _checked_engine(engine)  # also when no port is connected
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
            export_flows: Union[list[FlowRecord], FlowTable] = flows
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
            if isinstance(export_flows, FlowTable):
                export_flows = self._known_egress(export_flows)
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
        results: dict[int, PortQosResult] = {}
        capacities: dict[int, float] = {}
        # Platform totals are collected per member and folded once after
        # the loop, left to right in member order — exactly the sequence
        # the old running `+=` produced, so report payloads stay
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
            results[member_asn] = result
            capacities[member_asn] = router.port_for(member_asn).qos.port_capacity_bps
            if isinstance(member_flows, FlowTable):
                offered = float(member_flows.total_bits)
            else:
                offered = float(sum(flow.bits for flow in member_flows))
            offered_terms.append(offered)
            delivered_terms.append(result.delivered_bits)
            filtered_terms.append(result.dropped_bits + result.shaped_dropped_bits)
            congestion_terms.append(result.congestion_dropped_bits)
        return FabricIntervalReport.from_results(
            interval_start,
            interval,
            results,
            capacities,
            offered_bits=ordered_sum(offered_terms),
            delivered_bits=ordered_sum(delivered_terms),
            filtered_bits=ordered_sum(filtered_terms),
            congestion_dropped_bits=ordered_sum(congestion_terms),
        )

    def platform_overloaded(self, report: FabricIntervalReport) -> bool:
        """True if the interval's load exceeded the platform capacity."""
        return report.platform_load_bps > self.platform_capacity_bps
