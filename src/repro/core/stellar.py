"""The Stellar system facade.

Wires the three layers of the architecture (paper Fig. 5) together over an
IXP fabric:

* **signaling** — route server + :class:`~repro.core.signaling.SignalingLayer`
  + customer portal,
* **management** — :class:`~repro.core.controller.BlackholingController`,
  token-bucket :class:`~repro.core.change_queue.ChangeQueue`,
  :class:`~repro.core.manager.QosNetworkManager` with its hardware
  information base,
* **filtering** — the per-port QoS policies of the
  :class:`~repro.ixp.fabric.SwitchingFabric`.

The facade exposes the operations experiments and examples need: connect
members, signal/withdraw mitigation requests (via BGP or API), advance the
control plane, push data-plane traffic through the IXP, and query telemetry.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..bgp.policy import ImportPolicy, permissive_policy
from ..bgp.prefix import Prefix, parse_prefix
from ..bgp.route_server import RouteServer
from ..ixp.fabric import FabricIntervalReport, SwitchingFabric
from ..ixp.member import IxpMember
from ..traffic.flow import FlowRecord
from ..traffic.flowtable import FlowTable
from .change_queue import ChangeQueue
from .community_codec import StellarCommunityCodec
from .controller import BlackholingController
from .hardware_info import HardwareInformationBase
from .manager import DeploymentRecord, QosNetworkManager
from .portal import CustomerPortal
from .rules import BlackholingRule
from .signaling import SignalingLayer, SignalResult
from .telemetry import MemberTelemetryReport, TelemetryCollector


@dataclass
class StellarIntervalReport:
    """Combined control-plane + data-plane outcome of one simulation interval."""

    fabric_report: FabricIntervalReport
    deployments: list[DeploymentRecord] = field(default_factory=list)

    @property
    def delivered_bits(self) -> float:
        return self.fabric_report.delivered_bits

    @property
    def filtered_bits(self) -> float:
        return self.fabric_report.filtered_bits


class Stellar:
    """The Advanced Blackholing system deployed at an IXP."""

    def __init__(
        self,
        ixp_asn: int,
        fabric: Optional[SwitchingFabric] = None,
        policy: Optional[ImportPolicy] = None,
        change_rate_per_second: float = 4.33,
        max_burst_size: int = 10,
        translate_rtbh: bool = True,
    ) -> None:
        self.ixp_asn = ixp_asn
        self.fabric = fabric if fabric is not None else SwitchingFabric()
        self.route_server = RouteServer(
            ixp_asn=ixp_asn, policy=policy if policy is not None else permissive_policy()
        )
        self.portal = CustomerPortal()
        self.codec = StellarCommunityCodec(ixp_asn)
        self.change_queue = ChangeQueue(
            rate_per_second=change_rate_per_second, max_burst_size=max_burst_size
        )
        self._now = 0.0
        self.controller = BlackholingController(
            ixp_asn=ixp_asn,
            change_queue=self.change_queue,
            portal=self.portal,
            codec=self.codec,
            translate_rtbh=translate_rtbh,
            clock=lambda: self._now,
        )
        self.hardware_info = HardwareInformationBase()
        for router in self.fabric.edge_routers():
            self.hardware_info.register_router(router)
        self.manager = QosNetworkManager(
            fabric=self.fabric,
            change_queue=self.change_queue,
            hardware_info=self.hardware_info,
        )
        self.signaling = SignalingLayer(
            route_server=self.route_server,
            controller=self.controller,
            portal=self.portal,
            codec=self.codec,
        )
        self.telemetry = TelemetryCollector()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_member(self, member: IxpMember, register_prefixes: bool = True) -> None:
        """Connect a member to the fabric and the route server."""
        self.fabric.connect_member(member)
        if member.uses_route_server:
            self.route_server.connect_member(member.asn)
        if register_prefixes and self.route_server.policy.require_irr:
            self.route_server.policy.irr.register_many(member.prefixes, member.asn)
        # Newly added routers (if the fabric grew) must be known to the HIB.
        known = {router.name for router in self.hardware_info.routers()}
        for router in self.fabric.edge_routers():
            if router.name not in known:
                self.hardware_info.register_router(router)

    def add_members(self, members: Iterable[IxpMember]) -> None:
        for member in members:
            self.add_member(member)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> None:
        """Advance the system clock (control-plane timestamps)."""
        if time < self._now:
            raise ValueError(f"cannot move time backwards from {self._now} to {time}")
        self._now = time

    # ------------------------------------------------------------------
    # Member-facing operations
    # ------------------------------------------------------------------
    def request_mitigation(
        self, rule: BlackholingRule, via: str = "bgp"
    ) -> SignalResult:
        """Signal a blackholing rule (``via`` is ``"bgp"`` or ``"api"``)."""
        if via == "bgp":
            return self.signaling.signal_via_bgp(rule)
        if via == "api":
            return self.signaling.signal_via_api(rule)
        raise ValueError(f"unknown signalling path {via!r}; use 'bgp' or 'api'")

    def request_predefined_mitigation(
        self, member_asn: int, prefix: "str | Prefix", predefined_rule_id: int
    ) -> SignalResult:
        """Signal a predefined (portal) rule by its identifier."""
        return self.signaling.signal_predefined_via_bgp(
            member_asn, prefix, predefined_rule_id
        )

    def withdraw_mitigation(
        self, member_asn: int, prefix: "str | Prefix", via: str = "bgp"
    ) -> SignalResult:
        """Withdraw the mitigation for a prefix."""
        if via == "bgp":
            return self.signaling.withdraw_via_bgp(member_asn, prefix)
        if via == "api":
            return self.signaling.withdraw_via_api(member_asn, prefix)
        raise ValueError(f"unknown signalling path {via!r}; use 'bgp' or 'api'")

    # ------------------------------------------------------------------
    # Control plane / data plane stepping
    # ------------------------------------------------------------------
    def process_control_plane(self, now: Optional[float] = None) -> list[DeploymentRecord]:
        """Deploy pending configuration changes allowed by the token bucket."""
        if now is not None:
            self.advance_to(now)
        return self.manager.process_pending(self._now)

    def deliver_traffic(
        self,
        flows: "Sequence[FlowRecord] | FlowTable",
        interval: float,
        interval_start: Optional[float] = None,
    ) -> StellarIntervalReport:
        """Process one observation interval: control plane first, then traffic.

        The data plane is columnar: record sequences are ingested into a
        :class:`FlowTable` up front, so the fabric and per-port QoS
        classification always take the vectorized path regardless of the
        caller's representation.
        """
        if not isinstance(flows, FlowTable):
            flows = FlowTable.from_records(flows)
        start = self._now if interval_start is None else interval_start
        if interval_start is not None:
            self.advance_to(interval_start)
        deployments = self.process_control_plane()
        fabric_report = self.fabric.deliver(flows, interval, start)
        self._record_telemetry(fabric_report, interval, start)
        self._now = start + interval
        return StellarIntervalReport(fabric_report=fabric_report, deployments=deployments)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_telemetry(
        self, report: FabricIntervalReport, interval: float, time: float
    ) -> None:
        # The QoS policies attribute matched/dropped/shaped bits per rule id
        # while classifying, so telemetry folds those stats in directly
        # instead of re-classifying every dropped/shaped flow.
        for member_asn, stats_by_rule in report.rule_stats.items():
            for rule_id, stats in stats_by_rule.items():
                self.telemetry.record_rule_interval(
                    rule_id=rule_id,
                    member_asn=member_asn,
                    matched_bits=stats["matched"],
                    dropped_bits=stats["dropped"],
                    shaped_passed_bits=stats["shaped"],
                    interval=interval,
                    time=time,
                )

    def telemetry_report(self, member_asn: int) -> MemberTelemetryReport:
        """The member-facing telemetry report at the current time."""
        return self.telemetry.report_for_member(member_asn, time=self._now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_rules(self) -> list[BlackholingRule]:
        return self.controller.active_rules()

    def installed_rule_count(self) -> int:
        """Rules actually installed on the data plane across all routers."""
        return sum(len(router.installed_rules()) for router in self.fabric.edge_routers())
