"""Batched fabric delivery: engine parity, lazy results, IPFIX export.

The batched engine must be indistinguishable from the per-member loop —
same multiset of flow verdicts, same bit accounting, same counters — on
multi-router, multi-PoP topologies with drop/shape/forward rules and
stateful shapers across intervals.  These tests pin that, plus the
export regression: flows whose egress member is unknown never entered
the IXP and must not be exported to the collector on either input path.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FabricDeliveryPlan,
    FilterAction,
    FlowMatch,
    IxpMember,
    PortQosPolicy,
    PortQosResult,
    QosRule,
    SwitchingFabric,
    delivery,
    small_ixp_edge_router_profile,
)
from repro.traffic import (
    BenignTrafficSource,
    BooterAttack,
    FiveTuple,
    FlowRecord,
    FlowTable,
    IpProtocol,
)

VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"
PEER_ASNS = [65000 + i for i in range(24)]


def build_fabric(with_rules: bool = True, engine: str = "batched") -> SwitchingFabric:
    """Two PoPs x two edge routers, 25 members, rules on three ports."""
    fabric = SwitchingFabric(
        name="test-ixp", platform_capacity_bps=1e12, delivery_engine=engine
    )
    for pop in (1, 2):
        for index in (1, 2):
            fabric.add_edge_router(
                EdgeRouter(
                    f"edge-{pop}-{index}",
                    profile=small_ixp_edge_router_profile(),
                    pop=f"pop-{pop}",
                )
            )
    fabric.connect_member(
        IxpMember(asn=VICTIM_ASN, port_capacity_bps=2e8, pop="pop-1")
    )
    for i, asn in enumerate(PEER_ASNS):
        fabric.connect_member(IxpMember(asn=asn, pop=f"pop-{1 + i % 2}"))
    if not with_rules:
        return fabric
    victim_router = fabric.router_for_member(VICTIM_ASN)
    victim_router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(
                dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=123
            ),
            action=FilterAction.DROP,
            rule_id="drop-ntp",
        ),
    )
    victim_router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=53),
            action=FilterAction.SHAPE,
            shape_rate_bps=1e6,
            rule_id="shape-dns",
        ),
    )
    victim_router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse("100.10.10.0/24")),
            action=FilterAction.FORWARD,
            rule_id="allow-prefix",
        ),
    )
    # A second filtered port on another router/PoP.
    other_router = fabric.router_for_member(65001)
    other_router.install_rule(
        65001,
        QosRule(
            match=FlowMatch(src_port=11211),
            action=FilterAction.DROP,
            rule_id="drop-memcached",
        ),
    )
    return fabric


def interval_table(seed: int = 3, with_unknown: bool = True) -> FlowTable:
    """Attack + benign + cross-member traffic, optionally with unknown egress."""
    attack = BooterAttack(
        victim_ip=VICTIM_IP,
        victim_member_asn=VICTIM_ASN,
        peer_member_asns=PEER_ASNS,
        peak_rate_bps=1e9,
        start=0.0,
        duration=100.0,
        seed=seed,
    )
    benign = BenignTrafficSource(
        dst_ip=VICTIM_IP,
        egress_member_asn=VICTIM_ASN,
        ingress_member_asns=PEER_ASNS[:5],
        rate_bps=5e7,
        seed=seed + 1,
    )
    rng = np.random.default_rng(seed + 2)
    n = 4000
    egress_pool = PEER_ASNS + ([9999, 8888] if with_unknown else [])
    cross = FlowTable(
        src_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        dst_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        protocol=np.full(n, int(IpProtocol.UDP)),
        src_port=rng.choice([123, 53, 11211, 443], n),
        dst_port=rng.integers(1024, 60000, n),
        start=np.zeros(n),
        duration=np.full(n, 10.0),
        bytes=rng.integers(100, 10_000, n),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=rng.choice(PEER_ASNS, n),
        egress_asn=rng.choice(egress_pool, n),
        is_attack=np.zeros(n, dtype=bool),
    )
    return FlowTable.concat(
        [attack.flow_table(10.0, 10.0), benign.flow_table(10.0, 10.0), cross]
    )


def table_multiset(table: FlowTable):
    """Row multiset of a table (order-insensitive verdict comparison)."""
    return sorted(
        zip(
            table.src_ip.tolist(),
            table.dst_ip.tolist(),
            table.src_port.tolist(),
            table.dst_port.tolist(),
            table.bytes.tolist(),
            table.ingress_asn.tolist(),
            table.egress_asn.tolist(),
        )
    )


def assert_reports_equal(fabric_a, fabric_b, report_a, report_b):
    assert list(report_a.results_by_member) == list(report_b.results_by_member)
    for name in (
        "offered_bits",
        "delivered_bits",
        "filtered_bits",
        "congestion_dropped_bits",
    ):
        assert getattr(report_a, name) == getattr(report_b, name), name
    for asn, result_a in report_a.results_by_member.items():
        result_b = report_b.results_by_member[asn]
        for name in (
            "forwarded_bits",
            "dropped_bits",
            "shaped_passed_bits",
            "shaped_dropped_bits",
            "congestion_dropped_bits",
        ):
            assert getattr(result_a, name) == getattr(result_b, name), (asn, name)
        assert result_a.rule_stats == result_b.rule_stats, asn
        for name in ("forwarded_table", "dropped_table", "shaped_table"):
            assert table_multiset(getattr(result_a, name)) == table_multiset(
                getattr(result_b, name)
            ), (asn, name)
        counters_a = fabric_a.port_for_member(asn).counters
        counters_b = fabric_b.port_for_member(asn).counters
        assert vars(counters_a) == vars(counters_b), asn


class TestEngineParity:
    def test_single_interval_parity_multi_router(self):
        fabric_batched = build_fabric()
        fabric_fallback = build_fabric()
        table = interval_table()
        report_batched = fabric_batched.deliver(table, 10.0, 0.0, engine="batched")
        report_fallback = fabric_fallback.deliver(
            table, 10.0, 0.0, engine="per-member"
        )
        assert_reports_equal(
            fabric_batched, fabric_fallback, report_batched, report_fallback
        )

    def test_multi_interval_parity_keeps_shaper_state(self):
        # The shape-dns rule's RateLimiter is stateful; engines must drain
        # the same token stream across consecutive intervals.
        fabric_batched = build_fabric()
        fabric_fallback = build_fabric()
        for step, seed in enumerate((3, 4, 5)):
            table = interval_table(seed=seed)
            report_batched = fabric_batched.deliver(
                table, 10.0, step * 10.0, engine="batched"
            )
            report_fallback = fabric_fallback.deliver(
                table, 10.0, step * 10.0, engine="per-member"
            )
            assert_reports_equal(
                fabric_batched, fabric_fallback, report_batched, report_fallback
            )

    def test_parity_without_any_rules(self):
        fabric_batched = build_fabric(with_rules=False)
        fabric_fallback = build_fabric(with_rules=False)
        table = interval_table()
        assert_reports_equal(
            fabric_batched,
            fabric_fallback,
            fabric_batched.deliver(table, 10.0, engine="batched"),
            fabric_fallback.deliver(table, 10.0, engine="per-member"),
        )

    def test_empty_interval(self):
        fabric = build_fabric()
        report = fabric.deliver(FlowTable.empty(), 10.0, engine="batched")
        assert report.offered_bits == 0.0
        assert report.results_by_member == {}

    def test_default_engine_is_batched(self):
        fabric = build_fabric()
        assert fabric.delivery_engine == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown delivery engine"):
            SwitchingFabric(delivery_engine="quantum")
        fabric = build_fabric()
        with pytest.raises(ValueError, match="unknown delivery engine"):
            fabric.deliver(FlowTable.empty(), 10.0, engine="quantum")


class TestDeliveryPlan:
    def test_plan_compiles_ports_and_rules(self):
        plan = FabricDeliveryPlan(build_fabric())
        assert plan.port_count == 1 + len(PEER_ASNS)
        assert plan.rule_count == 4
        by_member = {}
        for compiled in plan.compiled_rules():
            by_member.setdefault(compiled.member_asn, []).append(compiled)
        assert set(by_member) == {VICTIM_ASN, 65001}
        # Per-port precedence survives compilation.
        victim_positions = [c.port_rule_index for c in by_member[VICTIM_ASN]]
        assert victim_positions == sorted(victim_positions)

    def test_plan_recompiled_per_interval_sees_new_rules(self):
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=False)
        report = fabric.deliver(table, 10.0)
        assert report.results_by_member[VICTIM_ASN].dropped_bits == 0.0
        fabric.router_for_member(VICTIM_ASN).install_rule(
            VICTIM_ASN,
            QosRule(
                match=FlowMatch(src_port=123),
                action=FilterAction.DROP,
                rule_id="late-rule",
            ),
        )
        report = fabric.deliver(table, 10.0, 10.0)
        assert report.results_by_member[VICTIM_ASN].dropped_bits > 0.0

    def test_recompile_patches_only_the_touched_port(self):
        # A rule change on one member must rebuild only that member's
        # segment; every other port's compiled rules are adopted from the
        # previous plan by identity (the incremental-plan fast path).
        fabric = build_fabric()
        table = interval_table(with_unknown=False)
        fabric.deliver(table, 10.0)
        before = fabric.current_delivery_plan()
        fabric.router_for_member(65001).install_rule(
            65001,
            QosRule(
                match=FlowMatch(src_port=19),
                action=FilterAction.DROP,
                rule_id="late-chargen",
            ),
        )
        after = fabric.current_delivery_plan()
        assert after is not before
        assert after._segments[VICTIM_ASN] is before._segments[VICTIM_ASN]
        assert after._segments[65001] is not before._segments[65001]
        assert after.rule_count == before.rule_count + 1
        assert "late-chargen" in {
            compiled.rule.rule_id for compiled in after.compiled_rules()
        }
        # The patched plan delivers identically to a from-scratch one.
        report_patched = fabric.deliver(table, 10.0, 10.0)
        fabric._plan_cache = None
        report_fresh = fabric.deliver(table, 10.0, 20.0)
        patched, fresh = report_patched.to_dict(), report_fresh.to_dict()
        patched.pop("interval_start"), fresh.pop("interval_start")
        assert patched == fresh

    def test_recompile_reuses_a_capacity_column_that_cannot_go_stale(self):
        # A recompile of unchanged membership adopts the previous plan's
        # capacity column, which is only sound while capacities are fixed.
        fabric = build_fabric()
        before = fabric.current_delivery_plan()
        fabric.router_for_member(65001).install_rule(
            65001, QosRule(match=FlowMatch(src_port=19), action=FilterAction.DROP)
        )
        after = fabric.current_delivery_plan()
        assert after is not before
        assert after._capacity_bps is before._capacity_bps
        port = fabric.port_for_member(65001)
        with pytest.raises(AttributeError):
            port.qos.port_capacity_bps = 1.0

    def test_steady_intervals_do_not_scan_the_ports(self, monkeypatch):
        fabric = build_fabric()
        table = interval_table()
        fabric.deliver(table, 10.0)
        ports = fabric.current_delivery_plan().port_count
        reads = []

        def counting_version(port):
            reads.append(port)
            return port.qos.config_version

        monkeypatch.setattr(delivery, "_CONFIG_VERSION", counting_version)
        for step in range(1, 4):
            fabric.deliver(table, 10.0, 10.0 * step)
        assert reads == []
        # A change to a policy outside the fabric costs one scan, and the
        # plan stays current.
        plan = fabric.current_delivery_plan()
        PortQosPolicy(port_capacity_bps=1e9).install(
            QosRule(match=FlowMatch(src_port=7), action=FilterAction.DROP)
        )
        fabric.deliver(table, 10.0, 40.0)
        assert len(reads) == ports
        assert fabric.current_delivery_plan() is plan
        # A change on the fabric: one scan finds it, the patched plan
        # snapshots every port once, and execute() does not scan again.
        reads.clear()
        fabric.router_for_member(65002).install_rule(
            65002, QosRule(match=FlowMatch(src_port=19), action=FilterAction.DROP)
        )
        fabric.deliver(table, 10.0, 50.0)
        assert len(reads) == 2 * ports
        assert fabric.current_delivery_plan() is not plan
        # A direct caller of a stale plan is still refused.
        plan = fabric.current_delivery_plan()
        fabric.router_for_member(65002).install_rule(
            65002, QosRule(match=FlowMatch(src_port=17), action=FilterAction.DROP)
        )
        with pytest.raises(RuntimeError, match="stale"):
            plan.execute(table, 10.0)

    @pytest.mark.parametrize("via_fabric", [True, False])
    def test_engine_switch_recompiles_the_plan(self, via_fabric):
        fabric = build_fabric()
        table = interval_table()
        before = fabric.deliver(table, 10.0).to_dict()
        plan = fabric.current_delivery_plan()
        assert plan._port_indexes.keys() == {VICTIM_ASN, 65001}
        if via_fabric:
            fabric.set_classification_engine("per-rule")
        else:
            fabric.port_for_member(VICTIM_ASN).qos.classification_engine = "per-rule"
        assert not plan.is_current()
        switched = fabric.current_delivery_plan()
        assert switched._port_indexes.keys() == (set() if via_fabric else {65001})
        after = fabric.deliver(table, 10.0, 10.0).to_dict()
        before.pop("interval_start"), after.pop("interval_start")
        assert after == before
        # Setting the engine a port already runs changes nothing.
        qos = fabric.port_for_member(65001).qos
        qos.classification_engine = qos.classification_engine
        assert switched.is_current()

    def test_passthrough_results_defer_tables(self):
        fabric = build_fabric()
        table = interval_table()
        report = fabric.deliver(table, 10.0, engine="batched")
        peer_result = report.results_by_member[65002]
        assert peer_result._table_source is not None
        forwarded = peer_result.forwarded_table
        assert peer_result._table_source is None
        assert len(forwarded) > 0
        assert set(np.unique(forwarded.egress_asn).tolist()) == {65002}


class TestColumnarReport:
    """The batched report is columns plus a lazy ``results_by_member``."""

    def test_rule_less_members_build_no_result_until_looked_up(self, monkeypatch):
        built = []
        build = PortQosResult.__init__

        def counting_build(self, *args, **kwargs):
            built.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(PortQosResult, "__init__", counting_build)
        fabric = build_fabric()
        for router in fabric.edge_routers():
            for port in router.ports():
                port.retain_history = False  # history would look everyone up
        report = fabric.deliver(interval_table(), 10.0, engine="batched")
        assert len(report.results_by_member) == 1 + len(PEER_ASNS)
        # Only the two filtered ports (victim, 65001) have results.
        assert len(built) == 2
        assert 65002 in report.results_by_member
        assert list(report.results_by_member) == sorted(report.results_by_member)
        assert len(built) == 2
        assert report.results_by_member[65002].forwarded_bits > 0
        assert len(built) == 3

    def test_filtered_member_without_claimed_rows_builds_no_result(self, monkeypatch):
        # 65003 carries a rule that no row of the interval matches: it is
        # accounted from the columns like a member without rules, and its
        # result is built on lookup, equal to the per-member engine's.
        quiet_rule = QosRule(
            match=FlowMatch(src_port=7), action=FilterAction.DROP, rule_id="drop-echo"
        )
        fabrics = {}
        for name, engine, history in (
            ("counted", "batched", False),
            ("batched", "batched", True),
            ("fallback", "per-member", True),
        ):
            fabric = build_fabric(engine=engine)
            fabric.router_for_member(65003).install_rule(65003, quiet_rule)
            for router in fabric.edge_routers():
                for port in router.ports():
                    port.retain_history = history
            fabrics[name] = fabric
        built = []
        build = PortQosResult.__init__

        def counting_build(self, *args, **kwargs):
            built.append(self)
            build(self, *args, **kwargs)

        table = interval_table()
        monkeypatch.setattr(PortQosResult, "__init__", counting_build)
        report = fabrics["counted"].deliver(table, 10.0)
        # The victim's and 65001's rows are claimed; 65003's are not.
        assert len(built) == 2
        assert 65003 not in report.rule_stats
        looked_up = report.results_by_member[65003]
        assert len(built) == 3
        monkeypatch.undo()

        batched = fabrics["batched"].deliver(table, 10.0)
        fallback = fabrics["fallback"].deliver(table, 10.0)
        expected = fallback.results_by_member[65003]
        assert expected.rule_stats == {} and expected.forwarded_bits > 0
        ports = {name: fabric.port_for_member(65003) for name, fabric in fabrics.items()}
        history = {name: port.history[-1][1] for name, port in ports.items() if port.history}
        for result in (looked_up, batched.results_by_member[65003], history["batched"]):
            for name in (
                "forwarded_bits",
                "dropped_bits",
                "shaped_passed_bits",
                "shaped_dropped_bits",
                "congestion_dropped_bits",
                "rule_stats",
            ):
                assert getattr(result, name) == getattr(expected, name), name
            for name in ("forwarded_table", "dropped_table", "shaped_table"):
                assert table_multiset(getattr(result, name)) == table_multiset(
                    getattr(expected, name)
                ), name
            assert ports["batched"].utilisation(result, 10.0) == ports[
                "fallback"
            ].utilisation(expected, 10.0)
        assert history["fallback"] is expected
        assert vars(ports["counted"].counters) == vars(ports["fallback"].counters)
        row = int(np.searchsorted(batched.member_asns, 65003))
        assert batched.port_utilisation()[row] == ports["fallback"].utilisation(expected, 10.0)

    @pytest.mark.parametrize("engine", ["batched", "per-member"])
    def test_results_by_member_is_read_only(self, engine):
        report = build_fabric().deliver(interval_table(), 10.0, engine=engine)
        with pytest.raises(TypeError):
            report.results_by_member[VICTIM_ASN] = None

    def test_delivered_report_forms_no_reference_cycle(self):
        fabric = build_fabric()
        fabric.retain_reports = False
        gc.disable()
        try:
            report = fabric.deliver(interval_table(), 10.0, engine="batched")
            assert len(report.results_by_member[65002].forwarded_table) > 0
            alive = weakref.ref(report)
            del report
            assert alive() is None
        finally:
            gc.enable()

    def test_columns_and_utilisation_match_per_member_engine(self):
        fabric_batched, fabric_fallback = build_fabric(), build_fabric()
        table = interval_table()
        batched = fabric_batched.deliver(table, 10.0, engine="batched")
        fallback = fabric_fallback.deliver(table, 10.0, engine="per-member")
        columns_a, columns_b = batched.to_columns(), fallback.to_columns()
        assert columns_a["member_asns"].tolist() == columns_b["member_asns"].tolist()
        for name, values in columns_a["member_fields"].items():
            assert values.tobytes() == columns_b["member_fields"][name].tobytes(), name
        assert columns_a["rule_stats"] == columns_b["rule_stats"]
        assert batched.canonical_json() == fallback.canonical_json()
        utilisation = batched.port_utilisation()
        for row, asn in enumerate(batched.member_asns.tolist()):
            port = fabric_batched.port_for_member(asn)
            assert utilisation[row] == port.utilisation(
                fallback.results_by_member[asn], 10.0
            )


class TestIpfixExportFilter:
    """Regression: unknown-egress flows never entered the IXP and must not
    be exported (they used to inflate collector/telemetry totals)."""

    def make_record(self, egress: int, bytes_: int = 1000) -> FlowRecord:
        return FlowRecord(
            key=FiveTuple("23.1.1.1", VICTIM_IP, IpProtocol.UDP, 123, 40000),
            start=0.0,
            duration=10.0,
            bytes=bytes_,
            packets=1,
            ingress_member_asn=PEER_ASNS[0],
            egress_member_asn=egress,
            is_attack=True,
        )

    def test_table_path_exports_only_known_egress(self):
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=True)
        known = int(
            np.isin(table.egress_asn, np.array([VICTIM_ASN, *PEER_ASNS])).sum()
        )
        assert known < len(table)  # the interval really has alien flows
        fabric.deliver(table, 10.0, engine="batched")
        assert len(fabric.collector) == known
        exported = fabric.collector.tables[0].table
        assert set(np.unique(exported.egress_asn).tolist()) <= {
            VICTIM_ASN, *PEER_ASNS
        }

    def test_per_member_table_path_exports_only_known_egress(self):
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=True)
        known = int(
            np.isin(table.egress_asn, np.array([VICTIM_ASN, *PEER_ASNS])).sum()
        )
        fabric.deliver(table, 10.0, engine="per-member")
        assert len(fabric.collector) == known

    def test_record_path_exports_only_known_egress(self):
        fabric = build_fabric(with_rules=False)
        flows = [
            self.make_record(VICTIM_ASN),
            self.make_record(9999),
            self.make_record(PEER_ASNS[0]),
        ]
        report = fabric.deliver(flows, 10.0)
        assert set(report.results_by_member) == {VICTIM_ASN, PEER_ASNS[0]}
        assert len(fabric.collector) == 2
        assert all(
            record.flow.egress_member_asn != 9999
            for record in fabric.collector.records
        )

    def test_collector_totals_match_carried_traffic(self):
        # The overcount the bug produced: exported bytes > carried bytes.
        fabric = build_fabric(with_rules=False)
        table = interval_table(with_unknown=True)
        report = fabric.deliver(table, 10.0)
        exported_bits = sum(
            batch.table.total_bits for batch in fabric.collector.tables
        )
        assert exported_bits == report.offered_bits
