"""Property tests: batched == per-member fabric delivery, fabric conservation.

The second parity contract — ``delivery_engine="batched"`` must be
indistinguishable from ``"per-member"`` in
:meth:`SwitchingFabric.deliver` — checked end-to-end on generated
multi-PoP topologies (some ports shrunk until they congest) via
:meth:`FabricIntervalReport.to_dict` and
:meth:`FabricIntervalReport.to_columns`, per-member results (the batched
engine builds rule-less members' results lazily), plus the
platform-level conservation invariants (offered == carried traffic;
delivered + filtered + congestion-dropped == offered; IPFIX collector
totals == carried bytes).
"""

import pytest
from hypothesis import given, strategies as st

from fuzz.strategies import (
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    fabric_specs,
    member_asns_of,
    rule_sets,
)

INTERVAL = 10.0


@st.composite
def fabric_scenarios(draw):
    """A topology spec + rule assignment + a short run of interval tables.

    Rules are spread round-robin across the members so multi-router specs
    exercise ports on every edge router; tables mix traffic to every
    member with traffic to an unconnected egress ASN the platform must
    ignore.  Several intervals are drawn so stateful shapers drain across
    deliveries.
    """
    spec = draw(fabric_specs())
    members = member_asns_of(spec)
    rules = draw(rule_sets(max_size=12))
    assignments = [(members[i % len(members)], rule) for i, rule in enumerate(rules)]
    egress_pool = tuple(members) + (UNKNOWN_EGRESS_ASN,)
    tables = [
        build_flow_table(
            seed=draw(st.integers(0, 2**31 - 1)),
            n=draw(st.integers(0, 60)),
            egress_pool=egress_pool,
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return spec, assignments, tables


def install_all(fabric, assignments):
    for member_asn, rule in assignments:
        fabric.router_for_member(member_asn).install_rule(member_asn, rule)


def assert_columns_equal(columns_a, columns_b):
    """Two ``to_columns()`` payloads hold the same numbers, bit for bit."""
    assert columns_a.keys() == columns_b.keys()
    assert columns_a["member_asns"].dtype == columns_b["member_asns"].dtype
    assert columns_a["member_asns"].tolist() == columns_b["member_asns"].tolist()
    assert columns_a["member_fields"].keys() == columns_b["member_fields"].keys()
    for name, values in columns_a["member_fields"].items():
        assert values.tobytes() == columns_b["member_fields"][name].tobytes(), name
    for key in ("interval_start", "interval", "totals", "rule_stats"):
        assert columns_a[key] == columns_b[key], key


def table_rows(table):
    """A table's rows as a sorted list (order-insensitive comparison)."""
    columns = (table.src_ip, table.dst_ip, table.src_port, table.dst_port, table.bytes)
    return sorted(zip(*(column.tolist() for column in columns)))


def known_bytes(fabric, table):
    """Bytes of the rows whose egress member is connected to the fabric."""
    member_asns = fabric.member_asns
    mask = [int(asn) in member_asns for asn in table.egress_asn.tolist()]
    return int(sum(b for b, keep in zip(table.bytes.tolist(), mask) if keep))


class TestDeliveryEngineParity:
    @given(scenario=fabric_scenarios())
    def test_to_dict_parity_across_intervals(self, scenario):
        """Max-contrast lockstep: batched+indexed vs per-member+per-rule."""
        spec, assignments, tables = scenario
        batched = build_fabric(spec, delivery_engine="batched")
        fallback = build_fabric(
            spec, delivery_engine="per-member", classification_engine="per-rule"
        )
        install_all(batched, assignments)
        install_all(fallback, assignments)
        for step, table in enumerate(tables):
            report_a = batched.deliver(table, INTERVAL, step * INTERVAL)
            report_b = fallback.deliver(table, INTERVAL, step * INTERVAL)
            assert report_a.to_dict() == report_b.to_dict(), f"interval {step}"
            assert_columns_equal(report_a.to_columns(), report_b.to_columns())

    @given(scenario=fabric_scenarios())
    def test_looked_up_results_match_per_member_engine(self, scenario):
        """Results the batched report builds on lookup equal the eager ones."""
        spec, assignments, tables = scenario
        batched = build_fabric(spec, delivery_engine="batched")
        fallback = build_fabric(spec, delivery_engine="per-member")
        install_all(batched, assignments)
        install_all(fallback, assignments)
        for step, table in enumerate(tables):
            report_a = batched.deliver(table, INTERVAL, step * INTERVAL)
            report_b = fallback.deliver(table, INTERVAL, step * INTERVAL)
            assert list(report_a.results_by_member) == list(report_b.results_by_member)
            for asn, result_b in report_b.results_by_member.items():
                result_a = report_a.results_by_member[asn]
                for name in ("forwarded_bits", "dropped_bits", "shaped_passed_bits",
                             "shaped_dropped_bits", "congestion_dropped_bits"):
                    assert getattr(result_a, name) == getattr(result_b, name), name
                assert result_a.rule_stats == result_b.rule_stats
                for name in ("forwarded_table", "dropped_table", "shaped_table"):
                    assert table_rows(getattr(result_a, name)) == table_rows(
                        getattr(result_b, name)
                    ), name
            utilisation = report_a.port_utilisation()
            for row, asn in enumerate(report_a.member_asns.tolist()):
                port = batched.port_for_member(asn)
                expected = port.utilisation(report_b.results_by_member[asn], INTERVAL)
                assert utilisation[row] == expected

    @given(scenario=fabric_scenarios())
    def test_port_counters_parity(self, scenario):
        spec, assignments, tables = scenario
        batched = build_fabric(spec, delivery_engine="batched")
        fallback = build_fabric(spec, delivery_engine="per-member")
        install_all(batched, assignments)
        install_all(fallback, assignments)
        for step, table in enumerate(tables):
            batched.deliver(table, INTERVAL, step * INTERVAL)
            fallback.deliver(table, INTERVAL, step * INTERVAL)
        for member_asn in member_asns_of(spec):
            counters_a = batched.port_for_member(member_asn).counters
            counters_b = fallback.port_for_member(member_asn).counters
            assert vars(counters_a) == vars(counters_b), member_asn


class TestFabricConservation:
    @given(
        scenario=fabric_scenarios(),
        engine=st.sampled_from(["batched", "per-member"]),
    )
    def test_bits_conserved_and_ipfix_matches(self, scenario, engine):
        spec, assignments, tables = scenario
        fabric = build_fabric(spec, delivery_engine=engine)
        install_all(fabric, assignments)
        carried_bytes = 0
        for step, table in enumerate(tables):
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            interval_bytes = known_bytes(fabric, table)
            carried_bytes += interval_bytes
            # Offered == the traffic whose egress member is connected;
            # rows to unknown ASNs never entered the IXP.
            assert report.offered_bits == pytest.approx(
                interval_bytes * 8, rel=1e-9, abs=1e-6
            )
            assert (
                report.delivered_bits
                + report.filtered_bits
                + report.congestion_dropped_bits
            ) == pytest.approx(report.offered_bits, rel=1e-9, abs=1e-6)
            # The report's member breakdown covers all offered bits too.
            member_total = sum(
                result.forwarded_bits
                + result.dropped_bits
                + result.shaped_passed_bits
                + result.shaped_dropped_bits
                + result.congestion_dropped_bits
                for result in report.results_by_member.values()
            )
            assert member_total == pytest.approx(
                report.offered_bits, rel=1e-9, abs=1e-6
            )
        # IPFIX export only sees carried traffic, and sees all of it.
        totals = fabric.collector.bytes_by_exporter()
        assert sum(totals.values()) == carried_bytes

    @given(spec=fabric_specs(), seed=st.integers(0, 2**31 - 1), n=st.integers(0, 40))
    def test_unknown_egress_traffic_is_ignored(self, spec, seed, n):
        """An interval addressed only to unconnected ASNs is a no-op."""
        fabric = build_fabric(spec)
        table = build_flow_table(seed=seed, n=n, egress_pool=(UNKNOWN_EGRESS_ASN,))
        report = fabric.deliver(table, INTERVAL)
        assert report.offered_bits == 0.0
        assert report.results_by_member == {}
        assert sum(fabric.collector.bytes_by_exporter().values()) == 0
