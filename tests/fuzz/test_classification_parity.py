"""Property tests: indexed == per-rule classification, bit conservation.

The first parity contract — ``classification_engine="indexed"`` must be
*verdict-for-verdict* equal to ``"per-rule"`` in
:meth:`PortQosPolicy.assign_table` — plus the conservation and accounting
invariants of a full ``apply`` pass, for arbitrary generated rule sets and
intervals (not just the scripted scenarios).  The batched delivery plan's
one-pass lookup over every filtered port must equal each port's own
``assign_table`` on that port's rows.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzz.strategies import (
    MEMBER_BASE_ASN,
    build_flow_table,
    flow_tables,
    owner_rule_sets,
    rule_sets,
)
from repro.ixp import (
    EdgeRouter,
    IxpMember,
    PortQosPolicy,
    SwitchingFabric,
    l_ixp_edge_router_profile,
)

PORT_CAPACITY = 10e9
INTERVAL = 10.0


def make_policy(engine, rules):
    policy = PortQosPolicy(port_capacity_bps=PORT_CAPACITY, classification_engine=engine)
    for rule in rules:
        policy.install(rule)
    return policy


class TestAssignParity:
    @given(rules=rule_sets(), table=flow_tables())
    def test_indexed_equals_per_rule(self, rules, table):
        indexed = make_policy("indexed", rules).assign_table(table)
        per_rule = make_policy("per-rule", rules).assign_table(table)
        assert np.array_equal(indexed, per_rule)

    @given(rules=rule_sets(min_size=1), table=flow_tables(min_rows=1))
    def test_assigned_rank_really_is_first_match(self, rules, table):
        """Spot-check the winner against the sequential record-path oracle."""
        policy = make_policy("indexed", rules)
        ranks = policy.assign_table(table)
        sorted_rules = policy.sorted_rules()
        records = table.to_records()
        # Checking every row re-runs the O(rules) scalar matcher per row;
        # bound the oracle to the first rows to keep examples cheap.
        for row, record in enumerate(records[:10]):
            expected = policy.classify(record)
            if ranks[row] < 0:
                assert expected is None, (
                    f"row {row}: engine says no match but oracle matched {expected}"
                )
            else:
                assert expected is sorted_rules[ranks[row]]


class TestPlatformLookupParity:
    """One merged-index lookup per interval == per-port ``assign_table``."""

    @given(
        owner_rules=owner_rule_sets(),
        engines=st.lists(st.sampled_from(["indexed", "per-rule"]), min_size=4, max_size=4),
        rowless=st.integers(min_value=0, max_value=4),
        n=st.integers(min_value=1, max_value=120),  # execute() returns early on 0
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_plan_lookup_equals_per_port_assign(
        self, owner_rules, engines, rowless, n, seed
    ):
        """Same rules on several ports, twins, fallbacks, both engines.

        One extra member carries no rules, and port ``rowless`` (if it
        exists) gets no rows.
        """
        fabric = SwitchingFabric(name="parity-ixp")
        fabric.add_edge_router(EdgeRouter("edge-1", profile=l_ixp_edge_router_profile()))
        asns = [MEMBER_BASE_ASN + index for index in range(len(owner_rules) + 1)]
        for asn in asns:
            fabric.connect_member(IxpMember(asn=asn, port_capacity_bps=10e9))
        for asn, rules, engine in zip(asns, owner_rules, engines):
            qos = fabric.port_for_member(asn).qos
            qos.install_many(rules)
            qos.classification_engine = engine
        plan = fabric.current_delivery_plan()
        table = build_flow_table(
            seed=seed, n=n, egress_pool=[asn for i, asn in enumerate(asns) if i != rowless]
        )

        sliced = []
        for asn in asns:
            qos = fabric.port_for_member(asn).qos
            qos.assign_table = lambda rows, asn=asn, own=qos.assign_table: (
                sliced.append(asn) or own(rows)
            )

        order, member_asns, positions, starts, counts = plan._group_by_member(table)
        filtered = np.flatnonzero(plan._has_rules[positions])
        assigned, _ = plan._classify(
            table, table.bits, order, positions, starts, counts, filtered
        )
        # Only the ports on the per-rule engine keep their own pass over
        # their slice.
        merged = {
            asn
            for asn, rules, engine in zip(asns, owner_rules, engines)
            if rules and engine == "indexed"
        }
        with_rules = member_asns[plan._has_rules[positions]].tolist()
        assert sorted(sliced) == [asn for asn in with_rules if asn not in merged]
        for group, asn in enumerate(member_asns.tolist()):
            rows = order[starts[group] : starts[group] + counts[group]]
            # The oracle: the port's rules, one masked pass per rule.
            oracle = make_policy("per-rule", [])
            oracle.install_many(fabric.port_for_member(asn).qos.sorted_rules())
            ranks = oracle.assign_table(table.select(rows))
            start = plan._member_start.get(asn, 0)
            assert np.array_equal(assigned[rows], np.where(ranks >= 0, start + ranks, -1)), asn


class TestApplyInvariants:
    @given(
        rules=rule_sets(),
        table=flow_tables(),
        engine=st.sampled_from(["indexed", "per-rule"]),
    )
    def test_bit_conservation(self, rules, table, engine):
        """forwarded + dropped + shaped + congestion-dropped == input bits."""
        result = make_policy(engine, rules).apply(table, interval=INTERVAL)
        total = (
            result.forwarded_bits
            + result.dropped_bits
            + result.shaped_passed_bits
            + result.shaped_dropped_bits
            + result.congestion_dropped_bits
        )
        assert total == pytest.approx(float(table.total_bits), rel=1e-9, abs=1e-6)

    @given(
        rules=rule_sets(min_size=1),
        table=flow_tables(min_rows=1),
        engine=st.sampled_from(["indexed", "per-rule"]),
    )
    def test_rule_stats_match_claimed_flows(self, rules, table, engine):
        """rule_stats sums reconcile with the aggregate verdict buckets."""
        policy = make_policy(engine, rules)
        result = policy.apply(table, interval=INTERVAL)
        dropped = sum(stats["dropped"] for stats in result.rule_stats.values())
        assert dropped == pytest.approx(result.dropped_bits, rel=1e-9, abs=1e-6)
        shaped = sum(stats["shaped"] for stats in result.rule_stats.values())
        shaped_table = result.shaped_table
        assert shaped_table is not None
        # Shaped stats are computed from the rounded (scaled) byte column,
        # so the reconciliation target is the shaped table itself.
        assert shaped == pytest.approx(float(shaped_table.total_bits), rel=1e-9, abs=1e-6)
        for stats in result.rule_stats.values():
            assert stats["matched"] == pytest.approx(
                stats["dropped"] + stats["shaped"], rel=1e-9, abs=1e-6
            )
        assert set(result.rule_stats) <= {
            rule.rule_id for rule in policy.sorted_rules()
        }

    @given(rules=rule_sets(), table=flow_tables())
    def test_full_apply_parity_bit_for_bit(self, rules, table):
        """Same verdict tables, bits and rule_stats on both engines."""
        a = make_policy("indexed", rules).apply(table, interval=INTERVAL)
        b = make_policy("per-rule", rules).apply(table, interval=INTERVAL)
        assert a.forwarded_bits == b.forwarded_bits
        assert a.dropped_bits == b.dropped_bits
        assert a.shaped_passed_bits == b.shaped_passed_bits
        assert a.shaped_dropped_bits == b.shaped_dropped_bits
        assert a.congestion_dropped_bits == b.congestion_dropped_bits
        assert a.rule_stats == b.rule_stats
        for name in ("forwarded_table", "dropped_table", "shaped_table"):
            ta, tb = getattr(a, name), getattr(b, name)
            assert np.array_equal(ta.bytes, tb.bytes), name
            assert np.array_equal(ta.dst_ip, tb.dst_ip), name


class TestTableRecordParity:
    """The third contract: columnar and record paths agree."""

    @given(rules=rule_sets(max_size=8), n=st.integers(0, 25), seed=st.integers(0, 2**31 - 1))
    def test_table_equals_records(self, rules, n, seed):
        table = build_flow_table(seed=seed, n=n)
        columnar = make_policy("indexed", rules).apply(table, interval=INTERVAL)
        per_record = make_policy("indexed", rules).apply(
            table.to_records(), interval=INTERVAL
        )
        assert columnar.forwarded_bits == pytest.approx(per_record.forwarded_bits)
        assert columnar.dropped_bits == pytest.approx(per_record.dropped_bits)
        assert columnar.shaped_passed_bits == pytest.approx(
            per_record.shaped_passed_bits
        )
        assert columnar.shaped_dropped_bits == pytest.approx(
            per_record.shaped_dropped_bits
        )
        assert set(columnar.rule_stats) == set(per_record.rule_stats)
        for rule_id, stats in per_record.rule_stats.items():
            for key, value in stats.items():
                assert columnar.rule_stats[rule_id][key] == pytest.approx(
                    value, rel=1e-9, abs=1e-6
                )
