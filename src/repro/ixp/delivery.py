"""Batched (platform-level) fabric delivery.

``SwitchingFabric.deliver``'s per-member fallback walks the interval's
egress members one at a time: each member costs a full boolean scan of the
egress column, a column-wise sub-table ``select``, one ``qos.apply`` call
and one ``PortQosResult`` with eagerly materialised tables.  At paper
scale — DE-CIX-class fabrics carry traffic for hundreds of member ports
per observation interval (§4.5, footnote 1) — that loop is O(members ×
flows) in Python before any classification happens.

:class:`FabricDeliveryPlan` replaces the loop with one platform-level
pass:

1. **compile** — every connected port's QoS rules are snapshotted into a
   single columnar rule set; each :class:`CompiledRule` is tagged with its
   egress member, and per-port precedence (most-specific-first) is
   preserved inside the global order.  The plan also holds the member
   ports in ascending-ASN order with a column of their egress capacities;
2. **group** — one argsort of the interval's egress column groups every
   member's rows (each in original row order), and one integer prefix sum
   (:func:`segment_sums`) gives every member's offered bits;
3. **classify** — only the members whose ports carry rules: each such
   member's slice is classified through the port's
   :meth:`~repro.ixp.qos.PortQosPolicy.assign_table` — the compiled
   :class:`~repro.ixp.ruleindex.RuleMatchIndex` by default, the per-rule
   pass when the port runs the fallback engine; per-rule matched bits
   fall out of a single ``bincount``;
4. **account** — a member without rules forwards everything, so its
   accounting is columns: egress congestion is applied column-wise
   against the capacity column, and nothing per member is built.  A
   member with rules gets its :class:`~repro.ixp.qos.PortQosResult`
   from the scatter, which iterates only the rules that claimed rows, so
   a port with tens of thousands of installed fine-grained rules costs
   O(claimed), not O(installed).  Platform totals reduce from the
   columns, and each port's :class:`~repro.ixp.port.PortCounters` get
   one call;
5. **report** — the :class:`~repro.ixp.fabric.FabricIntervalReport`
   holds the columns.  Its ``results_by_member`` is a read-only view
   that builds a rule-less member's result (with deferred table views)
   only when someone looks that member up.

In a DE-CIX-class interval only a few hundred of the thousands of ports carry
a blackholing rule, so steps 3 and 4's per-member Python work scales with
the filtered members, not the platform.

Plans are cached across intervals: each plan snapshots every port's
rule-set version counter (:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`),
and :meth:`SwitchingFabric.deliver` reuses the plan while
:meth:`FabricDeliveryPlan.is_current` holds — rule installs/removals bump
the counter, so only intervals after a configuration change recompile, and
the per-port match indexes themselves are cached on the policies so
untouched ports never recompile at all.

The engine is bit-for-bit equal to the per-member loop (same float
operations in the same order — ``tests/ixp/test_fabric_delivery.py`` pins
multiset flow verdicts, bit accounting and counters across multi-router
topologies), so experiments can switch engines freely; the per-member
path remains as the parity-tested fallback and the only path for
record-list input.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..traffic.flowtable import FlowTable
from .accounting import ordered_sum
from .port import MemberPort
from .qos import (
    _DROP_CODE,
    _FORWARD_CODE,
    FilterAction,
    PortQosResult,
    QosRule,
    _group_rows,
    _shape_rows_by_rank,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fabric import FabricIntervalReport, SwitchingFabric

_RULES_VERSION = operator.attrgetter("qos.rules_version")


def segment_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values[s:s + c].sum()`` for every segment ``(s, c)`` of integer ``values``.

    Offered bits are integers (``FlowTable.bits`` is ``bytes * 8`` on an
    int64 column), and integer sums are exact in any order, so one prefix
    sum serves every segment, empty ones included.
    """
    prefix = np.concatenate((np.zeros(1, dtype=values.dtype), np.cumsum(values)))
    return prefix[starts + counts] - prefix[starts]


@dataclass(frozen=True)
class CompiledRule:
    """One port rule inside the platform-level rule set."""

    #: Egress member whose port owns the rule (the implicit match column).
    member_asn: int
    rule: QosRule
    #: Position in the owning port's most-specific-first rule order.
    port_rule_index: int


class FabricDeliveryPlan:
    """Compiled snapshot of a fabric's ports and QoS rules.

    A plan is cheap to build (one walk over the connected ports), and it
    records every port's rule-set version, so the fabric keeps reusing it
    across delivery intervals until :meth:`is_current` reports that the
    membership or some port's rules changed.  A plan compiled to replace
    a stale ``previous`` plan of the same membership adopts its port map,
    capacity column and the compiled segments of every unchanged port.
    """

    def __init__(
        self,
        fabric: "SwitchingFabric",
        previous: "FabricDeliveryPlan | None" = None,
    ) -> None:
        self.fabric = fabric
        #: The fabric's membership version the port map was built at.
        self._membership = fabric.membership_version
        if previous is not None and previous._membership == self._membership:
            self._ports: dict[int, MemberPort] = previous._ports
            self._member_asns: np.ndarray = previous._member_asns
            self._port_list: list[MemberPort] = previous._port_list
            self._capacity_bps: np.ndarray = previous._capacity_bps
        else:
            previous = None
            # Key membership off the fabric's member registry (the same
            # source of truth the per-member engine and the IPFIX export
            # filter use), not off whatever ports the routers carry.
            self._ports = {
                member.asn: fabric.port_for_member(member.asn)
                for member in fabric.members()
            }
            asns = sorted(self._ports)
            self._member_asns = np.array(asns, dtype=np.int64)
            self._port_list = [self._ports[asn] for asn in asns]
            #: Each port's egress capacity, the budget its congestion
            #: stage applies (ascending-ASN order, like the ports).
            self._capacity_bps = np.array(
                [port.qos.port_capacity_bps for port in self._port_list],
                dtype=np.float64,
            )
        #: Rule-set version of every port at compile time (the cache key),
        #: aligned with :attr:`_port_list`.
        self._versions: list[int] = list(map(_RULES_VERSION, self._port_list))
        #: Each filtered member's contiguous slice of :attr:`_rules`.  The
        #: :class:`CompiledRule` entries are position-independent (global
        #: index = start + port-local rank), so an unchanged port's
        #: segment is reused verbatim when patching a stale plan.
        self._segments: dict[int, list[CompiledRule]] = {}
        changed: Iterable[int] = range(len(self._port_list))
        if previous is not None:
            self._segments = dict(previous._segments)
            changed = np.flatnonzero(
                np.array(self._versions) != np.array(previous._versions)
            ).tolist()
        for position in changed:
            asn = int(self._member_asns[position])
            segment = [
                CompiledRule(member_asn=asn, rule=rule, port_rule_index=rank)
                for rank, rule in enumerate(self._port_list[position].qos.sorted_rules())
            ]
            if segment:
                self._segments[asn] = segment
            else:
                self._segments.pop(asn, None)
        #: The platform-level rule set, grouped per member in per-port
        #: precedence order (members in ascending ASN order, matching the
        #: sorted group-by the execution pass produces).
        self._rules: list[CompiledRule] = []
        #: First global index of each filtered member's contiguous rule
        #: block (global index = start + port-local rank).
        self._member_start: dict[int, int] = {}
        for asn in sorted(self._segments):
            self._member_start[asn] = len(self._rules)
            self._rules.extend(self._segments[asn])
        #: Whether each port (ascending-ASN order) carries rules.
        self._has_rules = np.isin(
            self._member_asns, np.array(list(self._segments), dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def port_count(self) -> int:
        return len(self._ports)

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    def compiled_rules(self) -> list[CompiledRule]:
        return list(self._rules)

    def is_current(self) -> bool:
        """True while the plan still matches the fabric's configuration.

        Checked once per delivery interval: no member may have connected
        since the compile, and every port's rule-set version must equal
        the compile-time snapshot.  O(members) per check, versus an
        O(total rules) recompile.
        """
        return (
            self.fabric.membership_version == self._membership
            and list(map(_RULES_VERSION, self._port_list)) == self._versions
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, table: FlowTable, interval: float, interval_start: float = 0.0
    ) -> "FabricIntervalReport":
        """Carry one interval across the platform in a single batched pass."""
        from .fabric import MEMBER_REPORT_FIELDS, FabricIntervalReport

        if interval <= 0:
            raise ValueError("interval must be positive")
        if not self.is_current():
            # Classification delegates to the live port policies while the
            # scatter indexes this plan's snapshot; running a stale plan
            # would silently attribute bits to the wrong rules.
            raise RuntimeError(
                "delivery plan is stale (rules or membership changed since "
                "compile); rebuild via SwitchingFabric.current_delivery_plan()"
            )
        if len(table) == 0:
            return FabricIntervalReport(interval_start=interval_start, interval=interval)

        bits = table.bits
        order, member_asns, positions, starts, counts = self._group_by_member(table)
        offered = segment_sums(bits[order], starts, counts).astype(np.float64)
        # Columns of PortQosResult's accounting; a port without rules
        # forwards its whole offer.  The column-wise congestion below is
        # PortQosPolicy.apply_congestion, operation for operation (its
        # shaped term is zero here, so only forwarded bits scale).
        forwarded = offered.copy()
        dropped = np.zeros(len(offered))
        shaped_passed = np.zeros(len(offered))
        shaped_dropped = np.zeros(len(offered))
        congestion = np.zeros(len(offered))
        capacity_bps = self._capacity_bps[positions]
        capacity_bits = capacity_bps * interval
        delivered = forwarded + shaped_passed
        over = delivered > capacity_bits
        congestion[over] = delivered[over] - capacity_bits[over]
        forwarded[over] *= capacity_bits[over] / delivered[over]

        results: dict[int, PortQosResult] = {}
        has_rules = self._has_rules[positions]
        filtered = np.flatnonzero(has_rules).tolist()
        if filtered:
            group_rows = {
                index: order[starts[index] : starts[index] + counts[index]]
                for index in filtered
            }
            assigned, per_rule_bits = self._classify(
                table, bits, member_asns, group_rows
            )
            for index, rows in group_rows.items():
                asn = int(member_asns[index])
                port = self._port_list[positions[index]]
                result = self._filtered_result(
                    table, rows, asn, assigned, bits, per_rule_bits, port, interval
                )
                port.counters.update(float(offered[index]), result)
                if port.retain_history:
                    port.history.append((interval_start, result))
                results[asn] = result
                forwarded[index] = result.forwarded_bits
                dropped[index] = result.dropped_bits
                shaped_passed[index] = result.shaped_passed_bits
                shaped_dropped[index] = result.shaped_dropped_bits
                congestion[index] = result.congestion_dropped_bits
        delivered = forwarded + shaped_passed

        view = _MemberResults(
            member_asns, forwarded, congestion, results, table, order, starts, counts
        )
        # A rule-less port's dropped and shaped counters would only add
        # +0.0, which leaves them unchanged.
        rule_less = np.flatnonzero(~has_rules)
        for position, asn, offer, carried, congested in zip(
            positions[rule_less].tolist(),
            member_asns[rule_less].tolist(),
            offered[rule_less].tolist(),
            delivered[rule_less].tolist(),
            congestion[rule_less].tolist(),
        ):
            port = self._port_list[position]
            port.counters.add(offer, carried, 0.0, 0.0, 0.0, congested)
            if port.retain_history:
                port.history.append((interval_start, view[asn]))

        # Platform totals: one left fold per column in ascending-ASN
        # order, the sequence the old per-member running `+=` produced.
        return FabricIntervalReport(
            interval_start=interval_start,
            interval=interval,
            offered_bits=ordered_sum(offered),
            delivered_bits=ordered_sum(delivered),
            filtered_bits=ordered_sum(dropped + shaped_dropped),
            congestion_dropped_bits=ordered_sum(congestion),
            member_asns=member_asns,
            member_fields=dict(
                zip(
                    MEMBER_REPORT_FIELDS,
                    (forwarded, dropped, shaped_passed, shaped_dropped, congestion),
                )
            ),
            rule_stats={
                asn: result.rule_stats
                for asn, result in results.items()
                if result.rule_stats
            },
            port_capacity_bps=capacity_bps,
            results_by_member=view,
        )

    # ------------------------------------------------------------------
    def _group_by_member(
        self, table: FlowTable
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The interval's rows grouped by connected egress member.

        Returns ``(order, member_asns, positions, starts, counts)``:
        member ``member_asns[i]`` (ascending; the plan's port
        ``positions[i]``) owns rows ``order[starts[i]:starts[i] + counts[i]]``,
        in original row order, which keeps the deferred tables identical to
        the per-member ``select`` path.  Rows whose egress member is not
        connected never entered the IXP and belong to no group.
        """
        row_count = len(table)
        order = np.argsort(table.egress_asn, kind="stable")
        egress = table.egress_asn[order]
        starts = np.flatnonzero(np.concatenate(([True], egress[1:] != egress[:-1])))
        counts = np.diff(np.append(starts, row_count))
        group_asns = egress[starts].astype(np.int64)
        positions = np.searchsorted(self._member_asns, group_asns)
        known = positions < len(self._member_asns)
        known[known] = self._member_asns[positions[known]] == group_asns[known]
        return order, group_asns[known], positions[known], starts[known], counts[known]

    # ------------------------------------------------------------------
    def _classify(
        self,
        table: FlowTable,
        bits: np.ndarray,
        member_asns: np.ndarray,
        group_rows: Mapping[int, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign each row its claiming rule (global index, or -1 = forward).

        Rules of different members are disjoint by the egress column, so
        each filtered member's rules are matched against that member's
        row slice only, through the port policy's shared
        :meth:`~repro.ixp.qos.PortQosPolicy.assign_table` — the compiled
        rule-match index on the default engine.  ``assign_table`` is
        row-wise, so verdicts on the slice equal verdicts on the full
        table; local ranks map to global rule indices by the member's
        contiguous block offset.
        """
        assigned = np.full(len(table), -1, dtype=np.int64)
        for index, rows in group_rows.items():
            asn = int(member_asns[index])
            ranks = self._ports[asn].qos.assign_table(table.select(rows))
            matched = ranks >= 0
            if matched.any():
                assigned[rows[matched]] = self._member_start[asn] + ranks[matched]
        matched = assigned >= 0
        per_rule_bits = np.bincount(
            assigned[matched], weights=bits[matched], minlength=len(self._rules)
        )
        return assigned, per_rule_bits

    # ------------------------------------------------------------------
    def _filtered_result(
        self,
        table: FlowTable,
        rows: np.ndarray,
        asn: int,
        assigned: np.ndarray,
        bits: np.ndarray,
        per_rule_bits: np.ndarray,
        port: MemberPort,
        interval: float,
    ) -> PortQosResult:
        """Scatter the platform-level verdicts back into one port's result.

        Mirrors ``PortQosPolicy._apply_table`` operation for operation
        (same accumulation order, same float conversions) so the batched
        engine stays bit-for-bit equal to the fallback.  Only the rules
        that actually claimed rows are visited.
        """
        qos = port.qos
        start = self._member_start[asn]
        # Rules come from the plan's own snapshot (rank -> _rules[start +
        # rank]); the is_current guard in execute() keeps it aligned with
        # the live policy, and this avoids an O(installed) list copy per
        # filtered member per interval.
        assigned_rows = assigned[rows]
        matched = assigned_rows >= 0
        local = (assigned_rows - start).astype(np.int64)
        rule_stats: dict[str, dict[str, float]] = {}

        def stats_for(rule: QosRule) -> dict[str, float]:
            return rule_stats.setdefault(
                rule.rule_id, {"matched": 0.0, "dropped": 0.0, "shaped": 0.0}
            )

        claimed = np.unique(local[matched]).tolist() if bool(matched.any()) else []
        row_actions = np.full(len(rows), _FORWARD_CODE, dtype=np.int8)
        if claimed:
            row_actions[matched] = qos.action_codes()[local[matched]]
        forward_mask = row_actions == _FORWARD_CODE
        drop_mask = row_actions == _DROP_CODE
        shape_groups: dict[str, list[int]] = {}
        for rank in claimed:
            rule = self._rules[start + rank].rule
            if rule.action is FilterAction.DROP:
                matched_bits = float(per_rule_bits[start + rank])
                stats = stats_for(rule)
                stats["matched"] += matched_bits
                stats["dropped"] += matched_bits
            elif rule.action is FilterAction.SHAPE:
                # Rules sharing a shaper key share its budget (anonymous
                # shape rules carry synthetic ids).
                shape_groups.setdefault(rule.rule_id, []).append(rank)

        rows_by_rank = _shape_rows_by_rank(local, row_actions)
        shaped_tables: list[FlowTable] = []
        # Per-shaper terms, folded once after the loop in the same order
        # the old running `+=` added them (RPL006) — bit-for-bit identical.
        passed_terms: list[float] = []
        dropped_terms: list[float] = []
        for key, group_ranks in shape_groups.items():
            positions = _group_rows(rows_by_rank, group_ranks)
            group_rows = rows[positions]
            offered_bits = float(bits[group_rows].sum())
            shaper = qos.shaper_for(key)
            if shaper is None:
                passed_bits, dropped_bits = offered_bits, 0.0
            else:
                passed_bits, dropped_bits = shaper.shape(offered_bits, interval)
            scale = passed_bits / offered_bits if offered_bits > 0 else 0.0
            scaled = table.select(group_rows).scaled(scale)
            shaped_tables.append(scaled)
            scaled_bits = scaled.bits
            group_local = local[positions]
            for rank in group_ranks:
                rule_bits = float(scaled_bits[group_local == rank].sum())
                stats = stats_for(self._rules[start + rank].rule)
                stats["matched"] += rule_bits
                stats["shaped"] += rule_bits
            passed_terms.append(passed_bits)
            dropped_terms.append(dropped_bits)
        shaped_passed = ordered_sum(passed_terms)
        shaped_dropped = ordered_sum(dropped_terms)

        forward_rows = rows[forward_mask]
        drop_rows = rows[drop_mask]
        shaped_table = (
            FlowTable.concat(shaped_tables) if shaped_tables else FlowTable.empty()
        )
        result = PortQosResult(
            forwarded_bits=float(bits[forward_rows].sum()),
            dropped_bits=float(bits[drop_rows].sum()),
            shaped_passed_bits=shaped_passed,
            shaped_dropped_bits=shaped_dropped,
            rule_stats=rule_stats,
            table_source=lambda: (
                table.select(forward_rows), table.select(drop_rows), shaped_table,
            ),
        )
        qos.apply_congestion(result, interval)
        return result


class _MemberResults(Mapping[int, PortQosResult]):
    """The read-only ``results_by_member`` of a batched interval report.

    A member with rules maps to the result the scatter built.  Any other
    member's :class:`~repro.ixp.qos.PortQosResult` is built from the
    report's columns when it is looked up, with its table views still
    deferred, so iterating the ASNs or taking ``len`` builds nothing.
    The view holds the columns and the interval's table, never the
    report, so the two form no reference cycle.
    """

    __slots__ = ("_asns", "_forwarded", "_congestion", "_built", "_table", "_order",
                 "_starts", "_counts")

    def __init__(
        self,
        member_asns: np.ndarray,
        forwarded_bits: np.ndarray,
        congestion_dropped_bits: np.ndarray,
        built: dict[int, PortQosResult],
        table: FlowTable,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self._asns = member_asns
        self._forwarded = forwarded_bits
        self._congestion = congestion_dropped_bits
        self._built = built
        self._table = table
        self._order = order
        self._starts = starts
        self._counts = counts

    def _position(self, asn: object) -> int:
        """Row of ``asn`` in the report's columns, or -1."""
        if not isinstance(asn, (int, np.integer)):
            return -1
        position = int(np.searchsorted(self._asns, asn))
        if position < len(self._asns) and self._asns[position] == asn:
            return position
        return -1

    def __getitem__(self, asn: int) -> PortQosResult:
        result = self._built.get(asn)
        if result is not None:
            return result
        position = self._position(asn)
        if position < 0:
            raise KeyError(asn)
        table = self._table
        start = int(self._starts[position])
        rows = self._order[start : start + int(self._counts[position])]
        return PortQosResult(
            forwarded_bits=float(self._forwarded[position]),
            congestion_dropped_bits=float(self._congestion[position]),
            table_source=lambda: (
                table.select(rows), FlowTable.empty(), FlowTable.empty(),
            ),
        )

    def __contains__(self, asn: object) -> bool:
        return self._position(asn) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._asns.tolist())

    def __len__(self) -> int:
        return len(self._asns)
