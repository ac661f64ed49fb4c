"""Compiled rule-match index: classification at tens-of-thousands of rules.

The paper's central scalability claim (Table 1 / §5) is that advanced
blackholing stays effective with *tens of thousands* of fine-grained rules
— far beyond RTBH/ACL hardware limits.  Matching that in the reproduction
needs more than vectorizing the per-rule pass: one
:meth:`~repro.ixp.qos.FlowMatch.matches_table` scan per rule is
O(rules × flows), so a 10 000-rule port costs 10 000 whole-table passes
per observation interval.

:class:`RuleMatchIndex` compiles a port's most-specific-first rule list
into **signature groups**, keyed by which :class:`~repro.ixp.qos.FlowMatch`
fields are set:

* **Exact groups** — every criterion is an equality test: host (/32)
  ``dst_prefix``/``src_prefix``, ``protocol``, ``src_port``, ``dst_port``.
  This is the dominant Stellar rule shape
  (:meth:`~repro.core.rules.BlackholingRule.drop_udp_source_port` is
  ``dst host + UDP + src_port``).  The group's rule criteria are packed
  into one integer key per rule, and a whole table is matched with a
  single ``np.searchsorted`` over the group's sorted key array —
  O(flows × log rules) per group, independent of the rule count in
  Python terms.
* **Fallback groups** — anything with a broader prefix, an IPv6 prefix, a
  MAC criterion or no criteria at all keeps the per-rule masked pass
  (one ``matches_table`` per rule).

Precedence is resolved *across* groups with a vectorized argmin over rule
ranks: each rule carries its position in the port's most-specific-first
order, every group contributes the per-row rank of its best match, and the
row's verdict is the minimum rank seen — exactly the rule the sequential
first-match loop would have claimed the row with.  Duplicate exact keys
keep every entry (sorted by rank within the key), and the ``side="left"``
lookup returns the lowest rank — the most specific / earliest-installed
rule, matching the sequential loop.  The index is therefore
verdict-for-verdict equal to the per-rule pass (pinned in
``tests/ixp/test_ruleindex.py``), which keeps the downstream accounting
bit-for-bit identical.

Indexes are immutable snapshots compiled in one pass.
:class:`~repro.ixp.qos.PortQosPolicy` caches one per rule-set version and
compiles a fresh one whenever the version moves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..traffic.flowtable import FlowTable

if TYPE_CHECKING:
    from ..bgp.prefix import Prefix
    from .qos import FlowMatch, QosRule

#: Packing order and bit widths of the exact-match key fields.  A group's
#: key concatenates the fields its signature sets, in this order; the sum
#: of the set widths must fit the 64-bit key (checked per signature).
EXACT_FIELD_WIDTHS: tuple[tuple[str, int], ...] = (
    ("dst_ip", 32),
    ("src_ip", 32),
    ("protocol", 8),
    ("src_port", 16),
    ("dst_port", 16),
)

#: Field kinds a signature distinguishes for the prefix criteria.
_NONE, _HOST, _PREFIX = "none", "host", "prefix"


@dataclass(frozen=True)
class MatchSignature:
    """Which fields of a :class:`~repro.ixp.qos.FlowMatch` are set, and how.

    ``dst``/``src`` record whether the prefix criterion is absent, an IPv4
    host route (an equality test on the address column) or anything
    broader; the L4 fields and the MAC criterion are plain present/absent
    flags.  Rules sharing a signature are matched by the same compiled
    strategy.
    """

    dst: str = _NONE
    src: str = _NONE
    mac: bool = False
    protocol: bool = False
    src_port: bool = False
    dst_port: bool = False

    @classmethod
    def of(cls, match: "FlowMatch") -> "MatchSignature":
        def prefix_kind(prefix: "Optional[Prefix]") -> str:
            if prefix is None:
                return _NONE
            if prefix.version == 4 and prefix.is_host_route:
                return _HOST
            return _PREFIX

        return cls(
            dst=prefix_kind(match.dst_prefix),
            src=prefix_kind(match.src_prefix),
            mac=match.src_mac is not None,
            protocol=match.protocol is not None,
            src_port=match.src_port is not None,
            dst_port=match.dst_port is not None,
        )

    # ------------------------------------------------------------------
    @property
    def exact_fields(self) -> tuple[str, ...]:
        """The packed key fields, in :data:`EXACT_FIELD_WIDTHS` order."""
        present = {
            "dst_ip": self.dst == _HOST,
            "src_ip": self.src == _HOST,
            "protocol": self.protocol,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
        }
        return tuple(name for name, _ in EXACT_FIELD_WIDTHS if present[name])

    @property
    def key_bits(self) -> int:
        widths = dict(EXACT_FIELD_WIDTHS)
        return sum(widths[name] for name in self.exact_fields)

    @property
    def is_exact(self) -> bool:
        """True if every set criterion is an equality test fitting the key.

        MAC criteria and non-host (or IPv6) prefixes force the masked
        fallback, as does the empty (catch-all) signature and the rare
        combination whose packed key would overflow 64 bits (e.g. host
        src + host dst + both ports).
        """
        if self.mac or self.dst == _PREFIX or self.src == _PREFIX:
            return False
        fields = self.exact_fields
        return bool(fields) and self.key_bits <= 64


def _rule_key(match: "FlowMatch", fields: tuple[str, ...]) -> int:
    """Pack one rule's exact criteria into the group's integer key."""
    widths = dict(EXACT_FIELD_WIDTHS)
    key = 0
    for name in fields:
        if name == "dst_ip":
            value = match.dst_prefix.int_bounds[0]
        elif name == "src_ip":
            value = match.src_prefix.int_bounds[0]
        elif name == "protocol":
            value = int(match.protocol)
        else:
            value = int(getattr(match, name))
        key = (key << widths[name]) | value
    return key


class ExactGroup:
    """One exact signature group: packed keys sorted by (key, rank)."""

    __slots__ = ("fields", "keys", "ranks", "rule_count")

    def __init__(self, fields: tuple[str, ...], entries: list[tuple[int, int]]) -> None:
        self.fields = fields
        self.rule_count = len(entries)
        keys = np.fromiter((key for key, _ in entries), dtype=np.uint64, count=len(entries))
        ranks = np.fromiter((rank for _, rank in entries), dtype=np.int32, count=len(entries))
        # Sort by key, then rank.  Duplicate keys keep every entry: the
        # side="left" lookup in best_ranks lands on the lowest rank (the
        # most specific / earliest-installed rule), matching what the
        # sequential first-match loop would claim.
        order = np.lexsort((ranks, keys))
        self.keys = keys[order]
        self.ranks = ranks[order]

    def flow_keys(self, table: FlowTable) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Pack the group's key fields out of a flow table.

        Returns ``(keys, valid)`` where ``valid`` flags rows whose field
        values fit the packed widths (``None`` when all rows do) — a row
        with an out-of-range value can never equal a validated rule key,
        so it must not alias into another key's lane.
        """
        widths = dict(EXACT_FIELD_WIDTHS)
        keys = np.zeros(len(table), dtype=np.uint64)
        valid: Optional[np.ndarray] = None
        for name in self.fields:
            column = getattr(table, name)
            width = np.uint64(widths[name])
            lane = np.uint64((1 << widths[name]) - 1)
            if column.dtype.kind == "i":  # the L4 port columns are signed
                in_range = (column >= 0) & (column <= int(lane))
                if not bool(in_range.all()):
                    valid = in_range if valid is None else (valid & in_range)
            keys = (keys << width) | (column.astype(np.uint64) & lane)
        return keys, valid

    def best_ranks(self, table: FlowTable, sentinel: int) -> Optional[np.ndarray]:
        """Per-row rank of the group's matching rule (``sentinel`` = none)."""
        if not len(self.keys):
            return None
        keys, valid = self.flow_keys(table)
        positions = np.searchsorted(self.keys, keys)
        positions = np.minimum(positions, len(self.keys) - 1)
        hits = self.keys[positions] == keys
        if valid is not None:
            hits &= valid
        if not bool(hits.any()):
            return None
        return np.where(hits, self.ranks[positions], np.int32(sentinel))


class RuleMatchIndex:
    """Compiled snapshot of one rule list in most-specific-first order.

    ``rules`` must already be sorted the way the sequential classifier
    evaluates them (:meth:`~repro.ixp.qos.PortQosPolicy.sorted_rules`);
    the index assigns each row the *rank* of its claiming rule in that
    order, so callers index back into the same list for actions, shaping
    rates and rule ids.
    """

    def __init__(self, rules: "Sequence[QosRule]") -> None:
        self._rules = list(rules)
        exact_entries: dict[tuple[str, ...], list[tuple[int, int]]] = {}
        fallback: dict[MatchSignature, list["tuple[int, QosRule]"]] = {}
        for rank, rule in enumerate(self._rules):
            signature = MatchSignature.of(rule.match)
            if signature.is_exact:
                fields = signature.exact_fields
                exact_entries.setdefault(fields, []).append(
                    (_rule_key(rule.match, fields), rank)
                )
            else:
                fallback.setdefault(signature, []).append((rank, rule))
        self._exact_groups = [
            ExactGroup(fields, entries) for fields, entries in exact_entries.items()
        ]
        self._fallback_groups = list(fallback.items())

    # ------------------------------------------------------------------
    # Introspection (docs, tests, telemetry)
    # ------------------------------------------------------------------
    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def exact_rule_count(self) -> int:
        return sum(group.rule_count for group in self._exact_groups)

    @property
    def fallback_rule_count(self) -> int:
        return sum(len(entries) for _, entries in self._fallback_groups)

    @property
    def exact_group_count(self) -> int:
        return len(self._exact_groups)

    @property
    def fallback_group_count(self) -> int:
        return len(self._fallback_groups)

    def describe(self) -> dict[str, int]:
        """Compact stats of the compiled shape (stable across engines).

        Keys are part of the golden-seed result payloads (the
        fine-grained experiment sums them per protected member), so the
        key set must not grow with new internals.
        """
        return {
            "rules": self.rule_count,
            "exact_rules": self.exact_rule_count,
            "fallback_rules": self.fallback_rule_count,
            "exact_groups": self.exact_group_count,
            "fallback_groups": self.fallback_group_count,
        }

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def assign(self, table: FlowTable) -> np.ndarray:
        """Rank of each row's claiming rule (``-1`` = no rule matches).

        Equal to the sequential first-match loop over the sorted rules:
        the winner is the matching rule with the minimum rank, which the
        exact groups resolve via one sorted-key lookup each and the
        fallback groups via per-rule masked passes, folded together with
        a running elementwise minimum.
        """
        n = len(table)
        sentinel = len(self._rules)
        best = np.full(n, np.int32(sentinel), dtype=np.int32)
        if n == 0 or sentinel == 0:
            return np.full(n, -1, dtype=np.int32)
        for group in self._exact_groups:
            ranks = group.best_ranks(table, sentinel)
            if ranks is not None:
                np.minimum(best, ranks, out=best)
        for _, entries in self._fallback_groups:
            for rank, rule in entries:
                mask = rule.match.matches_table(table)
                if bool(mask.any()):
                    np.minimum(
                        best, np.where(mask, np.int32(rank), np.int32(sentinel)), out=best
                    )
        assigned = best
        assigned[assigned == sentinel] = -1
        return assigned
