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

An index can also span several **owners** (the member ports of a fabric):
:meth:`RuleMatchIndex.merged` combines per-port indexes into one, and
:meth:`RuleMatchIndex.assign` then takes each row's owner alongside the
table, so a rule only ever claims rows of its own port.  An exact group
keeps its distinct keys sorted (a key's position is its *key id*); a
lookup finds each row's key id with one ``searchsorted`` and the *slot*
``owner * distinct keys + key id`` with a second, so no key grows past
64 bits.  Fallback rules run their masked pass on their owner's rows
only.  A single port's
index is the one-owner case of the same code (every row is owner 0).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, TypeAlias

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

#: :data:`EXACT_FIELD_WIDTHS` as a lookup table.
_FIELD_WIDTH: dict[str, int] = dict(EXACT_FIELD_WIDTHS)

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

        signature = cls(
            dst=prefix_kind(match.dst_prefix),
            src=prefix_kind(match.src_prefix),
            mac=match.src_mac is not None,
            protocol=match.protocol is not None,
            src_port=match.src_port is not None,
            dst_port=match.dst_port is not None,
        )
        # One shared instance per distinct signature, so the derived
        # properties below are computed once per signature, not per rule.
        return _SIGNATURES.setdefault(signature, signature)

    # ------------------------------------------------------------------
    # Derived on first use and stored on the signature, which of() shares.
    @cached_property
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

    @cached_property
    def key_bits(self) -> int:
        return sum(_FIELD_WIDTH[name] for name in self.exact_fields)

    @cached_property
    def is_exact(self) -> bool:
        """True if every set criterion is an equality test fitting the key.

        MAC criteria and non-host (or IPv6) prefixes force the masked
        fallback, as does the empty (catch-all) signature and the rare
        combination whose packed key would overflow 64 bits (e.g. host
        src + host dst + both ports).
        """
        if self.mac or self.dst == _PREFIX or self.src == _PREFIX:
            return False
        return bool(self.exact_fields) and self.key_bits <= 64


#: Every signature :meth:`MatchSignature.of` has built (at most a few
#: dozen distinct values exist).
_SIGNATURES: dict[MatchSignature, MatchSignature] = {}


def _rule_key(match: "FlowMatch", fields: tuple[str, ...]) -> int:
    """Pack one rule's exact criteria into the group's integer key."""
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
        key = (key << _FIELD_WIDTH[name]) | value
    return key


class ExactGroup:
    """One exact signature group: distinct packed keys plus owner slots.

    ``keys`` holds the group's distinct rule keys, sorted, so a key's
    position is its dense *key id*.  Every rule is one entry in ``slots``
    (``owner * len(keys) + key id``), sorted by slot, then rank, with its
    rank in ``ranks`` and its packed key in ``entry_keys``.  Duplicate
    keys of one owner keep every entry: the ``side="left"`` slot lookup
    in :meth:`best_ranks` lands on the lowest rank (the most specific /
    earliest-installed rule), matching what the sequential first-match
    loop would claim.  Slots never collide across owners, so no rule
    claims another owner's rows.
    """

    __slots__ = ("fields", "keys", "slots", "ranks", "entry_keys")

    def __init__(
        self,
        fields: tuple[str, ...],
        keys: np.ndarray,
        owners: np.ndarray,
        ranks: np.ndarray,
    ) -> None:
        self.fields = fields
        self.keys, key_ids = np.unique(keys, return_inverse=True)
        slots = owners * len(self.keys) + key_ids.reshape(-1)
        order = np.lexsort((ranks, slots))
        self.slots = slots[order]
        self.ranks = ranks[order]
        self.entry_keys = keys[order]

    @property
    def rule_count(self) -> int:
        return len(self.slots)

    def flow_keys(self, table: FlowTable) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Pack the group's key fields out of a flow table.

        Returns ``(keys, valid)`` where ``valid`` flags rows whose field
        values fit the packed widths (``None`` when all rows do) — a row
        with an out-of-range value can never equal a validated rule key,
        so it must not alias into another key's lane.
        """
        keys = np.zeros(len(table), dtype=np.uint64)
        valid: Optional[np.ndarray] = None
        for name in self.fields:
            column = getattr(table, name)
            width = _FIELD_WIDTH[name]
            lane = np.uint64((1 << width) - 1)
            if column.dtype.kind == "i":  # the L4 port columns are signed
                in_range = (column >= 0) & (column <= int(lane))
                if not bool(in_range.all()):
                    valid = in_range if valid is None else (valid & in_range)
            keys = (keys << np.uint64(width)) | (column.astype(np.uint64) & lane)
        return keys, valid

    def best_ranks(
        self, table: FlowTable, owners: Optional[np.ndarray], sentinel: int
    ) -> Optional[np.ndarray]:
        """Per-row rank of the group's matching rule (``sentinel`` = none).

        ``owners`` gives each row's owner; ``None`` means every row is
        owner 0, the single-port case.
        """
        if not len(self.slots):
            return None
        keys, valid = self.flow_keys(table)
        key_ids = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hits = self.keys[key_ids] == keys
        if valid is not None:
            hits &= valid
        if not bool(hits.any()):
            return None
        slots = key_ids if owners is None else owners * len(self.keys) + key_ids
        positions = np.minimum(np.searchsorted(self.slots, slots), len(self.slots) - 1)
        hits &= self.slots[positions] == slots
        if not bool(hits.any()):
            return None
        return np.where(hits, self.ranks[positions], np.int32(sentinel))


#: Fallback rules of one owner and signature: ``(rank, rule)`` pairs.
_FallbackEntries: TypeAlias = "list[tuple[int, QosRule]]"


class RuleMatchIndex:
    """Compiled snapshot of one rule list in most-specific-first order.

    ``rules`` must already be sorted the way the sequential classifier
    evaluates them (:meth:`~repro.ixp.qos.PortQosPolicy.sorted_rules`);
    the index assigns each row the *rank* of its claiming rule in that
    order, so callers index back into the same list for actions, shaping
    rates and rule ids.  :meth:`merged` builds the multi-owner index of
    several such lists.
    """

    def __init__(self, rules: "Sequence[QosRule]") -> None:
        exact_entries: dict[tuple[str, ...], list[tuple[int, int]]] = {}
        fallback: dict[tuple[int, MatchSignature], _FallbackEntries] = {}
        for rank, rule in enumerate(rules):
            signature = MatchSignature.of(rule.match)
            if signature.is_exact:
                fields = signature.exact_fields
                exact_entries.setdefault(fields, []).append(
                    (_rule_key(rule.match, fields), rank)
                )
            else:
                fallback.setdefault((0, signature), []).append((rank, rule))
        groups = []
        for fields, entries in exact_entries.items():
            count = len(entries)
            groups.append(
                ExactGroup(
                    fields,
                    np.fromiter((key for key, _ in entries), dtype=np.uint64, count=count),
                    np.zeros(count, dtype=np.int64),
                    np.fromiter((rank for _, rank in entries), dtype=np.int32, count=count),
                )
            )
        self._assemble(len(rules), len(rules), groups, fallback)

    @classmethod
    def merged(
        cls, parts: "Iterable[tuple[int, int, RuleMatchIndex]]"
    ) -> "RuleMatchIndex":
        """One index over several single-owner indexes.

        Each part is ``(owner, offset, index)``: the part's rules belong
        to ``owner`` and its rank ``r`` becomes ``offset + r``, so the
        parts' rank ranges must not overlap.  Built from the parts'
        compiled entries, without re-packing any rule.
        """
        # Per field set: every part's entry keys, ranks, owner and offset.
        exact: dict[tuple[str, ...], list[tuple[np.ndarray, np.ndarray, int, int]]] = {}
        fallback: dict[tuple[int, MatchSignature], _FallbackEntries] = {}
        rule_count = rank_bound = 0
        for owner, offset, part in parts:
            rule_count += part.rule_count
            rank_bound = max(rank_bound, offset + part._rank_bound)
            for group in part._exact_groups:
                exact.setdefault(group.fields, []).append(
                    (group.entry_keys, group.ranks, owner, offset)
                )
            for (_, signature), entries in part._fallback_groups.items():
                fallback[(owner, signature)] = [
                    (offset + rank, rule) for rank, rule in entries
                ]
        groups = []
        for fields, members in exact.items():
            keys, ranks, owners, offsets = zip(*members)
            lengths = [len(member_keys) for member_keys in keys]
            global_ranks = np.concatenate(ranks) + np.repeat(
                np.array(offsets, dtype=np.int32), lengths
            )
            owner_column = np.repeat(np.array(owners, dtype=np.int64), lengths)
            groups.append(ExactGroup(fields, np.concatenate(keys), owner_column, global_ranks))
        index = cls.__new__(cls)
        index._assemble(rule_count, rank_bound, groups, fallback)
        return index

    def _assemble(
        self,
        rule_count: int,
        rank_bound: int,
        exact_groups: list[ExactGroup],
        fallback_groups: dict[tuple[int, MatchSignature], _FallbackEntries],
    ) -> None:
        self._rule_count = rule_count
        #: One past the highest rank (the "no match" sentinel).
        self._rank_bound = rank_bound
        self._exact_groups = exact_groups
        #: ``{(owner, signature): [(rank, rule), ...]}``.
        self._fallback_groups = fallback_groups
        self._fallback_by_owner: dict[int, _FallbackEntries] = {}
        for (owner, _), entries in fallback_groups.items():
            self._fallback_by_owner.setdefault(owner, []).extend(entries)

    # ------------------------------------------------------------------
    # Introspection (docs, tests, telemetry)
    # ------------------------------------------------------------------
    @property
    def rule_count(self) -> int:
        return self._rule_count

    @property
    def exact_rule_count(self) -> int:
        return sum(group.rule_count for group in self._exact_groups)

    @property
    def fallback_rule_count(self) -> int:
        return sum(len(entries) for entries in self._fallback_groups.values())

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
    def assign(self, table: FlowTable, owners: Optional[np.ndarray] = None) -> np.ndarray:
        """Rank of each row's claiming rule (``-1`` = no rule matches).

        Equal to the sequential first-match loop over each owner's sorted
        rules: the winner is the matching rule of the row's owner with the
        minimum rank, which the exact groups resolve via sorted-key
        lookups and the fallback groups via per-rule masked passes over
        their owner's rows, folded together with a running elementwise
        minimum.  ``owners`` (int64, one per row) is required for a
        :meth:`merged` index; without it every row is owner 0.
        """
        n = len(table)
        sentinel = self._rank_bound
        if n == 0 or sentinel == 0:
            return np.full(n, -1, dtype=np.int32)
        best = np.full(n, np.int32(sentinel), dtype=np.int32)
        for group in self._exact_groups:
            ranks = group.best_ranks(table, owners, sentinel)
            if ranks is not None:
                np.minimum(best, ranks, out=best)
        if self._fallback_by_owner:
            self._fallback_pass(table, owners, best)
        best[best == sentinel] = -1
        return best

    def _fallback_pass(
        self, table: FlowTable, owners: Optional[np.ndarray], best: np.ndarray
    ) -> None:
        """Fold every fallback rule's masked match over its owner's rows."""
        spans: dict[int, np.ndarray] = {}
        if owners is None:
            spans[0] = np.arange(len(table))
        else:
            by_owner = np.argsort(owners, kind="stable")
            sorted_owners = owners[by_owner]
            for owner in self._fallback_by_owner:
                low, high = np.searchsorted(sorted_owners, [owner, owner + 1])
                if low < high:
                    spans[owner] = by_owner[low:high]
        for owner, rows in spans.items():
            scope = table if owners is None else table.select(rows)
            for rank, rule in self._fallback_by_owner[owner]:
                hit = rows[rule.match.matches_table(scope)]
                if len(hit):
                    best[hit] = np.minimum(best[hit], np.int32(rank))
