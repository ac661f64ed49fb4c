"""QoS classification and queueing (the filtering layer's data plane).

Stellar's filtering layer compiles blackholing rules into per-member-port
QoS policies (paper §4.5, Fig. 8).  Each policy classifies the packet
stream leaving the IXP towards the member into one of three actions:

* ``DROP`` — redirect to a zero-length queue (immediate discard),
* ``SHAPE`` — pass through a shaping queue with a configurable rate (used
  for telemetry: the victim still sees a bounded sample of the attack),
* ``FORWARD`` — the default; enqueue on the member port's egress queue,
  which is itself limited by the port capacity.

The reproduction models this at flow level per observation interval.  The
policy accepts both representations of an interval's traffic: a sequence of
:class:`FlowRecord` objects (classified flow by flow) or a columnar
:class:`~repro.traffic.flowtable.FlowTable`, which is classified with
vectorized column matchers — the fast path the attack experiments run on.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar, Optional, Union

import numpy as np

from ..bgp.prefix import Prefix, parse_prefix
from ..traffic.flow import FlowRecord
from ..traffic.flowtable import (
    FlowTable,
    derived_mac,
    ingress_peers,
    population_bits,
    prefix_mask,
)
from ..traffic.packet import IpProtocol
from .accounting import ordered_sum
from .queues import RateLimiter
from .ruleindex import RuleMatchIndex

#: Classification engines :meth:`PortQosPolicy.assign_table` can run:
#: ``"indexed"`` (the default) classifies through the compiled
#: :class:`~repro.ixp.ruleindex.RuleMatchIndex`; ``"per-rule"`` is the
#: parity-tested fallback running one vectorized match pass per rule.
CLASSIFICATION_ENGINES = ("indexed", "per-rule")


def _checked_engine(engine: str) -> str:
    if engine not in CLASSIFICATION_ENGINES:
        raise ValueError(
            f"unknown classification engine {engine!r}; "
            f"known: {', '.join(CLASSIFICATION_ENGINES)}"
        )
    return engine


class FilterAction(Enum):
    """What happens to traffic matching a classification rule."""

    DROP = "drop"
    SHAPE = "shape"
    FORWARD = "forward"


@dataclass(frozen=True)
class FlowMatch:
    """L2–L4 match criteria of a classification rule.

    Every field is optional; ``None`` means "any".  The resource footprint
    properties report how many TCAM entries of each pool a rule with this
    match consumes (one MAC entry if a MAC is matched; one L3–L4 criterion
    per L3/L4 field).
    """

    dst_prefix: Optional[Prefix] = None
    src_prefix: Optional[Prefix] = None
    src_mac: Optional[str] = None
    protocol: Optional[IpProtocol] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")

    # ------------------------------------------------------------------
    @property
    def mac_filter_entries(self) -> int:
        """MAC (L2) TCAM entries consumed by this match."""
        return 1 if self.src_mac is not None else 0

    @property
    def l3l4_criteria(self) -> int:
        """L3–L4 TCAM criteria consumed by this match."""
        return sum(
            1
            for value in (
                self.dst_prefix,
                self.src_prefix,
                self.protocol,
                self.src_port,
                self.dst_port,
            )
            if value is not None
        )

    @property
    def is_catch_all(self) -> bool:
        """True if the match has no criteria at all (matches everything)."""
        return self.mac_filter_entries == 0 and self.l3l4_criteria == 0

    # ------------------------------------------------------------------
    def matches(self, flow: FlowRecord) -> bool:
        """Check a flow record against the criteria."""
        if self.dst_prefix is not None and not self.dst_prefix.contains_address(flow.dst_ip):
            return False
        if self.src_prefix is not None and not self.src_prefix.contains_address(flow.src_ip):
            return False
        if self.src_mac is not None and flow.src_mac.lower() != self.src_mac.lower():
            return False
        if self.protocol is not None and flow.protocol != self.protocol:
            return False
        if self.src_port is not None and flow.src_port != self.src_port:
            return False
        if self.dst_port is not None and flow.dst_port != self.dst_port:
            return False
        return True

    def matches_table(self, table: FlowTable) -> np.ndarray:
        """Vectorized :meth:`matches` over a columnar flow batch."""
        n = len(table)
        mask = np.ones(n, dtype=bool)
        for prefix, column in ((self.dst_prefix, table.dst_ip), (self.src_prefix, table.src_ip)):
            if prefix is None:
                continue
            mask &= prefix_mask(column, prefix)
            if not mask.any():
                return mask
        if self.src_mac is not None:
            target = self.src_mac.lower()
            if table.src_mac is None:
                # Generator-produced tables carry the derived-MAC convention,
                # so a MAC match reduces to an ingress-ASN membership test.
                unique = np.unique(table.ingress_asn)
                matching = [asn for asn in unique.tolist() if derived_mac(asn) == target]
                mask &= np.isin(table.ingress_asn, matching)
            else:
                mask &= np.fromiter(
                    (mac.lower() == target for mac in table.src_mac), dtype=bool, count=n
                )
        if self.protocol is not None:
            mask &= table.protocol == int(self.protocol)
        if self.src_port is not None:
            mask &= table.src_port == self.src_port
        if self.dst_port is not None:
            mask &= table.dst_port == self.dst_port
        return mask

    @property
    def specificity(self) -> int:
        """More specific matches win when several rules match a flow."""
        score = self.l3l4_criteria + self.mac_filter_entries
        if self.dst_prefix is not None:
            score += self.dst_prefix.length / 128
        if self.src_prefix is not None:
            score += self.src_prefix.length / 128
        return int(score * 1000)


@dataclass(frozen=True)
class QosRule:
    """One classification rule: match criteria + action (+ shaping rate)."""

    match: FlowMatch
    action: FilterAction
    #: Only meaningful for SHAPE: the shaping rate in bits per second.
    shape_rate_bps: float = 0.0
    #: Identifier of the blackholing rule this was compiled from (telemetry).
    rule_id: str = ""

    def __post_init__(self) -> None:
        if self.action is FilterAction.SHAPE and self.shape_rate_bps <= 0:
            raise ValueError("SHAPE rules require a positive shape_rate_bps")
        if self.action is not FilterAction.SHAPE and self.shape_rate_bps:
            raise ValueError("shape_rate_bps is only valid for SHAPE rules")


class PortQosResult:
    """Outcome of pushing one interval of traffic through a port's QoS policy.

    The per-action flow populations are available both as columnar tables
    (``forwarded_table`` etc., when the vectorized path produced them) and
    as lazily materialised record lists (``forwarded`` etc.), so legacy
    consumers keep working while the hot paths stay columnar.
    ``rule_stats`` attributes matched/dropped/shaped bits to the rule id
    that classified them, which is what the telemetry layer reports.

    ``table_source`` defers the columnar views themselves: the batched
    fabric delivery engine accounts for hundreds of ports per interval and
    hands each result a callable producing ``(forwarded, dropped, shaped)``
    tables, which only runs if a consumer actually asks for a per-flow
    view — the bit counters and ``rule_stats`` are always eager.
    """

    def __init__(
        self,
        forwarded: Optional[list[FlowRecord]] = None,
        dropped: Optional[list[FlowRecord]] = None,
        shaped: Optional[list[FlowRecord]] = None,
        forwarded_bits: float = 0.0,
        dropped_bits: float = 0.0,
        shaped_passed_bits: float = 0.0,
        shaped_dropped_bits: float = 0.0,
        congestion_dropped_bits: float = 0.0,
        forwarded_table: Optional[FlowTable] = None,
        dropped_table: Optional[FlowTable] = None,
        shaped_table: Optional[FlowTable] = None,
        rule_stats: Optional[dict[str, dict[str, float]]] = None,
        table_source: Optional[
            Callable[[], tuple[FlowTable, FlowTable, FlowTable]]
        ] = None,
    ) -> None:
        self._forwarded = forwarded
        self._dropped = dropped
        self._shaped = shaped
        self._forwarded_table = forwarded_table
        self._dropped_table = dropped_table
        self._shaped_table = shaped_table
        self._table_source = table_source
        self.forwarded_bits = forwarded_bits
        self.dropped_bits = dropped_bits
        self.shaped_passed_bits = shaped_passed_bits
        self.shaped_dropped_bits = shaped_dropped_bits
        self.congestion_dropped_bits = congestion_dropped_bits
        self.rule_stats: dict[str, dict[str, float]] = (
            rule_stats if rule_stats is not None else {}
        )

    # ------------------------------------------------------------------
    # Columnar views (lazy when a table_source was deferred)
    # ------------------------------------------------------------------
    def _materialise_tables(self) -> None:
        if self._table_source is not None:
            source, self._table_source = self._table_source, None
            self._forwarded_table, self._dropped_table, self._shaped_table = source()

    @property
    def forwarded_table(self) -> Optional[FlowTable]:
        self._materialise_tables()
        return self._forwarded_table

    @forwarded_table.setter
    def forwarded_table(self, table: Optional[FlowTable]) -> None:
        self._forwarded_table = table

    @property
    def dropped_table(self) -> Optional[FlowTable]:
        self._materialise_tables()
        return self._dropped_table

    @dropped_table.setter
    def dropped_table(self, table: Optional[FlowTable]) -> None:
        self._dropped_table = table

    @property
    def shaped_table(self) -> Optional[FlowTable]:
        self._materialise_tables()
        return self._shaped_table

    @shaped_table.setter
    def shaped_table(self, table: Optional[FlowTable]) -> None:
        self._shaped_table = table

    # ------------------------------------------------------------------
    # Record views (lazy when columnar tables are present)
    # ------------------------------------------------------------------
    @property
    def forwarded(self) -> list[FlowRecord]:
        if self._forwarded is None:
            self._forwarded = (
                self.forwarded_table.to_records() if self.forwarded_table is not None else []
            )
        return self._forwarded

    @property
    def dropped(self) -> list[FlowRecord]:
        if self._dropped is None:
            self._dropped = (
                self.dropped_table.to_records() if self.dropped_table is not None else []
            )
        return self._dropped

    @property
    def shaped(self) -> list[FlowRecord]:
        if self._shaped is None:
            self._shaped = (
                self.shaped_table.to_records() if self.shaped_table is not None else []
            )
        return self._shaped

    # ------------------------------------------------------------------
    @property
    def delivered_bits(self) -> float:
        """Bits actually delivered to the member (forwarded + shaped that passed)."""
        return self.forwarded_bits + self.shaped_passed_bits

    @property
    def total_dropped_bits(self) -> float:
        return self.dropped_bits + self.shaped_dropped_bits + self.congestion_dropped_bits

    # ------------------------------------------------------------------
    # Columnar-aware summaries (used by the experiment drivers)
    # ------------------------------------------------------------------
    def delivered_peer_asns(self) -> set[int]:
        """Distinct ingress members whose traffic still reaches the member."""
        return ingress_peers(self.forwarded_table, self._forwarded) | ingress_peers(
            self.shaped_table, self._shaped, positive_bytes=True
        )

    def delivered_attack_bits(self) -> float:
        """Attack bits among forwarded + shaped traffic (pre-congestion)."""
        return population_bits(
            self.forwarded_table, self._forwarded, attack=True
        ) + population_bits(self.shaped_table, self._shaped, attack=True)


#: Compact action codes used by the vectorized verdict scatter.
_FORWARD_CODE, _DROP_CODE, _SHAPE_CODE = np.int8(0), np.int8(1), np.int8(2)
_ACTION_CODES = {
    FilterAction.FORWARD: _FORWARD_CODE,
    FilterAction.DROP: _DROP_CODE,
    FilterAction.SHAPE: _SHAPE_CODE,
}


def _shape_rows_by_rank(
    assigned: np.ndarray, row_actions: np.ndarray
) -> dict[int, np.ndarray]:
    """Rows claimed by each SHAPE rule rank, ascending within each rank.

    One stable group-by over the shaped rows replaces a per-shape-rule
    ``np.isin`` scan of the whole interval — with thousands of installed
    shape rules that scan was itself O(rules × flows).  Shared by the
    per-member and batched delivery scatters.
    """
    shape_rows = np.flatnonzero(row_actions == _SHAPE_CODE)
    if not len(shape_rows):
        return {}
    ranks = assigned[shape_rows]
    order = np.argsort(ranks, kind="stable")
    sorted_rows = shape_rows[order]
    sorted_ranks = ranks[order]
    unique, starts = np.unique(sorted_ranks, return_index=True)
    return dict(zip(unique.tolist(), np.split(sorted_rows, starts[1:])))


def _group_rows(rows_by_rank: dict[int, np.ndarray], rule_indices: list[int]) -> np.ndarray:
    """Rows of a shaper group's rules, in ascending (original) row order."""
    if len(rule_indices) == 1:
        return rows_by_rank[rule_indices[0]]
    return np.sort(np.concatenate([rows_by_rank[index] for index in rule_indices]))


class PortQosPolicy:
    """The QoS policy configured on one member (egress) port.

    ``classification_engine`` selects how columnar intervals are
    classified: ``"indexed"`` (the default) compiles the sorted rules into
    a :class:`~repro.ixp.ruleindex.RuleMatchIndex` cached behind
    :attr:`rules_version` (the counter bumped by every :meth:`install` /
    :meth:`remove` / :meth:`clear`), ``"per-rule"`` runs the parity-tested
    one-pass-per-rule fallback.  Both produce identical verdicts.  Every
    mutation re-sorts the rules, and the next classification compiles a
    fresh index.
    """

    #: Configuration changes (rule-set mutations and engine switches) over
    #: every policy in the process.  A cached delivery plan that has seen
    #: the current count knows that none of its ports changed without
    #: reading them.
    config_changes: ClassVar[int] = 0

    def __init__(
        self, port_capacity_bps: float, classification_engine: str = "indexed"
    ) -> None:
        if port_capacity_bps <= 0:
            raise ValueError("port capacity must be positive")
        self._port_capacity_bps = port_capacity_bps
        self._classification_engine = _checked_engine(classification_engine)
        #: Bumped with :attr:`rules_version` and by every engine switch.
        self._config_version = 0
        self._rules: list[QosRule] = []
        self._sorted_rules: list[QosRule] = []
        self._shapers: dict[str, RateLimiter] = {}
        #: Monotonic rule-set version; every mutation bumps it, and the
        #: compiled index / fabric delivery plan caches key off it.
        self._version = 0
        self._index: Optional[RuleMatchIndex] = None
        self._index_version = -1
        self._action_codes: Optional[np.ndarray] = None
        self._anon_ids = itertools.count(1)

    @property
    def port_capacity_bps(self) -> float:
        """The port's egress capacity, fixed at construction.

        Read-only because the fabric's delivery plan keeps a column of
        every port's capacity and reuses it across recompiles.
        """
        return self._port_capacity_bps

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    @property
    def classification_engine(self) -> str:
        """``"indexed"`` or ``"per-rule"``; a switch moves :attr:`config_version`."""
        return self._classification_engine

    @classification_engine.setter
    def classification_engine(self, engine: str) -> None:
        engine = _checked_engine(engine)
        if engine != self._classification_engine:
            self._classification_engine = engine
            self._config_changed()

    def _config_changed(self) -> None:
        self._config_version += 1
        PortQosPolicy.config_changes += 1

    def _bump(self) -> None:
        self._version += 1
        self._action_codes = None
        self._config_changed()

    def _resort(self) -> None:
        # Stable sort: ties keep installation order, so the first match in
        # sorted order equals the most specific (earliest-installed) rule.
        self._sorted_rules = sorted(
            self._rules, key=lambda rule: rule.match.specificity, reverse=True
        )
        self._bump()

    def _normalise(self, rule: QosRule, taken: Optional[set] = None) -> QosRule:
        """Give anonymous SHAPE rules a unique synthetic id.

        Every SHAPE rule needs its own :class:`RateLimiter`; keying the
        shaper (and the shaped-traffic grouping) off a per-policy
        ``anon-<n>`` id means two anonymous rules with different rates can
        no longer silently share one token bucket.  Synthetic ids skip any
        id already installed (or pending in the same batch via ``taken``),
        so a caller-supplied rule literally named ``anon-<n>`` is never
        silently replaced by a later anonymous install.
        """
        if rule.action is FilterAction.SHAPE and not rule.rule_id:
            existing = {existing.rule_id for existing in self._rules}
            if taken:
                existing |= taken
            while True:
                rule_id = f"anon-{next(self._anon_ids)}"
                if rule_id not in existing:
                    return replace(rule, rule_id=rule_id)
        return rule

    def _attach(self, rule: QosRule) -> None:
        self._rules.append(rule)
        if rule.action is FilterAction.SHAPE:
            self._shapers[rule.rule_id] = RateLimiter(rate_bps=rule.shape_rate_bps)

    def install(self, rule: QosRule) -> None:
        """Install a rule (replacing any existing rule with the same id)."""
        rule = self._normalise(rule)
        if rule.rule_id:
            self._rules = [
                existing for existing in self._rules if existing.rule_id != rule.rule_id
            ]
            self._shapers.pop(rule.rule_id, None)
        self._attach(rule)
        self._resort()

    def install_many(self, rules: Iterable[QosRule]) -> None:
        """Install a batch of rules with one re-sort and one version bump.

        Semantically equivalent to calling :meth:`install` per rule (same
        id-replacement behaviour, later duplicates win), but O(R log R)
        for the whole batch instead of O(R² log R) — the path the
        fine-grained scenario uses to stage tens of thousands of rules.
        """
        normalised: list[QosRule] = []
        taken: set[str] = set()
        for rule in rules:
            rule = self._normalise(rule, taken)
            if rule.rule_id:
                taken.add(rule.rule_id)
            normalised.append(rule)
        batch: list[QosRule] = []
        seen: set[str] = set()
        for rule in reversed(normalised):
            if rule.rule_id:
                if rule.rule_id in seen:
                    continue
                seen.add(rule.rule_id)
            batch.append(rule)
        batch.reverse()
        if not batch:
            return
        if seen:
            self._rules = [rule for rule in self._rules if rule.rule_id not in seen]
            for rule_id in seen:
                self._shapers.pop(rule_id, None)
        for rule in batch:
            self._attach(rule)
        self._resort()

    def remove(self, rule_id: str) -> bool:
        """Remove the rule with the given id.  Returns True if found.

        Removing an unknown id is a no-op: the rule-set version is *not*
        bumped, so the compiled index and the fabric's cached delivery
        plan stay warm instead of recompiling for a change that never
        happened.
        """
        remaining = [rule for rule in self._rules if rule.rule_id != rule_id]
        if len(remaining) == len(self._rules):
            return False
        self._rules = remaining
        self._shapers.pop(rule_id, None)
        self._resort()
        return True

    def rules(self) -> list[QosRule]:
        return list(self._rules)

    def rule_ids(self) -> list[str]:
        """Installed rule ids in install order.

        Anonymous SHAPE rules appear under the synthetic ``anon-<n>`` id
        they were given at install time; anonymous DROP/FORWARD rules
        appear as ``""``.  The control-plane service's telemetry (and the
        lockstep fuzz machine) compare policies through this view.
        """
        return [rule.rule_id for rule in self._rules]

    def sorted_rules(self) -> list[QosRule]:
        """The rules in classification (most-specific-first) order.

        The batched fabric delivery engine compiles these into its
        platform-level rule set; the order is exactly the order
        :meth:`classify` / ``_apply_table`` evaluate them in, and the rank
        order :meth:`assign_table` reports.
        """
        return list(self._sorted_rules)

    def shaper_for(self, key: str) -> Optional[RateLimiter]:
        """The stateful shaper behind a SHAPE rule id, shared with the
        batched delivery engine so both engines drain the same token
        state.  Anonymous shape rules are keyed by their synthetic
        ``anon-<n>`` id assigned at install time."""
        return self._shapers.get(key)

    def clear(self) -> None:
        """Drop every rule.  Clearing an already-empty policy is a no-op
        (no version bump), mirroring :meth:`remove` on an unknown id."""
        if not self._rules:
            return
        self._rules.clear()
        self._sorted_rules.clear()
        self._shapers.clear()
        self._bump()

    def __len__(self) -> int:
        return len(self._rules)

    # ------------------------------------------------------------------
    # Compiled-index cache
    # ------------------------------------------------------------------
    @property
    def rules_version(self) -> int:
        """Monotonic counter bumped by every rule-set mutation.

        The compiled rule-match index and the fabric's cached delivery
        plan are both keyed off it, so a mid-run ``install``/``remove`` is
        picked up on the next interval without recompiling untouched
        ports.
        """
        return self._version

    @property
    def config_version(self) -> int:
        """Counter bumped by every rule-set mutation and every engine switch.

        The fabric's cached delivery plan keys off it: which engine
        classifies a port decides whether the plan merges the port's
        index.  An engine switch leaves :attr:`rules_version`, and so the
        compiled index and the rule-update counts, alone.
        """
        return self._config_version

    def compiled_index(self) -> RuleMatchIndex:
        """The rule-match index for the current rule set (cached per version).

        Any mutation moves :attr:`rules_version`, and the next call
        compiles a fresh snapshot of the sorted rules; every other call
        returns the cached one.
        """
        if self._index is None or self._index_version != self._version:
            self._index = RuleMatchIndex(self._sorted_rules)
            self._index_version = self._version
        return self._index

    def action_codes(self) -> np.ndarray:
        """Per-sorted-rule action codes (forward/drop/shape) for the scatter."""
        if self._action_codes is None or len(self._action_codes) != len(self._sorted_rules):
            self._action_codes = np.fromiter(
                (_ACTION_CODES[rule.action] for rule in self._sorted_rules),
                dtype=np.int8,
                count=len(self._sorted_rules),
            )
        return self._action_codes

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, flow: FlowRecord) -> QosRule | None:
        """Return the most specific matching rule, or ``None`` (forward)."""
        for rule in self._sorted_rules:
            if rule.match.matches(flow):
                return rule
        return None

    def assign_table(self, table: FlowTable) -> np.ndarray:
        """Rank of each row's claiming rule in :meth:`sorted_rules` order.

        ``-1`` means no rule matches (forward).  The configured
        ``classification_engine`` decides how the ranks are computed; the
        two engines are pinned verdict-for-verdict equal, so downstream
        accounting is bit-for-bit identical either way.  This is the
        shared classification entry point of both delivery engines: the
        per-member loop calls it from ``_apply_table`` and the batched
        fabric plan calls it per member slice.
        """
        n = len(table)
        if not self._sorted_rules or n == 0:
            return np.full(n, -1, dtype=np.int32)
        if self._classification_engine == "indexed":
            return self.compiled_index().assign(table)
        # Per-rule fallback: one vectorized match pass per rule, first
        # (most specific) match claims the row.
        assigned = np.full(n, -1, dtype=np.int32)
        unmatched = np.ones(n, dtype=bool)
        for index, rule in enumerate(self._sorted_rules):
            if not unmatched.any():
                break
            claimed = rule.match.matches_table(table) & unmatched
            assigned[claimed] = index
            unmatched &= ~claimed
        return assigned

    def apply(
        self, flows: Union[Sequence[FlowRecord], FlowTable], interval: float
    ) -> PortQosResult:
        """Push one observation interval of traffic through the policy."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if isinstance(flows, FlowTable):
            return self._apply_table(flows, interval)
        return self._apply_records(flows, interval)

    # ------------------------------------------------------------------
    def _apply_records(self, flows: Sequence[FlowRecord], interval: float) -> PortQosResult:
        result = PortQosResult(forwarded=[], dropped=[], shaped=[])
        shaped_by_rule: dict[str, list[FlowRecord]] = {}
        shaped_assignment: dict[str, list[QosRule]] = {}

        def stats_for(rule: QosRule) -> dict[str, float]:
            return result.rule_stats.setdefault(
                rule.rule_id, {"matched": 0.0, "dropped": 0.0, "shaped": 0.0}
            )

        for flow in flows:
            rule = self.classify(flow)
            if rule is None or rule.action is FilterAction.FORWARD:
                result.forwarded.append(flow)
                result.forwarded_bits += flow.bits
            elif rule.action is FilterAction.DROP:
                result.dropped.append(flow)
                result.dropped_bits += flow.bits
                stats = stats_for(rule)
                stats["matched"] += flow.bits
                stats["dropped"] += flow.bits
            else:  # SHAPE (anonymous shape rules carry synthetic ids)
                key = rule.rule_id
                shaped_by_rule.setdefault(key, []).append(flow)
                shaped_assignment.setdefault(key, []).append(rule)

        # Shaping queues: the flows matching one shaping rule share that
        # rule's rate limit (paper §5.2).
        for key, shaped_flows in shaped_by_rule.items():
            shaper = self._shapers.get(key)
            offered_bits = sum(flow.bits for flow in shaped_flows)
            if shaper is None:
                passed_bits, dropped_bits = float(offered_bits), 0.0
            else:
                passed_bits, dropped_bits = shaper.shape(offered_bits, interval)
            scale = passed_bits / offered_bits if offered_bits > 0 else 0.0
            for flow, rule in zip(shaped_flows, shaped_assignment[key]):
                scaled = flow.scaled(scale)
                result.shaped.append(scaled)
                stats = stats_for(rule)
                stats["matched"] += scaled.bits
                stats["shaped"] += scaled.bits
            result.shaped_passed_bits += passed_bits
            result.shaped_dropped_bits += dropped_bits

        self.apply_congestion(result, interval)
        return result

    def _apply_table(self, table: FlowTable, interval: float) -> PortQosResult:
        n = len(table)
        rule_stats: dict[str, dict[str, float]] = {}
        if not self._sorted_rules or n == 0:
            result = PortQosResult(
                forwarded_table=table,
                dropped_table=FlowTable.empty(),
                shaped_table=FlowTable.empty(),
                forwarded_bits=float(table.total_bits),
                rule_stats=rule_stats,
            )
            self.apply_congestion(result, interval)
            return result

        # Assign each row to its most specific matching rule (the compiled
        # index or the per-rule fallback, both rank-equivalent).
        assigned = self.assign_table(table)

        bits = table.bits
        matched = assigned >= 0
        # Per-rule matched bits and the set of rules that actually claimed
        # rows fall out of one bincount/unique pass, so the verdict
        # scatter below is O(claimed rules), not O(installed rules).
        per_rank_bits = np.bincount(
            assigned[matched], weights=bits[matched], minlength=len(self._sorted_rules)
        )
        claimed = np.unique(assigned[matched]).tolist()
        row_actions = np.full(n, _FORWARD_CODE, dtype=np.int8)
        if claimed:
            row_actions[matched] = self.action_codes()[assigned[matched]]
        forward_mask = row_actions == _FORWARD_CODE
        drop_mask = row_actions == _DROP_CODE
        shape_groups: dict[str, list[int]] = {}

        def stats_for(rule: QosRule) -> dict[str, float]:
            return rule_stats.setdefault(
                rule.rule_id, {"matched": 0.0, "dropped": 0.0, "shaped": 0.0}
            )

        for index in claimed:
            rule = self._sorted_rules[index]
            if rule.action is FilterAction.DROP:
                matched_bits = float(per_rank_bits[index])
                stats = stats_for(rule)
                stats["matched"] += matched_bits
                stats["dropped"] += matched_bits
            elif rule.action is FilterAction.SHAPE:
                # Group rules sharing a shaper key, as in the record path
                # (anonymous shape rules carry synthetic ids).
                shape_groups.setdefault(rule.rule_id, []).append(index)

        rows_by_rank = _shape_rows_by_rank(assigned, row_actions)
        shaped_tables: list[FlowTable] = []
        # Collected per-group and folded once after the loop: a single
        # left-to-right ordered_sum() is bit-for-bit the running += it
        # replaces, and keeps the accumulation order explicit (see RPL006
        # in docs/STATIC_ANALYSIS.md).
        passed_terms: list[float] = []
        dropped_terms: list[float] = []
        for key, rule_indices in shape_groups.items():
            group_rows = _group_rows(rows_by_rank, rule_indices)
            offered_bits = float(bits[group_rows].sum())
            shaper = self._shapers.get(key)
            if shaper is None:
                passed_bits, dropped_bits = offered_bits, 0.0
            else:
                passed_bits, dropped_bits = shaper.shape(offered_bits, interval)
            scale = passed_bits / offered_bits if offered_bits > 0 else 0.0
            scaled = table.select(group_rows).scaled(scale)
            shaped_tables.append(scaled)
            scaled_bits = scaled.bits
            group_assigned = assigned[group_rows]
            for index in rule_indices:
                rule_bits = float(scaled_bits[group_assigned == index].sum())
                stats = stats_for(self._sorted_rules[index])
                stats["matched"] += rule_bits
                stats["shaped"] += rule_bits
            passed_terms.append(passed_bits)
            dropped_terms.append(dropped_bits)

        shaped_passed = ordered_sum(passed_terms)
        shaped_dropped = ordered_sum(dropped_terms)
        result = PortQosResult(
            forwarded_table=table.select(forward_mask),
            dropped_table=table.select(drop_mask),
            shaped_table=FlowTable.concat(shaped_tables) if shaped_tables else FlowTable.empty(),
            forwarded_bits=float(bits[forward_mask].sum()),
            dropped_bits=float(bits[drop_mask].sum()),
            shaped_passed_bits=shaped_passed,
            shaped_dropped_bits=shaped_dropped,
            rule_stats=rule_stats,
        )
        self.apply_congestion(result, interval)
        return result

    def apply_congestion(self, result: PortQosResult, interval: float) -> None:
        # Egress queue: forwarded + shaped traffic shares the port capacity;
        # anything beyond it is congestion loss at the member port.
        capacity_bits = self.port_capacity_bps * interval
        delivered = result.forwarded_bits + result.shaped_passed_bits
        if delivered > capacity_bits:
            result.congestion_dropped_bits = delivered - capacity_bits
            overload = capacity_bits / delivered if delivered > 0 else 0.0
            result.forwarded_bits *= overload
            result.shaped_passed_bits *= overload
