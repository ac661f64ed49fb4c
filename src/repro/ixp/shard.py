"""Partitioning the fabric into per-PoP shards for the parallel pipeline.

The natural sharding boundary of a DE-CIX-class platform is the PoP: a
member's port lives in one PoP, egress classification touches only that
port's rules, and :func:`~repro.ixp.topology.build_multi_pop_fabric` can
rebuild any subset of PoPs router-for-router identical to the full
platform (``pop_indices``).  A :class:`ShardPlanner` groups the connected
members by PoP and packs whole PoPs into a requested number of shards;
each :class:`ShardSpec` then describes a self-contained slice of the
platform that one worker process can simulate independently.

Because egress delivery is per-member and members are disjoint across
shards, the per-shard :class:`~repro.ixp.fabric.FabricIntervalReport`\\ s
reduce losslessly into the platform-level report —
:func:`merge_interval_reports` performs that reduction on the canonical
``to_dict()`` payloads, preserving per-member numbers bit-for-bit.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .accounting import ordered_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fabric import SwitchingFabric
    from .member import IxpMember


def pop_index(pop_name: str) -> int:
    """The numeric index of a ``pop-<n>`` label."""
    prefix, _, suffix = pop_name.partition("-")
    if prefix != "pop" or not suffix.isdigit():
        raise ValueError(f"not a pop-<n> label: {pop_name!r}")
    return int(suffix)


@dataclass(frozen=True)
class ShardSpec:
    """One self-contained slice of the platform: whole PoPs plus their members."""

    index: int
    #: PoP labels this shard owns, ascending by numeric index.
    pops: tuple[str, ...]
    #: Member ASNs connected in those PoPs, ascending.
    member_asns: tuple[int, ...]

    @property
    def pop_indices(self) -> tuple[int, ...]:
        """Numeric PoP indices (what ``build_multi_pop_fabric`` consumes)."""
        return tuple(pop_index(name) for name in self.pops)

    def __len__(self) -> int:
        return len(self.member_asns)


class ShardPlanner:
    """Plan a PoP-granular partition of a fabric's member population.

    Shards never split a PoP: the shard-local fabric for a spec is built
    with ``pop_indices=spec.pop_indices`` and is router-for-router
    identical to those PoPs of the full platform, so per-member placement
    and QoS behaviour cannot depend on which shard a PoP landed in.
    """

    def __init__(self, units: Mapping[str, Sequence[int]]) -> None:
        #: pop label -> ascending member ASNs (empty PoPs allowed).
        self._units: "OrderedDict[str, tuple[int, ...]]" = OrderedDict()
        for pop in sorted(units, key=pop_index):
            self._units[pop] = tuple(sorted(units[pop]))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_fabric(cls, fabric: "SwitchingFabric") -> "ShardPlanner":
        """Plan from a live fabric's actual router placement."""
        units: dict[str, list[int]] = {
            router.pop: [] for router in fabric.edge_routers()
        }
        for member in fabric.members():
            units[fabric.router_for_member(member.asn).pop].append(member.asn)
        return cls(units)

    @classmethod
    def for_members(cls, members: Iterable["IxpMember"], pop_count: int) -> "ShardPlanner":
        """Plan from member PoP assignments, without building a fabric.

        Valid whenever every PoP has at least one router (the
        ``build_multi_pop_fabric`` invariant), in which case
        ``connect_member`` always places a member in its declared PoP and
        this plan equals :meth:`for_fabric` of the built platform.
        """
        units: dict[str, list[int]] = {
            f"pop-{index}": [] for index in range(1, pop_count + 1)
        }
        for member in members:
            if member.pop not in units:
                raise ValueError(
                    f"member AS{member.asn} declares {member.pop!r}, outside "
                    f"1..{pop_count}"
                )
            units[member.pop].append(member.asn)
        return cls(units)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def pop_count(self) -> int:
        return len(self._units)

    @property
    def member_count(self) -> int:
        return sum(len(asns) for asns in self._units.values())

    def plan(self, shard_count: int | None = None) -> list[ShardSpec]:
        """Pack the non-empty PoPs into at most ``shard_count`` shards.

        Defaults to one shard per non-empty PoP.  Fewer shards than PoPs
        packs whole PoPs with a deterministic longest-processing-time
        heuristic (largest PoP first into the currently lightest shard),
        so shard sizes stay balanced without ever splitting a PoP.  Empty
        PoPs contribute nothing; an entirely empty fabric plans to zero
        shards.
        """
        occupied = [(pop, asns) for pop, asns in self._units.items() if asns]
        if not occupied:
            return []
        if shard_count is None:
            shard_count = len(occupied)
        if shard_count < 1:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        bins = min(shard_count, len(occupied))
        # Largest PoP first; ties broken by PoP index so the packing is a
        # pure function of the membership.
        ordered = sorted(
            occupied, key=lambda unit: (-len(unit[1]), pop_index(unit[0]))
        )
        assigned: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(bins)]
        loads = [0] * bins
        for pop, asns in ordered:
            target = min(range(bins), key=lambda b: (loads[b], b))
            assigned[target].append((pop, asns))
            loads[target] += len(asns)
        # Present shards in platform order (by their lowest PoP index).
        assigned.sort(key=lambda units: min(pop_index(pop) for pop, _ in units))
        return [
            ShardSpec(
                index=shard_index,
                pops=tuple(sorted((pop for pop, _ in units), key=pop_index)),
                member_asns=tuple(
                    sorted(asn for _, asns in units for asn in asns)
                ),
            )
            for shard_index, units in enumerate(assigned)
        ]


class ShardLookup:
    """Prebuilt ASN→shard resolution over a plan.

    Building the dict walks the plan once; every lookup after that is a
    plain dict hit.  Anything resolving members repeatedly — per member at
    city scale — should hold one of these instead of re-scanning the plan
    through :func:`shard_for_member`.
    """

    def __init__(self, plan: Sequence[ShardSpec]) -> None:
        self._by_asn: dict[int, ShardSpec] = {
            asn: spec for spec in plan for asn in spec.member_asns
        }

    def __getitem__(self, member_asn: int) -> ShardSpec:
        try:
            return self._by_asn[member_asn]
        except KeyError:
            raise KeyError(f"AS{member_asn} is in no shard of the plan") from None

    def __contains__(self, member_asn: int) -> bool:
        return member_asn in self._by_asn

    def __len__(self) -> int:
        return len(self._by_asn)


def shard_for_member(plan: Sequence[ShardSpec], member_asn: int) -> ShardSpec:
    """The shard owning ``member_asn`` (exactly one, by construction).

    One-off convenience over :class:`ShardLookup`; loops should build the
    lookup once rather than pay the plan walk per call.
    """
    return ShardLookup(plan)[member_asn]


def merge_interval_reports(reports: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Reduce per-shard ``FabricIntervalReport.to_dict()`` payloads.

    Shards partition the member set, so the per-member sections are
    disjoint and merge by union — every member's numbers are bit-for-bit
    what a single-process fabric computes for that member.  The platform
    totals are float sums accumulated in ascending shard order: a fixed,
    deterministic order, so the serial oracle (same shards, same merge,
    no processes) reproduces them exactly at any worker count.
    """
    if not reports:
        raise ValueError("need at least one shard report to merge")
    first = reports[0]
    merged: dict[str, Any] = {
        "interval_start": first["interval_start"],
        "interval": first["interval"],
        "offered_bits": 0.0,
        "delivered_bits": 0.0,
        "filtered_bits": 0.0,
        "congestion_dropped_bits": 0.0,
    }
    members: dict[str, Mapping[str, Any]] = {}
    for report in reports:
        if (
            report["interval_start"] != merged["interval_start"]
            or report["interval"] != merged["interval"]
        ):
            raise ValueError("shard reports describe different intervals")
        for key in (
            "offered_bits",
            "delivered_bits",
            "filtered_bits",
            "congestion_dropped_bits",
        ):
            merged[key] += report[key]
        overlap = members.keys() & report["members"].keys()
        if overlap:
            raise ValueError(f"member(s) {sorted(overlap)} appear in multiple shards")
        members.update(report["members"])
    merged["members"] = {asn: members[asn] for asn in sorted(members, key=int)}
    return merged


#: Platform-total keys, in the order both merge functions accumulate them.
_TOTAL_KEYS = (
    "offered_bits",
    "delivered_bits",
    "filtered_bits",
    "congestion_dropped_bits",
)


def merge_interval_columns(payloads: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Reduce per-shard ``FabricIntervalReport.to_columns()`` payloads.

    The columnar counterpart of :func:`merge_interval_reports`: per-member
    accounting arrives as parallel numpy arrays per shard and merges with
    one concatenation + stable argsort over the ASN column instead of
    O(members) per-member dict copies.  Numbers are bit-for-bit what the
    dict merge produces — totals are float sums in ascending shard order
    (the fixed order that makes the serial oracle reproduce them at any
    worker count), member rows are disjoint across shards (checked) and
    merely reordered.
    """
    if not payloads:
        raise ValueError("need at least one shard report to merge")
    first = payloads[0]
    for payload in payloads:
        if (
            payload["interval_start"] != first["interval_start"]
            or payload["interval"] != first["interval"]
        ):
            raise ValueError("shard reports describe different intervals")
    totals = {
        key: ordered_sum(payload["totals"][key] for payload in payloads)
        for key in _TOTAL_KEYS
    }
    asns = np.concatenate([payload["member_asns"] for payload in payloads])
    order = np.argsort(asns, kind="stable")
    sorted_asns = asns[order]
    if len(sorted_asns) > 1:
        duplicates = sorted_asns[1:][sorted_asns[1:] == sorted_asns[:-1]]
        if len(duplicates):
            raise ValueError(
                "member(s) "
                f"{sorted(set(int(asn) for asn in duplicates))} "
                "appear in multiple shards"
            )
    member_fields = {
        name: np.concatenate(
            [payload["member_fields"][name] for payload in payloads]
        )[order]
        for name in first["member_fields"]
    }
    rule_stats: dict[str, Any] = {}
    for payload in payloads:
        rule_stats.update(payload["rule_stats"])
    return {
        "interval_start": first["interval_start"],
        "interval": first["interval"],
        "totals": totals,
        "member_asns": sorted_asns,
        "member_fields": member_fields,
        "rule_stats": rule_stats,
    }


def columns_to_report_dict(columns: Mapping[str, Any]) -> dict[str, Any]:
    """Convert a columnar (merged) payload back to the ``to_dict()`` shape.

    Bit-for-bit: float64 array values round-trip exactly through
    ``tolist``, so converting the columnar merge of shard payloads equals
    :func:`merge_interval_reports` over the same shards'
    ``to_dict()`` payloads — the parity bridge the shard tests pin, and
    what the city-scale experiment digests.
    """
    asns = columns["member_asns"].tolist()
    fields = {name: array.tolist() for name, array in columns["member_fields"].items()}
    rule_stats = columns["rule_stats"]
    members = {}
    for row, asn in enumerate(asns):
        key = str(asn)
        member = {name: values[row] for name, values in fields.items()}
        member["rule_stats"] = rule_stats.get(key, {})
        members[key] = member
    return {
        "interval_start": columns["interval_start"],
        "interval": columns["interval"],
        **{key: columns["totals"][key] for key in _TOTAL_KEYS},
        "members": members,
    }
