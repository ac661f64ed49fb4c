"""Composable Hypothesis strategies for the data-plane fuzz suite.

One source of truth for generated rules, flow tables and topologies.  The
design constraint throughout is *collision density*: rules and flows draw
from the same small pools of hosts, ports, prefixes and ingress members,
so arbitrary examples actually exercise matches, precedence ties,
shadowing and shaper grouping instead of classifying everything as
FORWARD.

Three layers:

* **Scalar strategies** (``l4_ports``, ``shaping_rates``,
  ``tcam_allocation_sequences`` …) — shared with the unit-test suites that
  previously defined them inline (``tests/sim/test_rng.py``,
  ``tests/ixp/test_queues_and_tcam.py``,
  ``tests/core/test_rules_and_codec.py``).
* **Rule / table strategies** — ``flow_matches`` spans every signature
  group of :mod:`repro.ixp.ruleindex` (exact host /32 shapes, broad
  prefixes, MAC filters, dst-port-only, catch-alls, and the >64-bit
  packed-key overflow combination); ``qos_rules`` adds actions including
  anonymous SHAPE rules; ``flow_tables`` builds seeded columnar intervals
  whose rows straddle the rule pools (empty and single-flow tables
  included).
* **Topology strategies** — ``fabric_specs`` describes small multi-PoP
  fabrics; :func:`build_fabric` materialises one per delivery engine so
  parity tests can run the same spec on both engines in lockstep.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np
from hypothesis import strategies as st

from repro.bgp import Prefix
from repro.ixp import (
    FilterAction,
    FlowMatch,
    QosRule,
    SwitchingFabric,
    build_multi_pop_fabric,
    make_member_population,
)
from repro.sim.rng import make_rng
from repro.traffic import FlowTable
from repro.traffic.flowtable import derived_mac, ip_to_int
from repro.traffic.packet import IpProtocol

# ----------------------------------------------------------------------
# Scalar strategies (shared with the unit suites)
# ----------------------------------------------------------------------
#: Valid L4 port numbers (full range, as the community codec must accept).
l4_ports = st.integers(min_value=0, max_value=65535)

#: The L4 protocols the Stellar codec encodes port selectors for.
l4_protocols = st.sampled_from([IpProtocol.UDP, IpProtocol.TCP])

#: Batch sizes for vectorized RNG draws.
draw_sizes = st.integers(min_value=1, max_value=500)

#: Token-bucket consumption sequences (one consume attempt per element).
token_amount_sequences = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30
)

#: Token-bucket long-term rates and burst capacities.
token_rates = st.floats(min_value=0.5, max_value=10.0)
token_bursts = st.floats(min_value=1.0, max_value=20.0)

#: Flow-level shaping: offered volumes, shaping rates, interval lengths.
offered_volumes = st.floats(min_value=0.0, max_value=1e9)
shaping_rates = st.floats(min_value=1.0, max_value=1e8)
shaping_intervals = st.floats(min_value=0.1, max_value=100.0)

#: TCAM allocation sequences: one (mac_filters, l3l4_criteria) per port.
tcam_allocation_sequences = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=50
)

# ----------------------------------------------------------------------
# The shared data-plane universe
# ----------------------------------------------------------------------
#: Victim-side host pool; rules and flows both draw from it so generated
#: intervals straddle rule boundaries (some rows hit, some just miss).
HOSTS: tuple[str, ...] = tuple(f"10.1.0.{i}" for i in range(8)) + ("10.2.0.1",)

#: Reflection/attack service ports (paper Table 2 vectors) plus one
#: ephemeral port, shared by rule matches and flow draws.
PORT_POOL: tuple[int, ...] = (19, 53, 123, 11211, 50000)

#: Ingress (attacking peer) member ASNs; MAC-filter rules key off the
#: generator's derived-MAC convention for exactly these.
INGRESS_ASNS: tuple[int, ...] = (65001, 65002, 65003)

#: Broader prefixes covering (parts of) the host pool.
BROAD_PREFIXES: tuple[str, ...] = ("10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/24")

#: Named rule-id pool — deliberately small so generated sets contain
#: same-id replacements and same-match precedence ties.
RULE_IDS: tuple[str, ...] = tuple(f"rule-{i}" for i in range(12))

hosts = st.sampled_from(HOSTS)
pool_ports = st.sampled_from(PORT_POOL)
ingress_asns = st.sampled_from(INGRESS_ASNS)
shape_rate_pool = st.sampled_from([5e5, 2e6, 1e7, 5e7])


# ----------------------------------------------------------------------
# FlowMatch strategies — one arm per rule-index signature group
# ----------------------------------------------------------------------
@st.composite
def flow_matches(draw) -> FlowMatch:
    """A match spanning every signature kind the rule index compiles."""
    kind = draw(
        st.sampled_from(
            [
                "host_exact",      # dominant Stellar shape: dst /32 + proto + sport
                "host_dst_port",   # exact group with a different field set
                "src_host",        # src /32 equality
                "broad_prefix",    # masked fallback group
                "mac",             # MAC filter -> fallback
                "dst_port_only",   # exact single-field group
                "catch_all",       # empty match -> fallback
                "overflow",        # packed key > 64 bits -> fallback
            ]
        )
    )
    if kind == "host_exact":
        return FlowMatch(
            dst_prefix=Prefix.parse(f"{draw(hosts)}/32"),
            protocol=draw(l4_protocols),
            src_port=draw(pool_ports),
        )
    if kind == "host_dst_port":
        return FlowMatch(
            dst_prefix=Prefix.parse(f"{draw(hosts)}/32"),
            protocol=draw(l4_protocols),
            dst_port=draw(pool_ports),
        )
    if kind == "src_host":
        return FlowMatch(
            src_prefix=Prefix.parse(f"{draw(hosts)}/32"),
            protocol=draw(l4_protocols),
        )
    if kind == "broad_prefix":
        return FlowMatch(
            dst_prefix=Prefix.parse(draw(st.sampled_from(BROAD_PREFIXES))),
            src_port=draw(st.none() | pool_ports),
        )
    if kind == "mac":
        return FlowMatch(
            dst_prefix=draw(
                st.none() | st.just(Prefix.parse("10.1.0.0/16"))
            ),
            src_mac=derived_mac(draw(ingress_asns)),
        )
    if kind == "dst_port_only":
        return FlowMatch(dst_port=draw(pool_ports))
    if kind == "overflow":
        return FlowMatch(
            dst_prefix=Prefix.parse(f"{draw(hosts)}/32"),
            src_prefix=Prefix.parse(f"{draw(hosts)}/32"),
            protocol=draw(l4_protocols),
            src_port=draw(pool_ports),
            dst_port=draw(pool_ports),
        )
    return FlowMatch()  # catch_all


@st.composite
def qos_rules(draw) -> QosRule:
    """One classification rule: generated match + action (+ shaping rate).

    SHAPE rules are anonymous (empty id) about a third of the time, so the
    policy's synthetic ``anon-<n>`` id machinery — and the independence of
    the per-rule shapers behind it — is constantly under test.
    """
    match = draw(flow_matches())
    action = draw(
        st.sampled_from([FilterAction.DROP, FilterAction.SHAPE, FilterAction.FORWARD])
    )
    if action is FilterAction.SHAPE:
        anonymous = draw(st.sampled_from([True, False, False]))
        return QosRule(
            match=match,
            action=FilterAction.SHAPE,
            shape_rate_bps=draw(shape_rate_pool),
            rule_id="" if anonymous else draw(st.sampled_from(RULE_IDS)),
        )
    # An empty id on DROP/FORWARD stays anonymous (rule_stats key "").
    rule_id = draw(st.sampled_from(RULE_IDS + ("",)))
    return QosRule(match=match, action=action, rule_id=rule_id)


def rule_sets(min_size: int = 0, max_size: int = 16):
    """A rule batch; small id pool => replacements and precedence ties."""
    return st.lists(qos_rules(), min_size=min_size, max_size=max_size)


# ----------------------------------------------------------------------
# FlowTable strategies
# ----------------------------------------------------------------------
def build_flow_table(
    seed: int,
    n: int,
    egress_pool: Sequence[int] = (64500,),
    in_pool_fraction: float = 0.7,
) -> FlowTable:
    """A deterministic seeded interval over the shared universe.

    ``in_pool_fraction`` of the rows target pool hosts / pool ports (so
    they can hit generated rules); the rest draw random addresses and
    ephemeral ports, straddling every rule's boundary.
    """
    rng = make_rng(seed)
    host_ints = np.array([ip_to_int(host) for host in HOSTS], dtype=np.uint32)
    in_pool = rng.random(n) < in_pool_fraction
    dst = np.where(
        in_pool,
        rng.choice(host_ints, size=n),
        rng.integers(0x0B000000, 0xDF000000, size=n),
    )
    src = np.where(
        rng.random(n) < 0.3,
        rng.choice(host_ints, size=n),
        rng.integers(0x0B000000, 0xDF000000, size=n),
    )
    src_port = np.where(
        rng.random(n) < 0.7,
        rng.choice(np.array(PORT_POOL, dtype=np.int64), size=n),
        rng.integers(1024, 65536, size=n),
    )
    dst_port = np.where(
        rng.random(n) < 0.4,
        rng.choice(np.array(PORT_POOL, dtype=np.int64), size=n),
        rng.integers(1024, 65536, size=n),
    )
    egress_values = np.fromiter(egress_pool, dtype=np.int64, count=len(egress_pool))
    return FlowTable(
        src_ip=src.astype(np.uint32),
        dst_ip=dst.astype(np.uint32),
        protocol=rng.choice([6, 17], size=n).astype(np.uint8),
        src_port=src_port.astype(np.int32),
        dst_port=dst_port.astype(np.int32),
        start=np.zeros(n),
        duration=np.full(n, 10.0),
        bytes=rng.integers(64, 20000, size=n).astype(np.int64),
        packets=rng.integers(1, 20, size=n).astype(np.int64),
        ingress_asn=rng.choice(np.array(INGRESS_ASNS, dtype=np.int64), size=n),
        egress_asn=rng.choice(egress_values, size=n),
        is_attack=rng.random(n) < 0.5,
    )


@st.composite
def flow_tables(
    draw,
    min_rows: int = 0,
    max_rows: int = 80,
    egress_pool: Sequence[int] = (64500,),
) -> FlowTable:
    """A seeded interval table; shrinks towards empty and single-flow."""
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    in_pool_fraction = draw(st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    return build_flow_table(
        seed=seed, n=n, egress_pool=egress_pool, in_pool_fraction=in_pool_fraction
    )


# ----------------------------------------------------------------------
# Control-plane churn-request strategies
# ----------------------------------------------------------------------
#: Every operation the control-plane service accepts.
CHURN_OPS: tuple[str, ...] = (
    "install",
    "install_many",
    "remove",
    "clear",
    "telemetry",
)

#: Inter-arrival gaps (seconds) between churn requests.  Mostly dense —
#: several requests inside one budget window so coalescing and budget
#: accounting actually trigger — with occasional jumps past a window
#: boundary.
arrival_gaps = st.sampled_from([0.0, 0.05, 0.2, 1.0, 2.5, 12.0])


@st.composite
def churn_requests(draw, member_indices: int = 8) -> dict:
    """One control-plane request descriptor.

    ``{"member_index", "op", "rules", "rule_id", "arrival_gap"}`` —
    the member index is modded into whatever member pool the consumer
    drives, the arrival gap is relative to the previous request (so a
    stream's absolute arrival times are its running sum).  Removes draw
    from the same small ``RULE_IDS`` pool the generated rules use, so a
    stream contains both real removals and no-op removals of ids that
    were never (or no longer) installed.
    """
    op = draw(st.sampled_from(CHURN_OPS))
    descriptor: dict = {
        "member_index": draw(st.integers(0, member_indices - 1)),
        "op": op,
        "arrival_gap": draw(arrival_gaps),
    }
    if op == "install":
        descriptor["rules"] = (draw(qos_rules()),)
    elif op == "install_many":
        descriptor["rules"] = tuple(draw(rule_sets(min_size=1, max_size=5)))
    elif op == "remove":
        descriptor["rule_id"] = draw(st.sampled_from(RULE_IDS + ("no-such-rule",)))
    return descriptor


def churn_request_streams(min_size: int = 0, max_size: int = 10):
    """A burst of service requests submitted before one drain."""
    return st.lists(churn_requests(), min_size=min_size, max_size=max_size)


# ----------------------------------------------------------------------
# Topology strategies
# ----------------------------------------------------------------------
#: Base ASN of generated member populations (egress side of the fabric).
MEMBER_BASE_ASN = 64500

#: An ASN no generated fabric ever connects — flows sent there must be
#: ignored by both delivery engines and excluded from IPFIX export.
UNKNOWN_EGRESS_ASN = 63999


@st.composite
def fabric_specs(draw) -> dict:
    """A small multi-PoP topology description (build it per engine).

    ``port_capacities`` may shrink members' ports to a few kbit/s so the
    generated intervals congest them (``None`` keeps the drawn capacity):
    parity then covers egress congestion on ports with and without rules.
    """
    pop_count = draw(st.integers(min_value=1, max_value=2))
    member_count = draw(st.integers(min_value=2, max_value=5))
    return {
        "pop_count": pop_count,
        "routers_per_pop": draw(st.integers(min_value=1, max_value=2)),
        "member_count": member_count,
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "port_capacities": draw(
            st.lists(
                st.sampled_from([None, 1e4, 1e5]),
                min_size=member_count,
                max_size=member_count,
            )
        ),
    }


def member_asns_of(spec: dict) -> list[int]:
    """The member ASNs :func:`build_fabric` connects for a spec."""
    return [MEMBER_BASE_ASN + index for index in range(spec["member_count"])]


def build_fabric(
    spec: dict,
    delivery_engine: str = "batched",
    classification_engine: Optional[str] = None,
) -> SwitchingFabric:
    """Materialise one spec as a live fabric (deterministic per spec)."""
    fabric = build_multi_pop_fabric(
        pop_count=spec["pop_count"],
        routers_per_pop=spec["routers_per_pop"],
        name="fuzz-ixp",
        delivery_engine=delivery_engine,
        seed=spec["seed"],
    )
    members = make_member_population(
        spec["member_count"],
        pop_count=spec["pop_count"],
        base_asn=MEMBER_BASE_ASN,
        seed=spec["seed"],
    )
    capacities = spec.get("port_capacities") or [None] * len(members)
    for member, capacity in zip(members, capacities):
        if capacity is not None:
            member.port_capacity_bps = capacity
        fabric.connect_member(member)
    if classification_engine is not None:
        fabric.set_classification_engine(classification_engine)
    return fabric
