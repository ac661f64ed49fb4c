"""Batched fabric delivery vs. the per-member loop at platform scale.

The tentpole claim of the single-pass delivery engine: at DE-CIX-class
member counts the per-member loop pays O(members × flows) in Python per
interval, while :class:`~repro.ixp.delivery.FabricDeliveryPlan` runs one
platform-level group-by + classification pass.

* ``test_bench_batched_speedup_240_members`` delivers identical intervals
  (~30k flows, 240 members across 4 PoPs / 8 edge routers, drop + shape
  rules on the victim port) through both engines and asserts the batched
  engine is at least 5× faster.
* ``test_bench_member_count_scaling`` prints the speedup curve over the
  member count (the per-member loop degrades linearly, the plan does not).
* ``test_bench_churn_shaped_interval`` is the ``rule_churn`` shape: a few
  thousand members, rules on ~1 % of the ports.  It records both
  engines' times in ``BENCH_fabric_churn.json`` without a timing floor,
  and asserts parity and that delivery builds a per-member result only
  for the ports that carry rules.

Both engines are parity-tested in ``tests/ixp/test_fabric_delivery.py``;
here only the clock differs.
"""

import time

from bench_utils import print_table, write_bench_json

from repro.bgp import Prefix
from repro.ixp import (
    FilterAction,
    FlowMatch,
    IxpMember,
    PortQosResult,
    QosRule,
    build_multi_pop_fabric,
    make_member_population,
)
from repro.traffic import BooterAttack, FlowTable, IxpTraceGenerator

VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"
INTERVAL = 10.0
SEED = 5


def build_fabric(member_count: int):
    """A 4-PoP / 8-router fabric with rules on the victim port."""
    fabric = build_multi_pop_fabric(pop_count=4, routers_per_pop=2, seed=SEED)
    victim = IxpMember(asn=VICTIM_ASN, port_capacity_bps=10e9, pop="pop-1")
    members = make_member_population(member_count - 1, pop_count=4, seed=SEED)
    fabric.connect_member(victim)
    for member in members:
        fabric.connect_member(member)
    router = fabric.router_for_member(VICTIM_ASN)
    router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=123),
            action=FilterAction.DROP,
            rule_id="drop-ntp",
        ),
    )
    router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=53),
            action=FilterAction.SHAPE,
            shape_rate_bps=1e6,
            rule_id="shape-dns",
        ),
    )
    return fabric, [victim, *members]


def build_interval(members, flows_per_interval: int = 30_000) -> FlowTable:
    """One observation interval: booter attack + platform background mesh."""
    member_asns = [member.asn for member in members]
    attack = BooterAttack(
        victim_ip=VICTIM_IP,
        victim_member_asn=VICTIM_ASN,
        peer_member_asns=member_asns[1:61],
        peak_rate_bps=40e9,
        start=0.0,
        duration=120.0,
        seed=SEED,
    )
    background = IxpTraceGenerator(
        member_asns=member_asns,
        duration=INTERVAL,
        interval=INTERVAL,
        regular_rate_bps=1e12,
        flows_per_interval=flows_per_interval,
        seed=SEED + 1,
    )
    return FlowTable.concat(
        [attack.flow_table(30.0, INTERVAL), background.interval_table(30.0)]
    )


def time_engine(
    member_count: int, engine: str, table: FlowTable, rounds: int = 3, repeats: int = 2
):
    """Best-of-``repeats`` wall clock of ``rounds`` intervals, fresh fabric each.

    The minimum over repeats is the standard microbenchmark estimator:
    it discards GC pauses and scheduler noise that would otherwise make
    the speedup assertions flaky on loaded CI runners.
    """
    best = float("inf")
    for _ in range(repeats):
        fabric, _ = build_fabric(member_count)
        start = time.perf_counter()
        for step in range(rounds):
            fabric.deliver(table, INTERVAL, step * INTERVAL, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_batched_speedup_240_members(benchmark):
    member_count = 240
    _, members = build_fabric(member_count)
    table = build_interval(members)
    assert len(table) >= 25_000, f"interval has only {len(table)} flows"

    per_member_seconds = time_engine(member_count, "per-member", table)
    batched_seconds = time_engine(member_count, "batched", table)

    fabric, _ = build_fabric(member_count)

    def batched_pass():
        fabric.deliver(table, INTERVAL, 0.0, engine="batched")

    benchmark.pedantic(batched_pass, rounds=1)

    speedup = per_member_seconds / batched_seconds
    print_table(
        f"Fabric delivery, {member_count} members, {len(table)} flows (3 intervals)",
        [
            ("engine", "seconds", "speedup"),
            ("per-member", f"{per_member_seconds:.3f}", "1.0x"),
            ("batched", f"{batched_seconds:.3f}", f"{speedup:.1f}x"),
        ],
    )
    write_bench_json(
        "fabric",
        {
            "member_count": member_count,
            "flow_count": len(table),
            "intervals": 3,
            "per_member_seconds": per_member_seconds,
            "batched_seconds": batched_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0, (
        f"expected >= 5x batched speedup at {member_count} members, "
        f"got {speedup:.1f}x"
    )


def test_bench_member_count_scaling(benchmark):
    counts = (60, 120, 240, 480)
    points = []
    for member_count in counts:
        _, members = build_fabric(member_count)
        table = build_interval(members, flows_per_interval=20_000)
        per_member_seconds = time_engine(member_count, "per-member", table, rounds=1)
        batched_seconds = time_engine(member_count, "batched", table, rounds=1)
        points.append((member_count, len(table), per_member_seconds, batched_seconds))

    def batched_sweep():
        for member_count, _, _, _ in points[-1:]:
            fabric, members = build_fabric(member_count)
            fabric.deliver(
                build_interval(members, flows_per_interval=20_000),
                INTERVAL,
                0.0,
                engine="batched",
            )

    benchmark.pedantic(batched_sweep, rounds=1)

    rows = [("members", "flows", "per-member [ms]", "batched [ms]", "speedup")]
    for member_count, flows, per_member_seconds, batched_seconds in points:
        rows.append(
            (
                str(member_count),
                str(flows),
                f"{per_member_seconds * 1e3:.1f}",
                f"{batched_seconds * 1e3:.1f}",
                f"{per_member_seconds / batched_seconds:.1f}x",
            )
        )
    print_table("Fabric delivery scaling over member count", rows)
    # The per-member loop pays O(members × flows): at 8× the members it
    # must cost clearly more on the same-sized interval (1.5× leaves room
    # for timer noise on loaded runners; the typical ratio is ~4×), while
    # the batched engine keeps a solid lead at the largest count.
    assert points[-1][2] > 1.5 * points[0][2], (
        f"per-member loop should degrade with member count "
        f"({points[0][2] * 1e3:.1f} ms at {counts[0]} -> "
        f"{points[-1][2] * 1e3:.1f} ms at {counts[-1]})"
    )
    last_speedup = points[-1][2] / points[-1][3]
    assert last_speedup >= 3.0, (
        f"expected a clear batched win at {counts[-1]} members, got {last_speedup:.1f}x"
    )


CHURN_MEMBERS = 3000
CHURN_RULED_PORTS = 30


def build_churn_fabric(engine: str):
    """``CHURN_MEMBERS`` members, a drop rule on every 100th port."""
    fabric = build_multi_pop_fabric(
        pop_count=4,
        routers_per_pop=3,
        seed=SEED,
        delivery_engine=engine,
        collect_ipfix=False,
        retain_reports=False,
        retain_history=False,
    )
    members = make_member_population(CHURN_MEMBERS, pop_count=4, seed=SEED)
    for member in members:
        fabric.connect_member(member)
    ruled = [member.asn for member in members[:: CHURN_MEMBERS // CHURN_RULED_PORTS]]
    for asn in ruled:
        fabric.router_for_member(asn).install_rule(
            asn,
            QosRule(
                match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id=f"drop-{asn}"
            ),
        )
    return fabric, members, ruled


def test_bench_churn_shaped_interval(monkeypatch):
    fabric_batched, members, ruled = build_churn_fabric("batched")
    fabric_fallback, _, _ = build_churn_fabric("per-member")
    background = IxpTraceGenerator(
        member_asns=[member.asn for member in members],
        duration=3 * INTERVAL,
        interval=INTERVAL,
        regular_rate_bps=1e12,
        flows_per_interval=20_000,
        seed=SEED,
    )
    tables = [table for _, table in background.iter_interval_tables()]

    built = []
    build = PortQosResult.__init__

    def counting_build(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(PortQosResult, "__init__", counting_build)
    seconds = {"batched": 0.0, "per-member": 0.0}
    members_delivered = 0
    for step, table in enumerate(tables):
        built.clear()
        start = time.perf_counter()
        report = fabric_batched.deliver(table, INTERVAL, step * INTERVAL)
        seconds["batched"] += time.perf_counter() - start
        members_delivered += len(report.results_by_member)
        ruled_with_traffic = set(ruled) & set(report.member_asns.tolist())
        assert ruled_with_traffic, "no port with rules got traffic"
        assert len(built) == len(ruled_with_traffic), (
            f"delivery built {len(built)} per-member results for "
            f"{len(ruled_with_traffic)} ports with rules"
        )
        start = time.perf_counter()
        expected = fabric_fallback.deliver(table, INTERVAL, step * INTERVAL)
        seconds["per-member"] += time.perf_counter() - start
        assert report.to_dict() == expected.to_dict(), f"interval {step}"

    speedup = seconds["per-member"] / seconds["batched"]
    print_table(
        f"Churn-shaped delivery, {CHURN_MEMBERS} members, rules on "
        f"{CHURN_RULED_PORTS} ports ({len(tables)} intervals)",
        [
            ("engine", "seconds", "speedup"),
            ("per-member", f"{seconds['per-member']:.3f}", "1.0x"),
            ("batched", f"{seconds['batched']:.3f}", f"{speedup:.1f}x"),
        ],
    )
    write_bench_json(
        "fabric_churn",
        {
            "member_count": CHURN_MEMBERS,
            "ruled_ports": CHURN_RULED_PORTS,
            "intervals": len(tables),
            "flows_per_interval": len(tables[0]),
            "members_delivered": members_delivered,
            "per_member_seconds": seconds["per-member"],
            "batched_seconds": seconds["batched"],
            "speedup": speedup,
        },
    )
