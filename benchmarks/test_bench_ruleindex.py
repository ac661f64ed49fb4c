"""Compiled rule-match index vs. the per-rule pass at paper-claim scale.

The tentpole claim of the rule-match index: classification must stay fast
with *tens of thousands* of fine-grained blackholing rules (Table 1 / §5
of the paper), where the per-rule pass pays one vectorized whole-table
scan per rule — O(rules × flows).

* ``test_bench_indexed_speedup_10k_rules`` installs 12 000 rules in the
  dominant Stellar shape (host dst /32 + UDP + src_port, plus shape rules
  and a MAC fallback sliver) on one port, classifies an identical
  ≥50 000-flow interval with both engines, asserts exact verdict parity
  and at least a 10× indexed speedup, and records the measurement in
  ``BENCH_ruleindex.json``.
* ``test_bench_rule_count_scaling`` prints the speedup curve over the
  rule count (the per-rule pass degrades linearly, the index does not).

Functional parity (verdicts, rule_stats, precedence) is pinned in
``tests/ixp/test_ruleindex.py``; here only the clock differs.
"""

import time

import numpy as np
from bench_utils import print_table, write_bench_json

from repro.core.rules import BlackholingRule
from repro.ixp import PortQosPolicy
from repro.sim.rng import make_rng
from repro.traffic import FlowTable

INTERVAL = 10.0
SEED = 11
VICTIM_ASN = 64500

#: Reflection source ports the fine-grained rules pin.
PORTS = (19, 53, 111, 123, 137, 161, 389, 520, 1900, 11211, 3702, 17185)


def build_policy(rule_count: int, engine: str) -> PortQosPolicy:
    """One port policy loaded with ``rule_count`` fine-grained rules."""
    hosts_needed = (rule_count + len(PORTS) - 1) // len(PORTS)
    hosts = [
        f"10.{1 + (i >> 16)}.{(i >> 8) & 255}.{i & 255}" for i in range(hosts_needed)
    ]
    rules = BlackholingRule.fine_grained_set(
        owner_asn=VICTIM_ASN,
        hosts=hosts,
        source_ports=PORTS,
        count=rule_count,
        shape_every=10,
        shape_rate_bps=5e6,
    )
    policy = PortQosPolicy(port_capacity_bps=100e9, classification_engine=engine)
    policy.install_many([rule.to_qos_rule() for rule in rules])
    return policy


def build_interval(rule_count: int, flow_count: int) -> FlowTable:
    """A ≥``flow_count``-flow interval, half aimed at rule-covered pairs."""
    rng = make_rng(SEED)
    n_targeted = flow_count // 2
    n_background = flow_count - n_targeted
    rule_index = rng.integers(0, rule_count, size=n_targeted)
    host_index = rule_index // len(PORTS)
    dst_targeted = (
        (np.uint32(10) << 24)
        | ((1 + (host_index >> 16)).astype(np.uint32) << 16)
        | (((host_index >> 8) & 255).astype(np.uint32) << 8)
        | (host_index & 255).astype(np.uint32)
    )
    ports = np.asarray(PORTS, dtype=np.int32)
    dst_ip = np.concatenate(
        [dst_targeted, rng.integers(0x0B000000, 0xDF000000, size=n_background)]
    ).astype(np.uint32)
    src_port = np.concatenate(
        [ports[rule_index % len(PORTS)], rng.integers(49152, 65536, size=n_background)]
    ).astype(np.int32)
    protocol = np.concatenate(
        [np.full(n_targeted, 17), rng.choice([6, 17], size=n_background)]
    ).astype(np.uint8)
    n = flow_count
    return FlowTable(
        src_ip=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.uint32),
        dst_ip=dst_ip,
        protocol=protocol,
        src_port=src_port,
        dst_port=rng.integers(1024, 65536, size=n).astype(np.int32),
        start=np.zeros(n),
        duration=np.full(n, INTERVAL),
        bytes=rng.integers(200, 40000, size=n).astype(np.int64),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=np.full(n, 65001, dtype=np.int64),
        egress_asn=np.full(n, VICTIM_ASN, dtype=np.int64),
        is_attack=np.zeros(n, dtype=bool),
    )


def time_classification(
    policy: PortQosPolicy, table: FlowTable, rounds: int = 3, repeats: int = 2
) -> float:
    """Best-of-``repeats`` wall clock of ``rounds`` classification passes.

    Measures the cached steady state — the one-off index compilation is
    absorbed before timing starts (by the parity check in the speedup
    test, or by an explicit warm-up pass), which is what the data plane
    runs every interval; the minimum over repeats discards GC/scheduler
    noise, as in the fabric bench.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            policy.assign_table(table)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_indexed_speedup_10k_rules(benchmark):
    rule_count, flow_count = 12_000, 60_000
    table = build_interval(rule_count, flow_count)
    assert len(table) >= 50_000

    indexed = build_policy(rule_count, "indexed")
    per_rule = build_policy(rule_count, "per-rule")
    assert len(indexed) >= 10_000

    # Verdict-for-verdict parity on the benchmarked interval, first.
    assert np.array_equal(indexed.assign_table(table), per_rule.assign_table(table))

    per_rule_seconds = time_classification(per_rule, table, rounds=1, repeats=2)
    indexed_seconds = time_classification(indexed, table, rounds=1, repeats=2)

    def indexed_pass():
        indexed.assign_table(table)

    benchmark.pedantic(indexed_pass, rounds=1)

    speedup = per_rule_seconds / indexed_seconds
    print_table(
        f"Rule-match index, {rule_count} rules, {len(table)} flows (1 interval)",
        [
            ("engine", "seconds", "speedup"),
            ("per-rule", f"{per_rule_seconds:.3f}", "1.0x"),
            ("indexed", f"{indexed_seconds:.4f}", f"{speedup:.0f}x"),
        ],
    )
    write_bench_json(
        "ruleindex",
        {
            "rule_count": rule_count,
            "flow_count": len(table),
            "per_rule_seconds": per_rule_seconds,
            "indexed_seconds": indexed_seconds,
            "speedup": speedup,
            "index": indexed.compiled_index().describe(),
        },
    )
    assert speedup >= 10.0, (
        f"expected >= 10x indexed speedup at {rule_count} rules, got {speedup:.1f}x"
    )


def test_bench_rule_count_scaling(benchmark):
    counts = (1_000, 3_000, 10_000, 30_000)
    flow_count = 50_000
    points = []
    for rule_count in counts:
        table = build_interval(rule_count, flow_count)
        per_rule_seconds = time_classification(
            build_policy(rule_count, "per-rule"), table, rounds=1, repeats=1
        )
        indexed_seconds = time_classification(
            build_policy(rule_count, "indexed"), table, rounds=2, repeats=2
        ) / 2
        points.append((rule_count, per_rule_seconds, indexed_seconds))

    def indexed_largest():
        policy = build_policy(counts[-1], "indexed")
        policy.assign_table(build_interval(counts[-1], flow_count))

    benchmark.pedantic(indexed_largest, rounds=1)

    rows = [("rules", "per-rule [ms]", "indexed [ms]", "speedup")]
    for rule_count, per_rule_seconds, indexed_seconds in points:
        rows.append(
            (
                str(rule_count),
                f"{per_rule_seconds * 1e3:.1f}",
                f"{indexed_seconds * 1e3:.2f}",
                f"{per_rule_seconds / indexed_seconds:.0f}x",
            )
        )
    print_table(f"Rule-index scaling over rule count ({flow_count} flows)", rows)
    # The per-rule pass is O(rules x flows): at 30x the rules it must cost
    # clearly more on the same interval, while the index keeps a solid
    # lead at the largest count.
    assert points[-1][1] > 3.0 * points[0][1], (
        f"per-rule pass should degrade with rule count "
        f"({points[0][1] * 1e3:.1f} ms at {counts[0]} -> "
        f"{points[-1][1] * 1e3:.1f} ms at {counts[-1]})"
    )
    last_speedup = points[-1][1] / points[-1][2]
    assert last_speedup >= 10.0, (
        f"expected a clear indexed win at {counts[-1]} rules, got {last_speedup:.0f}x"
    )

