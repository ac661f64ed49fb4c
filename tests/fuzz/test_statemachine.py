"""The headline stateful fuzz: rule churn interleaved with delivery.

``RuleStateMachine`` drives two complete fabrics in lockstep through
arbitrary interleavings of ``install`` / ``install_many`` / ``remove`` /
``clear`` and interval deliveries: fabric A runs the fast engines
(batched delivery + indexed classification), fabric B the reference
engines (per-member delivery + per-rule classification).  After every
step Hypothesis checks the machine's invariants:

* both fabrics report bit-for-bit identical interval reports,
* ``rules_version`` increases monotonically, in lockstep, and *only*
  when a mutation actually changed a rule set (no-op removes/clears must
  leave the compiled index and the cached delivery plan warm),
* chassis TCAM usage equals the footprint of the rules actually
  installed (plus the tracked leak of anonymous rules removed per-rule,
  which only ``clear_rules`` can reclaim),
* every SHAPE rule — anonymous ones included — owns a distinct, live
  :class:`RateLimiter` at its configured rate.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from fuzz.strategies import (
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    member_asns_of,
    qos_rules,
    rule_sets,
)
from repro.ixp import FilterAction, TcamExhaustedError

INTERVAL = 10.0

#: Fixed small multi-PoP topology: 2 PoPs x 1 router, 3 members — two
#: members share a router, so per-router TCAM pools see mixed ports.
SPEC = {"pop_count": 2, "routers_per_pop": 1, "member_count": 3, "seed": 7}

MEMBERS = member_asns_of(SPEC)

member_indices = st.integers(0, len(MEMBERS) - 1)


class RuleStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.batched = build_fabric(SPEC, delivery_engine="batched")
        self.fallback = build_fabric(
            SPEC, delivery_engine="per-member", classification_engine="per-rule"
        )
        self.fabrics = (self.batched, self.fallback)
        #: Last observed rules_version per member (monotonicity check).
        self.versions = {asn: 0 for asn in MEMBERS}
        #: TCAM footprint of anonymous rules removed via remove_rule —
        #: per-rule removal cannot release it (no installation record),
        #: only clear_rules can.  Keyed (router_name, port_id); the two
        #: fabrics mirror each other, so one ledger covers both.
        self.leaked = {}
        self.step = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def policies(self, asn):
        return tuple(fabric.port_for_member(asn).qos for fabric in self.fabrics)

    def _snapshot(self, asn):
        """Pre-mutation snapshot: versions, compiled index, cached plan."""
        policy_a, policy_b = self.policies(asn)
        return {
            "versions": (policy_a.rules_version, policy_b.rules_version),
            "index": policy_a.compiled_index(),
            "plan": self.batched.current_delivery_plan(),
        }

    def _check_mutation(self, asn, before, mutated):
        """Caches must invalidate exactly when a mutation took effect."""
        policy_a, policy_b = self.policies(asn)
        va, vb = before["versions"]
        if mutated:
            assert policy_a.rules_version > va
            assert policy_b.rules_version > vb
            assert not before["plan"].is_current(), (
                "cached delivery plan survived a real rule-set change"
            )
            assert policy_a.compiled_index() is not before["index"]
        else:
            assert policy_a.rules_version == va
            assert policy_b.rules_version == vb
            assert before["plan"].is_current(), (
                "no-op mutation spuriously invalidated the delivery plan"
            )
            assert policy_a.compiled_index() is before["index"]

    def _footprint_key(self, asn):
        router = self.batched.router_for_member(asn)
        port = router.port_for(asn)
        return (router.name, port.port_id)

    # ------------------------------------------------------------------
    # Rules (operations)
    # ------------------------------------------------------------------
    @rule(member=member_indices, qos_rule=qos_rules())
    def install(self, member, qos_rule):
        asn = MEMBERS[member]
        before = self._snapshot(asn)
        outcomes = []
        for fabric in self.fabrics:
            try:
                fabric.router_for_member(asn).install_rule(asn, qos_rule)
                outcomes.append(True)
            except TcamExhaustedError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1], "TCAM exhaustion diverged"
        self._check_mutation(asn, before, mutated=outcomes[0])

    @rule(member=member_indices, batch=rule_sets(max_size=6))
    def install_many(self, member, batch):
        asn = MEMBERS[member]
        before = self._snapshot(asn)
        outcomes = []
        for fabric in self.fabrics:
            try:
                fabric.router_for_member(asn).install_rules(asn, batch)
                outcomes.append(len(batch) > 0)
            except TcamExhaustedError:
                # Partial installs still reach the data plane; whether the
                # batch mutated depends on how far allocation got.
                outcomes.append(None)
        assert (outcomes[0] is None) == (outcomes[1] is None)
        if outcomes[0] is not None:
            self._check_mutation(asn, before, mutated=outcomes[0])

    @rule(member=member_indices, pick=st.integers(0, 63))
    def remove_installed(self, member, pick):
        """Remove an id that is really installed (anonymous ones too)."""
        asn = MEMBERS[member]
        policy_a, policy_b = self.policies(asn)
        ids = sorted({r.rule_id for r in policy_a.rules() if r.rule_id})
        if not ids:
            return
        rule_id = ids[pick % len(ids)]
        victim = next(r for r in policy_a.rules() if r.rule_id == rule_id)
        before = self._snapshot(asn)
        if rule_id.startswith("anon-"):
            # No installation record: the router cannot release this
            # footprint on per-rule removal.  Track the leak.
            key = self._footprint_key(asn)
            mac, l3l4 = self.leaked.get(key, (0, 0))
            self.leaked[key] = (
                mac + victim.match.mac_filter_entries,
                l3l4 + victim.match.l3l4_criteria,
            )
        for fabric in self.fabrics:
            assert fabric.router_for_member(asn).remove_rule(asn, rule_id) is True
        assert policy_a.shaper_for(rule_id) is None
        self._check_mutation(asn, before, mutated=True)

    @rule(member=member_indices)
    def remove_missing(self, member):
        """Removing an unknown id must not invalidate anything."""
        asn = MEMBERS[member]
        before = self._snapshot(asn)
        for fabric in self.fabrics:
            assert fabric.router_for_member(asn).remove_rule(asn, "no-such-rule") is False
        self._check_mutation(asn, before, mutated=False)

    @rule(member=member_indices)
    def clear(self, member):
        """clear_rules drops the whole port, reclaiming leaked TCAM."""
        asn = MEMBERS[member]
        policy_a, _ = self.policies(asn)
        had_rules = len(policy_a) > 0
        before = self._snapshot(asn)
        removed = {fabric.router_for_member(asn).clear_rules(asn) for fabric in self.fabrics}
        assert len(removed) == 1
        self.leaked[self._footprint_key(asn)] = (0, 0)
        self._check_mutation(asn, before, mutated=had_rules)
        assert len(policy_a) == 0

    @rule(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 40))
    def deliver(self, seed, n):
        """One interval through both fabrics: reports must be identical."""
        table = build_flow_table(
            seed=seed, n=n, egress_pool=tuple(MEMBERS) + (UNKNOWN_EGRESS_ASN,)
        )
        start = self.step * INTERVAL
        self.step += 1
        report_a = self.batched.deliver(table, INTERVAL, start)
        report_b = self.fallback.deliver(table, INTERVAL, start)
        assert report_a.to_dict() == report_b.to_dict()
        # Delivery compiles (or reuses) the batched plan; it must now be
        # warm and stay warm until the next real mutation.
        assert self.batched.current_delivery_plan().is_current()

    # ------------------------------------------------------------------
    # Invariants (checked after every step)
    # ------------------------------------------------------------------
    @invariant()
    def versions_monotonic_and_lockstep(self):
        for asn in MEMBERS:
            policy_a, policy_b = self.policies(asn)
            assert policy_a.rules_version == policy_b.rules_version, asn
            assert policy_a.rules_version >= self.versions[asn], asn
            self.versions[asn] = policy_a.rules_version

    @invariant()
    def tcam_matches_installed_rules(self):
        for fabric in self.fabrics:
            for router in fabric.edge_routers():
                for port in router.ports():
                    mac = sum(
                        r.match.mac_filter_entries for r in port.qos.rules()
                    )
                    l3l4 = sum(r.match.l3l4_criteria for r in port.qos.rules())
                    leak_mac, leak_l3l4 = self.leaked.get(
                        (router.name, port.port_id), (0, 0)
                    )
                    assert router.tcam.usage_for_port(port.port_id) == (
                        mac + leak_mac,
                        l3l4 + leak_l3l4,
                    ), (fabric.delivery_engine, router.name, port.port_id)

    @invariant()
    def every_shape_rule_has_its_own_shaper(self):
        for asn in MEMBERS:
            for policy in self.policies(asn):
                shape_rules = [
                    r for r in policy.rules() if r.action is FilterAction.SHAPE
                ]
                ids = [r.rule_id for r in shape_rules]
                assert all(ids), "SHAPE rule left without an id"
                assert len(set(ids)) == len(ids), "duplicate SHAPE rule ids"
                shapers = [policy.shaper_for(rule_id) for rule_id in ids]
                assert all(s is not None for s in shapers)
                assert len({id(s) for s in shapers}) == len(shapers), (
                    "SHAPE rules sharing one RateLimiter"
                )
                for shape_rule, shaper in zip(shape_rules, shapers):
                    assert shaper.rate_bps == shape_rule.shape_rate_bps


TestRuleStateMachine = RuleStateMachine.TestCase
