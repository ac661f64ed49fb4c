"""Stateful lockstep fuzz of the control-plane service vs the portal.

One Hypothesis state machine drives the *async* :class:`ControlPlaneService`
(coalescing on, tight queue depth, small per-member budget) on fabric A
while mirroring every change it actually applied onto fabric B through the
synchronous :class:`ScriptedPortal`, one rule at a time.  After every burst
the machine fully drains the service, replays the new request-log entries
on B in the order the service applied them, and asserts:

* both fabrics hold **identical rule state** per member (same rules, same
  order, same ids) — batching is an amortization, never a semantic change;
* delivering the same flow table to both fabrics yields **identical
  reports** (A runs the batched/indexed engines, B the per-member/per-rule
  fallbacks, so this doubles as cross-engine parity);
* ``rules_version`` is **monotonic** on both sides;
* the per-member, per-window **budget is never exceeded** by accepted
  operations, and every rejection carries an actionable ``retry_after``;
* every install **response matches the rule state** it left behind: B
  replays each drained batch request by request, one rule at a time,
  stopping where the service's batch stopped.  An ``applied`` request's
  rules are all installed after its replay; an ``error`` request is the
  one the TCAM ran out in (its failing rule is absent) or one queued
  behind it in the same batch (never attempted).

The tight knobs (``max_queue_depth=16``, one op/second member budget) make
generated bursts actually hit the backpressure and budget paths instead of
only the happy path.  ``SmallTcamServiceStateMachine`` reruns the machine
on routers with room for a handful of rules, so coalesced batches
regularly run out of TCAM part-way.
"""

import asyncio
from dataclasses import replace

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ixp import ControlPlaneService, ScriptedPortal, TcamExhaustedError, TcamModel

from .strategies import (
    UNKNOWN_EGRESS_ASN,
    build_flow_table,
    churn_request_streams,
    member_asns_of,
)
from .strategies import build_fabric

SPEC = {"pop_count": 2, "routers_per_pop": 1, "member_count": 3, "seed": 11}
MEMBERS = member_asns_of(SPEC)
INTERVAL = 10.0

#: Per-member budget: 1 op/s over a 10 s window = 10 ops per window.
MEMBER_RATE = 1.0
BUDGET_WINDOW = 10.0
MAX_QUEUE_DEPTH = 16
_EPS = 1e-9


def holds(rules, rule):
    """Whether ``rule`` is among the installed ``rules``.

    Anonymous SHAPE rules are installed under a synthetic ``anon-<n>``
    id, so an anonymous rule matches any installed rule equal to it
    apart from the id.
    """
    if rule in rules:
        return True
    return not rule.rule_id and any(replace(held, rule_id="") == rule for held in rules)


class ServiceStateMachine(RuleBasedStateMachine):
    #: ``(mac_filter_capacity, l3l4_criteria_capacity)`` of every edge
    #: router, or ``None`` for the hardware profile's (ample) pools.
    TCAM = None

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.fabric_a = build_fabric(SPEC, delivery_engine="batched")
        self.fabric_b = build_fabric(
            SPEC, delivery_engine="per-member", classification_engine="per-rule"
        )
        if self.TCAM is not None:
            for fabric in (self.fabric_a, self.fabric_b):
                for asn in MEMBERS:
                    # Before any install, so members sharing a router
                    # share one fresh pool.
                    fabric.router_for_member(asn).tcam = TcamModel(*self.TCAM)
        self.service = ControlPlaneService(
            self.fabric_a,
            coalesce=True,
            max_queue_depth=MAX_QUEUE_DEPTH,
            budget_window=BUDGET_WINDOW,
            member_update_rate=MEMBER_RATE,
        )
        self.portal = ScriptedPortal(self.fabric_b)
        #: Absolute arrival clock (sum of generated gaps).
        self.clock = 0.0
        #: Request-log entries already mirrored onto B.
        self.replayed = 0
        #: Last observed rules_version per member and fabric.
        self.versions = {asn: [0, 0] for asn in MEMBERS}
        #: Accepted ops per ``(member, window)`` — rebuilt from responses.
        self.ledger = {}
        self.step = 0
        #: ``request_id -> (request, response)`` of every resolved request.
        self.outcomes = {}
        #: Install answers not yet checked against the state B reached:
        #: ``(response, expected_status, missing_rules, leftover_rule)``.
        self.install_answers = []

    def teardown(self):
        try:
            self.loop.run_until_complete(self.service.aclose())
        finally:
            self.loop.close()

    # ------------------------------------------------------------------
    # Driving the service
    # ------------------------------------------------------------------
    def _submit_burst(self, descriptors):
        """Submit a burst concurrently, drain fully, return responses."""

        async def go():
            requests, tasks = [], []
            for descriptor in descriptors:
                self.clock += descriptor["arrival_gap"]
                request = self.service.make_request(
                    MEMBERS[descriptor["member_index"] % len(MEMBERS)],
                    descriptor["op"],
                    rules=descriptor.get("rules", ()),
                    rule_id=descriptor.get("rule_id", ""),
                    at=self.clock,
                )
                requests.append(request)
                tasks.append(asyncio.create_task(self.service.submit(request)))
            # Let every submit coroutine run to its first await so the
            # enqueue order matches the stream order.
            await asyncio.sleep(0)
            await self.service.advance(None)
            return list(zip(requests, [await task for task in tasks]))

        return self.loop.run_until_complete(go())

    def _check_responses(self, outcomes):
        for request, response in outcomes:
            self.outcomes[request.request_id] = (request, response)
            assert response.request_id == request.request_id
            assert response.member_asn == request.member_asn
            if response.status == "telemetry":
                assert response.telemetry is not None
                assert response.telemetry["installed_rules"] >= 0
            elif response.status == "rejected":
                assert response.reason in ("budget", "backpressure")
                assert response.retry_after is not None
                assert response.retry_after > 0.0
            else:
                assert response.status in ("applied", "error")
                assert response.applied_at is not None
                assert response.applied_at >= request.arrival_time - _EPS
                window = int(request.arrival_time // BUDGET_WINDOW)
                key = (request.member_asn, window)
                self.ledger[key] = self.ledger.get(key, 0) + request.cost

    def _mirror_new_log_entries(self):
        """Replay everything the service newly applied through the portal.

        Entries replay in the order the service made the calls, not in
        ``sorted_log()``'s ``(applied_at, member_asn)`` order: a member's
        coalesced batch is flushed after later calls of other members on
        the same router, which decides who gets a full TCAM's last entry.
        """
        new = self.service.request_log[self.replayed :]
        self.replayed = len(self.service.request_log)
        for entry in new:
            if entry.op == "install_many":
                self._mirror_install_batch(entry)
            elif entry.op == "remove":
                self.portal.remove(entry.member_asn, entry.rule_id)
            elif entry.op == "clear":
                self.portal.clear(entry.member_asn)

    def _mirror_install_batch(self, entry):
        """Replay one install batch on B, request by request, rule by rule.

        The service's batch stops at the first rule the TCAM refuses, so
        the replay does too; every request's answer is recorded next to
        what its replay left installed.
        """
        policy = self.fabric_b.port_for_member(entry.member_asn).qos
        exhausted = False
        for request_id in entry.request_ids:
            request, response = self.outcomes[request_id]
            if exhausted:
                self.install_answers.append((response, "error", [], None))
                continue
            rules = request.rules
            attempted = len(rules)
            for position, rule in enumerate(rules):
                try:
                    self.portal.install(entry.member_asn, rule)
                except TcamExhaustedError:
                    exhausted = True
                    attempted = position + 1
                    break
            landed = attempted - 1 if exhausted else attempted
            # A landed rule must be installed unless a later attempted rule
            # of the request reuses its id.
            kept = [
                rule
                for position, rule in enumerate(rules[:landed])
                if not rule.rule_id
                or rule.rule_id not in {later.rule_id for later in rules[position + 1 : attempted]}
            ]
            installed = policy.rules()
            missing = [rule for rule in kept if not holds(installed, rule)]
            leftover = None
            if exhausted:
                failed = rules[landed]
                if failed.rule_id and failed.rule_id in policy.rule_ids():
                    leftover = failed
            expected = "error" if exhausted else "applied"
            self.install_answers.append((response, expected, missing, leftover))
        assert exhausted == entry.tcam_exhausted, entry

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(stream=churn_request_streams(min_size=1, max_size=10))
    def burst(self, stream):
        outcomes = self._submit_burst(stream)
        self._check_responses(outcomes)
        self._mirror_new_log_entries()

    @rule(member=st.integers(0, len(MEMBERS) - 1), pick=st.integers(0, 63))
    def remove_installed(self, member, pick):
        """Remove a rule B actually holds — the meaningful removal path."""
        asn = MEMBERS[member]
        installed = self.fabric_b.port_for_member(asn).qos.rule_ids()
        installed = [rule_id for rule_id in installed if rule_id]
        if not installed:
            return
        descriptor = {
            "member_index": member,
            "op": "remove",
            "rule_id": installed[pick % len(installed)],
            "arrival_gap": 0.1,
        }
        outcomes = self._submit_burst([descriptor])
        self._check_responses(outcomes)
        self._mirror_new_log_entries()

    @rule(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 25))
    def deliver(self, seed, n):
        """Same interval through both data planes — reports must match."""
        table = build_flow_table(
            seed, n, egress_pool=tuple(MEMBERS) + (UNKNOWN_EGRESS_ASN,)
        )
        start = self.step * INTERVAL
        self.step += 1
        report_a = self.fabric_a.deliver(table, INTERVAL, start)
        report_b = self.fabric_b.deliver(table, INTERVAL, start)
        assert report_a.to_dict() == report_b.to_dict()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def rule_state_identical(self):
        for asn in MEMBERS:
            policy_a = self.fabric_a.port_for_member(asn).qos
            policy_b = self.fabric_b.port_for_member(asn).qos
            assert policy_a.rule_ids() == policy_b.rule_ids(), asn
            assert [repr(r) for r in policy_a.rules()] == [
                repr(r) for r in policy_b.rules()
            ], asn

    @invariant()
    def versions_monotonic(self):
        for asn in MEMBERS:
            policy_a = self.fabric_a.port_for_member(asn).qos
            policy_b = self.fabric_b.port_for_member(asn).qos
            last_a, last_b = self.versions[asn]
            assert policy_a.rules_version >= last_a, asn
            assert policy_b.rules_version >= last_b, asn
            # Coalescing can only *reduce* version churn, never add to it.
            assert policy_a.rules_version <= policy_b.rules_version, asn
            self.versions[asn] = [policy_a.rules_version, policy_b.rules_version]

    @invariant()
    def budget_never_exceeded(self):
        allowance = MEMBER_RATE * BUDGET_WINDOW
        for key, spent in self.ledger.items():
            assert spent <= allowance + _EPS, key

    @invariant()
    def queues_fully_drained(self):
        assert self.service.queue_depth() == 0

    @invariant()
    def install_responses_match_rule_state(self):
        """``applied`` rules are installed; an ``error`` left its rule out."""
        for response, expected, missing, leftover in self.install_answers:
            assert response.status == expected, response
            assert not missing, (response, missing)
            assert leftover is None, (response, leftover)
            if expected == "error":
                assert response.reason == "tcam-exhausted", response
        self.install_answers.clear()


class SmallTcamServiceStateMachine(ServiceStateMachine):
    #: Two MAC entries and eight L3-L4 criteria per router: a few rules.
    TCAM = (2, 8)


TestServiceStateMachine = ServiceStateMachine.TestCase
TestSmallTcamServiceStateMachine = SmallTcamServiceStateMachine.TestCase
