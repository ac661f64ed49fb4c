"""Long-lived control-plane service for concurrent rule churn.

Every scenario before this module installed rules by calling router
methods from a script.  The paper's central scaling bottleneck, though,
is the *control* plane: the edge router's configuration CPU sustains a
median of only ~4.33 rule updates per second within its 15 % budget
(§5.1, Fig. 10(a)), so a platform where thousands of members churn
fine-grained rules concurrently needs admission control, queueing and
batching in front of the routers.

:class:`ControlPlaneService` is that front end.  It multiplexes many
members' concurrent ``install`` / ``install_many`` / ``remove`` /
``clear`` / ``telemetry`` requests against one running
:class:`~repro.ixp.fabric.SwitchingFabric`:

* **per-router FIFO lanes** — each edge router services its queue at the
  deterministic :meth:`ControlPlaneCpuModel.max_update_rate` on a
  *virtual* control-plane clock, so rule-propagation latency is a
  modeled quantity, independent of host wall-clock;
* **coalescing** — consecutive queued installs for the same port are
  drained into a single :meth:`EdgeRouter.install_rules` batch: one
  ``rules_version`` bump per drained batch instead of one per rule (the
  amortization the ``rule_churn`` scenario and ``BENCH_service.json``
  measure).  Each bump costs the port one
  :class:`~repro.ixp.ruleindex.RuleMatchIndex` compile and one
  delivery-plan patch on the next interval;
* **per-member change budgets** — a member may spend at most
  ``rate × window`` configuration operations per budget window, with
  the rate backed by the noise-free CPU model; over-budget requests are
  rejected with an explicit ``retry_after``;
* **backpressure** — each lane caps its queued operations; requests
  beyond the cap are rejected with a ``retry_after`` estimated from the
  backlog.

The service has a synchronous core (:meth:`enqueue` + :meth:`drain_to`)
and an asyncio surface (:meth:`submit` + :meth:`advance`) built on it.
Scripted-sequential scenario runs drive the core directly; the async
mode only adds an event loop, per-router worker tasks and futures — by
construction both produce identical fabric state, identical request
logs and identical accounting, which the ``rule_churn`` scenario tests
bit-for-bit.

Every applied data-plane call is recorded as an :class:`AppliedChange`.
Replaying that log *one rule at a time* through direct router calls
(:func:`replay_request_log`) must reproduce the exact same fabric state
— the parity oracle guarding the coalescing seam.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .control_plane import ControlPlaneCpuModel
from .edge_router import EdgeRouter, PortNotFoundError
from .fabric import SwitchingFabric
from .qos import QosRule
from .tcam import TcamExhaustedError

#: Operations that mutate a port's rule set (and consume budget/CPU).
CHANGE_OPS = ("install", "install_many", "remove", "clear")

#: Every operation the service accepts.
SERVICE_OPS = CHANGE_OPS + ("telemetry",)

#: Comparison slack for virtual-time horizon checks.
_EPS = 1e-9


@dataclass(frozen=True)
class ChangeRequest:
    """One member request against the control-plane service."""

    member_asn: int
    op: str
    rules: tuple[QosRule, ...] = ()
    rule_id: str = ""
    #: Virtual time the request reaches the service (seconds).
    arrival_time: float = 0.0
    #: Assigned by the service at submission (monotonic per service).
    request_id: int = 0

    def __post_init__(self) -> None:
        if self.op not in SERVICE_OPS:
            raise ValueError(
                f"unknown op {self.op!r}; known: {', '.join(SERVICE_OPS)}"
            )
        if self.op in ("install", "install_many") and not self.rules:
            raise ValueError(f"{self.op} request needs at least one rule")
        if self.op == "install" and len(self.rules) != 1:
            raise ValueError("install carries exactly one rule; use install_many")
        if self.op == "remove" and not self.rule_id:
            raise ValueError("remove request needs a rule_id")

    @property
    def cost(self) -> int:
        """Configuration operations the request spends on the router CPU.

        Installs cost one operation per rule; ``remove`` and ``clear``
        cost one (a single config transaction); telemetry is free (a
        read against state the service already holds).
        """
        if self.op in ("install", "install_many"):
            return len(self.rules)
        if self.op in ("remove", "clear"):
            return 1
        return 0


@dataclass(frozen=True)
class ServiceResponse:
    """The service's answer to one :class:`ChangeRequest`."""

    #: ``"applied"`` | ``"rejected"`` | ``"error"`` | ``"telemetry"``.
    status: str
    request_id: int
    member_asn: int
    op: str
    #: Virtual completion time of the change (``applied`` / ``error``).
    applied_at: Optional[float] = None
    #: ``applied_at - arrival_time`` — the rule-propagation latency.
    latency: Optional[float] = None
    #: Seconds the member should wait before retrying (rejections).
    retry_after: Optional[float] = None
    #: ``"budget"`` | ``"backpressure"`` | ``"unknown-member"`` |
    #: ``"tcam-exhausted"`` | ``"shutdown"`` | ``""``.
    reason: str = ""
    telemetry: Optional[dict] = None

    @property
    def accepted(self) -> bool:
        return self.status == "applied"


@dataclass(frozen=True)
class AppliedChange:
    """One data-plane call the service made (an entry of the request log).

    Coalesced installs appear as a single ``install_many`` entry carrying
    every rule of the drained batch, in queue order.  ``applied_at`` is
    the virtual completion time of the batch's last operation and
    ``horizon`` the drain horizon the batch was applied under (scenario
    replays group entries by it).  The canonical log order is
    ``(applied_at, member_asn)`` — see
    :meth:`ControlPlaneService.sorted_log`.
    """

    member_asn: int
    op: str  # "install_many" | "remove" | "clear"
    rules: tuple[QosRule, ...] = ()
    rule_id: str = ""
    applied_at: float = 0.0
    horizon: float = math.inf
    request_ids: tuple[int, ...] = ()
    #: True when the batch hit the TCAM limit mid-apply; a replay must
    #: attempt the same ops and swallow the same error.
    tcam_exhausted: bool = False


@dataclass
class ServiceStats:
    """Counters the service accumulates (order-independent)."""

    submitted: int = 0
    applied_requests: int = 0
    applied_ops: int = 0
    #: Router calls made (each one rules_version bump at most).
    data_plane_calls: int = 0
    #: Install batches that merged more than one request.
    coalesced_batches: int = 0
    #: Install operations that rode in a coalesced batch.
    coalesced_ops: int = 0
    rejected_budget: int = 0
    rejected_backpressure: int = 0
    rejected_unknown_member: int = 0
    rejected_shutdown: int = 0
    tcam_errors: int = 0
    telemetry_served: int = 0
    max_queue_depth_seen: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            name: getattr(self, name)
            for name in (
                "submitted",
                "applied_requests",
                "applied_ops",
                "data_plane_calls",
                "coalesced_batches",
                "coalesced_ops",
                "rejected_budget",
                "rejected_backpressure",
                "rejected_unknown_member",
                "rejected_shutdown",
                "tcam_errors",
                "telemetry_served",
                "max_queue_depth_seen",
            )
        }


@dataclass
class _Pending:
    """A queued request plus its (async-mode) response future."""

    request: ChangeRequest
    future: Optional[asyncio.Future] = None
    #: Virtual completion time, set when the drain services the request.
    done_at: float = 0.0


class _RouterLane:
    """One edge router's FIFO change queue + virtual control-plane clock."""

    def __init__(self, router: EdgeRouter) -> None:
        self.router = router
        self.queue: deque[_Pending] = deque()
        #: Configuration operations currently queued (backpressure unit).
        self.pending_ops = 0
        #: Virtual time the router's config CPU becomes free.
        self.clock = 0.0
        # Async plumbing, populated by ControlPlaneService.start().
        self.wake: Optional[asyncio.Event] = None
        self.done: Optional[asyncio.Event] = None
        self.task: Optional[asyncio.Task] = None


class ControlPlaneService:
    """Admission control, queueing and coalescing in front of the fabric.

    Parameters
    ----------
    fabric:
        The running switching fabric whose routers the service drives.
    coalesce:
        Merge consecutive queued installs per port into one
        ``install_many`` batch (default).  ``False`` applies every
        request as its own router call — the comparison arm the service
        bench measures recompile amortization against.
    max_queue_depth:
        Per-router cap on queued configuration *operations*; requests
        that would exceed it are rejected with ``reason="backpressure"``.
    max_coalesce:
        Upper bound on operations merged into one install batch.
    budget_window:
        Length (seconds) of the fixed per-member budget window.
    member_update_rate:
        Sustained config-operations/second each member may spend.  The
        default derives it from the *deterministic* CPU model —
        ``max_update_rate(15 %) ≈ 4.33/s``, the paper's median.
    cpu_model:
        Override the CPU model; must be noise-free (``noise_std == 0``)
        so admission decisions are reproducible.
    """

    def __init__(
        self,
        fabric: SwitchingFabric,
        *,
        coalesce: bool = True,
        max_queue_depth: int = 512,
        max_coalesce: int = 256,
        budget_window: float = 10.0,
        member_update_rate: Optional[float] = None,
        cpu_model: Optional[ControlPlaneCpuModel] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if max_coalesce < 1:
            raise ValueError("max_coalesce must be positive")
        if budget_window <= 0:
            raise ValueError("budget_window must be positive")
        self.fabric = fabric
        self.coalesce = coalesce
        self.max_queue_depth = max_queue_depth
        self.max_coalesce = max_coalesce
        self.budget_window = budget_window
        self.cpu = (
            cpu_model if cpu_model is not None else ControlPlaneCpuModel.deterministic()
        )
        if self.cpu.noise_std != 0.0:
            raise ValueError(
                "budget enforcement needs a deterministic CPU model "
                "(noise_std=0); use ControlPlaneCpuModel.deterministic()"
            )
        self.update_rate = self.cpu.max_update_rate()
        if self.update_rate <= 0:
            raise ValueError("CPU model admits no updates within its budget")
        #: Virtual seconds one configuration operation occupies the CPU.
        self.op_seconds = 1.0 / self.update_rate
        self.member_update_rate = (
            self.update_rate if member_update_rate is None else member_update_rate
        )
        if self.member_update_rate <= 0:
            raise ValueError("member_update_rate must be positive")
        self.window_allowance = self.member_update_rate * budget_window
        self._lanes: dict[str, _RouterLane] = {
            router.name: _RouterLane(router) for router in fabric.edge_routers()
        }
        #: ``(member_asn, window_index) -> operations spent``.
        self._budget_used: dict[tuple[int, int], int] = {}
        self._next_request_id = 1
        self.request_log: list[AppliedChange] = []
        #: Propagation latency of every applied request (virtual seconds).
        self.latencies: list[float] = []
        self.stats = ServiceStats()
        self._started = False
        self._closed = False
        self._horizon: Optional[float] = None

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def make_request(
        self,
        member_asn: int,
        op: str,
        *,
        rules: Sequence[QosRule] = (),
        rule_id: str = "",
        at: float = 0.0,
    ) -> ChangeRequest:
        """Build a request with the next service-assigned request id."""
        request = ChangeRequest(
            member_asn=member_asn,
            op=op,
            rules=tuple(rules),
            rule_id=rule_id,
            arrival_time=at,
            request_id=self._next_request_id,
        )
        self._next_request_id += 1
        return request

    # ------------------------------------------------------------------
    # Synchronous core: admission
    # ------------------------------------------------------------------
    def enqueue(
        self, request: ChangeRequest, future: Optional[asyncio.Future] = None
    ) -> Optional[ServiceResponse]:
        """Admit one request.

        Returns the immediate response for telemetry and rejections, or
        ``None`` when the request was queued on its router's lane (its
        response comes out of a later :meth:`drain_to`, or resolves the
        given ``future`` in async mode).
        """
        if request.request_id == 0:
            request = replace(request, request_id=self._next_request_id)
            self._next_request_id += 1
        self.stats.submitted += 1
        try:
            router = self.fabric.router_for_member(request.member_asn)
        except PortNotFoundError:
            self.stats.rejected_unknown_member += 1
            return self._reject(request, "unknown-member", retry_after=None)
        lane = self._lanes[router.name]

        if request.op == "telemetry":
            self.stats.telemetry_served += 1
            return self._telemetry_response(request, lane)

        window = int(request.arrival_time // self.budget_window)
        key = (request.member_asn, window)
        used = self._budget_used.get(key, 0)
        if used + request.cost > self.window_allowance + _EPS:
            self.stats.rejected_budget += 1
            window_end = (window + 1) * self.budget_window
            return self._reject(
                request, "budget", retry_after=max(0.0, window_end - request.arrival_time)
            )

        if lane.pending_ops + request.cost > self.max_queue_depth:
            self.stats.rejected_backpressure += 1
            backlog_done = max(lane.clock, request.arrival_time) + (
                lane.pending_ops * self.op_seconds
            )
            return self._reject(
                request,
                "backpressure",
                retry_after=max(self.op_seconds, backlog_done - request.arrival_time),
            )

        self._budget_used[key] = used + request.cost
        lane.queue.append(_Pending(request, future))
        lane.pending_ops += request.cost
        self.stats.max_queue_depth_seen = max(
            self.stats.max_queue_depth_seen, lane.pending_ops
        )
        return None

    def _reject(
        self, request: ChangeRequest, reason: str, retry_after: Optional[float]
    ) -> ServiceResponse:
        return ServiceResponse(
            status="rejected",
            request_id=request.request_id,
            member_asn=request.member_asn,
            op=request.op,
            retry_after=retry_after,
            reason=reason,
        )

    def _telemetry_response(
        self, request: ChangeRequest, lane: _RouterLane
    ) -> ServiceResponse:
        port = lane.router.port_for(request.member_asn)
        mac_used, l3l4_used = lane.router.tcam.usage_for_port(port.port_id)
        return ServiceResponse(
            status="telemetry",
            request_id=request.request_id,
            member_asn=request.member_asn,
            op="telemetry",
            applied_at=request.arrival_time,
            latency=0.0,
            telemetry={
                "router": lane.router.name,
                "rules_version": port.qos.rules_version,
                "installed_rules": len(port.qos),
                "queue_depth_ops": lane.pending_ops,
                "router_clock": lane.clock,
                "tcam_mac_entries": mac_used,
                "tcam_l3l4_criteria": l3l4_used,
            },
        )

    # ------------------------------------------------------------------
    # Synchronous core: draining
    # ------------------------------------------------------------------
    def drain_to(
        self, horizon: Optional[float]
    ) -> list[tuple[ChangeRequest, ServiceResponse]]:
        """Service every lane's queue up to ``horizon`` (``None`` = all).

        Each configuration operation occupies its router's virtual CPU
        for :attr:`op_seconds`; a request completes when its last
        operation does, and stays queued if that completion would pass
        the horizon (strict FIFO — a large head-of-line batch delays
        everything behind it).  Returns the ``(request, response)``
        resolutions in lane order.
        """
        resolved: list[tuple[ChangeRequest, ServiceResponse]] = []
        for name in sorted(self._lanes):
            resolved.extend(self._drain_lane(self._lanes[name], horizon))
        return resolved

    def _drain_lane(
        self, lane: _RouterLane, horizon: Optional[float]
    ) -> list[tuple[ChangeRequest, ServiceResponse]]:
        resolved: list[tuple[ChangeRequest, ServiceResponse]] = []
        # member_asn -> install requests awaiting one coalesced flush.
        buffers: dict[int, list[_Pending]] = {}

        def flush(member_asn: int) -> None:
            batch = buffers.pop(member_asn, None)
            if batch:
                self._apply_install_batch(lane, member_asn, batch, horizon, resolved)

        while lane.queue:
            pending = lane.queue[0]
            request = pending.request
            start = max(lane.clock, request.arrival_time)
            done = start + request.cost * self.op_seconds
            if horizon is not None and done > horizon + _EPS:
                break
            lane.queue.popleft()
            lane.pending_ops -= request.cost
            lane.clock = done
            pending.done_at = done
            if request.op in ("install", "install_many"):
                if self.coalesce:
                    batch = buffers.setdefault(request.member_asn, [])
                    batch.append(pending)
                    if sum(p.request.cost for p in batch) >= self.max_coalesce:
                        flush(request.member_asn)
                else:
                    self._apply_install_batch(
                        lane, request.member_asn, [pending], horizon, resolved
                    )
            elif request.op == "remove":
                # Ordering: a queued remove must see every install queued
                # before it, so the member's buffered batch flushes first.
                flush(request.member_asn)
                lane.router.remove_rule(request.member_asn, request.rule_id)
                self._log_and_resolve(
                    lane, [pending], "remove", horizon, resolved, rule_id=request.rule_id
                )
            elif request.op == "clear":
                flush(request.member_asn)
                lane.router.clear_rules(request.member_asn)
                self._log_and_resolve(lane, [pending], "clear", horizon, resolved)
        for member_asn in list(buffers):
            flush(member_asn)
        return resolved

    def _apply_install_batch(
        self,
        lane: _RouterLane,
        member_asn: int,
        batch: list[_Pending],
        horizon: Optional[float],
        resolved: list[tuple[ChangeRequest, ServiceResponse]],
    ) -> None:
        rules = tuple(
            rule for pending in batch for rule in pending.request.rules
        )
        landed = len(rules)
        try:
            lane.router.install_rules(member_asn, rules)
        except TcamExhaustedError as error:
            # install_rules leaves the data plane exactly where sequential
            # installs would have stopped, with the first ``landed`` rules
            # installed; the log records the error so the replay oracle
            # attempts (and swallows) the same failure.
            landed = error.landed
        # Requests whose every rule landed are applied; the request the
        # TCAM ran out in, and every request queued behind it, are not.
        applied = 0
        for pending in batch:
            landed -= len(pending.request.rules)
            if landed < 0:
                break
            applied += 1
        if len(batch) > 1:
            self.stats.coalesced_batches += 1
            self.stats.coalesced_ops += len(rules)
        self._log_and_resolve(
            lane,
            batch,
            "install_many",
            horizon,
            resolved,
            rules=rules,
            failed=len(batch) - applied,
        )

    def _log_and_resolve(
        self,
        lane: _RouterLane,
        batch: list[_Pending],
        op: str,
        horizon: Optional[float],
        resolved: list[tuple[ChangeRequest, ServiceResponse]],
        *,
        rules: tuple[QosRule, ...] = (),
        rule_id: str = "",
        failed: int = 0,
    ) -> None:
        """Log one data-plane call and answer its requests.

        The last ``failed`` requests of ``batch`` hit TCAM exhaustion and
        are answered ``error``; the others are answered ``applied``.
        """
        applied_at = batch[-1].done_at
        self.request_log.append(
            AppliedChange(
                member_asn=batch[0].request.member_asn,
                op=op,
                rules=rules,
                rule_id=rule_id,
                applied_at=applied_at,
                horizon=math.inf if horizon is None else horizon,
                request_ids=tuple(p.request.request_id for p in batch),
                tcam_exhausted=failed > 0,
            )
        )
        self.stats.data_plane_calls += 1
        for position, pending in enumerate(batch):
            request = pending.request
            latency = pending.done_at - request.arrival_time
            if position >= len(batch) - failed:
                self.stats.tcam_errors += 1
                response = ServiceResponse(
                    status="error",
                    request_id=request.request_id,
                    member_asn=request.member_asn,
                    op=request.op,
                    applied_at=pending.done_at,
                    latency=latency,
                    reason="tcam-exhausted",
                )
            else:
                response = ServiceResponse(
                    status="applied",
                    request_id=request.request_id,
                    member_asn=request.member_asn,
                    op=request.op,
                    applied_at=pending.done_at,
                    latency=latency,
                )
                self.stats.applied_requests += 1
                self.stats.applied_ops += request.cost
                self.latencies.append(latency)
            resolved.append((request, response))
            if pending.future is not None and not pending.future.done():
                pending.future.set_result(response)

    def close(self) -> list[tuple[ChangeRequest, ServiceResponse]]:
        """Reject everything still queued (service shutdown).

        Returns the shutdown rejections in lane order; async mode also
        resolves their futures.
        """
        resolved: list[tuple[ChangeRequest, ServiceResponse]] = []
        for name in sorted(self._lanes):
            lane = self._lanes[name]
            while lane.queue:
                pending = lane.queue.popleft()
                lane.pending_ops -= pending.request.cost
                self.stats.rejected_shutdown += 1
                response = self._reject(pending.request, "shutdown", retry_after=None)
                resolved.append((pending.request, response))
                if pending.future is not None and not pending.future.done():
                    pending.future.set_result(response)
        self._closed = True
        return resolved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sorted_log(self) -> list[AppliedChange]:
        """The request log in canonical replay order.

        Async workers append lane-interleaved, the scripted core
        lane-by-lane — but ``(applied_at, member_asn)`` is identical in
        both modes (virtual clocks only depend on per-lane queue order),
        and one member's entries have strictly increasing ``applied_at``,
        so this sort is a total, execution-independent order.
        """
        return sorted(
            self.request_log, key=lambda entry: (entry.applied_at, entry.member_asn)
        )

    def queue_depth(self) -> int:
        """Total configuration operations currently queued."""
        return sum(lane.pending_ops for lane in self._lanes.values())

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> dict[str, float]:
        """Propagation-latency percentiles over every applied request."""
        if not self.latencies:
            return {f"p{p:g}": 0.0 for p in percentiles} | {"max": 0.0}
        values = np.asarray(self.latencies, dtype=np.float64)
        out = {
            f"p{p:g}": float(np.percentile(values, p)) for p in percentiles
        }
        out["max"] = float(values.max())
        return out

    # ------------------------------------------------------------------
    # Async surface
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one worker task per router lane (needs a running loop)."""
        if self._started:
            return
        loop = asyncio.get_running_loop()
        for name in sorted(self._lanes):
            lane = self._lanes[name]
            lane.wake = asyncio.Event()
            lane.done = asyncio.Event()
            lane.done.set()
            lane.task = loop.create_task(self._worker(lane), name=f"lane-{name}")
        self._started = True

    async def _worker(self, lane: _RouterLane) -> None:
        while True:
            await lane.wake.wait()
            lane.wake.clear()
            if self._closed:
                break
            self._drain_lane(lane, self._horizon)
            lane.done.set()

    async def submit(self, request: ChangeRequest) -> ServiceResponse:
        """Submit one request; resolves when it is rejected or applied.

        Accepted change requests only complete during a later
        :meth:`advance` (the service is paced by virtual time, not the
        wall clock), so callers run under ``asyncio.gather`` alongside
        the scenario loop driving :meth:`advance`.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        immediate = self.enqueue(request, future)
        if immediate is not None:
            return immediate
        return await future

    async def advance(self, horizon: Optional[float] = None) -> None:
        """Drain every lane up to ``horizon`` and wait for the workers."""
        if not self._started:
            self.start()
        # One scheduling slot before draining: submit() tasks created
        # right before this call run to their first await and reach
        # their queues, so `create_task(submit(...)); advance(t)` admits
        # the request into this drain instead of racing the workers.
        await asyncio.sleep(0)
        self._horizon = horizon
        for lane in self._lanes.values():
            lane.done.clear()
            lane.wake.set()
        for name in sorted(self._lanes):
            await self._lanes[name].done.wait()
        # One extra scheduling slot so submitters whose futures just
        # resolved observe their responses before the caller proceeds.
        await asyncio.sleep(0)

    async def aclose(self) -> None:
        """Stop the workers and shutdown-reject everything still queued."""
        self.close()
        for lane in self._lanes.values():
            if lane.wake is not None:
                lane.wake.set()
        tasks = [lane.task for lane in self._lanes.values() if lane.task is not None]
        if tasks:
            await asyncio.gather(*tasks)
        self._started = False

    async def __aenter__(self) -> "ControlPlaneService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


# ----------------------------------------------------------------------
# The replay oracle
# ----------------------------------------------------------------------
def replay_request_log(
    fabric: SwitchingFabric,
    entries: Iterable[AppliedChange],
    *,
    sequential: bool = True,
) -> int:
    """Apply a service request log to a fabric through direct router calls.

    With ``sequential=True`` (the scripted-sequential oracle) every
    coalesced ``install_many`` entry is applied *one rule at a time* via
    :meth:`EdgeRouter.install_rule` — the fabric state after the replay
    must be bit-for-bit identical to the live service's, which is the
    end-to-end guarantee that batching is purely an amortization, never
    a semantic change.  ``sequential=False`` replays batches as batches.
    Returns the number of entries applied.
    """
    applied = 0
    for entry in entries:
        router = fabric.router_for_member(entry.member_asn)
        if entry.op == "install_many":
            try:
                if sequential:
                    for rule in entry.rules:
                        router.install_rule(entry.member_asn, rule)
                else:
                    router.install_rules(entry.member_asn, entry.rules)
            except TcamExhaustedError:
                if not entry.tcam_exhausted:
                    raise
        elif entry.op == "remove":
            router.remove_rule(entry.member_asn, entry.rule_id)
        elif entry.op == "clear":
            router.clear_rules(entry.member_asn)
        else:  # pragma: no cover - log entries only carry the three ops
            raise ValueError(f"unknown log op {entry.op!r}")
        applied += 1
    return applied
