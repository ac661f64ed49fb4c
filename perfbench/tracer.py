"""Layer spans recorded from outside the program, by wrapping its public calls.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public functions listed in :data:`LAYER_CALLS` with thin wrappers that
open a span on entry and close it on return; every span carries the
layer's metric name, so the layer table below *is* the per-layer metric
vocabulary an in-program recorder should reuse.

A span's self time is its duration minus the time its direct child spans
cover.  The recorder keeps one stack of open spans: synchronous calls nest
properly on the one thread, and the only asynchronous wrapper
(``ControlPlaneService.advance``) is awaited by the scenario's main task,
so every span another task opens while it is suspended is a call it is
waiting on and rightly becomes its child.

Spans opened while a ``setup.*`` span is open are not recorded unless they
are ``setup.*`` or ``shard.*`` spans themselves: the rule preinstall of a
scenario build is set-up work, not control-plane service time, while the
parent's shared member table is shard transport wherever it is built.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

#: ``(metric, "module:Qualified.name", ...)`` — every public call wrapped
#: for a layer.  A class attribute is wrapped on the class; a module
#: function is rebound in every loaded ``repro`` module that imported it.
LAYER_CALLS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("setup.population_s", ("repro.ixp.topology:make_member_population",)),
    (
        "setup.fabric_s",
        (
            "repro.ixp.topology:build_multi_pop_fabric",
            "repro.ixp.fabric:SwitchingFabric.connect_member",
        ),
    ),
    ("setup.stream_s", ("repro.experiments.rule_churn:generate_churn_requests",)),
    (
        "traffic.gen_s",
        (
            "repro.traffic.generator:IxpTraceGenerator.interval_table",
            "repro.traffic.attacks:BooterAttack.flow_table",
            "repro.traffic.attacks:BenignTrafficSource.flow_table",
            "repro.experiments.fine_grained:FineGrainedTrafficSource.interval_table",
            "repro.traffic.flowtable:FlowTable.concat",
        ),
    ),
    ("ixp.plan.compile_s", ("repro.ixp.delivery:FabricDeliveryPlan.__init__",)),
    (
        "ixp.deliver.self_s",
        (
            "repro.ixp.fabric:SwitchingFabric.deliver",
            "repro.ixp.delivery:FabricDeliveryPlan.execute",
        ),
    ),
    ("ixp.qos.classify_s", ("repro.ixp.qos:PortQosPolicy.assign_table",)),
    ("ixp.qos.index_s", ("repro.ixp.qos:PortQosPolicy.compiled_index",)),
    ("ixp.service.enqueue_s", ("repro.ixp.service:ControlPlaneService.enqueue",)),
    (
        "ixp.service.advance_s",
        (
            "repro.ixp.service:ControlPlaneService.advance",
            "repro.ixp.service:ControlPlaneService.drain_to",
        ),
    ),
    (
        "ixp.service.install_s",
        (
            "repro.ixp.edge_router:EdgeRouter.install_rule",
            "repro.ixp.edge_router:EdgeRouter.install_rules",
            "repro.ixp.edge_router:EdgeRouter.remove_rule",
            "repro.ixp.edge_router:EdgeRouter.clear_rules",
        ),
    ),
    ("report.to_dict_s", ("repro.ixp.fabric:FabricIntervalReport.to_dict",)),
    ("report.to_columns_s", ("repro.ixp.fabric:FabricIntervalReport.to_columns",)),
    ("shard.wait_s", ("repro.experiments.parallel:iter_shard_intervals",)),
    ("shard.merge_s", ("repro.ixp.shard:merge_interval_columns",)),
    (
        "shard.member_table_s",
        ("repro.traffic.sharedtable:SharedMemberTable.from_members",),
    ),
)

#: Modules whose ``json.dumps`` computes a run's report digest.
DIGEST_MODULES = ("repro.experiments.rule_churn", "repro.experiments.city_scale")

#: Span metrics recorded by hand rather than by wrapping a call: the
#: import, the whole runner call, and the set-up phase (runner entry to
#: the first interval; its self time is the scenario wiring — rule
#: preinstall, shard planning — outside the named set-up calls).
IMPORT_SPAN = "import.s"
DRIVER_SPAN = "driver.self_s"
SETUP_SPAN = "setup.scenario_s"
ENCODE_SPAN = "report.encode_s"

#: Every span metric, in reporting order.
SPAN_METRICS: tuple[str, ...] = (
    IMPORT_SPAN,
    SETUP_SPAN,
    *(metric for metric, _ in LAYER_CALLS),
    ENCODE_SPAN,
    DRIVER_SPAN,
)

#: Span prefixes still recorded inside a set-up span (see the module doc).
SETUP_RECORDED = ("setup.", "shard.")

#: ``(call, counter, size)``: counters recorded at the same boundaries —
#: each call adds ``size(result)``, or 1 without a size.
COUNTERS: tuple[tuple[str, str, Callable[[Any], int] | None], ...] = (
    *(
        (target, "traffic.rows", len)
        for target in (
            "repro.traffic.generator:IxpTraceGenerator.interval_table",
            "repro.traffic.attacks:BooterAttack.flow_table",
            "repro.traffic.attacks:BenignTrafficSource.flow_table",
            "repro.experiments.fine_grained:FineGrainedTrafficSource.interval_table",
        )
    ),
    ("repro.ixp.fabric:SwitchingFabric.current_delivery_plan", "ixp.plan.requests", None),
    ("repro.ixp.delivery:FabricDeliveryPlan.__init__", "ixp.plan.compiles", None),
    ("repro.ixp.delivery:FabricDeliveryPlan.execute", "ixp.deliver.calls", None),
    (
        "repro.ixp.delivery:FabricDeliveryPlan.execute",
        "ixp.deliver.members",
        lambda report: len(report.results_by_member),
    ),
    ("repro.ixp.qos:PortQosPolicy.assign_table", "ixp.qos.classify_calls", None),
    ("repro.ixp.qos:PortQosPolicy.compiled_index", "ixp.qos.index_calls", None),
)

#: Every counter name, in reporting order.
COUNT_METRICS = tuple(dict.fromkeys(name for _, name, _ in COUNTERS))


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._setup_depth = 0

    def open(self, name: str) -> int:
        """Open a span; returns its index, or -1 when set-up swallows it."""
        is_setup = name.startswith("setup.")
        if self._setup_depth and not name.startswith(SETUP_RECORDED):
            return -1
        if is_setup:
            self._setup_depth += 1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.monotonic())
        self.ends.append(float("nan"))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        self.ends[index] = time.monotonic()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:
            self._stack.remove(index)
        if self.names[index].startswith("setup."):
            self._setup_depth -= 1

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span timed by the caller."""
        self.names.append(name)
        self.parents.append(-1)
        self.starts.append(start)
        self.ends.append(end)

    def count(self, name: str, amount: float = 1) -> None:
        if not self._setup_depth:
            self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Per-metric self time: span durations minus their direct children."""
        totals = {name: 0.0 for name in SPAN_METRICS}
        children = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[index] - self.starts[index]
        for index, name in enumerate(self.names):
            totals[name] += self.ends[index] - self.starts[index] - children[index]
        return totals

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(
            self.ends[index] - self.starts[index]
            for index, parent in enumerate(self.parents)
            if parent < 0
        )

    def unclosed(self) -> list[str]:
        return [self.names[index] for index in self._stack]


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute)`` for ``"module:Qual.name"``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


def _span_wrapper(fn: Callable[..., Any], name: str, recorder: SpanRecorder) -> Callable[..., Any]:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return async_wrapper

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            # Time each resumption, not the consumer's work between them.
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = recorder.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(index)
                    yield item
            finally:
                inner.close()

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _counting_wrapper(
    fn: Callable[..., Any],
    name: str,
    size: Callable[[Any], int] | None,
    recorder: SpanRecorder,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        recorder.count(name, 1 if size is None else size(result))
        return result

    return wrapper


def replace_everywhere(target: str, make: Callable[[Callable[..., Any]], Any]) -> None:
    """Rebind ``target`` to ``make(original)`` wherever the program can see it.

    A class attribute is replaced on its class (keeping ``classmethod`` /
    ``staticmethod`` wrapping); a module function is replaced in its own
    module and in every loaded ``repro`` module that bound it by
    ``from ... import``.
    """
    owner, attribute, raw = _resolve(target)
    if isinstance(owner, type):
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attribute, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attribute, make(raw))
        return
    replacement = make(raw)
    for module in list(sys.modules.values()):
        if (
            module is not None
            and module.__name__.split(".")[0] == "repro"
            and getattr(module, attribute, None) is raw
        ):
            setattr(module, attribute, replacement)


class _DigestJson(types.ModuleType):
    """A ``json`` stand-in whose ``dumps`` opens a :data:`ENCODE_SPAN`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__("json")
        self.dumps = _span_wrapper(json.dumps, ENCODE_SPAN, recorder)

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def install(recorder: SpanRecorder) -> None:
    """Wrap every call of :data:`LAYER_CALLS` and :data:`COUNTERS`."""
    for metric, targets in LAYER_CALLS:
        for target in targets:
            replace_everywhere(
                target, lambda fn, metric=metric: _span_wrapper(fn, metric, recorder)
            )
    for target, name, size in COUNTERS:
        replace_everywhere(
            target,
            lambda fn, name=name, size=size: _counting_wrapper(fn, name, size, recorder),
        )
    stand_in = _DigestJson(recorder)
    for module_name in DIGEST_MODULES:
        setattr(importlib.import_module(module_name), "json", stand_in)
