"""Recovery planning and execution.

A strategy table maps each fault class to an ordered list of action
templates: the first is the primary action, the rest are fallbacks tried
in order when the primary fails, or after a reroute, which only bypasses
the fault. Plans are instantiated against the concrete diagnosed target,
executed through an actuator callable, and checked by polling the
affected services until they read up.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Protocol

from . import bndiag
from .bndiag import Diagnosis, Verdict
from .docread import Reader
from .netmodel import ServiceState, Topology
from .records import Frozen
from .taxonomy import FaultClass


class PlanError(ValueError):
    """No executable plan can be produced for this diagnosis."""


class ActionKind(str, Enum):
    REROUTE = "reroute"
    RESTART_SERVICE = "restart-service"
    RESTART_OPENFLOW_AGENT = "restart-openflow-agent"
    CONTROLLER_FAILOVER = "controller-failover"
    OPEN_REPAIR_TICKET = "open-repair-ticket"


class OutcomeStatus(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class RecoveryAction(NamedTuple):
    kind: ActionKind
    target: str
    avoid: tuple[str, ...] = ()  # ids a reroute's new path must not use
    fallback: RecoveryAction | None = None


class _ActionOutcome(NamedTuple):
    action: RecoveryAction
    status: OutcomeStatus
    detail: str = ""


class ActionOutcome(Frozen, _ActionOutcome):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ActionOutcome:
        outcome = super().__new__(cls, *args, **kwargs)
        if outcome.status is OutcomeStatus.FAILURE and not outcome.detail:
            raise ValueError("failure outcome requires a detail message")
        return outcome


# The fault class whose targets each action kind acts on. A repair ticket
# acts on any component, so it has no entry.
TARGET_CLASS = {
    ActionKind.REROUTE: FaultClass.SERVICE_FAULT,
    ActionKind.RESTART_SERVICE: FaultClass.SERVICE_FAULT,
    ActionKind.RESTART_OPENFLOW_AGENT: FaultClass.OPENFLOW_AGENT_CRASH,
    ActionKind.CONTROLLER_FAILOVER: FaultClass.CONTROLLER_CRASH,
}


class _ActionTemplate(NamedTuple):
    kind: ActionKind
    scope: str = "target"


class ActionTemplate(Frozen, _ActionTemplate):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ActionTemplate:
        template = super().__new__(cls, *args, **kwargs)
        if template.scope not in ("target", "dependent-services"):
            raise PlanError(
                f"unknown action scope {template.scope!r} "
                "(expected target or dependent-services)"
            )
        return template


class _StrategyTable(NamedTuple):
    entries: dict[FaultClass, tuple[ActionTemplate, ...]]


class StrategyTable(Frozen, _StrategyTable):
    __slots__ = ()

    def __new__(cls, entries) -> StrategyTable:
        missing = [fc.value for fc in FaultClass if fc not in entries]
        if missing:
            raise PlanError("strategy table not total, missing: " + ", ".join(missing))
        return super().__new__(cls, entries)


def _check_entry(fc: FaultClass, templates: tuple[ActionTemplate, ...]) -> None:
    """Reject an entry whose plan `select_strategy` could not run.

    A `target` template acts on the diagnosed component, a
    `dependent-services` one on services. Fallbacks are instantiated on
    the diagnosed component, so they must have scope `target`.
    """
    if not templates:
        raise PlanError(f"empty strategy entry for {fc.value}")
    for i, tpl in enumerate(templates):
        if i and tpl.scope != "target":
            raise PlanError(
                f"strategy entry {fc.value}: fallback {tpl.kind.value} "
                f"has scope {tpl.scope}, not target"
            )
        if tpl.scope == "dependent-services":
            acted_on, what = FaultClass.SERVICE_FAULT, "dependent services"
        else:
            acted_on, what = fc, "the diagnosed component"
        if TARGET_CLASS.get(tpl.kind, acted_on) is not acted_on:
            raise PlanError(
                f"strategy entry {fc.value}: {tpl.kind.value} cannot act on {what}"
            )


@functools.cache
def default_strategy_table() -> StrategyTable:
    """Built-in fault-class to action mapping (overridable via document).

    Outages of shared infrastructure reroute every dependent service and
    fall back to a repair ticket; the control-plane and service faults map
    to their dedicated restart/failover action. Built once per process.
    """
    reroute_then_ticket = (
        ActionTemplate(ActionKind.REROUTE, scope="dependent-services"),
        ActionTemplate(ActionKind.OPEN_REPAIR_TICKET),
    )
    return StrategyTable(
        entries={
            FaultClass.PHYSICAL_FAILURE: reroute_then_ticket,
            FaultClass.INTERFACE_TRAFFIC_DROP: reroute_then_ticket,
            FaultClass.OPENFLOW_AGENT_CRASH: (
                ActionTemplate(ActionKind.RESTART_OPENFLOW_AGENT),
            ),
            FaultClass.SERVICE_FAULT: (ActionTemplate(ActionKind.RESTART_SERVICE),),
            FaultClass.CONTROLLER_CRASH: (
                ActionTemplate(ActionKind.CONTROLLER_FAILOVER),
            ),
        }
    )


_TEMPLATE_KEYS = frozenset({"kind", "scope"})
_read = Reader(PlanError)


def strategy_table_from_dict(doc: dict) -> StrategyTable:
    """Merge a strategy override document over the default table.

    A template takes only `kind` and `scope`; any other key is a `PlanError`,
    and so is an entry whose plan could not run (see `_check_entry`).
    """
    entries = dict(default_strategy_table().entries)
    for name, templates in _read.object(doc, "strategy").items():
        fc = _read.member(FaultClass, name, "unknown fault class")
        entries[fc] = tuple([
            ActionTemplate(
                _read.member(ActionKind, tpl.get("kind"), "unknown action kind"),
                _read.string(tpl.get("scope", "target"), "scope"),
            )
            for tpl in _read.objects(templates, "action template", _TEMPLATE_KEYS)
        ])
        _check_entry(fc, entries[fc])
    return StrategyTable(entries=entries)


def select_strategy(
    diagnosis: Diagnosis, topology: Topology, table: StrategyTable
) -> list[RecoveryAction]:
    """Instantiate the table entry for the top diagnosed fault.

    Dependent-services scope expands into one action per service whose
    path runs through the target (`Topology.services_through`, the index
    the propagation table reads), in lexicographic service order,
    each carrying the remaining templates as its fallback chain. When no
    service depends on the target the fallback chain runs directly.
    """
    if diagnosis.verdict is Verdict.INCONCLUSIVE:
        raise PlanError("inconclusive diagnosis; widen the evidence window instead")
    if not diagnosis.ranked:
        raise PlanError("diagnosis carries no fault hypothesis")
    fault_class, target = bndiag.parse_fault_var(diagnosis.ranked[0][0])
    templates = table.entries[fault_class]

    fallback: RecoveryAction | None = None
    for tpl in reversed(templates[1:]):
        fallback = RecoveryAction(kind=tpl.kind, target=target, fallback=fallback)

    primary = templates[0]
    if primary.scope == "dependent-services":
        actions = [
            RecoveryAction(
                kind=primary.kind,
                target=service_id,
                avoid=(target,),
                fallback=fallback,
            )
            for service_id in topology.services_through(target)
        ]
        if not actions:
            if fallback is None:
                raise PlanError(f"no dependent services and no fallback for {target}")
            actions = [fallback]
        return actions
    return [RecoveryAction(kind=primary.kind, target=target, fallback=fallback)]


Actuator = Callable[[RecoveryAction], ActionOutcome]


def execute_plan(plan: list[RecoveryAction], actuator: Actuator) -> list[ActionOutcome]:
    """Run a plan in order, chasing fallback chains.

    A failed action goes on to its fallback. So does a reroute that
    succeeds: it bypasses the fault, and the fault still needs its repair.
    Once an action succeeds for a target, later actions (including queued
    fallbacks) for that same target are skipped. Outcomes are returned in
    execution order and include fired fallbacks.
    """
    if not plan:
        raise PlanError("empty plan")
    outcomes: list[ActionOutcome] = []
    succeeded: set[str] = set()
    for action in plan:
        current: RecoveryAction | None = action
        while current is not None and current.target not in succeeded:
            outcome = actuator(current)
            outcomes.append(outcome)
            if outcome.status is OutcomeStatus.SUCCESS:
                succeeded.add(current.target)
                if current.kind is not ActionKind.REROUTE:
                    break
            current = current.fallback
    return outcomes


class ServiceProber(Protocol):
    """Polling surface the verifier drives: advance one tick, read states."""

    def advance(self) -> bool:
        """Move one tick forward; False when no more ticks are available."""

    def poll(self, service_id: str) -> ServiceState:
        """Current observed state of a service."""


def verify_recovery(
    services: Iterable[str], observer: ServiceProber, timeout: int
) -> bool:
    """True iff every named service reads up within `timeout` polls.

    One poll per tick, each preceded by a tick advance; an empty service
    set is vacuously recovered without consuming ticks.
    """
    if timeout < 1:
        raise ValueError(f"timeout must be >= 1 tick: {timeout}")
    pending = sorted(set(services))
    if not pending:
        return True
    for _ in range(timeout):
        if not observer.advance():
            return False
        if all(observer.poll(s) is ServiceState.UP for s in pending):
            return True
    return False
