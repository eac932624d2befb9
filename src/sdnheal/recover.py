"""Recovery planning and execution.

A strategy table maps each fault class to an ordered list of action
templates: the first is the primary action, the rest are fallbacks tried
in order when the primary fails. Plans are instantiated against the
concrete diagnosed target, executed through an actuator callable, and
checked by polling the affected services until they read up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Protocol

from . import bndiag, netmodel
from .bndiag import Diagnosis, Verdict
from .netmodel import ServiceState, Topology
from .taxonomy import FaultClass


class PlanError(ValueError):
    """No executable plan can be produced for this diagnosis."""


class ActionKind(str, Enum):
    REROUTE = "reroute"
    RESTART_SERVICE = "restart-service"
    RESTART_OPENFLOW_AGENT = "restart-openflow-agent"
    CONTROLLER_FAILOVER = "controller-failover"
    LOAD_BALANCE_AP = "load-balance-ap"
    OPEN_REPAIR_TICKET = "open-repair-ticket"


class OutcomeStatus(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class RecoveryAction:
    kind: ActionKind
    target: str
    params: dict = field(default_factory=dict)
    fallback: "RecoveryAction | None" = None


@dataclass(frozen=True)
class ActionOutcome:
    action: RecoveryAction
    status: OutcomeStatus
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status is OutcomeStatus.FAILURE and not self.detail:
            raise ValueError("failure outcome requires a detail message")


@dataclass(frozen=True)
class ActionTemplate:
    kind: ActionKind
    scope: str = "target"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scope not in ("target", "dependent-services"):
            raise PlanError(
                f"unknown action scope {self.scope!r} "
                "(expected target or dependent-services)"
            )


@dataclass(frozen=True)
class StrategyTable:
    entries: dict[FaultClass, tuple[ActionTemplate, ...]]

    def __post_init__(self) -> None:
        missing = [fc.value for fc in FaultClass if fc not in self.entries]
        if missing:
            raise PlanError("strategy table not total, missing: " + ", ".join(missing))


def default_strategy_table() -> StrategyTable:
    """Built-in fault-class to action mapping (overridable via document).

    Outages of shared infrastructure reroute every dependent service and
    fall back to a repair ticket; the control-plane and service faults map
    to their dedicated restart/failover action.
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


def strategy_table_from_dict(doc: dict | None) -> StrategyTable:
    """Merge a strategy override document over the default table."""
    table = default_strategy_table()
    if not doc:
        return table
    entries = dict(table.entries)
    for class_name, templates in doc.items():
        fc = FaultClass(class_name)
        parsed = []
        for tpl in templates:
            extra = {
                k: v for k, v in tpl.items() if k not in ("kind", "scope")
            }
            parsed.append(
                ActionTemplate(
                    kind=ActionKind(tpl["kind"]),
                    scope=tpl.get("scope", "target"),
                    params=extra,
                )
            )
        if not parsed:
            raise PlanError(f"empty strategy entry for {class_name}")
        entries[fc] = tuple(parsed)
    return StrategyTable(entries=entries)


def _instantiate(tpl: ActionTemplate, target: str, fallback: RecoveryAction | None
                 ) -> RecoveryAction:
    return RecoveryAction(
        kind=tpl.kind, target=target, params=dict(tpl.params), fallback=fallback
    )


def select_strategy(
    diagnosis: Diagnosis, topology: Topology, table: StrategyTable
) -> list[RecoveryAction]:
    """Instantiate the table entry for the top diagnosed fault.

    Dependent-services scope expands into one action per service whose
    dependency set contains the target, in lexicographic service order,
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
        fallback = _instantiate(tpl, target, fallback)

    primary = templates[0]
    if primary.scope == "dependent-services":
        dependents = sorted(
            s.id
            for s in topology.services
            if target in netmodel.dependency_set(topology, s.id)
        )
        actions = [
            RecoveryAction(
                kind=primary.kind,
                target=service_id,
                params={"avoid": (target,), **primary.params},
                fallback=fallback,
            )
            for service_id in dependents
        ]
        if not actions:
            if fallback is None:
                raise PlanError(f"no dependent services and no fallback for {target}")
            actions = [fallback]
        return actions
    return [_instantiate(primary, target, fallback)]


Actuator = Callable[[RecoveryAction], ActionOutcome]


def execute_plan(plan: list[RecoveryAction], actuator: Actuator) -> list[ActionOutcome]:
    """Run a plan in order, chasing fallback chains on failure.

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
        while current is not None:
            if current.target in succeeded:
                break
            outcome = actuator(current)
            outcomes.append(outcome)
            if outcome.status is OutcomeStatus.SUCCESS:
                succeeded.add(current.target)
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
