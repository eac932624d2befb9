"""Deterministic discrete-time network simulator.

Stands in for the NMS, the service manager, and the managed network:
faults are injected on schedule, every tick each active fault emits the
alarms of the generative table below, service status probes answer from
the current topology state, and recovery actuations mutate it.

Generative alarm table (per tick, per active fault):

    physical-failure(link l)   link-down(l), traffic-drop(l),
                               service-down(v) for services with l on path
    physical-failure(node n)   node-unreachable(n), link-down per incident
                               link, service-down for services with n on path
    openflow-agent-crash(s)    of-session-lost(s)
    interface-traffic-drop(l)  traffic-drop(l), sla-violation(v) for
                               services with l on path
    service-fault(v)           service-down(v)
    controller-crash           of-session-lost(s) for every OpenFlow switch

An agent crash severs the control session only; installed flows keep
forwarding, so no service symptom is generated for it. In stochastic mode
each alarm is independently dropped with the configured loss probability
and spurious alarms are drawn (Poisson-distributed per tick) uniformly
from the topology's symptom vocabulary, all from the seeded generator.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from . import netmodel, taxonomy
from .alarmpipe import RawAlarm
from .netmodel import (
    LinkState,
    NodeKind,
    NodeState,
    ServiceState,
    Topology,
)
from .recover import ActionKind, ActionOutcome, OutcomeStatus, RecoveryAction
from .taxonomy import FaultClass, Symptom

DEFAULT_REPAIR_DELAY = 5


class SimError(ValueError):
    """Invalid scenario, fault, or actuation request."""


class NoiseMode(str, Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class NoiseConfig:
    mode: NoiseMode = NoiseMode.DETERMINISTIC
    alarm_loss_probability: float = 0.0
    spurious_alarm_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alarm_loss_probability <= 1.0:
            raise SimError(
                f"alarm-loss-probability out of [0,1]: {self.alarm_loss_probability}"
            )
        if self.spurious_alarm_rate < 0.0:
            raise SimError(f"spurious-alarm-rate negative: {self.spurious_alarm_rate}")
        if self.mode is NoiseMode.DETERMINISTIC and (
            self.alarm_loss_probability or self.spurious_alarm_rate
        ):
            raise SimError("deterministic mode forces loss and spurious rates to 0")


@dataclass(frozen=True)
class FaultEvent:
    target: str
    fault_class: FaultClass
    at_tick: int


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    faults: tuple[FaultEvent, ...] = ()
    noise: NoiseConfig = NoiseConfig()
    seed: int = 0
    horizon: int = 100
    repair_delay: int = DEFAULT_REPAIR_DELAY


@dataclass(frozen=True)
class SimState:
    scenario: Scenario
    tick: int
    topology: Topology
    active_faults: frozenset[tuple[str, FaultClass]]
    # (component, ready-at tick, fault class to clear; None clears them all)
    repair_tickets: frozenset[tuple[str, int, FaultClass | None]]
    rng_state: tuple
    next_fault_index: int = 0


def load_scenario(document: str | dict, base_dir: Path | None = None) -> Scenario:
    """Parse a scenario document; `base_dir` resolves topology file refs."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SimError(f"malformed scenario document: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SimError("scenario document must be a JSON object")
    if doc.get("schema-version", 1) != 1:
        raise SimError(f"unsupported schema-version: {doc.get('schema-version')}")

    topo_entry = doc.get("topology")
    if isinstance(topo_entry, str):
        path = Path(topo_entry)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            topology = netmodel.load_topology(path.read_text())
        except OSError as exc:
            raise SimError(f"cannot read topology file {path}: {exc.strerror}") from exc
    elif isinstance(topo_entry, dict):
        topology = netmodel.load_topology(topo_entry)
    else:
        raise SimError("scenario needs a topology (inline object or file reference)")

    faults = []
    for entry in doc.get("faults", []):
        try:
            fault_class = FaultClass(entry["class"])
        except ValueError:
            raise SimError(f"unknown fault class: {entry.get('class')}")
        faults.append(
            FaultEvent(
                target=str(entry["target"]),
                fault_class=fault_class,
                at_tick=int(entry["at-tick"]),
            )
        )

    noise_doc = doc.get("noise", {})
    noise = NoiseConfig(
        mode=NoiseMode(noise_doc.get("mode", "deterministic")),
        alarm_loss_probability=float(noise_doc.get("alarm-loss-probability", 0.0)),
        spurious_alarm_rate=float(noise_doc.get("spurious-alarm-rate", 0.0)),
    )
    scenario = Scenario(
        topology=topology,
        faults=tuple(sorted(faults, key=lambda f: (f.at_tick, f.target))),
        noise=noise,
        seed=int(doc.get("seed", 0)),
        horizon=int(doc.get("horizon", 100)),
        repair_delay=int(doc.get("repair-delay", DEFAULT_REPAIR_DELAY)),
    )
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: Scenario) -> None:
    if s.horizon < 1:
        raise SimError(f"horizon must be at least 1 tick: {s.horizon}")
    if s.repair_delay < 1:
        raise SimError(f"repair-delay must be >= 1 tick: {s.repair_delay}")
    for fault in s.faults:
        if fault.at_tick < 0:
            raise SimError(f"fault at-tick negative: {fault.target}")
        if fault.at_tick >= s.horizon:
            raise SimError(
                f"fault at tick {fault.at_tick} on {fault.target} is outside "
                f"horizon {s.horizon}"
            )
        if not taxonomy.is_compatible(s.topology, fault.target, fault.fault_class):
            raise SimError(
                f"fault class {fault.fault_class.value} incompatible with "
                f"target {fault.target}"
            )


def init_sim(scenario: Scenario) -> SimState:
    """Fresh state at tick 0: no faults, every component up, seeded RNG."""
    _validate_scenario(scenario)
    topology = scenario.topology
    for node in topology.nodes:
        if node.state is not NodeState.UP:
            topology = netmodel.set_component_state(topology, node.id, "up")
    for link in topology.links:
        if link.state is not LinkState.UP:
            topology = netmodel.set_component_state(topology, link.id, "up")
    for service in topology.services:
        if service.state is not ServiceState.UP:
            topology = netmodel.set_component_state(topology, service.id, "up")
    rng = random.Random(scenario.seed)
    return SimState(
        scenario=scenario,
        tick=0,
        topology=topology,
        active_faults=frozenset(),
        repair_tickets=frozenset(),
        rng_state=rng.getstate(),
        next_fault_index=0,
    )


def _apply_fault(
    topology: Topology,
    active: set[tuple[str, FaultClass]],
    target: str,
    fault_class: FaultClass,
) -> Topology:
    active.add((target, fault_class))
    if fault_class is FaultClass.PHYSICAL_FAILURE:
        topology = netmodel.set_component_state(topology, target, "down")
    return topology


def inject_fault(state: SimState, fault: FaultEvent) -> SimState:
    """Activate a fault immediately (idempotent for repeats)."""
    if not taxonomy.is_compatible(state.topology, fault.target, fault.fault_class):
        raise SimError(
            f"fault class {fault.fault_class.value} incompatible with "
            f"target {fault.target}"
        )
    active = set(state.active_faults)
    topology = _apply_fault(state.topology, active, fault.target, fault.fault_class)
    return replace(state, topology=topology, active_faults=frozenset(active))


def symptoms_for_fault(
    topology: Topology, target: str, fault_class: FaultClass
) -> set[tuple[Symptom, str]]:
    """Generative table entry for one active fault (see module docstring)."""
    symptoms: set[tuple[Symptom, str]] = set()
    if fault_class is FaultClass.PHYSICAL_FAILURE:
        if netmodel.component_category(topology, target) == "link":
            symptoms.add((Symptom.LINK_DOWN, target))
            symptoms.add((Symptom.TRAFFIC_DROP, target))
        else:
            symptoms.add((Symptom.NODE_UNREACHABLE, target))
            for link in topology.links:
                if target in link.endpoints:
                    symptoms.add((Symptom.LINK_DOWN, link.id))
        for service in topology.services:
            if target in service.path:
                symptoms.add((Symptom.SERVICE_DOWN, service.id))
    elif fault_class is FaultClass.OPENFLOW_AGENT_CRASH:
        symptoms.add((Symptom.OF_SESSION_LOST, target))
    elif fault_class is FaultClass.INTERFACE_TRAFFIC_DROP:
        symptoms.add((Symptom.TRAFFIC_DROP, target))
        for service in topology.services:
            if target in service.path:
                symptoms.add((Symptom.SLA_VIOLATION, service.id))
    elif fault_class is FaultClass.SERVICE_FAULT:
        symptoms.add((Symptom.SERVICE_DOWN, target))
    elif fault_class is FaultClass.CONTROLLER_CRASH:
        for node in topology.nodes:
            if node.kind is NodeKind.OPENFLOW_SWITCH:
                symptoms.add((Symptom.OF_SESSION_LOST, node.id))
    return symptoms


_EVENT_OF_SYMPTOM = {
    Symptom.LINK_DOWN: ("sim-nms", "LINK_DOWN"),
    Symptom.NODE_UNREACHABLE: ("sim-nms", "NODE_UNREACHABLE"),
    Symptom.OF_SESSION_LOST: ("sim-nms", "OF_SESSION_LOST"),
    Symptom.TRAFFIC_DROP: ("sim-nms", "PKT_DROP"),
    Symptom.SERVICE_DOWN: ("sim-sm", "SERVICE_DOWN"),
    Symptom.SLA_VIOLATION: ("sim-sm", "SLA_BREACH"),
}


def _raw_alarm(symptom: Symptom, emitter: str, tick: int) -> RawAlarm:
    dialect, event = _EVENT_OF_SYMPTOM[symptom]
    return RawAlarm(dialect=dialect, payload={"emitter": emitter, "event": event}, tick=tick)


def _poisson(rng: random.Random, rate: float) -> int:
    if rate <= 0.0:
        return 0
    threshold = math.exp(-rate)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def step(state: SimState) -> tuple[SimState, list[RawAlarm]]:
    """Advance one tick: close due tickets, inject due faults, emit alarms."""
    scenario = state.scenario
    if state.tick >= scenario.horizon:
        raise SimError(f"horizon {scenario.horizon} exceeded")
    tick = state.tick + 1
    rng = random.Random()
    rng.setstate(state.rng_state)

    topology = state.topology
    active = set(state.active_faults)
    tickets = set(state.repair_tickets)
    # a repair ticket (fault class None) and a restart ticket can share a
    # component and a due tick, so the fault class needs an explicit key
    for ticket in sorted(tickets, key=lambda t: (t[0], t[1], "" if t[2] is None else t[2].value)):
        component, ready_at, fault_class = ticket
        if ready_at > tick:
            continue
        tickets.discard(ticket)
        if fault_class is None:
            active = {(c, fc) for (c, fc) in active if c != component}
            if netmodel.component_category(topology, component) in ("node", "link"):
                topology = netmodel.set_component_state(topology, component, "up")
        else:
            active.discard((component, fault_class))
            if fault_class is FaultClass.PHYSICAL_FAILURE:
                topology = netmodel.set_component_state(topology, component, "up")

    index = state.next_fault_index
    while index < len(scenario.faults) and scenario.faults[index].at_tick <= tick:
        fault = scenario.faults[index]
        topology = _apply_fault(topology, active, fault.target, fault.fault_class)
        index += 1

    symptoms: set[tuple[Symptom, str]] = set()
    for target, fault_class in active:
        symptoms |= symptoms_for_fault(topology, target, fault_class)

    noise = scenario.noise
    alarms: list[RawAlarm] = []
    for symptom, emitter in sorted(symptoms):
        if noise.mode is NoiseMode.STOCHASTIC and (
            rng.random() < noise.alarm_loss_probability
        ):
            continue
        alarms.append(_raw_alarm(symptom, emitter, tick))
    if noise.mode is NoiseMode.STOCHASTIC and noise.spurious_alarm_rate > 0.0:
        vocabulary = taxonomy.symptom_vocabulary(topology)
        for _ in range(_poisson(rng, noise.spurious_alarm_rate)):
            symptom, emitter = vocabulary[rng.randrange(len(vocabulary))]
            alarms.append(_raw_alarm(symptom, emitter, tick))

    new_state = replace(
        state,
        tick=tick,
        topology=topology,
        active_faults=frozenset(active),
        repair_tickets=frozenset(tickets),
        rng_state=rng.getstate(),
        next_fault_index=index,
    )
    return new_state, alarms


def observe_service(state: SimState, service_id: str) -> ServiceState:
    """Probe one service: down beats degraded beats up.

    Down iff a service fault is active on it or any path component is down;
    degraded iff a traffic drop is active on a path link. In stochastic
    mode the reading flips with the alarm-loss probability, using a
    counter-based generator so probing never perturbs the stepping RNG.
    """
    topology = state.topology
    try:
        service = topology.service(service_id)
    except KeyError:
        raise SimError(f"unknown service: {service_id}")

    truth = ServiceState.UP
    if (service_id, FaultClass.SERVICE_FAULT) in state.active_faults:
        truth = ServiceState.DOWN
    else:
        for hop in service.path:
            category = netmodel.component_category(topology, hop)
            if category == "node" and topology.node(hop).state is NodeState.DOWN:
                truth = ServiceState.DOWN
                break
            if category == "link" and topology.link(hop).state is LinkState.DOWN:
                truth = ServiceState.DOWN
                break
        else:
            for hop in service.path[1::2]:
                if (hop, FaultClass.INTERFACE_TRAFFIC_DROP) in state.active_faults:
                    truth = ServiceState.DEGRADED
                    break

    noise = state.scenario.noise
    if noise.mode is NoiseMode.STOCHASTIC and noise.alarm_loss_probability > 0.0:
        probe_rng = random.Random(
            f"{state.scenario.seed}|{state.tick}|observe|{service_id}"
        )
        if probe_rng.random() < noise.alarm_loss_probability:
            return ServiceState.DOWN if truth is ServiceState.UP else ServiceState.UP
    return truth


def _success(action: RecoveryAction, detail: str = "") -> ActionOutcome:
    return ActionOutcome(action=action, status=OutcomeStatus.SUCCESS, detail=detail)


def _failure(action: RecoveryAction, detail: str) -> ActionOutcome:
    return ActionOutcome(action=action, status=OutcomeStatus.FAILURE, detail=detail)


def apply_action(
    state: SimState, action: RecoveryAction
) -> tuple[SimState, ActionOutcome]:
    """Actuate one recovery action against the simulated network.

    Restart/failover actions clear their fault at the next tick (modeled
    as a one-tick repair ticket). Reroute swaps the service path now and
    reports failure when no alternative exists. Malformed actions (wrong
    target category, unknown ids) raise instead of returning failure.
    """
    topology = state.topology
    category = netmodel.component_category(topology, action.target)
    if category is None:
        raise SimError(f"unknown action target: {action.target}")
    tickets = set(state.repair_tickets)

    if action.kind is ActionKind.RESTART_SERVICE:
        if category != "service":
            raise SimError(f"restart-service target is not a service: {action.target}")
        tickets.add((action.target, state.tick + 1, FaultClass.SERVICE_FAULT))
        return replace(state, repair_tickets=frozenset(tickets)), _success(
            action, "service restart scheduled"
        )

    if action.kind is ActionKind.RESTART_OPENFLOW_AGENT:
        if (
            category != "node"
            or topology.node(action.target).kind is not NodeKind.OPENFLOW_SWITCH
        ):
            raise SimError(
                f"restart-openflow-agent target is not an OpenFlow switch: "
                f"{action.target}"
            )
        tickets.add((action.target, state.tick + 1, FaultClass.OPENFLOW_AGENT_CRASH))
        return replace(state, repair_tickets=frozenset(tickets)), _success(
            action, "agent restart scheduled"
        )

    if action.kind is ActionKind.CONTROLLER_FAILOVER:
        if (
            category != "node"
            or topology.node(action.target).kind is not NodeKind.CONTROLLER
        ):
            raise SimError(
                f"controller-failover target is not the controller: {action.target}"
            )
        tickets.add((action.target, state.tick + 1, FaultClass.CONTROLLER_CRASH))
        return replace(state, repair_tickets=frozenset(tickets)), _success(
            action, "standby controller promoted"
        )

    if action.kind is ActionKind.REROUTE:
        if category != "service":
            raise SimError(f"reroute target is not a service: {action.target}")
        service = topology.service(action.target)
        avoid = frozenset(action.params.get("avoid", ()))
        path = netmodel.find_path(topology, service.path[0], service.path[-1], avoid)
        if path is None:
            return state, _failure(action, "no alternative path")
        topology = netmodel.replace_service_path(topology, action.target, tuple(path))
        return replace(state, topology=topology), _success(
            action, "rerouted via " + "-".join(path)
        )

    if action.kind is ActionKind.LOAD_BALANCE_AP:
        return _load_balance_ap(state, action)

    if action.kind is ActionKind.OPEN_REPAIR_TICKET:
        delay = int(action.params.get("repair-delay", state.scenario.repair_delay))
        tickets.add((action.target, state.tick + delay, None))
        return replace(state, repair_tickets=frozenset(tickets)), _success(
            action, f"repair scheduled at tick {state.tick + delay}"
        )

    raise SimError(f"unknown action kind: {action.kind}")


def _load_balance_ap(
    state: SimState, action: RecoveryAction
) -> tuple[SimState, ActionOutcome]:
    """Re-home the named client hosts from one access point to another.

    Each client's access link is re-pointed at the destination AP and any
    service path running through the old attachment is recomputed.
    """
    topology = state.topology
    destination = action.params.get("destination")
    clients = list(action.params.get("clients", ()))
    for ap in (action.target, destination):
        if (
            ap is None
            or netmodel.component_category(topology, ap) != "node"
            or topology.node(ap).kind is not NodeKind.ACCESS_POINT
        ):
            raise SimError(f"load-balance-ap endpoint is not an access point: {ap}")
    if not clients:
        return state, _failure(action, "no clients named")

    moved_links = []
    links = {l.id: l for l in topology.links}
    for client in sorted(clients):
        attachment = next(
            (
                l
                for l in links.values()
                if set(l.endpoints) == {client, action.target} and not l.management
            ),
            None,
        )
        if attachment is None:
            return state, _failure(action, f"client {client} not attached to {action.target}")
        links[attachment.id] = replace(
            attachment, endpoints=(client, destination)
        )
        moved_links.append(attachment.id)

    topology = replace(topology, links=tuple(links.values()))
    for service in topology.services:
        if action.target in service.path and any(
            l in service.path for l in moved_links
        ):
            path = netmodel.find_path(
                topology, service.path[0], service.path[-1], frozenset()
            )
            if path is None:
                return state, _failure(
                    action, f"no path for service {service.id} after rebalance"
                )
            topology = netmodel.replace_service_path(topology, service.id, tuple(path))
    return replace(state, topology=topology), _success(
        action, f"clients moved to {destination}"
    )
