"""Deterministic discrete-time network simulator.

Stands in for the NMS, the service manager, and the managed network:
faults are injected on schedule, every tick the active faults raise their
direct effects as alarms (`SimState.symptoms`, from the propagation table
`taxonomy.effects`), and service status probes read the same set. A state
holds the network's structure, the active faults and the pending tickets;
a component is down iff a physical failure is active on it
(`SimState.down`). Only `reroute` and `load-balance-ap` replace
`SimState.topology`, when a service path changes.

In stochastic mode each alarm is independently dropped with the
configured loss probability and spurious alarms are drawn
(Poisson-distributed per tick) uniformly from the topology's symptom
vocabulary, all from the seeded generator.

A run draws from one live `random.Random`, seeded from the scenario by
`init_sim` (never from the OS). Each state holds it (`SimState.rng`), and
a stochastic step advances it in place and hands it to the state it
returns, so no generator state is copied per tick. Only the newest state
may draw from it or read it (`SimState.rng_state`, the 625-word
`getstate` tuple, which state equality compares): stepping or reading a
state after a later step has advanced its generator raises `SimError`
rather than silently drawing other numbers. A deterministic step draws
nothing and passes the hold on unchanged. The vocabulary is computed
once per scenario (`Scenario.vocabulary`).

A `Scenario` keeps its faults sorted by (tick, target) and is validated
when it is built, however it is built. The module does no file I/O:
`load_scenario` parses a decoded document with an inline topology.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from . import netmodel, taxonomy
from .alarmpipe import RawAlarm
from .netmodel import (
    NodeKind,
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

    def __post_init__(self) -> None:
        # `step` injects faults in this order
        faults = tuple(sorted(self.faults, key=lambda f: (f.at_tick, f.target)))
        object.__setattr__(self, "faults", faults)
        _validate_scenario(self)

    @cached_property
    def vocabulary(self) -> tuple[tuple[Symptom, str], ...]:
        """What spurious alarms are drawn from, for every state of the run.

        It depends only on component ids and node kinds, which no reroute
        or access-point re-homing alters.
        """
        return tuple(taxonomy.symptom_vocabulary(self.topology))


class RngHold:
    """One state's hold on its run's live generator, until a step advances it."""

    __slots__ = ("_rng", "_spent")

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._spent = False

    def live(self) -> random.Random:
        if self._spent:
            raise SimError("stale state: a later step has advanced its generator")
        return self._rng

    def advance(self) -> tuple[random.Random, RngHold]:
        """The generator to draw one step from, and the next state's hold."""
        rng = self.live()
        self._spent = True
        return rng, RngHold(rng)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RngHold):
            return NotImplemented
        return self.live().getstate() == other.live().getstate()

    def __hash__(self) -> int:
        return hash(self.live().getstate())

    def __repr__(self) -> str:
        return f"RngHold(spent={self._spent})"


@dataclass(frozen=True)
class SimState:
    scenario: Scenario
    tick: int
    topology: Topology
    active_faults: frozenset[tuple[str, FaultClass]]
    # (component, ready-at tick, fault class to clear; None clears them all)
    repair_tickets: frozenset[tuple[str, int, FaultClass | None]]
    rng: RngHold
    next_fault_index: int = 0

    @cached_property
    def down(self) -> frozenset[str]:
        """The components with an active physical failure."""
        return frozenset(
            c for c, fc in self.active_faults if fc is FaultClass.PHYSICAL_FAILURE
        )

    @cached_property
    def symptoms(self) -> frozenset[tuple[Symptom, str]]:
        """The alarms the active faults raise: their direct effects."""
        return frozenset().union(*[
            taxonomy.effects(self.topology, fault_class, target)[0]
            for target, fault_class in self.active_faults
        ])

    @property
    def rng_state(self) -> tuple:
        """The generator's state (`random.Random.getstate`) at this state."""
        return self.rng.live().getstate()


def load_scenario(doc: dict) -> Scenario:
    """Parse a decoded scenario document whose topology is an inline object.

    No file is read here: `cli` swaps a topology file reference for the
    document it decodes before calling this.
    """
    if not isinstance(doc, dict):
        raise SimError("scenario document must be a JSON object")
    if doc.get("schema-version", 1) != 1:
        raise SimError(f"unsupported schema-version: {doc.get('schema-version')}")
    if not isinstance(doc.get("topology"), dict):
        raise SimError("scenario needs a topology (inline object or file reference)")
    topology = netmodel.load_topology(doc["topology"])

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
    return Scenario(
        topology=topology,
        faults=tuple(faults),
        noise=noise,
        seed=int(doc.get("seed", 0)),
        horizon=int(doc.get("horizon", 100)),
        repair_delay=int(doc.get("repair-delay", DEFAULT_REPAIR_DELAY)),
    )


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
    """Fresh state at tick 0: no faults, every component state reset to up."""
    topology = scenario.topology
    for component in (*topology.nodes, *topology.links, *topology.services):
        if component.state.value != "up":
            topology = netmodel.set_component_state(topology, component.id, "up")
    return SimState(
        scenario=scenario,
        tick=0,
        topology=topology,
        active_faults=frozenset(),
        repair_tickets=frozenset(),
        rng=RngHold(random.Random(scenario.seed)),
        next_fault_index=0,
    )


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
    """Advance one tick: close due tickets, inject due faults, emit alarms.

    Only the active faults and the tickets change; the topology is kept.
    """
    scenario = state.scenario
    if state.tick >= scenario.horizon:
        raise SimError(f"horizon {scenario.horizon} exceeded")
    tick = state.tick + 1
    noise = scenario.noise
    stochastic = noise.mode is NoiseMode.STOCHASTIC
    hold = state.rng
    if stochastic:
        rng, hold = hold.advance()

    active = set(state.active_faults)
    due = [ticket for ticket in state.repair_tickets if ticket[1] <= tick]
    tickets = state.repair_tickets.difference(due) if due else state.repair_tickets
    for component, _, fault_class in due:
        if fault_class is None:
            active = {(c, fc) for (c, fc) in active if c != component}
        else:
            active.discard((component, fault_class))

    index = state.next_fault_index
    while index < len(scenario.faults) and scenario.faults[index].at_tick <= tick:
        fault = scenario.faults[index]
        active.add((fault.target, fault.fault_class))
        index += 1

    new_state = SimState(
        scenario=scenario,
        tick=tick,
        topology=state.topology,
        active_faults=frozenset(active),
        repair_tickets=tickets,
        rng=hold,
        next_fault_index=index,
    )
    if new_state.active_faults == state.active_faults:
        # same faults on the same topology: seed the cache with the alarms
        vars(new_state)["symptoms"] = state.symptoms
    emitted = sorted(new_state.symptoms)
    if stochastic:  # one loss draw per symptom, whatever the probability
        draw, loss = rng.random, noise.alarm_loss_probability
        emitted = [key for key in emitted if not draw() < loss]
    alarms = [_raw_alarm(symptom, emitter, tick) for symptom, emitter in emitted]
    if stochastic and noise.spurious_alarm_rate > 0.0:
        vocabulary = scenario.vocabulary
        for _ in range(_poisson(rng, noise.spurious_alarm_rate)):
            symptom, emitter = vocabulary[rng.randrange(len(vocabulary))]
            alarms.append(_raw_alarm(symptom, emitter, tick))
    return new_state, alarms


def observe_service(state: SimState, service_id: str) -> ServiceState:
    """Probe one service: down beats degraded beats up.

    The truth is read from the state's alarms (`SimState.symptoms`): down
    iff they hold service-down for it, degraded iff sla-violation. In
    stochastic mode the reading flips with the alarm-loss probability,
    using a counter-based generator so probing never perturbs the stepping
    RNG.
    """
    if netmodel.component_category(state.topology, service_id) != "service":
        raise SimError(f"unknown service: {service_id}")

    if (Symptom.SERVICE_DOWN, service_id) in state.symptoms:
        truth = ServiceState.DOWN
    elif (Symptom.SLA_VIOLATION, service_id) in state.symptoms:
        truth = ServiceState.DEGRADED
    else:
        truth = ServiceState.UP

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


# restart kind -> (fault class it clears, what its target must be, detail)
_RESTARTS = {
    ActionKind.RESTART_SERVICE:
        (FaultClass.SERVICE_FAULT, "a service", "service restart scheduled"),
    ActionKind.RESTART_OPENFLOW_AGENT:
        (FaultClass.OPENFLOW_AGENT_CRASH, "an OpenFlow switch", "agent restart scheduled"),
    ActionKind.CONTROLLER_FAILOVER:
        (FaultClass.CONTROLLER_CRASH, "the controller", "standby controller promoted"),
}


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

    if action.kind in _RESTARTS:
        fault_class, expected, detail = _RESTARTS[action.kind]
        if not taxonomy.is_compatible(topology, action.target, fault_class):
            raise SimError(
                f"{action.kind.value} target is not {expected}: {action.target}"
            )
        ticket = (action.target, state.tick + 1, fault_class)
        return replace(state, repair_tickets=state.repair_tickets | {ticket}), _success(
            action, detail
        )

    if action.kind is ActionKind.REROUTE:
        if category != "service":
            raise SimError(f"reroute target is not a service: {action.target}")
        service = topology.service(action.target)
        avoid = frozenset(action.params.get("avoid", ())) | state.down
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
        ticket = (action.target, state.tick + delay, None)
        return replace(state, repair_tickets=state.repair_tickets | {ticket}), _success(
            action, f"repair scheduled at tick {ticket[1]}"
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
                topology, service.path[0], service.path[-1], state.down
            )
            if path is None:
                return state, _failure(
                    action, f"no path for service {service.id} after rebalance"
                )
            topology = netmodel.replace_service_path(topology, service.id, tuple(path))
    return replace(state, topology=topology), _success(
        action, f"clients moved to {destination}"
    )
