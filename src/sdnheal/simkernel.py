"""Deterministic discrete-time network simulator.

Stands in for the NMS, the service manager, and the managed network:
faults are injected on schedule, every tick the active faults raise the
alarms of the propagation table `taxonomy.effects` (`SimState.symptoms`),
whose entries are also the diagnosis network's edges, and service status
probes read the same set. A state holds the network's structure, the
active faults and the pending tickets; a component is down iff a physical
failure is active on it (`SimState.down`). Only `reroute` replaces
`SimState.topology`, when a service path changes.

Most ticks carry no news: no ticket or fault is due. Such a tick keeps
the previous state's `active_faults` and `repair_tickets` objects, and a
state whose faults and topology match its predecessor's (after any step
or any action that changes neither) starts with that state's cached
alarms (`symptoms` and their sorted `alarm_keys`) and `down` set, so
only an event pays for `taxonomy.effects`.

Under noise each alarm is independently dropped with the configured
loss probability and spurious alarms are drawn (Poisson-distributed per
tick) uniformly from the topology's symptom vocabulary, which is
computed once per scenario (`Scenario.vocabulary`).

Every draw is a keyed uniform (`_uniform`): a pure function of the
scenario seed, the tick, the draw's purpose and its key, as a
counter-based generator computes it (Salmon et al., *Parallel random
numbers: as easy as 1, 2, 3*, SC'11). So a state is a plain value with
no generator in it: stepping any state again gives an equal successor
and the same alarms, and a symptom's loss does not depend on which other
alarms fire that tick. A run whose two rates are 0 draws nothing.

A `Scenario` keeps its faults sorted by (tick, target) and is validated
when it is built, however it is built. The module does no file I/O:
`load_scenario` parses a decoded document with an inline topology.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from . import netmodel, taxonomy
from .alarmpipe import EVENT_OF_SYMPTOM, RawAlarm
from .docread import Reader
from .netmodel import ServiceState, Topology
from .records import Frozen
from .recover import (
    TARGET_CLASS, ActionKind, ActionOutcome, OutcomeStatus, RecoveryAction,
)
from .taxonomy import FaultClass, Symptom

DEFAULT_REPAIR_DELAY = 5
MAX_HORIZON = 10**6  # ticks; the loop steps every tick
# alarms per tick; above it exp(-rate), where the Poisson inversion starts,
# loses precision and then underflows
MAX_SPURIOUS_RATE = 700.0


class SimError(ValueError):
    """Invalid scenario, fault, or actuation request."""


class NoiseMode(str, Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


class _NoiseConfig(NamedTuple):
    alarm_loss_probability: float = 0.0
    spurious_alarm_rate: float = 0.0


class NoiseConfig(Frozen, _NoiseConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> NoiseConfig:
        noise = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= noise.alarm_loss_probability <= 1.0:
            raise SimError(
                f"alarm-loss-probability out of [0,1]: {noise.alarm_loss_probability}"
            )
        if not 0.0 <= noise.spurious_alarm_rate <= MAX_SPURIOUS_RATE:
            raise SimError(
                f"spurious-alarm-rate out of [0,{MAX_SPURIOUS_RATE:g}]: "
                f"{noise.spurious_alarm_rate}"
            )
        return noise


class FaultEvent(NamedTuple):
    target: str
    fault_class: FaultClass
    at_tick: int


class _Scenario(NamedTuple):
    topology: Topology
    faults: tuple[FaultEvent, ...] = ()
    noise: NoiseConfig = NoiseConfig()
    seed: int = 0
    horizon: int = 100
    repair_delay: int = DEFAULT_REPAIR_DELAY


class Scenario(Frozen, _Scenario):
    def __new__(cls, *args, **kwargs) -> Scenario:
        s = super().__new__(cls, *args, **kwargs)
        # `step` injects faults in this order
        faults = tuple(sorted(s.faults, key=lambda f: (f.at_tick, f.target)))
        s = tuple.__new__(cls, (s.topology, faults, *s[2:]))
        _validate_scenario(s)
        return s

    @cached_property
    def vocabulary(self) -> tuple[tuple[Symptom, str], ...]:
        """What spurious alarms are drawn from, for every state of the run.

        It depends only on component ids and node kinds, which a reroute
        does not alter.
        """
        return tuple(taxonomy.symptom_vocabulary(self.topology))


class _SimState(NamedTuple):
    scenario: Scenario
    tick: int
    topology: Topology
    active_faults: frozenset[tuple[str, FaultClass]]
    # (component, ready-at tick, fault class to clear; None clears them all)
    repair_tickets: frozenset[tuple[str, int, FaultClass | None]]
    next_fault_index: int = 0


class SimState(Frozen, _SimState):
    @cached_property
    def down(self) -> frozenset[str]:
        """The components with an active physical failure."""
        return frozenset(
            c for c, fc in self.active_faults if fc is FaultClass.PHYSICAL_FAILURE
        )

    @cached_property
    def symptoms(self) -> frozenset[tuple[Symptom, str]]:
        """The alarms the active faults raise (`taxonomy.effects`)."""
        return frozenset().union(*[
            taxonomy.effects(self.topology, fault_class, target)
            for target, fault_class in self.active_faults
        ])

    @cached_property
    def alarm_keys(self) -> tuple[tuple[Symptom, str], ...]:
        """`symptoms` sorted: the order a step emits them in."""
        return tuple(sorted(self.symptoms))


def _successor(state: SimState, **changes) -> SimState:
    """`state` with `changes`, built as `_replace` builds, without binding
    arguments.

    Every value a state caches follows from its faults and its topology:
    while they stay, the new state keeps `state`'s cached values instead
    of computing them again.
    """
    new = tuple.__new__(SimState, map(changes.pop, SimState._fields, state))
    if new.topology is state.topology and new.active_faults == state.active_faults:
        vars(new).update(vars(state))
    return new


_SCENARIO_KEYS = frozenset(
    {"schema-version", "topology", "faults", "noise", "seed", "horizon", "repair-delay"}
)
_FAULT_KEYS = frozenset({"target", "class", "at-tick"})
_NOISE_KEYS = frozenset({"mode", "alarm-loss-probability", "spurious-alarm-rate"})
_read = Reader(SimError)


def load_scenario(doc: dict) -> Scenario:
    """Parse a decoded scenario document whose topology is an inline object.

    No file is read here: `cli` swaps a topology file reference for the
    document it decodes before calling this.
    """
    doc = _read.versioned(doc, "scenario", _SCENARIO_KEYS)
    faults = [
        FaultEvent(
            _read.string(entry.get("target"), "fault target"),
            _read.member(FaultClass, entry.get("class"), "unknown fault class"),
            _read.integer(entry.get("at-tick"), "at-tick"),
        )
        for entry in _read.objects(doc.get("faults", []), "fault", _FAULT_KEYS)
    ]
    noise = _read.object(doc.get("noise", {}), "noise", _NOISE_KEYS)
    topology = netmodel.load_topology(doc.get("topology"))
    mode = _read.member(NoiseMode, noise.get("mode", "deterministic"), "unknown noise mode")
    rates = NoiseConfig(
        _read.number(noise.get("alarm-loss-probability", 0.0), "alarm-loss-probability"),
        _read.number(noise.get("spurious-alarm-rate", 0.0), "spurious-alarm-rate"),
    )
    if mode is NoiseMode.DETERMINISTIC and any(rates):  # the mode must agree
        raise SimError("deterministic mode forces loss and spurious rates to 0")
    return Scenario(
        topology,
        tuple(faults),
        rates,
        _read.integer(doc.get("seed", 0), "seed"),
        _read.integer(doc.get("horizon", 100), "horizon"),
        _read.integer(doc.get("repair-delay", DEFAULT_REPAIR_DELAY), "repair-delay"),
    )


def _validate_scenario(s: Scenario) -> None:
    if not 1 <= s.horizon <= MAX_HORIZON:
        raise SimError(f"horizon must be 1 to {MAX_HORIZON} ticks: {s.horizon}")
    if s.repair_delay < 1:
        raise SimError(f"repair-delay must be >= 1 tick: {s.repair_delay}")
    classes = {fault.fault_class for fault in s.faults}  # each class's targets, once
    targets = {fc: frozenset(taxonomy.fault_targets(s.topology, fc)) for fc in classes}
    for fault in s.faults:
        if fault.at_tick < 0:
            raise SimError(f"fault at-tick negative: {fault.target}")
        if fault.at_tick >= s.horizon:
            raise SimError(
                f"fault at tick {fault.at_tick} on {fault.target} is outside "
                f"horizon {s.horizon}"
            )
        if fault.target not in targets[fault.fault_class]:
            raise SimError(
                f"fault class {fault.fault_class.value} incompatible with "
                f"target {fault.target}"
            )


def init_sim(scenario: Scenario) -> SimState:
    """Fresh state at tick 0: the scenario's topology, no faults, no tickets."""
    return SimState(
        scenario=scenario,
        tick=0,
        topology=scenario.topology,
        active_faults=frozenset(),
        repair_tickets=frozenset(),
        next_fault_index=0,
    )


def _raw_alarm(symptom: Symptom, emitter: str, tick: int) -> RawAlarm:
    dialect, event = EVENT_OF_SYMPTOM[symptom]
    return RawAlarm(dialect, emitter, event, tick)


def _uniform(seed: int, tick: int, purpose: str, key: str) -> float:
    """One draw on [0, 1): the top 53 bits of the 8-byte BLAKE2b digest of
    `seed|tick|purpose|key`."""
    import hashlib  # only a stochastic run draws, so only it imports hashlib

    digest = hashlib.blake2b(f"{seed}|{tick}|{purpose}|{key}".encode(), digest_size=8)
    return (int.from_bytes(digest.digest(), "big") >> 11) * 2.0**-53


def _poisson(u: float, rate: float) -> int:
    """The Poisson(`rate`) count at the uniform `u`, by inversion: the least
    count whose CDF exceeds `u`. The sum stops once a term no longer adds
    to it (the term underflowed, or the tail is below rounding)."""
    count = 0
    p = cdf = math.exp(-rate)
    while cdf <= u:
        count += 1
        p *= rate / count
        if cdf + p == cdf:
            break
        cdf += p
    return count


def step(state: SimState) -> tuple[SimState, list[RawAlarm]]:
    """Advance one tick: close due tickets, inject due faults, emit alarms.

    Only the active faults and the tickets change, and only on a tick
    that closes a ticket or injects a fault; the topology is kept. The
    alarms are the new state's, each dropped on its own loss draw (keyed
    by the tick, the symptom and its emitter), then the tick's spurious
    alarms: a count drawn once per tick, and a vocabulary entry per index.
    """
    scenario = state.scenario
    if state.tick >= scenario.horizon:
        raise SimError(f"horizon {scenario.horizon} exceeded")
    tick = state.tick + 1

    active, tickets = state.active_faults, state.repair_tickets
    due = [ticket for ticket in tickets if ticket[1] <= tick]
    index = state.next_fault_index
    faults = scenario.faults
    if due or (index < len(faults) and faults[index].at_tick <= tick):
        active = set(active)
        if due:
            tickets = tickets.difference(due)
        for component, _, fault_class in due:
            if fault_class is None:
                active = {(c, fc) for (c, fc) in active if c != component}
            else:
                active.discard((component, fault_class))
        while index < len(faults) and faults[index].at_tick <= tick:
            fault = faults[index]
            active.add((fault.target, fault.fault_class))
            index += 1
        active = frozenset(active)

    new_state = _successor(
        state,
        tick=tick,
        active_faults=active,
        repair_tickets=tickets,
        next_fault_index=index,
    )
    # a noiseless scenario's rates are 0, so it draws nothing
    seed, noise = scenario.seed, scenario.noise
    loss, rate = noise.alarm_loss_probability, noise.spurious_alarm_rate
    emitted = new_state.alarm_keys
    if loss > 0.0:
        emitted = [
            (symptom, emitter) for symptom, emitter in emitted
            if not _uniform(seed, tick, "loss", f"{symptom.value}|{emitter}") < loss
        ]
    alarms = [_raw_alarm(symptom, emitter, tick) for symptom, emitter in emitted]
    if rate > 0.0:
        vocabulary = scenario.vocabulary
        for i in range(_poisson(_uniform(seed, tick, "spurious", ""), rate)):
            pick = _uniform(seed, tick, "pick", str(i))
            alarms.append(_raw_alarm(*vocabulary[int(pick * len(vocabulary))], tick))
    return new_state, alarms


def observe_service(state: SimState, service_id: str) -> ServiceState:
    """Probe one service: down beats degraded beats up.

    The truth is read from the state's alarms (`SimState.symptoms`): down
    iff they hold service-down for it, degraded iff sla-violation. With an
    alarm-loss probability above 0 the reading flips with that
    probability, on a draw keyed by the tick and the service, so a probe
    is the same however often and in whatever order the services are read.
    """
    if netmodel.component_category(state.topology, service_id) != "service":
        raise SimError(f"unknown service: {service_id}")

    if (Symptom.SERVICE_DOWN, service_id) in state.symptoms:
        truth = ServiceState.DOWN
    elif (Symptom.SLA_VIOLATION, service_id) in state.symptoms:
        truth = ServiceState.DEGRADED
    else:
        truth = ServiceState.UP

    scenario = state.scenario
    loss = scenario.noise.alarm_loss_probability
    if loss > 0.0 and _uniform(scenario.seed, state.tick, "probe", service_id) < loss:
        return ServiceState.DOWN if truth is ServiceState.UP else ServiceState.UP
    return truth


def _success(action: RecoveryAction, detail: str = "") -> ActionOutcome:
    return ActionOutcome(action=action, status=OutcomeStatus.SUCCESS, detail=detail)


def _failure(action: RecoveryAction, detail: str) -> ActionOutcome:
    return ActionOutcome(action=action, status=OutcomeStatus.FAILURE, detail=detail)


# what the targets of `TARGET_CLASS`'s fault classes are, for error messages
_TARGET_NAMES = {
    FaultClass.SERVICE_FAULT: "a service",
    FaultClass.OPENFLOW_AGENT_CRASH: "an OpenFlow switch",
    FaultClass.CONTROLLER_CRASH: "the controller",
}

# restart kind -> detail; it clears its target's fault of the class
# `TARGET_CLASS` gives
_RESTARTS = {
    ActionKind.RESTART_SERVICE: "service restart scheduled",
    ActionKind.RESTART_OPENFLOW_AGENT: "agent restart scheduled",
    ActionKind.CONTROLLER_FAILOVER: "standby controller promoted",
}


def apply_action(
    state: SimState, action: RecoveryAction
) -> tuple[SimState, ActionOutcome]:
    """Actuate one recovery action against the simulated network.

    Restart/failover actions clear their fault at the next tick (modeled
    as a one-tick repair ticket). Reroute swaps the service path now and
    reports failure when no alternative exists. A repair ticket clears
    every fault on its target after the scenario's repair delay. Malformed
    actions (wrong target category, unknown ids) raise instead of
    returning failure.
    """
    topology = state.topology
    if netmodel.component_category(topology, action.target) is None:
        raise SimError(f"unknown action target: {action.target}")
    fault_class = TARGET_CLASS.get(action.kind)
    if fault_class is not None and action.target not in taxonomy.fault_targets(
        topology, fault_class
    ):
        raise SimError(
            f"{action.kind.value} target is not {_TARGET_NAMES[fault_class]}: "
            f"{action.target}"
        )

    if action.kind in _RESTARTS:
        ticket = (action.target, state.tick + 1, fault_class)
        return _successor(state, repair_tickets=state.repair_tickets | {ticket}), _success(
            action, _RESTARTS[action.kind]
        )

    if action.kind is ActionKind.REROUTE:
        service = topology.service(action.target)
        avoid = state.down.union(action.avoid)
        path = netmodel.find_path(topology, service.path[0], service.path[-1], avoid)
        if path is None:
            return state, _failure(action, "no alternative path")
        topology = netmodel.replace_service_path(topology, action.target, tuple(path))
        return _successor(state, topology=topology), _success(
            action, "rerouted via " + "-".join(path)
        )

    if action.kind is ActionKind.OPEN_REPAIR_TICKET:
        ticket = (action.target, state.tick + state.scenario.repair_delay, None)
        return _successor(state, repair_tickets=state.repair_tickets | {ticket}), _success(
            action, f"repair scheduled at tick {ticket[1]}"
        )

    raise SimError(f"unknown action kind: {action.kind}")

