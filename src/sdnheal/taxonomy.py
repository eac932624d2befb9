"""Shared fault and alarm taxonomy.

Alarms come at three levels (service, transport, physical) and every
symptom kind belongs to exactly one level. Fault classes name the things
that can break; they are kept here, below both the simulator and the
diagnosis engine, so that both sides speak the same vocabulary. Which
symptoms a fault raises is decided here too (`effects`), once for both.
"""

from __future__ import annotations

from enum import Enum

from . import netmodel
from .netmodel import NodeKind, Topology


class FaultClass(str, Enum):
    PHYSICAL_FAILURE = "physical-failure"
    SERVICE_FAULT = "service-fault"
    OPENFLOW_AGENT_CRASH = "openflow-agent-crash"
    INTERFACE_TRAFFIC_DROP = "interface-traffic-drop"
    CONTROLLER_CRASH = "controller-crash"


class AlarmLevel(str, Enum):
    SERVICE = "service"
    TRANSPORT = "transport"
    PHYSICAL = "physical"


class Symptom(str, Enum):
    LINK_DOWN = "link-down"
    NODE_UNREACHABLE = "node-unreachable"
    OF_SESSION_LOST = "of-session-lost"
    TRAFFIC_DROP = "traffic-drop"
    SERVICE_DOWN = "service-down"
    SLA_VIOLATION = "sla-violation"


# The members that the vocabulary and the propagation table read, as module
# names: on Python 3.11 `Symptom.LINK_DOWN` goes through
# `EnumType.__getattr__` (about 0.15 us a lookup), and `effects` runs once
# per fault in every network build.
_LINK_DOWN = Symptom.LINK_DOWN
_NODE_UNREACHABLE = Symptom.NODE_UNREACHABLE
_OF_SESSION_LOST = Symptom.OF_SESSION_LOST
_TRAFFIC_DROP = Symptom.TRAFFIC_DROP
_SERVICE_DOWN = Symptom.SERVICE_DOWN
_SLA_VIOLATION = Symptom.SLA_VIOLATION
_PHYSICAL_FAILURE = FaultClass.PHYSICAL_FAILURE
_INTERFACE_TRAFFIC_DROP = FaultClass.INTERFACE_TRAFFIC_DROP
_OPENFLOW_AGENT_CRASH = FaultClass.OPENFLOW_AGENT_CRASH
_SERVICE_FAULT = FaultClass.SERVICE_FAULT
_HOST = NodeKind.HOST
_SWITCH = NodeKind.OPENFLOW_SWITCH

# Fixed (level, symptom) pairing: physical symptoms come from equipment
# monitoring, transport symptoms from the control/forwarding machinery,
# service symptoms from the service manager.
LEVEL_OF_SYMPTOM: dict[Symptom, AlarmLevel] = {
    Symptom.LINK_DOWN: AlarmLevel.PHYSICAL,
    Symptom.NODE_UNREACHABLE: AlarmLevel.PHYSICAL,
    Symptom.OF_SESSION_LOST: AlarmLevel.TRANSPORT,
    Symptom.TRAFFIC_DROP: AlarmLevel.TRANSPORT,
    Symptom.SERVICE_DOWN: AlarmLevel.SERVICE,
    Symptom.SLA_VIOLATION: AlarmLevel.SERVICE,
}


def symptom_vocabulary(
    topology: Topology, include_hosts: bool = False
) -> list[tuple[Symptom, str]]:
    """All (symptom, emitter) pairs the monitoring stack can report for a topology.

    Hosts are excluded by default: end hosts sit outside the operator's
    repair domain, so no monitored symptom is attributed to them. The
    ordering is deterministic (symptom declaration order, then emitter id,
    which is the order a `Topology` keeps).
    """
    nodes = topology.nodes
    links = [l.id for l in topology.links]
    services = [v.id for v in topology.services]
    monitored = [n.id for n in nodes if include_hosts or n.kind is not _HOST]
    switches = [n.id for n in nodes if n.kind is _SWITCH]
    out: list[tuple[Symptom, str]] = [(_LINK_DOWN, l) for l in links]
    out += [(_NODE_UNREACHABLE, n) for n in monitored]
    out += [(_OF_SESSION_LOST, s) for s in switches]
    out += [(_TRAFFIC_DROP, l) for l in links]
    out += [(_SERVICE_DOWN, v) for v in services]
    out += [(_SLA_VIOLATION, v) for v in services]
    return out


def fault_targets(
    topology: Topology, fault_class: FaultClass, include_hosts: bool = True
) -> list[str]:
    """The ids a fault of the class can strike, nodes before links, in
    `Topology` order. A scenario may fail a host; the diagnosis network
    leaves hosts out unless it sets `include_hosts`, as its vocabulary does.
    """
    if fault_class is _PHYSICAL_FAILURE:
        nodes = [n.id for n in topology.nodes if include_hosts or n.kind is not _HOST]
        return nodes + [l.id for l in topology.links]
    if fault_class is _INTERFACE_TRAFFIC_DROP:
        return [l.id for l in topology.links]
    if fault_class is _OPENFLOW_AGENT_CRASH:
        return [n.id for n in topology.nodes if n.kind is _SWITCH]
    if fault_class is _SERVICE_FAULT:
        return [v.id for v in topology.services]
    # controller crash
    return [n.id for n in topology.nodes if n.kind is NodeKind.CONTROLLER]


Effect = tuple[Symptom, str]  # (symptom, emitter)


def effects(topology: Topology, fault_class: FaultClass, target: str) -> list[Effect]:
    """The fault-propagation table: the alarms one fault on `target` raises.

    The simulator emits them while the fault is active, and each is an
    edge of the diagnosis network at p-direct: both sides read one model.
    Below, `l*` ranges over the links incident to the node, `v*` over the
    services whose path runs through the target.

        fault                      alarms
        physical-failure(link l)   link-down(l), traffic-drop(l),
                                   service-down(v*)
        physical-failure(node n)   node-unreachable(n), link-down(l*),
                                   service-down(v*)
        openflow-agent-crash(s)    of-session-lost(s)
        interface-traffic-drop(l)  traffic-drop(l), sla-violation(v*)
        service-fault(v)           service-down(v)
        controller-crash           of-session-lost(s) per OpenFlow switch

    An agent crash severs the control session only; installed flows keep
    forwarding, so it raises no service symptom. Hosts are treated like
    any node; whether they are monitored is the vocabulary's concern
    (`symptom_vocabulary`).
    """
    if fault_class is _PHYSICAL_FAILURE:
        out = [(_SERVICE_DOWN, v) for v in topology.services_through(target)]
        if netmodel.component_category(topology, target) == "link":
            out += ((_LINK_DOWN, target), (_TRAFFIC_DROP, target))
        else:
            out.append((_NODE_UNREACHABLE, target))
            out += [(_LINK_DOWN, link) for link in topology.incident_links(target)]
        return out
    if fault_class is _INTERFACE_TRAFFIC_DROP:
        out = [(_SLA_VIOLATION, v) for v in topology.services_through(target)]
        out.append((_TRAFFIC_DROP, target))
        return out
    if fault_class is _OPENFLOW_AGENT_CRASH:
        return [(_OF_SESSION_LOST, target)]
    if fault_class is _SERVICE_FAULT:
        return [(_SERVICE_DOWN, target)]
    # controller crash
    return [(_OF_SESSION_LOST, n.id) for n in topology.nodes if n.kind is _SWITCH]
