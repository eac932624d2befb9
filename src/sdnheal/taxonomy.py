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
    out: list[tuple[Symptom, str]] = []
    nodes, links, services = topology.nodes, topology.links, topology.services
    switches = [n for n in nodes if n.kind is NodeKind.OPENFLOW_SWITCH]
    monitored = [n for n in nodes if include_hosts or n.kind is not NodeKind.HOST]

    out.extend((Symptom.LINK_DOWN, l.id) for l in links)
    out.extend((Symptom.NODE_UNREACHABLE, n.id) for n in monitored)
    out.extend((Symptom.OF_SESSION_LOST, s.id) for s in switches)
    out.extend((Symptom.TRAFFIC_DROP, l.id) for l in links)
    out.extend((Symptom.SERVICE_DOWN, v.id) for v in services)
    out.extend((Symptom.SLA_VIOLATION, v.id) for v in services)
    return out


Effect = tuple[Symptom, str]  # (symptom, emitter)


def effects(
    topology: Topology, fault_class: FaultClass, target: str
) -> tuple[list[Effect], list[Effect]]:
    """The fault-propagation table: what one fault on `target` raises.

    `direct` are the alarms the simulator emits while the fault is active,
    and the diagnosis network's edges at p-direct; `indirect` are symptoms
    the fault only makes plausible, its edges at p-indirect. Below, `l*`
    ranges over the links incident to the node, `v*` over the services
    whose path runs through the target.

        fault                      direct                indirect
        physical-failure(link l)   link-down(l),         sla-violation(v*)
                                   traffic-drop(l),
                                   service-down(v*)
        physical-failure(node n)   node-unreachable(n),  traffic-drop(l*),
                                   link-down(l*),        of-session-lost(n) if
                                   service-down(v*)      n is an OpenFlow switch,
                                                         sla-violation(v*)
        openflow-agent-crash(s)    of-session-lost(s)    service-down(v*),
                                                         sla-violation(v*)
        interface-traffic-drop(l)  traffic-drop(l),      -
                                   sla-violation(v*)
        service-fault(v)           service-down(v)       sla-violation(v)
        controller-crash           of-session-lost(s)    -
                                   per OpenFlow switch

    An agent crash severs the control session only; installed flows keep
    forwarding, so it raises no service symptom for certain. Hosts are
    treated like any node; whether they are monitored is the vocabulary's
    concern (`symptom_vocabulary`).
    """
    through = topology.services_through(target)
    if fault_class is FaultClass.PHYSICAL_FAILURE:
        direct = [(Symptom.SERVICE_DOWN, v) for v in through]
        indirect = [(Symptom.SLA_VIOLATION, v) for v in through]
        if netmodel.component_category(topology, target) == "link":
            direct += ((Symptom.LINK_DOWN, target), (Symptom.TRAFFIC_DROP, target))
        else:
            direct.append((Symptom.NODE_UNREACHABLE, target))
            for link in topology.incident_links(target):
                direct.append((Symptom.LINK_DOWN, link))
                indirect.append((Symptom.TRAFFIC_DROP, link))
            if topology.node(target).kind is NodeKind.OPENFLOW_SWITCH:
                indirect.append((Symptom.OF_SESSION_LOST, target))
    elif fault_class is FaultClass.INTERFACE_TRAFFIC_DROP:
        direct = [(Symptom.SLA_VIOLATION, v) for v in through]
        direct.append((Symptom.TRAFFIC_DROP, target))
        indirect = []
    elif fault_class is FaultClass.OPENFLOW_AGENT_CRASH:
        direct = [(Symptom.OF_SESSION_LOST, target)]
        indirect = [(Symptom.SERVICE_DOWN, v) for v in through]
        indirect += [(Symptom.SLA_VIOLATION, v) for v in through]
    elif fault_class is FaultClass.SERVICE_FAULT:
        direct = [(Symptom.SERVICE_DOWN, target)]
        indirect = [(Symptom.SLA_VIOLATION, target)]
    else:  # controller crash
        switches = (n for n in topology.nodes if n.kind is NodeKind.OPENFLOW_SWITCH)
        direct = [(Symptom.OF_SESSION_LOST, n.id) for n in switches]
        indirect = []
    return direct, indirect


def is_compatible(topology: Topology, target: str, fault: FaultClass) -> bool:
    kind = netmodel.component_category(topology, target)
    if kind is None:
        return False
    if fault is FaultClass.PHYSICAL_FAILURE:
        return kind in ("node", "link")
    if fault is FaultClass.SERVICE_FAULT:
        return kind == "service"
    if fault is FaultClass.OPENFLOW_AGENT_CRASH:
        return kind == "node" and topology.node(target).kind is NodeKind.OPENFLOW_SWITCH
    if fault is FaultClass.INTERFACE_TRAFFIC_DROP:
        return kind == "link"
    if fault is FaultClass.CONTROLLER_CRASH:
        return kind == "node" and topology.node(target).kind is NodeKind.CONTROLLER
    return False
