"""SDN topology and service model.

A topology is a set of typed nodes (one controller, OpenFlow switches,
legacy routers, access points, hosts), links between them, and services
deployed as explicit node/link walks from a source host to a sink host.
All values are immutable; every operation returns a new value.

The JSON document format (schema-version 1) carries each entry's fields
verbatim:

    {"schema-version": 1,
     "nodes":    [{"id": "c0", "kind": "controller", "state": "up"}, ...],
     "links":    [{"id": "l1", "endpoints": ["s1", "s2"], "state": "up",
                   "management": false}, ...],
     "services": [{"id": "v1", "kind": "streaming",
                   "path": ["h1", "la", "s1", "l1", "s2", "lb", "h2"],
                   "clients": ["h1"], "state": "up"}, ...]}
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

SCHEMA_VERSION = 1


class TopologyError(ValueError):
    """Raised when a topology document cannot be parsed or validated."""


class NodeKind(str, Enum):
    CONTROLLER = "controller"
    OPENFLOW_SWITCH = "openflow-switch"
    LEGACY_ROUTER = "legacy-router"
    ACCESS_POINT = "access-point"
    HOST = "host"


class NodeState(str, Enum):
    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


class LinkState(str, Enum):
    UP = "up"
    DOWN = "down"


class ServiceKind(str, Enum):
    STREAMING = "streaming"
    GENERIC = "generic"


class ServiceState(str, Enum):
    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass(frozen=True)
class NetworkNode:
    id: str
    kind: NodeKind
    state: NodeState = NodeState.UP


@dataclass(frozen=True)
class Link:
    """Bidirectional link; `management` marks out-of-band control links."""

    id: str
    endpoints: tuple[str, str]
    state: LinkState = LinkState.UP
    management: bool = False

    def __post_init__(self) -> None:
        # Endpoints are an unordered pair; normalize for stable equality.
        object.__setattr__(self, "endpoints", tuple(sorted(self.endpoints)))


@dataclass(frozen=True)
class Service:
    id: str
    kind: ServiceKind
    path: tuple[str, ...]
    clients: frozenset[str]
    state: ServiceState = ServiceState.UP


@dataclass(frozen=True)
class Topology:
    nodes: tuple[NetworkNode, ...]
    links: tuple[Link, ...]
    services: tuple[Service, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda x: x.id)))
        object.__setattr__(self, "links", tuple(sorted(self.links, key=lambda x: x.id)))
        object.__setattr__(
            self, "services", tuple(sorted(self.services, key=lambda x: x.id))
        )

    @cached_property
    def _nodes_by_id(self) -> dict[str, NetworkNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _links_by_id(self) -> dict[str, Link]:
        return {l.id: l for l in self.links}

    @cached_property
    def _services_by_id(self) -> dict[str, Service]:
        return {s.id: s for s in self.services}

    @cached_property
    def _services_through(self) -> dict[str, tuple[str, ...]]:
        through: dict[str, list[str]] = {}
        for s in self.services:
            for hop in dict.fromkeys(s.path):
                through.setdefault(hop, []).append(s.id)
        return {hop: tuple(ids) for hop, ids in through.items()}

    @cached_property
    def _incident_links(self) -> dict[str, tuple[str, ...]]:
        incident: dict[str, list[str]] = {}
        for l in self.links:
            for end in l.endpoints:
                incident.setdefault(end, []).append(l.id)
        return {node: tuple(ids) for node, ids in incident.items()}

    def services_through(self, cid: str) -> tuple[str, ...]:
        """Ids of the services whose path runs through a component, in id order."""
        return self._services_through.get(cid, ())

    def incident_links(self, node_id: str) -> tuple[str, ...]:
        """Ids of the links that have the node as an endpoint, in id order."""
        return self._incident_links.get(node_id, ())

    def node(self, node_id: str) -> NetworkNode:
        return self._nodes_by_id[node_id]

    def link(self, link_id: str) -> Link:
        return self._links_by_id[link_id]

    def service(self, service_id: str) -> Service:
        return self._services_by_id[service_id]

    @property
    def controller_id(self) -> str:
        for n in self.nodes:
            if n.kind is NodeKind.CONTROLLER:
                return n.id
        raise TopologyError("no controller")


def component_category(t: Topology, cid: str) -> str | None:
    """'node', 'link', 'service', or None if the id is unknown."""
    if cid in t._nodes_by_id:
        return "node"
    if cid in t._links_by_id:
        return "link"
    if cid in t._services_by_id:
        return "service"
    return None


def _parse_enum(enum_cls, raw, what: str):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise TopologyError(f"invalid {what} {raw!r} (expected one of: {valid})")


def load_topology(doc: dict) -> Topology:
    """Parse and validate a decoded topology document.

    Decoding JSON text is the caller's job (`cli` reads every file).
    """
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a JSON object")
    version = doc.get("schema-version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise TopologyError(f"unsupported schema-version: {version}")

    nodes = []
    for entry in doc.get("nodes", []):
        nodes.append(
            NetworkNode(
                id=str(entry["id"]),
                kind=_parse_enum(NodeKind, entry.get("kind"), "node kind"),
                state=_parse_enum(NodeState, entry.get("state", "up"), "node state"),
            )
        )
    links = []
    for entry in doc.get("links", []):
        endpoints = entry.get("endpoints", [])
        if len(endpoints) != 2:
            raise TopologyError(f"link {entry.get('id')!r} needs exactly 2 endpoints")
        links.append(
            Link(
                id=str(entry["id"]),
                endpoints=(str(endpoints[0]), str(endpoints[1])),
                state=_parse_enum(LinkState, entry.get("state", "up"), "link state"),
                management=bool(entry.get("management", False)),
            )
        )
    services = []
    for entry in doc.get("services", []):
        services.append(
            Service(
                id=str(entry["id"]),
                kind=_parse_enum(ServiceKind, entry.get("kind", "generic"), "service kind"),
                path=tuple(str(p) for p in entry.get("path", [])),
                clients=frozenset(str(c) for c in entry.get("clients", [])),
                state=_parse_enum(
                    ServiceState, entry.get("state", "up"), "service state"
                ),
            )
        )

    topology = Topology(nodes=tuple(nodes), links=tuple(links), services=tuple(services))
    violations = validate_topology(topology)
    if violations:
        raise TopologyError("; ".join(violations))
    return topology


def validate_topology(t: Topology) -> list[str]:
    """Check all topology invariants; returns one message per violation.

    The data-plane connectivity check ignores the controller and management
    links: the controller talks to the data plane out-of-band, so it may
    legitimately have no modeled links at all.
    """
    violations: list[str] = []

    seen: set[str] = set()
    for cid in (
        [n.id for n in t.nodes] + [l.id for l in t.links] + [s.id for s in t.services]
    ):
        if not cid:
            violations.append("empty component id")
        if cid in seen:
            violations.append(f"duplicate id: {cid}")
        seen.add(cid)

    controllers = [n.id for n in t.nodes if n.kind is NodeKind.CONTROLLER]
    if len(controllers) == 0:
        violations.append("no controller")
    elif len(controllers) > 1:
        violations.append("multiple controllers: " + ", ".join(sorted(controllers)))

    node_ids = {n.id for n in t.nodes}
    for l in t.links:
        for end in l.endpoints:
            if end not in node_ids:
                violations.append(f"dangling reference: link {l.id} endpoint {end}")
        if l.endpoints[0] == l.endpoints[1]:
            violations.append(f"self-loop link: {l.id}")

    link_ids = {l.id for l in t.links}
    for s in t.services:
        violations.extend(_validate_path(t, s, node_ids, link_ids))
        for c in s.clients:
            if c not in node_ids:
                violations.append(f"dangling reference: service {s.id} client {c}")
            elif t.node(c).kind is not NodeKind.HOST:
                violations.append(f"client not a host: {s.id}/{c}")

    violations.extend(_validate_connectivity(t))
    return violations


def _validate_path(
    t: Topology, s: Service, node_ids: set[str], link_ids: set[str]
) -> list[str]:
    violations = []
    for hop in s.path:
        if hop not in node_ids and hop not in link_ids:
            violations.append(f"dangling reference: service {s.id} path member {hop}")
            return violations
    if not s.path:
        violations.append(f"empty path: {s.id}")
        return violations
    if len(s.path) % 2 == 0:
        violations.append(f"path not a connected walk: {s.id}")
        return violations
    for i, hop in enumerate(s.path):
        expected = node_ids if i % 2 == 0 else link_ids
        if hop not in expected:
            violations.append(f"path not a connected walk: {s.id}")
            return violations
    for i in range(1, len(s.path), 2):
        link = t.link(s.path[i])
        if set(link.endpoints) != {s.path[i - 1], s.path[i + 1]}:
            violations.append(f"path not a connected walk: {s.id}")
            return violations
    for end in (s.path[0], s.path[-1]):
        if t.node(end).kind is not NodeKind.HOST:
            violations.append(f"path endpoint not a host: {s.id}/{end}")
    return violations


def _validate_connectivity(t: Topology) -> list[str]:
    data_nodes = {
        n.id
        for n in t.nodes
        if n.kind is not NodeKind.CONTROLLER and n.state is NodeState.UP
    }
    if len(data_nodes) <= 1:
        return []
    adjacency: dict[str, set[str]] = {n: set() for n in data_nodes}
    for l in t.links:
        if l.management or l.state is not LinkState.UP:
            continue
        a, b = l.endpoints
        if a in data_nodes and b in data_nodes:
            adjacency[a].add(b)
            adjacency[b].add(a)
    start = min(data_nodes)
    seen = {start}
    frontier = deque([start])
    while frontier:
        for other in adjacency[frontier.popleft()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    unreachable = sorted(data_nodes - seen)
    if unreachable:
        return ["data plane not connected: " + ", ".join(unreachable)]
    return []


def dependency_set(t: Topology, service_id: str) -> set[str]:
    """Components a service depends on.

    Every node and link on the service path, plus the controller whenever
    any OpenFlow switch is on the path (the controller installs and owns
    those switches' forwarding state).
    """
    try:
        service = t.service(service_id)
    except KeyError:
        raise TopologyError(f"unknown service: {service_id}")
    deps = set(service.path)
    on_path_switches = [
        hop
        for hop in service.path
        if hop in t._nodes_by_id and t.node(hop).kind is NodeKind.OPENFLOW_SWITCH
    ]
    if on_path_switches:
        deps.add(t.controller_id)
    return deps


def find_path(
    t: Topology, src: str, dst: str, avoid: set[str] | frozenset[str] = frozenset()
) -> list[str] | None:
    """Minimum-hop node/link walk from src to dst, or None if unreachable.

    Only components that are up and outside `avoid` are used; management
    links never carry data paths. Ties are broken by expanding neighbors
    in lexicographic (neighbor id, link id) order, so the result is
    deterministic.
    """
    for endpoint in (src, dst):
        if endpoint not in t._nodes_by_id:
            raise TopologyError(f"unknown node: {endpoint}")
    if src in avoid or dst in avoid:
        return None
    if t.node(src).state is not NodeState.UP or t.node(dst).state is not NodeState.UP:
        return None
    if src == dst:
        return [src]

    adjacency: dict[str, list[tuple[str, str]]] = {n.id: [] for n in t.nodes}
    for l in t.links:
        if l.management or l.state is not LinkState.UP or l.id in avoid:
            continue
        a, b = l.endpoints
        adjacency[a].append((b, l.id))
        adjacency[b].append((a, l.id))
    for entries in adjacency.values():
        entries.sort()

    usable = {
        n.id for n in t.nodes if n.state is NodeState.UP and n.id not in avoid
    }
    parent: dict[str, tuple[str, str]] = {}
    seen = {src}
    frontier = deque([src])
    while frontier:
        current = frontier.popleft()
        if current == dst:
            break
        for neighbor, link_id in adjacency[current]:
            if neighbor in seen or neighbor not in usable:
                continue
            seen.add(neighbor)
            parent[neighbor] = (current, link_id)
            frontier.append(neighbor)
    if dst not in seen:
        return None

    walk = [dst]
    current = dst
    while current != src:
        prev, link_id = parent[current]
        walk.append(link_id)
        walk.append(prev)
        current = prev
    walk.reverse()
    return walk


def set_component_state(t: Topology, cid: str, state: str) -> Topology:
    """Return a topology identical to t except for one component's state."""
    category = component_category(t, cid)
    if category is None:
        raise TopologyError(f"unknown component: {cid}")
    if category == "node":
        new = replace(t.node(cid), state=_parse_enum(NodeState, state, "node state"))
        return replace(t, nodes=tuple(new if n.id == cid else n for n in t.nodes))
    if category == "link":
        new = replace(t.link(cid), state=_parse_enum(LinkState, state, "link state"))
        return replace(t, links=tuple(new if l.id == cid else l for l in t.links))
    new = replace(
        t.service(cid), state=_parse_enum(ServiceState, state, "service state")
    )
    return replace(t, services=tuple(new if s.id == cid else s for s in t.services))


def replace_service_path(t: Topology, service_id: str, path: tuple[str, ...]) -> Topology:
    """Return a topology with one service's path swapped out."""
    if service_id not in t._services_by_id:
        raise TopologyError(f"unknown service: {service_id}")
    new = replace(t.service(service_id), path=tuple(path))
    return replace(t, services=tuple(new if s.id == service_id else s for s in t.services))
