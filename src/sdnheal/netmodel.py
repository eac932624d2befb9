"""SDN topology and service model.

A topology is a set of typed nodes (one controller, OpenFlow switches,
legacy routers, access points, hosts), links between them, and services
deployed as explicit node/link walks from a source host to a sink host.
It describes structure only: what is broken is the simulator's record
(`simkernel.SimState.active_faults`), and no code reads a component's
`state`. All values are immutable; every operation returns a new value.

The JSON document format (schema-version 1) carries each entry's fields
verbatim, read as `docread` types them; a `state`, when present, must be
"up":

    {"schema-version": 1,
     "nodes":    [{"id": "c0", "kind": "controller", "state": "up"}, ...],
     "links":    [{"id": "l1", "endpoints": ["s1", "s2"], "state": "up",
                   "management": false}, ...],
     "services": [{"id": "v1",
                   "path": ["h1", "la", "s1", "l1", "s2", "lb", "h2"],
                   "state": "up"}, ...]}

Keys the model does not hold, such as a service's `kind` or `clients`,
are ignored.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .docread import Reader
from .records import Frozen

class TopologyError(ValueError):
    """Raised when a topology document cannot be parsed or validated."""


_read = Reader(TopologyError)


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


class ServiceState(str, Enum):
    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


class NetworkNode(NamedTuple):
    id: str
    kind: NodeKind
    state: NodeState = NodeState.UP


class _Link(NamedTuple):
    id: str
    endpoints: tuple[str, str]
    state: LinkState = LinkState.UP
    management: bool = False


class Link(Frozen, _Link):
    """Bidirectional link; `management` marks out-of-band control links."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Link:
        # Endpoints are an unordered pair; normalize for stable equality.
        link = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, (link.id, tuple(sorted(link.endpoints)), *link[2:]))


class Service(NamedTuple):
    id: str
    path: tuple[str, ...]
    state: ServiceState = ServiceState.UP


class _Topology(NamedTuple):
    nodes: tuple[NetworkNode, ...]
    links: tuple[Link, ...]
    services: tuple[Service, ...]


def _by_id(records) -> tuple:
    return tuple(sorted(records, key=lambda x: x.id))


class Topology(Frozen, _Topology):
    def __new__(cls, nodes, links, services) -> Topology:
        return super().__new__(cls, _by_id(nodes), _by_id(links), _by_id(services))

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

    @cached_property
    def _adjacency(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Per node, its sorted (neighbour id, link id) pairs over the links
        that can carry data: not management, and both ends nodes."""
        adjacency: dict[str, list[tuple[str, str]]] = {n.id: [] for n in self.nodes}
        for l in self.links:
            a, b = l.endpoints
            if not l.management and a in adjacency and b in adjacency:
                adjacency[a].append((b, l.id))
                adjacency[b].append((a, l.id))
        return {node: tuple(sorted(pairs)) for node, pairs in adjacency.items()}

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


def load_topology(doc: dict) -> Topology:
    """Parse and validate a decoded topology document.

    Decoding JSON text is the caller's job (`cli` reads every file).
    """
    doc = _read.versioned(doc, "topology document")
    for key, what in (("nodes", "node"), ("links", "link"), ("services", "service")):
        # nothing reads a component's state, so an entry may not claim another
        for entry in _read.objects(doc.get(key, []), what):
            if entry.get("state", "up") != "up":
                raise TopologyError(f"invalid {what} state {entry['state']!r} (expected: up)")
    nodes = [
        NetworkNode(
            _read.string(entry.get("id"), "node id"),
            _read.member(NodeKind, entry.get("kind"), "invalid node kind"),
        )
        for entry in doc.get("nodes", [])
    ]
    links = []
    for entry in doc.get("links", []):
        link = Link(
            _read.string(entry.get("id"), "link id"),
            _read.strings(entry.get("endpoints"), "endpoints"),
            management=_read.boolean(entry.get("management", False), "management"),
        )
        if len(link.endpoints) != 2:
            raise TopologyError(f"link {link.id!r} needs exactly 2 endpoints")
        links.append(link)
    services = [
        Service(
            _read.string(entry.get("id"), "service id"),
            _read.strings(entry.get("path", []), "path"),
        )
        for entry in doc.get("services", [])
    ]

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

    violations.extend(_validate_connectivity(t))
    return violations


def _validate_path(
    t: Topology, s: Service, node_ids: set[str], link_ids: set[str]
) -> list[str]:
    path = s.path
    for hop in path:
        if hop not in node_ids and hop not in link_ids:
            return [f"dangling reference: service {s.id} path member {hop}"]
    if not path:
        return [f"empty path: {s.id}"]
    # nodes at even positions, and each link between the nodes it joins
    if len(path) % 2 == 0 or any(
        hop not in (node_ids if i % 2 == 0 else link_ids) for i, hop in enumerate(path)
    ) or any(
        set(t.link(path[i]).endpoints) != {path[i - 1], path[i + 1]}
        for i in range(1, len(path), 2)
    ):
        return [f"path not a connected walk: {s.id}"]
    if path[0] == path[-1]:  # so every path holds a link
        return [f"path endpoints are one host: {s.id}/{path[0]}"]
    return [
        f"path endpoint not a host: {s.id}/{end}"
        for end in (path[0], path[-1])
        if t.node(end).kind is not NodeKind.HOST
    ] + [  # a management link never carries a data path
        f"path uses a management link: {s.id}/{lid}"
        for lid in path[1::2]
        if t.link(lid).management
    ]


def _validate_connectivity(t: Topology) -> list[str]:
    controllers = {n.id for n in t.nodes if n.kind is NodeKind.CONTROLLER}
    data_nodes = {n.id for n in t.nodes} - controllers
    if len(data_nodes) <= 1:
        return []
    unreachable = sorted(data_nodes - _search(t, min(data_nodes), controllers).keys())
    if unreachable:
        return ["data plane not connected: " + ", ".join(unreachable)]
    return []


def _search(
    t: Topology, src: str, avoid: set[str] | frozenset[str], dst: str | None = None
) -> dict[str, tuple[str, str] | None]:
    """Breadth-first search of the data plane from src that skips every
    neighbour and link in `avoid` and stops once dst is reached. Maps each
    reached node to the (previous node, link) it was first reached by."""
    reached: dict[str, tuple[str, str] | None] = {src: None}
    frontier = deque([src])
    while frontier and dst not in reached:
        current = frontier.popleft()
        for neighbor, link_id in t._adjacency[current]:
            if neighbor in reached or neighbor in avoid or link_id in avoid:
                continue
            reached[neighbor] = (current, link_id)
            frontier.append(neighbor)
    return reached


def dependency_set(t: Topology, service_id: str) -> set[str]:
    """Components a service depends on: the nodes and links on its path.

    The controller is not one of them, even with OpenFlow switches on the
    path: installed flows keep forwarding without it, as the propagation
    table (`taxonomy.effects`) has it. So the services that depend on a
    component are `Topology.services_through(component)`.
    """
    try:
        return set(t.service(service_id).path)
    except KeyError:
        raise TopologyError(f"unknown service: {service_id}")


def find_path(
    t: Topology, src: str, dst: str, avoid: set[str] | frozenset[str] = frozenset()
) -> list[str] | None:
    """Minimum-hop node/link walk from src to dst, or None if unreachable.

    Only components outside `avoid` are used; management links never
    carry data paths. Ties are broken by expanding neighbors in
    lexicographic (neighbor id, link id) order, so the result is
    deterministic.
    """
    for endpoint in (src, dst):
        if endpoint not in t._nodes_by_id:
            raise TopologyError(f"unknown node: {endpoint}")
    if src in avoid or dst in avoid:
        return None
    if src == dst:
        return [src]
    reached = _search(t, src, avoid, dst)
    if dst not in reached:
        return None
    walk = [dst]
    while walk[-1] != src:
        prev, link_id = reached[walk[-1]]
        walk += (link_id, prev)
    return walk[::-1]


# component category -> the Topology field that holds it, and its states
_STATES = {"node": ("nodes", NodeState), "link": ("links", LinkState),
           "service": ("services", ServiceState)}


def set_component_state(t: Topology, cid: str, state: str) -> Topology:
    """Return a topology identical to t except for one component's state."""
    category = component_category(t, cid)
    if category is None:
        raise TopologyError(f"unknown component: {cid}")
    field, kind = _STATES[category]
    new = _read.member(kind, state, f"invalid {category} state")
    return t._replace(**{field: tuple(
        c._replace(state=new) if c.id == cid else c for c in getattr(t, field)
    )})


def replace_service_path(t: Topology, service_id: str, path: tuple[str, ...]) -> Topology:
    """Return a topology with one service's path swapped out."""
    if service_id not in t._services_by_id:
        raise TopologyError(f"unknown service: {service_id}")
    new = t.service(service_id)._replace(path=tuple(path))
    return t._replace(services=tuple(new if s.id == service_id else s for s in t.services))
