import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import netmodel
from sdnheal.netmodel import Link, NodeKind, Topology, TopologyError

from topogen import random_topology


def test_load_t1_counts(t1):
    assert len(t1.nodes) == 6
    assert len(t1.links) == 5
    assert len(t1.services) == 1
    assert t1.controller_id == "c0"


def test_load_rejects_dangling_link_reference(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    doc["links"].append(
        {"id": "lx", "endpoints": ["s1", "sX"], "state": "up", "management": False}
    )
    with pytest.raises(TopologyError, match="dangling reference"):
        netmodel.load_topology(doc)


def test_load_rejects_multiple_controllers(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    doc["nodes"].append({"id": "c9", "kind": "controller", "state": "up"})
    with pytest.raises(TopologyError, match="multiple controllers"):
        netmodel.load_topology(doc)


def test_load_rejects_missing_controller(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    doc["nodes"] = [n for n in doc["nodes"] if n["id"] != "c0"]
    with pytest.raises(TopologyError, match="no controller"):
        netmodel.load_topology(doc)


def test_validate_t1_is_clean(t1):
    assert netmodel.validate_topology(t1) == []


def test_validate_names_broken_walk(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    # l3 does not connect s1, so hopping h1-la-s1-l3 breaks the walk
    doc["services"][0]["path"] = ["h1", "la", "s1", "l3", "s2", "lb", "h2"]
    with pytest.raises(TopologyError, match="path not a connected walk: v1"):
        netmodel.load_topology(doc)


def test_validate_names_duplicate_id(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    doc["nodes"].append({"id": "s1", "kind": "host", "state": "up"})
    violations = netmodel.validate_topology(
        netmodel.Topology(
            nodes=tuple(
                netmodel.NetworkNode(id=n["id"], kind=netmodel.NodeKind(n["kind"]))
                for n in doc["nodes"]
            ),
            links=(),
            services=(),
        )
    )
    assert "duplicate id: s1" in violations


def test_validate_flags_disconnected_data_plane(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    doc["nodes"].append({"id": "s9", "kind": "openflow-switch", "state": "up"})
    with pytest.raises(TopologyError, match="data plane not connected: s9"):
        netmodel.load_topology(doc)


def test_controller_without_links_is_allowed(t1):
    # T1's controller is out-of-band and has no modeled links at all
    assert not any("c0" in l.endpoints for l in t1.links)
    assert netmodel.validate_topology(t1) == []


def test_dependency_set_is_the_path(t1):
    # s1 and s2 are OpenFlow switches, yet installed flows keep forwarding
    # without the controller, so c0 is not a dependency
    assert netmodel.dependency_set(t1, "v1") == {
        "h1", "la", "s1", "l1", "s2", "lb", "h2",
    }


def test_dependency_set_single_host_path():
    topo = netmodel.Topology(
        nodes=(
            netmodel.NetworkNode(id="c0", kind=NodeKind.CONTROLLER),
            netmodel.NetworkNode(id="h1", kind=NodeKind.HOST),
        ),
        links=(),
        services=(
            netmodel.Service(id="v9", path=("h1",)),
        ),
    )
    assert netmodel.dependency_set(topo, "v9") == {"h1"}


def test_dependency_set_unknown_service(t1):
    with pytest.raises(TopologyError, match="unknown service"):
        netmodel.dependency_set(t1, "vX")


def test_find_path_shortest(t1):
    assert netmodel.find_path(t1, "h1", "h2") == [
        "h1", "la", "s1", "l1", "s2", "lb", "h2",
    ]


def test_find_path_uses_backup_branch(t1):
    assert netmodel.find_path(t1, "h1", "h2", {"l1"}) == [
        "h1", "la", "s1", "l2", "s3", "l3", "s2", "lb", "h2",
    ]


def test_find_path_exhausted(t1):
    assert netmodel.find_path(t1, "h1", "h2", {"l1", "l2"}) is None


def test_find_path_unknown_endpoint(t1):
    with pytest.raises(TopologyError, match="unknown node"):
        netmodel.find_path(t1, "h1", "zz")


def test_find_path_ignores_management_links(t1_doc):
    doc = json.loads(json.dumps(t1_doc))
    # a tempting management shortcut h1-h2 must not carry data paths
    doc["links"].append(
        {"id": "l0", "endpoints": ["h1", "h2"], "state": "up", "management": True}
    )
    topo = netmodel.load_topology(doc)
    assert netmodel.find_path(topo, "h1", "h2") == [
        "h1", "la", "s1", "l1", "s2", "lb", "h2",
    ]


def test_find_path_same_node(t1):
    assert netmodel.find_path(t1, "h1", "h1") == ["h1"]


def _brute_force_min_hops(topo, src, dst, avoid):
    """Exhaustive simple-path search, independent of find_path's BFS."""
    usable_nodes = {n.id for n in topo.nodes if n.id not in avoid}
    best = [None]

    def explore(node, hops, visited):
        if node == dst:
            if best[0] is None or hops < best[0]:
                best[0] = hops
            return
        for link in topo.links:
            if link.management or link.id in avoid or node not in link.endpoints:
                continue
            a, b = link.endpoints
            other = b if node == a else a
            if other in visited or other not in usable_nodes:
                continue
            explore(other, hops + 1, visited | {other})

    if src in usable_nodes:
        explore(src, 0, {src})
    return best[0]


def test_find_path_minimality_against_exhaustive_search():
    for seed in range(8):
        topo = random_topology(seed, n_nodes=9, n_services=0)
        hosts = [n.id for n in topo.nodes if n.kind is NodeKind.HOST]
        for avoid in (set(), {topo.links[0].id}):
            got = netmodel.find_path(topo, hosts[0], hosts[1], avoid)
            want = _brute_force_min_hops(topo, hosts[0], hosts[1], avoid)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert len(got) // 2 == want
            _assert_valid_walk(topo, got, avoid)


def _assert_valid_walk(topo, walk, avoid):
    assert len(walk) % 2 == 1
    for i, hop in enumerate(walk):
        assert hop not in avoid
        if i % 2 == 1:
            assert set(topo.link(hop).endpoints) == {walk[i - 1], walk[i + 1]}


def _reference_find_path(t, src, dst, avoid):
    """find_path as a search of its own: the adjacency of every node
    rebuilt and sorted on each call."""
    if src in avoid or dst in avoid:
        return None
    if src == dst:
        return [src]
    adjacency = {n.id: [] for n in t.nodes}
    for l in t.links:
        if l.management or l.id in avoid:
            continue
        a, b = l.endpoints
        adjacency[a].append((b, l.id))
        adjacency[b].append((a, l.id))
    for entries in adjacency.values():
        entries.sort()
    parent = {}
    seen = {src}
    frontier = deque([src])
    while frontier:
        current = frontier.popleft()
        if current == dst:
            break
        for neighbor, link_id in adjacency[current]:
            if neighbor in seen or neighbor in avoid:
                continue
            seen.add(neighbor)
            parent[neighbor] = (current, link_id)
            frontier.append(neighbor)
    if dst not in seen:
        return None
    walk = [dst]
    while walk[-1] != src:
        prev, link_id = parent[walk[-1]]
        walk += [link_id, prev]
    return walk[::-1]


def _reference_connectivity(t):
    """The data-plane check as a search of its own over the non-controller
    nodes and the non-management links between them."""
    data_nodes = {n.id for n in t.nodes if n.kind is not NodeKind.CONTROLLER}
    if len(data_nodes) <= 1:
        return []
    adjacency = {n: set() for n in data_nodes}
    for l in t.links:
        a, b = l.endpoints
        if not l.management and a in data_nodes and b in data_nodes:
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
    return ["data plane not connected: " + ", ".join(unreachable)] if unreachable else []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=4, max_value=30),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=0, max_value=4),
)
def test_one_search_walks_as_a_per_call_search(seed, n_nodes, drop, extra):
    """On a topology with links dropped and management links, controller
    links and links to unknown nodes added: every walk, tie-breaks
    included, and the connectivity verdict are those of a search that
    builds its own adjacency, and a link to an unknown node carries
    nothing."""
    rng = random.Random(seed)
    base = random_topology(seed, n_nodes=n_nodes, n_services=0)
    node_ids = [n.id for n in base.nodes]
    kept = [l for l in base.links if rng.random() >= drop]
    added = [
        *(Link(id=f"m{i:03d}", endpoints=tuple(rng.sample(node_ids, 2)), management=True)
          for i in range(extra)),
        *(Link(id=f"k{i:03d}", endpoints=("c0", rng.choice(node_ids[1:])),
               management=rng.random() < 0.5)
          for i in range(extra)),
    ]
    dangling = [
        Link(id=f"d{i:03d}", endpoints=(rng.choice(node_ids), f"x{i}"))
        for i in range(extra)
    ]
    topo = Topology(nodes=base.nodes, links=(*kept, *added, *dangling), services=())
    without_dangling = Topology(nodes=base.nodes, links=(*kept, *added), services=())

    connectivity = [
        v for v in netmodel.validate_topology(topo) if v.startswith("data plane")
    ]
    assert connectivity == _reference_connectivity(topo)

    component_ids = node_ids + [l.id for l in topo.links]
    for _ in range(20):
        src, dst = rng.choice(node_ids), rng.choice(node_ids)
        avoid = set(rng.sample(component_ids, rng.randrange(4)))
        assert netmodel.find_path(topo, src, dst, avoid) == _reference_find_path(
            without_dangling, src, dst, avoid
        )


def test_set_component_state_point_update(t1):
    changed = netmodel.set_component_state(t1, "l1", "down")
    assert changed.link("l1").state is netmodel.LinkState.DOWN
    diff = [
        l.id for l in changed.links if l != t1.link(l.id)
    ] + [n.id for n in changed.nodes if n != t1.node(n.id)] + [
        s.id for s in changed.services if s != t1.service(s.id)
    ]
    assert diff == ["l1"]
    assert t1.link("l1").state is netmodel.LinkState.UP  # input untouched


def test_set_component_state_idempotent(t1):
    assert netmodel.set_component_state(t1, "l1", "up") == t1


def test_set_component_state_unknown(t1):
    with pytest.raises(TopologyError, match="unknown component"):
        netmodel.set_component_state(t1, "zz", "down")


def test_set_component_state_invalid_for_category(t1):
    with pytest.raises(TopologyError, match="invalid link state"):
        netmodel.set_component_state(t1, "l1", "degraded")


def test_dependency_set_contains_path(t1):
    for seed in range(5):
        topo = random_topology(seed, n_nodes=20, n_services=3)
        all_ids = (
            {n.id for n in topo.nodes}
            | {l.id for l in topo.links}
            | {s.id for s in topo.services}
        )
        for service in topo.services:
            deps = netmodel.dependency_set(topo, service.id)
            assert set(service.path) <= deps
            assert deps <= all_ids
