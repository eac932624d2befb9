"""Seeded random topology generation for property and acceptance tests."""

import random

from sdnheal import netmodel
from sdnheal.netmodel import (
    Link,
    NetworkNode,
    NodeKind,
    Service,
    Topology,
)

INFRA_KINDS = [NodeKind.OPENFLOW_SWITCH, NodeKind.LEGACY_ROUTER, NodeKind.ACCESS_POINT]


def random_topology(
    seed: int,
    n_nodes: int = 50,
    n_services: int = 10,
    max_path_links: int = 5,
) -> Topology:
    """Connected random topology: one controller, a dense infrastructure
    mesh, hosts on access links, and services between host pairs."""
    rng = random.Random(seed)
    nodes = [NetworkNode(id="c0", kind=NodeKind.CONTROLLER)]
    n_hosts = max(2, int(n_nodes * 0.3))
    n_infra = max(2, n_nodes - 1 - n_hosts)

    infra_ids = []
    for i in range(n_infra):
        kind = rng.choices(INFRA_KINDS, weights=[6, 3, 1])[0]
        nid = f"n{i:02d}"
        infra_ids.append(nid)
        nodes.append(NetworkNode(id=nid, kind=kind))
    host_ids = [f"h{i:02d}" for i in range(n_hosts)]
    nodes.extend(NetworkNode(id=h, kind=NodeKind.HOST) for h in host_ids)

    links: list[Link] = []
    present: set[frozenset] = set()

    def add_link(a: str, b: str) -> None:
        if a == b or frozenset((a, b)) in present:
            return
        present.add(frozenset((a, b)))
        links.append(Link(id=f"e{len(links):03d}", endpoints=(a, b)))

    for i, nid in enumerate(infra_ids[1:], start=1):
        add_link(nid, infra_ids[rng.randrange(i)])
    for _ in range(n_infra):
        add_link(*rng.sample(infra_ids, 2))
    for h in host_ids:
        add_link(h, infra_ids[rng.randrange(len(infra_ids))])

    bare = Topology(nodes=tuple(nodes), links=tuple(links), services=())
    services: list[Service] = []
    tries = 0
    while len(services) < n_services and tries < 50 * n_services:
        tries += 1
        src, dst = rng.sample(host_ids, 2)
        path = netmodel.find_path(bare, src, dst)
        if path is None or len(path) // 2 > max_path_links:
            continue
        # a client draw, kept so that every seed keeps its topology
        rng.sample(host_ids, k=min(3, len(host_ids)))
        services.append(Service(id=f"v{len(services):02d}", path=tuple(path)))
    return Topology(nodes=tuple(nodes), links=tuple(links), services=tuple(services))
