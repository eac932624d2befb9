"""Seeded input generator for the benchmark.

Everything here is plain data: topology and scenario documents in the
package's JSON schema, built from `random.Random` streams. Nothing is
imported from `sdnheal` or from the test suite, so neither a program
change nor a test edit can change the inputs a seed stands for.
"""

from __future__ import annotations

import random
from collections import deque

# Kinds of infrastructure node, with their draw weights.
INFRA_KINDS = (("openflow-switch", 6), ("legacy-router", 3), ("access-point", 1))

# The package's six-node T1 fixture: controller c0, a switch triangle
# s1 s2 s3, hosts h1 h2, and streaming service v1 over h1-la-s1-l1-s2-lb-h2.
T1_TOPOLOGY = {
    "schema-version": 1,
    "nodes": [
        {"id": "c0", "kind": "controller", "state": "up"},
        {"id": "s1", "kind": "openflow-switch", "state": "up"},
        {"id": "s2", "kind": "openflow-switch", "state": "up"},
        {"id": "s3", "kind": "openflow-switch", "state": "up"},
        {"id": "h1", "kind": "host", "state": "up"},
        {"id": "h2", "kind": "host", "state": "up"},
    ],
    "links": [
        {"id": "l1", "endpoints": ["s1", "s2"], "state": "up", "management": False},
        {"id": "l2", "endpoints": ["s1", "s3"], "state": "up", "management": False},
        {"id": "l3", "endpoints": ["s3", "s2"], "state": "up", "management": False},
        {"id": "la", "endpoints": ["h1", "s1"], "state": "up", "management": False},
        {"id": "lb", "endpoints": ["h2", "s2"], "state": "up", "management": False},
    ],
    "services": [
        {
            "id": "v1",
            "kind": "streaming",
            "path": ["h1", "la", "s1", "l1", "s2", "lb", "h2"],
            "clients": ["h1"],
            "state": "up",
        }
    ],
}

# Every diagnosable target of every fault class on T1. Hosts carry no
# fault variable, so host failures are not diagnosable by design.
T1_TARGETS = (
    ("physical-failure", ("c0", "s1", "s2", "s3", "l1", "l2", "l3", "la", "lb")),
    ("service-fault", ("v1",)),
    ("openflow-agent-crash", ("s1", "s2", "s3")),
    ("interface-traffic-drop", ("l1", "l2", "l3", "la", "lb")),
    ("controller-crash", ("c0",)),
)

NOISE = {"mode": "stochastic", "alarm-loss-probability": 0.05, "spurious-alarm-rate": 0.01}
QUIET = {"mode": "deterministic", "alarm-loss-probability": 0.0, "spurious-alarm-rate": 0.0}


def _walk(adjacency: dict[str, list[tuple[str, str]]], src: str, dst: str) -> list[str] | None:
    """Minimum-hop node/link walk by breadth-first search, sorted expansion."""
    parent: dict[str, tuple[str, str]] = {}
    seen = {src}
    frontier = deque([src])
    while frontier:
        current = frontier.popleft()
        if current == dst:
            break
        for neighbor, link_id in adjacency[current]:
            if neighbor not in seen:
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


def topology_doc(seed: int, n_nodes: int, n_services: int, max_path_links: int = 5) -> dict:
    """A connected random topology document.

    One controller `c0` (no data links), an infrastructure mesh whose first
    node is always an OpenFlow switch, about 30% hosts on single access
    links, and `n_services` streaming services routed along min-hop walks
    of at most `max_path_links` links between distinct host pairs. When the
    services do not fit, the draw is repeated from a seed derived from
    `seed` and the attempt number.
    """
    for attempt in range(100):
        doc = _draw_topology(
            random.Random(seed if attempt == 0 else f"{seed}|{attempt}"),
            n_nodes, n_services, max_path_links,
        )
        if doc is not None:
            return doc
    raise ValueError(f"topology seed {seed}: {n_services} services never fit")


def _draw_topology(rng: random.Random, n_nodes: int, n_services: int,
                   max_path_links: int) -> dict | None:
    n_hosts = max(2, round(n_nodes * 0.3))
    n_infra = max(2, n_nodes - 1 - n_hosts)
    kinds, weights = zip(*INFRA_KINDS)
    infra = [f"n{i:02d}" for i in range(n_infra)]
    hosts = [f"h{i:02d}" for i in range(n_hosts)]
    nodes = [{"id": "c0", "kind": "controller"}]
    for i, nid in enumerate(infra):
        kind = "openflow-switch" if i == 0 else rng.choices(kinds, weights)[0]
        nodes.append({"id": nid, "kind": kind})
    nodes += [{"id": h, "kind": "host"} for h in hosts]

    links: list[dict] = []
    pairs: set[frozenset] = set()
    adjacency: dict[str, list[tuple[str, str]]] = {n["id"]: [] for n in nodes}

    def connect(a: str, b: str) -> None:
        if a == b or frozenset((a, b)) in pairs:
            return
        pairs.add(frozenset((a, b)))
        lid = f"e{len(links):03d}"
        links.append({"id": lid, "endpoints": [a, b]})
        adjacency[a].append((b, lid))
        adjacency[b].append((a, lid))

    for i in range(1, n_infra):
        connect(infra[i], infra[rng.randrange(i)])
    for _ in range(n_infra):
        connect(*rng.sample(infra, 2))
    for h in hosts:
        connect(h, rng.choice(infra))
    for entries in adjacency.values():
        entries.sort()

    services = []
    for _ in range(100 * n_services):
        if len(services) == n_services:
            break
        src, dst = rng.sample(hosts, 2)
        walk = _walk(adjacency, src, dst)
        if walk is None or len(walk) // 2 > max_path_links:
            continue
        services.append({
            "id": f"v{len(services):02d}",
            "kind": "streaming",
            "path": walk,
            "clients": sorted(rng.sample(hosts, min(3, n_hosts))),
        })
    if len(services) < n_services:
        return None
    return {"schema-version": 1, "nodes": nodes, "links": links, "services": services}


def fault_targets(doc: dict) -> dict[str, list[str]]:
    """Candidate targets per incident kind, in sorted order."""
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    infra = sorted(n for n, k in kinds.items() if k not in ("host", "controller"))
    return {
        "physical-link": sorted(l["id"] for l in doc["links"]),
        "physical-node": infra,
        "traffic-drop": sorted(l["id"] for l in doc["links"]),
        "service-fault": sorted(s["id"] for s in doc["services"]),
        "agent-crash": [n for n in infra if kinds[n] == "openflow-switch"],
        "controller-crash": ["c0"],
    }


# Incident kind -> the scenario fault class it injects.
INCIDENT_CLASS = {
    "physical-link": "physical-failure",
    "physical-node": "physical-failure",
    "traffic-drop": "interface-traffic-drop",
    "service-fault": "service-fault",
    "agent-crash": "openflow-agent-crash",
    "controller-crash": "controller-crash",
}


def desk_incidents(seed: int, topo_docs: list[dict]) -> list[tuple[int, str, str]]:
    """One (topology index, fault class, target) per incident kind per topology.

    Topologies alternate from one incident to the next: an incident's cost
    depends mostly on its topology, so each cost class is spread over the
    whole round instead of being timed in one stretch.
    """
    rng = random.Random(f"desk|{seed}")
    candidates = [fault_targets(doc) for doc in topo_docs]
    return [
        (t, INCIDENT_CLASS[kind], rng.choice(targets[kind]))
        for kind in INCIDENT_CLASS
        for t, targets in enumerate(candidates)
    ]


# The fixed fault schedule of every loop scenario: (incident kind, stratum,
# tick). Every fault class appears; pairs two ticks apart overlap. The
# "path" stratum draws infrastructure on some service's initial path, the
# "spare" stratum draws infrastructure on none, "any" draws from all.
LOOP_SCHEDULE = (
    ("physical-link", "path", 5),
    ("service-fault", "any", 7),
    ("agent-crash", "any", 30),
    ("traffic-drop", "spare", 50),
    ("controller-crash", "any", 52),
    ("physical-node", "spare", 80),
    ("traffic-drop", "path", 100),
    ("service-fault", "any", 102),
    ("physical-link", "spare", 130),
    ("agent-crash", "any", 150),
    ("physical-node", "path", 170),
    ("controller-crash", "any", 200),
)


def _strata(doc: dict) -> dict[str, set[str]]:
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    infra_links = {
        l["id"] for l in doc["links"]
        if all(kinds[e] not in ("host", "controller") for e in l["endpoints"])
    }
    infra_nodes = {n for n, k in kinds.items() if k not in ("host", "controller")}
    on_path = {hop for s in doc["services"] for hop in s["path"]}
    infra = infra_links | infra_nodes
    return {"path": infra & on_path, "spare": infra - on_path}


def loop_scenario_doc(seed: int, index: int, topo_doc: dict, horizon: int = 300) -> dict:
    """A stochastic twelve-fault scenario over one topology.

    Fault classes and ticks follow LOOP_SCHEDULE; the seed picks each
    target within its stratum (falling back to any candidate when the
    stratum is empty) and the simulator's noise seed. A (target, class)
    pair is never injected twice. Noise is stochastic and repairs take
    one tick.
    """
    rng = random.Random(f"loop|{seed}|{index}")
    candidates = fault_targets(topo_doc)
    strata = _strata(topo_doc)
    faults, used = [], set()
    for kind, stratum, tick in LOOP_SCHEDULE:
        fault_class = INCIDENT_CLASS[kind]
        free = [t for t in candidates[kind] if (t, fault_class) not in used]
        narrowed = [t for t in free if stratum == "any" or t in strata[stratum]]
        pool = narrowed or free
        if not pool or tick >= horizon:
            continue
        target = rng.choice(pool)
        used.add((target, fault_class))
        faults.append({"target": target, "class": fault_class, "at-tick": tick})
    return {
        "schema-version": 1,
        "topology": topo_doc,
        "faults": faults,
        "noise": NOISE,
        "seed": rng.randrange(2**31),
        "horizon": horizon,
        # With repair delay 2 a repair ticket can come due on the same tick
        # as a restart ticket for the same node, and simkernel.step then
        # raises TypeError sorting (node, tick, None) against
        # (node, tick, FaultClass). At delay 1 every ticket is due before
        # the loop can act again, so the two never meet.
        "repair-delay": 1,
    }


def t1_run_docs(seed: int) -> list[tuple[str, dict]]:
    """Single-fault T1 scenarios: every target, deterministic and noisy.

    Each target runs once deterministic and once noisy. The noisy runs'
    simulator seeds are fixed: a noisy run's cost depends on how many
    incidents its noise makes, and with seeds drawn from `seed` the
    costliest runs, and the 90th percentile, jumped from seed to seed.
    `seed` sets the order the runs are listed in. Horizon 12 and repair
    delay 2 match the package's single-fault acceptance suites.
    """
    noise_seeds = random.Random("t1|noisy")
    docs = []
    for variant in ("det", "noisy"):
        for fault_class, targets in T1_TARGETS:
            for target in targets:
                docs.append((f"{variant}-{fault_class}-{target}", {
                    "schema-version": 1,
                    "topology": "t1.topology.json",
                    "faults": [{"target": target, "class": fault_class, "at-tick": 2}],
                    "noise": NOISE if variant == "noisy" else QUIET,
                    "seed": noise_seeds.randrange(2**31) if variant == "noisy" else 7,
                    "horizon": 12,
                    "repair-delay": 2,
                }))
    random.Random(f"t1|{seed}").shuffle(docs)
    return docs
