import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import bndiag, netmodel, taxonomy
from sdnheal.bndiag import BnParams
from sdnheal.netmodel import Link, NodeKind, Service, Topology
from sdnheal.simkernel import FaultEvent, Scenario, SimError
from sdnheal.taxonomy import FaultClass

from topogen import random_topology


def _with_parallel_links(topo: Topology, seed: int, share: float) -> Topology:
    """The topology with a twin beside a share of its links; each service
    hop over a twinned link moves to the twin with even odds."""
    rng = random.Random(seed)
    twin = {l.id: f"t{l.id}" for l in topo.links if rng.random() < share}
    links = [*topo.links, *(Link(id=twin[l.id], endpoints=l.endpoints)
                            for l in topo.links if l.id in twin)]
    services = [
        Service(
            id=s.id,
            path=tuple(twin[hop] if hop in twin and rng.random() < 0.5 else hop
                       for hop in s.path),
        )
        for s in topo.services
    ]
    return Topology(nodes=topo.nodes, links=tuple(links), services=tuple(services))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=8, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_effects_never_repeat_an_effect(seed, n_nodes, share):
    """`build_bn` appends one edge per effect, so a fault that raised a
    (symptom, emitter) pair twice would get that symptom as parent twice."""
    topo = _with_parallel_links(
        random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5)), seed, share
    )
    assert netmodel.validate_topology(topo) == []
    components = [*topo.nodes, *topo.links, *topo.services]
    checked = 0
    for fault_class in FaultClass:
        for target in taxonomy.fault_targets(topo, fault_class):  # hosts included
            alarms = taxonomy.effects(topo, fault_class, target)
            assert len(set(alarms)) == len(alarms), (fault_class, target)
            checked += 1
    assert checked > len(components)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=6, max_value=30),
       st.booleans())
def test_the_network_and_scenarios_read_one_list_of_fault_targets(seed, n_nodes, include_hosts):
    """The network has a fault for each pair `fault_targets` gives. A
    scenario accepts every one of them, and, unless the network includes
    hosts, exactly the physical failures of hosts besides."""
    topo = random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5))
    bn = bndiag.build_bn(topo, BnParams(include_hosts=include_hosts))
    expected = [
        bndiag.fault_var_id(fault_class, target)
        for fault_class in FaultClass
        for target in taxonomy.fault_targets(topo, fault_class, include_hosts)
    ]
    assert sorted(expected) == list(bn.fault_ids)

    accepted = set()
    for fault_class in FaultClass:
        for component in (*topo.nodes, *topo.links, *topo.services):
            try:
                Scenario(topology=topo, faults=(FaultEvent(component.id, fault_class, 0),))
            except SimError:
                continue
            accepted.add((fault_class, component.id))
    in_network = {bndiag.parse_fault_var(fid) for fid in bn.fault_ids}
    hosts = {(FaultClass.PHYSICAL_FAILURE, n.id) for n in topo.nodes if n.kind is NodeKind.HOST}
    assert in_network <= accepted
    assert accepted - in_network == (set() if include_hosts else hosts)
