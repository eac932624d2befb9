import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import netmodel, taxonomy
from sdnheal.netmodel import Link, Service, Topology
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
        for component in components:  # hosts included
            if not taxonomy.is_compatible(topo, component.id, fault_class):
                continue
            alarms = taxonomy.effects(topo, fault_class, component.id)
            assert len(set(alarms)) == len(alarms), (fault_class, component.id)
            checked += 1
    assert checked > len(components)
