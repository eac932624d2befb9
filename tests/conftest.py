import json
from pathlib import Path

import pytest

from sdnheal import netmodel
from sdnheal.bndiag import BayesNet, BnVariable, NoisyOrCpt

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def t1_path() -> Path:
    return DATA_DIR / "t1.topology.json"


@pytest.fixture(scope="session")
def t1_doc(t1_path) -> dict:
    return json.loads(t1_path.read_text())


@pytest.fixture()
def t1(t1_path) -> netmodel.Topology:
    return netmodel.load_topology(json.loads(t1_path.read_text()))


def make_bn2(with_z: bool = False) -> BayesNet:
    """Two competing faults A, B sharing symptom Y; optionally a symptom Z
    that only A can cause (p=1, no leak)."""
    variables = [
        BnVariable(id="fault:service:A", kind="fault", target="A"),
        BnVariable(id="fault:service:B", kind="fault", target="B"),
        BnVariable(id="symptom:service-down:Y", kind="symptom", target="Y"),
    ]
    cpts = {
        "symptom:service-down:Y": NoisyOrCpt(
            child="symptom:service-down:Y",
            parents=("fault:service:A", "fault:service:B"),
            link_probabilities=(0.9, 0.9),
            leak=0.001,
        )
    }
    if with_z:
        variables.append(
            BnVariable(id="symptom:sla-violation:Z", kind="symptom", target="Z")
        )
        cpts["symptom:sla-violation:Z"] = NoisyOrCpt(
            child="symptom:sla-violation:Z",
            parents=("fault:service:A",),
            link_probabilities=(1.0,),
            leak=0.0,
        )
    return BayesNet(
        variables=tuple(variables),
        priors={"fault:service:A": 0.01, "fault:service:B": 0.01},
        cpts=cpts,
    )


@pytest.fixture()
def bn2() -> BayesNet:
    return make_bn2()


def random_noisy_or_bn(rng, max_vars: int = 12, max_parents: int = 4) -> BayesNet:
    """Random bipartite noisy-OR network within the enumeration cap.

    Link probabilities and priors are uniform in [0.05, 0.95], leaks in
    [0, 0.05], per the acceptance sweep's parameter ranges.
    """
    n_faults = rng.randint(1, max(1, max_vars // 2))
    n_symptoms = rng.randint(1, max_vars - n_faults)
    fault_ids = [f"fault:service:F{i}" for i in range(n_faults)]
    variables = [BnVariable(id=f, kind="fault", target=f"F{i}") for i, f in enumerate(fault_ids)]
    priors = {f: rng.uniform(0.05, 0.95) for f in fault_ids}
    cpts = {}
    for j in range(n_symptoms):
        sid = f"symptom:service-down:S{j}"
        k = rng.randint(1, min(max_parents, n_faults))
        parents = tuple(sorted(rng.sample(fault_ids, k=k)))
        variables.append(BnVariable(id=sid, kind="symptom", target=f"S{j}"))
        cpts[sid] = NoisyOrCpt(
            child=sid,
            parents=parents,
            link_probabilities=tuple(rng.uniform(0.05, 0.95) for _ in parents),
            leak=rng.uniform(0.0, 0.05),
        )
    return BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)


def random_evidence(rng, bn: BayesNet) -> dict:
    evidence = {}
    for sid in bn.symptom_ids:
        roll = rng.random()
        if roll < 0.4:
            evidence[sid] = True
        elif roll < 0.7:
            evidence[sid] = False
    return evidence
