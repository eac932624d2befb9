import functools
import hashlib
import importlib.util
import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import alarmpipe, bndiag, healloop, simkernel, taxonomy
from sdnheal.bndiag import (
    BnError,
    BnParams,
    ImpossibleEvidenceError,
    Verdict,
    enumerate_joint,
    map_diagnosis,
    posterior_marginals,
)
from sdnheal.netmodel import NodeKind
from sdnheal.simkernel import FaultEvent, Scenario
from sdnheal.taxonomy import FaultClass, Symptom

from conftest import make_bn2, random_evidence, random_noisy_or_bn
from oracles import QUICKSCORE_MAX_POSITIVES, quickscore_marginals
from topogen import random_topology

# Frozen from the enumeration oracle (cross-checked by hand arithmetic on
# the 8 joint states of BN2).
BN2_P_GIVEN_Y = 0.4766918357738374


# ---------------------------------------------------------------------------
# construction


def test_build_bn_t1_variable_counts(t1):
    bn = bndiag.build_bn(t1)
    by_class = {}
    for fid in bn.fault_ids:
        fault_class, _ = bndiag.parse_fault_var(fid)
        by_class[fault_class] = by_class.get(fault_class, 0) + 1
    # 4 infra nodes + 5 links carry physical faults (hosts excluded);
    # every link can also silently drop traffic
    assert by_class == {
        FaultClass.PHYSICAL_FAILURE: 9,
        FaultClass.OPENFLOW_AGENT_CRASH: 3,
        FaultClass.CONTROLLER_CRASH: 1,
        FaultClass.SERVICE_FAULT: 1,
        FaultClass.INTERFACE_TRAFFIC_DROP: 5,
    }
    by_symptom = {}
    for v in bn.variables:
        if v.kind == "symptom":
            by_symptom[v.symptom] = by_symptom.get(v.symptom, 0) + 1
    assert by_symptom == {
        Symptom.LINK_DOWN: 5,
        Symptom.NODE_UNREACHABLE: 4,
        Symptom.OF_SESSION_LOST: 3,
        Symptom.TRAFFIC_DROP: 5,
        Symptom.SERVICE_DOWN: 1,
        Symptom.SLA_VIOLATION: 1,
    }


def test_build_bn_service_down_parents(t1):
    bn = bndiag.build_bn(t1)
    cpt = bn.cpts["symptom:service-down:v1"]
    p = BnParams().p_direct
    # an agent crash keeps installed flows forwarding: it is no parent
    assert dict(zip(cpt.parents, cpt.link_probabilities)) == {
        "fault:physical:l1": p,
        "fault:physical:la": p,
        "fault:physical:lb": p,
        "fault:physical:s1": p,
        "fault:physical:s2": p,
        "fault:service:v1": p,
    }


def test_build_bn_sla_parents_add_traffic_drops(t1):
    bn = bndiag.build_bn(t1)
    cpt = bn.cpts["symptom:sla-violation:v1"]
    p = BnParams().p_direct
    assert dict(zip(cpt.parents, cpt.link_probabilities)) == {
        "fault:drop:l1": p,
        "fault:drop:la": p,
        "fault:drop:lb": p,
    }


def test_build_bn_of_session_lost_parents(t1):
    bn = bndiag.build_bn(t1)
    cpt = bn.cpts["symptom:of-session-lost:s1"]
    strengths = dict(zip(cpt.parents, cpt.link_probabilities))
    assert strengths == {
        "fault:agent:s1": BnParams().p_direct,
        "fault:controller:c0": BnParams().p_direct,
    }


def test_build_bn_deterministic(t1):
    assert bndiag.build_bn(t1) == bndiag.build_bn(t1)


def test_build_bn_bipartite_with_parents(t1):
    bn = bndiag.build_bn(t1)
    fault_ids = set(bn.fault_ids)
    for sid in bn.symptom_ids:
        cpt = bn.cpts[sid]
        assert cpt.parents, sid
        assert set(cpt.parents) <= fault_ids
    assert not (fault_ids & set(bn.cpts))  # no fault has a CPT


def test_build_bn_include_hosts_flag(t1):
    bn = bndiag.build_bn(t1, BnParams(include_hosts=True))
    assert "fault:physical:h1" in bn.fault_ids
    assert "symptom:node-unreachable:h1" in bn.symptom_ids


# sha1 of `bn_to_dict` as `build-bn` writes it, and of the order of the
# network's priors and CPTs. The orders were recorded when the edges were
# spelled out symptom by symptom, before they came from `taxonomy.effects`;
# the documents when the edges became the alarms a fault raises, every one
# at p-direct.
BUILD_BN_SHA1 = {
    ("t1", False): ("7979b14d8b7e52de3e340ec1b7ee2fec05fa7342",
                    "44d40459177e7172fb439f4667907ed9762775c5"),
    ("t1", True): ("86ab0cdc9f84ef263aaf6dae4d35afcda93dbbd1",
                   "889351a15c5a0c0adbd47c92546068a11589546c"),
    (25, False): ("9814a97be7186c6bda661bd73dece33d4aa3b4a8",
                  "a7b0d9e795d5494dcd29890758d674ffbb9e4ec2"),
    (25, True): ("6cf68d5ecba8e94c0c978251a5db3247bc48d264",
                 "bbf3de838dfa90c406bd263c323f84a3f673a734"),
    (100, False): ("8257a8c5b04273a6470f338a8c866c297192690c",
                   "4161bf7e51b9df085e1816830ba78542d6586e46"),
    (100, True): ("a6bc3eb6b7451526988267ff3e495ade0c8edee9",
                  "9396c0f8279a46f44e67d8264b38154dc7e83de0"),
    (400, False): ("8b7d9beddfc77945decea394dbd63f3ffaaf22fa",
                   "fc0d4d05ac83c529bea2a4ac498e12eeb3866e8d"),
    (400, True): ("170afde39c585c166cfb54b5c587e88dc7b135f6",
                  "8b1868a5542887e30997141f60094f5eba749f33"),
}


@pytest.mark.parametrize("topology, include_hosts", list(BUILD_BN_SHA1))
def test_build_bn_pinned(t1, topology, include_hosts):
    topo = t1 if topology == "t1" else random_topology(7777, topology, topology // 5)
    bn = bndiag.build_bn(topo, BnParams(include_hosts=include_hosts))
    doc = json.dumps(bndiag.bn_to_dict(bn), indent=2, sort_keys=True)
    order = json.dumps([list(bn.priors), list(bn.cpts)])
    assert (
        hashlib.sha1(doc.encode()).hexdigest(),
        hashlib.sha1(order.encode()).hexdigest(),
    ) == BUILD_BN_SHA1[topology, include_hosts]


def _reference_build_bn(t, params):
    """`build_bn` as it was written before it walked faults in id order: a
    dict of parents per symptom, each sorted, then every variable sorted."""
    nodes = [n for n in t.nodes if params.include_hosts or n.kind is not NodeKind.HOST]
    links = [l.id for l in t.links]
    switches = [n.id for n in nodes if n.kind is NodeKind.OPENFLOW_SWITCH]
    faults = [
        (FaultClass.PHYSICAL_FAILURE, [n.id for n in nodes] + links, params.prior_physical),
        (FaultClass.INTERFACE_TRAFFIC_DROP, links, params.prior_drop),
        (FaultClass.OPENFLOW_AGENT_CRASH, switches, params.prior_agent),
        (FaultClass.CONTROLLER_CRASH, [t.controller_id], params.prior_controller),
        (FaultClass.SERVICE_FAULT, [s.id for s in t.services], params.prior_service),
    ]
    variables, priors = [], {}
    vocabulary = taxonomy.symptom_vocabulary(t, include_hosts=params.include_hosts)
    edges = {key: {} for key in vocabulary}
    for fc, targets, prior in faults:
        for target in targets:
            vid = bndiag.fault_var_id(fc, target)
            variables.append(bndiag.BnVariable(id=vid, kind="fault", target=target, fault_class=fc))
            priors[vid] = prior
            for key in taxonomy.effects(t, fc, target):
                edges[key][vid] = params.p_direct
    cpts = {}
    for (symptom, emitter), parents in edges.items():
        vid = bndiag.symptom_var_id(symptom, emitter)
        ordered = tuple(sorted(parents))
        variables.append(bndiag.BnVariable(id=vid, kind="symptom", target=emitter, symptom=symptom))
        cpts[vid] = bndiag.NoisyOrCpt(
            child=vid,
            parents=ordered,
            link_probabilities=tuple(parents[p] for p in ordered),
            leak=params.leak,
        )
    variables.sort(key=lambda v: (v.kind, v.id))
    return bndiag.BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)


def _bits(resting):
    return [(fid, pair and tuple(x.hex() for x in pair)) for fid, pair in resting.pairs.items()]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=8, max_value=60),
    st.booleans(),
    st.sampled_from([{}, {"p_direct": 0.8}, {"leak": 0.0}, {"leak": 1.0}]),
)
def test_build_bn_equals_the_reference_build(seed, n_nodes, include_hosts, changes):
    topo = random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5))
    params = BnParams(include_hosts=include_hosts, **changes)
    bn, reference = bndiag.build_bn(topo, params), _reference_build_bn(topo, params)
    assert bndiag.bn_to_dict(bn) == bndiag.bn_to_dict(reference)
    assert list(bn.priors) == list(reference.priors)
    assert list(bn.cpts) == list(reference.cpts)
    assert bn.fault_ids == reference.fault_ids
    assert bn.symptom_ids == reference.symptom_ids
    assert list(bn.compiled.findings.items()) == list(reference.compiled.findings.items())
    assert _bits(bn.compiled.open) == _bits(reference.compiled.open)
    assert _bits(bn.compiled.closed) == _bits(reference.compiled.closed)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=8, max_value=30))
def test_edges_are_the_alarms_a_fault_raises(seed, n_nodes):
    """Each fault variable's children are exactly the alarms that one
    simulator step emits with that fault alone active: the network and the
    simulator read one model."""
    topo = random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5))
    bn = bndiag.build_bn(topo, BnParams(include_hosts=True))
    edges = {fid: set() for fid in bn.fault_ids}
    for sid, cpt in bn.cpts.items():
        for parent in cpt.parents:
            edges[parent].add(sid)
    for fid, children in edges.items():
        fault_class, target = bndiag.parse_fault_var(fid)
        fault = FaultEvent(target=target, fault_class=fault_class, at_tick=1)
        scenario = Scenario(topology=topo, faults=(fault,), horizon=2)
        _, raws = simkernel.step(simkernel.init_sim(scenario))
        alarms = {alarmpipe.translate_alarm(raw) for raw in raws}
        assert children == {bndiag.symptom_var_id(a.symptom, a.emitter) for a in alarms}, fid


def test_build_bn_long_paths_match_quickscore():
    # long service paths give symptoms many parents (more than a 10-parent
    # cap this engine once had); no engine factor grows with that count
    topo = random_topology(2, n_nodes=40, n_services=4, max_path_links=12)
    bn = bndiag.build_bn(topo)
    assert max(len(cpt.parents) for cpt in bn.cpts.values()) > 10
    evidence = _incident_evidence(topo, bn, _longest_service_link(topo))
    assert 0 < sum(evidence.values()) <= QUICKSCORE_MAX_POSITIVES
    assert max(len(f.scope) for f in bndiag.compile_factors(bn, evidence)) == 2
    _assert_matches_quickscore(bn, evidence)


def _longest_service_link(topo):
    service = max(topo.services, key=lambda s: (len(s.path), s.id))
    return service.path[len(service.path) // 2]


def test_bn_dump_round_trip(t1):
    bn = bndiag.build_bn(t1)
    assert bndiag.bn_from_dict(bndiag.bn_to_dict(bn)) == bn


def test_params_from_dict_overrides():
    params = bndiag.params_from_dict(
        {"p-direct": 0.9, "priors": {"physical-failure": 0.05}}
    )
    assert params.p_direct == 0.9
    assert params.prior_physical == 0.05
    assert params.leak == BnParams().leak
    echo = healloop.settings_echo(params)
    assert echo["p-direct"]["source"] == "override"
    assert echo["prior-physical"]["source"] == "override"
    assert echo["leak"]["source"] == "default"


def test_params_from_dict_rejects_unknown_key():
    with pytest.raises(BnError, match="unknown parameter key"):
        bndiag.params_from_dict({"p-sideways": 0.3})


def test_params_from_dict_rejects_threshold():
    # the loop diagnoses at LoopConfig.threshold; a network-level key would be dead
    with pytest.raises(BnError, match="--threshold"):
        bndiag.params_from_dict({"threshold": 0.99})


def test_params_validate_ranges():
    with pytest.raises(BnError, match="prior-physical"):
        BnParams(prior_physical=0.0)
    with pytest.raises(BnError, match="p-direct"):
        BnParams(p_direct=1.5)


# ---------------------------------------------------------------------------
# factors


def test_compile_prior_factor(bn2):
    # a fault no finding touches rests at its prior; one that only a
    # positive finding touches gets its prior as its unary factor
    assert bndiag.compile_factors(bn2, {}) == []
    assert np.allclose(bn2.compiled.open.pairs["fault:service:A"], [0.99, 0.01])
    factors = bndiag.compile_factors(bn2, {"symptom:service-down:Y": True})
    prior = next(f for f in factors if f.scope == ("fault:service:A",))
    assert np.allclose(prior.table, [0.99, 0.01])


def test_compile_cpt_slice_on_evidence():
    bn = make_bn2()
    # single-parent variant: Y <- A with p 0.9, leak 0
    bn = bndiag.BayesNet(
        variables=tuple(v for v in bn.variables if v.id != "fault:service:B"),
        priors={"fault:service:A": 0.01},
        cpts={
            "symptom:service-down:Y": bndiag.NoisyOrCpt(
                child="symptom:service-down:Y",
                parents=("fault:service:A",),
                link_probabilities=(0.9,),
                leak=0.0,
            )
        },
    )
    factors = bndiag.compile_factors(bn, {"symptom:service-down:Y": True})
    sliced = next(f for f in factors if f.scope == ("fault:service:A",) and f.table[0] == 0.0)
    assert np.allclose(sliced.table, [0.0, 0.9])


def test_compile_rejects_unknown_evidence_key(bn2):
    with pytest.raises(BnError, match="not a symptom variable"):
        bndiag.compile_factors(bn2, {"symptom:service-down:nope": True})


def test_min_fill_order_deterministic(bn2):
    scopes = [f.scope for f in bndiag.compile_factors(bn2, {})]
    variables = {v.id for v in bn2.variables}
    assert bndiag.min_fill_order(variables, scopes) == bndiag.min_fill_order(
        variables, scopes
    )


def _naive_min_fill(variables, scopes, last=frozenset()):
    neighbors = {v: set() for v in variables}
    for scope in scopes:
        members = [v for v in scope if v in neighbors]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)

    def fill(v):
        around = list(neighbors[v])
        return sum(
            1
            for i, a in enumerate(around)
            for b in around[i + 1 :]
            if b not in neighbors[a]
        )

    order = []
    remaining = set(variables)
    while remaining:
        best = min(remaining, key=lambda v: (v in last, fill(v), v))
        order.append(best)
        around = list(neighbors[best])
        for i, a in enumerate(around):
            for b in around[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)
        for a in around:
            neighbors[a].discard(best)
        del neighbors[best]
        remaining.discard(best)
    return order


def _random_graph(rng):
    n = rng.randint(3, 60)
    variables = {f"x{i:02d}" for i in range(n)}
    pool = sorted(variables)
    scopes = [
        tuple(rng.sample(pool, k=rng.randint(1, min(4, n))))
        for _ in range(rng.randint(2, 2 * n))
    ]
    return variables, scopes, pool


def test_min_fill_order_matches_naive_greedy():
    """The order is the straightforward argmin over (fill cost, id)."""
    rng = random.Random(99)
    for _ in range(25):
        variables, scopes, _ = _random_graph(rng)
        assert bndiag.min_fill_order(variables, scopes) == _naive_min_fill(
            variables, scopes
        )


def test_min_fill_order_puts_last_variables_last():
    rng = random.Random(98)
    for _ in range(25):
        variables, scopes, pool = _random_graph(rng)
        last = frozenset(rng.sample(pool, k=rng.randint(0, len(pool))))
        order = bndiag.min_fill_order(variables, scopes, last)
        assert order == _naive_min_fill(variables, scopes, last)
        assert set(order[len(order) - len(last) :]) == last


# ---------------------------------------------------------------------------
# inference


def test_bn2_posterior_matches_frozen_oracle_value(bn2):
    evidence = {"symptom:service-down:Y": True}
    oracle = enumerate_joint(bn2, evidence)
    assert oracle.marginal("fault:service:A") == pytest.approx(BN2_P_GIVEN_Y, abs=1e-12)
    assert oracle.marginal("fault:service:B") == pytest.approx(BN2_P_GIVEN_Y, abs=1e-12)
    ve = posterior_marginals(bn2, evidence)
    for fid in ("fault:service:A", "fault:service:B"):
        assert ve.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9)


def test_bn2_no_evidence_returns_priors(bn2):
    posterior = posterior_marginals(bn2, {})
    assert posterior.marginal("fault:service:A") == pytest.approx(0.01, abs=1e-12)
    assert enumerate_joint(bn2, {}).marginal("fault:service:A") == pytest.approx(
        0.01, abs=1e-12
    )


def test_bn2_with_pointer_symptom_matches_oracle():
    bn = make_bn2(with_z=True)
    evidence = {"symptom:service-down:Y": True, "symptom:sla-violation:Z": True}
    oracle = enumerate_joint(bn, evidence)
    ve = posterior_marginals(bn, evidence)
    for fid in bn.fault_ids:
        assert ve.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9)


def test_explaining_away_reduces_competitor():
    bn = make_bn2(with_z=True)
    only_y = enumerate_joint(bn, {"symptom:service-down:Y": True})
    both = enumerate_joint(
        bn, {"symptom:service-down:Y": True, "symptom:sla-violation:Z": True}
    )
    assert both.marginal("fault:service:B") < only_y.marginal("fault:service:B")
    assert both.marginal("fault:service:A") > only_y.marginal("fault:service:A")


def test_enumerate_joint_trivial_prior():
    bn = bndiag.BayesNet(
        variables=(bndiag.BnVariable(id="fault:service:F", kind="fault", target="F"),),
        priors={"fault:service:F": 0.3},
        cpts={},
    )
    assert enumerate_joint(bn, {}).marginal("fault:service:F") == pytest.approx(0.3)


def test_enumerate_joint_variable_cap():
    rng = random.Random(0)
    bn = random_noisy_or_bn(rng, max_vars=12)
    while len(bn.variables) <= 20:
        bn = _widen(bn)
    with pytest.raises(BnError, match="capped at 20"):
        enumerate_joint(bn, {})


def _widen(bn):
    extra = tuple(
        bndiag.BnVariable(id=f"fault:service:X{i}", kind="fault", target=f"X{i}")
        for i in range(21)
    )
    priors = dict(bn.priors)
    priors.update({v.id: 0.5 for v in extra})
    return bndiag.BayesNet(variables=bn.variables + extra, priors=priors, cpts=bn.cpts)


def test_oracle_equivalence_on_random_networks():
    rng = random.Random(20240901)
    for _ in range(40):
        bn = random_noisy_or_bn(rng)
        evidence = random_evidence(rng, bn)
        ve = posterior_marginals(bn, evidence)
        oracle = enumerate_joint(bn, evidence)
        for fid in bn.fault_ids:
            assert ve.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9)


def test_posterior_pairs_normalized(bn2):
    posterior = posterior_marginals(bn2, {"symptom:service-down:Y": True})
    for p_false, p_true in posterior.pairs.values():
        assert abs(p_false + p_true - 1.0) <= 1e-12


def test_single_parent_child_observation_never_lowers_posterior():
    rng = random.Random(5)
    for _ in range(30):
        prior = rng.uniform(0.05, 0.95)
        p = rng.uniform(0.05, 0.95)
        leak = rng.uniform(0.0, 0.05)
        bn = bndiag.BayesNet(
            variables=(
                bndiag.BnVariable(id="fault:service:F", kind="fault", target="F"),
                bndiag.BnVariable(id="symptom:service-down:Y", kind="symptom", target="Y"),
            ),
            priors={"fault:service:F": prior},
            cpts={
                "symptom:service-down:Y": bndiag.NoisyOrCpt(
                    child="symptom:service-down:Y",
                    parents=("fault:service:F",),
                    link_probabilities=(p,),
                    leak=leak,
                )
            },
        )
        with_child = posterior_marginals(bn, {"symptom:service-down:Y": True})
        assert with_child.marginal("fault:service:F") >= prior - 1e-12


def test_impossible_evidence_is_an_error():
    bn = bndiag.BayesNet(
        variables=(
            bndiag.BnVariable(id="fault:service:F", kind="fault", target="F"),
            bndiag.BnVariable(id="symptom:service-down:Y", kind="symptom", target="Y"),
        ),
        priors={"fault:service:F": 0.3},
        cpts={
            "symptom:service-down:Y": bndiag.NoisyOrCpt(
                child="symptom:service-down:Y",
                parents=("fault:service:F",),
                link_probabilities=(0.0,),
                leak=0.0,
            )
        },
    )
    with pytest.raises(ImpossibleEvidenceError):
        posterior_marginals(bn, {"symptom:service-down:Y": True})
    with pytest.raises(ImpossibleEvidenceError):
        enumerate_joint(bn, {"symptom:service-down:Y": True})
    with pytest.raises(ImpossibleEvidenceError):
        quickscore_marginals(bn, {"symptom:service-down:Y": True})


def test_unary_factors_fold_negative_findings_and_drop_barren_symptoms():
    bn = make_bn2(with_z=True)
    factors = bndiag.compile_factors(bn, {"symptom:service-down:Y": False})
    assert all(len(f.scope) <= 1 for f in factors)
    unary = {f.scope[0]: f.table for f in factors if f.scope}
    assert set(unary) == {"fault:service:A", "fault:service:B"}  # Z is barren
    assert np.allclose(unary["fault:service:A"], [0.99, 0.01 * 0.1])
    # the negative finding's constant (1 - leak) is never multiplied in;
    # it is compiled with the symptom and only checked against zero
    _, _, stay = bn.compiled.findings["symptom:service-down:Y"]
    assert stay == pytest.approx(0.999, abs=1e-15)


def test_positive_finding_with_two_parents_gets_one_auxiliary_variable(bn2):
    factors = bndiag.compile_factors(bn2, {"symptom:service-down:Y": True})
    aux = bndiag.aux_var_id("symptom:service-down:Y")
    assert max(len(f.scope) for f in factors) == 2
    assert {f.scope for f in factors if aux in f.scope} == {
        (aux,), ("fault:service:A", aux), ("fault:service:B", aux),
    }
    signed = next(f.table for f in factors if f.scope == (aux,))
    assert np.allclose(signed, [1.0, -0.999])


def test_exact_ties_come_out_bit_identical():
    # A and B are symmetric: the same prior and the same negative findings,
    # met in opposite orders; C shares a negative finding with both
    variables = [
        bndiag.BnVariable(id=f"fault:service:{x}", kind="fault", target=x)
        for x in "ABC"
    ]
    cpts = {}
    children = {"A": (0.7, 0.95, 0.9, 0.8), "B": (0.8, 0.9, 0.95, 0.7)}
    for fault, strengths in children.items():
        for i, p in enumerate(strengths):
            sid = f"symptom:service-down:{fault}{i}"
            variables.append(bndiag.BnVariable(id=sid, kind="symptom", target=sid))
            cpts[sid] = bndiag.NoisyOrCpt(sid, (f"fault:service:{fault}",), (p,), 0.001)
    shared = "symptom:sla-violation:ABC"
    variables.append(bndiag.BnVariable(id=shared, kind="symptom", target="ABC"))
    cpts[shared] = bndiag.NoisyOrCpt(
        shared, tuple(f"fault:service:{x}" for x in "ABC"), (0.6, 0.6, 0.6), 0.001
    )
    bn = bndiag.BayesNet(
        variables=tuple(variables),
        priors={"fault:service:A": 0.01, "fault:service:B": 0.01, "fault:service:C": 0.001},
        cpts=cpts,
    )
    evidence = {sid: False for sid in cpts}
    evidence["symptom:service-down:A0"] = True
    evidence["symptom:service-down:B3"] = True
    posterior = posterior_marginals(bn, evidence)
    assert posterior.pairs["fault:service:A"] == posterior.pairs["fault:service:B"]
    assert [fid for fid, _ in posterior.ranking()[:2]] == [
        "fault:service:A", "fault:service:B",
    ]
    oracle = enumerate_joint(bn, evidence)
    for fid in bn.fault_ids:
        assert posterior.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9)

    # A and B again, now private parents of two findings that S links: X
    # blames A, S and Z, and Y blames 0, B and S, where Z and 0 are
    # symmetric too but sort on opposite sides of their partners
    def fault(x):
        return f"fault:service:{x}"

    variables = [bndiag.BnVariable(id=fault(x), kind="fault", target=x) for x in "AB0SZ"]
    cpts = {}
    for x, strengths in children.items():
        for i, p in enumerate(strengths):
            sid = f"symptom:service-down:{x}{i}"
            variables.append(bndiag.BnVariable(id=sid, kind="symptom", target=sid))
            cpts[sid] = bndiag.NoisyOrCpt(sid, (fault(x),), (p,), 0.001)
    for name, strengths in (("X", {"A": 0.7, "S": 0.6, "Z": 0.9}),
                            ("Y", {"0": 0.9, "B": 0.7, "S": 0.6})):
        sid = f"symptom:sla-violation:{name}"
        variables.append(bndiag.BnVariable(id=sid, kind="symptom", target=name))
        cpts[sid] = bndiag.NoisyOrCpt(
            sid, tuple(fault(x) for x in strengths), tuple(strengths.values()), 0.001
        )
    priors = {fault("A"): 0.01, fault("B"): 0.01, fault("S"): 0.005}
    priors.update({fault("0"): 0.03, fault("Z"): 0.03})
    bn = bndiag.BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)
    evidence = {sid: sid.startswith("symptom:sla-violation:") for sid in cpts}
    posterior = posterior_marginals(bn, evidence)
    assert posterior.pairs[fault("A")] == posterior.pairs[fault("B")]
    assert posterior.pairs[fault("0")] == posterior.pairs[fault("Z")]
    oracle = enumerate_joint(bn, evidence)
    for fid in bn.fault_ids:
        assert posterior.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9)


def _findings_sharing_parents(n_shared):
    """Two positive findings X and Y that blame the same n_shared faults,
    each with one private parent too; inputs drawn from a fixed seed."""
    rng = random.Random(n_shared)
    shared = [f"fault:physical:e{i:03d}" for i in range(n_shared)]
    priors = {fid: rng.uniform(0.001, 0.05) for fid in shared}
    variables = [bndiag.BnVariable(id=fid, kind="fault", target=fid) for fid in shared]
    cpts = {}
    for name in "XY":
        private = f"fault:service:{name}"
        priors[private] = rng.uniform(0.001, 0.05)
        variables.append(bndiag.BnVariable(id=private, kind="fault", target=name))
        sid = f"symptom:service-down:{name}"
        variables.append(bndiag.BnVariable(id=sid, kind="symptom", target=name))
        parents = tuple(sorted([*shared, private]))
        cpts[sid] = bndiag.NoisyOrCpt(
            sid, parents, tuple(rng.uniform(0.5, 0.95) for _ in parents), 0.001
        )
    bn = bndiag.BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)
    return bn, {sid: True for sid in cpts}


def _record_orders(monkeypatch) -> list:
    """The arguments of every `min_fill_order` call from here on."""
    orders = []
    real = bndiag.min_fill_order
    monkeypatch.setattr(
        bndiag, "min_fill_order", lambda *args: orders.append(args) or real(*args)
    )
    return orders


@pytest.mark.parametrize("n_shared", [bndiag.MAX_SHARED_FAULTS, bndiag.MAX_SHARED_FAULTS + 1])
def test_elimination_runs_only_above_the_shared_fault_cap(n_shared, monkeypatch):
    orders = _record_orders(monkeypatch)
    bn, evidence = _findings_sharing_parents(n_shared)
    _assert_matches_quickscore(bn, evidence)
    assert len(orders) == (n_shared > bndiag.MAX_SHARED_FAULTS)


def test_elimination_solves_only_the_component_above_the_cap(monkeypatch):
    """One component above the shared-fault cap and a disjoint one of two
    findings that share one fault: only the first goes through elimination,
    and the second is still conditioned."""
    wide, evidence = _findings_sharing_parents(bndiag.MAX_SHARED_FAULTS + 1)
    small = ["fault:drop:s", "fault:drop:u", "fault:drop:v"]
    variables = [*wide.variables]
    variables += [bndiag.BnVariable(id=fid, kind="fault", target=fid) for fid in small]
    priors = {**wide.priors, "fault:drop:s": 0.02, "fault:drop:u": 0.03, "fault:drop:v": 0.01}
    cpts = dict(wide.cpts)
    for private, p in (("u", 0.9), ("v", 0.7)):
        sid = f"symptom:sla-violation:{private.upper()}"
        variables.append(bndiag.BnVariable(id=sid, kind="symptom", target=private.upper()))
        parents = ("fault:drop:s", f"fault:drop:{private}")
        cpts[sid] = bndiag.NoisyOrCpt(sid, parents, (0.8, p), 0.001)
        evidence[sid] = True
    bn = bndiag.BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)

    orders = _record_orders(monkeypatch)
    posterior = posterior_marginals(bn, evidence)
    (args,) = orders
    assert not set(small) & set(args[0])
    for p_false, p_true in posterior.pairs.values():
        assert abs(p_false + p_true - 1.0) <= 1e-12
    _assert_matches_quickscore(bn, evidence)


# ---------------------------------------------------------------------------
# conditioning in Python floats and in numpy arrays


def _float_mix(rng, n, pooled=0.2):
    """n floats of mixed sign and magnitude, a share of them from a pool
    with signed zeros."""
    pool = [0.0, -0.0, -0.0, 1.0, 0.1, -0.3]

    def draw() -> float:
        if rng.random() < pooled:
            return rng.choice(pool)
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3)

    return [draw() for _ in range(n)]


def _same_floats(a, b) -> bool:
    """Equal bit for bit, down to the sign of a zero."""
    return len(a) == len(b) and all(x.hex() == y.hex() for x, y in zip(a, b))


@pytest.mark.parametrize("k", range(1, 13))
def test_float_sums_are_ndarray_sums(k):
    """The float sums reproduce `ndarray.sum` on a (2,)*k array: the full
    sum, and the sum keeping each axis."""
    rng = random.Random(k)
    cases = [_float_mix(rng, 2**k, pooled) for pooled in (0.0, 0.2, 0.9, 1.0)]
    for values in [*cases, [-0.0] * 2**k]:
        array = np.array(values).reshape((2,) * k)
        assert _same_floats([bndiag._full_sum(values)], [float(array.sum())])
        for i in range(k):
            others = tuple(j for j in range(k) if j != i)
            assert _same_floats(bndiag._axis_sums(values, i), array.sum(axis=others).tolist())


def test_pairwise_sum_of_any_length_is_numpy_sum():
    """Lengths that are no power of two reach the leftover loops and the
    split below a multiple of 8."""
    rng = random.Random(0)
    for n in [*range(1, 40), 127, 128, 129, 135, 257, 1000, 1031] * 4:
        values = _float_mix(rng, n + 3)
        assert _same_floats(
            [0.0 + bndiag._pairwise_sum(values, 3, n)], [float(np.array(values[3:]).sum())]
        )


@st.composite
def _conditioned_components(draw):
    """Positive findings linked by 1 to 6 shared faults, each finding with
    0 to 2 private parents, its parents in any order, and negative findings
    on some faults. Priors and link
    probabilities come from few values, and a finding may be repeated with
    fresh private faults, so equal findings (one item with several stars)
    and interchangeable shared faults are common."""
    n_shared = draw(st.integers(1, 6))
    n_findings = draw(st.integers(2, 5))
    value = st.sampled_from([0.02, 0.3, 0.6, 0.9])
    shared = [f"fault:physical:s{i}" for i in range(n_shared)]
    blames = [[] for _ in range(n_findings)]
    for fid in shared:  # blamed by two findings at least
        for j in draw(st.lists(st.integers(0, n_findings - 1), min_size=2, unique=True)):
            blames[j].append(fid)
    priors = {fid: draw(value) for fid in shared}
    cpts = {}
    for j, blamed in enumerate(blames):
        strengths = [draw(value) for _ in blamed]
        n_private = draw(st.integers(0 if len(blamed) > 1 else 1, 2))
        private = [(draw(value), draw(value)) for _ in range(n_private)]
        leak = draw(st.sampled_from([0.0, 0.001]))
        for copy in range(draw(st.integers(1, 2))):
            own = {f"fault:service:f{j}c{copy}p{m}": pair for m, pair in enumerate(private)}
            priors.update({fid: prior for fid, (prior, _) in own.items()})
            parents = [*zip(blamed, strengths), *((fid, p) for fid, (_, p) in own.items())]
            parents = draw(st.permutations(parents))
            sid = f"symptom:service-down:f{j}c{copy}"
            cpts[sid] = bndiag.NoisyOrCpt(
                sid, tuple(fid for fid, _ in parents), tuple(p for _, p in parents), leak
            )
    # a negative finding folds its q into its fault's unary pair
    for i, fid in enumerate(draw(st.lists(st.sampled_from(sorted(priors)), unique=True))):
        sid = f"symptom:link-down:n{i}"
        cpts[sid] = bndiag.NoisyOrCpt(sid, (fid,), (draw(value),), 0.001)
    variables = [bndiag.BnVariable(id=fid, kind="fault", target=fid) for fid in sorted(priors)]
    variables += [bndiag.BnVariable(id=sid, kind="symptom", target=sid) for sid in sorted(cpts)]
    bn = bndiag.BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)
    return bn, {sid: sid.startswith("symptom:service-down:") for sid in cpts}


def _conditioned_with(bn, evidence, max_float_shared):
    """The posterior pairs, with the arrays of every conditioned component."""
    used = []
    real = bndiag._condition

    def condition(*args):
        used.append((len(args[4]), args[-1]))
        return real(*args)

    with mock.patch.object(bndiag, "MAX_FLOAT_SHARED_FAULTS", max_float_shared), \
            mock.patch.object(bndiag, "_condition", condition):
        return posterior_marginals(bn, evidence).pairs, used


@settings(max_examples=200, deadline=None)
@given(_conditioned_components())
def test_float_conditioning_equals_numpy_conditioning(component):
    """Summed in Python floats or in numpy arrays, every component gives
    equal pairs, in the same order."""
    bn, evidence = component
    by_numpy, used = _conditioned_with(bn, evidence, 0)
    assert used and all(arrays is bndiag._NumpyArrays for _, arrays in used)
    by_floats, used = _conditioned_with(bn, evidence, bndiag.MAX_SHARED_FAULTS)
    assert used and all(arrays is bndiag._FloatArrays for _, arrays in used)
    assert list(by_floats.items()) == list(by_numpy.items())


@pytest.mark.parametrize("n_shared", [bndiag.MAX_FLOAT_SHARED_FAULTS,
                                      bndiag.MAX_FLOAT_SHARED_FAULTS + 1,
                                      bndiag.MAX_FLOAT_SHARED_FAULTS + 2])
def test_floats_sum_only_components_up_to_the_cut(n_shared):
    """A component of up to MAX_FLOAT_SHARED_FAULTS shared faults is summed
    in floats, a wider one in numpy, and both give numpy's pairs."""
    bn, evidence = _findings_sharing_parents(n_shared)
    pairs, used = _conditioned_with(bn, evidence, bndiag.MAX_FLOAT_SHARED_FAULTS)
    wide = n_shared > bndiag.MAX_FLOAT_SHARED_FAULTS
    assert used == [(n_shared, bndiag._NumpyArrays if wide else bndiag._FloatArrays)]
    assert pairs == _conditioned_with(bn, evidence, 0)[0]


def _overlapping_incident(topo, bn, faults):
    """Closed-world evidence one tick after every fault is injected at once."""
    events = tuple(FaultEvent(target, fault_class, 1) for fault_class, target in faults)
    scenario = Scenario(topology=topo, faults=events, seed=1, horizon=2)
    _, raws = simkernel.step(simkernel.init_sim(scenario))
    window = alarmpipe.collect_window([alarmpipe.translate_alarm(r) for r in raws], (1, 1))
    return alarmpipe.to_evidence(window, bn)


@functools.cache
def _component_oracle():
    """The benchmark's oracle (perfbench/oracle.py), which shares no code with
    bndiag: per component of positive findings linked by any common parent,
    it enumerates up to 22 faults, or runs Quickscore where its own error
    estimate allows, and leaves out the faults of a component that fits
    neither."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_marginals


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=8, max_value=30),
    st.data(),
)
def test_overlapping_faults_match_an_oracle(seed, n_nodes, data):
    """Two or three faults on one service's path raise findings that share
    faults. Under closed, open and partial evidence every pair sums to 1,
    and the engine matches Quickscore within 1e-9 where the two agree.

    These networks exceed enumerate_joint's 20 variables, and closed-world
    evidence of overlapping faults is improbable (each fault is rare), so
    Quickscore's alternating sum can lose digits; its docstring asks for a
    third opinion then. Where they disagree, or
    Quickscore refuses, the engine must match the benchmark's
    per-component oracle on every fault that oracle covers.
    """
    topo = random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5))
    bn = bndiag.build_bn(topo)
    service = data.draw(st.sampled_from(topo.services))
    on_path = bn.cpts[f"symptom:service-down:{service.id}"].parents
    picked = data.draw(st.lists(st.sampled_from(on_path), min_size=2, max_size=3, unique=True))
    closed = _overlapping_incident(topo, bn, [bndiag.parse_fault_var(fid) for fid in picked])
    multi = [sid for sid, seen in closed.items() if seen and len(bn.cpts[sid].parents) > 1]
    blamed = Counter(parent for sid in multi for parent in bn.cpts[sid].parents)
    assert max(blamed.values()) > 1  # some fault is shared
    for evidence in _policy_variants(closed):
        engine = posterior_marginals(bn, evidence)
        for p_false, p_true in engine.pairs.values():
            assert abs(p_false + p_true - 1.0) <= 1e-12
        if sum(evidence.values()) <= QUICKSCORE_MAX_POSITIVES:
            try:
                quick = quickscore_marginals(bn, evidence).marginals
            except ImpossibleEvidenceError:  # its sum cancelled to <= 0
                quick = {}
            if quick and all(
                abs(engine.marginal(fid) - p) <= 1e-9 for fid, p in quick.items()
            ):
                continue
        oracle = _component_oracle()(bn, evidence)
        assert oracle, "no fault is covered"
        for fid, p in oracle.items():
            assert engine.marginal(fid) == pytest.approx(p, abs=1e-9), fid


def test_node_failure_above_the_shared_fault_cap_matches_an_oracle(monkeypatch):
    """A router failure on a 16-node topology raises findings that share
    more than MAX_SHARED_FAULTS faults, so the call falls back to
    elimination; its component has 21 faults, which the benchmark's
    oracle enumerates."""
    topo = random_topology(34, n_nodes=16, n_services=4)
    bn = bndiag.build_bn(topo)
    evidence = _overlapping_incident(topo, bn, [(FaultClass.PHYSICAL_FAILURE, "n03")])
    positive = [sid for sid, seen in evidence.items() if seen]
    blamed = Counter(parent for sid in positive for parent in bn.cpts[sid].parents)
    assert sum(n > 1 for n in blamed.values()) > bndiag.MAX_SHARED_FAULTS
    orders = _record_orders(monkeypatch)
    engine = posterior_marginals(bn, evidence)
    assert len(orders) == 1
    oracle = _component_oracle()(bn, evidence)
    assert oracle.keys() == bn.priors.keys()
    for fid, p in oracle.items():
        assert engine.marginal(fid) == pytest.approx(p, abs=1e-9), fid
    assert engine.ranking()[0][0] == "fault:physical:n03"


def test_improbable_evidence_keeps_full_precision():
    # Two services share a path whose faults negative findings have nearly
    # ruled out (folded into the priors here, to stay within the
    # enumeration cap). Summing the auxiliary variables out after the
    # shared faults cancels like an alternating sum and was 8e-10 off.
    priors = {
        "fault:agent:n00": 1.6e-6, "fault:agent:n03": 1.6e-6,
        "fault:drop:e002": 2.6e-6, "fault:drop:e003": 0.02,
        "fault:physical:e002": 2e-7, "fault:physical:e003": 0.01,
        "fault:physical:e007": 1e-8, "fault:physical:e009": 1e-8,
        "fault:physical:n00": 2e-13, "fault:physical:n03": 2e-11,
        "fault:physical:n04": 1e-10,
        "fault:service:v00": 0.004, "fault:service:v02": 0.004,
    }
    path = {
        "fault:agent:n00": 0.8, "fault:agent:n03": 0.8, "fault:physical:e002": 0.95,
        "fault:physical:e007": 0.95, "fault:physical:e009": 0.95,
        "fault:physical:n00": 0.95, "fault:physical:n03": 0.95,
    }
    findings = {
        "symptom:link-down:e003": {
            "fault:physical:e003": 0.95, "fault:physical:n03": 0.95,
            "fault:physical:n04": 0.95,
        },
        "symptom:service-down:v00": {**path, "fault:service:v00": 0.95},
        "symptom:service-down:v02": {**path, "fault:service:v02": 0.95},
        "symptom:traffic-drop:e002": {
            "fault:drop:e002": 0.95, "fault:physical:e002": 0.95,
            "fault:physical:n00": 0.8, "fault:physical:n03": 0.8,
        },
        "symptom:traffic-drop:e003": {
            "fault:drop:e003": 0.95, "fault:physical:e003": 0.95,
            "fault:physical:n03": 0.8, "fault:physical:n04": 0.8,
        },
    }
    bn = bndiag.BayesNet(
        variables=tuple(
            [bndiag.BnVariable(id=f, kind="fault", target=f) for f in priors]
            + [bndiag.BnVariable(id=s, kind="symptom", target=s) for s in findings]
        ),
        priors=priors,
        cpts={
            s: bndiag.NoisyOrCpt(s, tuple(sorted(ps)), tuple(ps[p] for p in sorted(ps)), 0.001)
            for s, ps in findings.items()
        },
    )
    evidence = {s: True for s in findings}
    engine = posterior_marginals(bn, evidence)
    oracle = enumerate_joint(bn, evidence)
    for fid in priors:
        assert engine.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-12), fid


# ---------------------------------------------------------------------------
# the Quickscore oracle


def test_quickscore_matches_enumeration_on_the_criterion_1_sweep():
    rng = random.Random(20250810)  # the networks of acceptance criterion 1
    for _ in range(200):
        bn = random_noisy_or_bn(rng, max_vars=12, max_parents=4)
        evidence = random_evidence(rng, bn)
        try:
            oracle = enumerate_joint(bn, evidence)
        except ImpossibleEvidenceError:
            evidence = {}
            oracle = enumerate_joint(bn, evidence)
        quick = quickscore_marginals(bn, evidence)
        for fid in bn.fault_ids:
            assert quick.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9)


def test_quickscore_refuses_too_many_positive_findings():
    rng = random.Random(3)
    bn = random_noisy_or_bn(rng, max_vars=40)
    while len(bn.symptom_ids) <= QUICKSCORE_MAX_POSITIVES:
        bn = random_noisy_or_bn(rng, max_vars=40)
    with pytest.raises(BnError, match="capped at 16 positive findings"):
        quickscore_marginals(bn, {sid: True for sid in bn.symptom_ids})


def _incident_evidence(topo, bn, target, fault_class=FaultClass.PHYSICAL_FAILURE):
    """Closed-world evidence one tick after the fault is injected."""
    scenario = Scenario(
        topology=topo, faults=(FaultEvent(target, fault_class, 1),), seed=1, horizon=2
    )
    _, raws = simkernel.step(simkernel.init_sim(scenario))
    window = alarmpipe.collect_window([alarmpipe.translate_alarm(r) for r in raws], (1, 1))
    return alarmpipe.to_evidence(window, bn)


def _assert_matches_quickscore(bn, evidence):
    engine = posterior_marginals(bn, evidence)
    oracle = quickscore_marginals(bn, evidence)
    for fid in bn.fault_ids:
        assert engine.marginal(fid) == pytest.approx(oracle.marginal(fid), abs=1e-9), fid


@functools.cache
def _scale_topology(n_nodes):
    return random_topology(7777, n_nodes=n_nodes, n_services=n_nodes // 5)


@pytest.mark.parametrize("n_nodes", [100, 200, 400])
def test_link_incidents_match_quickscore_at_scale(n_nodes):
    topo = _scale_topology(n_nodes)
    bn = bndiag.build_bn(topo)
    link = topo.services[0].path[3]
    evidence = _incident_evidence(topo, bn, link)
    assert 0 < sum(evidence.values()) <= QUICKSCORE_MAX_POSITIVES
    _assert_matches_quickscore(bn, evidence)
    assert posterior_marginals(bn, evidence).ranking()[0][0] == f"fault:physical:{link}"


def test_controller_crash_at_100_nodes():
    topo = random_topology(7777, n_nodes=100, n_services=20)
    bn = bndiag.build_bn(topo)
    evidence = _incident_evidence(topo, bn, topo.controller_id, FaultClass.CONTROLLER_CRASH)
    assert sum(evidence.values()) > QUICKSCORE_MAX_POSITIVES
    started = time.perf_counter()
    posterior = posterior_marginals(bn, evidence)
    elapsed = time.perf_counter() - started
    assert posterior.ranking()[0][0] == f"fault:controller:{topo.controller_id}"
    for p_false, p_true in posterior.pairs.values():
        assert abs(p_false + p_true - 1.0) <= 1e-12
    assert elapsed < 1.0, f"{elapsed:.2f}s"


# ---------------------------------------------------------------------------
# diagnosis grading


def test_map_diagnosis_confident():
    posterior = bndiag.Posterior(pairs={"A": (0.3, 0.7), "B": (0.8, 0.2)})
    diagnosis = map_diagnosis(posterior, 0.5, {"A": 0.01, "B": 0.01})
    assert diagnosis.verdict is Verdict.CONFIDENT
    assert [fid for fid, _ in diagnosis.ranked] == ["A"]


def test_map_diagnosis_suspect():
    posterior = bndiag.Posterior(pairs={"A": (0.8, 0.2), "B": (0.95, 0.05)})
    diagnosis = map_diagnosis(posterior, 0.5, {"A": 0.01, "B": 0.01})
    assert diagnosis.verdict is Verdict.SUSPECT
    assert [fid for fid, _ in diagnosis.ranked] == ["A"]


def test_map_diagnosis_inconclusive():
    posterior = bndiag.Posterior(pairs={"A": (0.989, 0.011)})
    diagnosis = map_diagnosis(posterior, 0.5, {"A": 0.01})
    assert diagnosis.verdict is Verdict.INCONCLUSIVE
    assert [fid for fid, _ in diagnosis.ranked] == ["A"]


def test_map_diagnosis_tie_break_lexicographic():
    posterior = bndiag.Posterior(pairs={"B": (0.3, 0.7), "A": (0.3, 0.7)})
    diagnosis = map_diagnosis(posterior, 0.5, {"A": 0.01, "B": 0.01})
    assert [fid for fid, _ in diagnosis.ranked] == ["A", "B"]


def test_map_diagnosis_rejects_bad_threshold():
    posterior = bndiag.Posterior(pairs={"A": (0.5, 0.5)})
    with pytest.raises(BnError, match="threshold"):
        map_diagnosis(posterior, 1.5, {"A": 0.01})


# ---------------------------------------------------------------------------
# random-topology structure (smaller sibling of the acceptance sweep)


def test_build_bn_structure_on_random_topologies(t1):
    from sdnheal import netmodel

    for seed in range(5):
        topo = random_topology(seed, n_nodes=25, n_services=4)
        bn = bndiag.build_bn(topo)
        fault_ids = set(bn.fault_ids)
        for service in topo.services:
            parents = set(bn.cpts[f"symptom:service-down:{service.id}"].parents)
            expected = {f"fault:service:{service.id}"}
            for member in netmodel.dependency_set(topo, service.id):
                category = netmodel.component_category(topo, member)
                if category == "link":
                    expected.add(f"fault:physical:{member}")
                elif category == "node":
                    node = topo.node(member)
                    if node.kind is NodeKind.HOST:
                        continue  # hosts are outside the repair domain
                    if node.kind is NodeKind.CONTROLLER and member not in service.path:
                        continue  # orchestrator dependency, not an outage cause
                    # an agent crash keeps installed flows forwarding
                    expected.add(f"fault:physical:{member}")
            assert parents == expected, service.id
        assert all(set(bn.cpts[s].parents) <= fault_ids for s in bn.symptom_ids)


# ---------------------------------------------------------------------------
# the compiled network


def _policy_variants(closed):
    """Closed-world evidence, its open-world positives, and a mix that keeps
    every other negative finding (in id order) and leaves the rest unobserved."""
    positives = {sid: True for sid, seen in closed.items() if seen}
    negatives = sorted(sid for sid, seen in closed.items() if not seen)
    return closed, positives, {**positives, **dict.fromkeys(negatives[::2], False)}


def _posterior_sweep(t1):
    """(network, evidence) pairs: the criterion 1 networks, then incidents on
    T1 and on 100-, 200- and 400-node topologies, each under three policies."""
    rng = random.Random(20250810)  # the networks of acceptance criterion 1
    for _ in range(200):
        bn = random_noisy_or_bn(rng, max_vars=12, max_parents=4)
        drawn = random_evidence(rng, bn)
        closed = {sid: drawn.get(sid, False) for sid in bn.symptom_ids}
        for evidence in _policy_variants(closed):
            yield bn, evidence
        yield bn, drawn
    for topo in (t1, *(_scale_topology(n) for n in (100, 200, 400))):
        bn = bndiag.build_bn(topo)
        faults = bn.fault_ids
        for fid in faults if topo is t1 else faults[:: len(faults) // 8]:
            fault_class, target = bndiag.parse_fault_var(fid)
            for evidence in _policy_variants(_incident_evidence(topo, bn, target, fault_class)):
                yield bn, evidence


# Recorded for the engine that conditions on shared faults, and again when
# the network's edges became the alarms a fault raises; no posterior may
# move by a bit, and the same evidence must stay impossible.
POSTERIOR_SWEEP_SHA1 = "bde277455b33e02ccf23981d0837d89b42b1e4e6"


def test_posterior_sweep_pinned(t1):
    digest = hashlib.sha1()
    for bn, evidence in _posterior_sweep(t1):
        try:
            line = repr(posterior_marginals(bn, evidence).pairs)
        except ImpossibleEvidenceError:
            line = "impossible"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == POSTERIOR_SWEEP_SHA1


def test_network_compiles_once_across_calls(t1, monkeypatch):
    compiled = []
    real = bndiag.CompiledNet
    monkeypatch.setattr(bndiag, "CompiledNet", lambda bn: compiled.append(bn) or real(bn))
    bn = bndiag.build_bn(t1)
    for target in ("l1", "l2", "s1", "v1"):
        fault_class = FaultClass.SERVICE_FAULT if target == "v1" else FaultClass.PHYSICAL_FAILURE
        for evidence in _policy_variants(_incident_evidence(t1, bn, target, fault_class)):
            posterior_marginals(bn, evidence)
    assert len(compiled) == 1 and compiled[0] is bn


def test_equal_networks_never_share_a_compiled_form(t1):
    a, b = bndiag.build_bn(t1), bndiag.build_bn(t1)
    assert a == b
    assert a.compiled is not b.compiled
    # a copy with other priors compiles its own resting pairs
    fid = "fault:physical:l1"
    raised = a._replace(priors={**a.priors, fid: 0.5})
    assert raised.compiled.open.pairs[fid] == pytest.approx((0.5, 0.5))
    assert a.compiled.open.pairs[fid] == pytest.approx((0.99, 0.01))
    evidence = {sid: False for sid in a.symptom_ids}
    _assert_matches_quickscore(raised, evidence)


def _edge_case_bn(prior_f=1.0):
    """F certainly raises Y, its only child, and is certainly active at
    prior 1; Z always fires (leak 1)."""
    def symptom(name, parents, strengths, leak):
        sid = f"symptom:service-down:{name}"
        cpt = bndiag.NoisyOrCpt(sid, tuple(f"fault:service:{p}" for p in parents), strengths, leak)
        return bndiag.BnVariable(id=sid, kind="symptom", target=name), cpt

    faults = tuple(bndiag.BnVariable(id=f"fault:service:{x}", kind="fault", target=x) for x in "FG")
    symptoms = [
        symptom("Y", "F", (1.0,), 0.0),
        symptom("Z", "G", (0.7,), 1.0),
        symptom("W", "FG", (0.5, 0.6), 0.01),
    ]
    return bndiag.BayesNet(
        variables=faults + tuple(v for v, _ in symptoms),
        priors={"fault:service:F": prior_f, "fault:service:G": 0.3},
        cpts={cpt.child: cpt for _, cpt in symptoms},
    )


def test_compiling_never_raises_only_impossible_calls_do():
    bn = _edge_case_bn()
    net = bn.compiled  # the closed-world pair of F has no mass, yet no raise
    assert net.open.void == set() and net.children
    assert net.certain == ("symptom:service-down:Z",)
    assert net.closed.void == {"fault:service:F"}
    impossible = 0
    for values in itertools.product((None, False, True), repeat=len(bn.symptom_ids)):
        evidence = {sid: v for sid, v in zip(bn.symptom_ids, values) if v is not None}
        try:
            reference = enumerate_joint(bn, evidence)
        except ImpossibleEvidenceError:
            impossible += 1
            with pytest.raises(ImpossibleEvidenceError):
                posterior_marginals(bn, evidence)
            continue
        posterior = posterior_marginals(bn, evidence)
        for fid in bn.fault_ids:
            assert posterior.marginal(fid) == pytest.approx(reference.marginal(fid), abs=1e-9)
    assert 0 < impossible < 27


def test_negative_finding_with_certain_leak_is_impossible():
    bn = _edge_case_bn(prior_f=0.2)
    z, w = "symptom:service-down:Z", "symptom:service-down:W"
    closed = {sid: False for sid in bn.symptom_ids}  # no fault touched
    for evidence in ({z: False}, {z: False, w: True}, closed, {**closed, w: True}):
        with pytest.raises(ImpossibleEvidenceError):
            posterior_marginals(bn, evidence)
        with pytest.raises(ImpossibleEvidenceError):
            enumerate_joint(bn, evidence)
        with pytest.raises(ImpossibleEvidenceError):
            quickscore_marginals(bn, evidence)
