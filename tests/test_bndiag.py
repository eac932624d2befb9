import functools
import hashlib
import itertools
import json
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import alarmpipe, bndiag, healloop, simkernel
from sdnheal.bndiag import (
    BnError,
    BnParams,
    ImpossibleEvidenceError,
    Verdict,
    enumerate_joint,
    map_diagnosis,
    posterior_marginals,
    quickscore_marginals,
)
from sdnheal.netmodel import NodeKind
from sdnheal.simkernel import FaultEvent, Scenario
from sdnheal.taxonomy import FaultClass, Symptom

from conftest import make_bn2, random_evidence, random_noisy_or_bn
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
    assert set(cpt.parents) == {
        "fault:service:v1",
        "fault:physical:la",
        "fault:physical:s1",
        "fault:physical:l1",
        "fault:physical:s2",
        "fault:physical:lb",
        "fault:agent:s1",
        "fault:agent:s2",
    }
    strengths = dict(zip(cpt.parents, cpt.link_probabilities))
    # agent crashes only make an outage plausible; the rest cause it
    for parent, p in strengths.items():
        if parent.startswith("fault:agent:"):
            assert p == BnParams().p_indirect
        else:
            assert p == BnParams().p_direct


def test_build_bn_sla_parents_add_traffic_drops(t1):
    bn = bndiag.build_bn(t1)
    cpt = bn.cpts["symptom:sla-violation:v1"]
    strengths = dict(zip(cpt.parents, cpt.link_probabilities))
    for link in ("la", "l1", "lb"):
        assert strengths[f"fault:drop:{link}"] == BnParams().p_direct
    assert strengths["fault:service:v1"] == BnParams().p_indirect


def test_build_bn_of_session_lost_parents(t1):
    bn = bndiag.build_bn(t1)
    cpt = bn.cpts["symptom:of-session-lost:s1"]
    strengths = dict(zip(cpt.parents, cpt.link_probabilities))
    assert strengths == {
        "fault:agent:s1": BnParams().p_direct,
        "fault:controller:c0": BnParams().p_direct,
        "fault:physical:s1": BnParams().p_indirect,
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
# network's priors and CPTs; recorded when the edges were spelled out
# symptom by symptom, before they came from `taxonomy.effects`.
BUILD_BN_SHA1 = {
    ("t1", False): ("9d513a8d05236a7806e5b13c7d0e5778ac5d5854",
                    "44d40459177e7172fb439f4667907ed9762775c5"),
    ("t1", True): ("782a3e369eadbb6dc4a997ffb1974eff2b5bd3a0",
                   "889351a15c5a0c0adbd47c92546068a11589546c"),
    (25, False): ("5b52074c6bbae7f4c01d33767e0c7d5d8fad0d0c",
                  "a7b0d9e795d5494dcd29890758d674ffbb9e4ec2"),
    (25, True): ("b2c60565098c93ab7d8bd625b328633cc9d65e12",
                 "bbf3de838dfa90c406bd263c323f84a3f673a734"),
    (100, False): ("b0169097da9a22299ef301196a0182be4b20a841",
                   "4161bf7e51b9df085e1816830ba78542d6586e46"),
    (100, True): ("74b27424794455dbe22d08a7c98dec7edb9f02cc",
                  "9396c0f8279a46f44e67d8264b38154dc7e83de0"),
    (400, False): ("70586354f781e2006f28b1c046a0f73723d087c8",
                   "fc0d4d05ac83c529bea2a4ac498e12eeb3866e8d"),
    (400, True): ("bad7173312e95c573d7699fb1a6f78052974de80",
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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=8, max_value=30))
def test_direct_edges_are_the_alarms_a_fault_raises(seed, n_nodes):
    """Each fault variable's p-direct children are the alarms that one
    simulator step emits with that fault alone active."""
    topo = random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5))
    params = BnParams(include_hosts=True)
    bn = bndiag.build_bn(topo, params)
    direct = {fid: set() for fid in bn.fault_ids}
    for sid, cpt in bn.cpts.items():
        for parent, p in zip(cpt.parents, cpt.link_probabilities):
            if p == params.p_direct:
                direct[parent].add(sid)
    for fid, children in direct.items():
        fault_class, target = bndiag.parse_fault_var(fid)
        fault = FaultEvent(target=target, fault_class=fault_class, at_tick=1)
        scenario = Scenario(topology=topo, faults=(fault,), horizon=2)
        _, raws = simkernel.step(simkernel.init_sim(scenario))
        alarms = {alarmpipe.translate_alarm(raw) for raw in raws}
        assert children == {bndiag.symptom_var_id(a.symptom, a.emitter) for a in alarms}, fid


def test_build_bn_long_paths_match_quickscore():
    # long service paths give symptoms many parents (this topology once
    # tripped a 10-parent cap); no engine factor grows with that count
    topo = random_topology(5, n_nodes=40, n_services=4, max_path_links=12)
    bn = bndiag.build_bn(topo)
    assert max(len(cpt.parents) for cpt in bn.cpts.values()) > 10
    evidence = _incident_evidence(topo, bn, _longest_service_link(topo))
    assert 0 < sum(evidence.values()) <= bndiag.QUICKSCORE_MAX_POSITIVES
    assert max(len(f.scope) for f in bndiag.compile_factors(bn, evidence)) == 2
    _assert_matches_quickscore(bn, evidence)


def _longest_service_link(topo):
    service = max(topo.services, key=lambda s: (len(s.path), s.id))
    return service.path[len(service.path) // 2]


def test_params_from_dict_accepts_max_parents_as_no_op():
    assert bndiag.params_from_dict({"max-parents": 10}) == BnParams()


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
    with pytest.raises(BnError, match="threshold"):
        BnParams(threshold=1.0)


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


def test_min_fill_order_matches_naive_greedy():
    """The cached/short-circuited implementation must pick the exact same
    order as the straightforward argmin over (fill cost, id)."""
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(3, 14)
        variables = {f"x{i:02d}" for i in range(n)}
        pool = sorted(variables)
        scopes = [
            tuple(rng.sample(pool, k=rng.randint(1, min(4, n))))
            for _ in range(rng.randint(2, 12))
        ]
        assert bndiag.min_fill_order(variables, scopes) == _naive_min_fill(
            variables, scopes
        )


def test_min_fill_order_puts_last_variables_last():
    rng = random.Random(98)
    for _ in range(25):
        n = rng.randint(3, 14)
        variables = {f"x{i:02d}" for i in range(n)}
        pool = sorted(variables)
        scopes = [
            tuple(rng.sample(pool, k=rng.randint(1, min(4, n))))
            for _ in range(rng.randint(2, 12))
        ]
        last = frozenset(rng.sample(pool, k=rng.randint(0, n)))
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
    while len(bn.symptom_ids) <= bndiag.QUICKSCORE_MAX_POSITIVES:
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
    assert 0 < sum(evidence.values()) <= bndiag.QUICKSCORE_MAX_POSITIVES
    _assert_matches_quickscore(bn, evidence)
    assert posterior_marginals(bn, evidence).ranking()[0][0] == f"fault:physical:{link}"


def test_controller_crash_at_100_nodes():
    topo = random_topology(7777, n_nodes=100, n_services=20)
    bn = bndiag.build_bn(topo)
    evidence = _incident_evidence(topo, bn, topo.controller_id, FaultClass.CONTROLLER_CRASH)
    assert sum(evidence.values()) > bndiag.QUICKSCORE_MAX_POSITIVES
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
                    expected.add(f"fault:physical:{member}")
                    if node.kind is NodeKind.OPENFLOW_SWITCH:
                        expected.add(f"fault:agent:{member}")
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


# Recorded before the network was compiled once per network; no posterior
# may move by a bit, and the same evidence must stay impossible.
POSTERIOR_SWEEP_SHA1 = "d1213636e92b68a74b00f091fcd4486dd8822d64"


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
    raised = replace(a, priors={**a.priors, fid: 0.5})
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
