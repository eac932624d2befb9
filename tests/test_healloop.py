import enum
import gc
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import bndiag, healloop, recover, simkernel, taxonomy
from sdnheal.alarmpipe import EvidencePolicy
from sdnheal.bndiag import BnParams, Diagnosis, Posterior, Verdict
from sdnheal.healloop import (
    IncidentRecord,
    LoopConfig,
    LoopError,
    batch_metrics,
    emit_report,
    render_json,
    run_loop,
)
from sdnheal.recover import ActionKind, OutcomeStatus
from sdnheal.simkernel import FaultEvent, NoiseConfig, Scenario
from sdnheal.taxonomy import FaultClass

from topogen import random_topology


def scenario_for(t1, faults=(), **kwargs) -> Scenario:
    defaults = dict(
        topology=t1, faults=tuple(faults), seed=7, horizon=12, repair_delay=2
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def fault_space_posterior(bn, evidence):
    """Independent check for fully-observed symptom evidence: explicit
    summation over every joint fault assignment (no factors, no messages)."""
    fault_ids = sorted(bn.fault_ids)
    assert set(evidence) == set(bn.symptom_ids)
    n = len(fault_ids)
    position = {f: i for i, f in enumerate(fault_ids)}
    index = np.arange(2**n, dtype=np.int64)

    def bit(fid):
        return (index >> (n - 1 - position[fid])) & 1

    weight = np.ones(2**n)
    for fid in fault_ids:
        p = bn.priors[fid]
        weight = weight * np.where(bit(fid) == 1, p, 1.0 - p)
    for sid, observed in evidence.items():
        cpt = bn.cpts[sid]
        q = np.full(2**n, 1.0 - cpt.leak)
        for parent, p in zip(cpt.parents, cpt.link_probabilities):
            q = q * np.where(bit(parent) == 1, 1.0 - p, 1.0)
        weight = weight * ((1.0 - q) if observed else q)
    z = weight.sum()
    return {fid: float(weight[bit(fid) == 1].sum() / z) for fid in fault_ids}


# ---------------------------------------------------------------------------
# the closed loop


def test_link_failure_run(t1):
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)]
    )
    report = run_loop(scenario)
    assert len(report.records) == 1
    record = report.records[0]
    assert record.detected_at == 2
    assert record.posterior.ranking()[0][0] == "fault:physical:l1"
    assert record.diagnosis.verdict is Verdict.CONFIDENT
    assert [a.kind for a in record.plan] == [ActionKind.REROUTE]
    assert record.plan[0].target == "v1"
    assert record.recovered is True
    assert record.recovery_latency <= 3
    assert report.metrics["map-accuracy"] == 1.0


def test_quiescent_run_reports_not_applicable(t1):
    report = run_loop(scenario_for(t1))
    assert report.records == ()
    assert report.metrics["incidents"] == 0
    assert report.metrics["map-accuracy"] is None
    assert report.metrics["top3-accuracy"] is None
    assert report.metrics["mean-recovery-latency"] is None


def test_agent_crash_map_confirmed_by_fault_space_enumeration(t1):
    scenario = scenario_for(
        t1, faults=[FaultEvent("s1", FaultClass.OPENFLOW_AGENT_CRASH, 1)]
    )
    report = run_loop(scenario)
    assert len(report.records) == 1
    record = report.records[0]
    assert record.posterior.ranking()[0][0] == "fault:agent:s1"
    assert [a.kind for a in record.plan] == [ActionKind.RESTART_OPENFLOW_AGENT]
    assert record.recovered is True

    bn = bndiag.build_bn(t1)
    reference = fault_space_posterior(bn, record.evidence)
    best = max(reference, key=lambda f: (reference[f], f))
    assert best == "fault:agent:s1"
    for fid, p in record.posterior.marginals.items():
        assert p == pytest.approx(reference[fid], abs=1e-9)


def test_one_incident_per_fault_episode(t1):
    # the fault stays active to the horizon; re-emitted alarms are
    # attributed to the recorded incident, not new ones
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)], horizon=20
    )
    report = run_loop(scenario)
    assert len(report.records) == 1


def test_separate_episodes_make_separate_incidents(t1):
    scenario = scenario_for(
        t1,
        faults=[
            FaultEvent("v1", FaultClass.SERVICE_FAULT, 2),
            FaultEvent("s3", FaultClass.OPENFLOW_AGENT_CRASH, 7),
        ],
        horizon=14,
    )
    report = run_loop(scenario)
    assert len(report.records) == 2
    assert report.records[0].posterior.ranking()[0][0] == "fault:service:v1"
    assert report.records[1].posterior.ranking()[0][0] == "fault:agent:s3"
    assert all(r.recovered for r in report.records)


def test_inconclusive_diagnosis_widens_then_records_unresolved(t1):
    # flat, high priors disarm the suspect rule and the weak edges
    # keep every posterior far from the confidence threshold
    params = bndiag.params_from_dict(
        {
            "priors": {
                "physical-failure": 0.15,
                "interface-traffic-drop": 0.15,
                "openflow-agent-crash": 0.15,
                "service-fault": 0.15,
                "controller-crash": 0.15,
            },
            "p-direct": 0.6,
        }
    )
    config = LoopConfig(threshold=0.99, max_widenings=2)
    scenario = scenario_for(
        t1, faults=[FaultEvent("l2", FaultClass.INTERFACE_TRAFFIC_DROP, 2)]
    )
    report = run_loop(scenario, params=params, config=config)
    assert len(report.records) >= 1
    record = report.records[0]
    assert record.diagnosis.verdict is Verdict.INCONCLUSIVE
    assert record.diagnosis_latency == 2  # both widenings used
    assert record.plan == ()
    assert record.recovered is False
    assert record.recovery_latency is None


def test_suggest_only_records_plan_without_executing(t1):
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)]
    )
    report = run_loop(scenario, config=LoopConfig(suggest_only=True))
    record = report.records[0]
    assert record.plan
    assert record.executed is False
    assert record.outcomes == ()
    assert record.recovered is False


def test_run_loop_deterministic_across_calls(t1):
    scenario = scenario_for(
        t1,
        faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)],
        noise=NoiseConfig(
            alarm_loss_probability=0.1,
            spurious_alarm_rate=0.2,
        ),
        seed=99,
    )
    config = LoopConfig(evidence_policy=EvidencePolicy.OPEN_WORLD)
    a = emit_report(run_loop(scenario, config=config))
    b = emit_report(run_loop(scenario, config=config))
    assert a == b


def noisy_three_fault_scenario(t1) -> Scenario:
    """Overlapping faults under loss and spurious alarms."""
    return scenario_for(
        t1,
        faults=[
            FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2),
            FaultEvent("s3", FaultClass.OPENFLOW_AGENT_CRASH, 9),
            FaultEvent("v1", FaultClass.SERVICE_FAULT, 16),
        ],
        noise=NoiseConfig(
            alarm_loss_probability=0.2,
            spurious_alarm_rate=0.4,
        ),
        seed=3,
        horizon=30,
        repair_delay=3,
    )


# Recorded when the simulator's draws became keyed uniforms, a reroute went
# on to its repair ticket and closed-world evidence left suppressed
# symptoms unobserved, again when the network's edges became the alarms a
# fault raises, and again when the network parameters stopped echoing a
# threshold (the earlier reports, with that key dropped, hash to these);
# the reports must not move.
NOISY_REPORT_SHA1 = {
    EvidencePolicy.CLOSED_WORLD: "7bc6e7b854c5724d4272f1b71ae805113bda0f68",
    EvidencePolicy.OPEN_WORLD: "c3b7a94d4c07aa44b422fe19946ce57de24569da",
}


@pytest.mark.parametrize("policy", list(EvidencePolicy))
def test_noisy_loop_report_pinned(t1, policy):
    config = LoopConfig(evidence_policy=policy)
    text = emit_report(run_loop(noisy_three_fault_scenario(t1), config=config))
    assert hashlib.sha1(text.encode()).hexdigest() == NOISY_REPORT_SHA1[policy]


def overlapping_topogen_scenario(
    seed: int, n_nodes: int = 12, max_path_links: int = 3
) -> Scenario:
    """Eight faults of any class on a small random topology, in overlapping
    bursts, under alarm loss and spurious alarms."""
    topology = random_topology(
        seed, n_nodes=n_nodes, n_services=3, max_path_links=max_path_links
    )
    compatible = [
        (target, fault_class)
        for fault_class in FaultClass
        for target in taxonomy.fault_targets(topology, fault_class)
    ]
    rng = random.Random(f"pinned-loop|{seed}")
    ticks = (3, 4, 20, 21, 22, 45, 60, 61)
    faults = tuple(
        FaultEvent(target, fault_class, tick)
        for (target, fault_class), tick in zip(rng.sample(compatible, len(ticks)), ticks)
    )
    return Scenario(
        topology=topology,
        faults=faults,
        noise=NoiseConfig(
            alarm_loss_probability=0.15,
            spurious_alarm_rate=0.1,
        ),
        seed=rng.randrange(2**31),
        horizon=80,
        repair_delay=2,
    )


# Recorded when the simulator's draws became keyed uniforms, a reroute went
# on to its repair ticket and closed-world evidence left suppressed
# symptoms unobserved, again when the network's edges became the alarms a
# fault raises, and again when the network parameters stopped echoing a
# threshold (the earlier reports, with that key dropped, hash to these);
# the reports must not move.
TOPOGEN_REPORTS_SHA1 = {
    EvidencePolicy.CLOSED_WORLD: "c567e054d383b49fbc683c8c57558fc0dcf4d126",
    EvidencePolicy.OPEN_WORLD: "bc6529f19ca7b9d7c8f2593a6022b6207ba1a03c",
}


@pytest.mark.parametrize("policy", list(EvidencePolicy))
def test_topogen_loop_reports_pinned(policy):
    digest = hashlib.sha1()
    reroutes = widenings = 0
    # open-world widens only where a lone finding has many candidate causes,
    # such as the service-down of a path of five links
    scenarios = (
        *map(overlapping_topogen_scenario, (0, 1, 2, 4)),
        overlapping_topogen_scenario(0, n_nodes=20, max_path_links=5),
    )
    for scenario in scenarios:
        report = run_loop(scenario, config=LoopConfig(evidence_policy=policy))
        for fmt in ("json", "table"):
            digest.update(emit_report(report, fmt).encode())
        reroutes += sum(
            o.action.kind is ActionKind.REROUTE and o.status is OutcomeStatus.SUCCESS
            for record in report.records
            for o in record.outcomes
        )
        widenings += sum(r.diagnosed_at > r.detected_at for r in report.records)
    assert reroutes and widenings  # the runs change paths and widen windows
    assert digest.hexdigest() == TOPOGEN_REPORTS_SHA1[policy]


# Recorded when the simulator's draws became keyed uniforms, a reroute went
# on to its repair ticket and closed-world evidence left suppressed
# symptoms unobserved, again when the network's edges became the alarms a
# fault raises, and again when the network parameters stopped echoing a
# threshold (the earlier reports, with that key dropped, hash to these);
# the reports must not move.
LOOP_CONFIGURATIONS_SHA1 = "7c31644fd659cccfc9d3dd53c5e5f26e274c3e4a"


def test_loop_configurations_pinned(t1):
    """Windows of two and three ticks, with and without widening, planned
    only or executed, under both policies. A window wider than one tick
    can hold alarms raised while an earlier incident was being verified."""
    digest = hashlib.sha1()
    scenarios = (noisy_three_fault_scenario(t1), *map(overlapping_topogen_scenario, (0, 1)))
    for scenario, policy, window, widenings, suggest_only in itertools.product(
        scenarios, EvidencePolicy, (2, 3), (0, 2), (False, True)
    ):
        config = LoopConfig(
            evidence_window=window,
            evidence_policy=policy,
            max_widenings=widenings,
            suggest_only=suggest_only,
        )
        digest.update(emit_report(run_loop(scenario, config=config)).encode())
    assert digest.hexdigest() == LOOP_CONFIGURATIONS_SHA1


def _loop_scenarios(t1) -> list[Scenario]:
    return [noisy_three_fault_scenario(t1), *map(overlapping_topogen_scenario, (0, 1, 2, 4))]


@pytest.mark.parametrize("policy", list(EvidencePolicy))
def test_loop_infers_each_window_once(t1, policy, monkeypatch):
    """One inference per distinct (window, suppressed) key of a run. Only
    closed-world evidence reads the suppressed keys, which it leaves
    unobserved; open-world leaves every silent symptom unobserved, so its
    key is the window alone."""
    closed = policy is EvidencePolicy.CLOSED_WORLD
    keys, inferred = [], []
    real_diagnose, real_infer = healloop._Diagnoser.diagnose, bndiag.posterior_marginals

    def diagnosing(diagnoser, window, suppressed):
        keys.append((
            frozenset(bndiag.symptom_var_id(a.symptom, a.emitter) for a in window),
            frozenset(bndiag.symptom_var_id(s, e) for e, s in suppressed) if closed
            else frozenset(),
        ))
        return real_diagnose(diagnoser, window, suppressed)

    def inferring(bn, evidence):
        inferred.append((
            frozenset(sid for sid, value in evidence.items() if value),
            frozenset(bn.symptom_ids) - evidence.keys() if closed else frozenset(),
        ))
        return real_infer(bn, evidence)

    def order(key):
        return sorted(key[0]), sorted(key[1])

    repeated = resuppressed = False
    for scenario in _loop_scenarios(t1):
        keys.clear()
        inferred.clear()
        monkeypatch.setattr(healloop._Diagnoser, "diagnose", diagnosing)
        monkeypatch.setattr(bndiag, "posterior_marginals", inferring)
        report = run_loop(scenario, config=LoopConfig(evidence_policy=policy))
        monkeypatch.undo()

        assert sorted(inferred, key=order) == sorted(set(keys), key=order)
        repeated |= len(set(keys)) < len(keys)
        resuppressed |= len({window for window, _ in set(keys)}) < len(set(keys))
        bn = bndiag.build_bn(scenario.topology)
        for record in report.records:
            assert record.posterior == bndiag.posterior_marginals(bn, record.evidence)
    assert repeated  # the runs do repeat a key
    # and under closed-world diagnose a window under two suppressed sets
    assert resuppressed == closed


def test_closed_world_evidence_never_denies_a_firing_alarm(t1):
    """No record observes a symptom false while its alarm fires at the tick
    the record was diagnosed at, suppressed or not."""
    for scenario in _loop_scenarios(t1):
        report = run_loop(scenario)  # closed-world by default
        firing: dict[int, set[str]] = {}
        for alarm in report.alarm_log:
            firing.setdefault(alarm.tick, set()).add(
                bndiag.symptom_var_id(alarm.symptom, alarm.emitter)
            )
        for record in report.records:
            denied = {sid for sid, value in record.evidence.items() if not value}
            assert not denied & firing.get(record.diagnosed_at, set())


def test_run_loop_calls_through_the_module_attributes(t1, monkeypatch):
    # the benchmark reads a run's final state and its posteriors by
    # wrapping these attributes with wrappers of these exact signatures
    ticks, results = [], []
    real_step, real_infer = simkernel.step, bndiag.posterior_marginals

    def step(state):
        result = real_step(state)
        ticks.append(result[0].tick)
        return result

    def posterior_marginals(bn, evidence):
        result = real_infer(bn, evidence)
        results.append(result)
        return result

    monkeypatch.setattr(simkernel, "step", step)
    monkeypatch.setattr(bndiag, "posterior_marginals", posterior_marginals)
    scenario = noisy_three_fault_scenario(t1)
    report = run_loop(scenario)
    monkeypatch.undo()

    assert ticks == list(range(1, scenario.horizon + 1))
    assert report.records
    inferred = {id(posterior) for posterior in results}
    assert all(id(record.posterior) in inferred for record in report.records)


def test_loop_config_validation():
    with pytest.raises(LoopError):
        LoopConfig(evidence_window=0)
    with pytest.raises(LoopError):
        LoopConfig(threshold=1.0)
    with pytest.raises(LoopError):
        LoopConfig(verify_timeout=0)


# ---------------------------------------------------------------------------
# metrics and reports


def _metrics_of_document(doc: dict) -> dict:
    """A report's metrics, derived again from its records and alarm log."""
    records = doc["records"]

    def accuracy(k):
        hits = 0
        for r in records:
            truth = {bndiag.fault_var_id(FaultClass(f["class"]), f["target"])
                     for f in r["injected-faults"]}
            ranking = sorted(r["posterior"].items(), key=lambda item: (-item[1], item[0]))
            hits += any(fid in truth for fid, _ in ranking[:k])
        return hits / len(records) if records else None

    def mean(kind):
        values = [r["latencies"][kind] for r in records if r["latencies"][kind] is not None]
        return sum(values) / len(values) if values else None

    return {
        "incidents": len(records),
        "recovered-incidents": sum(r["recovered"] for r in records),
        "map-accuracy": accuracy(1),
        "top3-accuracy": accuracy(3),
        "mean-detection-latency": mean("detection"),
        "mean-diagnosis-latency": mean("diagnosis"),
        "mean-recovery-latency": mean("recovery"),
        "alarm-counts": {
            "translated": len(doc["alarm-log"]),
            "windowed": sum(len(r["alarms"]) for r in records),
        },
    }


@pytest.mark.parametrize("policy", list(EvidencePolicy))
def test_report_metrics_recompute_from_the_document_alone(t1, policy):
    """A report explains itself: each record's derived fields follow from its
    facts, and the run's metrics from the records and the alarm log."""
    config = LoopConfig(evidence_policy=policy)
    doc = json.loads(emit_report(run_loop(noisy_three_fault_scenario(t1), config=config)))
    assert len(doc["records"]) > 1
    for r in doc["records"]:
        latest = max((f["at-tick"] for f in r["injected-faults"]), default=None)
        assert r["executed"] is bool(r["outcomes"])
        assert r["recovered"] is (r["latencies"]["recovery"] is not None)
        detection = None if latest is None else r["detected-at"] - latest
        assert r["latencies"]["detection"] == detection
        assert r["latencies"]["diagnosis"] == r["diagnosed-at"] - r["detected-at"]
    assert doc["metrics"] == _metrics_of_document(doc)


def fabricate_record(injected_target, map_target, recovered=True) -> IncidentRecord:
    injected = (FaultEvent(injected_target, FaultClass.PHYSICAL_FAILURE, 1),)
    map_id = f"fault:physical:{map_target}"
    other = "fault:physical:other"
    posterior = Posterior(pairs={map_id: (0.1, 0.9), other: (0.95, 0.05)})
    return IncidentRecord(
        detected_at=1,
        diagnosed_at=1,
        injected_faults=injected,
        alarms=(),
        evidence={},
        posterior=posterior,
        diagnosis=Diagnosis(ranked=((map_id, 0.9),), verdict=Verdict.CONFIDENT, threshold=0.5),
        plan=(),
        outcomes=(),
        recovery_latency=1 if recovered else None,
    )


def fabricate_report(records) -> healloop.RunReport:
    return healloop.RunReport(
        scenario_name="fabricated",
        seed=0,
        horizon=10,
        records=tuple(records),
        alarm_log=(),
        params=BnParams(),
        config=LoopConfig(),
        table=recover.default_strategy_table(),
    )


def test_posterior_ranking_is_a_new_list_every_call():
    record = fabricate_record("x", "x")
    posterior = record.posterior
    expected = [("fault:physical:x", 0.9), ("fault:physical:other", 0.05)]
    first = posterior.ranking()
    assert first == expected
    first[:] = [("fault:physical:bogus", 1.0)]
    second = posterior.ranking()
    assert second == expected and second is not first
    second.clear()
    assert posterior.ranking() == expected
    assert healloop.map_hit(record) and healloop.top3_hit(record)
    diagnosis = bndiag.map_diagnosis(posterior, 0.5, {})
    assert diagnosis.ranked == (("fault:physical:x", 0.9),)
    assert diagnosis.verdict is Verdict.CONFIDENT


def test_batch_metrics_pools_accuracy():
    perfect = fabricate_report(
        [fabricate_record("x", "x"), fabricate_record("y", "y")]
    )
    half = fabricate_report(
        [fabricate_record("x", "x"), fabricate_record("y", "z")]
    )
    assert perfect.metrics["map-accuracy"] == 1.0
    assert half.metrics["map-accuracy"] == 0.5
    pooled = batch_metrics([perfect, half])
    assert pooled["pooled"]["map-accuracy"] == 0.75
    assert pooled["reports"] == 2


def test_batch_metrics_single_report_is_identity():
    report = fabricate_report([fabricate_record("x", "x")])
    assert batch_metrics([report])["pooled"]["map-accuracy"] == report.metrics[
        "map-accuracy"
    ]


def test_batch_metrics_rejects_empty():
    with pytest.raises(LoopError):
        batch_metrics([])


def test_emit_report_json_round_trip(t1):
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)]
    )
    report = run_loop(scenario)
    doc = json.loads(emit_report(report, "json"))
    assert doc["schema-version"] == 1
    assert doc["metrics"]["incidents"] == 1
    # embedded metrics re-derive from the embedded records
    ranked = sorted(
        doc["records"][0]["posterior"].items(), key=lambda kv: (-kv[1], kv[0])
    )
    truth = {
        f"fault:{'physical' if f['class'] == 'physical-failure' else f['class']}:{f['target']}"
        for f in doc["records"][0]["injected-faults"]
    }
    assert (ranked[0][0] in truth) == (doc["metrics"]["map-accuracy"] == 1.0)


def test_emit_report_table(t1):
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)]
    )
    table = emit_report(run_loop(scenario), "table")
    assert "incident" in table.splitlines()[0]
    assert "physical-failure(l1)" in table
    assert "fault:physical:l1" in table


def test_emit_report_table_empty(t1):
    table = emit_report(run_loop(scenario_for(t1)), "table")
    lines = [line for line in table.splitlines() if line.strip()]
    assert "incident" in lines[0]
    assert len(lines) == 3  # header, rule, metrics footer


def test_emit_report_equal_runs_byte_identical(t1):
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)]
    )
    assert emit_report(run_loop(scenario)) == emit_report(run_loop(scenario))


class _Word(str, enum.Enum):
    PLAIN = "physical-failure"
    AWKWARD = 'a"b\\c\n\u00e9\U0001f600'


class _Count(enum.IntEnum):
    TWO = 2


_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u00e9\u2028\U0001f600'),
        st.characters(),
    )
) | st.sampled_from(list(_Word))
_NUMBERS = (
    st.integers()
    | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, _Count.TWO])
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, math.nan, math.inf, -math.inf])
)
_JSON = st.recursive(
    _TEXT | _NUMBERS | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_render_json_equals_the_stdlib_renderer(doc):
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# json would write the int key as "1"; every key the CLI writes is a str
@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [b"bytes"], {1: "int key"}])
def test_render_json_raises_type_error_outside_its_contract(doc):
    with pytest.raises(TypeError):
        render_json(doc)


def test_render_json_leaves_no_reference_cycles(t1):
    """A writer that recursed through a closure would leave one cycle per
    call, kept alive until the cyclic collector runs."""
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2)]
    )
    report = run_loop(scenario)
    gc.collect()
    gc.disable()
    try:
        emit_report(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_report_flags_parameter_sources(t1):
    params = bndiag.params_from_dict({"p-direct": 0.9})
    report = run_loop(scenario_for(t1), params=params)
    parameters = json.loads(emit_report(report))["parameters"]
    echo = parameters["bn"]
    assert echo["p-direct"] == {"value": 0.9, "source": "override"}
    assert echo["leak"]["source"] == "default"
    assert "p-indirect" not in echo
    assert parameters["loop"]["threshold"]["source"] == "default"


DEFAULT_PHYSICAL_STRATEGY = [
    {"kind": "reroute", "scope": "dependent-services"},
    {"kind": "open-repair-ticket"},
]


@pytest.mark.parametrize(
    "settings, path, source",
    [
        (
            {"params": bndiag.params_from_dict({"p-direct": 0.95})},
            ("bn", "p-direct", "source"),
            "default",
        ),
        (
            {"params": bndiag.params_from_dict({"leak": 0.002})},
            ("bn", "leak", "source"),
            "override",
        ),
        (
            {"table": recover.strategy_table_from_dict(
                {"physical-failure": DEFAULT_PHYSICAL_STRATEGY})},
            ("strategy",),
            "default",
        ),
        (
            {"table": recover.strategy_table_from_dict(
                {"physical-failure": DEFAULT_PHYSICAL_STRATEGY[1:]})},
            ("strategy",),
            "override",
        ),
        (
            {"config": LoopConfig(evidence_policy=EvidencePolicy.OPEN_WORLD)},
            ("loop", "evidence-policy", "source"),
            "override",
        ),
        (
            {"config": LoopConfig(threshold=0.5)},
            ("loop", "threshold", "source"),
            "default",
        ),
    ],
)
def test_report_provenance_follows_values(t1, settings, path, source):
    """A setting reads `override` exactly when its value differs from the default."""
    parameters = json.loads(emit_report(run_loop(scenario_for(t1), **settings)))[
        "parameters"
    ]
    for key in path:
        parameters = parameters[key]
    assert parameters == source
