import json

import numpy as np
import pytest

from sdnheal import bndiag, healloop, recover
from sdnheal.alarmpipe import EvidencePolicy
from sdnheal.bndiag import BnParams, Diagnosis, Posterior, Verdict
from sdnheal.healloop import (
    IncidentRecord,
    LoopConfig,
    LoopError,
    batch_metrics,
    compute_metrics,
    emit_report,
    run_loop,
)
from sdnheal.recover import ActionKind
from sdnheal.simkernel import FaultEvent, NoiseConfig, NoiseMode, Scenario
from sdnheal.taxonomy import FaultClass


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
    # flat, high priors disarm the suspect rule and the weak direct edges
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
            "p-indirect": 0.5,
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
            mode=NoiseMode.STOCHASTIC,
            alarm_loss_probability=0.1,
            spurious_alarm_rate=0.2,
        ),
        seed=99,
    )
    config = LoopConfig(evidence_policy=EvidencePolicy.OPEN_WORLD)
    a = emit_report(run_loop(scenario, config=config))
    b = emit_report(run_loop(scenario, config=config))
    assert a == b


def test_loop_config_validation():
    with pytest.raises(LoopError):
        LoopConfig(evidence_window=0)
    with pytest.raises(LoopError):
        LoopConfig(threshold=1.0)
    with pytest.raises(LoopError):
        LoopConfig(verify_timeout=0)


# ---------------------------------------------------------------------------
# metrics and reports


def test_metrics_recompute_from_records(t1):
    scenario = scenario_for(
        t1,
        faults=[
            FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 2),
            FaultEvent("v1", FaultClass.SERVICE_FAULT, 8),
        ],
        horizon=14,
    )
    report = run_loop(scenario)
    assert compute_metrics(list(report.records), list(report.alarm_log)) == report.metrics


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
        executed=True,
        recovered=recovered,
        detection_latency=0,
        diagnosis_latency=0,
        recovery_latency=1 if recovered else None,
    )


def fabricate_report(records) -> healloop.RunReport:
    return healloop.RunReport(
        scenario_name="fabricated",
        seed=0,
        horizon=10,
        records=tuple(records),
        alarm_log=(),
        metrics=compute_metrics(list(records), []),
        params=BnParams(),
        config=LoopConfig(),
        table=recover.default_strategy_table(),
    )


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


def test_report_flags_parameter_sources(t1):
    params = bndiag.params_from_dict({"p-direct": 0.9})
    report = run_loop(scenario_for(t1), params=params)
    parameters = json.loads(emit_report(report))["parameters"]
    echo = parameters["bn"]
    assert echo["p-direct"] == {"value": 0.9, "source": "override"}
    assert echo["p-indirect"]["source"] == "default"
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
