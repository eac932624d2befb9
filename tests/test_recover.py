import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import bndiag, netmodel, taxonomy
from sdnheal.bndiag import BnParams, Diagnosis, Verdict
from sdnheal.netmodel import ServiceState
from sdnheal.recover import (
    ActionKind,
    ActionOutcome,
    OutcomeStatus,
    PlanError,
    RecoveryAction,
    StrategyTable,
    default_strategy_table,
    execute_plan,
    select_strategy,
    strategy_table_from_dict,
    verify_recovery,
)
from sdnheal.taxonomy import FaultClass, Symptom

from topogen import random_topology


def diag(fault_id, p=0.9, verdict=Verdict.CONFIDENT) -> Diagnosis:
    return Diagnosis(ranked=((fault_id, p),), verdict=verdict, threshold=0.5)


# ---------------------------------------------------------------------------
# strategy table


def test_default_table_total_over_fault_classes():
    table = default_strategy_table()
    assert set(table.entries) == set(FaultClass)


def test_partial_table_rejected():
    with pytest.raises(PlanError, match="not total"):
        StrategyTable(entries={FaultClass.SERVICE_FAULT: ()})


def test_strategy_override_merges_over_defaults():
    table = strategy_table_from_dict(
        {"service-fault": [{"kind": "reroute", "scope": "dependent-services"}]}
    )
    assert table.entries[FaultClass.SERVICE_FAULT][0].kind is ActionKind.REROUTE
    # untouched classes keep the defaults
    assert (
        table.entries[FaultClass.CONTROLLER_CRASH][0].kind
        is ActionKind.CONTROLLER_FAILOVER
    )


def test_default_table_loads_as_a_strategy_document():
    """Every default entry passes the checks a strategy document gets."""
    default = default_strategy_table()
    doc = {
        fc.value: [{"kind": tpl.kind.value, "scope": tpl.scope} for tpl in templates]
        for fc, templates in default.entries.items()
    }
    assert strategy_table_from_dict(doc) == default


# ---------------------------------------------------------------------------
# plan selection


def test_select_strategy_physical_failure_reroutes_dependents(t1):
    plan = select_strategy(diag("fault:physical:l1"), t1, default_strategy_table())
    assert len(plan) == 1
    action = plan[0]
    assert action.kind is ActionKind.REROUTE
    assert action.target == "v1"
    assert action.avoid == ("l1",)
    assert action.fallback is not None
    assert action.fallback.kind is ActionKind.OPEN_REPAIR_TICKET
    assert action.fallback.target == "l1"


def test_select_strategy_isolated_component_gets_ticket(t1):
    # no service depends on l2, so the fallback runs directly
    plan = select_strategy(diag("fault:physical:l2"), t1, default_strategy_table())
    assert [(a.kind, a.target) for a in plan] == [
        (ActionKind.OPEN_REPAIR_TICKET, "l2")
    ]


def test_select_strategy_service_fault(t1):
    plan = select_strategy(diag("fault:service:v1"), t1, default_strategy_table())
    assert [(a.kind, a.target) for a in plan] == [(ActionKind.RESTART_SERVICE, "v1")]


def test_select_strategy_controller_crash(t1):
    plan = select_strategy(diag("fault:controller:c0"), t1, default_strategy_table())
    assert [(a.kind, a.target) for a in plan] == [
        (ActionKind.CONTROLLER_FAILOVER, "c0")
    ]


def test_select_strategy_agent_crash(t1):
    plan = select_strategy(diag("fault:agent:s1"), t1, default_strategy_table())
    assert [(a.kind, a.target) for a in plan] == [
        (ActionKind.RESTART_OPENFLOW_AGENT, "s1")
    ]


def test_select_strategy_rejects_inconclusive(t1):
    with pytest.raises(PlanError, match="inconclusive"):
        select_strategy(
            diag("fault:physical:l1", verdict=Verdict.INCONCLUSIVE),
            t1,
            default_strategy_table(),
        )


def test_select_strategy_deterministic(t1):
    table = default_strategy_table()
    assert select_strategy(diag("fault:physical:l1"), t1, table) == select_strategy(
        diag("fault:physical:l1"), t1, table
    )


def test_plan_targets_trace_back_to_diagnosis(t1):
    """The first action hits the diagnosed component or a service that
    depends on it."""
    table = default_strategy_table()
    for fault_id in (
        "fault:physical:l1",
        "fault:physical:s3",
        "fault:drop:lb",
        "fault:agent:s2",
        "fault:service:v1",
        "fault:controller:c0",
    ):
        _, target = fault_id.split(":", 2)[0], fault_id.rsplit(":", 1)[1]
        plan = select_strategy(diag(fault_id), t1, table)
        first = plan[0]
        assert first.target == target or target in netmodel.dependency_set(
            t1, first.target
        )


def test_select_strategy_controller_physical_failure_gets_ticket(t1):
    # installed flows keep forwarding without the controller, so no
    # service depends on it and its repair ticket runs directly
    plan = select_strategy(diag("fault:physical:c0"), t1, default_strategy_table())
    assert plan == [RecoveryAction(ActionKind.OPEN_REPAIR_TICKET, "c0")]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=8, max_value=30))
def test_reroute_targets_are_the_services_the_fault_affects(seed, n_nodes):
    """A confident physical failure or traffic drop reroutes exactly the
    services whose symptoms the propagation table ties to it, which are
    the services through its target; with none, its ticket runs."""
    topo = random_topology(seed, n_nodes=n_nodes, n_services=max(1, n_nodes // 5))
    table = default_strategy_table()
    rerouted_classes = (FaultClass.PHYSICAL_FAILURE, FaultClass.INTERFACE_TRAFFIC_DROP)
    for fid in bndiag.build_bn(topo, BnParams(include_hosts=True)).fault_ids:
        fault_class, target = bndiag.parse_fault_var(fid)
        if fault_class not in rerouted_classes:
            continue
        affected = sorted(
            {
                emitter
                for symptom, emitter in taxonomy.effects(topo, fault_class, target)
                if symptom in (Symptom.SERVICE_DOWN, Symptom.SLA_VIOLATION)
            }
        )
        plan = select_strategy(diag(fid), topo, table)
        reroutes = [a.target for a in plan if a.kind is ActionKind.REROUTE]
        assert reroutes == affected == list(topo.services_through(target)), fid
        if not reroutes:
            assert plan == [RecoveryAction(ActionKind.OPEN_REPAIR_TICKET, target)], fid
    controller = topo.controller_id
    assert select_strategy(diag(f"fault:physical:{controller}"), topo, table) == [
        RecoveryAction(ActionKind.OPEN_REPAIR_TICKET, controller)
    ]


# ---------------------------------------------------------------------------
# execution


def scripted_actuator(script):
    """Actuator whose outcomes follow a (kind, target) -> status script."""
    calls = []

    def actuator(action):
        calls.append(action)
        status = script.get((action.kind, action.target), OutcomeStatus.SUCCESS)
        detail = "scripted failure" if status is OutcomeStatus.FAILURE else "ok"
        return ActionOutcome(action=action, status=status, detail=detail)

    return actuator, calls


def test_execute_plan_single_success():
    action = RecoveryAction(kind=ActionKind.RESTART_SERVICE, target="v1")
    actuator, calls = scripted_actuator({})
    outcomes = execute_plan([action], actuator)
    assert [o.status for o in outcomes] == [OutcomeStatus.SUCCESS]
    assert calls == [action]


def test_execute_plan_failure_fires_fallback():
    fallback = RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target="l1")
    action = RecoveryAction(
        kind=ActionKind.REROUTE, target="v1", avoid=("l1",),
        fallback=fallback,
    )
    actuator, calls = scripted_actuator(
        {(ActionKind.REROUTE, "v1"): OutcomeStatus.FAILURE}
    )
    outcomes = execute_plan([action], actuator)
    assert [(o.action.kind, o.status) for o in outcomes] == [
        (ActionKind.REROUTE, OutcomeStatus.FAILURE),
        (ActionKind.OPEN_REPAIR_TICKET, OutcomeStatus.SUCCESS),
    ]
    assert len(outcomes) >= 1  # fallbacks extend the outcome list


def test_execute_plan_stops_after_success_per_target():
    ticket = RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target="l1")
    a = RecoveryAction(kind=ActionKind.REROUTE, target="va", fallback=ticket)
    b = RecoveryAction(kind=ActionKind.REROUTE, target="vb", fallback=ticket)
    actuator, calls = scripted_actuator(
        {
            (ActionKind.REROUTE, "va"): OutcomeStatus.FAILURE,
            (ActionKind.REROUTE, "vb"): OutcomeStatus.FAILURE,
        }
    )
    outcomes = execute_plan([a, b], actuator)
    # the shared ticket fires once; vb's queued copy is skipped
    assert [(o.action.kind, o.action.target, o.status) for o in outcomes] == [
        (ActionKind.REROUTE, "va", OutcomeStatus.FAILURE),
        (ActionKind.OPEN_REPAIR_TICKET, "l1", OutcomeStatus.SUCCESS),
        (ActionKind.REROUTE, "vb", OutcomeStatus.FAILURE),
    ]


def test_execute_plan_repairs_what_its_reroutes_bypass():
    # two services through one failed link: both reroute, and the link
    # still gets its repair ticket, once
    ticket = RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target="l1")
    a = RecoveryAction(kind=ActionKind.REROUTE, target="va", avoid=("l1",), fallback=ticket)
    b = RecoveryAction(kind=ActionKind.REROUTE, target="vb", avoid=("l1",), fallback=ticket)
    actuator, calls = scripted_actuator({})
    outcomes = execute_plan([a, b], actuator)
    assert [(o.action.kind, o.action.target, o.status) for o in outcomes] == [
        (ActionKind.REROUTE, "va", OutcomeStatus.SUCCESS),
        (ActionKind.OPEN_REPAIR_TICKET, "l1", OutcomeStatus.SUCCESS),
        (ActionKind.REROUTE, "vb", OutcomeStatus.SUCCESS),
    ]
    assert calls == [a, ticket, b]


def test_execute_plan_preserves_order():
    actions = [
        RecoveryAction(kind=ActionKind.RESTART_SERVICE, target=f"v{i}")
        for i in range(4)
    ]
    actuator, calls = scripted_actuator({})
    execute_plan(actions, actuator)
    assert calls == actions


def test_execute_plan_rejects_empty():
    actuator, _ = scripted_actuator({})
    with pytest.raises(PlanError, match="empty plan"):
        execute_plan([], actuator)


def test_failure_outcome_requires_detail():
    action = RecoveryAction(kind=ActionKind.RESTART_SERVICE, target="v1")
    with pytest.raises(ValueError, match="detail"):
        ActionOutcome(action=action, status=OutcomeStatus.FAILURE, detail="")


# ---------------------------------------------------------------------------
# verification


class FakeProber:
    """States per service as a list of per-poll readings."""

    def __init__(self, timeline):
        self.timeline = timeline
        self.polls = 0
        self.ticks = 0

    def advance(self):
        self.ticks += 1
        return True

    def poll(self, service_id):
        readings = self.timeline[service_id]
        reading = readings[min(self.ticks - 1, len(readings) - 1)]
        self.polls += 1
        return reading


def test_verify_recovery_immediate():
    prober = FakeProber({"v1": [ServiceState.UP]})
    assert verify_recovery({"v1"}, prober, timeout=3) is True
    assert prober.ticks == 1


def test_verify_recovery_eventual():
    prober = FakeProber({"v1": [ServiceState.DOWN, ServiceState.DOWN, ServiceState.UP]})
    assert verify_recovery({"v1"}, prober, timeout=3) is True
    assert prober.ticks == 3


def test_verify_recovery_timeout():
    prober = FakeProber({"v1": [ServiceState.DOWN]})
    assert verify_recovery({"v1"}, prober, timeout=3) is False
    assert prober.ticks == 3


def test_verify_recovery_vacuous():
    prober = FakeProber({})
    assert verify_recovery(set(), prober, timeout=3) is True
    assert prober.ticks == 0


def test_verify_recovery_rejects_bad_timeout():
    with pytest.raises(ValueError, match="timeout"):
        verify_recovery({"v1"}, FakeProber({"v1": [ServiceState.UP]}), timeout=0)
