import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import alarmpipe, simkernel, taxonomy
from sdnheal.alarmpipe import EVENT_OF_SYMPTOM, RawAlarm
from sdnheal.netmodel import ServiceState
from sdnheal.recover import ActionKind, OutcomeStatus, RecoveryAction
from sdnheal.simkernel import (
    FaultEvent,
    NoiseConfig,
    Scenario,
    SimError,
    SimState,
)
from sdnheal.taxonomy import FaultClass, Symptom

from topogen import random_topology


def scenario_for(t1, faults=(), **kwargs) -> Scenario:
    defaults = dict(topology=t1, faults=tuple(faults), seed=7, horizon=10)
    defaults.update(kwargs)
    return Scenario(**defaults)


def translated(raws):
    return {
        (a.symptom, a.emitter)
        for a in (alarmpipe.translate_alarm(r) for r in raws)
    }


def drain(state):
    """Step once and return (state, set of (symptom, emitter))."""
    state, raws = simkernel.step(state)
    return state, translated(raws)


def faulted(t1, *faults, **kwargs):
    """Step once into a scenario whose (target, class) faults start at tick 0.

    Returns the state at tick 1 and the symptoms that tick emitted.
    """
    scheduled = [FaultEvent(target, fault_class, 0) for target, fault_class in faults]
    return drain(simkernel.init_sim(scenario_for(t1, faults=scheduled, **kwargs)))


# ---------------------------------------------------------------------------
# init


def test_init_sim_clean_state(t1):
    state = simkernel.init_sim(scenario_for(t1))
    assert state.tick == 0
    assert state.active_faults == frozenset()
    assert state.topology is t1


def test_init_sim_seed_isolation(t1):
    noise = NoiseConfig(alarm_loss_probability=0.5, spurious_alarm_rate=1.0)
    streams = []
    for seed in (7, 8):
        state = simkernel.init_sim(
            scenario_for(t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 0)],
                         noise=noise, seed=seed)
        )
        assert state.tick == 0 and state.topology is t1
        stream = []
        for _ in range(state.scenario.horizon):
            state, raws = simkernel.step(state)
            stream.append(raws)
        streams.append(stream)
    assert streams[0] != streams[1]  # two seeds, two noisy streams


def test_init_sim_rejects_fault_outside_horizon(t1):
    with pytest.raises(SimError, match="outside"):
        scenario_for(t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 10)])


@pytest.mark.parametrize("rate", [-0.1, 700.5, math.inf, math.nan])
def test_noise_config_bounds_the_spurious_rate(rate):
    # beyond 700 the Poisson inversion's first term exp(-rate) underflows
    with pytest.raises(SimError, match="spurious-alarm-rate out of"):
        NoiseConfig(spurious_alarm_rate=rate)


def test_spurious_count_follows_the_rate_up_to_its_bound():
    for rate in (0.5, 2.0, 40.0, simkernel.MAX_SPURIOUS_RATE):
        counts = [simkernel._poisson((i + 0.5) / 400, rate) for i in range(400)]
        assert abs(sum(counts) / len(counts) - rate) <= 0.05 * rate + 0.01


# ---------------------------------------------------------------------------
# fault injection


def test_inject_physical_failure_downs_component(t1):
    state, _ = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    assert state.down == {"l1"}
    assert state.active_faults == {("l1", FaultClass.PHYSICAL_FAILURE)}


def test_repeated_fault_idempotent(t1):
    fault = ("l1", FaultClass.PHYSICAL_FAILURE)
    once, _ = faulted(t1, fault)
    twice, _ = faulted(t1, fault, fault)
    assert once.active_faults == twice.active_faults
    assert once.topology == twice.topology


def test_inject_agent_crash_keeps_forwarding_state(t1):
    state, _ = faulted(t1, ("s1", FaultClass.OPENFLOW_AGENT_CRASH))
    assert state.down == frozenset()
    assert ("s1", FaultClass.OPENFLOW_AGENT_CRASH) in state.active_faults


def test_inject_incompatible_fault_rejected(t1):
    with pytest.raises(SimError, match="incompatible"):
        scenario_for(t1, faults=[FaultEvent("h1", FaultClass.OPENFLOW_AGENT_CRASH, 0)])


# ---------------------------------------------------------------------------
# stepping and the generative table


def test_step_quiescent_emits_nothing(t1):
    state = simkernel.init_sim(scenario_for(t1))
    state, symptoms = drain(state)
    assert state.tick == 1
    assert symptoms == set()


def test_step_link_failure_alarms(t1):
    state, symptoms = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    assert symptoms == {
        (Symptom.LINK_DOWN, "l1"),
        (Symptom.TRAFFIC_DROP, "l1"),
        (Symptom.SERVICE_DOWN, "v1"),
    }


def test_step_node_failure_alarms(t1):
    state, symptoms = faulted(t1, ("s1", FaultClass.PHYSICAL_FAILURE))
    assert symptoms == {
        (Symptom.NODE_UNREACHABLE, "s1"),
        (Symptom.LINK_DOWN, "l1"),
        (Symptom.LINK_DOWN, "l2"),
        (Symptom.LINK_DOWN, "la"),
        (Symptom.SERVICE_DOWN, "v1"),
    }


def test_step_host_failure_alarms(t1):
    state, symptoms = faulted(t1, ("h1", FaultClass.PHYSICAL_FAILURE))
    assert symptoms == {
        (Symptom.NODE_UNREACHABLE, "h1"),
        (Symptom.LINK_DOWN, "la"),
        (Symptom.SERVICE_DOWN, "v1"),
    }
    assert state.down == {"h1"}


def test_step_agent_crash_only_control_symptom(t1):
    state, symptoms = faulted(t1, ("s1", FaultClass.OPENFLOW_AGENT_CRASH))
    assert symptoms == {(Symptom.OF_SESSION_LOST, "s1")}


def test_step_controller_crash_hits_every_switch(t1):
    state, symptoms = faulted(t1, ("c0", FaultClass.CONTROLLER_CRASH))
    assert symptoms == {
        (Symptom.OF_SESSION_LOST, "s1"),
        (Symptom.OF_SESSION_LOST, "s2"),
        (Symptom.OF_SESSION_LOST, "s3"),
    }


def test_step_traffic_drop_alarms(t1):
    state, symptoms = faulted(t1, ("l1", FaultClass.INTERFACE_TRAFFIC_DROP))
    assert symptoms == {
        (Symptom.TRAFFIC_DROP, "l1"),
        (Symptom.SLA_VIOLATION, "v1"),
    }


def test_step_injects_scheduled_faults(t1):
    scenario = scenario_for(t1, faults=[FaultEvent("v1", FaultClass.SERVICE_FAULT, 2)])
    state = simkernel.init_sim(scenario)
    state, symptoms = drain(state)
    assert symptoms == set()
    state, symptoms = drain(state)
    assert symptoms == {(Symptom.SERVICE_DOWN, "v1")}
    assert ("v1", FaultClass.SERVICE_FAULT) in state.active_faults


def test_scenario_sorts_faults_however_built(t1):
    # listed out of order, as a Scenario built directly may list them
    scenario = scenario_for(
        t1,
        faults=[
            FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 5),
            FaultEvent("v1", FaultClass.SERVICE_FAULT, 2),
        ],
    )
    state = simkernel.init_sim(scenario)
    for _ in range(3):
        state, _ = simkernel.step(state)
    assert state.active_faults == {("v1", FaultClass.SERVICE_FAULT)}
    assert [f.at_tick for f in scenario.faults] == [2, 5]


def test_step_beyond_horizon_rejected(t1):
    state = simkernel.init_sim(scenario_for(t1, horizon=1))
    state, _ = simkernel.step(state)
    with pytest.raises(SimError, match="horizon"):
        simkernel.step(state)


def test_zero_horizon_rejected(t1):
    with pytest.raises(SimError, match="horizon"):
        simkernel.init_sim(scenario_for(t1, horizon=0))


def test_active_fault_re_emits_every_tick(t1):
    """Deterministic completeness: the full generative set every tick."""
    state, symptoms = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    expected = {
        (Symptom.LINK_DOWN, "l1"),
        (Symptom.TRAFFIC_DROP, "l1"),
        (Symptom.SERVICE_DOWN, "v1"),
    }
    assert symptoms == expected
    for _ in range(3):
        state, symptoms = drain(state)
        assert symptoms == expected


def test_step_determinism_stochastic(t1):
    noise = NoiseConfig(
        alarm_loss_probability=0.2,
        spurious_alarm_rate=0.5,
    )
    scenario = scenario_for(
        t1,
        faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 1)],
        noise=noise,
    )

    def run():
        state = simkernel.init_sim(scenario)
        stream = []
        for _ in range(scenario.horizon):
            state, raws = simkernel.step(state)
            stream.append(raws)
        return stream, state

    stream_a, state_a = run()
    stream_b, state_b = run()
    assert stream_a == stream_b
    assert state_a == state_b
    assert any(stream_a)  # the fault produced alarms despite losses


def _sha1(value) -> str:
    return hashlib.sha1(json.dumps(value).encode()).hexdigest()


# Recorded when every draw became a keyed uniform; the alarm stream must
# not move.
STREAM_SHA1 = "1633bc46a12c7cadcf2724b832708e950918faeb"


def test_stochastic_stream_pinned(t1):
    noise = NoiseConfig(
        alarm_loss_probability=0.5,
        spurious_alarm_rate=1.5,
    )
    scenario = scenario_for(
        t1,
        faults=[
            FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 3),
            FaultEvent("s3", FaultClass.OPENFLOW_AGENT_CRASH, 12),
        ],
        noise=noise,
        seed=2024,
        horizon=40,
    )
    state = simkernel.init_sim(scenario)
    stream = []
    for _ in range(40):
        state, raws = simkernel.step(state)
        stream.append(
            [[r.dialect, [["emitter", r.emitter], ["event", r.event]], r.tick] for r in raws]
        )
    assert sum(map(len, stream)) > 40
    assert _sha1(stream) == STREAM_SHA1


def keyed_uniform(seed: int, tick: int, purpose: str, key: str) -> float:
    """The draw the simulator's noise is specified by: the top 53 bits of
    the 8-byte BLAKE2b digest of `seed|tick|purpose|key`, on [0, 1)."""
    digest = hashlib.blake2b(f"{seed}|{tick}|{purpose}|{key}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") // 2**11 / 2**53


def test_any_state_steps_again_to_an_equal_successor(t1):
    noise = NoiseConfig(alarm_loss_probability=0.3, spurious_alarm_rate=1.0)
    scenario = scenario_for(
        t1, faults=[FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 1)], noise=noise,
        horizon=12,
    )
    state = simkernel.init_sim(scenario)
    steps = []
    while state.tick < scenario.horizon:
        if state.tick == 3:  # an action between steps, as the loop takes them
            state, _ = simkernel.apply_action(
                state, RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target="l1")
            )
        successor, raws = simkernel.step(state)
        steps.append((state, successor, raws))
        state = successor
    assert any(raws for _, _, raws in steps)
    for earlier, successor, raws in reversed(steps):  # newest first, then older
        again, again_raws = simkernel.step(earlier)
        assert again == successor and again_raws == raws


def test_loss_draw_does_not_depend_on_other_alarms(t1):
    """A symptom's loss is drawn on its own key, so l1's alarms are lost on
    the same ticks whether or not s3's agent crash fires beside them."""
    noise = NoiseConfig(alarm_loss_probability=0.5)
    l1 = FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 0)
    s3 = FaultEvent("s3", FaultClass.OPENFLOW_AGENT_CRASH, 0)
    lost = []
    for faults in ([l1], [l1, s3]):
        state = simkernel.init_sim(scenario_for(t1, faults=faults, noise=noise, horizon=40))
        kept = []
        for _ in range(40):
            state, symptoms = drain(state)
            kept.append({key for key in symptoms if key[1] != "s3"})
        lost.append(kept)
    assert lost[0] == lost[1]
    assert any(len(kept) < 3 for kept in lost[0])  # and l1's alarms do get lost


def test_deterministic_states_step_again(t1):
    state, first = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    later, _ = drain(state)
    again_state, again = drain(state)
    assert again == first
    assert again_state == later


def test_spurious_alarms_appear_with_high_rate(t1):
    noise = NoiseConfig(spurious_alarm_rate=2.0)
    state = simkernel.init_sim(scenario_for(t1, noise=noise, seed=11))
    total = 0
    for _ in range(10):
        state, raws = simkernel.step(state)
        total += len(raws)
    assert total > 0  # no faults, so every alarm is spurious


def test_fault_conservation(t1):
    scenario = scenario_for(
        t1,
        faults=[
            FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 1),
            FaultEvent("s1", FaultClass.OPENFLOW_AGENT_CRASH, 3),
        ],
    )
    state = simkernel.init_sim(scenario)
    previous = state.active_faults
    for _ in range(scenario.horizon):
        state, _ = simkernel.step(state)
        grew = state.active_faults - previous
        for target, fault_class in grew:
            assert any(
                f.target == target and f.fault_class is fault_class
                for f in scenario.faults
            )
        previous = state.active_faults
    assert len(previous) == 2


# ---------------------------------------------------------------------------
# service observation


def test_observe_service_down_on_path_failure(t1):
    state, _ = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    assert simkernel.observe_service(state, "v1") is ServiceState.DOWN


def test_observe_service_up_quiescent(t1):
    state = simkernel.init_sim(scenario_for(t1))
    assert simkernel.observe_service(state, "v1") is ServiceState.UP


def test_observe_service_degraded_on_drop(t1):
    state, _ = faulted(t1, ("l1", FaultClass.INTERFACE_TRAFFIC_DROP))
    assert simkernel.observe_service(state, "v1") is ServiceState.DEGRADED


def test_observe_service_unknown(t1):
    state = simkernel.init_sim(scenario_for(t1))
    with pytest.raises(SimError, match="unknown service"):
        simkernel.observe_service(state, "vX")


def test_observe_service_noise_flip(t1):
    # loss probability 1 flips every reading; probing stays repeatable
    # within a tick because it never draws from the stepping RNG
    noise = NoiseConfig(alarm_loss_probability=1.0)
    state = simkernel.init_sim(scenario_for(t1, noise=noise))
    assert simkernel.observe_service(state, "v1") is ServiceState.DOWN
    assert simkernel.observe_service(state, "v1") is ServiceState.DOWN
    downed, _ = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE), noise=noise)
    assert simkernel.observe_service(downed, "v1") is ServiceState.UP


def test_observe_service_matches_generative_table_for_all_single_faults(t1):
    """Deterministic mode: a down reading iff a service fault is active or a
    path component is down, exhaustively over single faults on T1."""
    for fault_class in FaultClass:
        for target in taxonomy.fault_targets(t1, fault_class):
            state, _ = faulted(t1, (target, fault_class))
            reading = simkernel.observe_service(state, "v1")
            on_path = target in t1.service("v1").path
            if fault_class is FaultClass.SERVICE_FAULT or (
                fault_class is FaultClass.PHYSICAL_FAILURE and on_path
            ):
                assert reading is ServiceState.DOWN, (fault_class, target)
            elif fault_class is FaultClass.INTERFACE_TRAFFIC_DROP and on_path:
                assert reading is ServiceState.DEGRADED, (fault_class, target)
            else:
                assert reading is ServiceState.UP, (fault_class, target)


def _compatible_faults(topology):
    return [
        (target, fault_class)
        for fault_class in FaultClass
        for target in taxonomy.fault_targets(topology, fault_class)
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_probes_agree_with_alarms_on_overlapping_faults(seed, data):
    topology = random_topology(seed, n_nodes=20, n_services=5)
    faults = data.draw(
        st.lists(
            st.sampled_from(_compatible_faults(topology)),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    scheduled = tuple(FaultEvent(target, fc, 0) for target, fc in faults)
    scenario = Scenario(topology=topology, faults=scheduled, horizon=2)
    state, symptoms = drain(simkernel.init_sim(scenario))
    for service in topology.services:
        reading = simkernel.observe_service(state, service.id)
        down = (Symptom.SERVICE_DOWN, service.id) in symptoms
        sla = (Symptom.SLA_VIOLATION, service.id) in symptoms
        assert (reading is ServiceState.DOWN) == down, (service.id, faults)
        assert (reading is ServiceState.DEGRADED) == (sla and not down), (service.id, faults)
    assert state.down == {
        target for target, fc in faults if fc is FaultClass.PHYSICAL_FAILURE
    }


# ---------------------------------------------------------------------------
# actuation


def test_reroute_swaps_path(t1):
    state, _ = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    action = RecoveryAction(
        kind=ActionKind.REROUTE, target="v1", avoid=("l1",)
    )
    state, outcome = simkernel.apply_action(state, action)
    assert outcome.status is OutcomeStatus.SUCCESS
    assert state.topology.service("v1").path == (
        "h1", "la", "s1", "l2", "s3", "l3", "s2", "lb", "h2",
    )
    assert simkernel.observe_service(state, "v1") is ServiceState.UP


def test_reroute_without_alternative_fails_gracefully(t1):
    state = simkernel.init_sim(scenario_for(t1))
    action = RecoveryAction(
        kind=ActionKind.REROUTE, target="v1", avoid=("l1", "l2")
    )
    state, outcome = simkernel.apply_action(state, action)
    assert outcome.status is OutcomeStatus.FAILURE
    assert outcome.detail == "no alternative path"
    assert state.topology.service("v1").path == t1.service("v1").path
    # down links are avoided without being named
    state, _ = faulted(
        t1, ("l1", FaultClass.PHYSICAL_FAILURE), ("l2", FaultClass.PHYSICAL_FAILURE)
    )
    action = RecoveryAction(kind=ActionKind.REROUTE, target="v1")
    after, outcome = simkernel.apply_action(state, action)
    assert outcome.detail == "no alternative path"
    assert after is state


def test_restart_service_clears_fault_next_tick(t1):
    state, _ = faulted(t1, ("v1", FaultClass.SERVICE_FAULT))
    state, outcome = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.RESTART_SERVICE, target="v1")
    )
    assert outcome.status is OutcomeStatus.SUCCESS
    assert ("v1", FaultClass.SERVICE_FAULT) in state.active_faults
    state, _ = simkernel.step(state)
    assert ("v1", FaultClass.SERVICE_FAULT) not in state.active_faults
    assert simkernel.observe_service(state, "v1") is ServiceState.UP


def test_restart_agent_and_failover_clear_next_tick(t1):
    state, _ = faulted(
        t1, ("s1", FaultClass.OPENFLOW_AGENT_CRASH), ("c0", FaultClass.CONTROLLER_CRASH)
    )
    state, _ = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.RESTART_OPENFLOW_AGENT, target="s1")
    )
    state, _ = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.CONTROLLER_FAILOVER, target="c0")
    )
    state, _ = simkernel.step(state)
    assert state.active_faults == frozenset()


def test_repair_ticket_restores_component_after_delay(t1):
    state, _ = faulted(t1, ("la", FaultClass.PHYSICAL_FAILURE), repair_delay=3)
    state, outcome = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target="la")
    )
    assert outcome.status is OutcomeStatus.SUCCESS
    for _ in range(2):
        state, _ = simkernel.step(state)
        assert state.down == {"la"}
    state, _ = simkernel.step(state)
    assert state.down == frozenset()
    assert state.active_faults == frozenset()


def test_repair_and_restart_tickets_due_on_one_tick(t1):
    state, _ = faulted(
        t1,
        ("s1", FaultClass.PHYSICAL_FAILURE),
        ("s1", FaultClass.OPENFLOW_AGENT_CRASH),
        repair_delay=1,
    )
    state, _ = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target="s1")
    )
    state, _ = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.RESTART_OPENFLOW_AGENT, target="s1")
    )
    assert {ready for _, ready, _ in state.repair_tickets} == {state.tick + 1}
    state, _ = simkernel.step(state)
    assert state.active_faults == frozenset()
    assert state.repair_tickets == frozenset()
    assert state.down == frozenset()


def test_apply_action_unknown_target(t1):
    state = simkernel.init_sim(scenario_for(t1))
    with pytest.raises(SimError, match="unknown action target"):
        simkernel.apply_action(
            state, RecoveryAction(kind=ActionKind.RESTART_SERVICE, target="zz")
        )


def test_apply_action_wrong_category(t1):
    state = simkernel.init_sim(scenario_for(t1))
    with pytest.raises(SimError, match="not a service"):
        simkernel.apply_action(
            state, RecoveryAction(kind=ActionKind.RESTART_SERVICE, target="s1")
        )


def test_topology_replaced_only_when_a_path_changes(t1):
    state, _ = faulted(
        t1,
        ("l1", FaultClass.PHYSICAL_FAILURE),
        ("v1", FaultClass.SERVICE_FAULT),
        ("s1", FaultClass.OPENFLOW_AGENT_CRASH),
        ("c0", FaultClass.CONTROLLER_CRASH),
        repair_delay=2,
    )
    topology = state.scenario.topology
    assert state.topology is topology
    for kind, target in [
        (ActionKind.RESTART_SERVICE, "v1"),
        (ActionKind.RESTART_OPENFLOW_AGENT, "s1"),
        (ActionKind.CONTROLLER_FAILOVER, "c0"),
        (ActionKind.OPEN_REPAIR_TICKET, "l1"),
    ]:
        state, _ = simkernel.apply_action(state, RecoveryAction(kind=kind, target=target))
        assert state.topology is topology
    for _ in range(2):
        state, _ = simkernel.step(state)
        assert state.topology is topology
    assert state.active_faults == frozenset()

    blocked = RecoveryAction(
        kind=ActionKind.REROUTE, target="v1", avoid=("l1", "l2")
    )
    state, outcome = simkernel.apply_action(state, blocked)
    assert outcome.status is OutcomeStatus.FAILURE
    assert state.topology is topology
    state, outcome = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.REROUTE, target="v1", avoid=("l1",))
    )
    assert outcome.status is OutcomeStatus.SUCCESS
    assert state.topology is not topology


def test_scenario_vocabulary_holds_after_reroute(t1):
    def vocabulary_matches(state):
        return state.scenario.vocabulary == tuple(
            taxonomy.symptom_vocabulary(state.topology)
        )

    state, _ = faulted(t1, ("l1", FaultClass.PHYSICAL_FAILURE))
    state, outcome = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.REROUTE, target="v1", avoid=("l1",))
    )
    assert outcome.status is OutcomeStatus.SUCCESS
    assert state.topology != state.scenario.topology
    assert vocabulary_matches(state)


def test_actions_that_keep_faults_and_topology_keep_the_alarms(t1, monkeypatch):
    state, _ = faulted(
        t1,
        ("l1", FaultClass.PHYSICAL_FAILURE),
        ("s1", FaultClass.OPENFLOW_AGENT_CRASH),
        ("c0", FaultClass.CONTROLLER_CRASH),
        repair_delay=5,
    )
    calls = []
    real_effects = taxonomy.effects

    def effects(*args):
        calls.append(args)
        return real_effects(*args)

    monkeypatch.setattr(taxonomy, "effects", effects)
    alarms = state.alarm_keys
    for kind, target in [
        (ActionKind.RESTART_OPENFLOW_AGENT, "s1"),
        (ActionKind.CONTROLLER_FAILOVER, "c0"),
        (ActionKind.OPEN_REPAIR_TICKET, "l1"),
    ]:
        state, _ = simkernel.apply_action(state, RecoveryAction(kind=kind, target=target))
        assert state.alarm_keys is alarms
    assert calls == []
    state, outcome = simkernel.apply_action(
        state, RecoveryAction(kind=ActionKind.REROUTE, target="v1", avoid=("l1",))
    )
    assert outcome.status is OutcomeStatus.SUCCESS
    assert state.alarm_keys != alarms  # service-down(v1) moves off l1's path
    assert len(calls) == 3


def reference_step(state: SimState) -> tuple[SimState, list[RawAlarm]]:
    """One tick as `simkernel.step` took it before quiet ticks reused their
    state: the faults and tickets copied on every tick, the alarms computed
    afresh from the faults, and each draw its own keyed uniform."""
    scenario, noise = state.scenario, state.scenario.noise
    tick = state.tick + 1

    def uniform(purpose: str, key: str) -> float:
        return keyed_uniform(scenario.seed, tick, purpose, key)

    active = set(state.active_faults)
    due = [ticket for ticket in state.repair_tickets if ticket[1] <= tick]
    tickets = state.repair_tickets.difference(due)
    for component, _, fault_class in due:
        if fault_class is None:
            active = {(c, fc) for (c, fc) in active if c != component}
        else:
            active.discard((component, fault_class))
    index = state.next_fault_index
    while index < len(scenario.faults) and scenario.faults[index].at_tick <= tick:
        active.add((scenario.faults[index].target, scenario.faults[index].fault_class))
        index += 1
    new_state = SimState(
        scenario=scenario,
        tick=tick,
        topology=state.topology,
        active_faults=frozenset(active),
        repair_tickets=tickets,
        next_fault_index=index,
    )
    loss = noise.alarm_loss_probability
    keys = [
        (symptom, emitter) for symptom, emitter in sorted(new_state.symptoms)
        if loss == 0.0 or uniform("loss", f"{symptom.value}|{emitter}") >= loss
    ]
    rate = noise.spurious_alarm_rate
    if rate > 0.0:
        # a Poisson count by inversion of its CDF on one uniform, then the alarms
        u, count, term = uniform("spurious", ""), 0, math.exp(-rate)
        cdf = term
        while cdf <= u and count < 1000:
            count += 1
            term *= rate / count
            cdf += term
        vocabulary = scenario.vocabulary
        for i in range(count):
            keys.append(vocabulary[math.floor(uniform("pick", str(i)) * len(vocabulary))])
    alarms = []
    for symptom, emitter in keys:
        dialect, event = EVENT_OF_SYMPTOM[symptom]
        alarms.append(RawAlarm(dialect, emitter, event, tick))
    return new_state, alarms


_RESTART_OF = {
    FaultClass.SERVICE_FAULT: ActionKind.RESTART_SERVICE,
    FaultClass.OPENFLOW_AGENT_CRASH: ActionKind.RESTART_OPENFLOW_AGENT,
    FaultClass.CONTROLLER_CRASH: ActionKind.CONTROLLER_FAILOVER,
}


def _candidate_actions(state: SimState) -> list[RecoveryAction]:
    """Restarts and repair tickets for the active faults, and reroutes."""
    actions = []
    for target, fault_class in sorted(state.active_faults, key=str):
        if fault_class in _RESTART_OF:
            actions.append(RecoveryAction(kind=_RESTART_OF[fault_class], target=target))
        actions.append(RecoveryAction(kind=ActionKind.OPEN_REPAIR_TICKET, target=target))
    for service in state.topology.services:
        for hop in (None, *service.path[2:-2]):
            avoid = (hop,) if hop else ()
            actions.append(
                RecoveryAction(kind=ActionKind.REROUTE, target=service.id, avoid=avoid)
            )
    return actions


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([(0.0, 0.0), (0.0, 0.5), (0.3, 0.0), (0.2, 1.0), None]),
    st.data(),
)
def test_step_equals_the_reference_step_with_actions_between(seed, noise, data):
    topology = random_topology(seed, n_nodes=12, n_services=3, max_path_links=3)
    horizon = 30
    faults = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(_compatible_faults(topology)),
                st.integers(min_value=0, max_value=horizon - 1),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda fault: fault[0],
        )
    )
    if noise is None:
        noise_config = NoiseConfig()
    else:
        noise_config = NoiseConfig(
            alarm_loss_probability=noise[0],
            spurious_alarm_rate=noise[1],
        )
    scenario = Scenario(
        topology=topology,
        faults=tuple(FaultEvent(target, fc, tick) for (target, fc), tick in faults),
        noise=noise_config,
        seed=seed,
        horizon=horizon,
        repair_delay=data.draw(st.integers(min_value=1, max_value=4)),
    )
    state, reference = simkernel.init_sim(scenario), simkernel.init_sim(scenario)
    while state.tick < horizon:
        previous = state
        state, raws = simkernel.step(previous)
        reference, expected = reference_step(reference)
        assert raws == expected
        assert state.active_faults == reference.active_faults
        assert state.repair_tickets == reference.repair_tickets
        assert state.symptoms == reference.symptoms
        assert state.alarm_keys == tuple(sorted(reference.symptoms))
        assert state.down == reference.down
        assert state == reference
        quiet = (
            reference.active_faults == previous.active_faults
            and reference.repair_tickets == previous.repair_tickets
        )
        if quiet:
            assert state.active_faults is previous.active_faults
            assert state.repair_tickets is previous.repair_tickets
        assert simkernel.step(previous) == (state, raws)  # any state steps again
        actions = _candidate_actions(state)
        pick = data.draw(st.integers(min_value=0, max_value=len(actions)))
        if pick < len(actions):
            state, outcome = simkernel.apply_action(state, actions[pick])
            reference, expected_outcome = simkernel.apply_action(reference, actions[pick])
            assert outcome == expected_outcome
            reference = reference._replace()  # a fresh state caches nothing


# ---------------------------------------------------------------------------
# scenario documents


def test_load_scenario_inline_topology(t1_doc):
    doc = {
        "schema-version": 1,
        "topology": t1_doc,
        "faults": [{"target": "l1", "class": "physical-failure", "at-tick": 2}],
        "noise": {"mode": "deterministic"},
        "seed": 7,
        "horizon": 10,
    }
    scenario = simkernel.load_scenario(doc)
    assert scenario.seed == 7
    assert scenario.faults[0].fault_class is FaultClass.PHYSICAL_FAILURE
    simkernel.init_sim(scenario)


def test_load_scenario_unknown_fault_class(t1_doc):
    doc = {
        "schema-version": 1,
        "topology": t1_doc,
        "faults": [{"target": "l1", "class": "gremlins", "at-tick": 1}],
        "horizon": 5,
    }
    with pytest.raises(SimError, match="unknown fault class"):
        simkernel.load_scenario(doc)
