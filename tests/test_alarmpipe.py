import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdnheal import alarmpipe, bndiag
from sdnheal.alarmpipe import (
    Alarm,
    EvidenceError,
    EvidencePolicy,
    RawAlarm,
    TranslationError,
)
from sdnheal.taxonomy import LEVEL_OF_SYMPTOM, AlarmLevel, Symptom


def raw(dialect, emitter, event, tick=3) -> RawAlarm:
    return RawAlarm(dialect, emitter, event, tick)


# ---------------------------------------------------------------------------
# translation


def test_translate_link_down():
    alarm = alarmpipe.translate_alarm(raw("sim-nms", "l1", "LINK_DOWN"))
    assert alarm == Alarm(AlarmLevel.PHYSICAL, "l1", Symptom.LINK_DOWN, 3)


def test_translate_packet_drop():
    alarm = alarmpipe.translate_alarm(raw("sim-nms", "l1", "PKT_DROP"))
    assert alarm == Alarm(AlarmLevel.TRANSPORT, "l1", Symptom.TRAFFIC_DROP, 3)


def test_translate_sla_breach():
    alarm = alarmpipe.translate_alarm(raw("sim-sm", "v1", "SLA_BREACH"))
    assert alarm == Alarm(AlarmLevel.SERVICE, "v1", Symptom.SLA_VIOLATION, 3)


def test_translate_unknown_dialect():
    with pytest.raises(TranslationError, match="unknown dialect"):
        alarmpipe.translate_alarm(raw("snmp", "l1", "LINK_DOWN"))


def test_translate_unmappable_event():
    with pytest.raises(TranslationError, match="unmappable event"):
        alarmpipe.translate_alarm(raw("sim-nms", "l1", "SOMETHING_ELSE"))


def test_raw_alarms_differ_by_emitter_and_event():
    base = raw("sim-nms", "l1", "LINK_DOWN")
    other_emitter = raw("sim-nms", "s9", "LINK_DOWN")
    other_event = raw("sim-nms", "l1", "PKT_DROP")
    assert base != other_emitter and base != other_event
    assert len({base, other_emitter, other_event}) == 3


def test_translate_decodes_every_encoded_symptom():
    for symptom, (dialect, event) in alarmpipe.EVENT_OF_SYMPTOM.items():
        alarm = alarmpipe.translate_alarm(raw(dialect, "x1", event))
        assert alarm == Alarm(LEVEL_OF_SYMPTOM[symptom], "x1", symptom, 3)
    assert set(alarmpipe.EVENT_OF_SYMPTOM) == set(Symptom)


def test_translate_rejects_normalized_event_names():
    with pytest.raises(TranslationError, match="unmappable event"):
        alarmpipe.translate_alarm(raw("sim-nms", "l1", Symptom.LINK_DOWN.value))


def test_level_of_symptom_total_and_consistent():
    assert LEVEL_OF_SYMPTOM[Symptom.OF_SESSION_LOST] is AlarmLevel.TRANSPORT
    assert LEVEL_OF_SYMPTOM[Symptom.NODE_UNREACHABLE] is AlarmLevel.PHYSICAL
    assert LEVEL_OF_SYMPTOM[Symptom.SERVICE_DOWN] is AlarmLevel.SERVICE
    assert set(LEVEL_OF_SYMPTOM) == set(Symptom)


# ---------------------------------------------------------------------------
# windowing


def alarm(emitter, symptom, tick):
    return Alarm(LEVEL_OF_SYMPTOM[symptom], emitter, symptom, tick)


def test_collect_window_dedup_keeps_earliest():
    alarms = [alarm("l1", Symptom.LINK_DOWN, 3), alarm("l1", Symptom.LINK_DOWN, 4)]
    assert alarmpipe.collect_window(alarms, (3, 4)) == {alarm("l1", Symptom.LINK_DOWN, 3)}


def test_collect_window_empty_input():
    assert alarmpipe.collect_window([], (3, 4)) == set()


def test_collect_window_excludes_outside_ticks():
    assert alarmpipe.collect_window([alarm("l1", Symptom.LINK_DOWN, 2)], (3, 4)) == set()


def test_collect_window_rejects_empty_span():
    with pytest.raises(ValueError, match="empty window"):
        alarmpipe.collect_window([], (4, 3))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["l1", "l2", "s1", "v1"]),
            st.sampled_from(list(Symptom)),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=30,
    ),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
def test_collect_window_properties(entries, start, span):
    alarms = [alarm(e, s, t) for e, s, t in entries]
    window = alarmpipe.collect_window(alarms, (start, start + span))
    assert len(window) <= len(alarms)
    keys = [(a.emitter, a.symptom) for a in window]
    assert len(keys) == len(set(keys))
    for a in window:
        assert start <= a.tick <= start + span
        same_key = [
            b
            for b in alarms
            if (b.emitter, b.symptom) == (a.emitter, a.symptom)
            and start <= b.tick <= start + span
        ]
        assert a.tick == min(b.tick for b in same_key)


# ---------------------------------------------------------------------------
# evidence


def test_to_evidence_closed_world_assigns_every_symptom(t1):
    bn = bndiag.build_bn(t1)
    window = {alarm("l1", Symptom.LINK_DOWN, 3)}
    evidence = alarmpipe.to_evidence(window, bn, EvidencePolicy.CLOSED_WORLD)
    assert set(evidence) == set(bn.symptom_ids)
    assert evidence["symptom:link-down:l1"] is True
    assert sum(evidence.values()) == 1


def test_to_evidence_closed_world_empty_window(t1):
    bn = bndiag.build_bn(t1)
    evidence = alarmpipe.to_evidence(set(), bn, EvidencePolicy.CLOSED_WORLD)
    assert set(evidence) == set(bn.symptom_ids)
    assert not any(evidence.values())


def test_to_evidence_open_world_single_entry(t1):
    bn = bndiag.build_bn(t1)
    window = {alarm("l1", Symptom.LINK_DOWN, 3)}
    evidence = alarmpipe.to_evidence(window, bn, EvidencePolicy.OPEN_WORLD)
    assert evidence == {"symptom:link-down:l1": True}


def test_to_evidence_rejects_unknown_emitter(t1):
    bn = bndiag.build_bn(t1)
    window = {alarm("l9", Symptom.LINK_DOWN, 3)}
    with pytest.raises(EvidenceError, match="no symptom variable"):
        alarmpipe.to_evidence(window, bn, EvidencePolicy.OPEN_WORLD)
