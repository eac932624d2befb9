"""Detection-side plumbing: raw alarm translation, windowing, evidence.

Raw alarms arrive in emitter-specific dialects (the simulated NMS speaks
"sim-nms" for equipment events, the simulated service manager "sim-sm"
for service events). Translation normalizes them into the three-level
taxonomy; a tick window deduplicates repeats; evidence conversion turns a
window into observed symptom variables for the diagnosis network.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from . import bndiag
from .bndiag import BayesNet, EvidenceMap
from .taxonomy import LEVEL_OF_SYMPTOM, AlarmLevel, Symptom


class TranslationError(ValueError):
    """Raw alarm cannot be normalized."""


class EvidenceError(ValueError):
    """Alarm window does not map onto the diagnosis network."""


class EvidencePolicy(str, Enum):
    # closed-world: the monitors watch every symptom, so silence means
    # observed-false; open-world: silence may be loss, leave unobserved.
    CLOSED_WORLD = "closed-world"
    OPEN_WORLD = "open-world"


class RawAlarm(NamedTuple):
    dialect: str
    emitter: str
    event: str
    tick: int


class Alarm(NamedTuple):
    level: AlarmLevel
    emitter: str
    symptom: Symptom
    tick: int


# The simulated emitters' wire format, one (dialect, event) per symptom:
# `simkernel` encodes its alarms with it and `translate_alarm` decodes them.
EVENT_OF_SYMPTOM: dict[Symptom, tuple[str, str]] = {
    Symptom.LINK_DOWN: ("sim-nms", "LINK_DOWN"),
    Symptom.NODE_UNREACHABLE: ("sim-nms", "NODE_UNREACHABLE"),
    Symptom.OF_SESSION_LOST: ("sim-nms", "OF_SESSION_LOST"),
    Symptom.TRAFFIC_DROP: ("sim-nms", "PKT_DROP"),
    Symptom.SERVICE_DOWN: ("sim-sm", "SERVICE_DOWN"),
    Symptom.SLA_VIOLATION: ("sim-sm", "SLA_BREACH"),
}
_SYMPTOM_OF_EVENT = {wire: symptom for symptom, wire in EVENT_OF_SYMPTOM.items()}
_DIALECTS = frozenset(dialect for dialect, _ in EVENT_OF_SYMPTOM.values())


def translate_alarm(raw: RawAlarm) -> Alarm:
    """Normalize a dialect-specific raw alarm into the three-level taxonomy."""
    dialect, emitter, event, tick = raw
    symptom = _SYMPTOM_OF_EVENT.get((dialect, event))
    if symptom is None:
        if dialect not in _DIALECTS:
            raise TranslationError(f"unknown dialect: {dialect}")
        raise TranslationError(f"unmappable event {event!r} for dialect {dialect}")
    return Alarm(LEVEL_OF_SYMPTOM[symptom], emitter, symptom, tick)


def collect_window(alarms: Iterable[Alarm], window: tuple[int, int]) -> set[Alarm]:
    """Alarms within [start, end], deduplicated on (emitter, symptom).

    The earliest occurrence of each key wins.
    """
    start, end = window
    if end < start:
        raise ValueError(f"empty window: [{start}, {end}]")
    best: dict[tuple[str, Symptom], Alarm] = {}
    for alarm in sorted(alarms, key=lambda a: a.tick):
        if not start <= alarm.tick <= end:
            continue
        best.setdefault((alarm.emitter, alarm.symptom), alarm)
    return set(best.values())


def to_evidence(
    window: set[Alarm],
    bn: BayesNet,
    policy: EvidencePolicy = EvidencePolicy.CLOSED_WORLD,
) -> EvidenceMap:
    """Turn an alarm window into observed symptom variables.

    Present alarms observe their symptom variable true. Under closed-world
    every other symptom variable is observed false; under open-world the
    rest stay unobserved.
    """
    symptoms = bn.compiled.symptoms
    evidence: EvidenceMap = {}
    if policy is EvidencePolicy.CLOSED_WORLD:
        evidence = dict.fromkeys(bn.symptom_ids, False)
    for alarm in window:
        var = bndiag.symptom_var_id(alarm.symptom, alarm.emitter)
        if var not in symptoms:
            raise EvidenceError(
                f"alarm {alarm.symptom.value}({alarm.emitter}) has no symptom "
                "variable; topology and network disagree"
            )
        evidence[var] = True
    return evidence
