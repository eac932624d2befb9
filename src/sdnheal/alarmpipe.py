"""Detection-side plumbing: raw alarm translation, windowing, evidence.

Raw alarms arrive in emitter-specific dialects (the simulated NMS speaks
"sim-nms" for equipment events, the simulated service manager "sim-sm"
for service events). Translation normalizes them into the three-level
taxonomy; a tick window deduplicates repeats; evidence conversion turns a
window into observed symptom variables for the diagnosis network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

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


@dataclass(frozen=True)
class RawAlarm:
    dialect: str
    payload: dict[str, str] = field(compare=False)
    tick: int = 0

    def __post_init__(self) -> None:
        for key in ("emitter", "event"):
            if key not in self.payload:
                raise TranslationError(f"raw alarm payload missing {key!r}")


@dataclass(frozen=True, order=True)
class Alarm:
    level: AlarmLevel
    emitter: str
    symptom: Symptom
    tick: int


_NMS_EVENTS = {
    "LINK_DOWN": Symptom.LINK_DOWN,
    "NODE_UNREACHABLE": Symptom.NODE_UNREACHABLE,
    "OF_SESSION_LOST": Symptom.OF_SESSION_LOST,
    "PKT_DROP": Symptom.TRAFFIC_DROP,
}
_SM_EVENTS = {
    "SERVICE_DOWN": Symptom.SERVICE_DOWN,
    "SLA_BREACH": Symptom.SLA_VIOLATION,
}
# Already-normalized event names translate to themselves, which makes
# translation idempotent under re-normalization.
_NMS_EVENTS.update({s.value: s for s in _NMS_EVENTS.values()})
_SM_EVENTS.update({s.value: s for s in _SM_EVENTS.values()})

_DIALECTS: dict[str, dict[str, Symptom]] = {
    "sim-nms": _NMS_EVENTS,
    "sim-sm": _SM_EVENTS,
}


def translate_alarm(raw: RawAlarm) -> Alarm:
    """Normalize a dialect-specific raw alarm into the three-level taxonomy."""
    events = _DIALECTS.get(raw.dialect)
    if events is None:
        raise TranslationError(f"unknown dialect: {raw.dialect}")
    event = raw.payload["event"]
    symptom = events.get(event)
    if symptom is None:
        raise TranslationError(f"unmappable event {event!r} for dialect {raw.dialect}")
    return Alarm(
        level=LEVEL_OF_SYMPTOM[symptom],
        emitter=raw.payload["emitter"],
        symptom=symptom,
        tick=raw.tick,
    )


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
