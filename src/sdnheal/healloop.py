"""The self-healing closed loop: advance, window, diagnose, recover, verify.

A run moves only through `_Driver`. The loop, widening and verification
each step the simulator through `_Driver.advance`, which buffers the
translated alarms the network has a variable for. While nothing is
buffered, the loop first jumps over the quiet ticks ahead
(`_Driver.skip_quiet`): ticks with no fault active on which a step would
emit nothing. Widening and verification count ticks, so they never jump.
A tick that leaves the buffer empty has nothing to window; otherwise a
non-empty window of the last `evidence-window` ticks becomes an
incident. Its evidence ranks the fault hypotheses by exact inference,
and a confident or suspect diagnosis is planned, executed against the
simulator and verified by polling the affected services. An
inconclusive diagnosis widens the window one tick at a time, a bounded
number of times, before the incident is recorded unresolved.

Ground-truth injected faults are attached to incident records by the
report writer only; the diagnosis path never sees them. Alarms already
attributed to a recorded incident are suppressed while they keep
re-occurring, so one fault episode yields one incident. A suppressed
alarm is still firing, so closed-world evidence leaves its symptom
unobserved rather than observing it false.

Diagnosis is memoized per run on the window's set of (emitter, symptom)
pairs and, under closed-world, the suppressed ones. Evidence depends on
nothing else once the network, the evidence policy and the threshold are
fixed, and they are for the whole run, so a window seen before with the
same suppressed keys reuses its evidence, posterior and diagnosis
exactly instead of running inference again. The memo belongs to the
network it was built for (`_Diagnoser`), built once per run from the
scenario's initial topology: nothing rebuilds it after a reroute.

An incident record stores what happened. What follows from that
(`executed`, `recovered`, the detection and diagnosis latencies, and a
report's metrics) is a property, so a record cannot disagree with itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import alarmpipe, bndiag, netmodel, recover, simkernel
from .alarmpipe import Alarm, EvidencePolicy
from .bndiag import BayesNet, BnParams, Diagnosis, EvidenceMap, Posterior, Verdict
from .netmodel import ServiceState
from .records import Frozen
from .recover import ActionOutcome, RecoveryAction, StrategyTable
from .simkernel import FaultEvent, Scenario, SimState
from .taxonomy import Symptom

REPORT_SCHEMA_VERSION = 1


class LoopError(ValueError):
    """Invalid loop configuration."""


class _LoopConfig(NamedTuple):
    evidence_window: int = 1
    threshold: float = 0.5
    verify_timeout: int = 3
    evidence_policy: EvidencePolicy = EvidencePolicy.CLOSED_WORLD
    max_widenings: int = 2
    suggest_only: bool = False


class LoopConfig(Frozen, _LoopConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> LoopConfig:
        config = super().__new__(cls, *args, **kwargs)
        if config.evidence_window < 1:
            raise LoopError(f"evidence-window must be >= 1: {config.evidence_window}")
        if config.verify_timeout < 1:
            raise LoopError(f"verify-timeout must be >= 1: {config.verify_timeout}")
        if config.max_widenings < 0:
            raise LoopError(f"max-widenings must be >= 0: {config.max_widenings}")
        if not 0.0 < config.threshold < 1.0:
            raise LoopError(f"threshold must be in (0,1): {config.threshold}")
        return config


class IncidentRecord(NamedTuple):
    detected_at: int
    diagnosed_at: int
    injected_faults: tuple[FaultEvent, ...]
    alarms: tuple[Alarm, ...]
    evidence: dict[str, bool]
    posterior: Posterior
    diagnosis: Diagnosis
    plan: tuple[RecoveryAction, ...]
    outcomes: tuple[ActionOutcome, ...]
    recovery_latency: int | None

    @property
    def executed(self) -> bool:
        return bool(self.outcomes)  # a plan is never empty

    @property
    def recovered(self) -> bool:
        return self.recovery_latency is not None

    @property
    def detection_latency(self) -> int | None:
        # the ground truth holds only faults injected by now, latest last
        injected = self.injected_faults
        return self.detected_at - injected[-1].at_tick if injected else None

    @property
    def diagnosis_latency(self) -> int:
        return self.diagnosed_at - self.detected_at


class RunReport(NamedTuple):
    scenario_name: str
    seed: int
    horizon: int
    records: tuple[IncidentRecord, ...]
    alarm_log: tuple[Alarm, ...]
    params: BnParams
    config: LoopConfig
    table: StrategyTable

    @property
    def metrics(self) -> dict:
        return compute_metrics(self.records, self.alarm_log)


class _Driver:
    """The stepping simulator and the alarm bookkeeping of one run.

    Alarms are keyed one way, (emitter, symptom), both to tell which ones
    the network monitors and which ones are suppressed. The driver is also
    the actuator and the service prober that recovery drives.
    """

    def __init__(self, state: SimState, bn: BayesNet, span: int):
        self.state = state
        self.span = span
        self.monitored = frozenset(
            (v.target, v.symptom) for v in bn.variables if v.kind == "symptom"
        )
        self.buffer: list[Alarm] = []
        self.alarm_log: list[Alarm] = []
        self.suppressed: set[tuple[str, Symptom]] = set()

    def advance(self) -> bool:
        """Step one tick and buffer its alarms; False at the horizon.

        Each call is one tick, whoever calls it: widening and verification
        count their ticks by it.
        """
        if self.state.tick >= self.state.scenario.horizon:
            return False
        self.state, raws = simkernel.step(self.state)
        # A suppressed symptom that stops re-occurring has cleared; a later
        # re-occurrence is a fresh episode.
        if not raws:
            self.suppressed.clear()
            return True
        alarms = [alarmpipe.translate_alarm(r) for r in raws]
        self.alarm_log.extend(alarms)
        keys = [(a.emitter, a.symptom) for a in alarms]
        # Only alarms the network has a variable for are windowed: a host's
        # node-unreachable has none unless it was built with include-hosts.
        self.buffer.extend(a for a, key in zip(alarms, keys)
                           if key in self.monitored and key not in self.suppressed)
        if self.suppressed:
            self.suppressed.intersection_update(keys)
        return True

    def skip_quiet(self) -> None:
        """Jump over the ticks on which a step would emit nothing
        (`simkernel.skip_quiet`). Only the loop calls it, with nothing
        buffered, so a skipped tick would have windowed nothing; it would
        have cleared suppression, so a jump clears it."""
        state = simkernel.skip_quiet(self.state)
        if state.tick > self.state.tick:
            self.suppressed.clear()
            self.state = state

    def window(self, widenings: int = 0) -> set[Alarm]:
        """The buffered alarms of the last `span` ticks plus one per widening."""
        start = self.state.tick - self.span - widenings + 1
        self.buffer = [a for a in self.buffer if a.tick >= start]
        return alarmpipe.collect_window(self.buffer, (start, self.state.tick))

    def attribute(self, alarms: tuple[Alarm, ...]) -> None:
        """Suppress the keys of an incident's alarms while they keep re-occurring."""
        self.suppressed.update((a.emitter, a.symptom) for a in alarms)
        self.buffer = [a for a in self.buffer if (a.emitter, a.symptom) not in self.suppressed]

    def poll(self, service_id: str) -> ServiceState:
        return simkernel.observe_service(self.state, service_id)

    def apply(self, action: RecoveryAction) -> ActionOutcome:
        self.state, outcome = simkernel.apply_action(self.state, action)
        return outcome


_Diagnosed = tuple[EvidenceMap, Posterior, Diagnosis]


class _Diagnoser:
    """Diagnosis of alarm windows against one network, memoized on
    (window keys, suppressed keys)."""

    def __init__(self, bn: BayesNet, config: LoopConfig):
        self.bn = bn
        self.policy = config.evidence_policy
        self.threshold = config.threshold
        self.memo: dict[tuple[frozenset, frozenset], _Diagnosed] = {}

    def diagnose(
        self, window: set[Alarm], suppressed: set[tuple[str, Symptom]]
    ) -> _Diagnosed:
        """Under closed-world a suppressed key's symptom stays unobserved:
        its alarm is still firing, so its absence from the window is not
        evidence that it is false. Open-world leaves it unobserved anyway."""
        closed = self.policy is EvidencePolicy.CLOSED_WORLD
        held = frozenset(suppressed) if closed else frozenset()
        key = (frozenset((a.emitter, a.symptom) for a in window), held)
        if key not in self.memo:
            evidence = alarmpipe.to_evidence(window, self.bn, self.policy)
            for emitter, symptom in held:
                evidence.pop(bndiag.symptom_var_id(symptom, emitter), None)
            posterior = bndiag.posterior_marginals(self.bn, evidence)
            diagnosis = bndiag.map_diagnosis(posterior, self.threshold, self.bn.priors)
            self.memo[key] = (evidence, posterior, diagnosis)
        return self.memo[key]


def run_loop(
    scenario: Scenario,
    params: BnParams | None = None,
    table: StrategyTable | None = None,
    config: LoopConfig | None = None,
    scenario_name: str = "scenario",
) -> RunReport:
    """Drive the closed loop over a scenario until its horizon."""
    params = params or BnParams()
    table = table or recover.default_strategy_table()
    config = config or LoopConfig()
    diagnoser = _Diagnoser(bndiag.build_bn(scenario.topology, params), config)
    driver = _Driver(simkernel.init_sim(scenario), diagnoser.bn, config.evidence_window)

    records: list[IncidentRecord] = []
    while True:
        if not driver.buffer:  # nothing to window until a tick brings news
            driver.skip_quiet()
        if not driver.advance():
            break
        if not driver.buffer:
            continue
        window = driver.window()
        if window:
            record = _handle_incident(driver, window, diagnoser, table, config)
            records.append(record)
            driver.attribute(record.alarms)

    return RunReport(
        scenario_name=scenario_name,
        seed=scenario.seed,
        horizon=scenario.horizon,
        records=tuple(records),
        alarm_log=tuple(driver.alarm_log),
        params=params,
        config=config,
        table=table,
    )


def _handle_incident(
    driver: _Driver,
    window: set[Alarm],
    diagnoser: _Diagnoser,
    table: StrategyTable,
    config: LoopConfig,
) -> IncidentRecord:
    detected_at = driver.state.tick
    injected = _ground_truth(driver.state)

    evidence, posterior, diagnosis = diagnoser.diagnose(window, driver.suppressed)
    widenings = 0
    while (
        diagnosis.verdict is Verdict.INCONCLUSIVE
        and widenings < config.max_widenings
        and driver.advance()
    ):
        widenings += 1
        window = driver.window(widenings)
        evidence, posterior, diagnosis = diagnoser.diagnose(window, driver.suppressed)
    diagnosed_at = driver.state.tick

    plan: tuple[RecoveryAction, ...] = ()
    outcomes: tuple[ActionOutcome, ...] = ()
    recovery_latency = None
    if diagnosis.verdict is not Verdict.INCONCLUSIVE:
        plan = tuple(recover.select_strategy(diagnosis, driver.state.topology, table))
        if not config.suggest_only:
            outcomes = tuple(recover.execute_plan(list(plan), driver.apply))
            topology = driver.state.topology
            affected = {
                s.id for s in topology.services if driver.poll(s.id) is not ServiceState.UP
            }
            affected.update(
                a.target for a in plan
                if netmodel.component_category(topology, a.target) == "service"
            )
            if recover.verify_recovery(affected, driver, config.verify_timeout):
                recovery_latency = driver.state.tick - diagnosed_at

    return IncidentRecord(
        detected_at=detected_at,
        diagnosed_at=diagnosed_at,
        injected_faults=injected,
        alarms=tuple(sorted(window)),
        evidence=evidence,
        posterior=posterior,
        diagnosis=diagnosis,
        plan=plan,
        outcomes=outcomes,
        recovery_latency=recovery_latency,
    )


def _ground_truth(state: SimState) -> tuple[FaultEvent, ...]:
    """Scenario faults active now, each at its latest injection, for the
    report writer only."""
    latest = {  # a scenario's faults are in tick order, so the latest wins
        (f.target, f.fault_class): f.at_tick
        for f in state.scenario.faults
        if f.at_tick <= state.tick
    }
    events = [FaultEvent(*key, latest.get(key, 0)) for key in state.active_faults]
    return tuple(sorted(events, key=lambda f: (f.at_tick, f.target, f.fault_class.value)))


# ---------------------------------------------------------------------------
# Metrics


def _truth_ids(record: IncidentRecord) -> set[str]:
    return {
        bndiag.fault_var_id(f.fault_class, f.target) for f in record.injected_faults
    }


def map_hit(record: IncidentRecord) -> bool:
    """True when the highest-posterior fault is one of the injected faults."""
    ranking = record.posterior.ranking()
    return bool(ranking) and ranking[0][0] in _truth_ids(record)


def top3_hit(record: IncidentRecord) -> bool:
    truth = _truth_ids(record)
    return any(fid in truth for fid, _ in record.posterior.ranking()[:3])


def _mean(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def compute_metrics(records: Sequence[IncidentRecord], alarm_log: Sequence[Alarm]) -> dict:
    """Derive run metrics; recomputable from the report content alone."""
    return {
        "incidents": len(records),
        "recovered-incidents": sum(1 for r in records if r.recovered),
        "map-accuracy": _mean([map_hit(r) for r in records]),
        "top3-accuracy": _mean([top3_hit(r) for r in records]),
        "mean-detection-latency": _mean([r.detection_latency for r in records]),
        "mean-diagnosis-latency": _mean([r.diagnosis_latency for r in records]),
        "mean-recovery-latency": _mean([r.recovery_latency for r in records]),
        "alarm-counts": {
            "translated": len(alarm_log),
            "windowed": sum(len(r.alarms) for r in records),
        },
    }


def batch_metrics(reports: list[RunReport]) -> dict:
    """Pool metrics across runs, with a per-fault-class breakdown."""
    if not reports:
        raise LoopError("batch_metrics needs at least one report")
    records = [r for report in reports for r in report.records]
    pooled = compute_metrics(records, [a for rep in reports for a in rep.alarm_log])
    per_class: dict[str, list[IncidentRecord]] = {}
    for record in records:
        classes = sorted({f.fault_class.value for f in record.injected_faults})
        per_class.setdefault("+".join(classes) or "none", []).append(record)
    keys = ("incidents", "map-accuracy", "top3-accuracy", "recovered-incidents")
    breakdown = {}
    for label, group in sorted(per_class.items()):
        metrics = compute_metrics(group, ())
        breakdown[label] = {key: metrics[key] for key in keys}
    return {"reports": len(reports), "pooled": pooled, "per-fault-class": breakdown}


# ---------------------------------------------------------------------------
# Report documents


def render_json(doc) -> str:
    """Exactly `json.dumps(doc, indent=2, sort_keys=True) + "\n"`, faster.

    The stdlib's C encoder cannot indent, so `json.dumps` with `indent`
    runs its pure-Python generators; this writer gives the same text in
    less time. Dict keys are sorted and must be `str`; lists
    and tuples are arrays; strings go through the stdlib's own escaper;
    floats use `float.__repr__` and spell `NaN` and `Infinity` as `json`
    does; subclasses of `str`, `int` and `float` render as their base
    value. Any other type raises `TypeError`, as `json` does.
    """
    parts: list[str] = []
    _render(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _render_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


# exact type -> text of a scalar; subclasses take the isinstance path
_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _render_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render(value, newline: str, parts: list[str]) -> None:
    """Append `value` to `parts`, its inner lines indented past `newline`.

    A plain function, not a closure over `parts`: a closure that calls
    itself is a reference cycle, which keeps what it holds alive until
    the cyclic collector runs.
    """
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        parts.append(leaf(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            leaf = _LEAF.get(type(item))
            if leaf is not None:
                parts.append(sep + leaf(item))
            else:
                parts.append(sep)
                _render(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + encode_basestring_ascii(key) + ": "
            leaf = _LEAF.get(type(item))
            if leaf is not None:
                parts.append(head + leaf(item))
            else:
                parts.append(head)
                _render(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    # no type is both a container and a scalar, so testing them after the
    # containers keeps json's order: str, int, then float
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_render_float(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _action_to_dict(action: RecoveryAction) -> dict:
    return {
        "kind": action.kind.value,
        "target": action.target,
        "params": {"avoid": sorted(action.avoid)} if action.avoid else {},
        "fallback": _action_to_dict(action.fallback) if action.fallback else None,
    }


def _alarm_to_dict(alarm: Alarm) -> dict:
    return {
        "level": alarm.level.value,
        "emitter": alarm.emitter,
        "symptom": alarm.symptom.value,
        "tick": alarm.tick,
    }


def diagnosis_to_dict(posterior: Posterior, diagnosis: Diagnosis) -> dict:
    """The posterior map and the verdict/threshold/ranked block, as an
    incident record and the `diagnose` command both write them."""
    return {
        "posterior": dict(sorted(posterior.marginals.items())),
        "diagnosis": {
            "verdict": diagnosis.verdict.value,
            "threshold": diagnosis.threshold,
            "ranked": [[fid, p] for fid, p in diagnosis.ranked],
        },
    }


def record_to_dict(record: IncidentRecord) -> dict:
    return {
        "detected-at": record.detected_at,
        "diagnosed-at": record.diagnosed_at,
        "injected-faults": [
            {"target": f.target, "class": f.fault_class.value, "at-tick": f.at_tick}
            for f in record.injected_faults
        ],
        "alarms": [_alarm_to_dict(a) for a in record.alarms],
        "evidence": dict(sorted(record.evidence.items())),
        **diagnosis_to_dict(record.posterior, record.diagnosis),
        "plan": [_action_to_dict(a) for a in record.plan],
        "outcomes": [
            {
                "action": _action_to_dict(o.action),
                "status": o.status.value,
                "detail": o.detail,
            }
            for o in record.outcomes
        ],
        "executed": record.executed,
        "recovered": record.recovered,
        "latencies": {
            "detection": record.detection_latency,
            "diagnosis": record.diagnosis_latency,
            "recovery": record.recovery_latency,
        },
    }


def settings_echo(settings: BnParams | LoopConfig) -> dict:
    """Echo every field of a settings object with its provenance.

    A field whose value differs from the built-in default is flagged
    `override`; one equal to it reads `default`, however it was given.
    """
    echo = {}
    for name, value in zip(settings._fields, settings):
        echo[name.replace("_", "-")] = {
            "value": value.value if isinstance(value, Enum) else value,
            "source": "default" if value == settings._field_defaults[name] else "override",
        }
    return echo


def report_to_dict(report: RunReport) -> dict:
    return {
        "schema-version": REPORT_SCHEMA_VERSION,
        "scenario": {
            "name": report.scenario_name,
            "seed": report.seed,
            "horizon": report.horizon,
        },
        "records": [record_to_dict(r) for r in report.records],
        "alarm-log": [_alarm_to_dict(a) for a in report.alarm_log],
        "metrics": report.metrics,
        "parameters": {
            "bn": settings_echo(report.params),
            "loop": settings_echo(report.config),
            "strategy": (
                "default"
                if report.table == recover.default_strategy_table()
                else "override"
            ),
        },
    }


def batch_to_dict(reports: list[RunReport]) -> dict:
    return {
        "schema-version": REPORT_SCHEMA_VERSION,
        "aggregate": batch_metrics(reports),
        "runs": [
            {"name": report.scenario_name, "seed": report.seed, "metrics": report.metrics}
            for report in reports
        ],
    }


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Render a report: byte-stable JSON, or a human-readable table."""
    if fmt == "json":
        return render_json(report_to_dict(report))
    if fmt != "table":
        raise LoopError(f"unknown report format: {fmt}")

    def show(value) -> str:
        if value is None:
            return "n/a"
        if isinstance(value, float):
            return f"{value:.3g}"
        return str(value)

    header = f"{'incident':>8}  {'injected':<32}{'diagnosed':<32}{'recovered':<10}latency"
    lines = [header, "-" * len(header)]
    for i, record in enumerate(report.records, start=1):
        injected = ",".join(
            f"{f.fault_class.value}({f.target})" for f in record.injected_faults
        ) or "-"
        ranking = record.posterior.ranking()
        diagnosed = ranking[0][0] if ranking else "-"
        lines.append(
            f"{i:>8}  {injected:<32}{diagnosed:<32}"
            f"{('yes' if record.recovered else 'no'):<10}"
            f"{show(record.recovery_latency)}"
        )
    m = report.metrics
    lines.append("")
    lines.append(
        f"incidents={m['incidents']} recovered={m['recovered-incidents']} "
        f"map-accuracy={show(m['map-accuracy'])} "
        f"top3-accuracy={show(m['top3-accuracy'])}"
    )
    return "\n".join(lines) + "\n"
