"""The self-healing closed loop: detect, diagnose, recover, verify.

Each tick the loop steps the simulator, translates raw alarms, and
windows them. A non-empty window becomes an incident: the window turns
into evidence, exact inference ranks the fault hypotheses, and a
confident or suspect diagnosis is planned and executed against the
simulator, then verified by polling the affected services. Inconclusive
diagnoses widen the evidence window a bounded number of times before the
incident is recorded unresolved.

Ground-truth injected faults are attached to incident records by the
report writer only; the diagnosis path never sees them. Alarms already
attributed to a recorded incident are suppressed while they keep
re-occurring, so one fault episode yields one incident.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum

from . import alarmpipe, bndiag, netmodel, recover, simkernel
from .alarmpipe import Alarm, EvidencePolicy
from .bndiag import BayesNet, BnParams, Diagnosis, Posterior, Verdict
from .netmodel import ServiceState
from .recover import ActionOutcome, RecoveryAction, StrategyTable
from .simkernel import FaultEvent, Scenario, SimState
from .taxonomy import Symptom

REPORT_SCHEMA_VERSION = 1


class LoopError(ValueError):
    """Invalid loop configuration."""


@dataclass(frozen=True)
class LoopConfig:
    evidence_window: int = 1
    threshold: float = 0.5
    verify_timeout: int = 3
    evidence_policy: EvidencePolicy = EvidencePolicy.CLOSED_WORLD
    max_widenings: int = 2
    suggest_only: bool = False

    def __post_init__(self) -> None:
        if self.evidence_window < 1:
            raise LoopError(f"evidence-window must be >= 1: {self.evidence_window}")
        if self.verify_timeout < 1:
            raise LoopError(f"verify-timeout must be >= 1: {self.verify_timeout}")
        if self.max_widenings < 0:
            raise LoopError(f"max-widenings must be >= 0: {self.max_widenings}")
        if not 0.0 < self.threshold < 1.0:
            raise LoopError(f"threshold must be in (0,1): {self.threshold}")


@dataclass(frozen=True)
class IncidentRecord:
    detected_at: int
    diagnosed_at: int
    injected_faults: tuple[FaultEvent, ...]
    alarms: tuple[Alarm, ...]
    evidence: dict[str, bool]
    posterior: Posterior
    diagnosis: Diagnosis
    plan: tuple[RecoveryAction, ...]
    outcomes: tuple[ActionOutcome, ...]
    executed: bool
    recovered: bool
    detection_latency: int | None
    diagnosis_latency: int
    recovery_latency: int | None

    def __post_init__(self) -> None:
        if self.recovered and self.recovery_latency is None:
            raise LoopError("recovered incident must carry a recovery latency")


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    seed: int
    horizon: int
    records: tuple[IncidentRecord, ...]
    alarm_log: tuple[Alarm, ...]
    metrics: dict
    params: BnParams
    config: LoopConfig
    table: StrategyTable


class _Driver:
    """Owns the stepping simulator plus alarm bookkeeping for one run.

    Implements the actuator callable and the service-prober protocol that
    recovery execution and verification drive.
    """

    def __init__(self, state: SimState):
        self.state = state
        self.buffer: list[Alarm] = []
        self.alarm_log: list[Alarm] = []
        self.suppressed: set[tuple[str, Symptom]] = set()

    @property
    def tick(self) -> int:
        return self.state.tick

    def can_step(self) -> bool:
        return self.state.tick < self.state.scenario.horizon

    def step_once(self) -> None:
        self.state, raws = simkernel.step(self.state)
        alarms = [alarmpipe.translate_alarm(r) for r in raws]
        emitted = {(a.emitter, a.symptom) for a in alarms}
        self.buffer.extend(
            a for a in alarms if (a.emitter, a.symptom) not in self.suppressed
        )
        self.alarm_log.extend(alarms)
        # A suppressed symptom that stops re-occurring has cleared; a later
        # re-occurrence is a fresh episode.
        self.suppressed &= emitted

    def advance(self) -> bool:
        if not self.can_step():
            return False
        self.step_once()
        return True

    def poll(self, service_id: str) -> ServiceState:
        return simkernel.observe_service(self.state, service_id)

    def apply(self, action: RecoveryAction) -> ActionOutcome:
        self.state, outcome = simkernel.apply_action(self.state, action)
        return outcome

    def prune_buffer(self, keep_from_tick: int) -> None:
        self.buffer = [a for a in self.buffer if a.tick >= keep_from_tick]

    def attribute_to_incident(self, keys: set[tuple[str, Symptom]]) -> None:
        self.suppressed |= keys
        self.buffer = [
            a for a in self.buffer if (a.emitter, a.symptom) not in self.suppressed
        ]


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
    bn = bndiag.build_bn(scenario.topology, params)
    driver = _Driver(simkernel.init_sim(scenario))

    records: list[IncidentRecord] = []
    while driver.can_step():
        driver.step_once()
        span_start = driver.tick - config.evidence_window + 1
        driver.prune_buffer(span_start)
        window = alarmpipe.collect_window(driver.buffer, (span_start, driver.tick))
        if not window:
            continue
        record, final_window = _handle_incident(
            driver, window, span_start, bn, table, config, scenario
        )
        records.append(record)
        driver.attribute_to_incident({(a.emitter, a.symptom) for a in final_window})

    metrics = compute_metrics(records, driver.alarm_log)
    return RunReport(
        scenario_name=scenario_name,
        seed=scenario.seed,
        horizon=scenario.horizon,
        records=tuple(records),
        alarm_log=tuple(driver.alarm_log),
        metrics=metrics,
        params=params,
        config=config,
        table=table,
    )


def _handle_incident(
    driver: _Driver,
    window: set[Alarm],
    span_start: int,
    bn: BayesNet,
    table: StrategyTable,
    config: LoopConfig,
    scenario: Scenario,
) -> tuple[IncidentRecord, set[Alarm]]:
    detected_at = driver.tick
    injected = _ground_truth(driver.state, scenario, detected_at)

    widenings = 0
    while True:
        evidence = alarmpipe.to_evidence(window, bn, config.evidence_policy)
        posterior = bndiag.posterior_marginals(bn, evidence)
        diagnosis = bndiag.map_diagnosis(posterior, config.threshold, bn.priors)
        if diagnosis.verdict is not Verdict.INCONCLUSIVE:
            break
        if widenings >= config.max_widenings or not driver.advance():
            break
        widenings += 1
        window = alarmpipe.collect_window(driver.buffer, (span_start, driver.tick))
    diagnosed_at = driver.tick

    plan: tuple[RecoveryAction, ...] = ()
    outcomes: tuple[ActionOutcome, ...] = ()
    executed = False
    recovered = False
    recovery_latency = None
    if diagnosis.verdict is not Verdict.INCONCLUSIVE:
        plan = tuple(recover.select_strategy(diagnosis, driver.state.topology, table))
        if not config.suggest_only:
            executed = True
            outcomes = tuple(recover.execute_plan(list(plan), driver.apply))
            affected = {
                s.id
                for s in driver.state.topology.services
                if driver.poll(s.id) is not ServiceState.UP
            }
            affected.update(
                a.target
                for a in plan
                if netmodel.component_category(driver.state.topology, a.target)
                == "service"
            )
            plan_tick = driver.tick
            recovered = recover.verify_recovery(affected, driver, config.verify_timeout)
            if recovered:
                recovery_latency = driver.tick - plan_tick

    detection_latency = None
    relevant = [f.at_tick for f in injected if f.at_tick <= detected_at]
    if relevant:
        detection_latency = detected_at - max(relevant)

    record = IncidentRecord(
        detected_at=detected_at,
        diagnosed_at=diagnosed_at,
        injected_faults=injected,
        alarms=tuple(sorted(window)),
        evidence=evidence,
        posterior=posterior,
        diagnosis=diagnosis,
        plan=plan,
        outcomes=outcomes,
        executed=executed,
        recovered=recovered,
        detection_latency=detection_latency,
        diagnosis_latency=diagnosed_at - detected_at,
        recovery_latency=recovery_latency,
    )
    return record, window


def _ground_truth(
    state: SimState, scenario: Scenario, at_tick: int
) -> tuple[FaultEvent, ...]:
    """Scenario faults currently active, for the report writer only."""
    events = []
    for target, fault_class in state.active_faults:
        scheduled = [
            f.at_tick
            for f in scenario.faults
            if f.target == target
            and f.fault_class is fault_class
            and f.at_tick <= at_tick
        ]
        events.append(
            FaultEvent(
                target=target,
                fault_class=fault_class,
                at_tick=max(scheduled) if scheduled else 0,
            )
        )
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


def compute_metrics(records: list[IncidentRecord], alarm_log: list[Alarm]) -> dict:
    """Derive run metrics; recomputable from the report content alone."""
    n = len(records)
    metrics = {
        "incidents": n,
        "recovered-incidents": sum(1 for r in records if r.recovered),
        "map-accuracy": None,
        "top3-accuracy": None,
        "mean-detection-latency": None,
        "mean-diagnosis-latency": None,
        "mean-recovery-latency": None,
        "alarm-counts": {
            "translated": len(alarm_log),
            "windowed": sum(len(r.alarms) for r in records),
        },
    }
    if n == 0:
        return metrics
    metrics["map-accuracy"] = sum(1 for r in records if map_hit(r)) / n
    metrics["top3-accuracy"] = sum(1 for r in records if top3_hit(r)) / n
    metrics["mean-detection-latency"] = _mean([r.detection_latency for r in records])
    metrics["mean-diagnosis-latency"] = _mean([r.diagnosis_latency for r in records])
    metrics["mean-recovery-latency"] = _mean([r.recovery_latency for r in records])
    return metrics


def batch_metrics(reports: list[RunReport]) -> dict:
    """Pool metrics across runs, with a per-fault-class breakdown."""
    if not reports:
        raise LoopError("batch_metrics needs at least one report")
    records = [r for report in reports for r in report.records]
    pooled = compute_metrics(records, [a for rep in reports for a in rep.alarm_log])
    per_class: dict[str, dict] = {}
    for record in records:
        classes = sorted({f.fault_class.value for f in record.injected_faults})
        label = classes[0] if len(classes) == 1 else ("+".join(classes) or "none")
        per_class.setdefault(label, []).append(record)
    breakdown = {}
    for label, group in sorted(per_class.items()):
        breakdown[label] = {
            "incidents": len(group),
            "map-accuracy": sum(1 for r in group if map_hit(r)) / len(group),
            "top3-accuracy": sum(1 for r in group if top3_hit(r)) / len(group),
            "recovered-incidents": sum(1 for r in group if r.recovered),
        }
    return {
        "reports": len(reports),
        "pooled": pooled,
        "per-fault-class": breakdown,
    }


# ---------------------------------------------------------------------------
# Report documents


def _action_to_dict(action: RecoveryAction) -> dict:
    params = {}
    for key, value in sorted(action.params.items()):
        if isinstance(value, (tuple, set, frozenset)):
            params[key] = sorted(value)
        else:
            params[key] = value
    return {
        "kind": action.kind.value,
        "target": action.target,
        "params": params,
        "fallback": _action_to_dict(action.fallback) if action.fallback else None,
    }


def _alarm_to_dict(alarm: Alarm) -> dict:
    return {
        "level": alarm.level.value,
        "emitter": alarm.emitter,
        "symptom": alarm.symptom.value,
        "tick": alarm.tick,
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
        "posterior": dict(sorted(record.posterior.marginals.items())),
        "diagnosis": {
            "verdict": record.diagnosis.verdict.value,
            "threshold": record.diagnosis.threshold,
            "ranked": [[fid, p] for fid, p in record.diagnosis.ranked],
        },
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
    defaults = type(settings)()
    echo = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        echo[f.name.replace("_", "-")] = {
            "value": value.value if isinstance(value, Enum) else value,
            "source": "default" if value == getattr(defaults, f.name) else "override",
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
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
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
