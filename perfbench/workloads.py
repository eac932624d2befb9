"""The benchmark's workloads: inputs, one timed op each, and output checks.

A workload builds its inputs in `setup`, runs op `i` in `run(i)` (the
only code that is timed), checks the first run of each op in `check`,
and gives each later run a `digest` that must repeat, since every op is
deterministic. `check` returns an `Outcome`; it raises `CheckError` when
an output is wrong.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle
from sdnheal import alarmpipe, bndiag, cli, healloop, netmodel, simkernel
from sdnheal.alarmpipe import EvidencePolicy
from sdnheal.taxonomy import FaultClass

POLICIES = (EvidencePolicy.CLOSED_WORLD, EvidencePolicy.OPEN_WORLD)
SUM_TOL = 1e-12      # |P(false|e) + P(true|e) - 1|
ORACLE_TOL = 1e-9    # |engine - oracle| per marginal
MAX_RECOVERY_TICKS = 3


class CheckError(AssertionError):
    """A program output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Outcome:
    """What the check of one op found; counts feed the per-layer metrics."""

    failed: bool = False
    incidents: int = 0
    map_hits: int = 0
    recovered: int = 0
    unrepaired: bool = False
    report_bytes: int = 0


class Capture:
    """Records what the program computed inside one op, for the checks.

    Installed only while ops are checked; wraps the module attributes the
    program calls through.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.inferences: list[tuple] = []
        self.verdicts: list[str] = []
        self.last_state = None

    def install(self, patches) -> None:
        def posterior_marginals(fn):
            def wrapper(bn, evidence):
                result = fn(bn, evidence)
                self.inferences.append((bn, evidence, result))
                return result
            return wrapper

        def map_diagnosis(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.verdicts.append(result.verdict.value)
                return result
            return wrapper

        def step(fn):
            def wrapper(state):
                result = fn(state)
                self.last_state = result[0]
                return result
            return wrapper

        patches.wrap(bndiag, "posterior_marginals", posterior_marginals)
        patches.wrap(bndiag, "map_diagnosis", map_diagnosis)
        patches.wrap(simkernel, "step", step)


class InferenceCheck:
    """Checks posteriors against the oracle and counts what it covered."""

    def __init__(self) -> None:
        self.calls = 0
        self.marginals = 0
        self.covered = 0
        self.positive_findings = 0
        self.unobserved_symptoms = 0

    def __call__(self, bn, evidence: dict, posterior) -> None:
        self.calls += 1
        symptoms = bn.symptom_ids
        self.positive_findings += sum(1 for v in evidence.values() if v)
        self.unobserved_symptoms += len(symptoms) - len(evidence)
        _require(set(posterior.pairs) == set(bn.fault_ids), "posterior misses faults")
        for fid, (p_false, p_true) in posterior.pairs.items():
            _require(abs(p_false + p_true - 1.0) <= SUM_TOL,
                     f"{fid}: pair sums to {p_false + p_true!r}")
        expected = oracle.oracle_marginals(bn, evidence)
        for fid, p in expected.items():
            got = posterior.pairs[fid][1]
            _require(abs(got - p) <= ORACLE_TOL, f"{fid}: engine {got!r} oracle {p!r}")
        self.marginals += len(posterior.pairs)
        self.covered += len(expected)


def unrepaired_faults(state) -> list[tuple[str, str]]:
    """Injected faults still active with no repair ticket pending for them."""
    pending = {(c, fc) for c, _, fc in state.repair_tickets}
    return sorted(
        (c, fc.value) for c, fc in state.active_faults
        if (c, None) not in pending and (c, fc) not in pending
    )


def _top(ranking: list) -> str | None:
    return ranking[0][0] if ranking else None


# ---------------------------------------------------------------------------


class Desk:
    """One incident per fault class per topology, under both policies.

    An op is build_bn -> to_evidence -> posterior_marginals ->
    map_diagnosis on an alarm window the simulator produced in setup.
    """

    name = "diagnose-desk"

    def __init__(self, seed: int, topo_seeds=(0, 1, 2, 3), nodes=50, services=10):
        self.seed = seed
        self.topo_seeds = topo_seeds
        self.size = (nodes, services)

    def setup(self) -> None:
        docs = [gen.topology_doc(s, *self.size) for s in self.topo_seeds]
        topologies = [netmodel.load_topology(doc) for doc in docs]
        self.ops = []
        for t, fault_class, target in gen.desk_incidents(self.seed, docs):
            scenario = simkernel.load_scenario({
                "topology": docs[t],
                "faults": [{"target": target, "class": fault_class, "at-tick": 1}],
                "horizon": 2,
            })
            state, raws = simkernel.step(simkernel.init_sim(scenario))
            window = alarmpipe.collect_window(
                [alarmpipe.translate_alarm(r) for r in raws], (1, 1)
            )
            truth = bndiag.fault_var_id(scenario.faults[0].fault_class, target)
            for policy in POLICIES:
                self.ops.append((topologies[t], window, policy, truth))
        self.threshold = bndiag.BnParams().threshold

    def run(self, i: int):
        topology, window, policy, _ = self.ops[i]
        bn = bndiag.build_bn(topology)
        evidence = alarmpipe.to_evidence(window, bn, policy)
        posterior = bndiag.posterior_marginals(bn, evidence)
        diagnosis = bndiag.map_diagnosis(posterior, self.threshold, bn.priors)
        return bn, evidence, posterior, diagnosis

    def check(self, i, result, capture, inference: InferenceCheck) -> Outcome:
        bn, evidence, posterior, _ = result
        inference(bn, evidence, posterior)
        hit = _top(posterior.ranking()) == self.ops[i][3]
        return Outcome(incidents=1, map_hits=int(hit))

    def digest(self, i, result):
        _, _, posterior, diagnosis = result
        return posterior.pairs, diagnosis.ranked, diagnosis.verdict

    def close(self) -> None:
        pass


class HealLoop:
    """One run_loop per stochastic twelve-fault scenario on ~10-node topologies."""

    name = "heal-loop"

    def __init__(self, seed: int, topo_seeds=tuple(range(100, 148)), nodes=10,
                 services=3, max_path_links=3, horizon=300):
        self.seed = seed
        self.topo_seeds = topo_seeds
        self.size = (nodes, services, max_path_links)
        self.horizon = horizon

    def setup(self) -> None:
        self.ops = []
        for t, topo_seed in enumerate(self.topo_seeds):
            doc = gen.topology_doc(topo_seed, *self.size)
            for policy in POLICIES:
                scenario_doc = gen.loop_scenario_doc(
                    self.seed, len(self.ops), doc, self.horizon
                )
                config = healloop.LoopConfig(evidence_policy=policy)
                self.ops.append((simkernel.load_scenario(scenario_doc), config))

    def run(self, i: int):
        scenario, config = self.ops[i]
        return healloop.run_loop(scenario, config=config)

    def check(self, i, report, capture, inference: InferenceCheck) -> Outcome:
        for call in capture.inferences:
            inference(*call)
        state = capture.last_state
        _require(state is not None and state.tick == self.ops[i][0].horizon,
                 "loop stopped before the horizon")
        return _loop_outcome(
            [(r.posterior.ranking(), {bndiag.fault_var_id(f.fault_class, f.target)
                                      for f in r.injected_faults}, r.recovered)
             for r in report.records],
            unrepaired=bool(unrepaired_faults(state)),
        )

    def digest(self, i, report):
        return hashlib.sha1(repr(report).encode()).hexdigest()

    def close(self) -> None:
        pass


def _loop_outcome(records, unrepaired: bool, report_bytes: int = 0) -> Outcome:
    return Outcome(
        incidents=len(records),
        map_hits=sum(1 for ranking, truth, _ in records if _top(ranking) in truth),
        recovered=sum(1 for _, _, recovered in records if recovered),
        unrepaired=unrepaired,
        report_bytes=report_bytes,
    )


class RunT1:
    """`sdnheal run` on single-fault T1 scenarios, read from and written to disk.

    Every diagnosable target of every class, once deterministic and once
    noisy, under both evidence policies. The inputs do not
    depend on the seed, so a run that leaves its injected fault
    unrepaired fails every time and is counted as failed.
    """

    name = "run-t1"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dir: Path | None = None

    def setup(self) -> None:
        self.close()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-t1-", dir=self.workdir))
        (self.dir / "t1.topology.json").write_text(json.dumps(gen.T1_TOPOLOGY))
        self.ops = []
        for name, doc in gen.t1_run_docs(self.seed):
            path = self.dir / f"{name}.scenario.json"
            path.write_text(json.dumps(doc))
            fault = doc["faults"][0]
            for policy in POLICIES:
                out = self.dir / f"{name}.{policy.value}.report.json"
                argv = ["run", str(path), "--policy", policy.value, "--out", str(out)]
                self.ops.append((argv, out, doc["noise"]["mode"], fault))

    def run(self, i: int):
        return cli.main(self.ops[i][0])

    def check(self, i, status, capture, inference: InferenceCheck) -> Outcome:
        _, out, mode, fault = self.ops[i]
        if status != 0:
            return Outcome(failed=True)
        text = out.read_text()
        report = json.loads(text)
        records = report["records"]
        _require(report["metrics"] == recompute_metrics(report),
                 f"{out.name}: metrics do not follow from the records")
        for call in capture.inferences:
            inference(*call)
        rows = [(_ranking(r), _truth(r), r["recovered"]) for r in records]
        unrepaired = bool(unrepaired_faults(capture.last_state))
        if mode == "deterministic":
            want = _var_of(fault["class"], fault["target"])
            _require(len(records) == 1, f"{out.name}: {len(records)} incidents")
            _require(_top(rows[0][0]) == want, f"{out.name}: MAP is {_top(rows[0][0])}")
            latency = records[0]["latencies"]["recovery"]
            _require(records[0]["recovered"] and latency <= MAX_RECOVERY_TICKS,
                     f"{out.name}: recovery latency {latency}")
        outcome = _loop_outcome(rows, unrepaired, len(text.encode()))
        outcome.failed = unrepaired
        return outcome

    def digest(self, i, status):
        out = self.ops[i][1]
        return status, out.exists() and hashlib.sha1(out.read_bytes()).hexdigest()

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def _var_of(fault_class: str, target: str) -> str:
    return bndiag.fault_var_id(FaultClass(fault_class), target)


def _ranking(record: dict) -> list[tuple[str, float]]:
    """A report record's posterior, highest first, ties by fault id."""
    return sorted(record["posterior"].items(), key=lambda kv: (-kv[1], kv[0]))


def _truth(record: dict) -> set[str]:
    return {_var_of(f["class"], f["target"]) for f in record["injected-faults"]}


def recompute_metrics(report: dict) -> dict:
    """A run report's metrics, derived again from its records and alarm log."""
    records = report["records"]
    n = len(records)

    def top(r, k):
        return {fid for fid, _ in _ranking(r)[:k]}

    def mean(key):
        values = [r["latencies"][key] for r in records if r["latencies"][key] is not None]
        return sum(values) / len(values) if values else None

    return {
        "incidents": n,
        "recovered-incidents": sum(1 for r in records if r["recovered"]),
        "map-accuracy": sum(1 for r in records if top(r, 1) & _truth(r)) / n if n else None,
        "top3-accuracy": sum(1 for r in records if top(r, 3) & _truth(r)) / n if n else None,
        "mean-detection-latency": mean("detection"),
        "mean-diagnosis-latency": mean("diagnosis"),
        "mean-recovery-latency": mean("recovery"),
        "alarm-counts": {
            "translated": len(report["alarm-log"]),
            "windowed": sum(len(r["alarms"]) for r in records),
        },
    }
