"""Quick tests of the benchmark itself: its oracle, tracer and workloads.

Each workload runs at a tiny size here; the benchmark sizes are in
workloads.py and run.py.
"""

import random
import types
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads
from sdnheal import bndiag
from sdnheal.bndiag import BayesNet, BnVariable, NoisyOrCpt


def _random_bn(rng: random.Random) -> tuple[BayesNet, dict]:
    n_faults = rng.randint(1, 8)
    faults = [f"fault:service:F{i}" for i in range(n_faults)]
    variables = [BnVariable(id=f, kind="fault", target=f) for f in faults]
    cpts = {}
    for j in range(rng.randint(1, 15 - n_faults)):
        sid = f"symptom:service-down:S{j}"
        parents = tuple(sorted(rng.sample(faults, rng.randint(1, min(4, n_faults)))))
        variables.append(BnVariable(id=sid, kind="symptom", target=sid))
        cpts[sid] = NoisyOrCpt(sid, parents, tuple(rng.uniform(0.05, 0.95) for _ in parents),
                               rng.uniform(0.0, 0.05))
    bn = BayesNet(tuple(variables), {f: rng.uniform(0.05, 0.95) for f in faults}, cpts)
    evidence = {}
    for sid in cpts:
        roll = rng.random()
        if roll < 0.7:
            evidence[sid] = roll < 0.4
    return bn, evidence


@pytest.mark.parametrize("enum_max_faults", [oracle.ENUM_MAX_FAULTS, 0])
def test_oracle_matches_enumeration(monkeypatch, enum_max_faults):
    # 0 sends every component with a positive finding to Quickscore
    monkeypatch.setattr(oracle, "ENUM_MAX_FAULTS", enum_max_faults)
    rng = random.Random(20261018)
    covered = 0
    for _ in range(100):
        bn, evidence = _random_bn(rng)
        reference = bndiag.enumerate_joint(bn, evidence)
        got = oracle.oracle_marginals(bn, evidence)
        for fid, p in got.items():
            assert abs(p - reference.marginal(fid)) <= 1e-11, fid
        covered += len(got)
    assert covered > 250


def test_oracle_closed_form_for_faults_without_positive_children():
    bn, _ = _random_bn(random.Random(7))
    evidence = {sid: False for sid in bn.symptom_ids}
    reference = bndiag.enumerate_joint(bn, evidence)
    got = oracle.oracle_marginals(bn, evidence)
    assert set(got) == set(bn.fault_ids)
    for fid, p in got.items():
        assert abs(p - reference.marginal(fid)) <= 1e-12


def test_tracer_self_times_add_up_and_missing_functions_are_reported():
    module = types.ModuleType("pkg.fake")
    module.outer = lambda n: module.inner(n) + 1
    module.inner = lambda n: sum(range(n))

    tracer = spans.Tracer()
    with spans.Patches() as patches:
        for name in ("outer", "inner", "absent"):
            patches.wrap(module, name, lambda fn, n=name: tracer.timed(n, fn))
        for op in range(3):
            tracer.open_op(op)
            assert module.outer(1000) == sum(range(1000)) + 1
            tracer.close_op()
    assert patches.missing == ["fake.absent"]
    self_s, calls, n_ops = tracer.self_times()
    assert n_ops == 3 and calls["outer"] == calls["inner"] == 3
    op_total = sum(end - start for name, start, end, _, _ in tracer.spans if name == spans.OP)
    assert sum(self_s.values()) == pytest.approx(op_total, rel=1e-9)


def _tiny_pass(workload) -> run.Run:
    workload.setup()
    try:
        bench = run.Run(workload)
        bench.check_round()
        bench.round()
    finally:
        workload.close()
    assert bench.attempted == 2 * len(workload.ops)
    assert bench.correct
    return bench


def test_tiny_diagnose_desk():
    bench = _tiny_pass(workloads.Desk(1, topo_seeds=(0,), nodes=12, services=3))
    assert bench.failed == 0
    assert bench.inference.covered > 0


def test_tiny_heal_loop():
    bench = _tiny_pass(workloads.HealLoop(1, topo_seeds=(100,), nodes=8, services=2,
                                          horizon=60))
    assert bench.failed == 0
    assert bench.inference.calls > 0


def test_tiny_run_t1(tmp_path):
    workload = workloads.RunT1(1, tmp_path)
    bench = _tiny_pass(workload)
    failed = {Path(workload.ops[i][0][1]).name.split("-", 1)[1]
              for i, o in enumerate(bench.outcomes) if o.failed}
    # a reroute that succeeds leaves its physical failure unrepaired
    assert failed <= {f"{c}-{t}.scenario.json" for c, t in (
        ("physical-failure", "l1"), ("interface-traffic-drop", "l1"), ("physical-failure", "c0"))}
