#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline rows as medians of repeated runs.

    PYTHONPATH=src python3 perfbench/roadmap_rows.py [--repeats 5]

The rows use the test suite's `random_topology(7777, ...)` generator, as
the ROADMAP table does, with a physical link fault on
`services[0].path[3]` unless a row says otherwise. This script is a
reference for the README's table; the benchmark itself (run.py) never
reads the test suite. The 100-node row is left out: it ends in a
MemoryError after taking about 2.4 GiB of RSS.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from topogen import random_topology  # noqa: E402

from sdnheal import alarmpipe, bndiag, healloop, simkernel  # noqa: E402
from sdnheal.alarmpipe import EvidencePolicy  # noqa: E402
from sdnheal.simkernel import FaultEvent, Scenario  # noqa: E402
from sdnheal.taxonomy import FaultClass  # noqa: E402


def median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def largest_clique(bn, evidence) -> int:
    """Variables in the largest factor min-fill elimination creates."""
    scopes = [f.scope for f in bndiag.compile_factors(bn, evidence)]
    unobserved = {v.id for v in bn.variables if v.id not in evidence}
    order = bndiag.min_fill_order(unobserved, scopes)
    neighbors = {v: set() for v in unobserved}
    for scope in scopes:
        for a in scope:
            neighbors[a].update(b for b in scope if b != a)
    widest = 0
    for v in order:
        around = neighbors.pop(v)
        widest = max(widest, len(around) + 1)
        for a in around:
            neighbors[a] |= around - {a}
            neighbors[a].discard(v)
    return widest


def incident(nodes: int, services: int, fault: str = "link"):
    topo = random_topology(7777, n_nodes=nodes, n_services=services)
    if fault == "link":
        target, fc = topo.services[0].path[3], FaultClass.PHYSICAL_FAILURE
    else:
        target, fc = topo.controller_id, FaultClass.CONTROLLER_CRASH
    state = simkernel.init_sim(Scenario(topology=topo, faults=(FaultEvent(target, fc, 1),),
                                        seed=1, horizon=2))
    state, raws = simkernel.step(state)
    window = alarmpipe.collect_window([alarmpipe.translate_alarm(r) for r in raws], (1, 1))
    return topo, window


def diagnosis_rows(label, nodes, services, fault, repeats):
    topo, window = incident(nodes, services, fault)
    bn = bndiag.build_bn(topo)
    build_ms = median_s(lambda: bndiag.build_bn(topo), repeats) * 1e3
    for policy in EvidencePolicy:
        evidence = alarmpipe.to_evidence(window, bn, policy)
        seconds = median_s(lambda: bndiag.posterior_marginals(bn, evidence), repeats)
        positives = sum(evidence.values())
        print(f"| {label}, {policy.value} | posterior_marginals {seconds:.3f} s; "
              f"largest factor 2^{largest_clique(bn, evidence)}; {positives} positive "
              f"findings; build_bn {build_ms:.1f} ms |")


def loop_row(repeats):
    topo = random_topology(7777, n_nodes=30, n_services=6)
    scenario = Scenario(
        topology=topo,
        faults=(FaultEvent(topo.services[0].path[3], FaultClass.PHYSICAL_FAILURE, 1),),
        seed=1, horizon=40,
    )
    inference = [0.0]
    original = bndiag.posterior_marginals

    def timed(bn, evidence):
        start = time.perf_counter()
        try:
            return original(bn, evidence)
        finally:
            inference[0] += time.perf_counter() - start

    bndiag.posterior_marginals = timed
    try:
        total = median_s(lambda: healloop.run_loop(scenario), repeats)
    finally:
        bndiag.posterior_marginals = original
    print(f"| run_loop, 30 nodes / 6 services, 40 ticks | {total:.3f} s, of which "
          f"posterior_marginals {inference[0] / repeats:.3f} s (mean) |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| case | median of", args.repeats, "runs |")
    print("|------|------|")
    diagnosis_rows("50 nodes / 10 services", 50, 10, "link", args.repeats)
    diagnosis_rows("80 nodes / 16 services", 80, 16, "link", args.repeats)
    diagnosis_rows("controller crash, 50 nodes", 50, 10, "controller", args.repeats)
    loop_row(args.repeats)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\npeak RSS of this script: {rss:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
