#!/usr/bin/env python3
"""Benchmark of the sdnheal package: diagnosis alone and the closed loop.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: diagnose-desk, heal-loop,
run-t1 (see perfbench/README.md). The process is single-threaded and
calls the package's public functions in-process. After set-up it runs
whole rounds of the workload's ops until the next round would end after
S seconds (at least one round), checks every op's output, and prints one
JSON object as its last line: `correct`, `attempted`, `failed` and
`metrics`, which are the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`. Trace runs also write their spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("diagnose-desk", "heal-loop", "run-t1")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RAISED = "raised"  # the digest of an op that raised
SETUP_REPEATS = 5
PEAK_ALLOC_OPS = 8
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sdnheal.cli, sdnheal.healloop; "
    "print(time.perf_counter() - t)"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_import() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def make_workload(name: str, seed: int):
    import workloads
    if name == "diagnose-desk":
        return workloads.Desk(seed)
    if name == "heal-loop":
        return workloads.HealLoop(seed)
    return workloads.RunT1(seed, OUT)


class Run:
    """Rounds of a workload's ops, with their times and check results."""

    def __init__(self, workload) -> None:
        import workloads
        self.w = workload
        self.times: list[list[float]] = [[] for _ in workload.ops]
        self.outcomes: list = [None] * len(workload.ops)
        self.digests: list = [None] * len(workload.ops)
        self.inference = workloads.InferenceCheck()
        self.verdicts: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.busy = 0.0
        self.ops_run = 0
        self.untraced_busy = 0.0  # paired runs of traced rounds
        self.traced_busy = 0.0

    def _fail(self, i: int, message: str) -> None:
        self.correct = False
        print(f"check failed on op {i}: {message}", file=sys.stderr)

    def check_round(self) -> float:
        """First round: every op is timed, then its output checked."""
        import workloads
        capture = workloads.Capture()
        started = time.perf_counter()
        with spans.Patches() as patches:
            capture.install(patches)
            for i in range(len(self.w.ops)):
                capture.reset()
                result, error, _ = self._timed(i)
                self.outcomes[i] = workloads.Outcome(failed=error is not None)
                self.digests[i] = RAISED if error is not None else self.w.digest(i, result)
                if error is None:
                    try:
                        self.outcomes[i] = self.w.check(i, result, capture, self.inference)
                    except workloads.CheckError as exc:
                        self._fail(i, str(exc))
                    self.verdicts += capture.verdicts
                self._count(i)
        return time.perf_counter() - started

    def round(self, tracer=None) -> float:
        """A later round: each op is timed and must repeat its first run.

        With a tracer, each op runs twice in a row, untraced and traced,
        the order alternating from op to op, so the tracing cost is
        measured on the same ops under the same machine load.
        """
        started = time.perf_counter()
        for i in range(len(self.w.ops)):
            if tracer is None:
                self._repeat(i)
                continue
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    self.traced_busy += self._repeat(i, tracer)
                else:
                    self.untraced_busy += self._repeat(i)
        return time.perf_counter() - started

    def _repeat(self, i: int, tracer=None) -> float:
        """Run op i again; a traced run is kept out of the op's times."""
        result, error, elapsed = self._timed(i, tracer)
        digest = RAISED if error is not None else self.w.digest(i, result)
        if digest != self.digests[i]:
            self._fail(i, "output differs from the op's first run")
        self._count(i)
        return elapsed

    def _timed(self, i: int, tracer=None):
        clock = time.perf_counter
        if tracer is not None:
            tracer.open_op(i)
        start = clock()
        try:
            result, error = self.w.run(i), None
        except Exception as exc:  # a program exception fails the op
            result, error = None, exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.close_op()
        else:
            self.times[i].append(elapsed)
            self.busy += elapsed
            self.ops_run += 1
        if error is not None:
            print(f"op {i} raised:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        return result, error, elapsed

    def _count(self, i: int) -> None:
        self.attempted += 1
        self.failed += int(self.outcomes[i].failed)

    def rounds_until(self, deadline: float, last: float, tracer=None) -> None:
        """Run whole rounds while the next one is expected to end in time."""
        while time.perf_counter() + last <= deadline:
            last = self.round(tracer)

    def op_times(self) -> list[float]:
        """Each op's fastest repetition: other load on the host only ever adds time."""
        return [min(t) for t in self.times]


def end_to_end(run: Run, setup_s: float) -> dict:
    times = sorted(run.op_times())
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.ops_run / run.busy, "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def peak_alloc_mib(run: Run, modules: dict) -> float:
    """Largest tracemalloc peak inside one posterior_marginals call.

    Tracing allocations slows small-call workloads several times over, so
    this pass runs about PEAK_ALLOC_OPS ops spread evenly over the round,
    with an odd stride so both evidence policies are visited.
    """
    peaks = [0.0]

    def track(fn):
        def wrapper(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return wrapper

    with spans.Patches() as patches:
        patches.wrap(modules["bndiag"], "posterior_marginals", track)
        tracemalloc.start()
        try:
            for i in range(0, len(run.w.ops), len(run.w.ops) // PEAK_ALLOC_OPS | 1):
                try:
                    run.w.run(i)
                except Exception:  # already counted as a failed op in the timed rounds
                    continue
        finally:
            tracemalloc.stop()
    return max(peaks) / 2**20


def per_layer(run: Run, tracer, modules: dict, missing: list[str]) -> dict:
    self_s, calls, n_ops = tracer.self_times()
    metrics = {}
    for layer, names in spans.TRACED.items():
        for name in names:
            label = f"{layer}.{name}"
            if label in missing:
                continue
            metrics[f"{label}.self_ms"] = (self_s.get(label, 0.0) * 1e3 / n_ops, "ms")
            metrics[f"{label}.calls"] = (calls.get(label, 0) / n_ops, "count")
    outcomes = [o for o in run.outcomes if o is not None]
    incidents = sum(o.incidents for o in outcomes)
    inf = run.inference
    traced_op_s = sum(end - start for name, start, end, _, _ in tracer.spans
                      if name == spans.OP) / n_ops
    metrics.update({
        "bndiag.positive_findings": (inf.positive_findings / max(inf.calls, 1), "count"),
        "bndiag.unobserved_symptoms": (inf.unobserved_symptoms / max(inf.calls, 1), "count"),
        "bndiag.peak_alloc_mib": (peak_alloc_mib(run, modules), "MiB"),
        "bndiag.inconclusive_ratio": (run.verdicts.count("inconclusive") / max(inf.calls, 1), "ratio"),
        "healloop.incidents": (incidents / len(outcomes), "count"),
        "healloop.map_hit_ratio": (sum(o.map_hits for o in outcomes) / max(incidents, 1), "ratio"),
        "healloop.recovered_ratio": (sum(o.recovered for o in outcomes) / max(incidents, 1), "ratio"),
        "healloop.unrepaired_ratio": (sum(o.unrepaired for o in outcomes) / len(outcomes), "ratio"),
        "healloop.report_kib": (sum(o.report_bytes for o in outcomes) / len(outcomes) / 1024, "KiB"),
        "trace.op_ms": (traced_op_s * 1e3, "ms"),
        "trace.unattributed_ms": (self_s.get(spans.OP, 0.0) * 1e3 / n_ops, "ms"),
        "trace.overhead_ratio": (run.traced_busy / run.untraced_busy - 1.0, "ratio"),
    })
    layer_sum = sum(self_s.values())
    if abs(layer_sum - traced_op_s * n_ops) > 1e-6 * max(layer_sum, 1.0):
        run.correct = False
        print("layer self times do not add up to the traced op time", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdnheal" / "__init__.py").is_file():
        print(f"error: the sdnheal package is not under {SRC}", file=sys.stderr)
        return 2
    # one thread for every numerical library, set before numpy is imported
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    import_s = measure_import()
    modules = {name: importlib.import_module(f"sdnheal.{name}") for name in spans.TRACED}

    workload = make_workload(args.workload, args.seed)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        gc.collect()
        run = Run(workload)
        started = time.perf_counter()
        first = run.check_round()
        if not args.trace:
            run.rounds_until(started + args.seconds, first)
            metrics = end_to_end(run, setup_s)
        else:
            tracer = spans.Tracer()
            with spans.Patches() as patches:
                tracer.install(patches, modules)
                last = run.round(tracer)  # at least one traced round
                run.rounds_until(started + args.seconds, last, tracer)
            metrics = per_layer(run, tracer, modules, patches.missing)
            for label in patches.missing:
                print(f"{label} not found; its metrics are absent", file=sys.stderr)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        workload.close()

    inference = run.inference
    print(f"oracle checked {inference.covered} of {inference.marginals} marginals "
          f"in {inference.calls} inference calls", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
