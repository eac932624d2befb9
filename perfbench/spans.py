"""Function patching and span tracing at the package's module attributes.

Every call inside `sdnheal` to another module's function goes through
that module's attribute (`bndiag.posterior_marginals`, `simkernel.step`,
...), and a module's own global names are its attributes too. Replacing
an attribute with a wrapper therefore sees every call, including
`compile_factors` and `min_fill_order` inside `posterior_marginals`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# Functions traced per layer. `taxonomy` is counted inside its callers.
TRACED = {
    "bndiag": ("build_bn", "compile_factors", "min_fill_order",
               "posterior_marginals", "map_diagnosis"),
    "alarmpipe": ("translate_alarm", "collect_window", "to_evidence"),
    "simkernel": ("load_scenario", "init_sim", "step", "observe_service", "apply_action"),
    "netmodel": ("load_topology", "find_path", "set_component_state", "dependency_set"),
    "recover": ("select_strategy", "execute_plan", "verify_recovery"),
    "healloop": ("run_loop", "emit_report"),
    "cli": ("main",),
}

OP = "op"  # name of the root span the benchmark opens around each op


class Patches:
    """Wrap functions at module attributes; `restore` puts the originals back.

    A function the module no longer has is recorded in `missing` and left
    alone, so the caller can report its metrics as absent.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module, name: str, make) -> None:
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
            return
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """In-memory spans: [name, start, end, parent span index, op id].

    Spans are recorded only while an op is open, so work the benchmark
    does between ops (checks, digests) never lands in a layer's time.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def install(self, patches: Patches, modules: dict) -> None:
        for layer, names in TRACED.items():
            for name in names:
                patches.wrap(modules[layer], name,
                             lambda fn, label=f"{layer}.{name}": self.timed(label, fn))

    def timed(self, label: str, fn):
        """A wrapper of fn that records a span for each call inside an op."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1], self._op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def open_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP, time.perf_counter(), 0.0, -1, op_id])

    def close_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = None

    def self_times(self) -> tuple[dict[str, float], dict[str, int], int]:
        """Total self seconds and call count per span name, and the op count.

        A span's self time is its duration minus its direct children's, so
        the self times of one op's spans add up to the op span's duration.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls, calls.get(OP, 0)

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")
