"""Command-line front end and the only module that reads input files.

Verbs: validate a topology document, build and dump the diagnosis
network, diagnose an offline evidence document, run a scenario through
the closed loop, or batch a directory of scenarios.

Every document goes through one loader that reads the file, decodes the
JSON and hands it to the document's parser. Any defect in the input,
from an unreadable file to a wrongly shaped document, is reported as
`error: ...` with exit status 1; a failure while the verb runs is a
`runtime error: ...` with exit status 2. `main` is the only place that
maps exceptions to exit statuses.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Callable, TypeVar

from . import bndiag, healloop, netmodel, recover, simkernel
from .alarmpipe import EvidencePolicy

T = TypeVar("T")


class _InputError(Exception):
    """An input document or option is invalid (exit status 1)."""


def _load(path: str | Path, what: str, parse: Callable[[object], T]) -> T:
    """Read the JSON document at `path` and parse it with `parse`."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise _InputError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise _InputError(f"malformed {what} {path}: {exc}") from exc
    try:
        return parse(doc)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError) as exc:
        # what a parser raises on a document of the wrong shape
        raise _InputError(
            f"malformed {what} {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _evidence_map(doc) -> dict[str, bool]:
    if not isinstance(doc, dict) or not all(isinstance(v, bool) for v in doc.values()):
        raise bndiag.BnError("evidence document must map symptom ids to booleans")
    return doc


def _scenario_name(path: Path) -> str:
    name = path.name
    for suffix in (".scenario.json", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _load_scenario(path: Path, seed: int | None) -> tuple[str, simkernel.Scenario]:
    def parse(doc) -> simkernel.Scenario:
        ref = doc.get("topology") if isinstance(doc, dict) else None
        if isinstance(ref, str):  # a file reference, relative to the scenario
            topology = _load(path.parent / ref, "topology document", lambda d: d)
            doc = {**doc, "topology": topology}
        return simkernel.load_scenario(doc)

    scenario = _load(path, "scenario", parse)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    return _scenario_name(path), scenario


def _load_params(path: str | None) -> bndiag.BnParams:
    if path is None:
        return bndiag.BnParams()
    return _load(path, "parameter document", bndiag.params_from_dict)


def _loop_settings(
    args: argparse.Namespace,
) -> tuple[bndiag.BnParams, recover.StrategyTable, healloop.LoopConfig]:
    """The parameters, strategy table and loop configuration of `run`/`batch`."""
    params = _load_params(args.params)
    table = (
        _load(args.strategy, "strategy document", recover.strategy_table_from_dict)
        if args.strategy is not None
        else recover.default_strategy_table()
    )
    try:
        config = healloop.LoopConfig(
            **{f.name: getattr(args, f.name) for f in fields(healloop.LoopConfig)}
        )
    except healloop.LoopError as exc:
        raise _InputError(str(exc)) from exc
    return params, table, config


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(rendered: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(rendered)
    else:
        Path(out).write_text(rendered)


def _cmd_validate(args: argparse.Namespace) -> None:
    topology = _load(args.topology, "topology document", netmodel.load_topology)
    print(
        f"valid: {len(topology.nodes)} nodes, {len(topology.links)} links, "
        f"{len(topology.services)} services"
    )


def _cmd_build_bn(args: argparse.Namespace) -> None:
    topology = _load(args.topology, "topology document", netmodel.load_topology)
    bn = bndiag.build_bn(topology, _load_params(args.params))
    _write(_dump(bndiag.bn_to_dict(bn)), args.out)


def _cmd_diagnose(args: argparse.Namespace) -> None:
    bn = _load(args.network, "network document", bndiag.bn_from_dict)
    evidence = _load(args.evidence, "evidence document", _evidence_map)
    posterior = bndiag.posterior_marginals(bn, evidence)
    diagnosis = bndiag.map_diagnosis(posterior, args.threshold, bn.priors)
    doc = {
        "verdict": diagnosis.verdict.value,
        "threshold": diagnosis.threshold,
        "ranked": [[fid, p] for fid, p in diagnosis.ranked],
        "posterior": dict(sorted(posterior.marginals.items())),
    }
    sys.stdout.write(_dump(doc))


def _cmd_run(args: argparse.Namespace) -> None:
    name, scenario = _load_scenario(Path(args.scenario), args.seed)
    params, table, config = _loop_settings(args)
    report = healloop.run_loop(scenario, params, table, config, name)
    _write(healloop.emit_report(report, args.format), args.out)


def _cmd_batch(args: argparse.Namespace) -> None:
    paths = sorted(Path(args.directory).glob("*.scenario.json"))
    if not paths:
        raise _InputError(f"no *.scenario.json files under {args.directory}")
    scenarios = [_load_scenario(path, args.seed) for path in paths]
    params, table, config = _loop_settings(args)
    reports = [
        healloop.run_loop(scenario, params, table, config, name)
        for name, scenario in scenarios
    ]
    _write(_dump(healloop.batch_to_dict(reports)), args.out)


def _add_loop_flags(parser: argparse.ArgumentParser) -> None:
    # Destinations are named after LoopConfig fields and default to them.
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--params", default=None, help="network parameter document")
    parser.add_argument("--strategy", default=None, help="strategy table override document")
    parser.add_argument(
        "--window", dest="evidence_window", metavar="WINDOW", type=int,
        help="evidence window in ticks",
    )
    parser.add_argument("--threshold", type=float, help="diagnosis threshold")
    parser.add_argument("--verify-timeout", type=int, help="recovery verification ticks")
    parser.add_argument(
        "--policy", dest="evidence_policy", type=EvidencePolicy,
        choices=[p.value for p in EvidencePolicy], help="evidence policy",
    )
    parser.add_argument("--max-widenings", type=int)
    parser.add_argument(
        "--suggest-only", action="store_true",
        help="record plans without executing them",
    )
    parser.set_defaults(**asdict(healloop.LoopConfig()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnheal",
        description="Self-healing closed loop over a simulated SDN",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a topology document")
    p.add_argument("topology")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build-bn", help="build and dump the diagnosis network")
    p.add_argument("topology")
    p.add_argument("--params", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_bn)

    p = sub.add_parser("diagnose", help="diagnose an offline evidence document")
    p.add_argument("network", help="network dump produced by build-bn")
    p.add_argument("--evidence", required=True, help="symptom id to boolean map")
    p.add_argument("--threshold", type=float, default=healloop.LoopConfig().threshold)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("run", help="run a scenario through the closed loop")
    p.add_argument("scenario")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", default=None)
    _add_loop_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="run every *.scenario.json in a directory")
    p.add_argument("directory")
    p.add_argument("--out", default=None)
    _add_loop_flags(p)
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a component failing inside a verb
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
