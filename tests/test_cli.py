import ast
import contextlib
import copy
import io
import json
import operator
import os
import shutil
import subprocess
import sys
from functools import partial, reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnheal import bndiag, cli, netmodel, recover, simkernel
from sdnheal.cli import main
from sdnheal.taxonomy import FaultClass

from conftest import DATA_DIR


@pytest.fixture()
def workdir(tmp_path):
    shutil.copy(DATA_DIR / "t1.topology.json", tmp_path / "t1.topology.json")
    shutil.copy(
        DATA_DIR / "t1-linkfail.scenario.json", tmp_path / "t1-linkfail.scenario.json"
    )
    return tmp_path


def test_validate_ok(workdir, capsys):
    assert main(["validate", str(workdir / "t1.topology.json")]) == 0
    out = capsys.readouterr().out
    assert "valid: 6 nodes, 5 links, 1 services" in out


def test_validate_rejects_broken_document(workdir, capsys):
    doc = json.loads((workdir / "t1.topology.json").read_text())
    doc["nodes"].append({"id": "c9", "kind": "controller"})
    bad = workdir / "bad.topology.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "multiple controllers" in capsys.readouterr().err


def test_validate_rejects_a_service_without_a_link(workdir, capsys):
    # its sla-violation would be a symptom no fault raises, and `diagnose`
    # rejects a network dump with a parentless symptom
    doc = json.loads((workdir / "t1.topology.json").read_text())
    doc["services"].append({"id": "v9", "path": ["h1"]})
    bad = workdir / "bad.topology.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "path endpoints are one host: v9/h1" in capsys.readouterr().err


def test_validate_missing_file(workdir):
    assert main(["validate", str(workdir / "nope.json")]) == 1


def test_build_bn_dump_round_trips(workdir):
    out = workdir / "bn.json"
    assert main(
        ["build-bn", str(workdir / "t1.topology.json"), "--out", str(out)]
    ) == 0
    dumped = bndiag.bn_from_dict(json.loads(out.read_text()))
    from sdnheal import netmodel

    built = bndiag.build_bn(
        netmodel.load_topology(json.loads((workdir / "t1.topology.json").read_text()))
    )
    assert dumped == built


def test_diagnose_offline_evidence(workdir, capsys):
    bn_path = workdir / "bn.json"
    main(["build-bn", str(workdir / "t1.topology.json"), "--out", str(bn_path)])
    bn = bndiag.bn_from_dict(json.loads(bn_path.read_text()))
    observed = {
        "symptom:link-down:l1",
        "symptom:traffic-drop:l1",
        "symptom:service-down:v1",
    }
    evidence = {sid: sid in observed for sid in bn.symptom_ids}
    ev_path = workdir / "ev.json"
    ev_path.write_text(json.dumps(evidence))
    assert main(["diagnose", str(bn_path), "--evidence", str(ev_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "confident"
    assert doc["ranked"][0][0] == "fault:physical:l1"


def test_diagnose_bad_evidence_file(workdir):
    bn_path = workdir / "bn.json"
    main(["build-bn", str(workdir / "t1.topology.json"), "--out", str(bn_path)])
    assert main(["diagnose", str(bn_path), "--evidence", str(workdir / "no.json")]) == 1


def test_run_writes_report(workdir):
    out = workdir / "report.json"
    rc = main(
        [
            "run",
            str(workdir / "t1-linkfail.scenario.json"),
            "--seed", "7",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["scenario"]["seed"] == 7
    assert doc["metrics"]["incidents"] == 1
    assert doc["metrics"]["map-accuracy"] == 1.0
    assert doc["records"][0]["recovered"] is True


def test_run_controller_physical_failure_is_repaired(workdir):
    # no service depends on the controller, so the plan is its ticket
    scenario = json.loads((workdir / SCENARIO).read_text())
    scenario["faults"] = [{"target": "c0", "class": "physical-failure", "at-tick": 2}]
    path = workdir / "t1-c0fail.scenario.json"
    path.write_text(json.dumps(scenario))
    out = workdir / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (record,) = doc["records"]
    assert [(a["kind"], a["target"]) for a in record["plan"]] == [
        ("open-repair-ticket", "c0")
    ]
    # c0 stops raising node-unreachable once its repair lands
    last_alarm = max(a["tick"] for a in doc["alarm-log"] if a["emitter"] == "c0")
    assert last_alarm < doc["scenario"]["horizon"]


def host_failure_scenario(workdir) -> Path:
    scenario = json.loads((workdir / "t1-linkfail.scenario.json").read_text())
    scenario["faults"] = [{"target": "h1", "class": "physical-failure", "at-tick": 2}]
    scenario["repair-delay"] = 2
    path = workdir / "t1-hostfail.scenario.json"
    path.write_text(json.dumps(scenario))
    return path


@pytest.mark.parametrize("policy", ["closed-world", "open-world"])
def test_run_survives_host_failure(workdir, policy):
    # by default the network has no variable for node-unreachable(h1); the
    # loop drops that alarm and diagnoses link-down and service-down
    out = workdir / "report.json"
    path = host_failure_scenario(workdir)
    assert main(["run", str(path), "--policy", policy, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metrics"]["incidents"] == 1
    assert "symptom:node-unreachable:h1" not in doc["records"][0]["evidence"]


@pytest.mark.parametrize("policy", ["closed-world", "open-world"])
def test_run_include_hosts_diagnoses_host_failure(workdir, policy):
    params = workdir / "params.json"
    params.write_text(json.dumps({"include-hosts": True}))
    out = workdir / "report.json"
    path = host_failure_scenario(workdir)
    argv = ["run", str(path), "--params", str(params), "--policy", policy]
    assert main([*argv, "--out", str(out)]) == 0
    record = json.loads(out.read_text())["records"][0]
    assert record["evidence"]["symptom:node-unreachable:h1"] is True
    assert record["diagnosis"]["ranked"][0][0] == "fault:physical:h1"
    assert record["recovered"] is True


def test_run_table_format(workdir, capsys):
    assert main(
        ["run", str(workdir / "t1-linkfail.scenario.json"), "--format", "table"]
    ) == 0
    out = capsys.readouterr().out
    assert "incident" in out
    assert "physical-failure(l1)" in out


def test_load_scenario_topology_file_reference(tmp_path, t1_doc):
    (tmp_path / "topo.json").write_text(json.dumps(t1_doc))
    # a relative reference resolves against the scenario's directory
    for ref in ("topo.json", str(tmp_path / "topo.json")):
        doc = {"schema-version": 1, "topology": ref, "seed": 1, "horizon": 5}
        (tmp_path / "x.scenario.json").write_text(json.dumps(doc))
        name, scenario = cli._load_scenario(tmp_path / "x.scenario.json", None)
        assert name == "x"
        assert len(scenario.topology.nodes) == 6


def test_run_missing_scenario(workdir, capsys):
    assert main(["run", str(workdir / "missing.scenario.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_malformed_scenario_names_violation(workdir, capsys):
    bad = workdir / "bad.scenario.json"
    bad.write_text(
        json.dumps(
            {
                "schema-version": 1,
                "topology": "t1.topology.json",
                "faults": [
                    {"target": "l1", "class": "physical-failure", "at-tick": 99}
                ],
                "horizon": 10,
            }
        )
    )
    assert main(["run", str(bad)]) == 1
    assert "outside" in capsys.readouterr().err


def test_run_seed_override_changes_report_seed(workdir):
    out_a = workdir / "a.json"
    out_b = workdir / "b.json"
    main(["run", str(workdir / "t1-linkfail.scenario.json"), "--out", str(out_a)])
    main(
        [
            "run",
            str(workdir / "t1-linkfail.scenario.json"),
            "--seed", "123",
            "--out", str(out_b),
        ]
    )
    assert json.loads(out_a.read_text())["scenario"]["seed"] == 7
    assert json.loads(out_b.read_text())["scenario"]["seed"] == 123


def test_run_suggest_only_flag(workdir):
    out = workdir / "suggest.json"
    assert main(
        [
            "run",
            str(workdir / "t1-linkfail.scenario.json"),
            "--suggest-only",
            "--out", str(out),
        ]
    ) == 0
    record = json.loads(out.read_text())["records"][0]
    assert record["executed"] is False
    assert record["plan"]
    assert record["outcomes"] == []


def test_batch_aggregates_runs(workdir, capsys):
    second = {
        "schema-version": 1,
        "topology": "t1.topology.json",
        "faults": [{"target": "v1", "class": "service-fault", "at-tick": 1}],
        "seed": 3,
        "horizon": 8,
    }
    (workdir / "svcfail.scenario.json").write_text(json.dumps(second))
    out = workdir / "batch.json"
    assert main(["batch", str(workdir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate"]["reports"] == 2
    assert doc["aggregate"]["pooled"]["incidents"] == 2
    assert doc["aggregate"]["pooled"]["map-accuracy"] == 1.0
    assert {run["name"] for run in doc["runs"]} == {"t1-linkfail", "svcfail"}
    assert set(doc["aggregate"]["per-fault-class"]) == {
        "physical-failure",
        "service-fault",
    }


def test_batch_empty_directory(tmp_path):
    assert main(["batch", str(tmp_path)]) == 1


def _scenario_doc(**changes):
    doc = json.loads((DATA_DIR / "t1-linkfail.scenario.json").read_text())
    doc.update(changes)
    return doc


def _topology_doc_without_node_id():
    doc = json.loads((DATA_DIR / "t1.topology.json").read_text())
    del doc["nodes"][0]["id"]
    return doc


def _t1_doc_with(category, cid, key, value):
    doc = json.loads((DATA_DIR / "t1.topology.json").read_text())
    (entry,) = (e for e in doc[category] if e["id"] == cid)
    entry[key] = value
    return doc


def _t1_network_doc():
    doc = json.loads((DATA_DIR / "t1.topology.json").read_text())
    return bndiag.bn_to_dict(bndiag.build_bn(netmodel.load_topology(doc)))


def _two_fault_doc(cpt=None, variables=None, extra_cpt=False):
    """Faults A and B behind one symptom Y, with the CPT's entries changed,
    the variables at the given positions repeated, or a second CPT for Y."""
    doc = {
        "schema-version": 1,
        "variables": [
            {"id": "fault:service:A", "kind": "fault", "target": "A",
             "fault-class": "service-fault"},
            {"id": "fault:service:B", "kind": "fault", "target": "B",
             "fault-class": "service-fault"},
            {"id": "symptom:service-down:Y", "kind": "symptom", "target": "Y",
             "symptom": "service-down"},
        ],
        "priors": {"fault:service:A": 0.01, "fault:service:B": 0.01},
        "cpts": [{
            "child": "symptom:service-down:Y",
            "parents": ["fault:service:A", "fault:service:B"],
            "link-probabilities": [0.9, 0.9],
            "leak": 0.001,
        }],
    }
    doc["cpts"][0].update(cpt or {})
    doc["variables"] += [doc["variables"][i] for i in variables or ()]
    if extra_cpt:
        doc["cpts"].append(dict(doc["cpts"][0], **{"link-probabilities": [0.5, 0.5]}))
    return doc


def _edited(doc, edit):
    edit(doc)
    return doc


def _diagnose_case(network_doc, *flags):
    documents = {"bn.json": network_doc, "e.json": {"symptom:service-down:Y": True}}
    return documents, ["diagnose", "bn.json", "--evidence", "e.json", *flags]


def _t1_network_case(edit):
    """A `build-bn` dump of T1 with `edit` applied, diagnosed on a link-down
    of l1."""
    documents = {
        "bn.json": _edited(_t1_network_doc(), edit),
        "e.json": {"symptom:link-down:l1": True},
    }
    return documents, ["diagnose", "bn.json", "--evidence", "e.json"]


def _t1_variable_case(vid, edit):
    """`_t1_network_case` with one variable's entry edited."""
    def apply(doc):
        (entry,) = (v for v in doc["variables"] if v["id"] == vid)
        edit(entry)

    return _t1_network_case(apply)


SCENARIO = "t1-linkfail.scenario.json"
NO_TARGET = _scenario_doc(faults=[{"class": "physical-failure", "at-tick": 2}])


@pytest.mark.parametrize(
    "documents, argv",
    [
        ({"p.json": {"priors": 3}}, ["run", SCENARIO, "--params", "p.json"]),
        ({"p.json": [1, 2]}, ["run", SCENARIO, "--params", "p.json"]),
        (
            {"s.json": {"physical-failure": [{"scope": "target"}]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        (
            {"s.json": {"physical-failure": [{"kind": "reroute", "scope": "targte"}]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        ({"x.scenario.json": NO_TARGET}, ["run", "x.scenario.json"]),
        ({"x.scenario.json": NO_TARGET}, ["batch", "."]),
        (
            {"x.scenario.json": _scenario_doc(topology="topodir")},
            ["run", "x.scenario.json"],
        ),
        ({"bn.json": {"variables": []}}, ["diagnose", "bn.json", "--evidence", "bn.json"]),
        # booleans must be JSON booleans: bool("false") is True
        (
            {
                "bn.json": _t1_network_doc(),
                "e.json": {"symptom:link-down:l1": "false", "symptom:service-down:v1": "false"},
            },
            ["diagnose", "bn.json", "--evidence", "e.json"],
        ),
        ({"p.json": {"include-hosts": "false"}}, ["run", SCENARIO, "--params", "p.json"]),
        (
            {"p.json": {"include-hosts": 0}},
            ["build-bn", "t1.topology.json", "--params", "p.json"],
        ),
        ({"t.json": _topology_doc_without_node_id()}, ["validate", "t.json"]),
        ({"t.json": "{not json"}, ["validate", "t.json"]),
        ({"x.scenario.json": "{not json"}, ["run", "x.scenario.json"]),
        (
            {
                "x.scenario.json": _scenario_doc(topology="bad.topology.json"),
                "bad.topology.json": "{not json",
            },
            ["run", "x.scenario.json"],
        ),
        (
            {"x.scenario.json": _scenario_doc(topology="missing.topology.json")},
            ["run", "x.scenario.json"],
        ),
        # nothing reads a component's state, so only "up" is accepted
        ({"t.json": _t1_doc_with("nodes", "s3", "state", "down")}, ["validate", "t.json"]),
        ({"t.json": _t1_doc_with("links", "l1", "state", "down")}, ["validate", "t.json"]),
        (
            {"t.json": _t1_doc_with("services", "v1", "state", "degraded")},
            ["validate", "t.json"],
        ),
        # networks whose posteriors would be wrong: zip would drop fault B,
        # probabilities outside [0,1] give posteriors outside it, and a
        # repeated id lists a fault twice
        _diagnose_case(_two_fault_doc(cpt={"link-probabilities": [0.9]})),
        _diagnose_case(_two_fault_doc(cpt={"link-probabilities": [1.7, -0.2]})),
        _diagnose_case(_two_fault_doc(cpt={"leak": 2.0})),
        _diagnose_case(_two_fault_doc(variables=[0])),
        _diagnose_case(_two_fault_doc(cpt={"parents": ["fault:service:A"] * 2})),
        _diagnose_case(_two_fault_doc(extra_cpt=True)),
        # the parent cap guarded table-based inference, which is gone, and
        # the indirect edges were symptoms the simulator never raises
        ({"p.json": {"max-parents": 10}}, ["run", SCENARIO, "--params", "p.json"]),
        ({"p.json": {"p-indirect": 0.8}}, ["run", SCENARIO, "--params", "p.json"]),
        # a template names only its kind and scope: the target, the reroute's
        # avoid list and the ticket's delay come from the diagnosis and the
        # scenario
        (
            {"s.json": {"physical-failure": [{"kind": "load-balance-ap"}]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        (
            {"s.json": {"interface-traffic-drop": [
                {"kind": "reroute", "scope": "dependent-services", "avoid": ["l2"]},
                {"kind": "open-repair-ticket"},
            ]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        (
            {"s.json": {"physical-failure": [
                {"kind": "reroute", "scope": "dependent-services"},
                {"kind": "open-repair-ticket", "repair-delay": 0},
            ]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        # an entry whose plan cannot run: a kind that cannot act on what its
        # scope yields, or a fallback that is not on the diagnosed component
        (
            {"s.json": {"physical-failure": [{"kind": "reroute"}]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        (
            {"s.json": {"physical-failure": [{"kind": "restart-service"}]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        (
            {"s.json": {"physical-failure": [
                {"kind": "reroute", "scope": "dependent-services"},
                {"kind": "open-repair-ticket", "scope": "dependent-services"},
            ]}},
            ["run", SCENARIO, "--strategy", "s.json"],
        ),
        # an option value out of range is an input error on every verb
        _diagnose_case(_two_fault_doc(), "--threshold", "1.5"),
        _diagnose_case(_two_fault_doc(), "--threshold", "0"),
        ({}, ["run", SCENARIO, "--threshold", "1.5"]),
        # evidence on a symptom the network lacks
        (
            {"bn.json": _two_fault_doc(), "e.json": {"symptom:link-down:nope": True}},
            ["diagnose", "bn.json", "--evidence", "e.json"],
        ),
        # a link's management flag is a JSON boolean: bool("false") is True
        *(
            ({"t.json": _t1_doc_with("links", "l1", "management", value)},
             ["validate", "t.json"])
            for value in ("false", 0)
        ),
        # numbers are JSON numbers, and tick counts and seeds integers:
        # int() would truncate 2.7 and read true and "2", float() read "0.3"
        *(
            ({"x.scenario.json": _scenario_doc(faults=[
                {"target": "l1", "class": "physical-failure", "at-tick": tick}
            ])}, ["run", "x.scenario.json"])
            for tick in (2.7, True, "2")
        ),
        *(
            ({"x.scenario.json": _scenario_doc(**{key: value})}, ["run", "x.scenario.json"])
            for key, value in (
                ("seed", "7"), ("seed", 7.5), ("horizon", "10"), ("horizon", 10.0),
                ("repair-delay", "2"), ("repair-delay", True),
            )
        ),
        *(
            ({"x.scenario.json": _scenario_doc(noise={
                "mode": "stochastic", "alarm-loss-probability": 0.0,
                "spurious-alarm-rate": 0.0, key: value,
            })}, ["run", "x.scenario.json"])
            for key, value in (
                ("alarm-loss-probability", "0.3"), ("spurious-alarm-rate", True),
            )
        ),
        *(
            ({"p.json": doc}, ["run", SCENARIO, "--params", "p.json"])
            for doc in (
                {"leak": True}, {"p-direct": "0.9"}, {"p-direct": False},
                {"priors": {"physical-failure": "0.01"}},
            )
        ),
        # numbers are finite: NaN passes every range check, and an integer
        # too large for a float overflows when converted
        *(
            ({"x.scenario.json": _scenario_doc(noise={
                "mode": "stochastic", "alarm-loss-probability": 0.0,
                "spurious-alarm-rate": 0.0, key: value,
            })}, ["run", "x.scenario.json"])
            for key in ("spurious-alarm-rate", "alarm-loss-probability")
            for value in (float("nan"), float("inf"), float("-inf"), 10**400)
        ),
        *(
            ({"p.json": doc}, ["run", SCENARIO, "--params", "p.json"])
            for value in (float("nan"), float("inf"), float("-inf"), 10**400)
            for doc in ({"leak": value}, {"priors": {"physical-failure": value}})
        ),
        # a network document's numbers are read as every document's are
        *(
            _diagnose_case(_two_fault_doc(cpt={"leak": value}))
            for value in (10**400, float("nan"), float("inf"), float("-inf"), "0.001", True)
        ),
        _diagnose_case(_two_fault_doc(cpt={"link-probabilities": [0.9, "0.9"]})),
        _diagnose_case(_two_fault_doc(cpt={"link-probabilities": True})),
        # an unknown key is an error in every document but a topology
        *(
            ({"x.scenario.json": doc}, ["run", "x.scenario.json"])
            for doc in (
                _scenario_doc(horizn=3),
                _scenario_doc(faults=[
                    {"target": "l1", "class": "physical-failure", "at-tick": 2, "until": 5}
                ]),
                _scenario_doc(noise={"mode": "deterministic", "loss": 0.1}),
            )
        ),
        _diagnose_case(dict(_two_fault_doc(), comment="two faults")),
        _diagnose_case(_edited(_two_fault_doc(), lambda d: d["variables"][0].update(note=1))),
        _diagnose_case(_two_fault_doc(cpt={"note": 1})),
        _diagnose_case(_edited(_two_fault_doc(), lambda d: d["priors"].update(C=0.5))),
        # ids are JSON strings and lists JSON arrays: str() and tuple()
        # would read 7 as "7" and "ab" as the endpoints a and b
        ({"t.json": _t1_doc_with("nodes", "c0", "id", 7)}, ["validate", "t.json"]),
        ({"t.json": _t1_doc_with("links", "l1", "endpoints", "ab")}, ["validate", "t.json"]),
        ({"x.scenario.json": _scenario_doc(faults=["l1"])}, ["run", "x.scenario.json"]),
        # a run steps every tick up to its horizon
        (
            {"x.scenario.json": _scenario_doc(horizon=simkernel.MAX_HORIZON + 1)},
            ["run", "x.scenario.json"],
        ),
        # inference reads only a variable's id, so its fields must name that id
        _t1_variable_case("fault:physical:l1", lambda v: v.pop("fault-class")),
        _t1_variable_case(
            "fault:physical:l1",
            lambda v: v.update({"target": "zz", "fault-class": "controller-crash"}),
        ),
        _t1_variable_case(
            "symptom:link-down:l1", lambda v: v.update(symptom="service-down", target="qq")
        ),
        _t1_variable_case(
            "symptom:link-down:l1", lambda v: v.update({"fault-class": "physical-failure"})
        ),
        # inference reads a CPT only for a symptom variable of the network
        *(_t1_network_case(lambda doc: doc["cpts"].append(
            {"child": child, "parents": ["fault:physical:l1"],
             "link-probabilities": [0.9], "leak": 0.001}
        )) for child in ("symptom:link-down:zz", "fault:physical:l2")),
        # a management link never carries a data path
        ({"t.json": _t1_doc_with("links", "l1", "management", True)}, ["validate", "t.json"]),
    ],
)
def test_malformed_documents_exit_1(workdir, capsys, monkeypatch, documents, argv):
    """An unreadable or wrongly shaped document is a validation error, not a crash."""
    (workdir / "topodir").mkdir()
    for name, doc in documents.items():
        # a string is written verbatim, so a case can hold malformed JSON
        (workdir / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    monkeypatch.chdir(workdir)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _paths(doc, path=()):
    """(path, value) of the document and of everything it holds."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, (*path, key))


def _changes(doc) -> list[tuple[tuple, object]]:
    """(path, value) pairs that each make one change the reader rejects: a
    key no loader declares in any object, a bool, a numeric string, NaN,
    ±Infinity or 10**400 for a number, a number or null for a boolean, and
    an integer for a string."""
    changes = []
    for path, value in _paths(doc):
        if isinstance(value, dict):
            changes.append(((*path, "unknown-key"), 1))
        elif isinstance(value, bool):
            changes += [(path, other) for other in (0, 1, "true", None)]
        elif isinstance(value, (int, float)):
            changes += [(path, other) for other in (
                True, False, str(value), float("nan"), float("inf"), float("-inf"), 10**400,
            )]
        elif isinstance(value, str):
            changes.append((path, 7))
    return changes


def _changed(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    reduce(operator.getitem, parents, doc)[last] = value
    return doc


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main([str(arg) for arg in argv])
    return status, err.getvalue()


def _t1_strategy_doc():
    return {
        fc.value: [{"kind": tpl.kind.value, "scope": tpl.scope} for tpl in templates]
        for fc, templates in recover.default_strategy_table().entries.items()
    }


# Per document kind: a valid document, the file it is written to, and the
# command that reads it from a directory holding T1 and `_two_fault_doc`.
_VALID_DOCUMENTS = {
    "scenario": (
        _scenario_doc(noise={"mode": "stochastic", "alarm-loss-probability": 0.05,
                             "spurious-alarm-rate": 0.01}, **{"repair-delay": 2}),
        "x.scenario.json", ["run", "x.scenario.json"],
    ),
    "parameters": (
        {"priors": {fc.value: 0.02 for fc in FaultClass}, "p-direct": 0.9,
         "leak": 0.002, "include-hosts": False},
        "p.json", ["run", SCENARIO, "--params", "p.json"],
    ),
    "strategy": (_t1_strategy_doc(), "s.json", ["run", SCENARIO, "--strategy", "s.json"]),
    "network": (_two_fault_doc(), "bn.json", ["diagnose", "bn.json", "--evidence", "e.json"]),
    "evidence": (
        {"symptom:service-down:Y": True}, "e.json",
        ["diagnose", "bn.json", "--evidence", "e.json"],
    ),
}


@pytest.fixture(scope="module")
def docdir(tmp_path_factory):
    """T1's topology and scenario, and a valid network and evidence document."""
    path = tmp_path_factory.mktemp("documents")
    for name in ("t1.topology.json", SCENARIO):
        shutil.copy(DATA_DIR / name, path / name)
    for doc, name, _ in _VALID_DOCUMENTS.values():
        (path / name).write_text(json.dumps(doc))
    return path


def _run_in(docdir, name, doc, argv) -> tuple[int, str]:
    """Write `doc` to `name` and run `argv` on the directory's files."""
    (docdir / name).write_text(json.dumps(doc))
    return _main([docdir / arg if arg.endswith(".json") else arg for arg in argv])


@pytest.mark.parametrize("kind", sorted(_VALID_DOCUMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_document_rejects_untyped_values_and_unknown_keys(docdir, kind, data):
    """One change to a valid document of any kind but a topology is an input
    error: exit 1 and a message that starts with `error:`."""
    doc, name, argv = _VALID_DOCUMENTS[kind]
    assert _run_in(docdir, name, doc, argv)[0] == 0
    path, value = data.draw(st.sampled_from(_changes(doc)))
    try:
        status, err = _run_in(docdir, name, _changed(doc, path, value), argv)
    finally:  # the network and evidence documents are read together
        (docdir / name).write_text(json.dumps(doc))
    assert status == 1 and err.startswith("error: "), (path, value, err)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_topology_fields_are_typed_but_unknown_keys_load(docdir, data):
    """A topology's typed fields are read as in every other document, while
    a key the model does not hold, at any level, is ignored: the benchmark's
    generated topologies carry a service `kind` and `clients`."""
    doc = json.loads((DATA_DIR / "t1.topology.json").read_text())
    for service in doc["services"]:  # keys the model ignores, so any value loads
        del service["kind"], service["clients"]
    path, value = data.draw(st.sampled_from(_changes(doc)))
    status, err = _run_in(docdir, "t.json", _changed(doc, path, value), ["validate", "t.json"])
    if path[-1] == "unknown-key":
        assert status == 0, (path, err)
    else:
        assert status == 1 and err.startswith("error: "), (path, value, err)


# Any JSON value, up to a few levels deep.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, doc):
    """`doc` after one to three edits, each at any value it holds: replace
    it with any JSON value or with another of the document's own values,
    delete it, or add one of the document's keys (or any key) to an object."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        keys = sorted({key for path, _ in paths for key in path if isinstance(key, str)})
        path, value = draw(st.sampled_from(paths))
        edit = draw(st.sampled_from(["replace", "transplant", "delete", "add"]))
        if edit == "add" and isinstance(value, dict):
            key = draw(st.sampled_from(keys) | st.text(max_size=4)) if keys else ""
            value[key] = draw(_JSON)
            continue
        if edit == "delete" and path:
            del reduce(operator.getitem, path[:-1], doc)[path[-1]]
            continue
        new = draw(st.sampled_from(paths))[1] if edit == "transplant" else draw(_JSON)
        new = copy.deepcopy(new)
        if path:
            reduce(operator.getitem, path[:-1], doc)[path[-1]] = new
        else:
            doc = new
    return doc


# Per document parser: the valid document it is given mutated, the parser,
# and the exceptions it may raise. A scenario holds its topology inline.
_T1_DOC = json.loads((DATA_DIR / "t1.topology.json").read_text())
_T1_NETWORK = bndiag.build_bn(netmodel.load_topology(_T1_DOC))
_PARSERS = {
    "topology": (_T1_DOC, netmodel.load_topology, netmodel.TopologyError),
    "scenario": (
        {**_VALID_DOCUMENTS["scenario"][0], "topology": _T1_DOC},
        simkernel.load_scenario, (simkernel.SimError, netmodel.TopologyError),
    ),
    "network": (
        json.loads(json.dumps(bndiag.bn_to_dict(_T1_NETWORK))),
        bndiag.bn_from_dict, bndiag.BnError,
    ),
    "strategy": (_t1_strategy_doc(), recover.strategy_table_from_dict, recover.PlanError),
    "parameters": (_VALID_DOCUMENTS["parameters"][0], bndiag.params_from_dict, bndiag.BnError),
    "evidence": (
        {"symptom:link-down:l1": True, "symptom:service-down:v1": False},
        partial(cli._evidence_map, _T1_NETWORK), cli._InputError,
    ),
}


@pytest.mark.parametrize("kind", sorted(_PARSERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_parser_raises_only_its_own_error(kind, data):
    """Whatever shape a document takes, its parser returns or raises its
    own error, which `cli` reports as an input error; never a KeyError,
    TypeError or AttributeError from reading a wrongly shaped value."""
    doc, parse, error = _PARSERS[kind]
    parse(copy.deepcopy(doc))
    mutated = data.draw(_mutated(doc))
    try:
        parse(mutated)
    except error:
        pass


def test_run_echoes_policy_flag_as_override(workdir):
    out = workdir / "report.json"
    argv = ["run", str(workdir / SCENARIO), "--policy", "open-world",
            "--threshold", "0.5", "--out", str(out)]
    assert main(argv) == 0
    loop = json.loads(out.read_text())["parameters"]["loop"]
    assert loop["evidence-policy"] == {"value": "open-world", "source": "override"}
    assert loop["threshold"] == {"value": 0.5, "source": "default"}


def test_run_echoes_the_threshold_once_as_a_loop_setting(workdir):
    # diagnosis reads only the loop's threshold, so the network echoes none
    out = workdir / "report.json"
    argv = ["run", str(workdir / SCENARIO), "--threshold", "0.9", "--out", str(out)]
    assert main(argv) == 0
    parameters = json.loads(out.read_text())["parameters"]
    assert parameters["loop"]["threshold"] == {"value": 0.9, "source": "override"}
    assert "threshold" not in parameters["bn"]


def test_deterministic_noise_with_a_loss_exits_1(workdir, capsys):
    # the simulator reads only the two rates; a document's mode must agree
    path = workdir / "x.scenario.json"
    noise = {"mode": "deterministic", "alarm-loss-probability": 0.1}
    path.write_text(json.dumps(_scenario_doc(noise=noise)))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: deterministic mode forces loss and spurious rates to 0\n"


def test_run_flags_do_not_carry_over_to_the_next_call(workdir):
    """The parser is kept between calls; a call's flags must not leak."""
    first, second = workdir / "first.json", workdir / "second.json"
    scenario = str(workdir / SCENARIO)
    argv = ["run", scenario, "--suggest-only", "--window", "2", "--out", str(first)]
    assert main(argv) == 0
    assert main(["run", scenario, "--out", str(second)]) == 0
    loops = [json.loads(out.read_text())["parameters"]["loop"] for out in (first, second)]
    assert loops[0]["suggest-only"]["source"] == "override"
    assert loops[0]["evidence-window"] == {"value": 2, "source": "override"}
    assert loops[1]["suggest-only"]["source"] == "default"
    assert loops[1]["evidence-window"]["source"] == "default"


def _reads_input(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in ("open", "read_text", "read_bytes"):
        return True
    return (
        func.attr in ("load", "loads")
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    )


def test_only_cli_reads_and_decodes_documents():
    package = Path(cli.__file__).parent
    readers = [
        f"{module.name}:{node.lineno}"
        for module in sorted(package.glob("*.py"))
        if module.name != "cli.py"
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Call) and _reads_input(node)
    ]
    assert readers == []


# A fresh interpreter with the package on its path: argv[1] is the data
# directory and argv[2] a scratch directory.
_FRESH_ENV = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

_CLI_WITHOUT_NUMPY = """
import json, sys
from pathlib import Path
import sdnheal.cli, sdnheal.healloop
if "numpy" in sys.modules:
    sys.exit("numpy imported with the package")
data, work = Path(sys.argv[1]), Path(sys.argv[2])
topology, network, evidence = data / "t1.topology.json", work / "bn.json", work / "e.json"
evidence.write_text(json.dumps({"symptom:link-down:l1": True}))
runs = [
    ["validate", topology],
    ["build-bn", topology, "--out", network],
    ["diagnose", network, "--evidence", evidence],
    *(["run", scenario, "--policy", policy, "--out", work / "report.json"]
      for scenario in sorted(data.glob("*.scenario.json"))
      for policy in ("closed-world", "open-world")),
    ["batch", data, "--out", work / "batch.json"],
]
for argv in runs:
    argv = [str(arg) for arg in argv]
    if sdnheal.cli.main(argv) != 0 or "numpy" in sys.modules:
        sys.exit(f"{argv} failed or imported numpy")
"""


def _fresh(script: str, tmp_path) -> subprocess.CompletedProcess:
    env = {**os.environ, **_FRESH_ENV}
    done = subprocess.run([sys.executable, "-c", script, str(DATA_DIR), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def test_the_command_line_runs_without_numpy(tmp_path):
    """Importing the command line and the loop, and every verb on the T1
    fixtures, leave numpy unimported: none of them meets a component of
    more than four shared faults."""
    _fresh(_CLI_WITHOUT_NUMPY, tmp_path)


# `_CLI_WITHOUT_NUMPY` with a check after the imports and after every verb
_CLI_WITHOUT_DATACLASSES = """
import sys
import sdnheal.cli, sdnheal.healloop

def check(when):
    found = [name for name in ("dataclasses", "inspect") if name in sys.modules]
    if found:
        sys.exit(f"{found} imported {when}")

check("with the package")
main = sdnheal.cli.main

def checked_main(argv):
    status = main(argv)
    check(f"by {argv}")
    return status

sdnheal.cli.main = checked_main
""" + _CLI_WITHOUT_NUMPY


def test_the_command_line_runs_without_dataclasses(tmp_path):
    """Every record is a NamedTuple: importing the command line and the
    loop, and every verb on the T1 fixtures, leave `dataclasses` and the
    `inspect` it pulls in unimported."""
    _fresh(_CLI_WITHOUT_DATACLASSES, tmp_path)


def test_a_wide_component_imports_numpy_and_gives_its_pairs(tmp_path):
    """T1's service-down finding and the link-down findings of its three
    links share five faults: above MAX_FLOAT_SHARED_FAULTS, so the call
    imports numpy, and `diagnose` prints the marginals that conditioning in
    numpy arrays gives."""
    evidence = {
        "symptom:service-down:v1": True,
        **{f"symptom:link-down:{link}": True for link in ("la", "l1", "lb")},
    }
    script = """
import json, sys
from pathlib import Path
import sdnheal.cli
work = Path(sys.argv[2])
argv = ["build-bn", str(Path(sys.argv[1]) / "t1.topology.json"), "--out", str(work / "bn.json")]
if sdnheal.cli.main(argv) != 0 or "numpy" in sys.modules:
    sys.exit("build-bn failed or imported numpy")
(work / "e.json").write_text(json.dumps(%r))
argv = ["diagnose", str(work / "bn.json"), "--evidence", str(work / "e.json")]
if sdnheal.cli.main(argv) != 0 or "numpy" not in sys.modules:
    sys.exit("diagnose failed or left numpy unimported")
""" % evidence
    printed = json.loads(_fresh(script, tmp_path).stdout)["posterior"]
    topology = json.loads((DATA_DIR / "t1.topology.json").read_text())
    bn = bndiag.build_bn(netmodel.load_topology(topology))
    with mock.patch.object(bndiag, "MAX_FLOAT_SHARED_FAULTS", 0):
        by_numpy = bndiag.posterior_marginals(bn, evidence).marginals
    assert printed == dict(sorted(by_numpy.items()))
