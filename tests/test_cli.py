import ast
import json
import shutil
from pathlib import Path

import pytest

from sdnheal import bndiag, cli, netmodel
from sdnheal.cli import main

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


def _t1_network_doc():
    doc = json.loads((DATA_DIR / "t1.topology.json").read_text())
    return bndiag.bn_to_dict(bndiag.build_bn(netmodel.load_topology(doc)))


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


def test_run_echoes_policy_flag_as_override(workdir):
    out = workdir / "report.json"
    argv = ["run", str(workdir / SCENARIO), "--policy", "open-world",
            "--threshold", "0.5", "--out", str(out)]
    assert main(argv) == 0
    loop = json.loads(out.read_text())["parameters"]["loop"]
    assert loop["evidence-policy"] == {"value": "open-world", "source": "override"}
    assert loop["threshold"] == {"value": 0.5, "source": "default"}


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
