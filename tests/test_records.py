"""Every record of the package is an immutable NamedTuple, and `_replace`
checks and normalizes its fields as the constructor does."""

import importlib
import json
import pkgutil
from functools import cache, cached_property

import pytest

import sdnheal
from sdnheal import alarmpipe, bndiag, healloop, netmodel, simkernel
from sdnheal.bndiag import BnError
from sdnheal.healloop import LoopError
from sdnheal.recover import OutcomeStatus, PlanError
from sdnheal.simkernel import FaultEvent, SimError
from sdnheal.taxonomy import FaultClass

from conftest import DATA_DIR


@cache
def _samples() -> dict:
    """One record of each class, taken from a T1 run of its link failure."""
    t1_doc = json.loads((DATA_DIR / "t1.topology.json").read_text())
    t1 = netmodel.load_topology(t1_doc)
    doc = json.loads((DATA_DIR / "t1-linkfail.scenario.json").read_text())
    scenario = simkernel.load_scenario({**doc, "topology": t1_doc})
    state, raws = simkernel.init_sim(scenario), []
    while not raws:
        state, raws = simkernel.step(state)
    report = healloop.run_loop(scenario)
    record = next(r for r in report.records if r.plan)
    bn = bndiag.build_bn(t1)
    evidence = {"symptom:link-down:l1": True}
    records = [
        t1, t1.nodes[0], t1.links[0], t1.services[0],
        scenario, scenario.noise, scenario.faults[0], state, raws[0],
        alarmpipe.translate_alarm(raws[0]),
        bn, bn.variables[0], next(iter(bn.cpts.values())), bn.compiled.open,
        bndiag.compile_factors(bn, evidence)[0],
        report, record, record.posterior, record.diagnosis, record.plan[0],
        record.outcomes[0], report.params, report.config, report.table,
        report.table.entries[FaultClass.PHYSICAL_FAILURE][0],
    ]
    return {type(r).__name__: r for r in records}


def _record_classes() -> set[str]:
    """The public NamedTuple classes defined in the package's modules."""
    names = set()
    for info in pkgutil.iter_modules(sdnheal.__path__):
        module = importlib.import_module(f"sdnheal.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and hasattr(value, "_fields") and value.__module__ == module.__name__
                    and not name.startswith("_")):
                names.add(name)
    return names


RECORDS = sorted([
    "ActionOutcome", "ActionTemplate", "Alarm", "BayesNet", "BnParams", "BnVariable",
    "Diagnosis", "Factor", "FaultEvent", "IncidentRecord", "Link", "LoopConfig",
    "NetworkNode", "NoiseConfig", "NoisyOrCpt", "Posterior", "RawAlarm", "RecoveryAction",
    "Resting", "RunReport", "Scenario", "Service", "SimState", "StrategyTable", "Topology",
])


def test_every_record_class_is_sampled():
    assert _record_classes() == set(RECORDS) == set(_samples())


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable(name):
    record = _samples()[name]
    cached = [key for key, value in vars(type(record)).items()
              if isinstance(value, cached_property)]
    for key in cached:
        getattr(record, key)  # a cached value, once computed, is fixed too
    for field in (*record._fields, *cached):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("name, changes, error", [
    ("LoopConfig", {"threshold": 1.0}, LoopError),
    ("BnParams", {"p_direct": 1.5}, BnError),
    ("NoiseConfig", {"alarm_loss_probability": 1.5}, SimError),
    ("ActionOutcome", {"status": OutcomeStatus.FAILURE, "detail": ""}, ValueError),
    ("StrategyTable", {"entries": {}}, PlanError),
    ("ActionTemplate", {"scope": "everything"}, PlanError),
])
def test_replace_checks_as_the_constructor_does(name, changes, error):
    record = _samples()[name]
    with pytest.raises(error) as by_constructor:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error) as by_replace:
        record._replace(**changes)
    assert str(by_replace.value) == str(by_constructor.value)


def test_replace_normalizes_as_the_constructor_does():
    samples = _samples()
    link = samples["Link"]
    assert link._replace(endpoints=("z", "a")).endpoints == ("a", "z")

    t1 = samples["Topology"]
    moved = t1.services[0]._replace(id="a0")
    shuffled = t1._replace(
        nodes=t1.nodes[::-1], links=t1.links[::-1], services=(*t1.services, moved)
    )
    assert shuffled.nodes == t1.nodes and shuffled.links == t1.links
    assert shuffled.services == (moved, *t1.services)

    scenario = samples["Scenario"]
    late, early = (FaultEvent("l2", FaultClass.PHYSICAL_FAILURE, 5),
                   FaultEvent("l1", FaultClass.PHYSICAL_FAILURE, 5))
    first = FaultEvent("l3", FaultClass.PHYSICAL_FAILURE, 2)
    assert scenario._replace(faults=(late, early, first)).faults == (first, early, late)


def test_replace_builds_a_record_that_caches_afresh():
    scenario = _samples()["Scenario"]
    vocabulary = scenario.vocabulary
    copy = scenario._replace()
    assert copy == scenario and vars(copy) == {}
    assert copy.vocabulary == vocabulary
