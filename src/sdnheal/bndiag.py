"""Root-cause diagnosis over a topology-derived noisy-OR Bayesian network.

The network is bipartite: binary fault variables (component failures,
agent crashes, service faults, controller crash, interface traffic drops)
point at binary symptom variables (the alarm vocabulary). Each symptom
has a leaky noisy-OR conditional distribution: every active parent
independently fails to trigger it with probability 1 - p_edge, and a leak
lets it fire spontaneously.

The edges are the propagation table `taxonomy.effects`, the alarms the
simulator raises for each fault, every one at p-direct: the network and
the simulator read one model. The variables (`BnVariable`) and CPTs
(`NoisyOrCpt`) are named tuples: a network is built afresh for every
topology, and a 50-node one has about 700 of them. A variable therefore
compares equal to a plain tuple of its fields.

Inference is exact and never builds a conditional table. Given the
evidence, unobserved symptoms are barren and drop out, and each negative
finding folds into unary pairs on its parents. A fault that only one
positive finding blames is private to it, and a finding whose parents
are all private is a noisy-OR star with a closed-form posterior. The
faults that several positive findings blame link those findings into
components, and each component is summed over the assignments of its
shared faults, each assignment leaving independent stars (cutset
conditioning, Pearl 1988). The cost grows with the positive findings and
2^|shared faults|, not with topology size or fan-in. A component of more
than MAX_SHARED_FAULTS shared faults falls back to min-fill variable
elimination over one auxiliary variable per positive finding (the
two-term noisy-OR factorization of Diez & Galan 2003).

What no evidence changes is compiled once per network, on first use
(`BayesNet.compiled`): each symptom's parents and q values, and for each
fault its "resting" posterior, the one it has when no observed finding
touches it: its prior under open-world evidence, and under closed-world
evidence its prior folded with every child's q (all of them negative).
A call then works only on the positive findings and the faults they
touch (any observed finding, under partial evidence) and copies the
resting pairs of the rest, as Quickscore (Heckerman 1989) and Jaakkola
& Jordan (1999) pay only for positive findings. Two oracles that share
no code with it check it: brute-force joint enumeration (`enumerate_joint`,
up to 20 variables) and, in the tests, Quickscore (up to 16 positive
findings).

numpy is imported only on first use: to condition a component of more
than MAX_FLOAT_SHARED_FAULTS (4) shared faults, to build the elimination
path's factors (`compile_factors`), and by `enumerate_joint`. Narrower
components are summed in Python floats with the operations numpy would
run, in numpy's order, so their posteriors are bit-identical to numpy's.
Each command-line run is one process, and importing numpy (about 100 ms)
costs far more than a whole T1 run (1 to 2 ms); no run of the benchmark's
T1 scenarios meets a component wider than four shared faults. From five
on, numpy's arrays are faster.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cached_property, reduce
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, NamedTuple

from .docread import Reader
from .netmodel import Topology
from .records import Frozen
from .taxonomy import FaultClass, Symptom, effects, fault_targets, symptom_vocabulary

if TYPE_CHECKING:
    import numpy as np

EvidenceMap = dict[str, bool]


class BnError(ValueError):
    """Construction or inference request cannot be satisfied."""


class ImpossibleEvidenceError(BnError):
    """The observed evidence has probability zero under the network."""


# ---------------------------------------------------------------------------
# Variable naming


_FAULT_TAG = {
    FaultClass.PHYSICAL_FAILURE: "physical",
    FaultClass.OPENFLOW_AGENT_CRASH: "agent",
    FaultClass.SERVICE_FAULT: "service",
    FaultClass.CONTROLLER_CRASH: "controller",
    FaultClass.INTERFACE_TRAFFIC_DROP: "drop",
}
_TAG_FAULT = {tag: fc for fc, tag in _FAULT_TAG.items()}


def fault_var_id(fault_class: FaultClass, target: str) -> str:
    return f"fault:{_FAULT_TAG[fault_class]}:{target}"


_SYMPTOM_ID = {symptom: f"symptom:{symptom.value}:" for symptom in Symptom}


def symptom_var_id(symptom: Symptom, emitter: str) -> str:
    return _SYMPTOM_ID[symptom] + emitter


def parse_fault_var(var_id: str) -> tuple[FaultClass, str]:
    kind, tag, target = var_id.split(":", 2)
    if kind != "fault" or tag not in _TAG_FAULT:
        raise BnError(f"not a fault variable id: {var_id}")
    return _TAG_FAULT[tag], target


# ---------------------------------------------------------------------------
# Types


class BnVariable(NamedTuple):
    id: str
    kind: str  # "fault" or "symptom"
    target: str
    fault_class: FaultClass | None = None
    symptom: Symptom | None = None


class NoisyOrCpt(NamedTuple):
    child: str
    parents: tuple[str, ...]
    link_probabilities: tuple[float, ...]
    leak: float


# `_new(BnVariable, fields)` takes every field, in order, and skips the
# argument binding of the generated `__new__`: about 0.2 us a tuple against
# 0.45, for the ~700 tuples of a 50-node network.
_new = tuple.__new__


class _BayesNet(NamedTuple):
    variables: tuple[BnVariable, ...]
    priors: dict[str, float]
    cpts: dict[str, NoisyOrCpt]


class BayesNet(Frozen, _BayesNet):
    @cached_property
    def fault_ids(self) -> tuple[str, ...]:
        return tuple([v.id for v in self.variables if v.kind == "fault"])

    @cached_property
    def symptom_ids(self) -> tuple[str, ...]:
        return tuple([v.id for v in self.variables if v.kind == "symptom"])

    @cached_property
    def compiled(self) -> CompiledNet:
        """Built on the first use and kept with this network object only."""
        return CompiledNet(self)


# fault class name -> its prior's BnParams field
_PRIOR_FIELDS = {fc.value: f"prior_{tag}" for fc, tag in _FAULT_TAG.items()}


class _BnParams(NamedTuple):
    prior_physical: float = 0.01
    prior_agent: float = 0.02
    prior_service: float = 0.02
    prior_controller: float = 0.005
    prior_drop: float = 0.02
    p_direct: float = 0.95
    leak: float = 0.001
    include_hosts: bool = False


class BnParams(Frozen, _BnParams):
    """Network parameters. All values are artifact defaults, not measured."""

    __slots__ = ()
    threshold = 0.5  # read by diagnose-desk only; ROADMAP item 8 removes it

    def __new__(cls, *args, **kwargs) -> BnParams:
        params = super().__new__(cls, *args, **kwargs)
        for name in _PRIOR_FIELDS.values():
            value = getattr(params, name)
            if not 0.0 < value < 1.0:
                raise BnError(f"{name.replace('_', '-')} must be in (0,1): {value}")
        for name in ("p_direct", "leak"):
            value = getattr(params, name)
            if not 0.0 <= value <= 1.0:
                raise BnError(f"{name.replace('_', '-')} out of [0,1]: {value}")
        return params


_NUMBER_KEYS = ("p-direct", "leak")
# the keys of a parameter document; a threshold is rejected with its own error
_PARAM_KEYS = frozenset({*_NUMBER_KEYS, "priors", "include-hosts", "threshold"})
_read = Reader(BnError)


def params_from_dict(doc: dict) -> BnParams:
    """Apply a parameter override document on top of the defaults."""
    doc = _read.object(doc, "parameter", _PARAM_KEYS)
    if "threshold" in doc:
        raise BnError(
            "threshold is not a network parameter; the loop's diagnosis "
            "threshold is set with --threshold"
        )
    kwargs = {
        key.replace("-", "_"): _read.number(doc[key], key)
        for key in _NUMBER_KEYS if key in doc
    }
    if "include-hosts" in doc:
        kwargs["include_hosts"] = _read.boolean(doc["include-hosts"], "include-hosts")
    priors = _read.object(doc.get("priors", {}), "priors", _PRIOR_FIELDS.keys())
    for name, p in priors.items():
        kwargs[_PRIOR_FIELDS[name]] = _read.number(p, f"prior of {name}")
    return BnParams(**kwargs)


# ---------------------------------------------------------------------------
# Construction


def build_bn(t: Topology, params: BnParams = BnParams()) -> BayesNet:
    """Derive the diagnosis network from a topology and its services.

    Fault variables: one per fault class and target the class can strike
    (`taxonomy.fault_targets`); hosts are outside the repair domain unless
    include_hosts is set. Symptom variables mirror the monitored alarm
    vocabulary. Each fault's edges are the alarms it raises in the
    propagation table (`taxonomy.effects`), every one at p_direct.
    Construction is deterministic.
    """
    faults = [  # (class, prior), in network order
        (FaultClass.PHYSICAL_FAILURE, params.prior_physical),
        (FaultClass.INTERFACE_TRAFFIC_DROP, params.prior_drop),
        (FaultClass.OPENFLOW_AGENT_CRASH, params.prior_agent),
        (FaultClass.CONTROLLER_CRASH, params.prior_controller),
        (FaultClass.SERVICE_FAULT, params.prior_service),
    ]

    priors: dict[str, float] = {}
    variables: list[BnVariable] = []
    for fc, prior in faults:
        prefix = fault_var_id(fc, "")
        for target in fault_targets(t, fc, params.include_hosts):
            vid = prefix + target
            priors[vid] = prior
            variables.append(_new(BnVariable, (vid, "fault", target, fc, None)))
    variables.sort()

    # Faults are walked in id order and no fault repeats an effect, so each
    # symptom's parents come out in id order.
    vocabulary = symptom_vocabulary(t, include_hosts=params.include_hosts)
    parents: dict[tuple[Symptom, str], list[str]] = {key: [] for key in vocabulary}
    for vid, _, target, fc, _ in variables:
        for key in effects(t, fc, target):
            parents[key].append(vid)

    symptoms: list[BnVariable] = []
    cpts: dict[str, NoisyOrCpt] = {}
    for key, ids in parents.items():  # in vocabulary order
        symptom, emitter = key
        sid = symptom_var_id(symptom, emitter)
        symptoms.append(_new(BnVariable, (sid, "symptom", emitter, None, symptom)))
        strengths = (params.p_direct,) * len(ids)
        cpts[sid] = _new(NoisyOrCpt, (sid, tuple(ids), strengths, params.leak))
    symptoms.sort()
    return BayesNet(variables=(*variables, *symptoms), priors=priors, cpts=cpts)


# ---------------------------------------------------------------------------
# Factors and exact inference


class Factor(NamedTuple):
    """Table over binary variables; axis i indexes scope[i], 0=false 1=true.

    Entries may be negative: a positive finding's factors are signed.
    """

    scope: tuple[str, ...]
    table: np.ndarray

    # by identity: tuple equality would compare the tables element-wise
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def aux_var_id(symptom_id: str) -> str:
    """The auxiliary variable that factors a positive finding's CPT."""
    return f"aux:{symptom_id}"


class Resting(NamedTuple):
    """Posteriors of the faults that no observed finding touches."""

    # every fault, in id order; None where the pair has no mass
    pairs: dict[str, tuple[float, float] | None]
    # faults with a None pair: evidence that leaves one untouched is impossible
    void: frozenset[str]


def _resting(priors: dict[str, float], on: dict[str, float]) -> Resting:
    pairs: dict[str, tuple[float, float] | None] = {}
    for fid in sorted(on):
        off = 1.0 - priors[fid]
        z = off + on[fid]  # normalized as `_normalized` does, without raising
        pairs[fid] = (off / z, on[fid] / z) if z > 0.0 else None
    return Resting(pairs, frozenset(fid for fid, pair in pairs.items() if pair is None))


class CompiledNet:
    """What inference needs of a network that no evidence changes.

    Built once per network (`BayesNet.compiled`). The per-fault parts are
    built on first use, so a network diagnosed once pays only for what its
    evidence reads: only closed-world evidence needs a fault's children.
    Nothing here raises; a parameter that makes some evidence impossible
    surfaces only in a call with that evidence.
    """

    def __init__(self, bn: BayesNet) -> None:
        self.priors = bn.priors
        self.symptoms = frozenset(bn.symptom_ids)
        self.rank = dict(zip(bn.fault_ids, range(len(bn.fault_ids))))  # network order
        # per symptom: its parents, their q = 1 - p, and 1 - leak
        self.findings: dict[str, tuple[tuple[str, ...], tuple[float, ...], float]] = {}
        certain = []  # symptoms with leak 1: a negative one is impossible
        q_of: dict[tuple[float, ...], tuple[float, ...]] = {}  # most CPTs share their p's
        for sid in bn.symptom_ids:
            _, parents, ps, leak = bn.cpts[sid]
            qs = q_of.get(ps)
            if qs is None:
                qs = q_of[ps] = tuple([1.0 - p for p in ps])
            stay = 1.0 - leak
            self.findings[sid] = (parents, qs, stay)
            if not stay > 0.0:
                certain.append(sid)
        self.certain = tuple(certain)

    @cached_property
    def children(self) -> dict[str, list[float]]:
        """Per fault, in network order: the q of each child, in sorted order."""
        children: dict[str, list[float]] = {fid: [] for fid in self.rank}
        for parents, qs, _ in self.findings.values():
            for parent, q in zip(parents, qs):
                children[parent].append(q)
        for qs in children.values():
            qs.sort()
        return children

    @cached_property
    def open(self) -> Resting:
        """No child observed: every fault at its prior."""
        return _resting(self.priors, {fid: self.priors[fid] for fid in self.rank})

    @cached_property
    def closed(self) -> Resting:
        """Every child a negative finding: the prior times every child's q,
        in sorted order."""
        return _resting(self.priors, {
            fid: math.prod(qs, start=self.priors[fid]) for fid, qs in self.children.items()
        })

    def observes_all(self, evidence: EvidenceMap) -> bool:
        """Whether evidence on symptoms only is closed-world."""
        return len(evidence) == len(self.symptoms)


def _positive_findings(net: CompiledNet, evidence: EvidenceMap) -> list[str]:
    """The positive findings in id order, once the evidence is checked."""
    if not net.symptoms.issuperset(evidence):
        key = next(k for k in evidence if k not in net.symptoms)
        raise BnError(f"evidence key is not a symptom variable: {key}")
    for sid in net.certain:
        if sid in evidence and not evidence[sid]:
            raise ImpossibleEvidenceError("evidence has zero probability under the network")
    return sorted(sid for sid, seen in evidence.items() if seen)


def _touched(net: CompiledNet, evidence: EvidenceMap, positive: list[str]) -> set[str]:
    """Faults that leave their resting pair: parents of the positive findings
    or, under partial evidence, of any observed finding."""
    observed = positive if net.observes_all(evidence) else evidence
    return {parent for sid in observed for parent in net.findings[sid][0]}


def _fold_negatives(
    net: CompiledNet, evidence: EvidenceMap, faults: set[str], positive: list[str]
) -> dict[str, tuple[float, float]]:
    """Per fault of `faults` (`_touched`), in network order: (1 - prior,
    prior times the q of each negative finding on it, in sorted order).
    Under closed-world evidence those are the fault's children less its
    positive ones; any other evidence names its negative findings, and
    `faults` holds their parents."""
    ordered = sorted(faults, key=net.rank.__getitem__)
    if net.observes_all(evidence):
        negatives = {fid: net.children[fid].copy() for fid in ordered}
        for sid in positive:
            parents, qs, _ = net.findings[sid]
            for parent, q in zip(parents, qs):
                negatives[parent].remove(q)  # equal q's are interchangeable
    else:
        negatives = {fid: [] for fid in ordered}
        for sid, seen in evidence.items():
            if not seen:
                parents, qs, _ = net.findings[sid]
                for parent, q in zip(parents, qs):
                    negatives[parent].append(q)
        for qs in negatives.values():
            qs.sort()
    return {
        fid: (1.0 - net.priors[fid], math.prod(qs, start=net.priors[fid]))
        for fid, qs in negatives.items()
    }


def compile_factors(bn: BayesNet, evidence: EvidenceMap) -> list[Factor]:
    """The factors the elimination path builds. Their product, summed over
    the auxiliary variables and times the resting pairs of the faults they
    leave out (`CompiledNet`), is proportional to P(faults, evidence).

    Three exact noisy-OR reductions, with q_i = 1 - p_i per parent:
    - an unobserved symptom is barren and contributes nothing;
    - a negative finding is P(s=0 | pa) = (1-leak) * prod_i q_i^x_i, so
      each q_i folds into its parent's unary factor and (1-leak) is a
      constant, which matters only when it is 0: the evidence is then
      impossible;
    - a positive finding with one parent is a unary factor. With k >= 2
      parents, P(s=1 | pa) = sum over y of f(y) * prod_i g_i(x_i, y)
      (Diez & Galan 2003) with one auxiliary binary y, f = [1, -(1-leak)]
      and g_i = [[1, 1], [1, q_i]].
    No factor has more than two variables. A fault gets a unary factor
    only when a positive finding touches it (under partial evidence, any
    observed finding); every other fault keeps its resting pair. That
    factor is its prior times its negative children's q_i in sorted
    order, as in the resting pairs, so faults whose inputs are equal get
    bit-identical posteriors.
    """
    import numpy as np

    net = bn.compiled
    positive = _positive_findings(net, evidence)
    factors = []
    for sid in positive:
        parents, qs, stay = net.findings[sid]
        if len(qs) == 1:
            factors.append(Factor(parents, np.array([1.0 - stay, 1.0 - stay * qs[0]])))
        else:
            aux = aux_var_id(sid)
            factors.append(Factor((aux,), np.array([1.0, -stay])))
            for parent, q in zip(parents, qs):
                factors.append(Factor((parent, aux), np.array([[1.0, 1.0], [1.0, q]])))
    touched = _touched(net, evidence, positive)
    for fid, pair in _fold_negatives(net, evidence, touched, positive).items():
        factors.append(Factor((fid,), np.array(pair)))
    return factors


def min_fill_order(
    variables: set[str], scopes: list[tuple[str, ...]], last: frozenset[str] = frozenset()
) -> list[str]:
    """Greedy min-fill elimination order with lexicographic tie-break.

    Each step eliminates the variable whose neighbors lack the fewest
    edges among themselves, the smallest id among equals, and joins its
    neighbors. Variables in `last` are eliminated only after all the
    others, in min-fill order among themselves.
    """
    neighbors: dict[str, set[str]] = {v: set() for v in variables}
    for scope in scopes:
        members = [v for v in scope if v in neighbors]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)

    def fill_cost(v: str) -> int:
        around = list(neighbors[v])
        return sum(
            1
            for i, a in enumerate(around)
            for b in around[i + 1 :]
            if b not in neighbors[a]
        )

    order = []
    while neighbors:
        best = min(neighbors, key=lambda v: (v in last, fill_cost(v), v))
        order.append(best)
        around = neighbors.pop(best)
        for a in around:
            neighbors[a] |= around
            neighbors[a] -= {a, best}
    return order


class _Posterior(NamedTuple):
    pairs: dict[str, tuple[float, float]]


class Posterior(Frozen, _Posterior):
    """Per-fault (P(false|e), P(true|e)) pairs from one inference query set."""

    def marginal(self, fault_id: str) -> float:
        return self.pairs[fault_id][1]

    @property
    def marginals(self) -> dict[str, float]:
        return {fid: pair[1] for fid, pair in self.pairs.items()}

    @cached_property
    def _ranked(self) -> tuple[tuple[str, float], ...]:
        ranked = sorted(self.marginals.items())
        ranked.sort(key=itemgetter(1), reverse=True)
        return tuple(ranked)

    def ranking(self) -> list[tuple[str, float]]:
        """Highest first, ties by fault id: a stable descending sort of the
        id-sorted items. Sorted once per posterior; each call returns a new
        list."""
        return list(self._ranked)


def _project(factor: Factor, keep: tuple[str, ...]) -> Factor:
    kept = set(keep)
    axes = tuple(i for i, v in enumerate(factor.scope) if v not in kept)
    if not axes:
        return factor
    return Factor(
        scope=tuple(v for v in factor.scope if v in kept),
        table=factor.table.sum(axis=axes),
    )


def _evidence_mass(z: float) -> float:
    # factors can be negative, so rounding can push a zero mass below zero
    if not z > 0.0:
        raise ImpossibleEvidenceError("evidence has zero probability under the network")
    return z


def _normalized(off: float, on: float) -> tuple[float, float]:
    z = _evidence_mass(off + on)
    return off / z, on / z


def _sorted_product(tables) -> tuple[float, float]:
    """The product of unary (off, on) tables, taken in sorted order."""
    off, on = 1.0, 1.0
    for f_off, f_on in sorted(tables):
        off, on = off * f_off, on * f_on
    return off, on


MAX_SHARED_FAULTS = 14


def posterior_marginals(bn: BayesNet, evidence: EvidenceMap) -> Posterior:
    """Exact P(fault | evidence) for every fault variable, by conditioning on
    the faults that several positive findings share.

    A fault that no observed finding touches keeps its resting pair, which
    the network compiled once (closed-world evidence observes every
    symptom; any other evidence leaves such a fault at its prior). Every
    touched fault gets a unary pair u: its prior times its negative
    findings' q (`_fold_negatives`), times each one-parent positive
    finding's [1-stay, 1-stay*q], where stay = 1 - leak. A fault that no
    positive finding with two or more parents blames is independent of
    the rest given the evidence, and its posterior is u normalized.

    A fault that only one positive finding blames is private to it. A
    finding with private parents only is a noisy-OR star in closed form:
    its mass is prod(u0+u1) - stay*prod(u0+u1*q), and a parent's on-mass
    (off-mass) is the same sum with that parent clamped on (off). Faults
    that two or more positive findings blame are shared, and they link
    the findings into components. Fixing an assignment s of a component's
    shared faults leaves each finding a star whose q-product gains a
    factor prod over its shared parents of q^s (Pearl 1988, section 4.3,
    cutset conditioning), so the component sums over the 2^|S| assignments
    of its shared set: in Python floats up to MAX_FLOAT_SHARED_FAULTS
    shared faults, in numpy arrays above, with bit-identical results
    (`_FloatArrays`). A private fault's weight there is its
    own finding's clamped mass times the other findings' masses, formed by
    multiplying them (`_rest_sums`), never by dividing, since a mass can
    be 0. Quickscore (Heckerman 1989) would sum over 2^|F+| subsets of the
    positive findings instead.

    Unary pairs and star products are taken over sorted operands, and
    findings or shared faults that are interchangeable are solved once, so
    symmetric faults get bit-identical posteriors. The
    only subtraction is one per finding and assignment, of two nonnegative
    products taken in the same order, so no mass rounds below zero.

    A component of more than MAX_SHARED_FAULTS shared faults runs the
    variable-elimination path (`_eliminate`) instead; the other components
    of the same call are still conditioned or solved in closed form. The sum
    costs 2^|S| times the component's findings, while elimination's cost
    follows the width of a min-fill order, which stays small on these
    path-shaped networks. On the `diagnose-desk` incidents of seeds 1 to
    240 (2-vCPU shared host) conditioning took a median 2.7 ms against
    7.5 ms at 13 shared faults, but 8.1 against 6.9 ms at 15 and 121
    against 8.2 ms at 18. At the cap an array holds 16384 values.
    """
    net = bn.compiled
    positive = _positive_findings(net, evidence)
    resting = net.closed if net.observes_all(evidence) else net.open
    touched = _touched(net, evidence, positive)
    if any(fid not in touched for fid in resting.void):
        raise ImpossibleEvidenceError("evidence has zero probability under the network")
    folded = _fold_negatives(net, evidence, touched, positive)
    tables = {fid: [pair] for fid, pair in folded.items()}
    stars = []
    for sid in positive:
        parents, qs, stay = net.findings[sid]
        if len(parents) == 1:
            tables[parents[0]].append((1.0 - stay, 1.0 - stay * qs[0]))
        else:
            stars.append(sid)
    unary = {fid: _sorted_product(parts) for fid, parts in tables.items()}

    blamed = Counter(parent for sid in stars for parent in net.findings[sid][0])
    pairs = dict(resting.pairs)  # in id order, which the updates keep
    for fid, pair in unary.items():
        if fid not in blamed:
            pairs[fid] = _normalized(*pair)
    factors = None  # compiled for the first component above the cap
    for members, shared in _components(net, stars, blamed):
        if len(shared) > MAX_SHARED_FAULTS:
            if factors is None:
                factors = compile_factors(bn, evidence)
            _eliminate(net, factors, members, shared, pairs)
        elif shared:
            arrays = _FloatArrays if len(shared) <= MAX_FLOAT_SHARED_FAULTS else _NumpyArrays
            _condition(net, unary, blamed, members, shared, pairs, arrays)
        else:
            (sid,) = members
            parents, qs, stay = net.findings[sid]
            star = _Star(list(zip(parents, qs)), stay, unary)
            star.private_pairs(unary, 1.0, 1.0, pairs)
    return Posterior(pairs=pairs)


class _Star:
    """One positive finding's private parents: total = prod(u0+u1) and
    miss = prod(u0+u1*q), and per parent the same products without it.

    Operands go in sorted order, both products in the same one, so that
    total >= miss after rounding too. A parent's products leave out the
    first operand equal to its own, so parents with equal inputs get
    bit-identical products.
    """

    def __init__(self, privates: list[tuple[str, float]], stay: float, unary) -> None:
        self.privates = privates
        self.stay = stay
        self.terms = {fid: (unary[fid][0] + unary[fid][1], unary[fid][0] + unary[fid][1] * q)
                      for fid, q in privates}
        ordered = sorted(self.terms.values())
        head = [(1.0, 1.0)]
        for a, b in ordered:
            head.append((head[-1][0] * a, head[-1][1] * b))
        self.total, self.miss = head[-1]
        self.without: dict[tuple[float, float], tuple[float, float]] = {}
        tail = (1.0, 1.0)
        for i in reversed(range(len(ordered))):  # the first occurrence is written last
            self.without[ordered[i]] = (head[i][0] * tail[0], head[i][1] * tail[1])
            tail = (ordered[i][0] * tail[0], ordered[i][1] * tail[1])

    def private_pairs(self, unary, r0: float, r1: float, pairs: dict) -> None:
        """Each private parent's posterior, given the sums over assignments
        of the rest of its component's weight (r0), and of that weight
        times the finding's shared q-product (r1); both are 1 alone."""
        for fid, q in self.privates:
            total, miss = self.without[self.terms[fid]]
            kept, missed = total * r0, self.stay * miss * r1
            u0, u1 = unary[fid]
            pairs[fid] = _normalized(u0 * (kept - missed), u1 * (kept - q * missed))


def _components(
    net: CompiledNet, stars: list[str], blamed: Counter
) -> list[tuple[list[str], list[str]]]:
    """Positive findings linked by shared faults: per component its findings
    in id order and its shared faults in network order."""
    blaming: dict[str, list[str]] = {}
    for sid in stars:
        for parent in net.findings[sid][0]:
            if blamed[parent] > 1:
                blaming.setdefault(parent, []).append(sid)
    seen: set[str] = set()
    components = []
    for sid in stars:
        if sid in seen:
            continue
        seen.add(sid)
        members, shared, todo = [], set(), [sid]
        while todo:
            member = todo.pop()
            members.append(member)
            for parent in net.findings[member][0]:
                if parent in blaming and parent not in shared:
                    shared.add(parent)
                    fresh = [other for other in blaming[parent] if other not in seen]
                    seen.update(fresh)
                    todo.extend(fresh)
        components.append((sorted(members), sorted(shared, key=net.rank.__getitem__)))
    return components


def _condition(
    net: CompiledNet, unary, blamed: Counter, members: list[str], shared: list[str],
    pairs: dict, arrays: type[_FloatArrays] | type[_NumpyArrays],
) -> None:
    """Posteriors of one component's faults, summed over the assignments of
    its shared faults: axis i of every array is shared[i], 0=off 1=on.
    `arrays` is `_FloatArrays` or `_NumpyArrays`."""
    axis = {fid: i for i, fid in enumerate(shared)}
    k = len(shared)

    weight = arrays.along(k, 0, unary[shared[0]])
    for fid in shared[1:]:
        weight = arrays.times(weight, arrays.along(k, axis[fid], unary[fid]))
    # findings with equal masses are one item, solved once
    items: dict[tuple, tuple] = {}
    blame: dict[str, list[tuple[str, float]]] = {fid: [] for fid in shared}
    for sid in members:
        parents, qs, stay = net.findings[sid]
        star = _Star([(p, q) for p, q in zip(parents, qs) if blamed[p] == 1], stay, unary)
        linked = tuple((p, q) for p, q in zip(parents, qs) if p in axis)
        for p, q in linked:
            blame[p].append((sid, q))
        missed = stay * star.miss
        key = (star.total, missed, linked)
        if key in items:
            items[key][2].append(star)
            continue
        product = arrays.along(k, axis[linked[0][0]], (1.0, linked[0][1]))
        for p, q in linked[1:]:
            product = arrays.times(product, arrays.along(k, axis[p], (1.0, q)))
        items[key] = (arrays.less(star.total, missed, product), product, [star])

    joint = _times(arrays, weight, items.values())
    solved: dict[tuple, tuple[float, float]] = {}
    for i, fid in enumerate(shared):
        key = (unary[fid], tuple(blame[fid]))  # interchangeable faults: one sum
        if key not in solved:
            solved[key] = _normalized(*arrays.keep(joint, i))
        pairs[fid] = solved[key]
    rest = _rest_sums(arrays, weight, list(items.values()))
    for (r0, r1), (_, _, stars) in zip(rest, items.values()):
        for star in stars:
            star.private_pairs(unary, r0, r1, pairs)


def _times(arrays, array, items):
    """The array times each item's mass, once per finding in the item."""
    for mass, _, stars in items:
        for _ in stars:
            array = arrays.times(array, mass)
    return array


def _rest_sums(arrays, outside, items: list) -> list[tuple[float, float]]:
    """Per item: the sum over assignments of `outside` times the masses of
    every other finding, and of the same times the item's own q-product.

    Halving the items keeps O(log n) arrays alive and multiplies O(n log n)
    of them, where prefix and suffix products would keep O(n) alive.
    """
    if len(items) == 1:
        mass, product, stars = items[0]
        for _ in stars[1:]:
            outside = arrays.times(outside, mass)
        return [(arrays.total(outside), arrays.total(arrays.times(outside, product)))]
    half = len(items) // 2
    return (_rest_sums(arrays, _times(arrays, outside, items[half:]), items[:half])
            + _rest_sums(arrays, _times(arrays, outside, items[:half]), items[half:]))


# Conditioning's arrays, over k binary axes (one per shared fault), come in
# two implementations with the same operations: numpy arrays, and flat
# lists of Python floats in C order. Each list entry is computed with the
# same float operations, in the same order, as numpy computes it, so both
# give bit-identical posteriors, and the command line need not import
# numpy until a component is wider than MAX_FLOAT_SHARED_FAULTS. On the
# 1427 conditioning calls of the benchmark's `run-t1` (seed 1), `heal-loop`
# (seeds 1, 2) and `diagnose-desk` (seeds 1, 9, 31) workloads, the median
# call (best of 3, 2-vCPU shared host) took 38, 66, 52 and 115 us in
# floats at 1 to 4 shared faults against 47, 89, 65 and 129 us in numpy,
# but 178 against 154 us at 5, and 2507 against 217 us at 10.
MAX_FLOAT_SHARED_FAULTS = 4


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """numpy's pairwise sum of values[start:start + n]: left to right below
    8 values; up to 128, eight interleaved running sums combined as a tree,
    then the leftovers; above, the two halves split at a multiple of 8."""
    if n < 8:
        return reduce(add, values[start:start + n], 0.0)
    if n <= 128:
        end = start + n - n % 8
        r = values[start:start + 8]
        for i in range(start + 8, end, 8):
            r = list(map(add, r, values[i:i + 8]))
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end:start + n], res)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _full_sum(values: list[float]) -> float:
    """`ndarray.sum()` of an array held in C order: numpy adds the pairwise
    sum to 0.0."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def _axis_sums(values: list[float], i: int) -> tuple[float, float]:
    """`ndarray.sum` over every axis but axis i of a (2,)*k array held in C
    order. Per value of axis i, the entries come in contiguous blocks of
    2^(k-1-i), one per assignment of the axes before i: numpy adds each
    block's pairwise sum to 0.0, block by block."""
    stride = len(values) >> (i + 1)
    off = on = 0.0
    for start in range(0, len(values), 2 * stride):
        off += _pairwise_sum(values, start, stride)
        on += _pairwise_sum(values, start + stride, stride)
    return off, on


class _FloatArrays:
    """Conditioning's arrays as flat lists of floats in C order, each
    broadcast to every axis."""

    @staticmethod
    def along(k: int, i: int, pair: tuple[float, float]) -> list[float]:
        """The pair along axis i, repeated over the other axes."""
        stride = 1 << (k - 1 - i)
        return ([pair[0]] * stride + [pair[1]] * stride) * (1 << i)

    @staticmethod
    def times(a: list[float], b: list[float]) -> list[float]:
        return list(map(mul, a, b))

    @staticmethod
    def less(total: float, scale: float, a: list[float]) -> list[float]:
        """total - scale * a"""
        return [total - scale * x for x in a]

    keep = staticmethod(_axis_sums)
    total = staticmethod(_full_sum)


class _NumpyArrays:
    """Conditioning's arrays as numpy arrays, each with size 2 only on the
    axes it spans."""

    @staticmethod
    def along(k: int, i: int, pair: tuple[float, float]) -> np.ndarray:
        import numpy as np

        shape = [1] * k
        shape[i] = 2
        return np.array(pair).reshape(shape)

    times = staticmethod(mul)

    @staticmethod
    def less(total: float, scale: float, a: np.ndarray) -> np.ndarray:
        return total - scale * a

    @staticmethod
    def keep(a: np.ndarray, i: int) -> tuple[float, float]:
        others = tuple(j for j in range(a.ndim) if j != i)
        return tuple(a.sum(axis=others).tolist())

    @staticmethod
    def total(a: np.ndarray) -> float:
        return float(a.sum())


def _eliminate(
    net: CompiledNet, factors: list[Factor], members: list[str], shared: list[str],
    pairs: dict,
) -> None:
    """Posteriors of one component's faults by variable elimination over its
    own factors of `factors` (`compile_factors`).

    The path for components with more than MAX_SHARED_FAULTS shared faults.
    The component's faults and auxiliary variables go through one
    variable-elimination sweep along a min-fill order. A reverse sweep then
    sends each bucket the product of everything outside its subtree, so
    every fault marginal is read off its own bucket. A bucket with many
    children builds those messages from prefix and suffix products, in time
    linear in the number of children.
    """
    variables = {aux_var_id(sid) for sid in members}
    variables.update(parent for sid in members for parent in net.findings[sid][0])
    joint = [f for f in factors if f.scope[0] in variables]

    # An auxiliary variable summed out after a fault it shares with another
    # finding leaves signed messages, whose later sums cancel the way
    # Quickscore's alternating sum does (errors near 1e-9 were seen on
    # 10-node networks). Faults shared by findings therefore go last: then
    # every subtraction meets only nonnegative operands, and only once.
    order = min_fill_order(variables, [f.scope for f in joint], frozenset(shared))
    position = {v: i for i, v in enumerate(order)}

    def multiply(f1: Factor, f2: Factor) -> Factor:
        # scopes stay sorted by elimination position, so products are
        # pure broadcasts and a bucket's own variable is always axis 0
        in1, in2 = set(f1.scope), set(f2.scope)
        scope = tuple(sorted(in1 | in2, key=position.__getitem__))
        shape1 = tuple(2 if v in in1 else 1 for v in scope)
        shape2 = tuple(2 if v in in2 else 1 for v in scope)
        return Factor(scope, f1.table.reshape(shape1) * f2.table.reshape(shape2))

    def canonical(f: Factor) -> Factor:
        perm = sorted(range(len(f.scope)), key=lambda k: position[f.scope[k]])
        return Factor(tuple(f.scope[k] for k in perm), f.table.transpose(perm))

    def combine(parts: list[Factor]) -> Factor:
        ordered = sorted(parts, key=lambda f: f.table.size)
        combined = ordered[0]
        for f in ordered[1:]:
            combined = multiply(combined, f)
        return combined

    # Upward sweep: each bucket holds the factors whose earliest-eliminated
    # variable is its own, and parks its message at the next such bucket.
    buckets: list[list[Factor]] = [[] for _ in order]
    for f in joint:
        buckets[min(position[v] for v in f.scope)].append(canonical(f))
    children: list[list[tuple[int, Factor]]] = [[] for _ in order]
    for i in range(len(order)):
        combined = combine(buckets[i] + [m for _, m in children[i]])
        message = Factor(combined.scope[1:], combined.table.sum(axis=0))
        if message.scope:
            children[position[message.scope[0]]].append((i, message))
        else:
            _evidence_mass(float(message.table))

    # Downward sweep: prefix[j] is the bucket's own factors, its message
    # from above and its first j children's messages.
    for i in reversed(range(len(order))):
        prefix = [combine(buckets[i])]
        for _, message in children[i]:
            prefix.append(multiply(prefix[-1], message))
        if order[i] in net.priors:
            off, on = prefix[-1].table.reshape(2, -1).sum(axis=1).tolist()
            pairs[order[i]] = _normalized(off, on)
        suffix = None
        for j in reversed(range(len(children[i]))):
            child, message = children[i][j]
            rest = prefix[j] if suffix is None else multiply(prefix[j], suffix)
            buckets[child].append(_project(rest, message.scope))
            suffix = message if suffix is None else multiply(message, suffix)


def enumerate_joint(bn: BayesNet, evidence: EvidenceMap) -> Posterior:
    """Reference oracle: marginals by summation over every joint assignment.

    Materializes the probability of all 2^n assignments, so it is capped at
    20 variables. Shares no code with the variable-elimination path.
    """
    import numpy as np

    all_vars = sorted(v.id for v in bn.variables)
    n = len(all_vars)
    if n > 20:
        raise BnError(f"enumeration capped at 20 variables, got {n}")
    position = {v: i for i, v in enumerate(all_vars)}
    index = np.arange(2**n, dtype=np.int64)

    def bit(var: str) -> np.ndarray:
        return (index >> (n - 1 - position[var])) & 1

    joint = np.ones(2**n)
    for fid in bn.fault_ids:
        p = bn.priors[fid]
        joint = joint * np.where(bit(fid) == 1, p, 1.0 - p)
    for sid in bn.symptom_ids:
        cpt = bn.cpts[sid]
        q = np.full(2**n, 1.0 - cpt.leak)
        for parent, p in zip(cpt.parents, cpt.link_probabilities):
            q = q * np.where(bit(parent) == 1, 1.0 - p, 1.0)
        joint = joint * np.where(bit(sid) == 1, 1.0 - q, q)

    mask = np.ones(2**n, dtype=bool)
    for var, value in evidence.items():
        if var not in position:
            raise BnError(f"evidence key is not a network variable: {var}")
        mask &= bit(var) == int(value)

    z = float(joint[mask].sum())
    if z == 0.0:
        raise ImpossibleEvidenceError("evidence has zero probability under the network")
    pairs = {}
    for fid in bn.fault_ids:
        p_true = float(joint[mask & (bit(fid) == 1)].sum())
        pairs[fid] = ((z - p_true) / z, p_true / z)
    return Posterior(pairs=pairs)


# ---------------------------------------------------------------------------
# Diagnosis


class Verdict(str, Enum):
    CONFIDENT = "confident"
    SUSPECT = "suspect"
    INCONCLUSIVE = "inconclusive"


class Diagnosis(NamedTuple):
    ranked: tuple[tuple[str, float], ...]
    verdict: Verdict
    threshold: float


def map_diagnosis(
    posterior: Posterior, threshold: float, priors: dict[str, float]
) -> Diagnosis:
    """Grade a posterior into confident / suspect / inconclusive.

    Confident: every fault at or above the threshold, ranked. Suspect: the
    top fault rose to at least 10x its prior. Inconclusive: neither, with
    the full ranking attached for the caller to widen evidence on.
    """
    if not 0.0 < threshold < 1.0:
        raise BnError(f"threshold must be in (0,1): {threshold}")
    full = posterior._ranked
    confident = tuple((f, p) for f, p in full if p >= threshold)
    if confident:
        return Diagnosis(confident, Verdict.CONFIDENT, threshold)
    if full:
        top_fault, top_p = full[0]
        if top_p >= 10.0 * priors[top_fault]:
            return Diagnosis(((top_fault, top_p),), Verdict.SUSPECT, threshold)
    return Diagnosis(full, Verdict.INCONCLUSIVE, threshold)


# ---------------------------------------------------------------------------
# BN dump document (round-trippable)


def bn_to_dict(bn: BayesNet) -> dict:
    return {
        "schema-version": 1,
        "variables": [
            {"id": v.id, "kind": v.kind, "target": v.target, **(
                {"fault-class": v.fault_class.value} if v.fault_class
                else {"symptom": v.symptom.value}
            )}
            for v in bn.variables
        ],
        "priors": dict(sorted(bn.priors.items())),
        "cpts": [
            {
                "child": cpt.child,
                "parents": list(cpt.parents),
                "link-probabilities": list(cpt.link_probabilities),
                "leak": cpt.leak,
            }
            for _, cpt in sorted(bn.cpts.items())
        ],
    }


_NETWORK_KEYS = frozenset({"schema-version", "variables", "priors", "cpts"})
_VARIABLE_KEYS = frozenset({"id", "kind", "target", "fault-class", "symptom"})
_CPT_KEYS = frozenset({"child", "parents", "link-probabilities", "leak"})


def _variable(entry: dict) -> BnVariable:
    """A network document's variable. Inference and `parse_fault_var` read
    only its id, so the id must be the one its other fields name."""
    vid = _read.string(entry.get("id"), "variable id")
    kind = _read.string(entry.get("kind"), "variable kind")
    target = _read.string(entry.get("target"), "variable target")
    if kind == "fault" and "fault-class" in entry and "symptom" not in entry:
        fc = _read.member(FaultClass, entry["fault-class"], "unknown fault class")
        variable, expected = BnVariable(vid, kind, target, fc), fault_var_id(fc, target)
    elif kind == "symptom" and "symptom" in entry and "fault-class" not in entry:
        symptom = _read.member(Symptom, entry["symptom"], "unknown symptom")
        variable = BnVariable(vid, kind, target, None, symptom)
        expected = symptom_var_id(symptom, target)
    else:
        raise BnError(
            f"variable {vid} must be a fault with a fault-class "
            "or a symptom with a symptom"
        )
    if vid != expected:
        raise BnError(f"variable {vid} must have the id its fields name: {expected}")
    return variable


def bn_from_dict(doc: dict) -> BayesNet:
    doc = _read.versioned(doc, "network", _NETWORK_KEYS)
    variables = [
        _variable(entry)
        for entry in _read.objects(doc.get("variables"), "variable", _VARIABLE_KEYS)
    ]
    cpts = {}
    for entry in _read.objects(doc.get("cpts"), "CPT", _CPT_KEYS):
        probabilities = _read.items(entry.get("link-probabilities"), "link-probabilities")
        cpt = NoisyOrCpt(
            _read.string(entry.get("child"), "CPT child"),
            _read.strings(entry.get("parents"), "parents"),
            tuple([_read.number(p, "link probability") for p in probabilities]),
            _read.number(entry.get("leak"), "leak"),
        )
        if cpt.child in cpts:
            raise BnError(f"more than one CPT for {cpt.child}")
        cpts[cpt.child] = cpt
    # a prior of anything but a fault variable is an unknown key
    fault_ids = {v.id for v in variables if v.kind == "fault"}
    priors = _read.object(doc.get("priors"), "priors", fault_ids)
    bn = BayesNet(
        variables=tuple(sorted(variables, key=lambda v: (v.kind, v.id))),
        priors={fid: _read.number(p, f"prior of {fid}") for fid, p in priors.items()},
        cpts=cpts,
    )
    _check_structure(bn)
    return bn


def _check_structure(bn: BayesNet) -> None:
    """Reject a network whose posteriors would be wrong, not just odd."""
    seen: set[str] = set()
    for v in bn.variables:
        if v.id in seen:
            raise BnError(f"duplicate variable id: {v.id}")
        seen.add(v.id)
    # inference reads only the CPTs of symptom variables
    stray = sorted(bn.cpts.keys() - set(bn.symptom_ids))
    if stray:
        raise BnError(f"CPT of a variable that is not a symptom: {stray[0]}")
    fault_ids = set(bn.fault_ids)
    for sid in bn.symptom_ids:
        cpt = bn.cpts.get(sid)
        if cpt is None or not cpt.parents:
            raise BnError(f"symptom without parents: {sid}")
        if len(cpt.link_probabilities) != len(cpt.parents):
            raise BnError(
                f"{sid} has {len(cpt.parents)} parents but "
                f"{len(cpt.link_probabilities)} link probabilities"
            )
        if len(set(cpt.parents)) < len(cpt.parents):
            raise BnError(f"duplicate parent of {sid}")
        for parent in cpt.parents:
            if parent not in fault_ids:
                raise BnError(f"non-fault parent {parent} of {sid}")
        for p in (*cpt.link_probabilities, cpt.leak):
            if not 0.0 <= p <= 1.0:
                raise BnError(f"probability out of [0,1] in the CPT of {sid}: {p}")
    for fid in bn.fault_ids:
        if not 0.0 < bn.priors.get(fid, 0.0) < 1.0:
            raise BnError(f"fault prior out of (0,1): {fid}")
