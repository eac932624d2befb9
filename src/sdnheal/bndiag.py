"""Root-cause diagnosis over a topology-derived noisy-OR Bayesian network.

The network is bipartite: binary fault variables (component failures,
agent crashes, service faults, controller crash, interface traffic drops)
point at binary symptom variables (the alarm vocabulary). Each symptom
has a leaky noisy-OR conditional distribution: every active parent
independently fails to trigger it with probability 1 - p_edge, and a leak
lets it fire spontaneously.

The edges are the propagation table `taxonomy.effects`, which the
simulator's alarms also follow: a fault's direct effects (the alarms it
raises) get p-direct, its indirect ones (symptoms it merely makes
plausible) p-indirect.

Inference is exact and never builds a conditional table. Given the
evidence, unobserved symptoms are barren and drop out, each negative
finding folds into unary factors on its parents, and each positive
finding with k >= 2 parents becomes one auxiliary variable with k
pairwise factors (the two-term noisy-OR factorization of Diez & Galan
2003). Faults that no such finding couples get closed-form posteriors;
min-fill variable elimination runs over the rest.

What no evidence changes is compiled once per network, on first use
(`BayesNet.compiled`): each symptom's parents and q values, and for each
fault its "resting" posterior, the one it has when no observed finding
touches it: its prior under open-world evidence, and under closed-world
evidence its prior folded with every child's q (all of them negative).
A call then builds factors only for the positive findings and the faults
they touch (any observed finding, under partial evidence) and copies the
resting pairs of the rest, as Quickscore (Heckerman 1989) and Jaakkola
& Jordan (1999) pay only for positive findings. Two oracles that share
no code with it check it: brute-force joint enumeration (up to 20
variables) and Quickscore (up to 16 positive findings).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .netmodel import NodeKind, Topology
from .taxonomy import FaultClass, Symptom, effects, symptom_vocabulary

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


def symptom_var_id(symptom: Symptom, emitter: str) -> str:
    return f"symptom:{symptom.value}:{emitter}"


def parse_fault_var(var_id: str) -> tuple[FaultClass, str]:
    kind, tag, target = var_id.split(":", 2)
    if kind != "fault" or tag not in _TAG_FAULT:
        raise BnError(f"not a fault variable id: {var_id}")
    return _TAG_FAULT[tag], target


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class BnVariable:
    id: str
    kind: str  # "fault" or "symptom"
    target: str
    fault_class: FaultClass | None = None
    symptom: Symptom | None = None


@dataclass(frozen=True)
class NoisyOrCpt:
    child: str
    parents: tuple[str, ...]
    link_probabilities: tuple[float, ...]
    leak: float


@dataclass(frozen=True)
class BayesNet:
    variables: tuple[BnVariable, ...]
    priors: dict[str, float]
    cpts: dict[str, NoisyOrCpt]

    @cached_property
    def fault_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables if v.kind == "fault")

    @cached_property
    def symptom_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables if v.kind == "symptom")

    @cached_property
    def compiled(self) -> CompiledNet:
        """Built on the first use and kept with this network object only."""
        return CompiledNet(self)


@dataclass(frozen=True)
class BnParams:
    """Network parameters. All values are artifact defaults, not measured."""

    prior_physical: float = 0.01
    prior_agent: float = 0.02
    prior_service: float = 0.02
    prior_controller: float = 0.005
    prior_drop: float = 0.02
    p_direct: float = 0.95
    p_indirect: float = 0.8
    leak: float = 0.001
    # Not a key of parameter documents: diagnosis uses the loop's threshold.
    threshold: float = 0.5
    include_hosts: bool = False

    def __post_init__(self) -> None:
        for name in (
            "prior_physical", "prior_agent", "prior_service",
            "prior_controller", "prior_drop",
        ):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise BnError(f"{name.replace('_', '-')} must be in (0,1): {value}")
        for name in ("p_direct", "p_indirect", "leak"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise BnError(f"{name.replace('_', '-')} out of [0,1]: {value}")
        if not 0.0 < self.threshold < 1.0:
            raise BnError(f"threshold must be in (0,1): {self.threshold}")


_PARAM_KEYS = {
    "p-direct": "p_direct",
    "p-indirect": "p_indirect",
    "leak": "leak",
    "include-hosts": "include_hosts",
}
# Accepted and ignored, so that older parameter documents still load: the
# parent cap only guarded table-based inference against 2^k CPT tables.
_NO_OP_KEYS = {"max-parents"}
_PRIOR_KEYS = {
    FaultClass.PHYSICAL_FAILURE.value: "prior_physical",
    FaultClass.OPENFLOW_AGENT_CRASH.value: "prior_agent",
    FaultClass.SERVICE_FAULT.value: "prior_service",
    FaultClass.CONTROLLER_CRASH.value: "prior_controller",
    FaultClass.INTERFACE_TRAFFIC_DROP.value: "prior_drop",
}


def params_from_dict(doc: dict | None) -> BnParams:
    """Apply a parameter override document on top of the defaults."""
    if not doc:
        return BnParams()
    kwargs = {}
    for key, value in doc.items():
        if key == "priors":
            for cls_name, p in value.items():
                if cls_name not in _PRIOR_KEYS:
                    raise BnError(f"unknown fault class in priors: {cls_name}")
                kwargs[_PRIOR_KEYS[cls_name]] = float(p)
        elif key == "threshold":
            raise BnError(
                "threshold is not a network parameter; the loop's diagnosis "
                "threshold is set with --threshold"
            )
        elif key in _PARAM_KEYS:
            field = _PARAM_KEYS[key]
            if field != "include_hosts":
                value = float(value)
            elif not isinstance(value, bool):
                raise BnError(f"include-hosts must be true or false: {value!r}")
            kwargs[field] = value
        elif key not in _NO_OP_KEYS:
            raise BnError(f"unknown parameter key: {key}")
    return replace(BnParams(), **kwargs)


# ---------------------------------------------------------------------------
# Construction


def build_bn(t: Topology, params: BnParams = BnParams()) -> BayesNet:
    """Derive the diagnosis network from a topology and its services.

    Fault variables: a physical failure per link and per non-host node
    (hosts are outside the repair domain unless include_hosts is set), a
    traffic-drop fault per link, an agent crash per OpenFlow switch, one
    controller crash, and one service fault per service. Symptom variables
    mirror the monitored alarm vocabulary. Each fault's edges are its
    effects in the propagation table (`taxonomy.effects`): direct ones at
    p_direct, indirect ones at p_indirect. Construction is deterministic.
    """
    nodes = [n for n in t.nodes if params.include_hosts or n.kind is not NodeKind.HOST]
    links = [l.id for l in t.links]
    switches = [n.id for n in nodes if n.kind is NodeKind.OPENFLOW_SWITCH]
    faults = [  # (class, targets, prior), in network order
        (FaultClass.PHYSICAL_FAILURE, [n.id for n in nodes] + links, params.prior_physical),
        (FaultClass.INTERFACE_TRAFFIC_DROP, links, params.prior_drop),
        (FaultClass.OPENFLOW_AGENT_CRASH, switches, params.prior_agent),
        (FaultClass.CONTROLLER_CRASH, [t.controller_id], params.prior_controller),
        (FaultClass.SERVICE_FAULT, [s.id for s in t.services], params.prior_service),
    ]

    variables: list[BnVariable] = []
    priors: dict[str, float] = {}
    vocabulary = symptom_vocabulary(t, include_hosts=params.include_hosts)
    edges: dict[tuple[Symptom, str], dict[str, float]] = {key: {} for key in vocabulary}
    for fc, targets, prior in faults:
        for target in targets:
            vid = fault_var_id(fc, target)
            variables.append(BnVariable(id=vid, kind="fault", target=target, fault_class=fc))
            priors[vid] = prior
            direct, indirect = effects(t, fc, target)
            for key in direct:
                edges[key][vid] = params.p_direct
            for key in indirect:
                edges[key][vid] = params.p_indirect

    cpts: dict[str, NoisyOrCpt] = {}
    for (symptom, emitter), parents in edges.items():
        vid = symptom_var_id(symptom, emitter)
        ordered = tuple(sorted(parents))
        variables.append(
            BnVariable(id=vid, kind="symptom", target=emitter, symptom=symptom)
        )
        cpts[vid] = NoisyOrCpt(
            child=vid,
            parents=ordered,
            link_probabilities=tuple(parents[p] for p in ordered),
            leak=params.leak,
        )

    variables.sort(key=lambda v: (v.kind, v.id))
    return BayesNet(variables=tuple(variables), priors=priors, cpts=cpts)


# ---------------------------------------------------------------------------
# Factors and exact inference


@dataclass(frozen=True, eq=False)
class Factor:
    """Table over binary variables; axis i indexes scope[i], 0=false 1=true.

    Entries may be negative: a positive finding's factors are signed.
    """

    scope: tuple[str, ...]
    table: np.ndarray


def aux_var_id(symptom_id: str) -> str:
    """The auxiliary variable that factors a positive finding's CPT."""
    return f"aux:{symptom_id}"


@dataclass(frozen=True)
class Resting:
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
    evidence reads: open-world evidence never needs a fault's children.
    Nothing here raises; a parameter that makes some evidence impossible
    surfaces only in a call with that evidence.
    """

    def __init__(self, bn: BayesNet) -> None:
        self.priors = bn.priors
        self.symptoms = frozenset(bn.symptom_ids)
        self.rank = {fid: i for i, fid in enumerate(bn.fault_ids)}  # network order
        # per symptom: its parents, their q = 1 - p, and 1 - leak
        self.findings: dict[str, tuple[tuple[str, ...], tuple[float, ...], float]] = {}
        for sid in bn.symptom_ids:
            cpt = bn.cpts[sid]
            qs = tuple([1.0 - p for p in cpt.link_probabilities])
            self.findings[sid] = (cpt.parents, qs, 1.0 - cpt.leak)
        # symptoms with leak 1: a negative one is impossible
        self.certain = tuple(sid for sid, (_, _, stay) in self.findings.items() if not stay > 0.0)

    @cached_property
    def children(self) -> dict[str, list[tuple[str, float]]]:
        """Per fault, in network order: (child symptom, q) for each child."""
        children: dict[str, list[tuple[str, float]]] = {fid: [] for fid in self.rank}
        for sid, (parents, qs, _) in self.findings.items():
            for parent, q in zip(parents, qs):
                children[parent].append((sid, q))
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
            fid: math.prod(sorted(q for _, q in kids), start=self.priors[fid])
            for fid, kids in self.children.items()
        })

    def observes_all(self, evidence: EvidenceMap) -> bool:
        """Whether evidence on symptoms only is closed-world."""
        return len(evidence) == len(self.symptoms)


def compile_factors(bn: BayesNet, evidence: EvidenceMap) -> list[Factor]:
    """The factors one call builds. Their product, summed over the auxiliary
    variables and times the resting pairs of the faults they leave out
    (`CompiledNet`), is proportional to P(faults, evidence).

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
    net = bn.compiled
    if not net.symptoms.issuperset(evidence):
        key = next(k for k in evidence if k not in net.symptoms)
        raise BnError(f"evidence key is not a symptom variable: {key}")
    for sid in net.certain:
        if sid in evidence and not evidence[sid]:
            raise ImpossibleEvidenceError("evidence has zero probability under the network")

    positive = sorted(sid for sid, seen in evidence.items() if seen)
    observed = positive if net.observes_all(evidence) else evidence
    touched = {parent for sid in observed for parent in net.findings[sid][0]}
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
    negative = len(positive) < len(evidence)  # else no children to read
    for fid in sorted(touched, key=net.rank.__getitem__):
        p = bn.priors[fid]
        qs = sorted(
            q for sid, q in net.children[fid] if sid in evidence and not evidence[sid]
        ) if negative else []
        factors.append(Factor((fid,), np.array([1.0 - p, math.prod(qs, start=p)])))
    return factors


def min_fill_order(
    variables: set[str], scopes: list[tuple[str, ...]], last: frozenset[str] = frozenset()
) -> list[str]:
    """Greedy min-fill elimination order with lexicographic tie-break.

    Variables in `last` are eliminated only after all the others, in
    min-fill order among themselves. Fill costs are cached and recomputed
    only for vertices whose neighborhood changed; a zero-cost (simplicial)
    vertex short-circuits the scan. Both are pure speedups: the selected
    order is identical to the naive argmin over (fill cost, variable id).
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

    cost = {v: fill_cost(v) for v in variables}
    order = []
    for remaining in (sorted(variables - last), sorted(variables & last)):
        while remaining:
            best = None
            for v in remaining:  # sorted, so the first zero wins ties correctly
                if cost[v] == 0:
                    best = v
                    break
                if best is None or cost[v] < cost[best]:
                    best = v
            order.append(best)
            remaining.remove(best)

            around = list(neighbors[best])
            touched = set(around)
            for i, a in enumerate(around):
                for b in around[i + 1 :]:
                    if b not in neighbors[a]:
                        neighbors[a].add(b)
                        neighbors[b].add(a)
                        touched |= neighbors[a] & neighbors[b]
            for a in around:
                neighbors[a].discard(best)
            del neighbors[best]
            for v in touched:
                if v in neighbors:
                    cost[v] = fill_cost(v)
    return order


@dataclass(frozen=True)
class Posterior:
    """Per-fault (P(false|e), P(true|e)) pairs from one inference query set."""

    pairs: dict[str, tuple[float, float]]

    def marginal(self, fault_id: str) -> float:
        return self.pairs[fault_id][1]

    @property
    def marginals(self) -> dict[str, float]:
        return {fid: pair[1] for fid, pair in self.pairs.items()}

    def ranking(self) -> list[tuple[str, float]]:
        return sorted(self.marginals.items(), key=lambda item: (-item[1], item[0]))


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


def posterior_marginals(bn: BayesNet, evidence: EvidenceMap) -> Posterior:
    """Exact P(fault | evidence) for every fault variable.

    A fault that no observed finding touches keeps its resting pair, which
    the network compiled once (closed-world evidence observes every
    symptom; any other evidence leaves such a fault at its prior). A fault
    that shares no factor with an auxiliary variable is independent of
    every other fault given the evidence: its posterior is the normalized
    product of its unary factors, taken in sorted order so that posteriors
    equal in exact arithmetic come out bit-identical. The other faults and
    the auxiliary variables go through one variable-elimination sweep
    along a min-fill order. A reverse sweep then sends each bucket the
    product of everything outside its subtree, so every fault marginal is
    read off its own bucket. A bucket with many children (a controller
    crash makes a star) builds those messages from prefix and suffix
    products, in time linear in the number of children.
    """
    net = bn.compiled
    factors = compile_factors(bn, evidence)
    resting = net.closed if net.observes_all(evidence) else net.open
    linked = {v for f in factors if len(f.scope) > 1 for v in f.scope}
    alone: dict[str, list[list[float]]] = {}
    joint: list[Factor] = []
    for f in factors:
        if f.scope[0] in linked:
            joint.append(f)
        else:
            alone.setdefault(f.scope[0], []).append(f.table.tolist())
    if any(fid not in alone and fid not in linked for fid in resting.void):
        raise ImpossibleEvidenceError("evidence has zero probability under the network")

    pairs = dict(resting.pairs)  # in id order, which the updates keep
    for fid, tables in alone.items():
        off, on = 1.0, 1.0
        for f_off, f_on in sorted(tables):
            off, on = off * f_off, on * f_on
        pairs[fid] = _normalized(off, on)

    # An auxiliary variable summed out after a fault it shares with another
    # finding leaves signed messages, whose later sums cancel the way
    # Quickscore's alternating sum does (errors near 1e-9 were seen on
    # 10-node networks). Faults shared by findings therefore go last: then
    # every subtraction meets only nonnegative operands, and only once.
    blamed = Counter(f.scope[0] for f in joint if len(f.scope) == 2)
    shared = frozenset(fid for fid, n in blamed.items() if n > 1)
    order = min_fill_order({v for f in joint for v in f.scope}, [f.scope for f in joint], shared)
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
        if order[i] in bn.priors:
            off, on = prefix[-1].table.reshape(2, -1).sum(axis=1).tolist()
            pairs[order[i]] = _normalized(off, on)
        suffix = None
        for j in reversed(range(len(children[i]))):
            child, message = children[i][j]
            rest = prefix[j] if suffix is None else multiply(prefix[j], suffix)
            buckets[child].append(_project(rest, message.scope))
            suffix = message if suffix is None else multiply(message, suffix)
    return Posterior(pairs=pairs)


def enumerate_joint(bn: BayesNet, evidence: EvidenceMap) -> Posterior:
    """Reference oracle: marginals by summation over every joint assignment.

    Materializes the probability of all 2^n assignments, so it is capped at
    20 variables. Shares no code with the variable-elimination path.
    """
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


QUICKSCORE_MAX_POSITIVES = 16


def quickscore_marginals(bn: BayesNet, evidence: EvidenceMap) -> Posterior:
    """Second reference oracle: Quickscore (Heckerman 1989).

    P(F+ positive, F- negative) is the alternating sum, over subsets S of
    the positive findings F+, of (-1)^|S| P(S and F- all negative), and
    P(a set of findings all negative) factorizes over the faults. Costs
    2^|F+| terms, so it refuses more than 16 positive findings. The sum
    loses digits to cancellation when the evidence is improbable (1e-7 on
    a 10-node network whose positive findings only near-ruled-out faults
    explain), so a disagreement with it needs a third opinion. Unlike
    `enumerate_joint` it scales with the network, not with 2^variables.
    Shares no code with the variable-elimination path.
    """
    for key in evidence:
        if key not in bn.cpts:
            raise BnError(f"evidence key is not a symptom variable: {key}")
    positive = sorted(sid for sid, value in evidence.items() if value)
    if len(positive) > QUICKSCORE_MAX_POSITIVES:
        raise BnError(
            f"quickscore capped at {QUICKSCORE_MAX_POSITIVES} positive findings, "
            f"got {len(positive)}"
        )
    faults = bn.fault_ids
    column = {fid: i for i, fid in enumerate(faults)}

    def misses(sid: str) -> np.ndarray:
        """Per fault: P(it alone fails to trigger sid | it is active)."""
        row = np.ones(len(faults))
        cpt = bn.cpts[sid]
        for parent, p in zip(cpt.parents, cpt.link_probabilities):
            row[column[parent]] *= 1.0 - p
        return row

    quiet = np.ones(len(faults))  # chance of raising none of F-
    no_leak = 1.0
    for sid, value in evidence.items():
        if not value:
            quiet *= misses(sid)
            no_leak *= 1.0 - bn.cpts[sid].leak
    prior = np.array([bn.priors[fid] for fid in faults])
    on = prior * quiet / (1.0 - prior + prior * quiet)

    # Faults that some positive finding can blame: one row per subset S.
    blamed = sorted({column[p] for sid in positive for p in bn.cpts[sid].parents})
    subset = np.arange(2 ** len(positive))
    silent = np.tile(quiet[blamed], (len(subset), 1))
    weight = np.full(len(subset), no_leak)
    for j, sid in enumerate(positive):
        chosen = (subset >> j) & 1 == 1
        silent[chosen] *= misses(sid)[blamed]
        weight[chosen] *= -(1.0 - bn.cpts[sid].leak)
    p_blamed = prior[blamed]
    either = 1.0 - p_blamed + p_blamed * silent
    weight *= either.prod(axis=1)
    z = math.fsum(weight)
    if z <= 0.0:
        raise ImpossibleEvidenceError("evidence has zero probability under the network")
    share = weight[:, None] * (p_blamed * silent / either)
    for k, i in enumerate(blamed):
        on[i] = math.fsum(share[:, k]) / z
    return Posterior(pairs={fid: (float(1.0 - on[i]), float(on[i])) for fid, i in column.items()})


# ---------------------------------------------------------------------------
# Diagnosis


class Verdict(str, Enum):
    CONFIDENT = "confident"
    SUSPECT = "suspect"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Diagnosis:
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
    full = posterior.ranking()
    confident = [(f, p) for f, p in full if p >= threshold]
    if confident:
        return Diagnosis(tuple(confident), Verdict.CONFIDENT, threshold)
    if full:
        top_fault, top_p = full[0]
        if top_p >= 10.0 * priors[top_fault]:
            return Diagnosis(((top_fault, top_p),), Verdict.SUSPECT, threshold)
    return Diagnosis(tuple(full), Verdict.INCONCLUSIVE, threshold)


# ---------------------------------------------------------------------------
# BN dump document (round-trippable)


def bn_to_dict(bn: BayesNet) -> dict:
    return {
        "schema-version": 1,
        "variables": [
            {
                "id": v.id,
                "kind": v.kind,
                "target": v.target,
                **(
                    {"fault-class": v.fault_class.value}
                    if v.fault_class
                    else {"symptom": v.symptom.value}
                ),
            }
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


def bn_from_dict(doc: dict) -> BayesNet:
    if doc.get("schema-version", 1) != 1:
        raise BnError(f"unsupported schema-version: {doc.get('schema-version')}")
    variables = []
    for entry in doc["variables"]:
        variables.append(
            BnVariable(
                id=entry["id"],
                kind=entry["kind"],
                target=entry["target"],
                fault_class=(
                    FaultClass(entry["fault-class"]) if "fault-class" in entry else None
                ),
                symptom=Symptom(entry["symptom"]) if "symptom" in entry else None,
            )
        )
    variables.sort(key=lambda v: (v.kind, v.id))
    cpts = {}
    for entry in doc["cpts"]:
        cpts[entry["child"]] = NoisyOrCpt(
            child=entry["child"],
            parents=tuple(entry["parents"]),
            link_probabilities=tuple(float(p) for p in entry["link-probabilities"]),
            leak=float(entry["leak"]),
        )
    bn = BayesNet(
        variables=tuple(variables),
        priors={k: float(v) for k, v in doc["priors"].items()},
        cpts=cpts,
    )
    _check_structure(bn)
    return bn


def _check_structure(bn: BayesNet) -> None:
    fault_ids = set(bn.fault_ids)
    symptom_ids = set(bn.symptom_ids)
    for sid in symptom_ids:
        cpt = bn.cpts.get(sid)
        if cpt is None or not cpt.parents:
            raise BnError(f"symptom without parents: {sid}")
        for parent in cpt.parents:
            if parent not in fault_ids:
                raise BnError(f"non-fault parent {parent} of {sid}")
    for fid in fault_ids:
        if not 0.0 < bn.priors.get(fid, 0.0) < 1.0:
            raise BnError(f"fault prior out of (0,1): {fid}")
