"""Exact posterior oracles for leaky noisy-OR diagnosis networks.

Independent of `sdnheal.bndiag`: the network is read only as data
(priors, and each symptom's parents, link probabilities and leak), and
no inference code is shared.

Given evidence, unobserved symptoms are barren and drop out. A negative
finding s contributes P(s=0 | faults) = (1-leak) * prod over its active
parents f of (1-p_sf), which factorises into one unary term per parent.
So a fault with no positive child is independent of every other fault
given the evidence, and its posterior has a closed form:

    P(f | e) = pi*q / ((1-pi) + pi*q),  q = prod over negative children of (1-p_sf)

The other faults couple only through positive findings. Positive
findings that share a parent form connected components, which are
independent given the evidence. Each component is solved exactly by
enumerating its faults' joint states when there are few faults, or by
Quickscore (Heckerman 1989) over its positive findings when there are
few of those and the alternating sum keeps enough digits. A component
that fits neither is reported as not covered.
"""

from __future__ import annotations

import math

import numpy as np

ENUM_MAX_FAULTS = 22     # 2^22 joint states, enumerated in blocks
QUICKSCORE_MAX_POSITIVES = 16
QUICKSCORE_MAX_ERROR = 1e-10  # estimated relative rounding error allowed
_BLOCK_BITS = 13          # keeps the oracle's own arrays near 1 MiB


def oracle_marginals(bn, evidence: dict[str, bool]) -> dict[str, float]:
    """P(fault = true | evidence) for every fault the oracle covers."""
    faults = list(bn.priors)
    positives = sorted(s for s, v in evidence.items() if v)
    q = {f: 1.0 for f in faults}
    for sid, value in evidence.items():
        if not value:
            cpt = bn.cpts[sid]
            for parent, p in zip(cpt.parents, cpt.link_probabilities):
                q[parent] *= 1.0 - p
    # w[f] = (weight of f false, weight of f true) after absorbing negatives
    w = {f: (1.0 - bn.priors[f], bn.priors[f] * q[f]) for f in faults}

    out: dict[str, float] = {}
    positive_parents = set()
    for sid in positives:
        positive_parents.update(bn.cpts[sid].parents)
    for f in faults:
        if f not in positive_parents:
            off, on = w[f]
            out[f] = on / (off + on)
    for comp_faults, comp_positives in _components(bn, positives):
        findings = [
            (1.0 - bn.cpts[s].leak,
             {f: 1.0 - p for f, p in zip(bn.cpts[s].parents, bn.cpts[s].link_probabilities)})
            for s in comp_positives
        ]
        if len(comp_faults) <= ENUM_MAX_FAULTS:
            out.update(_enumerate(comp_faults, findings, w))
        elif len(comp_positives) <= QUICKSCORE_MAX_POSITIVES:
            out.update(_quickscore(comp_faults, findings, w))
    return out


def _components(bn, positives: list[str]) -> list[tuple[list[str], list[str]]]:
    """Connected components of positive findings linked by shared parents."""
    owner: dict[str, int] = {}
    groups: list[set[str]] = []
    for sid in positives:
        joined = {owner[f] for f in bn.cpts[sid].parents if f in owner}
        merged = {sid}
        for g in joined:
            merged |= groups[g]
            groups[g] = set()
        groups.append(merged)
        for member in merged:
            for f in bn.cpts[member].parents:
                owner[f] = len(groups) - 1
    comps = []
    for group in groups:
        if group:
            comp_faults = sorted({f for s in group for f in bn.cpts[s].parents})
            comps.append((comp_faults, sorted(group)))
    return comps


def _enumerate(comp_faults, findings, w) -> dict[str, float]:
    """Sum the component's unnormalised joint over all fault states."""
    n = len(comp_faults)
    index = {f: i for i, f in enumerate(comp_faults)}
    block = min(n, _BLOCK_BITS)
    low = np.arange(2**block, dtype=np.int64)
    total = 0.0
    on_mass = np.zeros(n)
    for high in range(2 ** (n - block)):
        states = low | (high << block)
        bits = ((states[:, None] >> np.arange(n)) & 1).astype(bool)
        weight = np.ones(len(states))
        for f, i in index.items():
            off, on = w[f]
            weight *= np.where(bits[:, i], on, off)
        for keep_off, miss in findings:
            none_fire = np.full(len(states), keep_off)
            for f, m in miss.items():
                none_fire *= np.where(bits[:, index[f]], m, 1.0)
            weight *= 1.0 - none_fire
        total += math.fsum(weight)
        on_mass += weight @ bits
    return {f: float(on_mass[i] / total) for f, i in index.items()}


def _subset_products(values: list[float]) -> np.ndarray:
    """Product of the chosen values for every subset; bit j of the index chooses j."""
    out = np.ones(1)
    for v in values:
        out = np.concatenate((out, out * v))
    return out


def _quickscore(comp_faults, findings, w) -> dict[str, float]:
    """Inclusion-exclusion over subsets of the component's positive findings.

    P(all positive) = sum over subsets S of (-1)^|S| P(all of S negative),
    and P(S negative) factorises over faults. Returns nothing when the
    estimated cancellation error exceeds QUICKSCORE_MAX_ERROR.
    """
    k = len(findings)

    def bracket(f):  # f's factor of P(S negative): (f off, f on) for every S
        off, on = w[f]
        return off, on * _subset_products([m.get(f, 1.0) for _, m in findings])

    common = _subset_products([-1.0] * k) * _subset_products([keep for keep, _ in findings])
    for f in comp_faults:
        off, on_miss = bracket(f)
        common *= off + on_miss
    z = math.fsum(common)
    scale = float(np.abs(common).sum())
    if z <= 0.0 or 1.1e-16 * (len(comp_faults) + k + 2) * scale / z > QUICKSCORE_MAX_ERROR:
        return {}
    out = {}
    for f in comp_faults:  # recomputed rather than kept: one array per fault is too much
        off, on_miss = bracket(f)
        out[f] = math.fsum(common * (on_miss / (off + on_miss))) / z
    return out
