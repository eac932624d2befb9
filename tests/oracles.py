"""Test oracles for `sdnheal.bndiag` that only the tests run.

`quickscore_marginals` shares no code with the engine's inference paths.
The brute-force oracle, `bndiag.enumerate_joint`, stays in the package,
since the benchmark's own tests import it from there.
"""

from __future__ import annotations

import math

import numpy as np

from sdnheal.bndiag import (
    BayesNet,
    BnError,
    EvidenceMap,
    ImpossibleEvidenceError,
    Posterior,
)


QUICKSCORE_MAX_POSITIVES = 16


def quickscore_marginals(bn: BayesNet, evidence: EvidenceMap) -> Posterior:
    """Second reference oracle: Quickscore (Heckerman 1989).

    P(F+ positive, F- negative) is the alternating sum, over subsets S of
    the positive findings F+, of (-1)^|S| P(S and F- all negative), and
    P(a set of findings all negative) factorizes over the faults. Costs
    2^|F+| terms, so it refuses more than 16 positive findings. The sum
    loses digits to cancellation when the evidence is improbable (1e-7 on
    a 10-node network whose positive findings only near-ruled-out faults
    explain), so a disagreement with it needs a third opinion. For the
    same reason it is no reference for overlapping faults under
    closed-world or partial evidence: two or three rare faults at once make
    such evidence improbable, and the alternating sum then cancels: on 144
    closed-world incidents of two or three faults on random 8- to 30-node
    topologies, 41 of its answers were off by more than 1e-9, by up to
    7e-7. The tests that use it as their only oracle inject single faults.
    Unlike
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
