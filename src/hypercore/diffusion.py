"""Discrete SIR diffusion over the hypergraph neighbor structure.

Every infectious node makes one Bernoulli(beta) attempt per susceptible
neighbor, then immunizes; newly infected nodes become infectious the
following step.  The uniform draw for an attempt is derived
deterministically from (rng_seed, attacker, target), so runs are
reproducible and, for a fixed rng_seed, the infected set grows
monotonically with beta (an attempt fires iff its uniform < beta).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import model
from .model import GuardError, Hypergraph, InputError

ENUMERATION_ATTEMPT_GUARD = 20


@dataclass
class SirOutcome:
    infected: set[int]
    infection_time: dict[int, int]  # seed at step 0
    spread: int


def _attempt_uniform(rng_seed: int, u: int, v: int) -> float:
    # random.Random seeds strings via SHA-512: stable across runs and platforms
    return random.Random(f"{rng_seed}:{u}:{v}").random()


def sir_run(
    H: Hypergraph,
    seed: int,
    beta: float,
    max_steps: int = 100,
    rng_seed: int = 0,
) -> SirOutcome:
    if not 0 <= beta <= 1:
        raise InputError(f"beta must be in [0, 1], got {beta}")
    H._check_node(seed)

    infection_time = {seed: 0}
    infected = {seed}
    frontier = [seed]
    step = 0
    while frontier and step < max_steps:
        step += 1
        newly: list[int] = []
        for u in sorted(frontier):
            for v in H.neighbors(u):
                if v in infected:
                    continue
                if _attempt_uniform(rng_seed, u, v) < beta:
                    infected.add(v)
                    infection_time[v] = step
                    newly.append(v)
        frontier = newly
    return SirOutcome(infected, infection_time, len(infected))


def sir_expected_spread(H: Hypergraph, seed: int, beta: Fraction) -> Fraction:
    """Exact expected spread by recursion over every attempt outcome.

    Guarded by the total number of potential directed contacts; only tiny
    fixtures are enumerable."""
    beta = Fraction(beta)
    if not 0 <= beta <= 1:
        raise InputError(f"beta must be in [0, 1], got {beta}")
    H._check_node(seed)
    potential = sum(H.neighbor_count(v) for v in range(H.n))
    if potential > ENUMERATION_ATTEMPT_GUARD:
        raise GuardError(
            f"enumeration guard: {potential} potential attempts > {ENUMERATION_ATTEMPT_GUARD}")

    def recurse(frontier: tuple[int, ...], infected: frozenset[int]) -> Fraction:
        if not frontier:
            return Fraction(len(infected))
        attempts = [
            (u, v)
            for u in sorted(frontier)
            for v in H.neighbors(u)
            if v not in infected
        ]

        def branch(i: int, newly: frozenset[int]) -> Fraction:
            if i == len(attempts):
                return recurse(tuple(sorted(newly)), infected | newly)
            u, v = attempts[i]
            if v in newly:  # already infected this step by an earlier attacker
                return branch(i + 1, newly)
            return beta * branch(i + 1, newly | {v}) + (1 - beta) * branch(i + 1, newly)

        return branch(0, frozenset())

    return recurse((seed,), frozenset({seed}))


def intervention_delete(H: Hypergraph, ranked_nodes: list[int], top_k: int) -> Hypergraph:
    """Delete the top_k ranked nodes together with every incident hyperedge.

    The result is rebuilt from the surviving edges, so nodes left without any
    edge are stripped per the usual build rules; deleting enough nodes can
    yield an empty hypergraph."""
    doomed = set(ranked_nodes[:top_k])
    kept = [[H.labels[v] for v in e] for e in H.edges if not any(v in doomed for v in e)]
    if not kept:  # build rejects an empty edge list
        return Hypergraph([], [])
    return model.build(kept)[0]
