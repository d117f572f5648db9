"""Discrete SIR diffusion over the hypergraph neighbor structure.

Every infectious node makes one Bernoulli(beta) attempt per susceptible
neighbor, then immunizes; newly infected nodes become infectious the
following step.  The draw for an attempt is a counter-based hash of
(rng_seed, attacker, target), in the style of Random123 (Salmon et al.,
SC'11) and SplitMix (Steele, Lea & Flood, OOPSLA 2014):

    run_key = blake2b(str(rng_seed), 8-byte digest), read little-endian
    k_u     = splitmix64(run_key + (u + 1) * GAMMA mod 2**64)
    draw    = splitmix64(k_u + (v + 1) * GAMMA mod 2**64)

where GAMMA = 0x9E3779B97F4A7C15 and splitmix64 is the standard finalizer.
The attempt u -> v fires iff draw < int(beta * 2**53) << 11, an integer
threshold that grows with beta, so beta = 1 always fires, beta = 0 never
does, and for a fixed rng_seed the infected set grows monotonically with
beta.  Each draw depends on its own (u, v) only, so a run is a BFS from the
seed over the edges whose draw fires, cut at max_steps, whatever the order
in which attackers are visited.
"""

from __future__ import annotations

import hashlib
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


def check_beta(beta) -> None:
    if not 0 <= beta <= 1:
        raise InputError(f"beta must be in [0, 1], got {beta}")


_GAMMA = 0x9E3779B97F4A7C15  # the splitmix64 increment, 2**64 / golden ratio
_MASK = 2**64 - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _splitmix64(z: int) -> int:
    """The splitmix64 finalizer of a 64-bit word."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _run_key(rng_seed: int) -> int:
    # any int, negative or >= 2**64, maps to one 64-bit key on every platform
    digest = hashlib.blake2b(str(rng_seed).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _attempt_draw(rng_seed: int, u: int, v: int) -> int:
    """The 64-bit draw of the attempt u -> v; `sir_run` inlines it."""
    k_u = _splitmix64((_run_key(rng_seed) + (u + 1) * _GAMMA) & _MASK)
    return _splitmix64((k_u + (v + 1) * _GAMMA) & _MASK)


def sir_run(
    H: Hypergraph,
    seed: int,
    beta: float,
    max_steps: int = 100,
    rng_seed: int = 0,
) -> SirOutcome:
    check_beta(beta)
    if max_steps < 0:
        raise InputError(f"max_steps must be >= 0, got {max_steps}")
    H._check_node(seed)

    run_key = _run_key(rng_seed)
    # an attempt fires iff its draw is below this; 2**64 at beta = 1
    threshold = int(beta * 2**53) << 11
    offsets, flat = H.nbr_offsets, H.nbr_flat
    infection_time = {seed: 0}
    frontier = [seed]
    step = 0
    while frontier and step < max_steps:
        step += 1
        newly: list[int] = []
        for u in frontier:
            k_u = _splitmix64((run_key + (u + 1) * _GAMMA) & _MASK)
            for v in flat[offsets[u] : offsets[u + 1]]:
                if v in infection_time:
                    continue
                # _attempt_draw(rng_seed, u, v), inlined
                z = (k_u + (v + 1) * _GAMMA) & _MASK
                z = ((z ^ (z >> 30)) * _M1) & _MASK
                z = ((z ^ (z >> 27)) * _M2) & _MASK
                if z ^ (z >> 31) < threshold:
                    infection_time[v] = step
                    newly.append(v)
        frontier = newly
    return SirOutcome(set(infection_time), infection_time, len(infection_time))


def sir_expected_spread(H: Hypergraph, seed: int, beta: Fraction) -> Fraction:
    """Exact expected spread by recursion over every attempt outcome.

    Guarded by the total number of potential directed contacts; only tiny
    fixtures are enumerable."""
    check_beta(beta)
    beta = Fraction(beta)
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
    if top_k < 0:
        raise InputError(f"top_k must be >= 0, got {top_k}")
    doomed = set(ranked_nodes[:top_k])
    kept = [[H.labels[v] for v in e] for e in H.edges if not any(v in doomed for v in e)]
    if not kept:  # build rejects an empty edge list
        return Hypergraph([], [])
    return model.build(kept)[0]
