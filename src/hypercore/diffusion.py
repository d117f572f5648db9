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

A step takes one of two forms, which make the same draws and infect the
same targets in the same order:

- A frontier of fewer than BULK_FRONTIER nodes runs a scalar loop over
  Python ints; an np.int64 times GAMMA would overflow.
- A wider frontier draws its attempts in numpy, in uint64 words whose
  products wrap mod 2**64, reading the frontier's neighbor rows with
  `model._rows` in runs of whole nodes of about BULK_SLICE contacts.  It
  drops targets already infected before drawing and marks each target whose
  draw fires once.

The cutoff exists because a numpy step costs some tens of microseconds
whatever its size.  Many tiny runs, such as 100,000 runs on a 3-node path
(frontiers of at most 2 nodes), took about 14 times as long with every step
in numpy (Python 3.11, numpy 2.4, one x86 core).  On runs with wide
frontiers the scalar loop's bigint arithmetic per contact dominates instead.
The runs pay: 60 runs at beta = 1 on a 400-member hyperedge plus 400 pendant
pairs (steps of 160,400 contacts) took 31-32 ms, and 49-53 ms in one pass.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .model import Hypergraph, InputError, _rows, member_lists

BULK_FRONTIER = 4
BULK_SLICE = 2**16


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
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_GAMMA, _U_M1, _U_M2 = np.uint64(_GAMMA), np.uint64(_M1), np.uint64(_M2)


def _run_key(rng_seed: int) -> int:
    # any int, negative or >= 2**64, maps to one 64-bit key on every platform
    try:
        text = str(rng_seed)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise InputError(
            f"rng_seed has more than {sys.get_int_max_str_digits()} digits") from None
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def check_rng_seed(rng_seed: int) -> None:
    """Refuse an rng_seed that `str` cannot render (see `_run_key`)."""
    _run_key(rng_seed)


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer (`splitmix64` in tests/oracles.py) of every
    word of a uint64 array, in place; the products wrap mod 2**64, as
    `& _MASK` does."""
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z


def _bulk_step(
    H: Hypergraph,
    frontier: list[int],
    step: int,
    run_key: int,
    threshold: int,
    infection_time: dict[int, int],
    infected: np.ndarray,
) -> list[int]:
    """One step of `sir_run` with every attempt drawn in numpy.

    The frontier is read in runs of whole nodes, in the scalar loop's order,
    of under BULK_SLICE contacts plus one node's; a target marked by one run
    is dropped from the next.  Marks `infection_time` and `infected`, and
    returns the targets newly infected, in the scalar loop's order."""
    newly: list[int] = []
    if not threshold:  # nothing fires, and threshold - 1 is no uint64
        return newly
    offsets, flat = H.nbr_offsets, H.nbr_flat
    f = np.array(frontier, dtype=np.int64)
    k = _splitmix64_array((f + 1).astype(np.uint64) * _U_GAMMA + np.uint64(run_key))
    # an attempt fires iff its draw is <= last; last = 2**64 - 1 at beta = 1
    last = np.uint64(threshold - 1)
    ends = np.cumsum(offsets[f + 1] - offsets[f])
    cuts = np.searchsorted(ends, np.arange(BULK_SLICE, ends[-1], BULK_SLICE)).tolist()
    for a, b in zip([0] + cuts, cuts + [f.size]):
        v, c = _rows(offsets, flat, f[a:b])
        open_ = ~infected[v]
        v = v[open_]
        z = np.repeat(k[a:b], c)[open_]
        z += (v + 1).astype(np.uint64) * _U_GAMMA
        fresh: list[int] = []
        for x in v[_splitmix64_array(z) <= last].tolist():
            if x not in infection_time:
                infection_time[x] = step
                fresh.append(x)
        infected[fresh] = True
        newly += fresh
    return newly


def sir_run(
    H: Hypergraph,
    seed: int,
    beta: float,
    max_steps: int = 100,
    rng_seed: int = 0,
) -> SirOutcome:
    """One SIR run from node `seed`: each infectious node attempts each
    susceptible neighbor once, with probability beta, for at most
    max_steps steps.  The draws are the keyed hashes of the module
    docstring under rng_seed, so a run is a function of its arguments.
    beta outside [0, 1], a negative max_steps, an unknown seed or an
    rng_seed too long for `str` raises InputError."""
    check_beta(beta)
    if max_steps < 0:
        raise InputError(f"max_steps must be >= 0, got {max_steps}")
    seed = H._check_node(seed)

    run_key = _run_key(rng_seed)
    # an attempt fires iff its draw is below this; 2**64 at beta = 1
    threshold = int(beta * 2**53) << 11
    offsets, flat = H.nbr_offsets, H.nbr_flat
    infection_time = {seed: 0}
    bulk = BULK_FRONTIER
    infected = None  # infection_time's keys as a mask, from the first bulk step on
    frontier = [seed]
    step = 0
    while frontier and step < max_steps:
        step += 1
        if len(frontier) >= bulk:
            if infected is None:
                infected = np.zeros(H.n, dtype=bool)
                infected[list(infection_time)] = True
            frontier = _bulk_step(
                H, frontier, step, run_key, threshold, infection_time, infected)
            continue
        newly: list[int] = []
        for u in frontier:
            # k_u = splitmix64(run_key + (u + 1) * _GAMMA mod 2**64), inlined; the
            # reference splitmix64 and attempt_draw are in tests/oracles.py
            k_u = (run_key + (u + 1) * _GAMMA) & _MASK
            k_u = ((k_u ^ (k_u >> 30)) * _M1) & _MASK
            k_u = ((k_u ^ (k_u >> 27)) * _M2) & _MASK
            k_u ^= k_u >> 31
            for v in flat[offsets[u] : offsets[u + 1]].tolist():
                if v in infection_time:
                    continue
                # attempt_draw(rng_seed, u, v), inlined
                z = (k_u + (v + 1) * _GAMMA) & _MASK
                z = ((z ^ (z >> 30)) * _M1) & _MASK
                z = ((z ^ (z >> 27)) * _M2) & _MASK
                if z ^ (z >> 31) < threshold:
                    infection_time[v] = step
                    newly.append(v)
        if infected is not None:
            infected[newly] = True
        frontier = newly
    return SirOutcome(set(infection_time), infection_time, len(infection_time))


def intervention_delete(H: Hypergraph, ranked_nodes: list[int], top_k: int) -> Hypergraph:
    """Delete the top_k ranked nodes together with every incident hyperedge.

    The result is rebuilt from the surviving edges, so nodes left without any
    edge are stripped per the usual build rules; deleting enough nodes can
    yield an empty hypergraph."""
    if top_k < 0:
        raise InputError(f"top_k must be >= 0, got {top_k}")
    doomed = {H._check_node(v) for v in ranked_nodes[:top_k]}
    kept = [[H.labels[v] for v in e] for e in member_lists(H) if doomed.isdisjoint(e)]
    if not kept:  # build rejects an empty edge list
        return Hypergraph([], [], [])
    return model.build(kept)[0]
