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
  products wrap mod 2**64.  A run's first numpy step hashes k_u for every
  node at once into one per-run array, beside the counter terms
  (v + 1) * GAMMA (`_node_keys`); each numpy step indexes the keys by its
  frontier and the terms by its targets.  It reads the frontier's neighbor
  rows with `model._rows` in runs of whole nodes of about BULK_SLICE
  contacts and drops targets already infected before drawing.  It keeps
  the first firing attempt on each target by a reversed scatter into a
  per-run n-vector, the mark: the last write to a slot comes from its
  earliest position.

A run that reaches a numpy step therefore pays Θ(n) once, however few nodes
it infects: the keys, the counter terms, the mark and the infected mask,
25 bytes per node.

The cutoff exists because a numpy step costs some tens of microseconds
whatever its size.  Many tiny runs, such as 100,000 runs on a 3-node path
(frontiers of at most 2 nodes), took about 14 times as long with every step
in numpy (Python 3.11, numpy 2.4, one x86 core).  On runs with wide
frontiers the scalar loop's bigint arithmetic per contact dominates instead.
The runs of BULK_SLICE contacts bound a step's temporaries.  60 runs at
beta = 1 on a 400-member hyperedge plus 400 pendant pairs (steps of 160,400
contacts) took 53-55 ms in runs and 53-56 ms in one pass (Python 3.11,
numpy 2.4, a shared 2-CPU x86 host).
"""

from __future__ import annotations

import hashlib
import numbers
import operator
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
    # a float is let through by its type: isinstance against numbers.Real
    # takes about 0.4 µs, a tenth of a run on a 3-node path
    if type(beta) is not float and not isinstance(beta, numbers.Real):
        raise InputError(f"beta must be a real number, got {beta!r}")
    if not 0 <= beta <= 1:
        raise InputError(f"beta must be in [0, 1], got {beta}")


def _check_count(name: str, value) -> int:
    """`value` as a Python int >= 0 (`operator.index`), or InputError."""
    try:
        if (value := operator.index(value)) >= 0:
            return value
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    raise InputError(f"{name} must be >= 0, got {value}")


_GAMMA = 0x9E3779B97F4A7C15  # the splitmix64 increment, 2**64 / golden ratio
_MASK = 2**64 - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_GAMMA, _U_M1, _U_M2 = np.uint64(_GAMMA), np.uint64(_M1), np.uint64(_M2)


def _run_key(rng_seed: int) -> int:
    # any int, negative or >= 2**64, maps to one 64-bit key on every platform
    try:
        text = str(operator.index(rng_seed))
    except TypeError:
        raise InputError(f"rng_seed must be an integer, got {rng_seed!r}") from None
    except ValueError:  # past sys.get_int_max_str_digits()
        raise InputError(
            f"rng_seed has more than {sys.get_int_max_str_digits()} digits") from None
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def check_rng_seed(rng_seed: int) -> None:
    """Refuse an rng_seed that is not an integer or that `str` cannot
    render (see `_run_key`)."""
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


def _node_keys(run_key: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The run's per-node uint64 words for every node u < n: the counter
    term (u + 1) * GAMMA mod 2**64, which each draw adds for its target, and
    the key k_u = splitmix64(run_key + (u + 1) * GAMMA mod 2**64)."""
    gammas = np.arange(1, n + 1, dtype=np.uint64) * _U_GAMMA
    return gammas, _splitmix64_array(gammas + np.uint64(run_key))


def _bulk_step(
    H: Hypergraph,
    frontier: list[int],
    step: int,
    gammas: np.ndarray,
    keys: np.ndarray,
    last: np.uint64,
    infection_time: dict[int, int],
    infected: np.ndarray,
    mark: np.ndarray,
) -> list[int]:
    """One step of `sir_run` with every attempt drawn in numpy.

    An attempt u -> v fires iff splitmix64(keys[u] + gammas[v]) <= last.
    The frontier is read in runs of whole nodes, in the scalar loop's order,
    of under BULK_SLICE contacts plus one node's; a target marked by one run
    is dropped from the next.  Within a run, the first firing attempt on each
    target is found by a reversed scatter into `mark`, a per-run n-vector:
    the last write to a slot is from its earliest position.  Marks
    `infection_time` and `infected`, and returns the targets newly infected,
    in the scalar loop's order."""
    offsets, flat = H.nbr_offsets, H.nbr_flat
    f = np.array(frontier, dtype=np.int64)
    k = keys[f]
    cuts: list[int] = []
    if flat.size > BULK_SLICE:  # else every frontier fits in one run
        ends = np.cumsum(offsets[f + 1] - offsets[f])
        if ends[-1] > BULK_SLICE:
            cuts = np.searchsorted(ends, np.arange(BULK_SLICE, ends[-1], BULK_SLICE)).tolist()
    newly: list[int] = []
    for a, b in zip([0] + cuts, cuts + [f.size]):
        v, c = _rows(offsets, flat, f[a:b])
        open_ = ~infected[v]
        v = v[open_]
        z = np.repeat(k[a:b], c)[open_]
        z += gammas[v]
        hit = v[_splitmix64_array(z) <= last]
        at = np.arange(hit.size)
        # a repeated index keeps its last write, as numpy assigns a 1-d index
        # in order; the shared-target tests fail if it does not
        mark[hit[::-1]] = at[::-1]
        fresh = hit[mark[hit] == at]
        infected[fresh] = True
        newly += fresh.tolist()
    infection_time.update(dict.fromkeys(newly, step))
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
    A beta that is not a real number in [0, 1], a max_steps that is not an
    integer >= 0, an unknown seed, and an rng_seed that is not an integer or
    is too long for `str` raise InputError.

    A run that reaches a numpy step pays Θ(n) there, once: the infected
    mask, the per-node keys and counter terms (`_node_keys`) and the mark,
    25 bytes per node."""
    check_beta(beta)
    try:  # inline: a call costs about 1.5 % of a run on a 3-node path
        if (max_steps := operator.index(max_steps)) < 0:
            raise InputError(f"max_steps must be >= 0, got {max_steps}")
    except TypeError:
        raise InputError(f"max_steps must be an integer, got {max_steps!r}") from None
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
                if not threshold:  # nothing fires, and threshold - 1 is no uint64
                    break
                infected = np.zeros(H.n, dtype=bool)
                infected[list(infection_time)] = True
                gammas, keys = _node_keys(run_key, H.n)
                # an attempt fires iff its draw is <= last; 2**64 - 1 at beta = 1
                last = np.uint64(threshold - 1)
                mark = np.empty(H.n, dtype=np.int64)
            frontier = _bulk_step(
                H, frontier, step, gammas, keys, last, infection_time, infected, mark)
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
    yield an empty hypergraph.  A top_k that is not an integer >= 0 raises
    InputError."""
    top_k = _check_count("top_k", top_k)
    doomed = {H._check_node(v) for v in ranked_nodes[:top_k]}
    kept = [[H.labels[v] for v in e] for e in member_lists(H) if doomed.isdisjoint(e)]
    if not kept:  # build rejects an empty edge list
        return Hypergraph([], [], [])
    return model.build(kept)[0]
