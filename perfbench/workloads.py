"""The benchmark workloads: a hypergraph structure and an ordered list of CLI tasks each.

``make`` draws the structure from a generator seeded with the workload name;
the run seed only relabels it (see ``inputs.relabel``).  A task is one
``hypercore <subcommand>`` call; the runner appends the input file and
``--out``.  ``{work}`` in an argument is replaced by the run's work
directory and ``{seed}`` by the run seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import inputs


@dataclass(frozen=True)
class Task:
    name: str  # reported as <name>_s, and as task.<name>.s by a traced run
    argv: tuple[str, ...]
    # the guard refusal (exit 3) is the expected answer today; an answer
    # with exit 0 is checked like any other
    may_refuse: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random], list[tuple[int, ...]]]
    tasks: tuple[Task, ...]


# The four routes that must give identical core numbers.
DECOMPOSE = (
    Task("decompose_local", ("decompose", "--algorithm", "local")),
    Task("decompose_threads2", ("decompose", "--algorithm", "local", "--threads", "2")),
    Task("decompose_peel", ("decompose", "--algorithm", "peel")),
    Task("decompose_epeel", ("decompose", "--algorithm", "epeel")),
)
ROUTES = tuple(t.name for t in DECOMPOSE)
KDCORE = Task("kdcore", ("kdcore",))
GREEDY = Task("densest_greedy", ("densest", "--method", "greedy"))
EXACT = Task("densest_exact", ("densest", "--method", "exact"))
SIR = Task("sir", ("sir", "--beta", "0.25", "--runs", "100", "--delete-top-k", "10",
                   "--rng-seed", "{seed}", "--aggregate-out", "{work}/sir.agg.csv"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-large",
            "parse/build and the peel and local-core engines do nearly all the work; "
            "kdcore, densest and diffusion do none",
            lambda rng: inputs.uniform_edges(rng, 20_000, 40_000, 2, 4),
            DECOMPOSE,
        ),
        Workload(
            "mixed-wide",
            "residual-neighbor peeling in kd and greedy dominates; three wide edges "
            "hold about 42% of the pair rows; exact densest is refused today",
            lambda rng: inputs.uniform_edges(rng, 1_500, 3_000, 2, 6, wide=(140, 85, 55)),
            (KDCORE, GREEDY, Task("densest_exact", EXACT.argv, may_refuse=True))
            + DECOMPOSE
            + (Task("decompose_degree", ("decompose", "--algorithm", "degree")),),
        ),
        Workload(
            "linear-sir",
            "pair-disjoint edges (d_pair = 1), the only shape on which exact densest "
            "answers; 100 SIR runs load diffusion",
            lambda rng: inputs.pair_disjoint_edges(rng, 400, 1_000, 2, 4),
            (EXACT, GREEDY, SIR, KDCORE) + DECOMPOSE,
        ),
    )
}
