"""Output checks on the files the CLI tasks wrote.

Each check returns ``(name, ok, detail)``; the runner counts every check as
one operation.  They call the library directly and run outside any timed or
traced region.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

from hypercore import densest, diffusion
from workloads import ROUTES

# Outputs that are unique by definition, so their digest at the default seed is fixed.
DIGESTED = ("decompose_local", "decompose_degree", "kdcore")


def _cores(path: Path) -> dict[str, int]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        label, core = line.split("\t")
        out[label] = int(core)
    return out


def routes_agree(outputs: dict[str, Path]) -> tuple[str, bool, str]:
    maps = {name: _cores(outputs[name]) for name in ROUTES if name in outputs}
    first = next(iter(maps.values()), {})
    differ = [name for name, m in maps.items() if m != first]
    detail = f"{len(maps)} routes, {len(first)} labels"
    return "decompose routes agree", not differ and len(maps) == len(ROUTES), \
        detail + (f"; differ: {differ}" if differ else "")


def digests(expected: dict[str, str], observed: dict[str, str],
            exact_density: str | None) -> list[tuple[str, bool, str]]:
    """Compare the sha256 of each output in DIGESTED, and the exact density,
    with their recorded values."""
    got = {name: observed.get(name) for name in DIGESTED}
    got["densest_exact_density"] = exact_density
    return [(f"digest {name}", got.get(name) == want, f"expected {want}, got {got.get(name)}")
            for name, want in expected.items()]


def densest_payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def density_matches(H, name: str, payload: dict) -> tuple[str, bool, str]:
    """The reported density equals volume_density of the reported members."""
    members = [H.label_to_id[lab] for lab in payload["members"]]
    recomputed = densest.volume_density(H, members)
    reported = Fraction(payload["density"])
    return (f"{name} density = volume_density(members)", recomputed == reported,
            f"reported {reported}, recomputed {recomputed}")


def densest_bracket(exact: dict, greedy: dict) -> tuple[str, bool, str]:
    """exact >= greedy >= exact / factor, the greedy guarantee."""
    e, g, f = Fraction(exact["density"]), Fraction(greedy["density"]), Fraction(greedy["factor"])
    return "exact >= greedy >= exact/factor", e >= g >= e / f, f"exact {e}, greedy {g}, factor {f}"


def sir_outputs(n: int, runs: int, out: Path, agg: Path) -> tuple[str, bool, str]:
    """Every spread lies in [1, n], and the aggregate CSV matches the run table."""
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    spreads = [int(r[3]) for r in rows]
    per_core: dict[int, list[int]] = {}
    for r in rows:
        per_core.setdefault(int(r[2]), []).append(int(r[3]))
    with agg.open(encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))[1:]
    agg_ok = sorted(per_core) == [int(c) for c, _, _ in table] and all(
        int(k) == len(per_core[int(c)]) and float(m) == sum(per_core[int(c)]) / int(k)
        for c, k, m in table)
    ok = len(spreads) == runs and all(1 <= s <= n for s in spreads) and agg_ok
    return "sir spreads in [1, n], aggregate consistent", ok, \
        f"{len(spreads)} runs, spread {min(spreads, default=0)}..{max(spreads, default=0)}, n {n}"


def sir_beta_monotone(H, seed: int, pairs: int = 3) -> tuple[str, bool, str]:
    """For a fixed rng_seed the infected set at beta 0.2 is a subset of the
    set at beta 0.3."""
    rng = random.Random(seed)
    bad = []
    for i in range(pairs):
        s = rng.randrange(H.n)
        low = diffusion.sir_run(H, s, 0.2, rng_seed=seed + i).infected
        high = diffusion.sir_run(H, s, 0.3, rng_seed=seed + i).infected
        if not low <= high:
            bad.append(H.labels[s])
    return "sir infected set monotone in beta", not bad, f"{pairs} seed nodes, violations {bad}"
