"""Command-line surface.  Subcommands: decompose, kdcore, densest, sir, gen, stats.

Exit codes: 0 ok, 2 input error, 3 guard violation.  All output is
deterministic given the flags; node order in TSV output follows first-seen
label order from the input file, with stripped isolated nodes reported at
core 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys

from . import diffusion, gen, kdcore, densest as densest_mod
from .localcore import LocalCoreOptions, local_core, naive_graph_h_index
from .model import (
    GuardError,
    Hypergraph,
    InputError,
    SingletonPolicy,
    load_hg,
    serialize_hg,
)
from .peel import e_peel, peel


def _load(path: str, lenient: bool):
    policy = SingletonPolicy.DROP if lenient else SingletonPolicy.REJECT
    return load_hg(path, policy)


def _out_stream(path: str | None):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def cmd_decompose(args) -> int:
    H, report = _load(args.input, args.lenient)
    opts = LocalCoreOptions(use_opt3=not args.no_opt3, threads=args.threads)
    if args.algorithm == "peel":
        res = peel(H)
    elif args.algorithm == "epeel":
        res = e_peel(H)
    elif args.algorithm == "local":
        res = local_core(H, opts)
    elif args.algorithm == "naive-h":
        res = naive_graph_h_index(H)
    elif args.algorithm == "degree":
        res = kdcore.degree_core(H)
    else:  # clique
        res = gen.clique_graph_core(H)

    out = _out_stream(args.out)
    try:
        for v in range(H.n):
            out.write(f"{H.labels[v]}\t{res.core[v]}\n")
        for lab in report.isolated_labels:
            out.write(f"{lab}\t0\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.stats:
        sidecar = {"algorithm": args.algorithm, "counters": res.counters}
        if res.report is not None:
            sidecar["rounds"] = res.report.rounds
            sidecar["corrected_per_round"] = res.report.corrected_per_round
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_kdcore(args) -> int:
    H, _ = _load(args.input, args.lenient)
    result = kdcore.kd_decompose(H)
    out = _out_stream(args.out)
    try:
        for k in range(1, result.kmax + 1):
            for v in sorted(result.levels[k]):
                out.write(f"{H.labels[v]}\t{k}\t{result.levels[k][v]}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_densest(args) -> int:
    H, _ = _load(args.input, args.lenient)
    if args.method == "greedy":
        res = densest_mod.greedy_densest(H)
    elif args.method == "exact":
        res = densest_mod.exact_densest(H)
    else:
        res = densest_mod.brute_force_densest(H)
    payload = {
        "method": res.method,
        "density": f"{res.density.numerator}/{res.density.denominator}",
        "density_float": float(res.density),
        "factor": f"{res.factor.numerator}/{res.factor.denominator}",
        "size": len(res.nodes),
        "members": sorted(H.labels[v] for v in res.nodes),
    }
    out = _out_stream(args.out)
    try:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_sir(args) -> int:
    H, _ = _load(args.input, args.lenient)
    if args.delete_top_k:
        cores = local_core(H).core
        ranked = sorted(range(H.n), key=lambda v: (-cores[v], v))
        H = diffusion.intervention_delete(H, ranked, args.delete_top_k)
        if H.n == 0:
            print("hypergraph is empty after deletion", file=sys.stderr)
            return 0
    cores = local_core(H).core

    if args.seed_node is not None:
        if args.seed_node not in H.label_to_id:
            raise InputError(f"unknown seed node {args.seed_node!r}")
        seeds = [H.label_to_id[args.seed_node]] * args.runs
    else:
        rng = random.Random(args.rng_seed)
        seeds = [rng.randrange(H.n) for _ in range(args.runs)]

    out = _out_stream(args.out)
    per_core: dict[int, list[int]] = {}
    try:
        out.write("run\tseed\tcore\tspread\n")
        for i, s in enumerate(seeds):
            outcome = diffusion.sir_run(
                H, s, args.beta, max_steps=args.max_steps, rng_seed=args.rng_seed + i)
            out.write(f"{i}\t{H.labels[s]}\t{cores[s]}\t{outcome.spread}\n")
            per_core.setdefault(cores[s], []).append(outcome.spread)
    finally:
        if out is not sys.stdout:
            out.close()
    if args.aggregate_out:
        with open(args.aggregate_out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["core", "runs", "mean_spread"])
            for c in sorted(per_core):
                vals = per_core[c]
                w.writerow([c, len(vals), sum(vals) / len(vals)])
    return 0


def cmd_gen(args) -> int:
    H = gen.random_hypergraph(args.n, args.m, args.card_min, args.card_max, args.rng_seed)
    text = serialize_hg(H)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _mean_sd(values: list[int]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    var = sum((x - mean) ** 2 for x in values) / len(values)
    return mean, math.sqrt(var)


def cmd_stats(args) -> int:
    H, report = _load(args.input, args.lenient)
    degs = [H.degree(v) for v in range(H.n)]
    cards = [len(e) for e in H.edges]
    nbrs = [H.neighbor_count(v) for v in range(H.n)]
    payload = {
        "nodes": H.n,
        "edges": len(H.edges),
        "isolated_dropped": len(report.isolated_labels),
        "degree": dict(zip(("mean", "sd"), _mean_sd(degs))),
        "cardinality": dict(zip(("mean", "sd"), _mean_sd(cards))),
        "neighbors": dict(zip(("mean", "sd"), _mean_sd(nbrs))),
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercore",
        description="Neighborhood-based hypergraph core decomposition and friends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="input .hg file (one hyperedge per line)")
        p.add_argument("--lenient", action="store_true",
                       help="drop singleton edges instead of rejecting the file")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("decompose", help="core decomposition, TSV node<TAB>core")
    add_input(p)
    p.add_argument("--algorithm", default="local",
                   choices=["peel", "epeel", "local", "naive-h", "degree", "clique"])
    p.add_argument("--threads", type=int, default=1,
                   help="local: more than 1 runs the Jacobi engine on this many threads")
    p.add_argument("--no-opt3", action="store_true",
                   help="local: run the Jacobi engine instead of the fused one")
    p.add_argument("--stats", metavar="PATH", help="write counters/rounds JSON sidecar")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("kdcore", help="(neighborhood, degree)-cores, TSV node<TAB>k<TAB>d")
    add_input(p)
    p.set_defaults(func=cmd_kdcore)

    p = sub.add_parser("densest", help="volume-densest subhypergraph, JSON")
    add_input(p)
    p.add_argument("--method", default="exact", choices=["greedy", "exact", "brute"])
    p.set_defaults(func=cmd_densest)

    p = sub.add_parser("sir", help="SIR diffusion runs, TSV + aggregate CSV")
    add_input(p)
    p.add_argument("--seed-node", help="seed label; default: random seed per run")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--delete-top-k", type=int, default=0,
                   help="delete this many top-ranked nodes (and incident edges) first")
    p.add_argument("--rank-by", default="core", choices=["core"],
                   help="ranking used by --delete-top-k")
    p.add_argument("--aggregate-out", metavar="PATH",
                   help="write mean spread per seed-core bucket as CSV")
    p.set_defaults(func=cmd_sir)

    p = sub.add_parser("gen", help="generate a random hypergraph as .hg")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--card-min", type=int, default=2)
    p.add_argument("--card-max", type=int, default=4)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="basic distribution statistics, JSON")
    add_input(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
