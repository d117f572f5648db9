"""Command-line surface.  Subcommands: decompose, kdcore, densest, sir, gen, stats.

Exit codes: 0 ok, 2 input error, 3 guard violation.  All output is
deterministic given the flags; node order in TSV output follows first-seen
label order from the input file, with stripped isolated nodes reported at
core 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import stat
import sys
from collections import Counter

import numpy as np

from . import diffusion, gen, kdcore, densest as densest_mod
from .localcore import MAX_THREADS, LocalCoreOptions, local_core
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


class _StdoutClosed(Exception):
    """The reader of stdout closed it before the output was complete."""


@contextlib.contextmanager
def _written(path: str, newline: str | None = None, *, keep_on_error: bool = True):
    """`path` as a UTF-8 text file, written over in place and cut at the end.

    Opened with no O_TRUNC, since truncating a non-empty file can cost tens
    of milliseconds (ext4 mounted with `discard`).  On exit it is flushed and
    a regular file is cut at the OS position, also when a write failed, so it
    holds exactly the bytes written; devices and pipes are never cut.  With
    `keep_on_error` false, an OSError raised in the block (a failed write of
    another file included) cuts it to nothing instead."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    # a descriptor, not a path: "w" here opens nothing and truncates nothing
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        end = None
        try:
            yield fh
        except OSError:
            if not keep_on_error:
                end = 0
            raise
        finally:
            try:
                fh.flush()
            finally:
                if regular:
                    end = os.lseek(fd, 0, os.SEEK_CUR) if end is None else end
                    if end < os.fstat(fd).st_size:  # a cut never lengthens the file
                        os.ftruncate(fd, end)


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path`, written by `_written`, or stdout when no path is
    given.

    Stdout is flushed on exit, so a reader that leaves early (`| head`) is
    seen here, as `_StdoutClosed`, and not at interpreter exit; a failing
    write to `path` stays an OSError."""
    if path:
        with _written(path) as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        raise _StdoutClosed from None


def _check_distinct(side: str | None, flag: str, out: str | None) -> None:
    """Refuse a sidecar path that names the table's file, which the later
    writer would write over: --out's file (through a link too, or one path
    not yet created), or with no --out the regular file that stdout writes
    to (`> F` with `/dev/stdout` or F itself).  Devices such as /dev/null
    and pipes may take both, and a stdout with no descriptor is no file."""
    if not side:
        return
    if out:
        try:
            same = os.path.samefile(side, out) and stat.S_ISREG(os.stat(out).st_mode)
        except OSError:  # a path not yet created
            same = os.path.realpath(side) == os.path.realpath(out)
        if same:
            raise InputError(f"{flag} and --out name one file: {side}")
        return
    try:
        table = os.fstat(sys.stdout.fileno())
        same = stat.S_ISREG(table.st_mode) and os.path.samestat(os.stat(side), table)
    except OSError:  # no descriptor (io.UnsupportedOperation), or a path not yet created
        same = False
    if same:
        raise InputError(f"{flag} names the file that stdout writes to: {side}")


def cmd_decompose(args) -> int:
    # a bad thread count or one path for both outputs is refused before the
    # input is read, an unwritable path before any work, the sidecar's first
    # so --out is left as it was; a table that fails to write leaves the
    # sidecar empty, not reading like a finished run's
    opts = LocalCoreOptions(threads=args.threads)
    _check_distinct(args.stats, "--stats", args.out)
    H, report = _load(args.input, args.lenient)
    with (_written(args.stats, keep_on_error=False) if args.stats
          else contextlib.nullcontext()) as fh, _output(args.out) as out:
        if args.algorithm == "peel":
            res = peel(H)
        elif args.algorithm == "epeel":
            res = e_peel(H)
        elif args.algorithm == "local":
            res = local_core(H, opts)
        elif args.algorithm == "naive-h":
            res = gen.naive_graph_h_index(H)
        elif args.algorithm == "degree":
            res = kdcore.degree_core(H)
        else:  # clique
            res = gen.clique_graph_core(H)
        if fh:  # written before the table
            sidecar = {"algorithm": args.algorithm, "counters": res.counters}
            if res.report is not None:
                sidecar["rounds"] = res.report.rounds
                sidecar["corrected_per_round"] = res.report.corrected_per_round
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()  # a full disk fails here, before any row is printed
        for v in range(H.n):
            out.write(f"{H.labels[v]}\t{res.core[v]}\n")
        for lab in report.isolated_labels:
            out.write(f"{lab}\t0\n")
    return 0


def cmd_kdcore(args) -> int:
    H, _ = _load(args.input, args.lenient)
    result = kdcore.kd_decompose(H)
    labels, core = H.labels, result.core
    with _output(args.out) as out:
        for k in range(1, result.kmax + 1):
            tag = f"\t{k}\t"
            nodes, dk = np.flatnonzero(core >= k).tolist(), result.levels[k].tolist()
            out.write("".join([f"{labels[v]}{tag}{d}\n" for v, d in zip(nodes, dk)]))
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
    with _output(args.out) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


def cmd_sir(args) -> int:
    for flag in ("delete_top_k", "runs", "max_steps"):
        if getattr(args, flag) < 0:
            raise InputError(f"--{flag.replace('_', '-')} must be >= 0")
    diffusion.check_beta(args.beta)
    _check_distinct(args.aggregate_out, "--aggregate-out", args.out)
    if args.runs:
        # run i hashes rng_seed + i as a string; the longest is at an end
        diffusion.check_rng_seed(args.rng_seed)
        diffusion.check_rng_seed(args.rng_seed + args.runs - 1)
    H, _ = _load(args.input, args.lenient)
    if args.seed_node is not None and args.seed_node not in H.label_to_id:
        raise InputError(f"unknown seed node {args.seed_node!r}")
    if args.delete_top_k:
        cores = local_core(H).core
        ranked = sorted(range(H.n), key=lambda v: (-cores[v], v))
        H = diffusion.intervention_delete(H, ranked, args.delete_top_k)
        if args.seed_node is not None and args.seed_node not in H.label_to_id:
            raise InputError(f"seed node {args.seed_node!r} was deleted by --delete-top-k")
    # with no node to seed, the outputs get what --runs 0 writes
    count = args.runs if H.n else 0
    cores = local_core(H).core

    rng = gen.seeded_random(args.rng_seed)
    fixed = None if args.seed_node is None else H.label_to_id[args.seed_node]
    runs: Counter[int] = Counter()  # seed core -> runs
    spread: Counter[int] = Counter()  # seed core -> summed spread
    # opened before the first run, the aggregate first, so an unwritable path
    # prints no table and leaves --out as it was
    with (_written(args.aggregate_out, newline="")
          if args.aggregate_out else contextlib.nullcontext()) as fh, _output(args.out) as out:
        out.write("run\tseed\tcore\tspread\n")
        for i in range(count):
            # each run draws its seed as it starts, so --runs allocates nothing
            s = rng.randrange(H.n) if fixed is None else fixed
            outcome = diffusion.sir_run(
                H, s, args.beta, max_steps=args.max_steps, rng_seed=args.rng_seed + i)
            out.write(f"{i}\t{H.labels[s]}\t{cores[s]}\t{outcome.spread}\n")
            runs[cores[s]] += 1
            spread[cores[s]] += outcome.spread
        if fh:
            w = csv.writer(fh)
            w.writerow(["core", "runs", "mean_spread"])
            for c in sorted(runs):
                w.writerow([c, runs[c], spread[c] / runs[c]])
    if H.n == 0:
        print("hypergraph is empty: no node to seed", file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    H = gen.random_hypergraph(args.n, args.m, args.card_min, args.card_max, args.rng_seed)
    with _output(args.out) as out:
        out.write(serialize_hg(H))
    return 0


def _mean_sd(values: list[int]) -> tuple[float | None, float | None]:
    """Mean and population sd; None for both when there is nothing to average."""
    if not values:
        return None, None
    mean = sum(values) / len(values)
    var = sum((x - mean) ** 2 for x in values) / len(values)
    return mean, math.sqrt(var)


def cmd_stats(args) -> int:
    H, report = _load(args.input, args.lenient)
    degs = np.diff(H.inc_offsets).tolist()
    cards = np.diff(H.edge_offsets).tolist()
    nbrs = np.diff(H.nbr_offsets).tolist()
    payload = {
        "nodes": H.n,
        "edges": len(cards),
        "isolated_dropped": len(report.isolated_labels),
        "degree": dict(zip(("mean", "sd"), _mean_sd(degs))),
        "cardinality": dict(zip(("mean", "sd"), _mean_sd(cards))),
        "neighbors": dict(zip(("mean", "sd"), _mean_sd(nbrs))),
    }
    with _output(args.out) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
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
                   help="local: split each round into this many node blocks, run on "
                        f"as many threads, at most one per CPU (1 to {MAX_THREADS})")
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
                   help="delete this many nodes of highest core number "
                        "(and their incident edges) first")
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
    except _StdoutClosed:
        # nobody reads the rest: end quietly, with the unflushed remainder
        # sent to /dev/null so the exit-time flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
