"""Benchmark of the hypercore command line on generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # every workload, untraced then traced

Run from the root of a checkout: the package is imported from ``src/`` there.
One process runs one workload as a closed loop with one client: the
workload's CLI tasks (``hypercore.cli.main(argv)``, in process) run one after
another, and the whole list repeats until ``--seconds`` is used up.

With ``--trace 0`` the end-to-end metrics are reported: the median wall time
per CLI call of each task (a task shorter than a second is repeated within a
pass), the set-up time of ``load_hg``, the sum of the task medians and the
peak RSS.  With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from spans recorded around the calls into each module
(see ``tracing.py``).  Every output is checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import tracing
from workloads import ROUTES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
TASK_MIN_S = 0.25  # a task is repeated within a pass until it has taken this long
TASK_MAX_REPS = 20
SETUP_MIN_S = 0.25  # load_hg is repeated at the start of a pass until this long
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 20
# The host's CPU speed drifts by tens of percent over seconds, so every timed
# block is bracketed by a fixed reference loop and its times are scaled to a
# CPU on which that loop takes REF_NOMINAL_S (see README.md).
REF_LOOP = 120_000
REF_REPS = 3
REF_NOMINAL_S = 0.01

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "decompose_s": "s",
    "peak_rss_mb": "MB",
}


def import_hypercore():
    """Import the package from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "hypercore" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/hypercore not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import hypercore

    if Path(hypercore.__file__).resolve().parent != src / "hypercore":
        sys.exit(f"perfbench: imported hypercore from {hypercore.__file__}, not from {src}")
    return hypercore


class Runner:
    """Runs CLI tasks for one workload and keeps the operation accounting."""

    def __init__(self, workload, seed: int, work: Path, input_path: Path):
        from hypercore import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.input = input_path
        self.ops = 0
        self.failures: Counter[str] = Counter()
        self.refused = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.first_digest: dict[str, str] = {}

    def outputs(self, task) -> list[Path]:
        paths = [self.work / f"{task.name}.out"]
        if "--aggregate-out" in task.argv:
            paths.append(self.work / "sir.agg.csv")
        return paths

    def argv(self, task) -> list[str]:
        extra = [a.format(work=self.work, seed=self.seed) for a in task.argv[1:]]
        return [task.subcommand, str(self.input), "--out", str(self.outputs(task)[0])] + extra

    def call(self, task, main=None) -> float | None:
        """One CLI call; its wall time, or None if it failed or was refused."""
        main = main or self.cli.main
        argv = self.argv(task)
        gc.collect()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # any uncaught error, RecursionError included
            rc = type(exc).__name__
        dt = time.perf_counter() - t0
        self.ops += 1
        if rc == 3 and task.may_refuse:
            self.refused += 1
            return None
        if rc != 0:
            reason = f"{task.name}: exit {rc}" if isinstance(rc, int) else f"{task.name}: {rc}"
            self.failures[reason] += 1
            print(f"failed {reason} {err.getvalue().strip()[:200]}", file=sys.stderr)
            return None
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in self.outputs(task))).hexdigest()
        if self.first_digest.setdefault(task.name, digest) != digest:
            self.failures[f"{task.name}: output differs from the first call"] += 1
            return None
        return dt

    def check(self, result: tuple[str, bool, str]) -> None:
        self.ops += 1
        self.checks.append(result)
        if not result[1]:
            self.failures[f"check {result[0]}"] += 1
            print(f"check failed: {result[0]}: {result[2]}", file=sys.stderr)

    def setup_samples(self) -> list[float]:
        from hypercore.model import load_hg

        samples: list[float] = []
        while len(samples) < SETUP_MIN_REPS or (
                sum(samples) < SETUP_MIN_S and len(samples) < SETUP_MAX_REPS):
            gc.collect()
            t0 = time.perf_counter()
            load_hg(str(self.input))
            samples.append(time.perf_counter() - t0)
        return samples

    def repeat(self, task) -> list[float]:
        """Calls of one task until they have taken TASK_MIN_S; a failed call ends them."""
        samples: list[float] = []
        while len(samples) < TASK_MAX_REPS and sum(samples) < TASK_MIN_S:
            dt = self.call(task)
            if dt is None:
                break
            samples.append(dt)
        return samples

    def untraced_pass(self, samples: dict[str, list[float]], raw: dict[str, list[float]]) -> None:
        blocks = [("setup", self.setup_samples)]
        blocks += [(t.name, functools.partial(self.repeat, t)) for t in self.workload.tasks]
        for name, fn in blocks:
            times, scale = bracketed(fn)
            raw[name] += times
            samples[name] += [t * scale for t in times]

    def traced_pass(self, tracer) -> float:
        """Every task once under the tracer; returns the pass's scaled time."""
        total = 0.0
        with tracer.installed():
            for task in self.workload.tasks:
                tracer.task = f"{len(tracer.spans)}:{task.name}"
                main = tracer.wrap(self.cli.main, f"cli.{task.subcommand}")
                dt, tracer.scale[tracer.task] = bracketed(functools.partial(self.call, task, main))
                total += (dt or 0.0) * tracer.scale[tracer.task]
                tracer.finish_task()
        return total

    def plain_pass(self) -> dict[str, float]:
        """Every task once, untraced; the scaled time of each call that succeeded."""
        times = {}
        for task in self.workload.tasks:
            dt, scale = bracketed(functools.partial(self.call, task))
            if dt is not None:
                times[task.name] = dt * scale
        return times

    def output_checks(self, hypercore, expected: dict[str, str]) -> None:
        import checks

        outputs = {t.name: self.outputs(t)[0] for t in self.workload.tasks
                   if t.name in self.first_digest}
        self.check(checks.routes_agree(outputs))
        H = None
        dens = {}
        for name in ("densest_greedy", "densest_exact"):
            if name in outputs:
                H = H or hypercore.load_hg(str(self.input))[0]
                dens[name] = checks.densest_payload(outputs[name])
                self.check(checks.density_matches(H, name, dens[name]))
        if len(dens) == 2:
            self.check(checks.densest_bracket(dens["densest_exact"], dens["densest_greedy"]))
        if self.seed == DEFAULT_SEED:
            exact = dens.get("densest_exact", {}).get("density")
            for result in checks.digests(expected, self.first_digest, exact):
                self.check(result)
        sir = next((t for t in self.workload.tasks if t.subcommand == "sir"), None)
        if sir is not None and sir.name in outputs:
            H = H or hypercore.load_hg(str(self.input))[0]
            runs = int(sir.argv[sir.argv.index("--runs") + 1])
            self.check(checks.sir_outputs(H.n, runs, *self.outputs(sir)))
            self.check(checks.sir_beta_monotone(H, self.seed))


def _reference_loop() -> int:
    s = 0
    for i in range(REF_LOOP):
        s += i * i
    return s


def _reference_times() -> list[float]:
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def bracketed(fn):
    """Run fn between two sets of reference loops.  Returns fn's result and
    the factor REF_NOMINAL_S / (median reference time) that scales the
    times measured inside to the nominal CPU speed."""
    refs = _reference_times()
    result = fn()
    refs += _reference_times()
    return result, REF_NOMINAL_S / statistics.median(refs)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_workload(args) -> int:
    hypercore = import_hypercore()
    wl = WORKLOADS[args.workload]
    env = environment()
    edges = inputs.relabel(random.Random(f"{wl.name}:{args.seed}"), wl.make(random.Random(wl.name)))
    text = inputs.to_hg(edges)
    shape = inputs.shape(edges)
    sha = inputs.sha256(text)
    del edges
    print(f"workload {wl.name} seed {args.seed}: {wl.why}")
    print(f"input sha256 {sha} " + " ".join(f"{k}={v}" for k, v in shape.items()))

    work = BENCH / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    results_dir = BENCH / "results"
    work.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(exist_ok=True)
    try:
        input_path = work / "input.hg"
        input_path.write_text(text, encoding="utf-8")
        del text
        runner = Runner(wl, args.seed, work, input_path)
        expected = json.loads((BENCH / "expected.json").read_text())[wl.name]
        record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env,
                  "input_sha256": sha, "shape": shape}
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, record["spans"] = traced(runner, shape, deadline)
        else:
            metrics = untraced(runner, wl, deadline, record)
        runner.output_checks(hypercore, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    failed = sum(runner.failures.values())
    record.update(ops=runner.ops, failed=failed, refused=runner.refused,
                  failures=dict(runner.failures), checks=runner.checks, metrics=metrics)
    out = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    units = END_TO_END if not args.trace else layer_units()
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ops {runner.ops} failed {failed} refused {runner.refused} "
          f"checks {sum(ok for _, ok, _ in runner.checks)}/{len(runner.checks)} passed; "
          f"record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def untraced(runner, wl, deadline, record) -> dict[str, float]:
    names = ["setup"] + [t.name for t in wl.tasks]
    samples: dict[str, list[float]] = {name: [] for name in names}
    raw: dict[str, list[float]] = {name: [] for name in names}
    passes = 0
    while True:
        t0 = time.perf_counter()
        runner.untraced_pass(samples, raw)
        passes += 1
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    medians = {name: statistics.median(v) for name, v in samples.items() if v}
    for name in names[1:]:
        if name in medians:
            print(f"task {name}_s {medians[name]:.6g} s (median of {len(samples[name])} calls; "
                  f"unscaled wall time {statistics.median(raw[name]):.6g} s)")
    record.update(passes=passes, samples=samples, unscaled_samples=raw)
    return {
        "setup_s": medians.get("setup", 0.0),
        "session_s": sum(medians.get(name, 0.0) for name in names[1:]),
        "decompose_s": sum(medians.get(name, 0.0) for name in ROUTES),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(runner, shape, deadline) -> tuple[dict[str, float], list]:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, counters are taken from the first and must
    repeat exactly in the others."""
    passes: list[dict[str, float]] = []
    overheads: list[float] = []
    task_times: dict[str, list[float]] = {name: [] for name in task_metric_names()}
    all_spans = []
    nesting_ok = True
    while True:
        t0 = time.perf_counter()
        plain = runner.plain_pass()
        for name, t in plain.items():
            task_times[name].append(t)
        tracer = tracing.Tracer()
        overheads.append(runner.traced_pass(tracer) - sum(plain.values()))
        nesting_ok &= spans_nest(tracer.spans, tracing.self_times(tracer.spans))
        passes.append(tracing.session_metrics(tracer.spans, tracer.scale))
        all_spans.append({"scale": tracer.scale, "spans": tracer.spans})
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    counts = [k for k, unit in tracing.LAYER_METRICS.items() if unit == "count"]
    differs = [k for k in counts if any(p[k] != passes[0][k] for p in passes)]
    runner.check(("counters repeat across traced passes", not differs, f"differ: {differs}"))
    runner.check(("spans nest and no self time is negative", nesting_ok, ""))
    changed = [k for k in runner.failures if k.endswith("differs from the first call")]
    runner.check(("traced outputs byte-identical to untraced", not changed, f"{changed}"))
    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if unit == "count":
            metrics[name] = passes[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    for k, v in shape.items():
        metrics[f"model.{k}"] = v
    metrics["trace.overhead_s"] = statistics.median(overheads)
    for name, times in task_times.items():
        metrics[f"task.{name}.s"] = statistics.median(times) if times else 0.0
    return metrics, all_spans


def task_metric_names() -> list[str]:
    """Every task name of every workload, in order: each is reported as
    task.<name>.s by every traced run, 0 where the workload lacks it."""
    return list(dict.fromkeys(t.name for w in WORKLOADS.values() for t in w.tasks))


def layer_units() -> dict[str, str]:
    return tracing.LAYER_METRICS | {f"task.{name}.s": "s" for name in task_metric_names()}


def spans_nest(spans: list[dict], own: list[float]) -> bool:
    """Every span lies inside its parent and starts after its previous
    sibling ended, so a self time is exactly the uncovered part of a span."""
    last_end: dict[int | None, float] = {}
    for s in spans:
        p = s["parent"]
        if p is not None and not (spans[p]["start"] <= s["start"] <= s["end"] <= spans[p]["end"]):
            return False
        if s["start"] < last_end.get(p, float("-inf")):
            return False
        last_end[p] = s["end"]
    return min(own, default=0.0) >= 0.0


def run_all(args) -> int:
    """Every workload, untraced and then traced, each in its own process."""
    import_hypercore()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
