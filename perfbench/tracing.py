"""Span tracing of the library, installed from outside it.

``Tracer.installed()`` replaces the module attributes through which the CLI
and the library modules call each other with wrappers that record one span
per call: name, start, end, parent span and task id.  Nothing under ``src/``
changes; leaving the context restores every original attribute.  Spans stay
in memory until the benchmark writes them out.

Work counters are read from each call's arguments and result after the
enclosing task has finished, so that reading them does not land in any span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from fractions import Fraction


def _core_counts(args, kwargs, res) -> dict:
    counts = dict(res.counters)
    if res.report is not None:
        counts["rounds"] = res.report.rounds
    return counts


def _local_core_name(args, kwargs) -> str:
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    threads = opts.threads if opts is not None else 1
    return "localcore.local_core" if threads == 1 else f"localcore.local_core_threads{threads}"


def _kd_counts(args, kwargs, res) -> dict:
    return {"kmax": res.kmax, "lattice_entries": sum(len(lv) for lv in res.levels.values())}


def _exact_counts(args, kwargs, res) -> dict:
    """Binary-search probes of exact_densest, recomputed from n and the
    initial bracket [total/n, total] that the method halves until it is
    narrower than 1/(2 n^2)."""
    H = args[0]
    total = sum(H.neighbor_count(v) for v in range(H.n))
    width = Fraction(total) - Fraction(total, H.n)
    delta = Fraction(1, 2 * H.n * H.n)
    probes = 0
    while width >= delta:
        width /= 2
        probes += 1
    return {"probes": probes}


def _sir_counts(args, kwargs, res) -> dict:
    """Spread, and the contacts the run could attempt: the sum of |N(u)| over
    nodes that were infectious before the step limit (an upper bound on the
    draws made, which skip targets already infected)."""
    H = args[0]
    max_steps = args[4] if len(args) > 4 else kwargs.get("max_steps", 100)
    contacts = sum(H.neighbor_count(v) for v, t in res.infection_time.items() if t < max_steps)
    return {"infected": res.spread, "contacts": contacts}


# (module, attribute, span name or naming function, counter function)
PATCHES = (
    ("hypercore.cli", "load_hg", "model.load_hg", None),
    ("hypercore.model", "parse_hg", "model.parse_hg", None),
    ("hypercore.model", "build", "model.build", None),
    ("hypercore.model", "Hypergraph.__init__", "model.Hypergraph", None),
    ("hypercore.cli", "peel", "peel.peel", _core_counts),
    ("hypercore.densest", "peel", "peel.peel", _core_counts),
    ("hypercore.cli", "e_peel", "peel.e_peel", _core_counts),
    ("hypercore.cli", "local_core", _local_core_name, _core_counts),
    ("hypercore.kdcore", "local_core", _local_core_name, _core_counts),
    ("hypercore.kdcore", "kd_decompose", "kdcore.kd_decompose", _kd_counts),
    ("hypercore.kdcore", "degree_core", "kdcore.degree_core", None),
    ("hypercore.densest", "greedy_densest", "densest.greedy_densest", None),
    ("hypercore.densest", "guarantee_factor", "densest.guarantee_factor", None),
    ("hypercore.densest", "exact_densest", "densest.exact_densest", _exact_counts),
    ("hypercore.densest", "volume_density", "densest.volume_density", None),
    ("hypercore.diffusion", "sir_run", "diffusion.sir_run", _sir_counts),
    ("hypercore.diffusion", "intervention_delete", "diffusion.intervention_delete", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pending: list[tuple[dict, object, tuple, dict, object]] = []
        self.task: str | None = None
        # task id -> factor that scales its span times to the nominal CPU speed
        self.scale: dict[str, float] = {}

    def wrap(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name if isinstance(name, str) else name(args, kwargs),
                "task": tracer.task,
                "parent": tracer._stack[-1] if tracer._stack else None,
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                tracer._pending.append((rec, count, args, kwargs, result))
            return result

        return wrapper

    def finish_task(self) -> None:
        """Read the counters of the calls made by the task that just ended."""
        for rec, count, args, kwargs, result in self._pending:
            rec["counts"] = count(args, kwargs, result)
        self._pending.clear()

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod, attr, name, count in PATCHES:
                owner = importlib.import_module(mod)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
                saved.append((owner, last, original))
                setattr(owner, last, self.wrap(original, name, count))
            yield self
        finally:
            for owner, last, original in reversed(saved):
                setattr(owner, last, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Per-layer metrics of one traced session, by name and unit.  Every name is
# reported for every workload; a layer a workload does not run reads 0.
LAYER_METRICS = {
    "model.load_hg.s": "s",
    "model.parse_hg.s": "s",
    "model.build.s": "s",
    "model.Hypergraph.s": "s",
    "model.nodes": "count",
    "model.edges": "count",
    "model.incidences": "count",
    "model.pair_rows": "count",
    "model.d_pair": "count",
    "model.d_card": "count",
    "peel.peel.s": "s",
    "peel.peel.neighborhood_recomputations": "count",
    "peel.peel.cell_updates": "count",
    "peel.e_peel.s": "s",
    "peel.e_peel.neighborhood_recomputations": "count",
    "peel.e_peel.cell_updates": "count",
    "localcore.local_core.s": "s",
    "localcore.local_core.calls": "count",
    "localcore.local_core.rounds": "count",
    "localcore.local_core.h_operator_evals": "count",
    "localcore.local_core.correction_iterations": "count",
    "localcore.local_core.lccsat_edge_scans": "count",
    "localcore.local_core_threads2.s": "s",
    "localcore.local_core_threads2.rounds": "count",
    "kdcore.kd_decompose.s": "s",
    "kdcore.kd_decompose.self_s": "s",
    "kdcore.kd_decompose.kmax": "count",
    "kdcore.kd_decompose.lattice_entries": "count",
    "kdcore.degree_core.s": "s",
    "densest.greedy_densest.s": "s",
    "densest.greedy_densest.self_s": "s",
    "densest.guarantee_factor.s": "s",
    "densest.exact_densest.s": "s",
    "densest.exact_densest.probes": "count",
    "densest.exact_densest.refused": "count",
    "densest.volume_density.s": "s",
    "diffusion.sir_run.s": "s",
    "diffusion.sir_run.calls": "count",
    "diffusion.sir_run.p50_ms": "ms",
    "diffusion.sir_run.p90_ms": "ms",
    "diffusion.sir_run.infected": "count",
    "diffusion.sir_run.contacts": "count",
    "diffusion.intervention_delete.s": "s",
    "cli.decompose.self_s": "s",
    "cli.kdcore.self_s": "s",
    "cli.densest.self_s": "s",
    "cli.sir.self_s": "s",
    "trace.overhead_s": "s",
}

_SELF_TIMED = ("kdcore.kd_decompose", "densest.greedy_densest")


def session_metrics(spans: list[dict], scale: dict[str, float]) -> dict[str, float]:
    """Per-layer times (seconds summed over calls, each scaled by its task's
    factor) and counters (summed over calls) of one traced session.  Shape
    counts and the tracing overhead are added by the caller."""
    out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
    sir_ms = []
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        dur = (s["end"] - s["start"]) * scale[s["task"]]
        self_s = own * scale[s["task"]]
        if name.startswith("cli."):
            out[f"{name}.self_s"] += self_s
            continue
        out[f"{name}.s"] += dur
        if name in _SELF_TIMED:
            out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if name == "diffusion.sir_run":
            sir_ms.append(dur * 1e3)
        if name == "densest.exact_densest" and s.get("error") == "GuardError":
            out["densest.exact_densest.refused"] += 1
        for k, v in s.get("counts", {}).items():
            out[f"{name}.{k}"] = out.get(f"{name}.{k}", 0) + v
    if sir_ms:
        q = statistics.quantiles(sir_ms, n=10, method="inclusive")
        out["diffusion.sir_run.p50_ms"] = statistics.median(sir_ms)
        out["diffusion.sir_run.p90_ms"] = q[8]
    return {k: v for k, v in out.items() if k in LAYER_METRICS}
