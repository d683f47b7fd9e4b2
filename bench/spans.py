"""Out-of-process-boundary tracing for the benchmark.

The tracer wraps the public functions each rawtime module calls into and
records one span per call: ``(id, parent id, name, start ns, end ns, note)``.
Nothing under ``src/`` knows about it; the wrappers are installed by
``Tracer.install`` and removed by ``Tracer.remove``.  Spans stay in memory and
are folded into per-layer metrics by ``layer_metrics`` when the run ends.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, object]] = []
        self._stack = [0]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """Return ``fn`` recording a span per call.

        ``note(args, kwargs)`` runs before the clock starts and returns the
        value stored with the span, or a callable that maps the call's result
        to that value after the clock stops.
        """
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            info = note(args, kwargs) if note is not None else None
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if callable(info):
                info = info(result)
            spans.append((sid, parent, name, start, end, info))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def install(self) -> None:
        """Wrap the layer boundaries of rawtime."""
        import rawtime.chains
        import rawtime.cli
        import rawtime.manifest
        import rawtime.planner

        def live_states(args, kwargs):
            return int(np.count_nonzero(args[0].p))

        def chain_outcome(args, kwargs):
            def resolve(result):
                return (
                    result.diagnostics.t_stop,
                    result.p_a.durations.size,
                    0 if result.p_b is None else result.p_b.durations.size,
                )
            return resolve

        self.patch(rawtime.chains, "build_tx_prob_table", "txprob")
        self.patch(rawtime.chains, "step_process_a", "layers.a", live_states)
        self.patch(rawtime.chains, "step_process_b", "layers.b", live_states)
        self.patch(rawtime.cli, "run_chains", "chains", chain_outcome)
        self.patch(rawtime.planner, "run_chains", "chains", chain_outcome)
        self.patch(rawtime.planner, "merge_weighted", "mixture")
        self.patch(rawtime.planner.DistributionCache, "pa", "cache", lambda a, k: a[1])
        self.patch(rawtime.planner.DistributionCache, "pb", "cache", lambda a, k: a[1])
        self.patch(rawtime.cli, "simulate", "simulate", lambda a, k: a[0].runs)
        self.patch(rawtime.manifest.RunManifest, "write_for", "manifest")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass; layers a workload does not reach
    read 0."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        child_ns[parent] += end - start
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def busy_s(name: str) -> float:
        return sum(end - start for _, _, _, start, end, _ in by_name[name]) / 1e9 / passes

    def self_s(name: str) -> float:
        total = sum(end - start - child_ns[sid] for sid, _, _, start, end, _ in by_name[name])
        return total / 1e9 / passes

    out: dict[str, float] = {
        "txprob.builds": len(by_name["txprob"]) / passes,
        "txprob.build_s": busy_s("txprob"),
    }
    for proc in ("a", "b"):
        steps = by_name[f"layers.{proc}"]
        step_us = sorted((end - start) / 1e3 for _, _, _, start, end, _ in steps)
        live = [note for *_, note in steps]
        total_ns = sum(end - start for _, _, _, start, end, _ in steps)
        prefix = f"layers.{proc}."
        out[prefix + "steps"] = len(steps) / passes
        out[prefix + "busy_s"] = total_ns / 1e9 / passes
        out[prefix + "step_us_p50"] = statistics.median(step_us) if step_us else 0.0
        out[prefix + "step_us_p99"] = _percentile(step_us, 0.99)
        out[prefix + "live_states_mean"] = statistics.fmean(live) if live else 0.0
        out[prefix + "live_states_peak"] = max(live, default=0)
        out[prefix + "ns_per_state"] = total_ns / sum(live) if sum(live) else 0.0

    chains = by_name["chains"]
    out["chains.runs"] = len(chains) / passes
    out["chains.layers"] = sum(note[0] for *_, note in chains) / passes
    out["chains.atoms_a"] = sum(note[1] for *_, note in chains) / passes
    out["chains.atoms_b"] = sum(note[2] for *_, note in chains) / passes
    out["chains.self_s"] = self_s("chains")

    lookups = by_name["cache"]
    cache_ids = {span[0] for span in lookups}
    misses = sum(1 for span in chains if span[1] in cache_ids)
    out["planner.lookups"] = len(lookups) / passes
    out["planner.chain_runs"] = misses / passes
    out["planner.hit_ratio"] = (len(lookups) - misses) / len(lookups) if lookups else 0.0
    out["planner.mixtures"] = len(by_name["mixture"]) / passes
    out["planner.mixture_self_s"] = self_s("mixture")
    out["planner.k_max"] = max((note for *_, note in lookups), default=0)

    sims = by_name["simulate"]
    sim_s = busy_s("simulate")
    out["simulate.calls"] = len(sims) / passes
    out["simulate.busy_s"] = sim_s
    out["simulate.runs_per_s"] = sum(note for *_, note in sims) / passes / sim_s if sims else 0.0

    out["cli.self_s"] = self_s("cli")
    out["manifest.writes"] = len(by_name["manifest"]) / passes
    out["manifest.write_s"] = busy_s("manifest")
    return out
