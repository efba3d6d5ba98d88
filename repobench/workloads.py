"""The four workloads and the metrics they report.

Each workload builds its inputs from the seed during set-up, then repeats
the same jobs until ``--seconds`` are used up: a pass is one check of the
workload's corpus (on ``serve-warm``, the whole run).  A *job* is the
piece of work one caller waits for: one unit's check on ``cold-corpus``
and ``warm-recheck``, one submitted job on ``serve-warm``.  A clustered
archive run hands every verdict back at once, so on ``archive`` a job's
latency is the pass time divided by its units.

Every time is in host-normalised units (see :mod:`repobench.hostprobe`):
a job's latency is scaled by the speed of a fixed reference measured next
to it.  A job's latency is the median of its repeats, and the latency
percentiles are taken over jobs.  ``slo_ratio`` counts every repeat (a
failed one misses the SLO).  ``units_per_s`` is jobs over the sum of
their latencies (on ``archive``: units over the median pass).
"""

from __future__ import annotations

import importlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import CheckEngine, CheckerConfig, EngineConfig, check_corpus
from repro.cluster.synthetic import synthetic_cluster_corpus

from repobench import corpus, hostprobe, layers

#: Renderings of the corpus the warm re-check cycles through.
WARM_RENDERINGS = 10
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Worker processes that fill solver-query caches during set-up.
SETUP_WORKERS = 2
#: A job whose latency is at most this many ms meets the SLO.
SLO_MS = 500.0

#: Archive: renderings of each paper snippet, and generated MiniC templates
#: (one unstable and one stable per scenario) each instantiated
#: ARCHIVE_FUZZ_COPIES times.
ARCHIVE_SNIPPET_COPIES = 2
ARCHIVE_FUZZ_QUOTA = {True: 1, False: 1}
ARCHIVE_FUZZ_COPIES = 4
#: Generated scenarios in the archive.  Two MiniC scenarios are left out
#: because repairing one of their unstable programs takes seconds
#: (signed_overflow_chain: about 6 s; macro_loop_bounds: 20 s, four 5 s
#: wall-clock solver timeouts in the repair verifier), which would make
#: one archive pass longer than a run.
ARCHIVE_SCENARIOS = ("pointer_guard_order", "array_index_guard",
                     "oversized_shift", "struct_field_access",
                     "division_order")
ARCHIVE_WORKERS = 2


#: Paper snippets left out of the archive.  Repairing
#: signed_add_sanity_check takes 6-8 s on a two-vCPU host, more than the
#: rest of the archive together, and whether the repair succeeds depends
#: on the wall-clock ``solver_timeout`` (with 1 s instead of 5 s both of
#: its repairs fail): a machine-speed-dependent long pole that would leave
#: two or three passes per run.
ARCHIVE_SKIPPED_SNIPPETS = ("signed_add_sanity_check",)


@dataclass
class Outcome:
    """What one workload measured."""

    attempted: int = 0
    failed: int = 0              # failed/timed-out/rejected/mismatched jobs
    mismatches: int = 0          # known-answer mismatches
    #: Host-normalised latency (ms) of every successful repeat, by job.
    repeats_ms: Dict[object, List[float]] = field(default_factory=dict)
    #: Set by workloads whose throughput is not jobs over their latencies.
    units_per_s: Optional[float] = None
    #: (wall stamp, CPU seconds) slices of the host-speed reference.
    probe_samples: List[tuple] = field(default_factory=list)
    passes: int = 0
    measured_wall: float = 0.0
    workers: int = 1
    digests: List[str] = field(default_factory=list)
    #: Exact work counters per pass (traced sequential runs).
    pass_counters: List[tuple] = field(default_factory=list)
    #: Per-pass totals of the engine's run statistics.
    stats: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-layer metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Merged layer totals of a traced run.
    trace: Optional[Dict[str, object]] = None
    problems: List[str] = field(default_factory=list)

    def job(self, key: object, latency_ms: float, ok: bool) -> None:
        """Account one repeat of job ``key``."""
        self.attempted += 1
        if ok:
            self.repeats_ms.setdefault(key, []).append(latency_ms)
        else:
            self.failed += 1

    def record_pass(self, start: float, end: float) -> None:
        self.measured_wall += end - start
        self.passes += 1

    def job_ms(self) -> List[float]:
        """Each job's latency: the median of its successful repeats."""
        return [statistics.median(values)
                for values in self.repeats_ms.values()]

    @property
    def correct(self) -> bool:
        return (self.mismatches == 0 and not self.problems
                and len(set(self.digests)) <= 1
                and len(set(self.pass_counters)) <= 1)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- shared pass loop ----------------------------------------------------------------


EXACT_COUNTERS = ("sat.conflicts", "sat.decisions", "sat.propagations",
                  "bitblast.clauses")


def run_passes(outcome: Outcome, seconds: float,
               one_pass: Callable[[], None],
               recorder: Optional[layers.Recorder],
               exact: bool = True) -> None:
    """Run passes until ``seconds`` are used.

    ``one_pass`` checks the corpus once and accounts its jobs on
    ``outcome``.  With ``exact`` (in-process checking), a traced run also
    records each pass's exact work counters, which must then be identical
    on every pass.
    """
    deadline = time.perf_counter() + seconds
    while outcome.passes == 0 or time.perf_counter() < deadline:
        before = recorder.totals() if recorder is not None else None
        started = time.perf_counter()
        one_pass()
        outcome.record_pass(started, time.perf_counter())
        if before is not None and exact:
            delta = layers.difference(recorder.totals(), before)
            calls = delta["times"].get("sat", [0])[0]
            outcome.pass_counters.append(
                (calls,) + tuple(delta["counts"].get(name, 0)
                                 for name in EXACT_COUNTERS))


def check_units(outcome: Outcome, engine: CheckEngine, items, units,
                reference: hostprobe.Reference,
                records: Optional[List[str]] = None) -> None:
    """Check ``units`` one call each on ``engine``, against known answers.

    The ``i``-th unit is job ``i``: every rendering of one item is one
    job repeated.  A reference slice is taken between every two units,
    and a unit's latency is scaled by the mean of the slices on its two
    sides.
    """
    before = reference.slice()
    outcome.probe_samples.append(before)
    for index, (item, unit) in enumerate(zip(items, units)):
        tag = unit.name.rsplit("__", 1)[1]
        started = time.perf_counter()
        result = engine.check_corpus([unit]).results[0]
        elapsed = time.perf_counter() - started
        after = reference.slice()
        outcome.probe_samples.append(after)
        latency_ms = elapsed * 1000.0 \
            * hostprobe.scale((before[1] + after[1]) / 2.0)
        before = after
        mismatch = result.ok and \
            corpus.flagged(result.report) != item.expected_unstable
        outcome.mismatches += mismatch
        ok = result.ok and result.report.timeouts == 0 and not mismatch
        outcome.job(index, latency_ms, ok)
        if result.escalated:
            add_stats(outcome, {"escalated_units": 1})
        if records is not None:
            records.append(corpus.normalised_record(result, tag))


def add_stats(outcome: Outcome, values: Dict[str, float]) -> None:
    for name, value in values.items():
        outcome.stats[name] = outcome.stats.get(name, 0) + value


# -- cold-corpus / warm-recheck ------------------------------------------------------


class ColdCorpus:
    """Sequential check of the corpus with a fresh in-memory cache per pass."""

    name = "cold-corpus"

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.items = corpus.snippet_items() + corpus.fuzz_items(self.seed)

    def measure(self, seconds: float,
                recorder: Optional[layers.Recorder]) -> Outcome:
        outcome = Outcome()
        reference = hostprobe.Reference()

        def one_pass() -> None:
            units = corpus.render(self.items, 0)
            records: List[str] = []
            engine = CheckEngine(EngineConfig(workers=0))
            check_units(outcome, engine, self.items, units, reference,
                        records)
            outcome.digests.append(corpus.verdict_digest(records))

        run_passes(outcome, seconds, one_pass, recorder)
        return outcome


class WarmRecheck(ColdCorpus):
    """Sequential re-check of fresh renderings against a cache filled in set-up."""

    name = "warm-recheck"

    def setup(self) -> None:
        super().setup()
        # Fill the cache on a two-worker pool, then hand it to the
        # sequential engine the passes use.
        filler = CheckEngine(EngineConfig(workers=SETUP_WORKERS))
        filler.check_corpus(corpus.render(self.items, 0))
        self.engine = CheckEngine(EngineConfig(workers=0))
        self.engine.cache.absorb(filler.cache.snapshot())

    def measure(self, seconds: float,
                recorder: Optional[layers.Recorder]) -> Outcome:
        outcome = Outcome()
        reference = hostprobe.Reference()

        def one_pass() -> None:
            rendering = 1 + outcome.passes % WARM_RENDERINGS
            units = corpus.render(self.items, rendering)
            records: List[str] = []
            check_units(outcome, self.engine, self.items, units, reference,
                        records)
            outcome.digests.append(corpus.verdict_digest(records))

        run_passes(outcome, seconds, one_pass, recorder)
        return outcome


# -- archive ---------------------------------------------------------------------------


class Archive:
    """Clustered, witness-validating, repairing check on a process pool."""

    name = "archive"

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def setup(self) -> None:
        # Load the stage 5/6 modules here, so the forked pool workers
        # inherit them instead of importing them again on every pass.
        importlib.import_module("repro.exec.witness")
        importlib.import_module("repro.repair")
        templates = [snippet for snippet in corpus.SNIPPET_TEMPLATES
                     if snippet.name not in ARCHIVE_SKIPPED_SNIPPETS]
        units = synthetic_cluster_corpus(
            ARCHIVE_SNIPPET_COPIES * len(templates), seed=self.seed,
            snippets=templates)
        answers = {s.name: s.is_unstable for s in templates}
        self.expected = [answers[name.split("__", 1)[0]] for name, _ in units]
        items = corpus.fuzz_items(self.seed, scenarios=ARCHIVE_SCENARIOS,
                                  minic_quota=ARCHIVE_FUZZ_QUOTA)
        for copy in range(ARCHIVE_FUZZ_COPIES):
            for index, item in enumerate(items):
                unit = item.unit(corpus.tag_for(copy, index))
                units.append((unit.name, unit.source))
                self.expected.append(item.expected_unstable)
        self.units = units
        self.config = CheckerConfig(cluster=True, validate_witnesses=True,
                                    repair=True)

    def measure(self, seconds: float,
                recorder: Optional[layers.Recorder]) -> Outcome:
        outcome = Outcome(workers=ARCHIVE_WORKERS)
        pass_seconds: List[float] = []
        reference = hostprobe.Reference()
        probe_dir = os.path.join(self.run_dir, "probes")
        os.makedirs(probe_dir, exist_ok=True)

        def one_pass() -> None:
            # Slices of the parent, which compiles, clusters and propagates,
            # on both sides of the pass; the workers slice before each unit.
            before = reference.slice()
            started = time.perf_counter()
            result = check_corpus(self.units, config=self.config,
                                  workers=ARCHIVE_WORKERS)
            ended = time.perf_counter()
            after = reference.slice()
            outcome.probe_samples += [before, after]
            speed = hostprobe.mean_slice(
                [before, after] + hostprobe.load_probes(probe_dir),
                before[0], after[0])
            pass_s = (ended - started) * hostprobe.scale(speed)
            pass_seconds.append(pass_s)
            per_unit_ms = pass_s * 1000.0 / len(self.units)
            for index, (unit, expected) in enumerate(zip(result.results,
                                                         self.expected)):
                mismatch = unit.ok and \
                    corpus.flagged(unit.report) != expected
                outcome.mismatches += mismatch
                ok = unit.ok and unit.report.timeouts == 0 and not mismatch
                outcome.job(index, per_unit_ms, ok)
            stats = result.stats
            add_stats(outcome, {
                "escalated_units": stats.escalated_units,
                "cluster.functions": stats.cluster_functions,
                "cluster.propagated": stats.cluster_propagated,
                "cluster.fallbacks": stats.cluster_fallbacks,
                "exec.witnesses": stats.witnesses_confirmed
                + stats.witnesses_unconfirmed + stats.witnesses_inconclusive,
                "exec.confirmed": stats.witnesses_confirmed,
                "repair.attempted": stats.repairs_attempted,
                "repair.repaired": stats.repairs_succeeded,
            })

        if recorder is None:
            with hostprobe.probing_workers(probe_dir):
                run_passes(outcome, seconds, one_pass, recorder, exact=False)
        else:                     # the traced run reports no scaled times
            run_passes(outcome, seconds, one_pass, recorder, exact=False)
        outcome.units_per_s = len(self.units) / statistics.median(pass_seconds)
        outcome.probe_samples += hostprobe.load_probes(probe_dir)
        return outcome


# -- metrics ---------------------------------------------------------------------------

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "units_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p95_ms": ("ms", "lower"),
    "slo_ratio": ("ratio", "higher"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  Times are
#: self time per pass, counts are per pass.
PER_LAYER = {
    "frontend.parse_s": ("s", "lower"),
    "frontend.sema_s": ("s", "lower"),
    "frontend.lower_s": ("s", "lower"),
    "frontend.inline_s": ("s", "lower"),
    "frontend.units": ("count", "higher"),
    "core.encode_s": ("s", "lower"),
    "core.elimination_s": ("s", "lower"),
    "core.simplification_s": ("s", "lower"),
    "core.mincond_s": ("s", "lower"),
    "core.functions": ("count", "higher"),
    "query.count": ("count", "lower"),
    "query.self_s": ("s", "lower"),
    "query.cache_key_s": ("s", "lower"),
    "query.cache_lookups": ("count", "lower"),
    "query.cache_hits": ("count", "higher"),
    "query.cache_hit_ratio": ("ratio", "higher"),
    "solver.check_calls": ("count", "lower"),
    "solver.simplify_s": ("s", "lower"),
    "solver.oracle_s": ("s", "lower"),
    "solver.oracle_answers": ("count", "higher"),
    "solver.oracle_ratio": ("ratio", "higher"),
    "bitblast.s": ("s", "lower"),
    "bitblast.clauses": ("count", "lower"),
    "sat.calls": ("count", "lower"),
    "sat.s": ("s", "lower"),
    "sat.conflicts": ("count", "lower"),
    "sat.decisions": ("count", "lower"),
    "sat.propagations": ("count", "lower"),
    "sat.unknown": ("count", "lower"),
    "engine.worker_busy_s": ("s", "lower"),
    "engine.worker_utilisation": ("ratio", "higher"),
    "engine.escalated_units": ("count", "lower"),
    "cluster.fingerprint_s": ("s", "lower"),
    "cluster.confirm_s": ("s", "lower"),
    "cluster.functions": ("count", "higher"),
    "cluster.propagated": ("count", "higher"),
    "cluster.propagated_ratio": ("ratio", "higher"),
    "cluster.fallbacks": ("count", "lower"),
    "exec.witness_s": ("s", "lower"),
    "exec.witnesses": ("count", "higher"),
    "exec.confirmed_ratio": ("ratio", "higher"),
    "repair.s": ("s", "lower"),
    "repair.attempted": ("count", "higher"),
    "repair.repaired_ratio": ("ratio", "higher"),
    "serve.jobs": ("count", "higher"),
    "serve.accept_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.worker_busy_ratio": ("ratio", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "bench.host_probe_s": ("s", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.generator_late_ms": ("ms", "lower"),
    "bench.passes": ("count", "higher"),
    "bench.latency_samples": ("count", "higher"),
    "bench.error_ratio": ("ratio", "lower"),
}


def end_to_end(outcome: Outcome, setup_s: float) -> Dict[str, float]:
    attempted = max(outcome.attempted, 1)
    every = [latency for values in outcome.repeats_ms.values()
             for latency in values]
    typical = outcome.job_ms()
    units_per_s = outcome.units_per_s
    if units_per_s is None:
        units_per_s = len(typical) * 1000.0 / sum(typical) if typical else 0.0
    return {
        "setup_s": setup_s,
        "units_per_s": units_per_s,
        "job_p50_ms": percentile(typical, 0.50),
        "job_p95_ms": percentile(typical, 0.95),
        "slo_ratio": sum(latency <= SLO_MS for latency in every) / attempted,
        "ok_ratio": 1.0 - outcome.failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(outcome: Outcome, wrapper_cost: float) -> Dict[str, float]:
    trace = outcome.trace or {"times": {}, "counts": {}, "wrapper_calls": 0,
                              "top_s": 0.0}
    times, counts = trace["times"], trace["counts"]
    passes = max(outcome.passes, 1)
    stats = outcome.stats

    def self_s(layer: str) -> float:
        return times.get(layer, [0, 0.0, 0.0])[2] / passes

    def total_s(layer: str) -> float:
        return times.get(layer, [0, 0.0, 0.0])[1] / passes

    def calls(layer: str) -> float:
        return times.get(layer, [0, 0.0, 0.0])[0] / passes

    def count(name: str) -> float:
        return counts.get(name, 0) / passes

    def stat(name: str) -> float:
        return stats.get(name, 0) / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    busy = total_s("engine.unit")
    pass_wall = outcome.measured_wall / passes
    metrics = {
        "frontend.parse_s": self_s("frontend.parse"),
        "frontend.sema_s": self_s("frontend.sema"),
        "frontend.lower_s": self_s("frontend.lower"),
        "frontend.inline_s": self_s("frontend.inline"),
        "frontend.units": calls("frontend.parse"),
        "core.encode_s": self_s("core.encode"),
        "core.elimination_s": self_s("core.elimination"),
        "core.simplification_s": self_s("core.simplification"),
        "core.mincond_s": self_s("core.mincond"),
        "core.functions": calls("core.check"),
        "query.count": calls("query"),
        "query.self_s": self_s("query"),
        "query.cache_key_s": self_s("query.cache_key"),
        "query.cache_lookups": count("query.cache_lookups"),
        "query.cache_hits": count("query.cache_hits"),
        "query.cache_hit_ratio": ratio(count("query.cache_hits"),
                                       count("query.cache_lookups")),
        "solver.check_calls": calls("solver.check"),
        "solver.simplify_s": self_s("solver.simplify"),
        "solver.oracle_s": self_s("solver.oracle"),
        "solver.oracle_answers": count("solver.oracle_answers"),
        "solver.oracle_ratio": ratio(count("solver.oracle_answers"),
                                     calls("solver.check")),
        "bitblast.s": self_s("bitblast"),
        "bitblast.clauses": count("bitblast.clauses"),
        "sat.calls": calls("sat"),
        "sat.s": self_s("sat"),
        "sat.conflicts": count("sat.conflicts"),
        "sat.decisions": count("sat.decisions"),
        "sat.propagations": count("sat.propagations"),
        "sat.unknown": count("sat.unknown"),
        "engine.worker_busy_s": busy,
        "engine.worker_utilisation": ratio(busy,
                                           outcome.workers * pass_wall),
        "engine.escalated_units": stat("escalated_units"),
        "cluster.fingerprint_s": self_s("cluster.fingerprint"),
        "cluster.confirm_s": self_s("cluster.confirm"),
        "cluster.functions": stat("cluster.functions"),
        "cluster.propagated": stat("cluster.propagated"),
        "cluster.propagated_ratio": ratio(stat("cluster.propagated"),
                                          stat("cluster.functions")),
        "cluster.fallbacks": stat("cluster.fallbacks"),
        "exec.witness_s": self_s("exec.witness"),
        "exec.witnesses": stat("exec.witnesses"),
        "exec.confirmed_ratio": ratio(stat("exec.confirmed"),
                                      stat("exec.witnesses")),
        "repair.s": self_s("repair"),
        "repair.attempted": stat("repair.attempted"),
        "repair.repaired_ratio": ratio(stat("repair.repaired"),
                                       stat("repair.attempted")),
        "serve.jobs": 0.0,
        "serve.accept_ms": 0.0,
        "serve.queue_wait_ms": 0.0,
        "serve.worker_busy_ratio": 0.0,
        "serve.cache_hit_ratio": 0.0,
        "bench.host_probe_s": hostprobe.probe_s(outcome.probe_samples),
        "bench.trace_overhead": ratio(trace["wrapper_calls"] * wrapper_cost,
                                      trace["top_s"]),
        "bench.generator_late_ms": 0.0,
        "bench.passes": float(outcome.passes),
        "bench.latency_samples": float(sum(
            len(values) for values in outcome.repeats_ms.values())),
        "bench.error_ratio": outcome.failed / max(outcome.attempted, 1),
    }
    metrics.update(outcome.extra)
    return metrics


def load_workload(name: str, seed: int, run_dir: str):
    from repobench.serve_warm import ServeWarm

    classes = {cls.name: cls for cls in (ColdCorpus, WarmRecheck, ServeWarm,
                                         Archive)}
    if name not in classes:
        raise KeyError(name)
    return classes[name](seed, run_dir)


WORKLOAD_NAMES = ("cold-corpus", "warm-recheck", "serve-warm", "archive")


def seed_rng(seed: int, stream: str) -> random.Random:
    """An rng for one named input stream of one seed."""
    return random.Random(f"{seed}:{stream}")


def trace_dir(run_dir: str) -> str:
    path = os.path.join(run_dir, "trace")
    os.makedirs(path, exist_ok=True)
    return path
