"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each is there):

* ``cold-corpus``  -- the 30 paper snippets plus 61 generated programs
  (MiniC and IR), checked sequentially with a fresh in-memory cache per pass;
* ``warm-recheck`` -- the same corpus under fresh names, checked
  sequentially against a cache filled during set-up;
* ``serve-warm``   -- closed-loop jobs against ``repro serve --workers 2``;
* ``archive``      -- a clustered, witness-validating, repairing check of
  a synthetic archive on a two-worker process pool.

Every unit's verdict is checked against its known answer; on the
sequential workloads the verdict digest must also be the same on every
pass.  Every time is in host-normalised seconds (see
:mod:`repobench.hostprobe` and :mod:`repobench.workloads`), set-up too.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers of :mod:`repobench.layers` and prints the per-layer
metrics instead.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

The program exits with status 2 without printing a result when ``repro``
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: Reference slices that scale the import time.
IMPORT_SLICES = 5
#: Scratch space for sockets, cache files and shipped trace totals.
RUN_ROOT = os.path.join(ROOT, ".repobench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        from repobench import hostprobe, layers, workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    run_dir = os.path.join(RUN_ROOT, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        workload = workloads.load_workload(args.workload, args.seed, run_dir)
        recorder = None
        if args.trace:
            ship_dir = workloads.trace_dir(run_dir)
            recorder = layers.Recorder(ship_dir=ship_dir)
            workload.ship_dir = ship_dir
        reference = hostprobe.Reference()
        first = [reference.slice() for _ in range(IMPORT_SLICES)]
        import_s *= hostprobe.scale(statistics.median(v for _t, v in first))
        setup_probes = os.path.join(run_dir, "setup-probes")
        os.makedirs(setup_probes)
        try:
            setups = []
            with hostprobe.probing_workers(setup_probes):
                before = first[-1]
                for _ in range(workloads.SETUP_REPEATS):
                    started = time.perf_counter()
                    workload.setup()
                    elapsed = time.perf_counter() - started
                    after = reference.slice()
                    setups.append((before, elapsed, after))
                    before = after
            # Slices of this process on both sides of a set-up, and of any
            # pool workers it started.
            workers = hostprobe.load_probes(setup_probes)
            setups_s = [elapsed * hostprobe.scale(hostprobe.mean_slice(
                [before, after] + workers, before[0], after[0]))
                for before, elapsed, after in setups]
            if recorder is None:
                outcome = workload.measure(args.seconds, None)
            else:
                with layers.traced(recorder):
                    outcome = workload.measure(args.seconds, recorder)
        finally:
            close = getattr(workload, "close", None)
            if close is not None:
                close()
        if recorder is not None and outcome.trace is None:
            outcome.trace = layers.merge(
                [recorder.totals()]
                + layers.load_shipped(workloads.trace_dir(run_dir)))
        setup_s = import_s + statistics.median(setups_s)
        if args.trace:
            metrics = workloads.per_layer(outcome, layers.wrapper_cost())
            table = workloads.PER_LAYER
        else:
            metrics = workloads.end_to_end(outcome, setup_s)
            table = workloads.END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass

    repeats = [len(values) for values in outcome.repeats_ms.values()]
    print(f"# {args.workload} seed={args.seed} passes={outcome.passes} "
          f"jobs={outcome.attempted} failed={outcome.failed} "
          f"mismatches={outcome.mismatches} "
          f"repeats_per_job={min(repeats, default=0)}-"
          f"{max(repeats, default=0)} "
          f"host_probe_s={hostprobe.probe_s(outcome.probe_samples):.4f} "
          f"digest={','.join(sorted(set(outcome.digests))) or '-'} "
          f"counters={sorted(set(outcome.pass_counters)) or '-'}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
