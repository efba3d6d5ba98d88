"""The ``serve-warm`` workload: a closed-loop client of ``repro serve``.

Set-up fills a solver-query cache file from the 30 paper snippets, starts
``repro serve --workers 2`` on it through ``repobench/serve_launch.py``
(which installs the host-speed probe, or the layer wrappers on traced
runs, before the daemon forks its workers), and warms the daemon with one
job holding every snippet.

The client is one thread holding one connection, with one job in flight:
it submits the next job when the previous one's ``run`` record arrives.
It sends rounds of :data:`ROUND_JOBS` jobs until ``--seconds`` are used.
Each job is one unit: 80% are snippets re-rendered under fresh names,
which the warm workers answer from cache; 20% are generated MiniC
programs, new in every round (each round sends programs of the same
shapes with other constants), so every round asks the daemon for the same
kind of work.  Job ``j`` of every round is one job repeated.  A job's
latency runs from its submission to its ``run`` record and is
host-normalised by the slices the daemon's workers take around it (one
before every unit they check, about 1 ms of the worker's time).

The client, the daemon and its workers run on one CPU (see
:func:`pinned`).  With one job in flight they take turns anyway; spread
over two shared vCPUs, where the scheduler placed them moved
``job_p50_ms`` by 40% between runs of the same code.  Open-loop load
(Poisson arrivals at a fixed rate) was tried first and left out: at 15-30
jobs/s the generator, the daemon and the two workers contend for two
shared vCPUs, queueing amplifies every change of host speed, and
``job_p50_ms`` moved by 10-28% between runs of the same code.
"""

from __future__ import annotations

import os
import select
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro import check_corpus
from repro.serve import protocol

from repobench import corpus, hostprobe, layers
from repobench.workloads import SETUP_WORKERS, Outcome, seed_rng

#: Jobs of one round.
ROUND_JOBS = 45
#: Share of jobs that are generated programs.
FUZZ_SHARE = 0.2
#: Generator scenarios of the generated jobs: those whose programs take
#: 2-31 ms to check cold.  The rest are left to cold-corpus and archive:
#: signed_overflow_chain, array_index_guard and pointer_guard_order
#: programs take up to 101, 85 and 320 ms, and with them one job's check
#: time moved from 14 to 76 ms between draws of the same shape.
FUZZ_SCENARIOS = ("oversized_shift", "struct_field_access",
                  "macro_loop_bounds", "division_order")
#: The seed of the round's plan.  Fixed.
PLAN_SEED = 0
#: Program draws the rounds take their generated programs from, more than
#: a 60-second run sends rounds.
DRAWS = 256
#: A job's latency is scaled by the host-speed slices taken from this
#: many seconds around it.
PROBE_WINDOW_S = 0.5
#: Warm workers of the daemon.
WORKERS = 2
#: Seconds to wait for the daemon to start, drain, or finish late jobs.
DAEMON_TIMEOUT = 60.0


def _root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextmanager
def pinned() -> Iterator[None]:
    """Run this process on :func:`serve_cpu` for the block's duration."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {serve_cpu()})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def serve_cpu() -> int:
    """The one CPU the client, the daemon and its workers share."""
    return min(os.sched_getaffinity(0))


class Daemon:
    """One ``repro serve`` subprocess on a socket inside the run directory."""

    def __init__(self, run_dir: str, cache_path: str, probe_dir: str,
                 ship_dir: Optional[str]) -> None:
        root = _root()
        self.socket_path = os.path.relpath(os.path.join(run_dir, "d.sock"))
        serve_args = ["--workers", str(WORKERS), "--socket", self.socket_path,
                      "--cache", os.path.relpath(cache_path)]
        mode = ["probe", probe_dir] if ship_dir is None \
            else ["trace", ship_dir]
        command = [sys.executable,
                   os.path.join(root, "repobench", "serve_launch.py")] \
            + mode + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.log = open(os.path.join(run_dir, "daemon.log"), "ab")
        self.process = subprocess.Popen(command, stdout=self.log,
                                        stderr=subprocess.STDOUT, env=env)

    def connect(self) -> socket.socket:
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                return sock
            except OSError:
                sock.close()
                if time.monotonic() > deadline:
                    raise RuntimeError("serve daemon did not start") from None
                time.sleep(0.02)

    def stop(self) -> None:
        """Drain the daemon and wait for it; kill it if it will not exit."""
        try:
            if self.process.poll() is None:
                with Connection(self.connect()) as connection:
                    connection.send({"op": "drain"})
                    connection.until(lambda m: m.get("type") == "draining",
                                     DAEMON_TIMEOUT)
                self.process.wait(timeout=DAEMON_TIMEOUT)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()


class Connection:
    """Line-delimited JSON over one socket, read with ``select``."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *_exc) -> None:
        self.sock.close()

    def send(self, message: Dict[str, object]) -> None:
        self.sock.sendall(protocol.encode(message))

    def poll(self, timeout: float) -> Optional[List[Dict[str, object]]]:
        """Messages that arrive within ``timeout``; None once closed."""
        readable, _, _ = select.select([self.sock], [], [], max(timeout, 0.0))
        if not readable:
            return []
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            return None
        self.buffer += chunk
        *lines, self.buffer = self.buffer.split(b"\n")
        return [protocol.decode(line) for line in lines if line.strip()]

    def until(self, done, timeout: float) -> List[Dict[str, object]]:
        """Read until ``done(message)`` holds; return every message read."""
        deadline = time.monotonic() + timeout
        seen: List[Dict[str, object]] = []
        while time.monotonic() < deadline:
            messages = self.poll(deadline - time.monotonic())
            if messages is None:
                raise RuntimeError("daemon closed the connection")
            seen.extend(messages)
            if any(done(message) for message in messages):
                return seen
        raise RuntimeError("daemon did not answer in time")


class ServeWarm:
    """Closed-loop load on a warm ``repro serve`` daemon."""

    name = "serve-warm"

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.daemon: Optional[Daemon] = None
        self.ship_dir: Optional[str] = None
        self.probe_dir = os.path.join(run_dir, "probes")

    # -- set-up ----------------------------------------------------------------------

    def setup(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        self.snippets = corpus.snippet_items()
        os.makedirs(self.probe_dir, exist_ok=True)
        cache_path = os.path.join(self.run_dir, "serve-cache.jsonl")
        if os.path.exists(cache_path):
            os.unlink(cache_path)
        check_corpus(corpus.render(self.snippets, 0), cache_path=cache_path,
                     workers=SETUP_WORKERS)
        with pinned():                  # the daemon and its workers inherit
            self.daemon = Daemon(self.run_dir, cache_path, self.probe_dir,
                                 self.ship_dir)
        with Connection(self.daemon.connect()) as connection:
            connection.send({"op": "hello", "client": "repobench-warmup",
                             "proto": protocol.PROTOCOL_VERSION})
            warm = corpus.render(self.snippets, 1)
            connection.send(protocol.submit_message(warm))
            connection.until(lambda m: m.get("type") == "job-done",
                             DAEMON_TIMEOUT)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # -- the closed loop --------------------------------------------------------------

    def plan(self):
        """Job j of every round: a snippet, or the shape of a generated one.

        The plan comes from :data:`PLAN_SEED`, like the shapes of the
        generated programs (see :func:`repobench.corpus.fuzz_items`):
        which jobs solve, and how much, sets ``job_p95_ms``.
        """
        rng = seed_rng(PLAN_SEED, "serve-warm")
        generated = rng.sample(range(ROUND_JOBS),
                               int(round(FUZZ_SHARE * ROUND_JOBS)))
        shapes = len(corpus.fuzz_items(PLAN_SEED, scenarios=FUZZ_SCENARIOS))
        picks = dict(zip(generated, rng.sample(range(shapes),
                                               len(generated))))
        return [("fuzz", picks[job]) if job in picks
                else ("snippet", rng.choice(self.snippets))
                for job in range(ROUND_JOBS)]

    def round_items(self, plan, round_index: int):
        """The items of one round.

        Round ``r`` takes its generated programs from draw ``(seed + r)
        mod DRAWS``: new constants every round, and the seed picks where
        in the fixed list of draws a run starts.
        """
        draw = (self.seed + round_index) % DRAWS
        fuzz = corpus.fuzz_items(f"{PLAN_SEED}:serve-warm:{draw}",
                                 scenarios=FUZZ_SCENARIOS)
        return [fuzz[what] if kind == "fuzz" else what
                for kind, what in plan]

    def measure(self, seconds: float,
                recorder: Optional[layers.Recorder]) -> Outcome:
        outcome = Outcome(workers=WORKERS)
        plan = self.plan()
        baseline = {part["pid"]: part for part in
                    layers.load_shipped(self.ship_dir)} \
            if self.ship_dir else {}
        jobs: List[tuple] = []           # (job, item, sent, accepted, done)
        queries = hits = 0
        gaps: List[float] = []
        with pinned(), Connection(self.daemon.connect()) as connection:
            connection.send({"op": "hello", "client": "repobench-closed-loop",
                             "proto": protocol.PROTOCOL_VERSION})
            connection.until(lambda m: m.get("type") == "welcome",
                             DAEMON_TIMEOUT)
            start = time.perf_counter()
            deadline = start + seconds
            round_index = 0
            last_done = None
            while round_index == 0 or time.perf_counter() < deadline:
                for job, item in enumerate(self.round_items(plan, round_index)):
                    tag = corpus.tag_for(2, round_index * ROUND_JOBS + job)
                    unit = item.unit(tag)
                    sent = time.perf_counter()
                    if last_done is not None:
                        gaps.append(sent - last_done)
                    connection.send(protocol.submit_message([unit]))
                    answer = self._answer(connection)
                    last_done = time.perf_counter()
                    queries += answer["queries"]
                    hits += answer["hits"]
                    jobs.append((job, item, sent, answer, last_done))
                round_index += 1
            end = time.perf_counter()
        samples = hostprobe.load_probes(self.probe_dir)
        typical = hostprobe.mean_slice(samples, start, end) \
            or hostprobe.NOMINAL_SLICE_S
        latencies: List[float] = []
        accept_ms: List[float] = []
        for job, item, sent, answer, done in jobs:
            if answer["failed"]:
                outcome.job(job, 0.0, False)
                continue
            mismatch = answer["ok"] and \
                answer["flagged"] != item.expected_unstable
            outcome.mismatches += mismatch
            speed = hostprobe.mean_slice(
                samples, sent - PROBE_WINDOW_S / 2,
                done + PROBE_WINDOW_S / 2) or typical
            latency_ms = (done - sent) * 1000.0 * hostprobe.scale(speed)
            latencies.append(latency_ms)
            accept_ms.append((answer["accepted"] - sent) * 1000.0)
            outcome.job(job, latency_ms, answer["ok"] and not mismatch)
        outcome.record_pass(start, end)
        outcome.probe_samples = [sample for sample in samples
                                 if start <= sample[0] <= end]
        if self.ship_dir:
            outcome.trace = self._worker_totals(baseline)
        busy = outcome.trace["times"].get("serve.unit", [0, 0.0, 0.0]) \
            if outcome.trace else [0, 0.0, 0.0]
        mean_latency = sum(latencies) / max(len(latencies), 1)
        outcome.extra = {
            "serve.jobs": float(len(jobs)),
            "serve.accept_ms": statistics.median(accept_ms)
            if accept_ms else 0.0,
            "serve.queue_wait_ms": mean_latency
            - (busy[1] / busy[0] * 1000.0 if busy[0] else 0.0),
            "serve.worker_busy_ratio": busy[1] / (WORKERS * (end - start)),
            "serve.cache_hit_ratio": hits / queries if queries else 0.0,
            "bench.generator_late_ms": statistics.median(gaps) * 1000.0
            if gaps else 0.0,
        }
        return outcome

    @staticmethod
    def _answer(connection: "Connection") -> Dict[str, object]:
        """Read one job's messages up to its ``run`` record."""
        answer: Dict[str, object] = {
            "accepted": time.perf_counter(), "failed": False, "ok": True,
            "flagged": False, "queries": 0, "hits": 0}
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while time.monotonic() < deadline:
            messages = connection.poll(deadline - time.monotonic())
            if messages is None:
                raise RuntimeError("daemon closed the connection")
            for message in messages:
                kind = message.get("type")
                if kind == "accepted":
                    answer["accepted"] = time.perf_counter()
                elif kind in ("rejected", "error"):
                    answer["failed"] = True
                    return answer
                elif kind == "result":
                    record = message["record"]
                    if record.get("type") == "unit":
                        functions = record.get("functions", [])
                        answer["flagged"] = any(f["diagnostics"]
                                                for f in functions)
                        answer["ok"] = record.get("error") is None and \
                            not any(f["timeouts"] for f in functions)
                        answer["queries"] = sum(f["queries"]
                                                for f in functions)
                        answer["hits"] = sum(f["cache_hits"]
                                             for f in functions)
                    elif record.get("type") == "run":
                        return answer
        answer["failed"] = True
        return answer

    def _worker_totals(self, baseline: Dict[int, dict]) -> Dict[str, object]:
        """Totals the daemon's workers shipped since the warm-up."""
        parts = []
        for part in layers.load_shipped(self.ship_dir):
            before = baseline.get(part["pid"])
            parts.append(layers.difference(part, before) if before else part)
        return layers.merge(parts)
