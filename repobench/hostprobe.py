"""Host-speed probe: a fixed pure-Python reference workload.

On a shared host the same pure-Python code can take 1.6x longer from one
second to the next, and each vCPU slows down on its own.  Every timing
the benchmark reports is therefore in *host-normalised* seconds: wall
seconds times :data:`NOMINAL_SLICE_S` over the time a fixed reference
slice took on the same vCPU at the same moment.

The reference hash-conses a fixed stream of small terms into a fresh
table of ``__slots__`` objects and sorts them: the object allocation,
tuple hashing and dict probing the checker's term and clause tables do.
It was picked by measurement: over many cold passes, log(check time)
against log(probe time) had slope 0.9 with a 300-term version of this
reference, against 1.5 for a walk over a table of plain ints (which
slowed down less than the checker, so normalising by it left 60% of the
variation in).

The reference, its sizes and :data:`NOMINAL_SLICE_S` are part of the
benchmark's definition and must stay as they are: host-normalised seconds
are only comparable across commits while they do not change.

Slices are taken where the work runs.  The sequential workloads take one
right before and one right after each unit, in the process that checks
it.  The pool and serve workloads install :func:`probing_workers` before
the workers fork: every worker then takes a slice right before each unit
it checks and appends it to a file of its own, which the benchmark reads
afterwards (``time.perf_counter`` stamps are comparable across processes
on one host).  Set-up is scaled by the slices of the benchmark process
on both sides of it and of any pool workers it starts.  A slice is timed
in CPU time, so waiting for a vCPU does not count.
"""

from __future__ import annotations

import functools
import importlib
import os
import random
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

#: Terms hash-consed by one slice.
SLICE_TERMS = 600
#: Seed of the reference term stream.
TERM_SEED = 20131103
#: CPU seconds of one slice that define one host-normalised second.
NOMINAL_SLICE_S = 0.001
#: Slices ``bench.host_probe_s`` reports the time of.
PROBE_SLICES = 100
#: The bindings pool workers and serve workers call once per unit.
UNIT_ENTRIES = (("repro.engine.engine", "check_work_unit"),
                ("repro.serve.pool", "check_work_unit"))


class _Term:
    __slots__ = ("op", "args", "rank")

    def __init__(self, op: int, args: tuple, rank: int) -> None:
        self.op, self.args, self.rank = op, args, rank

    def order(self) -> tuple:
        return (-len(self.args), (self.rank * 2654435761) & 0xFFFF)


class Reference:
    """The fixed reference workload."""

    def __init__(self) -> None:
        rng = random.Random(TERM_SEED)
        self.ops = tuple(rng.randrange(4) for _ in range(SLICE_TERMS))
        self.picks = tuple(rng.randrange(1 << 16) for _ in range(SLICE_TERMS))

    def run(self) -> int:
        table = {}
        terms: List[_Term] = []
        for index, (op, pick) in enumerate(zip(self.ops, self.picks)):
            if op == 0 or len(terms) < 2:
                key: tuple = (0, index % 64)
            else:
                key = (op, terms[-1].rank, terms[pick % len(terms)].rank)
            term = table.get(key)
            if term is None:
                term = _Term(op, key[1:], len(table))
                table[key] = term
            terms.append(term)
        terms.sort(key=_Term.order)
        return len(table)

    def slice(self) -> Tuple[float, float]:
        """Run once: ``(wall stamp at the end, CPU seconds taken)``."""
        started = time.process_time()
        self.run()
        return time.perf_counter(), time.process_time() - started


def scale(slice_s: float) -> float:
    """Host-normalised seconds per wall second at slice time ``slice_s``."""
    return NOMINAL_SLICE_S / slice_s


def mean_slice(samples: List[Tuple[float, float]], start: float,
               end: float) -> Optional[float]:
    """Mean slice time of the samples stamped within ``[start, end]``."""
    inside = [value for stamp, value in samples if start <= stamp <= end]
    return statistics.mean(inside) if inside else None


def probe_s(samples: List[Tuple[float, float]]) -> float:
    """Median time of :data:`PROBE_SLICES` slices (0.0 when none ran)."""
    if not samples:
        return 0.0
    return PROBE_SLICES * statistics.median(v for _stamp, v in samples)


def _probed(function, reference: Reference, probe_dir: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        stamp, slice_s = reference.slice()
        path = os.path.join(probe_dir, f"{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{stamp!r} {slice_s!r}\n")
        return function(*args, **kwargs)

    return wrapper


@contextmanager
def probing_workers(probe_dir: str) -> Iterator[None]:
    """Slice before every unit a worker checks, for the block's duration.

    Install before the workers fork; :func:`load_probes` reads the slices.
    """
    reference = Reference()
    originals = []
    try:
        for module_name, attribute in UNIT_ENTRIES:
            module = importlib.import_module(module_name)
            raw = getattr(module, attribute)
            originals.append((module, attribute, raw))
            setattr(module, attribute, _probed(raw, reference, probe_dir))
        yield
    finally:
        for module, attribute, raw in reversed(originals):
            setattr(module, attribute, raw)


def load_probes(probe_dir: str) -> List[Tuple[float, float]]:
    """Every slice the workers wrote to ``probe_dir``, in stamp order."""
    samples = []
    for name in sorted(os.listdir(probe_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(probe_dir, name), encoding="utf-8") as f:
                for line in f:
                    stamp, _, value = line.partition(" ")
                    if value.strip():
                        samples.append((float(stamp), float(value)))
    return sorted(samples)
