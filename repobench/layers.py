"""Outside-in per-layer timing for the traced run.

The traced run installs wrappers around the public entry points of each
``repro`` layer; nothing inside ``src/`` changes.  A module-level function
is wrapped at the binding its callers use (``repro.core.checker.
run_elimination``, ``repro.solver.solver.preanswer``, ...), a class is
wrapped method by method (``SatSolver.solve``, ``BitBlaster.blast_bool``).

For every layer a :class:`Recorder` keeps calls, total time and self time:
a call's duration minus the time spent in wrapped calls it made.  A wrapped
call made directly from a call of the same layer (recursion, or one public
encoder method calling another) is not a new call.  Hooks read exact work
counters from the wrapped object before and after the call: the SAT
solver's conflicts, decisions and propagations, and the CnfBuilder's
clause count.

Wrappers go in before any fork.  A forked child starts from empty totals,
and a child that finishes a unit of work (``engine.unit``, ``serve.unit``)
ships its cumulative totals to ``<ship_dir>/<pid>.json``, so pool workers
and the serve daemon's workers report home through files.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Public methods of ``FunctionEncoder`` (the ``core.encode`` layer).
ENCODER_METHODS = (
    "term", "bool_term", "comparison_bool", "edge_condition", "block_reach",
    "instruction_reach", "ub_conditions", "dominating_ub_conditions",
    "block_dominating_ub_conditions", "well_defined_over", "definitions_for",
)


# -- counter hooks -------------------------------------------------------------------
#
# A hook is a (before, after) pair: ``before(args)`` returns a state,
# ``after(counts, state, args, result)`` adds to the recorder's counters.


def _sat_before(args) -> Tuple[int, int, int]:
    solver = args[0]
    return solver.conflicts, solver.decisions, solver.propagations


def _sat_after(counts, state, args, result) -> None:
    solver = args[0]
    conflicts, decisions, propagations = state
    counts["sat.conflicts"] += solver.conflicts - conflicts
    counts["sat.decisions"] += solver.decisions - decisions
    counts["sat.propagations"] += solver.propagations - propagations
    if getattr(result, "name", "") == "UNKNOWN":
        counts["sat.unknown"] += 1


def _clauses_before(args) -> int:
    return args[0].cnf.num_clauses


def _clauses_after(counts, state, args, result) -> None:
    counts["bitblast.clauses"] += args[0].cnf.num_clauses - state


def _lookup_after(counts, state, args, result) -> None:
    counts["query.cache_lookups"] += 1
    if result is not None:
        counts["query.cache_hits"] += 1


def _oracle_after(counts, state, args, result) -> None:
    if result is not None:
        counts["solver.oracle_answers"] += 1


def _nothing(args) -> None:
    return None


SAT_HOOK = (_sat_before, _sat_after)
CLAUSE_HOOK = (_clauses_before, _clauses_after)
LOOKUP_HOOK = (_nothing, _lookup_after)
ORACLE_HOOK = (_nothing, _oracle_after)

#: (target, attribute, layer, hook, ships).  ``target`` is a module path or
#: ``module:Class``.  ``ships`` marks a unit of work after which a forked
#: child writes its totals home.
WRAPPED: List[Tuple[str, str, str, Optional[tuple], bool]] = [
    ("repro.api", "parse", "frontend.parse", None, False),
    ("repro.api", "analyze", "frontend.sema", None, False),
    ("repro.api", "lower_translation_unit", "frontend.lower", None, False),
    ("repro.lower.inline", "inline_module", "frontend.inline", None, False),
    ("repro.core.checker:StackChecker", "check_function", "core.check",
     None, False),
    ("repro.core.checker", "run_elimination", "core.elimination", None, False),
    ("repro.core.checker", "run_simplification", "core.simplification",
     None, False),
    ("repro.core.checker", "minimal_ub_conditions", "core.mincond",
     None, False),
    ("repro.core.queries:QueryContext", "is_unsat", "query", None, False),
    ("repro.engine.cache", "canonical_query_key", "query.cache_key",
     None, False),
    ("repro.engine.cache:SolverQueryCache", "lookup", "query.cache_lookup",
     LOOKUP_HOOK, False),
    ("repro.solver.solver:Solver", "check", "solver.check", None, False),
    ("repro.solver.solver", "simplify", "solver.simplify", None, False),
    ("repro.solver.solver", "preanswer", "solver.oracle", ORACLE_HOOK, False),
    ("repro.solver.bitblast:BitBlaster", "assert_term", "bitblast",
     CLAUSE_HOOK, False),
    ("repro.solver.bitblast:BitBlaster", "blast_bool", "bitblast",
     CLAUSE_HOOK, False),
    ("repro.solver.sat:SatSolver", "solve", "sat", SAT_HOOK, False),
    ("repro.cluster.cluster", "fingerprint_function", "cluster.fingerprint",
     None, False),
    ("repro.cluster.propagate:ClusterConfirmer", "confirm", "cluster.confirm",
     None, False),
    ("repro.exec.witness", "validate_diagnostics", "exec.witness",
     None, False),
    ("repro.repair", "repair_diagnostics", "repair", None, False),
    ("repro.engine.engine", "check_work_unit", "engine.unit", None, True),
    ("repro.serve.pool", "check_work_unit", "serve.unit", None, True),
] + [("repro.core.encode:FunctionEncoder", method, "core.encode", None, False)
     for method in ENCODER_METHODS]


class Recorder:
    """Per-process layer totals (see module docstring)."""

    def __init__(self, ship_dir: Optional[str] = None) -> None:
        self.ship_dir = ship_dir
        #: The process that created the recorder; its children ship home.
        self.home_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        #: layer -> [calls, total seconds, self seconds]
        self.times: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(int)
        #: Every entry into a wrapper, pass-through calls included.
        self.wrapper_calls = 0
        #: Seconds covered by outermost wrapped calls.
        self.top_s = 0.0
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, total: float, own: float) -> None:
        entry = self.times.get(layer)
        if entry is None:
            entry = self.times[layer] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += total
        entry[2] += own

    def totals(self) -> Dict[str, object]:
        return {"pid": self.pid, "times": {k: list(v) for k, v in
                                           self.times.items()},
                "counts": dict(self.counts),
                "wrapper_calls": self.wrapper_calls, "top_s": self.top_s}

    def ship(self) -> None:
        """Write this process's totals to ``<ship_dir>/<pid>.json``."""
        if self.ship_dir is None:
            return
        path = os.path.join(self.ship_dir, f"{self.pid}.json")
        temporary = path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)
        os.replace(temporary, path)


def _wrap(recorder: Recorder, layer: str, function: Callable,
          hook: Optional[tuple], ships: bool) -> Callable:
    before, after = hook if hook is not None else (None, None)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder.wrapper_calls += 1
        stack = recorder.stack()
        if stack and stack[-1][0] == layer:
            return function(*args, **kwargs)
        state = before(args) if before is not None else None
        frame = [layer, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            else:
                recorder.top_s += elapsed
            recorder.add(layer, elapsed, elapsed - frame[1])
        if after is not None:
            after(recorder.counts, state, args, result)
        if ships and not stack and recorder.pid != recorder.home_pid:
            recorder.ship()
        return result

    return wrapper


#: Recorders whose wrappers are live; a forked child resets them.
_INSTALLED: List[Recorder] = []


def _reset_in_child() -> None:
    for recorder in _INSTALLED:
        recorder.reset()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


def resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the duration of the block, then restore."""
    originals = []
    try:
        for target, attribute, layer, hook, ships in WRAPPED:
            owner = resolve(target)
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            originals.append((owner, attribute, raw))
            setattr(owner, attribute,
                    _wrap(recorder, layer, raw, hook, ships))
        _INSTALLED.append(recorder)
        yield recorder
    finally:
        if recorder in _INSTALLED:
            _INSTALLED.remove(recorder)
        for owner, attribute, raw in reversed(originals):
            setattr(owner, attribute, raw)


def load_shipped(ship_dir: str) -> List[Dict[str, object]]:
    """Every totals file children shipped to ``ship_dir``."""
    shipped = []
    for name in sorted(os.listdir(ship_dir)):
        if name.endswith(".json"):
            path = os.path.join(ship_dir, name)
            with open(path, encoding="utf-8") as handle:
                shipped.append(json.load(handle))
    return shipped


def merge(totals: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum several processes' totals into one."""
    times: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    merged = {"times": times, "counts": counts, "wrapper_calls": 0,
              "top_s": 0.0}
    for part in totals:
        for layer, (calls, total, own) in part["times"].items():
            entry = times.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value
        merged["wrapper_calls"] += part["wrapper_calls"]
        merged["top_s"] += part["top_s"]
    return merged


def difference(after: Dict[str, object],
               before: Dict[str, object]) -> Dict[str, object]:
    """Totals accumulated between two snapshots of one recorder."""
    times = {}
    for layer, values in after["times"].items():
        base = before["times"].get(layer, [0, 0.0, 0.0])
        times[layer] = [a - b for a, b in zip(values, base)]
    counts = {name: value - before["counts"].get(name, 0)
              for name, value in after["counts"].items()}
    return {"times": times, "counts": counts,
            "wrapper_calls": after["wrapper_calls"] - before["wrapper_calls"],
            "top_s": after["top_s"] - before["top_s"]}


def wrapper_cost() -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    def noop():
        return None

    calls = 20_000
    wrapped = _wrap(Recorder(), "calibration", noop, None, False)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        with_wrapper = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        best = min(best, (with_wrapper - bare) / calls)
    return max(best, 0.0)
