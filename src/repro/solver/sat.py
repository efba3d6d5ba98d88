"""A CDCL SAT solver.

This is the boolean engine underneath the bit-vector solver.  It implements
the standard conflict-driven clause-learning loop:

* two-watched-literal clause propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style activity-based decision heuristic with phase saving,
* Luby-sequence restarts,
* learned-clause deletion based on activity.

The solver is *incremental*: ``solve`` may be called repeatedly on the same
instance, clauses may be added between calls, and each call may pass a set
of assumption literals that hold only for that call.  Learned clauses,
variable activities, and saved phases persist across calls, which is what
makes closely related queries cheap after the first one.  Resource budgets
(``max_conflicts``, ``timeout``) are per call, and exhausting one leaves the
solver reusable.  When a call returns UNSAT because an assumption literal
was refuted, ``failed_assumption`` names it and the clause database stays
consistent (``ok`` remains True).

Literals use the DIMACS convention at the interface: variable ``v`` (a
positive integer) is represented by the literals ``v`` and ``-v``.  The
solver is deliberately dependency-free so that the whole reproduction runs
on a stock Python install.

Internal layout
---------------

Inside the solver a literal is a *code*: ``2v`` for ``v`` and ``2v + 1``
for ``-v``, so negation is ``code ^ 1`` and the variable is ``code >> 1``.
Codes are converted only at the boundary (``add_clause``, the assumptions
passed to ``solve``, ``failed_assumption``).  Per-code lists replace
per-variable lookups on the hot path: ``_vals[code]`` is True, False or None
(unassigned) for the literal itself, and ``_watches[code]`` lists the
clauses watching that literal.  Clauses, the trail and the learned clauses
hold codes.  ``_propagate`` binds these lists to locals and inlines the
value test and the assignment.

The decision heuristic keeps the unassigned variables in a binary max-heap
ordered by activity, highest first, with ties going to the lowest variable
index.  That is the order of a linear scan over ``1..num_vars`` that keeps
the first strictly greater activity, so the heap picks exactly the variable
the scan would.  The heap may also hold assigned variables; picking pops
them, and ``_cancel_until`` re-inserts every variable it unassigns.
Bumping an activity sifts the variable up, and the 1e100 rescale rebuilds
the heap.

Search order is a contract: for the same clauses, assumptions and budgets
the solver makes the same decisions, conflicts and propagations as the
plain reference loop it replaced, and ``tests/test_solver_sat.py`` pins the
per-call counters on the snippet corpus.  Changes that alter search order
(blocking literals, clause minimisation, restricted branching) need their
own verdict checks first.
"""

from __future__ import annotations

import enum
import time
from typing import Dict, List, Optional, Sequence


class SatResult(enum.Enum):
    """Outcome of a SAT solver invocation."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"      # resource limit (timeout / conflict budget) reached


def _code(lit: int) -> int:
    """Internal literal code of a DIMACS literal."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False) -> None:
        self.lits = lits          # literal codes; lits[0] and lits[1] watched
        self.learned = learned
        self.activity = 0.0


class SatSolver:
    """Incremental CDCL solver over integer literals.

    Typical use::

        solver = SatSolver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(y) is True
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        # Per literal code (index 0 and 1 belong to the unused variable 0).
        self._vals: List[Optional[bool]] = [None, None]
        self._watches: List[List[_Clause]] = [[], []]
        # Per variable.
        self.level: List[int] = [0]
        self.reason: List[Optional[_Clause]] = [None]
        self.activity: List[float] = [0.0]
        #: Saved phase as the code's sign bit: 0 positive, 1 negative.
        self._phase: List[int] = [1]
        self._seen: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0

        # Decision heap of variables and each variable's slot in it (-1: out).
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        self.var_inc = 1.0
        self.var_decay = 0.95

        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        #: The assumption literal whose refutation caused the last UNSAT
        #: answer, or None when the clause database itself is inconsistent.
        self.failed_assumption: Optional[int] = None

    # -- problem construction ---------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        v = self.num_vars
        self._vals += (None, None)
        self._watches += ([], [])
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self._phase.append(1)
        self._seen.append(False)
        self._heap_pos.append(-1)
        self._heap_insert(v)
        return v

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula is trivially UNSAT."""
        if not self.ok:
            return False
        # A previous SAT answer leaves its model on the trail; root-level
        # simplification below is only sound against root-level assignments.
        if self.trail_lim:
            self._cancel_until(0)
        vals = self._vals
        seen = set()
        out: List[int] = []
        for lit in lits:
            code = _code(lit)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            # Every assignment left after the cancel above is at the root.
            value = vals[code]
            if value is True:
                return True  # already satisfied at root
            if value is False:
                continue      # falsified at root; drop literal
            seen.add(code)
            out.append(code)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._assign(out[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        clause = _Clause(out)
        self.clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0]].append(clause)
        self._watches[clause.lits[1]].append(clause)

    # -- assignment -----------------------------------------------------------

    def _assign(self, code: int, reason: Optional[_Clause]) -> None:
        """Make the unassigned literal ``code`` true at the current level."""
        var = code >> 1
        self._vals[code] = True
        self._vals[code ^ 1] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self._phase[var] = code & 1
        self.trail.append(code)

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit-propagate the trail from ``qhead``; return a conflict or None.

        Watchers of a falsified literal are visited in list order; a clause
        whose other watch is true keeps its place, a clause with a
        replacement watch (the first non-false literal from position 2 on)
        moves to that literal's list, and unit and conflicting clauses stay.
        """
        trail = self.trail
        vals = self._vals
        watches = self._watches
        level = self.level
        reason = self.reason
        phase = self._phase
        depth = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        conflict: Optional[_Clause] = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            kept: List[_Clause] = []
            keep = kept.append
            i = 0
            for clause in watchers:
                i += 1
                lits = clause.lits
                # Make sure the falsified literal is at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if vals[first] is True:
                    keep(clause)
                    continue
                # Look for a replacement watch.
                for k in range(2, len(lits)):
                    other = lits[k]
                    if vals[other] is not False:
                        lits[1] = other
                        lits[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    keep(clause)
                    if vals[first] is False:
                        conflict = clause
                        kept.extend(watchers[i:])
                        break
                    var = first >> 1
                    vals[first] = True
                    vals[first ^ 1] = False
                    level[var] = depth
                    reason[var] = clause
                    phase[var] = first & 1
                    trail.append(first)
            watches[false_lit] = kept
            if conflict is not None:
                break
        self.propagations += qhead - start
        self.qhead = qhead
        return conflict

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self.level
        trail = self.trail
        depth = len(self.trail_lim)
        counter = 0
        lit = -1                 # the literal resolved on last (none yet)
        clause: Optional[_Clause] = conflict
        index = len(trail) - 1

        while True:
            assert clause is not None
            if clause.learned:
                clause.activity += 1.0
            for q in clause.lits:
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if level[var] >= depth:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick next literal from the trail to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            var = lit >> 1
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            clause = self.reason[var]
        learnt[0] = lit ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = False

        # Compute backtrack level (second highest level in the clause).
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        return learnt, back_level

    def _bump_var(self, var: int) -> None:
        activity = self.activity
        activity[var] += self.var_inc
        if activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._heap_rebuild()
        elif self._heap_pos[var] >= 0:
            self._heap_sift_up(self._heap_pos[var])

    def _decay_var_activity(self) -> None:
        self.var_inc /= self.var_decay

    # -- the decision heap ------------------------------------------------------
    #
    # Variable ``a`` goes above ``b`` when its activity is higher, or equal
    # with a lower index.  The order is total, so the top is the same
    # variable whatever the heap's shape.

    def _heap_insert(self, var: int) -> None:
        self._heap_pos[var] = len(self._heap)
        self._heap.append(var)
        self._heap_sift_up(len(self._heap) - 1)

    def _heap_sift_up(self, i: int) -> None:
        heap, pos, activity = self._heap, self._heap_pos, self.activity
        var = heap[i]
        act = activity[var]
        while i:
            parent = (i - 1) >> 1
            above = heap[parent]
            above_act = activity[above]
            if above_act > act or (above_act == act and above < var):
                break
            heap[i] = above
            pos[above] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _heap_sift_down(self, i: int) -> None:
        heap, pos, activity = self._heap, self._heap_pos, self.activity
        size = len(heap)
        var = heap[i]
        act = activity[var]
        while True:
            child = 2 * i + 1
            if child >= size:
                break
            below = heap[child]
            below_act = activity[below]
            right = child + 1
            if right < size:
                other = heap[right]
                other_act = activity[other]
                if other_act > below_act or (other_act == below_act
                                             and other < below):
                    child, below, below_act = right, other, other_act
            if act > below_act or (act == below_act and var < below):
                break
            heap[i] = below
            pos[below] = i
            i = child
        heap[i] = var
        pos[var] = i

    def _heap_pop(self) -> int:
        heap, pos = self._heap, self._heap_pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_sift_down(0)
        return top

    def _heap_rebuild(self) -> None:
        # A sorted list is a valid heap; rescaling can turn distinct
        # activities equal, so the old shape may no longer be one.
        activity = self.activity
        self._heap.sort(key=lambda v: (-activity[v], v))
        for i, var in enumerate(self._heap):
            self._heap_pos[var] = i

    # -- backtracking ---------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        limit = self.trail_lim[level]
        vals, reason, pos = self._vals, self.reason, self._heap_pos
        trail = self.trail
        for code in trail[limit:]:
            var = code >> 1
            vals[code] = None
            vals[code ^ 1] = None
            reason[var] = None
            if pos[var] < 0:
                self._heap_insert(var)
        del trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(trail)

    # -- decisions ------------------------------------------------------------

    def _next_branch_var(self) -> Optional[int]:
        """The unassigned variable the next decision takes, left on the heap.

        Assigned variables at the top are popped on the way.
        """
        heap, vals = self._heap, self._vals
        while heap:
            var = heap[0]
            if vals[2 * var] is None:
                return var
            self._heap_pop()
        return None

    def _pick_branch_var(self) -> Optional[int]:
        """Pop the next decision variable; return its saved-phase literal code."""
        var = self._next_branch_var()
        if var is None:
            return None
        self._heap_pop()
        return 2 * var | self._phase[var]

    # -- learned clause management -----------------------------------------

    def _reduce_learned(self) -> None:
        self.learned.sort(key=lambda c: c.activity)
        dropped = set(id(c) for c in self.learned[: len(self.learned) // 2]
                      if len(c.lits) > 2)
        if not dropped:
            return
        self.learned = [c for c in self.learned if id(c) not in dropped]
        self._watches = [[c for c in watchers if id(c) not in dropped]
                         for watchers in self._watches]

    # -- main loop -------------------------------------------------------------

    @staticmethod
    def _luby(i: int) -> int:
        """The i-th element (1-based) of the Luby restart sequence (1,1,2,1,1,2,4,...)."""
        x = i - 1
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) // 2
            seq -= 1
            x = x % size
        return 1 << seq

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> SatResult:
        """Decide satisfiability under optional assumptions and budgets.

        ``max_conflicts`` and ``timeout`` are budgets for *this call*; the
        cumulative ``conflicts`` counter keeps growing across calls.
        Exhausting either returns UNKNOWN with the solver left reusable.
        """
        self.failed_assumption = None
        if not self.ok:
            return SatResult.UNSAT
        assumed = [_code(lit) for lit in assumptions]
        vals = self._vals
        deadline = None if timeout is None else time.monotonic() + timeout
        restart_idx = 1
        conflict_budget = 100 * self._luby(restart_idx)
        conflicts_here = 0
        conflicts_at_entry = self.conflicts
        max_learned = max(1000, len(self.clauses) // 2)

        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            return SatResult.UNSAT

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.ok = False
                    return SatResult.UNSAT
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    clause = _Clause(learnt, learned=True)
                    self.learned.append(clause)
                    self._attach(clause)
                    self._assign(learnt[0], clause)
                self._decay_var_activity()
                if len(self.learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            if deadline is not None and time.monotonic() > deadline:
                self._cancel_until(0)
                return SatResult.UNKNOWN
            if max_conflicts is not None and \
                    self.conflicts - conflicts_at_entry >= max_conflicts:
                self._cancel_until(0)
                return SatResult.UNKNOWN
            if conflicts_here >= conflict_budget:
                conflicts_here = 0
                restart_idx += 1
                self.restarts += 1
                conflict_budget = 100 * self._luby(restart_idx)
                self._cancel_until(len(assumed))
                continue

            # Apply assumptions first.
            depth = len(self.trail_lim)
            if depth < len(assumed):
                code = assumed[depth]
                value = vals[code]
                if value is True:
                    self.trail_lim.append(len(self.trail))
                    continue
                if value is False:
                    # The clause database refutes this assumption: UNSAT
                    # relative to the assumptions, but the solver stays
                    # consistent and reusable.
                    self.failed_assumption = assumptions[depth]
                    self._cancel_until(0)
                    return SatResult.UNSAT
                self.trail_lim.append(len(self.trail))
                self._assign(code, None)
                continue

            code = self._pick_branch_var()
            if code is None:
                return SatResult.SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(code, None)

    # -- model access ------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of a variable in the most recent SAT model (False if unset)."""
        return self._vals[2 * var] is True

    def model(self) -> Dict[int, bool]:
        """Full variable assignment of the most recent SAT model."""
        vals = self._vals
        return {v: vals[2 * v] is True for v in range(1, self.num_vars + 1)}
