"""Unit tests for the CDCL SAT solver (repro.solver.sat)."""

import hashlib
import json
import random

import pytest

from repro.solver.sat import SatResult, SatSolver


def make_vars(solver, count):
    return [solver.new_var() for _ in range(count)]


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() is SatResult.SAT

    def test_unit_clause(self):
        s = SatSolver()
        x = s.new_var()
        s.add_clause([x])
        assert s.solve() is SatResult.SAT
        assert s.model_value(x) is True

    def test_contradictory_units(self):
        s = SatSolver()
        x = s.new_var()
        s.add_clause([x])
        s.add_clause([-x])
        assert s.solve() is SatResult.UNSAT

    def test_empty_clause_is_unsat(self):
        s = SatSolver()
        s.new_var()
        assert s.add_clause([]) is False
        assert s.solve() is SatResult.UNSAT

    def test_simple_implication_chain(self):
        s = SatSolver()
        a, b, c = make_vars(s, 3)
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        s.add_clause([a])
        assert s.solve() is SatResult.SAT
        assert s.model_value(a) and s.model_value(b) and s.model_value(c)

    def test_tautology_clause_ignored(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a, -a])
        assert s.solve() is SatResult.SAT


class TestKnownFormulas:
    def test_xor_chain_sat(self):
        # (a xor b) encoded as CNF, plus a forced
        s = SatSolver()
        a, b = make_vars(s, 2)
        s.add_clause([a, b])
        s.add_clause([-a, -b])
        s.add_clause([a])
        assert s.solve() is SatResult.SAT
        assert s.model_value(a) is True
        assert s.model_value(b) is False

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: var p_{i,j} means pigeon i in hole j.
        s = SatSolver()
        p = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            s.add_clause([p[i][0], p[i][1]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-p[i1][j], -p[i2][j]])
        assert s.solve() is SatResult.UNSAT

    def test_php_4_into_3_unsat(self):
        s = SatSolver()
        n_pigeons, n_holes = 4, 3
        p = [[s.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for i in range(n_pigeons):
            s.add_clause([p[i][j] for j in range(n_holes)])
        for j in range(n_holes):
            for i1 in range(n_pigeons):
                for i2 in range(i1 + 1, n_pigeons):
                    s.add_clause([-p[i1][j], -p[i2][j]])
        assert s.solve() is SatResult.UNSAT

    def test_graph_coloring_triangle_two_colors_unsat(self):
        # A triangle cannot be 2-colored.
        s = SatSolver()
        color = [[s.new_var() for _ in range(2)] for _ in range(3)]
        edges = [(0, 1), (1, 2), (0, 2)]
        for v in range(3):
            s.add_clause([color[v][0], color[v][1]])
            s.add_clause([-color[v][0], -color[v][1]])
        for u, v in edges:
            for c in range(2):
                s.add_clause([-color[u][c], -color[v][c]])
        assert s.solve() is SatResult.UNSAT

    def test_graph_coloring_triangle_three_colors_sat(self):
        s = SatSolver()
        color = [[s.new_var() for _ in range(3)] for _ in range(3)]
        edges = [(0, 1), (1, 2), (0, 2)]
        for v in range(3):
            s.add_clause([color[v][c] for c in range(3)])
        for u, v in edges:
            for c in range(3):
                s.add_clause([-color[u][c], -color[v][c]])
        assert s.solve() is SatResult.SAT
        model = s.model()
        for u, v in edges:
            colors_u = {c for c in range(3) if model[color[u][c]]}
            colors_v = {c for c in range(3) if model[color[v][c]]}
            assert colors_u.isdisjoint(colors_v) or not (colors_u & colors_v)


class TestModelSoundness:
    def _check_model_satisfies(self, clauses, model):
        for clause in clauses:
            satisfied = any(
                (lit > 0) == model[abs(lit)] for lit in clause
            )
            assert satisfied, f"clause {clause} not satisfied by model"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_3sat_models_are_valid(self, seed):
        rng = random.Random(seed)
        n_vars, n_clauses = 20, 60
        s = SatSolver()
        variables = make_vars(s, n_vars)
        clauses = []
        for _ in range(n_clauses):
            chosen = rng.sample(variables, 3)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            clauses.append(clause)
            s.add_clause(clause)
        result = s.solve()
        if result is SatResult.SAT:
            self._check_model_satisfies(clauses, s.model())
        else:
            assert result is SatResult.UNSAT

    def test_random_unsat_by_all_polarities(self):
        # For 3 variables, adding all 8 sign combinations of a clause is UNSAT.
        s = SatSolver()
        a, b, c = make_vars(s, 3)
        for mask in range(8):
            clause = [
                a if mask & 1 else -a,
                b if mask & 2 else -b,
                c if mask & 4 else -c,
            ]
            s.add_clause(clause)
        assert s.solve() is SatResult.UNSAT


class TestResourceLimits:
    def test_conflict_budget_returns_unknown(self):
        # A hard pigeonhole instance with a tiny conflict budget.
        s = SatSolver()
        n_pigeons, n_holes = 7, 6
        p = [[s.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for i in range(n_pigeons):
            s.add_clause([p[i][j] for j in range(n_holes)])
        for j in range(n_holes):
            for i1 in range(n_pigeons):
                for i2 in range(i1 + 1, n_pigeons):
                    s.add_clause([-p[i1][j], -p[i2][j]])
        result = s.solve(max_conflicts=5)
        assert result in (SatResult.UNKNOWN, SatResult.UNSAT)

    def test_statistics_are_tracked(self):
        s = SatSolver()
        a, b = make_vars(s, 2)
        s.add_clause([a, b])
        s.add_clause([-a, b])
        s.add_clause([a, -b])
        s.solve()
        assert s.propagations >= 0
        assert s.decisions >= 0


# ---------------------------------------------------------------------------
# Search order is a contract (see the repro.solver.sat module docstring)
# ---------------------------------------------------------------------------


def reference_pick(solver):
    """The linear branch scan the decision heap replaced.

    Highest activity wins; among equal activities the lowest index does,
    because only a strictly greater activity displaces the current best.
    """
    best_var, best_act = None, -1.0
    for var in range(1, solver.num_vars + 1):
        if solver._vals[2 * var] is None and solver.activity[var] > best_act:
            best_var, best_act = var, solver.activity[var]
    return best_var


class TestDecisionHeap:
    @staticmethod
    def _checked(solver):
        """Make every decision assert the heap's pick equals the scan's."""
        picks = []
        pick = solver._pick_branch_var

        def checked_pick():
            expected = reference_pick(solver)
            assert solver._next_branch_var() == expected
            picks.append(expected)
            return pick()

        solver._pick_branch_var = checked_pick
        return picks

    @pytest.mark.parametrize("seed", range(5))
    def test_heap_pick_matches_linear_scan(self, seed):
        rng = random.Random(seed)

        def signed(chosen):
            return [v if rng.random() < 0.5 else -v for v in chosen]

        s = SatSolver()
        picks = self._checked(s)
        variables = make_vars(s, 40)
        for _ in range(120):
            s.add_clause(signed(rng.sample(variables, 3)))
        rescaled = False
        for step in range(12):
            if step == 4:
                # Start the rescale path: a variable bumped twice crosses
                # 1e100, which the corpus never reaches.
                s.var_inc = 9e99
            inc_before = s.var_inc
            assumptions = signed(rng.sample(variables, rng.randint(0, 5)))
            s.solve(assumptions=assumptions, max_conflicts=60)
            rescaled = rescaled or s.var_inc < inc_before
            assert s._next_branch_var() == reference_pick(s)
            if not s.ok:
                break
            # Clauses after an answer (a SAT answer leaves its model on the
            # trail), and fresh variables between calls.
            for _ in range(rng.randint(1, 3)):
                s.add_clause(signed(rng.sample(variables, 3)))
                assert s._next_branch_var() == reference_pick(s)
            if rng.random() < 0.5:
                variables.append(s.new_var())
                assert s._next_branch_var() == reference_pick(s)
        assert rescaled and len(picks) > 100

    def test_ties_break_to_the_lowest_index(self):
        s = SatSolver()
        make_vars(s, 6)
        for var in (5, 2, 4):
            s.activity[var] = 1.0
        s._heap_rebuild()
        assert s._next_branch_var() == reference_pick(s) == 2


def test_search_order_is_unchanged_on_the_snippet_corpus(monkeypatch):
    """Per-call CDCL work on the 30-snippet corpus matches a pinned digest.

    The digest is over the sequence of per-``solve`` ``(result, conflicts,
    decisions, propagations, restarts)`` deltas, recorded with the
    linear-scan solver the decision heap and literal codes replaced.  Any
    change to decisions, conflicts or propagations (a different heap tie
    rule, watcher order, restart or deletion policy) changes it.  The wall
    clock budget is raised so a slow machine cannot turn an answer into
    UNKNOWN.
    """
    from repro import CheckerConfig, check_corpus
    from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS

    calls = []
    solve = SatSolver.solve

    def recording_solve(self, *args, **kwargs):
        before = (self.conflicts, self.decisions, self.propagations,
                  self.restarts)
        result = solve(self, *args, **kwargs)
        after = (self.conflicts, self.decisions, self.propagations,
                 self.restarts)
        calls.append([result.value] + [b - a for a, b in zip(before, after)])
        return result

    monkeypatch.setattr(SatSolver, "solve", recording_solve)
    units = [(s.name, s.render("v")) for s in SNIPPETS + STABLE_SNIPPETS]
    check_corpus(units, config=CheckerConfig(solver_timeout=600.0), workers=0)

    totals = [sum(call[i] for call in calls) for i in range(1, 5)]
    assert (len(calls), totals) == (75, [3993, 24098, 407832, 26])
    blob = json.dumps(calls, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest()[:16] == "7e1256d7f4a418ab"
