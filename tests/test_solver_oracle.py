"""Unit tests for the oracle pre-answer chain (repro.solver.oracle).

The constant oracle decides a conjunction that simplification folded to a
boolean constant; the evaluation oracle tries concrete assignments and
returns only verified SAT answers, never UNSAT.
"""

import pytest

from repro.solver import CheckResult, Solver, TermManager
from repro.solver.oracle import constant_answer, evaluation_answer, preanswer


@pytest.fixture()
def mgr():
    return TermManager()


class TestOracle:
    def test_constant_true(self, mgr):
        answer = constant_answer(mgr.true())
        assert answer.verdict == "sat" and answer.reason == "constant"

    def test_constant_false(self, mgr):
        answer = constant_answer(mgr.false())
        assert answer.verdict == "unsat" and answer.assignment is None

    def test_non_constant_defers(self, mgr):
        assert constant_answer(mgr.bool_var("p")) is None

    def test_evaluation_answer_is_verified(self, mgr):
        x = mgr.bv_var("x", 8)
        conjunction = mgr.eq(x, mgr.bv_const(0, 8))
        answer = evaluation_answer(mgr, conjunction)
        assert answer is not None and answer.verdict == "sat"
        assert mgr.evaluate(conjunction, answer.assignment)

    def test_evaluation_never_claims_unsat(self, mgr):
        x = mgr.bv_var("x", 8)
        # UNSAT conjunction: the oracle must defer, not decide.
        conjunction = mgr.and_(mgr.bvult(x, mgr.bv_const(3, 8)),
                               mgr.bvugt(x, mgr.bv_const(5, 8)))
        assert evaluation_answer(mgr, conjunction) is None

    def test_preanswer_counts_in_solver_stats(self, mgr):
        solver = Solver(mgr, timeout=20.0)
        x = mgr.bv_var("x", 8)
        solver.add(mgr.eq(x, mgr.bv_const(0, 8)))
        assert solver.check() is CheckResult.SAT
        assert solver.stats.oracle_sat == 1
        assert solver.stats.sat_calls == 0        # never reached a backend
        assert preanswer(mgr, mgr.false()).verdict == "unsat"
