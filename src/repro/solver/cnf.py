"""CNF construction helpers for the bit-blaster.

The :class:`CnfBuilder` wraps a :class:`~repro.solver.sat.SatSolver` and
offers Tseitin-style gate encodings over SAT literals.  Literals follow the
DIMACS convention (positive/negative ints); the special constants ``TRUE``
and ``FALSE`` are represented by a dedicated root-level variable so that gate
encoders never need to special-case them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.solver.sat import SatSolver


class CnfBuilder:
    """Builds CNF clauses incrementally on top of a SAT solver."""

    def __init__(self, sat: SatSolver) -> None:
        self.sat = sat
        self.num_clauses = 0
        # A variable constrained to true; its negation encodes false.
        self._true = sat.new_var()
        self.add_clause([self._true])

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    # -- raw interface -------------------------------------------------------

    def new_lit(self) -> int:
        return self.sat.new_var()

    def add_clause(self, lits: Sequence[int]) -> None:
        self.num_clauses += 1
        self.sat.add_clause(lits)

    # -- constant handling ----------------------------------------------------

    def const(self, value: bool) -> int:
        return self._true if value else -self._true

    def is_const(self, lit: int) -> bool:
        return abs(lit) == self._true

    def const_value(self, lit: int) -> bool:
        return lit == self._true

    # -- gates ------------------------------------------------------------------

    def not_gate(self, a: int) -> int:
        return -a

    def and_gate(self, a: int, b: int) -> int:
        if self.is_const(a):
            return b if self.const_value(a) else self.false_lit
        if self.is_const(b):
            return a if self.const_value(b) else self.false_lit
        if a == b:
            return a
        if a == -b:
            return self.false_lit
        out = self.new_lit()
        self.add_clause([-out, a])
        self.add_clause([-out, b])
        self.add_clause([out, -a, -b])
        return out

    def or_gate(self, a: int, b: int) -> int:
        return -self.and_gate(-a, -b)

    def xor_gate(self, a: int, b: int) -> int:
        if self.is_const(a):
            return -b if self.const_value(a) else b
        if self.is_const(b):
            return -a if self.const_value(b) else a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        out = self.new_lit()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def mux_gate(self, sel: int, then: int, els: int) -> int:
        """Return ``sel ? then : els``."""
        if self.is_const(sel):
            return then if self.const_value(sel) else els
        if then == els:
            return then
        out = self.new_lit()
        self.add_clause([-out, -sel, then])
        self.add_clause([-out, sel, els])
        self.add_clause([out, -sel, -then])
        self.add_clause([out, sel, -els])
        return out

    def and_many(self, lits: Iterable[int]) -> int:
        out = self.true_lit
        for lit in lits:
            out = self.and_gate(out, lit)
        return out

    def or_many(self, lits: Iterable[int]) -> int:
        out = self.false_lit
        for lit in lits:
            out = self.or_gate(out, lit)
        return out

    # -- arithmetic primitives -----------------------------------------------

    def half_adder(self, a: int, b: int) -> tuple[int, int]:
        """Return (sum, carry)."""
        return self.xor_gate(a, b), self.and_gate(a, b)

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Return (sum, carry-out)."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, cin)
        return s2, self.or_gate(c1, c2)

    def equal_gate(self, a_bits: Sequence[int], b_bits: Sequence[int]) -> int:
        diff = [self.xor_gate(a, b) for a, b in zip(a_bits, b_bits)]
        return -self.or_many(diff)

    def assert_lit(self, lit: int, guard: Optional[int] = None) -> None:
        """Force a literal to be true.

        With ``guard`` (an activation literal) the assertion only takes
        effect while ``guard`` is assumed true: the clause added is
        ``(-guard ∨ lit)``, and permanently asserting ``-guard`` later
        retires the assertion without touching the clause database — this is
        how the incremental :class:`~repro.solver.solver.Solver` implements
        push/pop without CNF rebuilds.
        """
        if guard is None:
            self.add_clause([lit])
        else:
            self.add_clause([-guard, lit])
