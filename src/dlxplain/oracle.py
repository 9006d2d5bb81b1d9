"""Incremental SAT oracle contract used by all explanation engines.

An OracleSession owns one embedded CDCL solver.  Clauses are append-only;
a clause registered under a selector variable is stored as (-selector OR
clause) and stays active until the selector is retired.  Each retirement
sweeps the clauses that level 0 now satisfies out of the solver, so a
long-lived session does not grow with its history.  Sessions
are single-owner: one engine at a time; independent sessions run in
parallel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cdcl import BudgetExceeded, Solver


class OracleTimeout(Exception):
    """A solve call exceeded its per-call or per-instance budget."""


class UnknownSelector(KeyError):
    pass


@dataclass
class SolveResult:
    sat: bool
    model: list[bool] | None = None   # 1-based; model[v] is variable v
    core: list[int] | None = None     # subset of the assumptions

    def lit_true(self, lit: int) -> bool:
        val = self.model[abs(lit)]
        return val if lit > 0 else not val


@dataclass
class SessionStats:
    calls: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    conflicts: int = 0
    propagations: int = 0


class OracleSession:
    """One solver instance plus selector bookkeeping and statistics."""

    def __init__(self, num_vars: int = 0):
        self.solver = Solver()
        self.solver.ensure_vars(num_vars)
        # active selectors, assumed true in allocation order: the order
        # fixes the assumption list, and with it the solver's search
        self.selectors: list[int] = []
        self.stats = SessionStats()

    # -- variables ------------------------------------------------------

    def new_var(self) -> int:
        return self.solver.new_var()

    def new_selector(self) -> int:
        """Allocate a fresh selector variable, active until retired."""
        sel = self.solver.new_var()
        self.selectors.append(sel)
        return sel

    def set_phase(self, var: int, value: bool) -> None:
        self.solver.set_phase(var, value)

    # -- clauses --------------------------------------------------------

    def add_clause(self, clause, selector: int | None = None) -> None:
        """Add a clause, optionally guarded by a registered selector."""
        lits = list(clause)
        if selector is not None:
            if selector not in self.selectors:
                raise UnknownSelector(selector)
            lits.append(-selector)
        self.solver.add_clause(lits)

    def retire_selector(self, selector: int) -> None:
        """Permanently disable a selector's clauses, sweep them out of the
        solver and stop assuming it."""
        if selector not in self.selectors:
            raise UnknownSelector(selector)
        self.selectors.remove(selector)
        self.solver.add_clause([-selector])
        self.solver.simplify()

    # -- solving --------------------------------------------------------

    def solve_under_assumptions(
        self, assumptions=(), deadline: float | None = None
    ) -> SolveResult:
        """SAT check of the active clauses under the given literals.

        On UNSAT the result carries a core: a subset of the assumptions
        sufficient for unsatisfiability (not necessarily minimal; selector
        literals are filtered out).  Raises OracleTimeout at entry once the
        deadline has passed, since the solver itself only checks it on a
        conflict or every 1024 decisions.
        """
        if deadline is not None and time.monotonic() > deadline:
            raise OracleTimeout("deadline exceeded")
        full = [*self.selectors, *assumptions]
        self.stats.calls += 1
        before_c = self.solver.conflicts
        before_p = self.solver.propagations
        try:
            sat, model, core = self.solver.solve(full, deadline=deadline)
        except BudgetExceeded as exc:
            raise OracleTimeout(str(exc)) from exc
        finally:
            self.stats.conflicts += self.solver.conflicts - before_c
            self.stats.propagations += self.solver.propagations - before_p
        if sat:
            self.stats.sat_answers += 1
            return SolveResult(True, model=model)
        self.stats.unsat_answers += 1
        wanted = set(assumptions)
        return SolveResult(False, core=[l for l in core if l in wanted])

    # short form used throughout the engines
    solve = solve_under_assumptions
