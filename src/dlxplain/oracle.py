"""Incremental SAT oracle: the embedded CDCL solver behind every engine.

An OracleSession is a self-contained incremental solver with assumption
support and final-conflict core extraction, in the MiniSat tradition:
two-watched-literal propagation, 1UIP learning with recursive
minimization, EVSIDS branching and phase saving.  Explanation queries
are bound by propagation: a call needs hundreds of propagations and
almost never a conflict, so the session neither restarts nor reduces its
learnt clauses.  Fully deterministic: identical inputs produce identical
models and cores.

Each call starts where the previous one left off.  Decision level k holds
the k-th assumption, and a call keeps every level up to the first whose
assumption differs from its own list, so a shared assumption prefix is
propagated once (trail reuse, van der Tak, Ramos & Heule, JSAT 2011).  The
caller's `prefer` literals then get their saved phase set true, so the
search starts from them wherever the clauses allow.

Clauses are append-only.  `copy()` gives an independent session in the
same state, so a loaded session can serve as a template that is never
solved on, and each user of a copy may add clauses to its own.  Sessions
are single-owner: one engine at a time; independent sessions run in
parallel.

Literals use the DIMACS convention externally (non-zero ints, negative for
negated; 0 is rejected); internally literal l of variable v is 2*v
(positive) or 2*v+1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush


TRUE = 1
FALSE = 0
UNDEF = 2


class OracleTimeout(Exception):
    """A solve call exceeded its per-call or per-instance budget."""


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
    """Live counters that the session updates in place.  Calls and answers
    count solve calls and conflicts count search conflicts; propagations
    count every literal that unit propagation dequeues, including those of
    a unit clause's load."""

    calls: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    conflicts: int = 0
    propagations: int = 0


class OracleSession:
    """CDCL solver over DIMACS-style integer literals, with statistics."""

    def __init__(self, num_vars: int = 0):
        self.nvars = 0
        self.ok = True
        # per-variable state
        self.assign: list[int] = []        # TRUE/FALSE/UNDEF
        self.level: list[int] = []
        self.reason: list[list[int] | None] = []
        self.activity: list[float] = []
        self.saved_phase: list[bool] = []
        self.seen: list[bool] = []
        # per-literal watcher lists of [clause, blocker] pairs
        self.watches: list[list[list]] = []
        self.clauses: list[list[int]] = []
        self.learnts: list[list[int]] = []        # oldest first
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        # the last call's assumptions; open decision level k holds the k-th
        self.last_assumptions: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.heap: list[tuple[float, int]] = []
        self.stats = SessionStats()
        self.ensure_vars(num_vars)

    # ------------------------------------------------------------------
    # variables and clauses

    def ensure_vars(self, n: int) -> None:
        while self.nvars < n:
            self.assign.append(UNDEF)
            self.level.append(0)
            self.reason.append(None)
            self.activity.append(0.0)
            self.saved_phase.append(False)
            self.seen.append(False)
            self.watches.append([])
            self.watches.append([])
            heappush(self.heap, (0.0, self.nvars))
            self.nvars += 1

    def new_var(self) -> int:
        self.ensure_vars(self.nvars + 1)
        return self.nvars

    def copy(self) -> OracleSession:
        """An independent session in this one's state: it answers every
        call sequence as this one would, and nothing done to either
        reaches the other.  Its statistics start at zero, so they count
        the copy's own work."""
        other = OracleSession()
        other.nvars, other.ok = self.nvars, self.ok
        other.qhead, other.var_inc = self.qhead, self.var_inc
        for name in ("assign", "level", "activity", "saved_phase", "seen",
                     "trail", "trail_lim", "last_assumptions", "heap"):
            setattr(other, name, getattr(self, name)[:])
        # propagation reorders a clause's literals in place, so each clause
        # gets a twin; watch lists and reasons keep their order and point
        # to the twins, so the copy's search is this one's
        other.clauses = [c[:] for c in self.clauses]
        other.learnts = [c[:] for c in self.learnts]
        twin = {id(c): d for c, d in zip(self.clauses + self.learnts,
                                         other.clauses + other.learnts)}
        other.watches = [[[twin[id(c)], blocker] for c, blocker in ws]
                         for ws in self.watches]
        other.reason = [None if r is None else twin[id(r)]
                        for r in self.reason]
        return other

    @staticmethod
    def _intern(lit: int) -> int:
        v = abs(lit) - 1
        return 2 * v + (1 if lit < 0 else 0)

    @staticmethod
    def _extern(ilit: int) -> int:
        v = (ilit >> 1) + 1
        return -v if ilit & 1 else v

    def _lit_value(self, ilit: int) -> int:
        v = self.assign[ilit >> 1]
        return v if v == UNDEF else v ^ (ilit & 1)

    def add_clause(self, clause) -> None:
        """Add a clause.  Backtracks to level 0 first, so the next call
        propagates its assumptions again."""
        lits = list(clause)
        if 0 in lits:
            raise ValueError("0 is not a literal")
        self._backtrack(0)
        self.ensure_vars(max(map(abs, lits), default=0))
        if not self.ok:
            return
        cl = sorted({self._intern(l) for l in lits})
        out = []
        for ilit in cl:
            if out and out[-1] == ilit ^ 1:
                return  # tautology: complements sort next to each other
            val = self._lit_value(ilit)
            if val == TRUE:
                return  # already satisfied at level 0
            if val == UNDEF:
                out.append(ilit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            self.ok = self._propagate() is None
            return
        self.clauses.append(out)
        self._watch(out)

    def _watch(self, clause: list[int]) -> None:
        # watches[l] holds the clauses watching l, visited when l turns false
        self.watches[clause[0]].append([clause, clause[1]])
        self.watches[clause[1]].append([clause, clause[0]])

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, ilit: int, reason: list[int] | None) -> None:
        v = ilit >> 1
        self.assign[v] = TRUE ^ (ilit & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(ilit)

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _backtrack(self, target: int) -> None:
        if self._decision_level() <= target:
            return
        limit = self.trail_lim[target]
        for ilit in reversed(self.trail[limit:]):
            v = ilit >> 1
            self.assign[v] = UNDEF
            self.reason[v] = None
            self.saved_phase[v] = not (ilit & 1)
            heappush(self.heap, (-self.activity[v], v))
        del self.trail[limit:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)
        if len(self.heap) > 2 * self.nvars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        # one current entry per unassigned variable; drops the duplicates
        # and stale entries that pushes on every unassignment leave behind
        self.heap = [(-self.activity[v], v) for v in range(self.nvars)
                     if self.assign[v] == UNDEF]
        heapify(self.heap)

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> list[int] | None:
        """Unit propagation to fixpoint; returns a conflicting clause or
        None.  The hot loop; keep it lean: it counts the literals it
        dequeues once, on exit."""
        trail = self.trail
        assign = self.assign
        watches = self.watches
        start = self.qhead
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            false_lit = p ^ 1
            ws = watches[false_lit]
            if not ws:
                continue
            new_ws = []
            i = 0
            n = len(ws)
            while i < n:
                entry = ws[i]
                i += 1
                blocker = entry[1]
                bval = assign[blocker >> 1]
                if bval != UNDEF and bval ^ (blocker & 1) == TRUE:
                    new_ws.append(entry)
                    continue
                clause = entry[0]
                # keep the other watch at position 0
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fval = assign[first >> 1]
                if fval != UNDEF and fval ^ (first & 1) == TRUE:
                    entry[1] = first
                    new_ws.append(entry)
                    continue
                found = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    kv = assign[lk >> 1]
                    if kv == UNDEF or kv ^ (lk & 1) == TRUE:
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk].append(entry)
                        found = True
                        break
                if found:
                    continue
                new_ws.append(entry)
                if fval != UNDEF:
                    # first watch is false as well: conflict
                    new_ws.extend(ws[i:])
                    watches[false_lit] = new_ws
                    self.stats.propagations += self.qhead - start
                    self.qhead = len(trail)
                    return clause
                self._enqueue(first, clause)
            watches[false_lit] = new_ws
        self.stats.propagations += self.qhead - start
        return None

    # ------------------------------------------------------------------
    # activity

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(self.nvars):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            # every queued entry now carries an outdated activity
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # conflict analysis

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning.  Returns (learnt clause, backtrack level);
        the asserting literal sits at position 0."""
        seen = self.seen
        learnt = [0]
        toclear: list[int] = []
        counter = 0
        p = -1
        reason = conflict
        index = len(self.trail)
        dl = self._decision_level()
        while True:
            start = 0 if p == -1 else 1
            for k in range(start, len(reason)):
                q = reason[k]
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    toclear.append(v)
                    self._bump_var(v)
                    if self.level[v] >= dl:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = self.trail[index]
                if seen[p >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[p >> 1]
        learnt[0] = p ^ 1

        minimized = [learnt[0]]
        for q in learnt[1:]:
            if self.reason[q >> 1] is None or not self._redundant(q, toclear):
                minimized.append(q)

        for v in toclear:
            seen[v] = False

        if len(minimized) == 1:
            bt = 0
        else:
            bt = max(self.level[q >> 1] for q in minimized[1:])
            for k in range(1, len(minimized)):
                if self.level[minimized[k] >> 1] == bt:
                    minimized[1], minimized[k] = minimized[k], minimized[1]
                    break
        return minimized, bt

    def _redundant(self, lit: int, toclear: list[int]) -> bool:
        """True if lit is implied by literals already in the learnt clause
        (walks the implication graph); marks stay for memoization and are
        cleared by the caller via toclear."""
        stack = [lit]
        seen = self.seen
        marked_here: list[int] = []
        while stack:
            q = stack.pop()
            reason = self.reason[q >> 1]
            if reason is None:
                for v in marked_here:
                    seen[v] = False
                return False
            for k in range(1, len(reason)):
                r = reason[k]
                v = r >> 1
                if not seen[v] and self.level[v] > 0:
                    if self.reason[v] is None:
                        for u in marked_here:
                            seen[u] = False
                        return False
                    seen[v] = True
                    marked_here.append(v)
                    toclear.append(v)
                    stack.append(r)
        return True

    # ------------------------------------------------------------------
    # final-conflict cores

    def _analyze_final(self, failing: int, assumed: set[int]) -> list[int]:
        """Assumption subset responsible for falsifying assumption literal
        `failing`; the failing literal itself is included."""
        core = {failing}
        if self._decision_level() == 0:
            return sorted(self._extern(l) for l in core)
        seen = self.seen
        marked = [failing >> 1]
        seen[failing >> 1] = True
        for ilit in reversed(self.trail[self.trail_lim[0]:]):
            v = ilit >> 1
            if not seen[v]:
                continue
            reason = self.reason[v]
            if reason is None:
                if ilit in assumed:
                    core.add(ilit)
            else:
                for k in range(1, len(reason)):
                    u = reason[k] >> 1
                    if self.level[u] > 0 and not seen[u]:
                        seen[u] = True
                        marked.append(u)
        for v in marked:
            seen[v] = False
        return sorted(self._extern(l) for l in core)

    # ------------------------------------------------------------------
    # search

    def _pick_branch(self) -> int:
        heap = self.heap
        assign = self.assign
        activity = self.activity
        while heap:
            negact, v = heappop(heap)
            if assign[v] == UNDEF and -negact == activity[v]:
                return 2 * v + (0 if self.saved_phase[v] else 1)
        return -1

    def solve_under_assumptions(
        self, assumptions=(), deadline: float | None = None, prefer=()
    ) -> SolveResult:
        """SAT check of the clauses under the given literals, branching
        first towards the `prefer` literals.

        A SAT result carries a model with model[v] the value of 1-based
        variable v.  On UNSAT the result carries a core: a subset of the
        assumptions sufficient for unsatisfiability (not necessarily
        minimal).  The assumption levels the answer leaves consistent stay
        on the trail for the next call, so callers that vary the tail of a
        fixed-order list pay the least.  Raises OracleTimeout when the deadline runs out: at entry
        once it has passed, then on a conflict or every 1024 decisions;
        the session stays usable afterwards.
        """
        if 0 in assumptions or 0 in prefer:
            raise ValueError("0 is not a literal")
        if deadline is not None and time.monotonic() > deadline:
            raise OracleTimeout("deadline exceeded")
        stats = self.stats
        stats.calls += 1
        self.ensure_vars(max(map(abs, (*assumptions, *prefer)), default=0))
        if not self.ok:
            stats.unsat_answers += 1
            return SolveResult(False, core=[])
        iassumps = [self._intern(l) for l in assumptions]
        assumed = set(iassumps)
        keep = 0
        while keep < min(self._decision_level(), len(iassumps)) and \
                self.last_assumptions[keep] == iassumps[keep]:
            keep += 1
        self._backtrack(keep)
        self.last_assumptions = iassumps
        # after the backtrack, whose phase saving would overwrite them
        for lit in prefer:
            self.saved_phase[abs(lit) - 1] = lit > 0

        decisions = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                if self._decision_level() == 0:
                    self.ok = False
                    stats.unsat_answers += 1
                    return SolveResult(False, core=[])
                learnt, bt = self._analyze(conflict)
                self._backtrack(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self._watch(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc *= self.var_decay
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    raise OracleTimeout("deadline exceeded")
                continue

            # re-establish the assumption prefix, then branch
            next_lit = -1
            while self._decision_level() < len(iassumps):
                a = iassumps[self._decision_level()]
                val = self._lit_value(a)
                if val == TRUE:
                    self.trail_lim.append(len(self.trail))
                    continue
                if val == FALSE:
                    # every open level holds a satisfied assumption
                    stats.unsat_answers += 1
                    return SolveResult(
                        False, core=self._analyze_final(a, assumed))
                next_lit = a
                break
            if next_lit == -1:
                next_lit = self._pick_branch()
                if next_lit == -1:
                    model = [False] * (self.nvars + 1)
                    for v in range(self.nvars):
                        model[v + 1] = self.assign[v] == TRUE
                    self._backtrack(len(iassumps))
                    stats.sat_answers += 1
                    return SolveResult(True, model=model)
            decisions += 1
            if deadline is not None and not decisions % 1024 and \
                    time.monotonic() > deadline:
                self._backtrack(0)
                raise OracleTimeout("deadline exceeded")
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)

    # short form used throughout the engines
    solve = solve_under_assumptions
