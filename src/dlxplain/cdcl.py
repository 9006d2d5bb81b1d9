"""A small conflict-driven clause-learning SAT solver.

Self-contained incremental solver with assumption support and final-conflict
core extraction, in the MiniSat tradition: two-watched-literal propagation,
1UIP learning with recursive minimization, EVSIDS branching, phase saving,
Luby restarts, oldest-first learnt-clause reduction and removal of the
clauses satisfied at level 0.  Fully deterministic: identical inputs
produce identical models and cores.

Each call starts where the previous one left off.  Decision level k holds
the k-th assumption, and a call keeps every level up to the first whose
assumption differs from its own list, so a shared assumption prefix is
propagated once (trail reuse, van der Tak, Ramos & Heule, JSAT 2011).  The
caller's `prefer` literals then get their saved phase set true, so the
search starts from them wherever the clauses allow.

Literals use the DIMACS convention externally (non-zero ints, negative for
negated); internally literal l of variable v is 2*v (positive) or 2*v+1.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush


TRUE = 1
FALSE = 0
UNDEF = 2


def _luby(i: int) -> int:
    # Luby restart sequence 1,1,2,1,1,2,4,... (i counted from 0)
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class OracleTimeout(Exception):
    """A solve call exceeded its per-call or per-instance budget."""


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    def __init__(self) -> None:
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
        self.conflicts = 0
        self.propagations = 0
        self.max_learnts = 4000

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

    def add_clause(self, lits) -> bool:
        """Add a problem clause; returns False if the instance became
        trivially unsatisfiable.  Backtracks to level 0 first, so the next
        call propagates its assumptions again."""
        self._backtrack(0)
        for lit in lits:
            self.ensure_vars(abs(lit))
        if not self.ok:
            return False
        cl = sorted({self._intern(l) for l in lits})
        out = []
        for ilit in cl:
            if out and out[-1] == ilit ^ 1:
                return True  # tautology: complements sort next to each other
            val = self._lit_value(ilit)
            if val == TRUE:
                return True  # already satisfied at level 0
            if val == UNDEF:
                out.append(ilit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self.clauses.append(out)
        self._watch(out)
        return True

    def _watch(self, clause: list[int]) -> None:
        # watches[l] holds the clauses watching l, visited when l turns false
        self.watches[clause[0]].append([clause, clause[1]])
        self.watches[clause[1]].append([clause, clause[0]])

    def _rebuild_watches(self) -> None:
        # every stored clause is watched by its first two literals
        self.watches = [[] for _ in range(2 * self.nvars)]
        for clause in self.clauses:
            self._watch(clause)
        for clause in self.learnts:
            self._watch(clause)

    def simplify(self) -> bool:
        """Remove what level 0 decides, as MiniSat's removeSatisfied does:
        drop every problem and learnt clause satisfied at level 0, strip
        the literals false there and rebuild the watch lists.  Backtracks
        to level 0 first.  Returns False if the clauses are
        unsatisfiable."""
        self._backtrack(0)
        if not self.ok or self._propagate() is not None:
            self.ok = False
            return False
        self.clauses = self._strip_satisfied(self.clauses)
        self.learnts = self._strip_satisfied(self.learnts)
        # conflict analysis never reads the reason of a level-0
        # assignment, and the clause it names may just have gone
        for ilit in self.trail:
            self.reason[ilit >> 1] = None
        self._rebuild_watches()
        return True

    def _strip_satisfied(self, clauses: list[list[int]]) -> list[list[int]]:
        # a clause left unsatisfied at the level-0 fixpoint keeps its two
        # watches, which are unassigned, at positions 0 and 1; at level 0
        # the trail holds exactly the true literals, and set tests keep
        # a sweep after every selector retirement cheap
        true = set(self.trail)
        false = {ilit ^ 1 for ilit in self.trail}
        kept = []
        for clause in clauses:
            if not true.isdisjoint(clause):
                continue
            if not false.isdisjoint(clause):
                clause[:] = [l for l in clause if l not in false]
            kept.append(clause)
        return kept

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
        None.  The hot loop; keep it lean."""
        trail = self.trail
        assign = self.assign
        watches = self.watches
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
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
                    self.qhead = len(trail)
                    return clause
                self._enqueue(first, clause)
            watches[false_lit] = new_ws
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
    # learnt-clause housekeeping

    def _reduce_db(self) -> None:
        # learnts are stored oldest first, so the older half is the front
        # half; its unlocked clauses of more than two literals go
        locked = {
            id(self.reason[l >> 1]) for l in self.trail
            if self.reason[l >> 1] is not None
        }
        drop = {
            id(c)
            for c in self.learnts[: len(self.learnts) // 2]
            if id(c) not in locked and len(c) > 2
        }
        if not drop:
            return
        self.learnts = [c for c in self.learnts if id(c) not in drop]
        self._rebuild_watches()

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

    def solve(
        self,
        assumptions: list[int] | None = None,
        deadline: float | None = None,
        prefer=(),
    ) -> tuple[bool, list[bool] | None, list[int] | None]:
        """Search under assumptions, branching first towards the `prefer`
        literals.

        Returns (True, model, None) with model[v] the value of 1-based
        variable v, or (False, None, core) with core a subset of the
        assumptions sufficient for unsatisfiability.  Raises OracleTimeout
        when the deadline runs out; the solver stays usable afterwards.
        The assumption levels the answer leaves consistent stay on the
        trail for the next call.
        """
        assumptions = list(assumptions or [])
        for lit in (*assumptions, *prefer):
            self.ensure_vars(abs(lit))
        if not self.ok:
            return False, None, []
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

        restarts = 0
        limit = 64 * _luby(restarts)
        conflicts_here = 0
        decisions = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return False, None, []
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
                if conflicts_here >= limit:
                    restarts += 1
                    limit = 64 * _luby(restarts)
                    conflicts_here = 0
                    self._backtrack(0)
                if len(self.learnts) > self.max_learnts:
                    self._reduce_db()
                    self.max_learnts = int(self.max_learnts * 1.3)
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
                    return False, None, self._analyze_final(a, assumed)
                next_lit = a
                break
            if next_lit == -1:
                next_lit = self._pick_branch()
                if next_lit == -1:
                    model = [False] * (self.nvars + 1)
                    for v in range(self.nvars):
                        model[v + 1] = self.assign[v] == TRUE
                    self._backtrack(len(iassumps))
                    return True, model, None
            decisions += 1
            if deadline is not None and not decisions % 1024 and \
                    time.monotonic() > deadline:
                self._backtrack(0)
                raise OracleTimeout("deadline exceeded")
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)
