"""Solver sanity: answers cross-checked against truth-table enumeration on
random small formulas, plus core soundness, determinism, budgets, preferred
phases, the trail one call leaves to the next and copies of a session."""

import itertools
import random
import time
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from dlxplain.oracle import OracleSession, OracleTimeout


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses
        ):
            return True
    return False


def make_solver(clauses):
    s = OracleSession()
    for cl in clauses:
        s.add_clause(cl)
    return s


def test_unit_and_conflict():
    s = OracleSession()
    s.add_clause([1])
    res = s.solve()
    assert res.sat and res.model[1]
    s.add_clause([-1])
    res = s.solve()
    assert not res.sat
    assert res.core == []


def test_simple_backtracking():
    s = make_solver([[1, 2], [-1, 2], [1, -2]])
    res = s.solve()
    assert res.sat and res.model[1] and res.model[2]


def test_assumptions_and_core():
    s = make_solver([[-1, -2]])
    res = s.solve([1, 2])
    assert not res.sat
    assert set(res.core) <= {1, 2} and res.core
    # restricting to the core stays unsatisfiable
    assert not s.solve(res.core).sat
    # each assumption alone is fine
    assert s.solve([1]).sat
    assert s.solve([2]).sat


def test_conflicting_assumptions():
    s = make_solver([[1, 2]])
    res = s.solve([3, -3])
    assert not res.sat
    assert set(res.core) == {3, -3}


def test_budget_raises_and_solver_survives():
    # hard pigeonhole-ish instance: 6 holes, 7 pigeons
    clauses = []
    def var(p, h):
        return p * 6 + h + 1
    for p in range(7):
        clauses.append([var(p, h) for h in range(6)])
    for h in range(6):
        for p1 in range(7):
            for p2 in range(p1 + 1, 7):
                clauses.append([-var(p1, h), -var(p2, h)])
    s = make_solver(clauses)
    with pytest.raises(OracleTimeout):
        s.solve(deadline=time.monotonic() - 1)  # spent before the call
    assert s.stats.conflicts == 0  # raised at entry, before any search
    # still usable and eventually correct
    assert not s.solve().sat


def _random_cnf(rng, num_vars, num_clauses, width):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        vs = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def test_random_cnf_agreement_with_enumeration():
    rng = random.Random(42)
    for trial in range(300):
        n = rng.randint(1, 8)
        clauses = _random_cnf(rng, n, rng.randint(1, 24), 3)
        s = make_solver(clauses)
        s.ensure_vars(n)
        res = s.solve()
        expected = brute_force_sat(n, clauses)
        assert res.sat == expected, (trial, clauses)
        if res.sat:
            bits = [res.model[v] for v in range(1, n + 1)]
            assert all(
                any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses
            ), (trial, clauses)


def test_random_assumption_cores():
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(2, 7)
        clauses = _random_cnf(rng, n, rng.randint(2, 18), 3)
        assumps = [v if rng.random() < 0.5 else -v
                   for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
        s = make_solver(clauses)
        res = s.solve(assumps)
        expected = brute_force_sat(n, clauses + [[a] for a in assumps])
        assert res.sat == expected, (trial, clauses, assumps)
        if not res.sat and s.ok:
            assert set(res.core) <= set(assumps)
            assert not s.solve(res.core).sat, (trial, clauses, assumps,
                                               res.core)


def test_monotonic_under_clause_addition():
    rng = random.Random(13)
    for trial in range(60):
        n = rng.randint(2, 6)
        clauses = _random_cnf(rng, n, rng.randint(2, 10), 3)
        assumps = [rng.choice([v, -v]) for v in range(1, n + 1)]
        s = make_solver(clauses)
        first = s.solve(assumps).sat
        for extra in _random_cnf(rng, n, 4, 3):
            s.add_clause(extra)
            second = s.solve(assumps).sat
            if not first:
                assert not second  # UNSAT can never become SAT
            first = second


def test_determinism():
    rng = random.Random(99)
    clauses = _random_cnf(rng, 12, 40, 3)
    runs = []
    for _ in range(2):
        s = make_solver(clauses)
        res = s.solve()
        runs.append((res.sat, res.model))
    assert runs[0] == runs[1]


def test_incremental_solving_with_phases():
    s = make_solver([[1, 2, 3]])
    res = s.solve(prefer=[1])
    assert res.sat and res.model[1]
    s.add_clause([-1])
    res = s.solve()
    assert res.sat and not res.model[1]
    s.add_clause([-2])
    res = s.solve()
    assert res.sat and res.model[3]


def test_tautology_and_duplicate_literals():
    s = OracleSession()
    s.add_clause([1, -1])       # dropped as a tautology
    s.add_clause([2, 2, 2])     # collapses to a unit
    res = s.solve()
    assert res.sat and res.model[2]


def test_models_survive_activity_rescale():
    # var_inc starts just under the 1e100 threshold, so early conflicts
    # rescale every activity while unassigned variables sit in the heap
    sat_count = 0
    for seed in range(300):
        rng = random.Random(seed)
        clauses = [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, 31), 3)]
                   for _ in range(120)]
        s = make_solver(clauses)
        s.var_inc = 1e99
        res = s.solve()
        if res.sat:
            sat_count += 1
            assert all(
                any(res.model[abs(l)] == (l > 0) for l in cl) for cl in clauses
            ), seed
    assert sat_count > 200


def test_branching_heap_stays_bounded():
    # a sequence of mostly-UNSAT calls on a near-threshold 3-SAT formula;
    # every backtrack re-queues the variables it unassigns
    rng = random.Random(5)
    n = 40
    s = make_solver(
        [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, n + 1), 3)]
         for _ in range(160)])
    for _ in range(30):
        assumps = [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), 3)]
        s.solve(assumps)
        assert len(s.heap) <= 2 * s.nvars


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hypothesis_random_formulas(data):
    n = data.draw(st.integers(1, 6))
    clauses = data.draw(
        st.lists(
            st.lists(
                st.integers(-n, n).filter(lambda x: x != 0),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=14,
        )
    )
    s = make_solver(clauses)
    assert s.solve().sat == brute_force_sat(n, clauses)


def test_prefer_wins_over_saved_phases():
    # assuming 1 sets 2 false and 3 true; the next call drops that level,
    # and the backtrack saves those values as phases
    s = make_solver([[-1, -2], [-1, 3]])
    res = s.solve([1])
    assert res.sat and not res.model[2] and res.model[3]
    res = s.solve([-1], prefer=[2, -3])
    assert res.sat and res.model[2] and not res.model[3]
    # a preferred literal the clauses forbid stays false
    res = s.solve([1], prefer=[2, -3])
    assert res.sat and not res.model[2] and res.model[3]


def _literals(n):
    return st.integers(-n, n).filter(lambda x: x != 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_call_sequences_agree_with_fresh_solvers(data):
    # one solver answers a sequence of calls whose assumption lists share
    # prefixes, with clauses added between some of them; a fresh solver
    # on the same clauses is the referee of every answer
    n = data.draw(st.integers(2, 6))
    clause = st.lists(_literals(n), min_size=1, max_size=3)
    clauses = data.draw(st.lists(clause, max_size=12))
    s = make_solver(clauses)
    assumps: list[int] = []
    for _ in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            extra = data.draw(clause)
            clauses.append(extra)
            s.add_clause(extra)
        keep = data.draw(st.integers(0, len(assumps)))
        assumps = assumps[:keep] + data.draw(st.lists(_literals(n), max_size=4))
        prefer = data.draw(st.lists(_literals(n), max_size=3))
        res = s.solve(assumps, prefer=prefer)
        assert res.sat == make_solver(clauses).solve(assumps).sat
        if res.sat:
            assert all(any(res.model[abs(l)] == (l > 0) for l in cl)
                       for cl in clauses + [[a] for a in assumps])
        else:
            assert set(res.core) <= set(assumps)
            assert not make_solver(clauses).solve(res.core).sat


def _calls(data, n, clause, least=1):
    """A call sequence: per call, a clause to add first or None, the
    assumptions (sharing a drawn prefix with the last call's) and the
    preferred literals."""
    calls, assumps = [], []
    for _ in range(data.draw(st.integers(least, 6))):
        extra = data.draw(clause) if data.draw(st.booleans()) else None
        keep = data.draw(st.integers(0, len(assumps)))
        assumps = assumps[:keep] + data.draw(st.lists(_literals(n), max_size=4))
        calls.append((extra, assumps, data.draw(st.lists(_literals(n),
                                                         max_size=3))))
    return calls


def _replay(s, calls):
    answers = []
    for extra, assumps, prefer in calls:
        if extra is not None:
            s.add_clause(extra)
        answers.append(s.solve(assumps, prefer=prefer))
    return answers


def _state(s):
    watches = [[(tuple(c), blocker) for c, blocker in ws] for ws in s.watches]
    return ([c[:] for c in s.clauses], [c[:] for c in s.learnts], watches,
            s.trail[:], s.saved_phase[:], s.heap[:], s.activity[:],
            s.var_inc, astuple(s.stats))


def _reached(s):
    """The identities of the mutable objects a session's calls may change:
    its lists, their clauses, watch entries and reasons, and its stats."""
    lists = [x for x in vars(s).values() if isinstance(x, list)]
    lists += [*s.clauses, *s.learnts, *s.watches,
              *(entry for ws in s.watches for entry in ws),
              *(r for r in s.reason if r is not None)]
    return {id(x) for x in lists} | {id(s.stats)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_copies_answer_as_fresh_loads_and_leave_their_original_alone(data):
    # a session loaded and warmed up by some calls is copied; the copy
    # and a twin loaded and warmed up the same way then answer one call
    # sequence with the same models, cores and counters, while the
    # original keeps its clauses, trail, phases, heap and counters.  The
    # 3-literal clauses are dense, so that calls conflict and learn.
    n = data.draw(st.integers(5, 9))
    clause = st.lists(_literals(n), min_size=3, max_size=3)
    clauses = data.draw(st.lists(clause, min_size=15, max_size=45))
    warm_up = _calls(data, n, clause, least=0)
    original, twin = make_solver(clauses), make_solver(clauses)
    assert _replay(original, warm_up) == _replay(twin, warm_up)
    copy = original.copy()
    assert not _reached(copy) & _reached(original)
    kept = _state(original)
    assert _state(copy)[:-1] == _state(twin)[:-1]
    assert astuple(copy.stats) == (0, 0, 0, 0, 0)
    counted = astuple(twin.stats)
    calls = _calls(data, n, clause)
    answers = _replay(copy, calls)
    assert answers == _replay(twin, calls)
    assert astuple(copy.stats) == tuple(
        a - b for a, b in zip(astuple(twin.stats), counted))
    assert _state(original) == kept
    # the original, solved on in turn, answers as its copy did, and the
    # copy goes on answering as its twin
    assert _replay(original, calls) == answers
    more = _calls(data, n, clause)
    assert _replay(copy, more) == _replay(twin, more)
