"""Solver sanity: answers cross-checked against truth-table enumeration on
random small formulas, plus core soundness, determinism, budgets, preferred
phases and the trail one call leaves to the next."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dlxplain.cdcl import OracleTimeout, Solver, _luby


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses
        ):
            return True
    return False


def make_solver(clauses):
    s = Solver()
    for cl in clauses:
        s.add_clause(cl)
    return s


def test_unit_and_conflict():
    s = Solver()
    s.add_clause([1])
    sat, model, _ = s.solve()
    assert sat and model[1]
    s.add_clause([-1])
    sat, _, core = s.solve()
    assert not sat
    assert core == []


def test_simple_backtracking():
    s = make_solver([[1, 2], [-1, 2], [1, -2]])
    sat, model, _ = s.solve()
    assert sat and model[1] and model[2]


def test_assumptions_and_core():
    s = make_solver([[-1, -2]])
    sat, _, core = s.solve([1, 2])
    assert not sat
    assert set(core) <= {1, 2} and core
    # restricting to the core stays unsatisfiable
    sat2, _, _ = s.solve(core)
    assert not sat2
    # each assumption alone is fine
    assert s.solve([1])[0]
    assert s.solve([2])[0]


def test_conflicting_assumptions():
    s = make_solver([[1, 2]])
    sat, _, core = s.solve([3, -3])
    assert not sat
    assert set(core) == {3, -3}


def test_luby_prefix():
    assert [_luby(i) for i in range(15)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
    ]


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
        s.solve(deadline=time.monotonic())  # runs out at the first conflict
    assert s.conflicts == 1
    # still usable and eventually correct
    sat, _, _ = s.solve()
    assert not sat


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
        sat, model, _ = s.solve()
        expected = brute_force_sat(n, clauses)
        assert sat == expected, (trial, clauses)
        if sat:
            bits = [model[v] for v in range(1, n + 1)]
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
        sat, model, core = s.solve(assumps)
        expected = brute_force_sat(n, clauses + [[a] for a in assumps])
        assert sat == expected, (trial, clauses, assumps)
        if not sat and s.ok:
            assert set(core) <= set(assumps)
            sat2, _, _ = s.solve(core)
            assert not sat2, (trial, clauses, assumps, core)


def test_monotonic_under_clause_addition():
    rng = random.Random(13)
    for trial in range(60):
        n = rng.randint(2, 6)
        clauses = _random_cnf(rng, n, rng.randint(2, 10), 3)
        assumps = [rng.choice([v, -v]) for v in range(1, n + 1)]
        s = make_solver(clauses)
        first = s.solve(assumps)[0]
        for extra in _random_cnf(rng, n, 4, 3):
            s.add_clause(extra)
            second = s.solve(assumps)[0]
            if not first:
                assert not second  # UNSAT can never become SAT
            first = second


def test_determinism():
    rng = random.Random(99)
    clauses = _random_cnf(rng, 12, 40, 3)
    runs = []
    for _ in range(2):
        s = make_solver(clauses)
        sat, model, _ = s.solve()
        runs.append((sat, model))
    assert runs[0] == runs[1]


def test_incremental_solving_with_phases():
    s = make_solver([[1, 2, 3]])
    sat, model, _ = s.solve(prefer=[1])
    assert sat and model[1]
    s.add_clause([-1])
    sat, model, _ = s.solve()
    assert sat and not model[1]
    s.add_clause([-2])
    sat, model, _ = s.solve()
    assert sat and model[3]


def test_tautology_and_duplicate_literals():
    s = Solver()
    s.add_clause([1, -1])       # dropped as a tautology
    s.add_clause([2, 2, 2])     # collapses to a unit
    sat, model, _ = s.solve()
    assert sat and model[2]


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
        sat, model, _ = s.solve()
        if sat:
            sat_count += 1
            assert all(
                any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses
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


def _stored(s):
    return {frozenset(map(s._extern, cl)) for cl in s.clauses}


def test_simplify_removes_what_level_0_decides():
    s = make_solver([[1, 2, 3], [-1, 4, 5], [2, -3, 5]])
    assert s.solve()[0]
    s.add_clause([1])
    assert s.simplify()
    # [1, 2, 3] is satisfied, -1 is false: only the rest is kept
    assert _stored(s) == {frozenset({4, 5}), frozenset({2, -3, 5})}
    assert all(len(w) <= 2 for w in s.watches)
    assert not s.solve([-4, -5])[0]
    sat, model, _ = s.solve([-2, 3])
    assert sat and model[5]
    s.add_clause([-5])
    assert s.simplify()
    assert _stored(s) == {frozenset({2, -3})}
    assert s.solve()[1][4]
    s.add_clause([-4])
    assert not s.simplify() and not s.solve()[0]


def test_simplify_and_learnt_reduction_keep_answers():
    # near-threshold 3-SAT: units arrive one by one, each followed by a
    # sweep, while a tiny learnt-clause limit makes the solver reduce its
    # database often; a fresh solver on the same clauses is the referee
    rng = random.Random(3)
    for trial in range(40):
        n = 24
        clauses = [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(96)]
        s = make_solver(clauses)
        s.max_learnts = 2
        for v in rng.sample(range(1, n + 1), 6):
            unit = rng.choice([v, -v])
            clauses.append([unit])
            s.add_clause([unit])
            if s.simplify():
                for cl in s.clauses + s.learnts:
                    assert all(s._lit_value(l) == 2 for l in cl)
                    # watched by its first two literals, and only there
                    assert [i for i, ws in enumerate(s.watches)
                            for e in ws if e[0] is cl] == sorted(cl[:2])
            assumps = [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), 2)]
            sat, model, _ = s.solve(assumps)
            assert sat == make_solver(clauses).solve(assumps)[0], trial
            if sat:
                full = clauses + [[a] for a in assumps]
                assert all(any(model[abs(l)] == (l > 0) for l in cl)
                           for cl in full), trial


def test_learnt_reduction_drops_the_older_half_in_learnt_order():
    # a tiny learnt-clause limit makes the solver reduce often; every
    # reduction must keep the survivors in the order they were learnt and
    # drop exactly the unlocked clauses of more than two literals among
    # the older half
    rng = random.Random(7)
    n = 40
    s = make_solver(
        [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, n + 1), 3)]
         for _ in range(170)])
    s.max_learnts = 5
    born, reductions = [], []
    analyze, reduce_db = s._analyze, s._reduce_db

    def spy_analyze(conflict):
        learnt, bt = analyze(conflict)
        born.append(learnt)
        return learnt, bt

    def spy_reduce_db():
        before = list(s.learnts)
        locked = {id(s.reason[l >> 1]) for l in s.trail
                  if s.reason[l >> 1] is not None}
        reduce_db()
        reductions.append((before, locked, list(s.learnts)))

    s._analyze, s._reduce_db = spy_analyze, spy_reduce_db
    for _ in range(40):
        s.solve([rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), 3)])
    age = {id(c): i for i, c in enumerate(born)}
    assert len(reductions) >= 3
    for before, locked, after in reductions:
        assert [age[id(c)] for c in before] == sorted(age[id(c)] for c in before)
        old = before[: len(before) // 2]
        dropped = [c for c in old if id(c) not in locked and len(c) > 2]
        assert dropped
        gone = {id(c) for c in dropped}
        assert [id(c) for c in after] == \
            [id(c) for c in before if id(c) not in gone]


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
    sat, model, _ = s.solve()
    assert sat == brute_force_sat(n, clauses)


def test_prefer_wins_over_saved_phases():
    # assuming 1 sets 2 false and 3 true; the next call drops that level,
    # and the backtrack saves those values as phases
    s = make_solver([[-1, -2], [-1, 3]])
    sat, model, _ = s.solve([1])
    assert sat and not model[2] and model[3]
    sat, model, _ = s.solve([-1], prefer=[2, -3])
    assert sat and model[2] and not model[3]
    # a preferred literal the clauses forbid stays false
    sat, model, _ = s.solve([1], prefer=[2, -3])
    assert sat and not model[2] and model[3]


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
        sat, model, core = s.solve(assumps, prefer=prefer)
        assert sat == make_solver(clauses).solve(assumps)[0]
        if sat:
            assert all(any(model[abs(l)] == (l > 0) for l in cl)
                       for cl in clauses + [[a] for a in assumps])
        else:
            assert set(core) <= set(assumps)
            assert not make_solver(clauses).solve(core)[0]
