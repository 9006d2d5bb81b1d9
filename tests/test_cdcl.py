"""Solver sanity: answers cross-checked against truth-table enumeration on
random small formulas, plus core soundness, determinism and budgets."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dlxplain.cdcl import BudgetExceeded, Solver, _luby


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
    with pytest.raises(BudgetExceeded):
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
    s.set_phase(1, True)
    sat, model, _ = s.solve()
    assert sat
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
