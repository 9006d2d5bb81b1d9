"""Session contract: clauses, assumption cores, statistics, budgets."""

import time

import pytest

from dlxplain import encode_explanation_query
from dlxplain.explain import load_encoding
from dlxplain.oracle import OracleSession, OracleTimeout


def test_add_clause_and_solve():
    ses = OracleSession(1)
    ses.add_clause([1])
    res = ses.solve_under_assumptions([])
    assert res.sat and res.lit_true(1)
    ses.add_clause([-1])
    assert not ses.solve_under_assumptions([]).sat


def test_core_subset_and_sound(mhs_dl, mhs_instance):
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    ses = load_encoding(enc)
    res = ses.solve(enc.soft)
    assert not res.sat
    assert set(res.core) <= set(enc.soft)
    assert not ses.solve(res.core).sat


def test_mhs_encoding_assumption_answers(mhs_dl, mhs_instance):
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    ses = load_encoding(enc)
    soft = enc.soft  # feature order x1..x5
    assert not ses.solve(soft).sat                 # instance entails itself
    assert not ses.solve([soft[2]]).sat            # x3=1 alone suffices
    assert not ses.solve([soft[0], soft[1]]).sat   # x1=1, x2=1 suffices
    assert ses.solve([soft[0]]).sat                # x1=1 alone does not


def test_stats_accumulate(mhs_dl, mhs_instance):
    # one stats object counts in place, so a caller may hold it across a
    # call and read its fields afterwards
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    ses = load_encoding(enc)
    s = ses.stats
    propagations = s.propagations
    ses.solve(enc.soft)
    assert ses.stats is s
    assert s.calls == 1 and s.propagations > propagations
    ses.solve([])
    assert s.calls == 2
    assert s.sat_answers >= 1 and s.unsat_answers >= 1


def test_literal_zero_is_rejected():
    # 0 ends a DIMACS clause and is no literal: read as one, it would
    # alias the last variable's watch list and value
    ses = OracleSession(2)
    with pytest.raises(ValueError, match="0 is not a literal"):
        ses.add_clause([1, 0])
    for assumptions, prefer in (([0], ()), ([-1], [0])):
        with pytest.raises(ValueError, match="0 is not a literal"):
            ses.solve(assumptions, prefer=prefer)
    assert ses.clauses == [] and ses.stats.calls == 0
    ses.add_clause([1])
    assert not ses.solve([-1]).sat


def test_timeout_is_explicit():
    # 7 pigeons into 6 holes: about 0.1 s of search, cut after 10 ms
    ses = OracleSession(42)
    def var(p, h):
        return p * 6 + h + 1
    for p in range(7):
        ses.add_clause([var(p, h) for h in range(6)])
    for h in range(6):
        for p1 in range(7):
            for p2 in range(p1 + 1, 7):
                ses.add_clause([-var(p1, h), -var(p2, h)])
    with pytest.raises(OracleTimeout):
        ses.solve([], deadline=time.monotonic() + 0.01)
    assert not ses.solve([]).sat  # afterwards the session still answers


def test_expired_deadline_raises_even_without_search():
    # a conflict-free call never reaches the solver's own clock checks
    ses = OracleSession(3)
    ses.add_clause([1, 2, 3])
    with pytest.raises(OracleTimeout):
        ses.solve([], deadline=time.monotonic() - 1)
    assert ses.solve([], deadline=time.monotonic() + 60).sat
