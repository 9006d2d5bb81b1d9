"""Session contract: selector discipline, assumption cores, statistics."""

import time

import pytest

from dlxplain import encode_explanation_query
from dlxplain.explain import load_encoding
from dlxplain.oracle import OracleSession, OracleTimeout, UnknownSelector


def test_add_clause_and_solve():
    ses = OracleSession(1)
    ses.add_clause([1])
    res = ses.solve_under_assumptions([])
    assert res.sat and res.lit_true(1)
    ses.add_clause([-1])
    assert not ses.solve_under_assumptions([]).sat


def test_blocking_clause_under_selector_toggles():
    ses = OracleSession(2)
    ses.add_clause([1, 2])
    sel = ses.new_selector(enabled=True)
    ses.add_clause([-1], selector=sel)  # block models with 1
    res = ses.solve([1])
    assert not res.sat
    ses.set_selector(sel, False)       # previous models reappear
    assert ses.solve([1]).sat


def test_selector_toggle_idempotent_and_unknown():
    ses = OracleSession(1)
    sel = ses.new_selector()
    ses.set_selector(sel, False)
    ses.set_selector(sel, False)
    ses.set_selector(sel, True)
    assert ses.solve([]).sat
    with pytest.raises(UnknownSelector):
        ses.set_selector(991, True)


def test_enabling_unused_selector_is_noop():
    ses = OracleSession(1)
    ses.add_clause([1])
    sel = ses.new_selector(enabled=False)
    ses.set_selector(sel, True)
    assert ses.solve([]).sat


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
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    ses = load_encoding(enc)
    before = ses.stats.calls
    ses.solve(enc.soft)
    ses.solve([])
    assert ses.stats.calls == before + 2
    assert ses.stats.sat_answers >= 1 and ses.stats.unsat_answers >= 1


def test_timeout_is_explicit():
    # 7 pigeons into 6 holes, tiny budget
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
        ses.solve([], conflict_budget=3)
    assert not ses.solve([]).sat  # afterwards the session still answers


def test_expired_deadline_raises_even_without_search():
    # a conflict-free call never reaches the solver's own clock checks
    ses = OracleSession(3)
    ses.add_clause([1, 2, 3])
    with pytest.raises(OracleTimeout):
        ses.solve([], deadline=time.monotonic() - 1)
    assert ses.solve([], deadline=time.monotonic() + 60).sat
