import itertools
import random

import pytest

from dlxplain import (
    CnfFormula,
    DnfFormula,
    bf_dlsat,
    classify,
    cnf_to_dl,
    dnfim_to_dl,
    encode_dlsat,
)
from dlxplain.oracle import OracleSession


POS = 1


def brute_sat(num_vars, clauses):
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
        for bits in itertools.product((False, True), repeat=num_vars)
    )


def brute_implicant(num_vars, terms, p):
    def holds(term, bits):
        return all(bits[abs(l) - 1] == (l > 0) for l in term)

    return all(
        any(holds(t, bits) for t in terms)
        for bits in itertools.product((False, True), repeat=num_vars)
        if holds(p, bits)
    )


def sat_encoded(dl, target):
    vm, clauses = encode_dlsat(dl, target)
    ses = OracleSession(vm.var_count)
    for cl in clauses:
        ses.add_clause(cl)
    return ses.solve([]).sat


def test_cnf_to_dl_shape():
    phi = CnfFormula(2, ((1, 2), (-1, -2)))
    dl = cnf_to_dl(phi)
    assert dl.num_rules == 2
    assert dl.space.classes == ("neg", "pos")
    assert dl.default.prediction == POS
    assert bf_dlsat(dl, POS)


def test_cnf_to_dl_unsat():
    dl = cnf_to_dl(CnfFormula(1, ((1,), (-1,))))
    assert not bf_dlsat(dl, POS)


def test_cnf_to_dl_empty_formula():
    dl = cnf_to_dl(CnfFormula(3, ()))
    assert dl.num_rules == 0
    assert bf_dlsat(dl, POS)


def test_cnf_to_dl_empty_clause():
    dl = cnf_to_dl(CnfFormula(2, ((),)))
    # the empty clause's rule always fires and rejects
    assert all(classify(dl, p)[0] == 0 for p in dl.space.points())
    assert not bf_dlsat(dl, POS)


def test_cnf_to_dl_tautological_clause_flagged():
    dl = cnf_to_dl(CnfFormula(1, ((1, -1),)))
    assert dl.consistent == (False,)
    assert bf_dlsat(dl, POS)


def test_dnfim_to_dl_implicant():
    psi = DnfFormula(2, ((1,), (2,)))  # x1 or x2
    assert not bf_dlsat(dnfim_to_dl(psi, (1,)), POS)       # x1 entails
    assert bf_dlsat(dnfim_to_dl(psi, (-1,)), POS)          # not-x1 does not


def test_dnfim_disjunct_always_implicant():
    psi = DnfFormula(3, ((1, 2), (-2, 3)))
    for term in psi.terms:
        assert not bf_dlsat(dnfim_to_dl(psi, term), POS)


def test_random_cnf_agreement_three_ways():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 6)
        clauses = tuple(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            )
            for _ in range(rng.randint(1, 12))
        )
        phi = CnfFormula(n, clauses)
        dl = cnf_to_dl(phi)
        expected = brute_sat(n, clauses)
        assert bf_dlsat(dl, POS) == expected
        assert sat_encoded(dl, POS) == expected


def test_random_dnf_implicant_agreement():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(1, 6)
        terms = tuple(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            )
            for _ in range(rng.randint(1, 8))
        )
        p = tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), rng.randint(1, n))
        )
        psi = DnfFormula(n, terms)
        dl = dnfim_to_dl(psi, p)
        expected = brute_implicant(n, terms, p)
        assert (not bf_dlsat(dl, POS)) == expected
        assert (not sat_encoded(dl, POS)) == expected


def test_formula_literal_checks():
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula(1, ((2,),))
    with pytest.raises(ValueError, match="out of range"):
        DnfFormula(2, ((1, 0),))
    with pytest.raises(ValueError, match="at least one variable"):
        CnfFormula(0, ())
