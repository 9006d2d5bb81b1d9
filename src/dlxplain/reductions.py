"""Constructive gadgets turning CNF satisfiability and DNF implicant
queries into decision-list classification queries; used as test-instance
generators and cross-checks for the satisfiability encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DecisionList, FeatureSpace, Literal, Rule


NEG, POS = 0, 1  # class indices of the gadget models


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_lits(self.num_vars, self.clauses)


@dataclass(frozen=True)
class DnfFormula:
    num_vars: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_lits(self.num_vars, self.terms)


def _check_lits(num_vars: int, groups) -> None:
    if num_vars < 1:
        raise ValueError("at least one variable is required")
    for group in groups:
        for lit in group:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range")


def _boolean_space(num_vars: int) -> FeatureSpace:
    return FeatureSpace(
        tuple(f"x{i}" for i in range(1, num_vars + 1)),
        (("0", "1"),) * num_vars,
        ("neg", "pos"),
    )


def _term_literals(lits, negate: bool) -> tuple[Literal, ...]:
    """Boolean literals as feature literals, optionally negated, with exact
    duplicates collapsed.  Positive occurrences pin value 1, negative ones
    exclude it, so opposite signs on one variable survive as an
    unsatisfiable (flagged) pair instead of tripping rule validation."""
    out = []
    for lit in dict.fromkeys(lits):
        positive = (lit > 0) ^ negate
        out.append(Literal(abs(lit) - 1, positive, 1))
    return tuple(out)


def cnf_to_dl(phi: CnfFormula) -> DecisionList:
    """Per clause, a rule firing exactly when the clause is falsified;
    the default accepts.  Some point classifies `pos` iff phi is
    satisfiable."""
    space = _boolean_space(phi.num_vars)
    rules = tuple(
        Rule(_term_literals(clause, negate=True), NEG) for clause in phi.clauses
    )
    return DecisionList(space, rules, Rule((), POS))


def dnfim_to_dl(psi: DnfFormula, p: tuple[int, ...]) -> DecisionList:
    """Rules rejecting every DNF term, then a rule accepting on the
    candidate implicant, then a rejecting default.  No point classifies
    `pos` iff p entails psi."""
    space = _boolean_space(psi.num_vars)
    rules = [Rule(_term_literals(t, negate=False), NEG) for t in psi.terms]
    rules.append(Rule(_term_literals(p, negate=False), POS))
    return DecisionList(space, tuple(rules), Rule((), NEG))
