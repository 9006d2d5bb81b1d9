"""Single-explanation engines: one AXp (an MUS of the query) or one CXp
(an MCS), plus the reduction procedure used on dual candidates during
enumeration.

`one_axp` and `reduce_dual` share one deletion loop.  It skips the oracle
call of every step that a known explanation of the other kind already
decides (MCS-guided MUS extraction, Bacchus & Katsirelos, CAV 2015), so
the enumerator's reductions get cheaper as its dual family grows.

All engines traverse soft literals in ascending feature order, so results
are deterministic for a given model and instance.
"""

from __future__ import annotations

from .core import AXP, CXP, Explanation
from .encoding import Encoding
from .oracle import OracleSession


class NoCxpExists(Exception):
    """The hard clauses alone are unsatisfiable: the prediction can never
    change, so no contrastive explanation exists."""


class ContractError(ValueError):
    """A candidate handed to reduce_dual violates its precondition."""


def load_encoding(enc: Encoding) -> OracleSession:
    """A fresh session holding the encoding's hard clauses."""
    session = OracleSession(enc.varmap.var_count)
    for cl in enc.hard:
        session.add_clause(cl)
    return session


def _query(session, softs, kind, feats, deadline):
    """Solve with the softs of `feats` fixed (AXp) or of every other
    feature fixed (CXp).  `feats` is a (not necessarily minimal)
    explanation iff the answer is UNSAT for an AXp and SAT for a CXp."""
    fixed = feats if kind == AXP else set(range(len(softs))) - set(feats)
    return session.solve([softs[j] for j in sorted(fixed)], deadline=deadline)


def _delete(session, softs, kind, feats, known, deadline) -> frozenset[int]:
    """Deletion in ascending feature order: drop each feature whose removal
    leaves an explanation of `kind`.

    Every AXp hits every CXp, so a trial set that misses a member of
    `known` (explanations of the other kind) is no explanation: that step
    keeps its feature without an oracle call.  An unsatisfiable AXp step
    also drops every later feature outside the returned core.
    """
    current = set(feats)
    for j in sorted(current):
        if j not in current:
            continue
        trial = current - {j}
        if any(d.isdisjoint(trial) for d in known):
            continue
        res = _query(session, softs, kind, trial, deadline)
        if res.sat != (kind == CXP):
            continue
        current = trial
        if kind == AXP:
            core = set(res.core)
            current = {i for i in trial if i < j or softs[i] in core}
    return frozenset(current)


def one_axp(
    enc: Encoding,
    session: OracleSession,
    deadline: float | None = None,
) -> Explanation:
    """Deletion-based linear search for one abductive explanation, over
    all features with no known CXps."""
    softs = list(enc.soft)
    return Explanation(
        AXP, _delete(session, softs, AXP, range(len(softs)), (), deadline)
    )


def one_cxp(
    enc: Encoding,
    session: OracleSession,
    deadline: float | None = None,
    selector: int | None = None,
) -> Explanation:
    """One contrastive explanation via satisfiable-subset growing with the
    clause-D step: each round adds the disjunction of the still-falsified
    soft literals under `selector` and asks for a model satisfying one more
    of them.

    The falsified set only shrinks, so the last clause-D clause is the
    returned CXp's blocking clause and every earlier one is implied by it.
    Under a caller's selector the clauses stay until that caller retires
    it, also after an OracleTimeout, so later calls under it never return
    this CXp again.  Without one, a throwaway selector is allocated and
    retired before returning.
    """
    res = session.solve((), deadline=deadline)
    if not res.sat:
        raise NoCxpExists("hard clauses are unsatisfiable; prediction is fixed")
    softs = list(enc.soft)
    sel = session.new_selector() if selector is None else selector
    try:
        while True:
            falsified = [j for j, l in enumerate(softs) if not res.lit_true(l)]
            session.add_clause([softs[j] for j in falsified], selector=sel)
            if not falsified:
                break
            res = session.solve(
                [l for l in softs if res.lit_true(l)], deadline=deadline
            )
            if not res.sat:
                break
    finally:
        if selector is None:
            session.retire_selector(sel)
    return Explanation(CXP, frozenset(falsified))


def reduce_dual(
    enc: Encoding,
    session: OracleSession,
    kind: str,
    candidate,
    deadline: float | None = None,
    known=(),
) -> Explanation:
    """Shrink a sufficiency-preserving candidate to a subset-minimal
    explanation by deletion, ascending feature order.  `known` holds
    explanations of the other kind; steps they decide cost no oracle call,
    and the result is the same as without them."""
    if kind not in (AXP, CXP):
        raise ValueError(f"unknown explanation kind {kind!r}")
    softs = list(enc.soft)
    cand = frozenset(candidate)
    if _query(session, softs, kind, cand, deadline).sat != (kind == CXP):
        raise ContractError(f"candidate {sorted(cand)} is not a valid {kind} seed")
    return Explanation(kind, _delete(session, softs, kind, cand, known, deadline))
