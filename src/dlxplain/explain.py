"""Single-explanation engines: one AXp (an MUS of the query) or one CXp
(an MCS), plus the reduction of an oracle answer to an explanation used
during enumeration.  Each returns the explanation as a plain feature set;
`one_cxp` returns None when no CXp exists.

`one_axp`, `one_cxp` and `reduce_dual` share one deletion loop, which
adds no clause and no variable to the session.  It skips the oracle call
of every step that a known explanation of the other kind already decides
(MCS-guided MUS extraction, Bacchus & Katsirelos, CAV 2015), so the
enumerator's reductions get cheaper as its dual family grows.

`reduce_dual` takes the answer that proves its seed: a model's falsified
features are a CXp seed and a core an AXp seed (Liffiton et al.,
Constraints 2016), so the seed needs no second oracle call.

The engines speak features.  `_query` is the one oracle entry: it turns
a feature set into assumptions on the `Encoding`'s soft literals and
prefers the instance's point.  `_features` is the one reader: it turns an
answer back into the features it drops.  Deletion runs in ascending
feature order, so results are deterministic for a given model and
instance.
"""

from __future__ import annotations

from .core import AXP, CXP
from .encoding import Encoding
from .oracle import OracleSession, SolveResult


class ContractError(ValueError):
    """A set handed to `HittingSetOracle.add_set` cannot be hit."""


def load_encoding(enc: Encoding) -> OracleSession:
    """A fresh session holding the encoding's hard clauses."""
    session = OracleSession(enc.varmap.var_count)
    for cl in enc.hard:
        session.add_clause(cl)
    return session


def _query(enc, session, kind, feats, deadline):
    """Solve with the softs of `feats` fixed (AXp) or of every other
    feature fixed (CXp), preferring the instance's point for the rest.
    `feats` is a (not necessarily minimal) explanation iff the answer is
    UNSAT for an AXp and SAT for a CXp."""
    softs = enc.soft
    fixed = feats if kind == AXP else set(range(len(softs))) - set(feats)
    return session.solve([softs[j] for j in sorted(fixed)], deadline=deadline,
                         prefer=enc.prefer)


def _features(enc, res) -> set[int]:
    """The features whose soft a SAT model falsifies, or whose soft is in
    an UNSAT core."""
    if res.sat:
        return {j for j, l in enumerate(enc.soft) if not res.lit_true(l)}
    core = set(res.core)
    return {j for j, l in enumerate(enc.soft) if l in core}


def _delete(enc, session, kind, feats, known, deadline) -> frozenset[int]:
    """Deletion in ascending feature order: drop each feature whose removal
    leaves an explanation of `kind`.

    Every AXp hits every CXp, so a trial set that misses a member of
    `known` (explanations of the other kind) is no explanation: that step
    keeps its feature without an oracle call, and so does the step to the
    empty CXp, which leaves the instance pinned.  An unsatisfiable AXp step
    also drops every later feature outside the returned core.
    """
    current = set(feats)
    for j in sorted(current):
        if j not in current:
            continue
        trial = current - {j}
        if (any(d.isdisjoint(trial) for d in known)
                or not trial and kind == CXP):
            continue
        res = _query(enc, session, kind, trial, deadline)
        if res.sat != (kind == CXP):
            continue
        current = trial
        if kind == AXP:
            current = {i for i in trial if i < j} | _features(enc, res)
    return frozenset(current)


def one_axp(
    enc: Encoding,
    session: OracleSession,
    deadline: float | None = None,
) -> frozenset[int]:
    """Deletion-based linear search for one abductive explanation, over
    all features with no known CXps."""
    return _delete(enc, session, AXP, range(len(enc.point)), (), deadline)


def one_cxp(
    enc: Encoding,
    session: OracleSession,
    deadline: float | None = None,
) -> frozenset[int] | None:
    """Deletion-based search for one contrastive explanation: the softs
    falsified by one model that prefers the instance's values seed it.
    None when the session's clauses alone are unsatisfiable, so the
    prediction cannot change.  Adds no clause and no variable to the
    session."""
    res = _query(enc, session, CXP, range(len(enc.point)), deadline)
    if not res.sat:
        return None
    return reduce_dual(enc, session, res, deadline)


def reduce_dual(
    enc: Encoding,
    session: OracleSession,
    answer: SolveResult,
    deadline: float | None = None,
    known=(),
) -> frozenset[int]:
    """Shrink the seed that an oracle answer proves to a subset-minimal
    explanation by deletion, ascending feature order: a SAT answer's
    falsified features to a CXp, an UNSAT answer's core to an AXp.
    `known` holds explanations of the other kind; steps they decide cost
    no oracle call, and the result is the same as without them."""
    kind = CXP if answer.sat else AXP
    return _delete(enc, session, kind, _features(enc, answer), known, deadline)
