"""Complete explanation enumeration.

Two interconnected oracles drive the main enumerator: a SAT oracle over the
explanation query and a subset-minimal hitting-set oracle over the
explanations of the dual kind found so far.  Each round either confirms the
hitting set as a new target explanation (already minimal, since every
proper subset misses a known dual explanation) or extracts a fresh dual
explanation from the counterexample.  A plain blocking-clause loop over the
single-CXp engine is provided as well.  An `Explainer` hands every engine
its instance's query on one solver session per predicted class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import AXP, CXP, DecisionList, Instance, classify
from .encoding import Encoding, encode_explanation_query
from .explain import ContractError, _query, load_encoding, one_cxp, reduce_dual
from .oracle import OracleSession, OracleTimeout


class Explainer:
    """The explanation queries of one model, on one solver session per
    predicted class.

    Hard clauses depend only on the model and the predicted class, so the
    session of a class can serve every instance of that class: the first
    instance encodes and loads them, and every later one only gets its own
    softs.  Both class encodings read the model's live rules, which its
    first encoding computes and the model caches.  The engines pin an
    instance through assumptions and prefer its whole point, since a
    session's saved phases come from other instances.  Only an lbx
    run adds clauses, its blocking clauses, under one selector that it
    retires before returning, and the retirement sweeps them out again.
    An enumeration reports a sorted set, so the runs of other instances
    on the same session cannot change it.
    """

    def __init__(self, dl: DecisionList, encode=encode_explanation_query):
        self.dl = dl
        self.encode = encode
        self.sessions: dict[int, tuple[Encoding, OracleSession]] = {}

    def query(self, inst: Instance) -> tuple[Encoding, OracleSession]:
        """The instance's encoding and its class's session."""
        cls, _ = classify(self.dl, inst.point)
        if cls not in self.sessions:
            enc = self.encode(self.dl, inst)
            self.sessions[cls] = (enc, load_encoding(enc))
        enc, session = self.sessions[cls]
        return replace(enc, point=inst.point), session


class HittingSetOracle:
    """Subset-minimal hitting sets over a growing set family.

    Each answer comes from one SAT call on a private session: one variable
    per universe element, sets-to-hit as positive clauses, blocked solutions
    as negative clauses, and every element preferred false.  A greedy
    pass then drops, in ascending order, every element that no set needs.
    The answer is a subset of a model of the blocking clauses, so it is
    never a superset of a blocked set.
    """

    def __init__(self, universe):
        self.universe = sorted(universe)
        self.session = OracleSession()
        self.elem_var = {e: self.session.new_var() for e in self.universe}
        # every set-to-hit, listed under each of its elements
        self.sets_with: dict = {e: [] for e in self.universe}

    def add_set(self, s) -> None:
        """Register a new set that every future answer must intersect."""
        s = frozenset(s)
        if not s:
            raise ContractError("an empty set-to-hit is unhittable")
        if not s <= set(self.universe):
            raise ContractError(f"set {sorted(s)} leaves the universe")
        for e in s:
            self.sets_with[e].append(s)
        self.session.add_clause([self.elem_var[e] for e in s])

    def block(self, s) -> None:
        """Never again emit `s` or any superset of it."""
        self.session.add_clause([-self.elem_var[e] for e in s])

    def next(self, deadline: float | None = None) -> frozenset | None:
        """A subset-minimal unblocked hitting set, or None."""
        res = self.session.solve(
            deadline=deadline, prefer=[-v for v in self.elem_var.values()]
        )
        if not res.sat:
            return None
        answer = {e for e in self.universe if res.lit_true(self.elem_var[e])}
        for e in sorted(answer):
            if all(len(s & answer) > 1 for s in self.sets_with[e]):
                answer.remove(e)
        return frozenset(answer)


def _sort_key(s: frozenset):
    return tuple(sorted(s))


@dataclass
class ExplanationReport:
    """The explanations enumerated for one instance, and whether the run
    finished or ran out of budget.  `finalize` sorts both families."""

    axps: list[frozenset] = field(default_factory=list)
    cxps: list[frozenset] = field(default_factory=list)
    complete: bool = True

    def finalize(self) -> "ExplanationReport":
        self.axps = sorted({frozenset(x) for x in self.axps}, key=_sort_key)
        self.cxps = sorted({frozenset(y) for y in self.cxps}, key=_sort_key)
        return self


def enumerate_marco(
    enc: Encoding,
    session: OracleSession,
    target: str,
    deadline: float | None = None,
) -> ExplanationReport:
    """Enumerate all AXps and all CXps, driving the hitting-set oracle
    towards `target` explanations; the dual kind falls out as a by-product
    and is reduced before being recorded.
    """
    if target not in (AXP, CXP):
        raise ValueError(f"unknown target kind {target!r}")
    report = ExplanationReport()
    mhs = HittingSetOracle(range(len(enc.point)))
    dual = CXP if target == AXP else AXP
    found = {AXP: report.axps, CXP: report.cxps}

    try:
        while True:
            h = mhs.next(deadline=deadline)
            if h is None:
                break
            res = _query(enc, session, target, h, deadline)
            if res.sat == (target == CXP):
                found[target].append(h)  # minimal by hitting-set minimality
                mhs.block(h)
                continue
            # a counterexample's falsified softs seed a CXp, a core an AXp
            expl = reduce_dual(enc, session, res, deadline=deadline,
                               known=found[target])
            found[dual].append(expl)
            if not expl:
                # hard clauses alone are unsatisfiable: the empty AXp is
                # the only explanation of either kind
                break
            mhs.add_set(expl)
    except OracleTimeout:
        report.complete = False
    return report.finalize()


def enumerate_cxp_lbx(
    enc: Encoding,
    session: OracleSession,
    deadline: float | None = None,
) -> ExplanationReport:
    """All CXps by repeated single-CXp extraction, blocking each one under
    a run-wide selector.  The selector is retired at the end, however the
    run ends, so the session can serve other instances."""
    report = ExplanationReport()
    selector = session.new_selector()
    try:
        while (cxp := one_cxp(enc, session, deadline=deadline)) is not None:
            report.cxps.append(cxp)
            session.add_clause([enc.soft[j] for j in cxp],
                               selector=selector)
    except OracleTimeout:
        report.complete = False
    finally:
        session.retire_selector(selector)
    return report.finalize()
