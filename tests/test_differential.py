"""Differential test of every SAT-based engine against exhaustive ground
truth, over decision lists of arbitrary shape.

The random generators only build consistent antecedents over uniform
domains; the strategy here also produces inconsistent antecedents, '!='
literals that together exclude a whole domain, features with a one-value
domain, multi-class models with any default class, and default-only
models.  The enumeration modes run 2-4 instances per model through one
`Explainer`, as the command line does.  The encodings themselves are
checked against the class table: DL-SAT for every class, and the model
set of each explanation query's hard clauses.  A second strategy builds
lists with dead rules, which the encodings leave out: rules shadowed by
the union of earlier rules, and a default that never fires.
"""

from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import dlxplain.core as core

from dlxplain import (
    DecisionList,
    FeatureSpace,
    Explainer,
    Instance,
    Literal,
    Rule,
    bf_all_axps,
    bf_all_cxps,
    bf_dlsat,
    encode_alternative,
    encode_dlsat,
    encode_explanation_query,
    enumerate_cxp_lbx,
    enumerate_marco,
    load_encoding,
    one_axp,
    one_cxp,
)
from dlxplain.bruteforce import class_table, hard_model_points
from dlxplain.core import AXP, CXP, classify
from dlxplain.explain import _features, _query
from dlxplain.oracle import OracleSession


@st.composite
def antecedents(draw, domains):
    m = len(domains)
    raw = draw(st.lists(st.tuples(st.integers(0, m - 1), st.booleans(),
                                  st.integers(0, 2)), max_size=4))
    lits = {Literal(f, eq, v % domains[f]) for f, eq, v in raw}
    if draw(st.booleans()):
        # '!=' on every value of one feature: the rule can never hold
        f = draw(st.integers(0, m - 1))
        lits |= {Literal(f, False, v) for v in range(domains[f])}
    # a rule allows at most one '=' literal per feature
    equal_on = {}
    for lit in sorted(lits):
        if lit.equal:
            equal_on.setdefault(lit.feature, lit)
    return tuple(l for l in lits if not l.equal or equal_on[l.feature] == l)


@st.composite
def decision_lists(draw):
    domains = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    num_classes = draw(st.integers(1, 3))
    space = FeatureSpace(
        tuple(f"x{j + 1}" for j in range(len(domains))),
        tuple(tuple(str(v) for v in range(d)) for d in domains),
        tuple(f"c{k}" for k in range(num_classes)),
    )
    classes = st.integers(0, num_classes - 1)
    num_rules = draw(st.integers(0, 6)) if num_classes > 1 else 0
    rules = tuple(Rule(draw(antecedents(domains)), draw(classes))
                  for _ in range(num_rules))
    return DecisionList(space, rules, Rule((), draw(classes)))


def _check_engines(encode, dl, insts):
    """Every enumeration mode through one `Explainer`, whose class sessions
    all instances and modes share; the one-shot engines on a fresh
    session, and `one_cxp` on the shared one too, leaving either as big as
    it found it.  The Explainer's query equals a fresh encoding of the
    instance's point."""
    explainer = Explainer(dl, encode)
    for inst in insts:
        axps, cxps = set(bf_all_axps(dl, inst)), set(bf_all_cxps(dl, inst))
        enc, shared = explainer.query(inst)
        fresh = encode(dl, inst)
        assert enc.point == fresh.point == inst.point
        assert (enc.hard, enc.soft, enc.varmap, enc.pred_class) == \
            (fresh.hard, fresh.soft, fresh.varmap, fresh.pred_class)
        for target in (AXP, CXP):
            rep = enumerate_marco(enc, shared, target)
            assert rep.complete
            assert set(rep.axps) == axps, target
            assert set(rep.cxps) == cxps, target
        assert set(enumerate_cxp_lbx(enc, shared).cxps) == cxps
        session = load_encoding(enc)
        assert one_axp(enc, session) in axps
        for ses in (session, shared):
            size = ses.nvars, len(ses.clauses)
            cxp = one_cxp(enc, ses)
            assert cxp in cxps or (cxp is None and not cxps)
            assert (ses.nvars, len(ses.clauses)) == size


def _instances(data, dl):
    points = st.tuples(*(st.integers(0, dl.space.domain_size(j) - 1)
                         for j in range(dl.space.num_features)))
    return [Instance(p) for p in data.draw(
        st.lists(points, min_size=2, max_size=4), label="instances")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_engines_match_bruteforce_on_arbitrary_shapes(data):
    dl = data.draw(decision_lists(), label="model")
    insts = _instances(data, dl)
    _check_engines(encode_explanation_query, dl, insts)
    if len(dl.space.classes) == 2:
        _check_engines(encode_alternative, dl, insts)


def _check_seeds(data, encode, dl, insts):
    """`_features` of any query answer is a seed: a model's falsified
    features hold a CXp (inside `feats` for a CXp query), and a core's
    features hold an AXp among the fixed ones."""
    explainer = Explainer(dl, encode)
    m = dl.space.num_features
    for inst in insts:
        axps, cxps = bf_all_axps(dl, inst), bf_all_cxps(dl, inst)
        enc, session = explainer.query(inst)
        for kind in (AXP, CXP):
            feats = data.draw(st.sets(st.integers(0, m - 1)), label=kind)
            res = _query(enc, session, kind, feats, None)
            w = _features(enc, res)
            if res.sat:
                assert any(y <= w for y in cxps)
                assert kind == AXP or w <= feats
            else:
                assert w <= (feats if kind == AXP else set(range(m)) - feats)
                assert any(x <= w for x in axps)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_query_answers_read_as_seeds_on_arbitrary_shapes(data):
    dl = data.draw(decision_lists(), label="model")
    insts = _instances(data, dl)
    _check_seeds(data, encode_explanation_query, dl, insts)
    if len(dl.space.classes) == 2:
        _check_seeds(data, encode_alternative, dl, insts)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encodings_match_bruteforce_on_arbitrary_shapes(data):
    dl = data.draw(decision_lists(), label="model")
    for target in range(len(dl.space.classes)):
        vm, clauses = encode_dlsat(dl, target)
        session = OracleSession(vm.var_count)
        for cl in clauses:
            session.add_clause(cl)
        assert session.solve([]).sat == bf_dlsat(dl, target), target
    table = class_table(dl)
    encoders = [encode_explanation_query]
    if len(dl.space.classes) == 2:
        encoders.append(encode_alternative)
    for inst in _instances(data, dl):
        for encode in encoders:
            enc = encode(dl, inst)
            assert hard_model_points(dl, enc) == {
                p for p in dl.space.points() if table[p] != enc.pred_class}


@st.composite
def shadowed_lists(draw):
    """Lists built from blocks, each of one of three shapes: a random rule
    (possibly inconsistent); rules `base & x_f=v` for every value v of one
    feature f, then `base` itself, which their union shadows although no
    single one of them contains it; or rules `x_f=v` for every v, which
    cover the space, so every later rule and the default are dead.  The
    classes are drawn freely, so dead rules of every class occur.
    Returns the list and the rules that are dead by construction."""
    domains = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    num_classes = draw(st.integers(2, 3))
    space = FeatureSpace(
        tuple(f"x{j + 1}" for j in range(len(domains))),
        tuple(tuple(str(v) for v in range(d)) for d in domains),
        tuple(f"c{k}" for k in range(num_classes)),
    )
    classes = st.integers(0, num_classes - 1)
    rules, dead = [], set()
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(("random", "shadowed", "cover")))
        base = draw(antecedents(domains)) if shape != "cover" else ()
        free = sorted(set(range(len(domains))) - {l.feature for l in base})
        if shape == "random" or not free:
            rules.append(Rule(base, draw(classes)))
            continue
        f = draw(st.sampled_from(free))
        rules.extend(Rule(base + (Literal(f, True, v),), draw(classes))
                     for v in range(domains[f]))
        if shape == "shadowed":
            dead.add(len(rules))
            rules.append(Rule(base, draw(classes)))
    return DecisionList(space, tuple(rules), Rule((), draw(classes))), dead


def _fired_first(dl):
    """Brute force: the rules that fire first on some point."""
    return {classify(dl, p)[1] for p in dl.space.points()} - {dl.default_index}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dead_rules_leave_every_answer_unchanged(data):
    dl, dead = data.draw(shadowed_lists(), label="model")
    live = _fired_first(dl)
    assert set(dl.live_rules) == live
    assert not dead & live
    # the same rules when the SAT session decides what the box split did
    with patch.object(core, "ESCAPE_BUDGET", 0):
        assert core._live_rules(dl) == dl.live_rules
    table = class_table(dl)
    insts = _instances(data, dl)
    encoders = [encode_explanation_query]
    if len(dl.space.classes) == 2:
        encoders.append(encode_alternative)
    for encode in encoders:
        for inst in insts:
            enc = encode(dl, inst)
            assert set(enc.varmap.t) <= live
            assert hard_model_points(dl, enc) == {
                p for p in dl.space.points() if table[p] != enc.pred_class}
        _check_engines(encode, dl, insts)
