import pytest
from hypothesis import given, strategies as st

from dlxplain import (
    DecisionList,
    FeatureSpace,
    InputError,
    Literal,
    Rule,
    classify,
    eval_term,
    is_self_determining,
)


def test_classify_dl00_fires_r5(dl00):
    cls, rule = classify(dl00, (1, 0, 1, 1))
    assert dl00.space.classes[cls] == "f1"
    assert rule == 5


def test_classify_mhs_default_style(mhs_dl):
    cls, rule = classify(mhs_dl, (1, 1, 1, 1, 1))
    assert mhs_dl.space.classes[cls] == "neg"
    assert rule == 0


def test_classify_default_always_fires(constant_dl):
    for point in constant_dl.space.points():
        cls, rule = classify(constant_dl, point)
        assert cls == 0
        assert rule == constant_dl.default_index


def test_classify_rejects_bad_point(mhs_dl):
    with pytest.raises(InputError):
        classify(mhs_dl, (0, 0, 0, 0, 9))
    with pytest.raises(InputError):
        classify(mhs_dl, (0, 0, 0, 0))


def test_classify_totality_small_models(dl00, mhs_dl, selfdet_dl, overlap_dl):
    for dl in (dl00, mhs_dl, selfdet_dl, overlap_dl):
        for point in dl.space.points():
            cls, rule = classify(dl, point)
            assert 0 <= cls < len(dl.space.classes)
            # firing-prefix property: nothing before the firing rule holds
            for j in range(min(rule, dl.num_rules)):
                assert not eval_term(dl.rules[j].antecedent, point)
            if rule < dl.num_rules:
                assert eval_term(dl.rules[rule].antecedent, point)


def test_eval_term(mhs_dl):
    term = mhs_dl.rules[0].antecedent  # x1=1 and x2=1
    assert eval_term(term, (1, 1, 0, 0, 0))
    assert not eval_term(term, (1, 0, 0, 0, 0))
    assert eval_term((), (0, 0, 0, 0, 0))
    neq = (Literal(2, False, 1),)  # x3 != 1
    assert not eval_term(neq, (0, 0, 1, 0, 0))
    assert eval_term(neq, (0, 0, 2, 0, 0))


def _pair(a, b, space):
    """The list `a -> 0, b -> 0, default 1`: rule 1 is self-determining
    exactly when the terms `a` and `b` share no point."""
    return DecisionList(space, (Rule(a, 0), Rule(b, 0)), Rule((), 1))


def test_terms_consistent_boolean_clash(selfdet_dl):
    r0 = selfdet_dl.rules[0].antecedent  # a=0, c=0, d=0
    r5 = selfdet_dl.rules[5].antecedent  # a=1, c=1, d=1
    assert is_self_determining(_pair(r0, r5, selfdet_dl.space), 1)


def test_terms_consistent_disjoint_features(mhs_dl):
    a = (Literal(0, True, 1),)
    b = (Literal(1, True, 1),)
    assert not is_self_determining(_pair(a, b, mhs_dl.space), 1)


def test_terms_consistent_neq_pair_leaves_a_value(mhs_dl):
    # x1 != 0 with x1 != 1 over {0,1,2}: value 2 remains
    a = (Literal(0, False, 0),)
    b = (Literal(0, False, 1),)
    assert not is_self_determining(_pair(a, b, mhs_dl.space), 1)
    assert _pair(a + b, b, mhs_dl.space).boxes[0] == {0: 0b100}


def test_terms_consistent_neq_exhausts_boolean_domain(dl00):
    a = (Literal(0, False, 0),)
    b = (Literal(0, False, 1),)
    assert is_self_determining(_pair(a, b, dl00.space), 1)
    assert _pair(a + b, b, dl00.space).consistent == (False, True)


def test_self_determining_all_rules(selfdet_dl):
    assert all(
        is_self_determining(selfdet_dl, i) for i in range(selfdet_dl.num_rules)
    )


def test_self_determining_overlapping_rules(overlap_dl):
    # R3 (a=0 & b=0) is consistent with R0 (b=0 & c=0) at a=0,b=0,c=0
    assert not is_self_determining(overlap_dl, 3)
    assert not all(
        is_self_determining(overlap_dl, i) for i in range(overlap_dl.num_rules)
    )


def test_first_rule_vacuously_self_determining(overlap_dl):
    assert is_self_determining(overlap_dl, 0)


def test_self_determining_matches_bruteforce(selfdet_dl, overlap_dl, dl00):
    for dl in (selfdet_dl, overlap_dl, dl00):
        for i in range(dl.num_rules):
            expected = all(
                not any(
                    eval_term(dl.rules[j].antecedent, point)
                    and eval_term(dl.rules[i].antecedent, point)
                    for point in dl.space.points()
                )
                for j in range(i)
            )
            assert is_self_determining(dl, i) == expected


def test_rule_validation():
    with pytest.raises(InputError):
        Rule((Literal(0, True, 0), Literal(0, True, 1)), 0)  # two '=' on x1
    with pytest.raises(InputError):
        Rule((Literal(0, True, 0), Literal(0, True, 0)), 0)  # duplicate
    # '=' plus '!=' on one feature is allowed; it may flag as inconsistent
    r = Rule((Literal(0, True, 0), Literal(0, False, 0)), 0)
    assert len(r.antecedent) == 2


def test_decision_list_validation(mhs_dl):
    space = mhs_dl.space
    with pytest.raises(InputError):
        DecisionList(space, (), Rule((Literal(0, True, 0),), 0))
    with pytest.raises(InputError):
        DecisionList(space, (Rule((Literal(9, True, 0),), 0),), Rule((), 0))
    with pytest.raises(InputError):
        DecisionList(space, (Rule((Literal(0, True, 7),), 0),), Rule((), 0))


def test_inconsistent_rule_flagged(dl00):
    space = dl00.space
    bad = Rule((Literal(0, True, 0), Literal(0, False, 0)), 0)
    good = Rule((Literal(1, True, 1),), 1)
    dl = DecisionList(space, (bad, good), Rule((), 0))
    assert dl.consistent == (False, True)
    # a flagged rule never fires
    assert all(classify(dl, pt)[1] != 0 for pt in space.points())


# ---------------------------------------------------------------------
# properties

_space = FeatureSpace(
    ("x1", "x2", "x3"), (("0", "1"), ("0", "1", "2"), ("0", "1")), ("a", "b")
)


def _literals():
    return st.builds(
        Literal,
        feature=st.integers(0, 2),
        equal=st.booleans(),
        value=st.integers(0, 1),
    )


@st.composite
def _terms(draw):
    lits = draw(st.lists(_literals(), max_size=4))
    # keep rule-shaped terms: unique literals, one '=' per feature
    seen, eq_feats, out = set(), set(), []
    for l in lits:
        if l in seen or (l.equal and l.feature in eq_feats):
            continue
        seen.add(l)
        if l.equal:
            eq_feats.add(l.feature)
        out.append(l)
    return tuple(out)


@given(_terms(), _terms())
def test_terms_consistent_symmetric(a, b):
    assert is_self_determining(_pair(a, b, _space), 1) == \
        is_self_determining(_pair(b, a, _space), 1)


@given(_terms())
def test_terms_consistent_reflexive_iff_satisfiable(t):
    dl = _pair(t, t, _space)
    assert is_self_determining(dl, 1) != dl.consistent[0]


@given(_terms(), _terms())
def test_terms_consistent_matches_enumeration(a, b):
    expected = any(
        eval_term(a, p) and eval_term(b, p) for p in _space.points()
    )
    assert is_self_determining(_pair(a, b, _space), 1) != expected


@given(_terms())
def test_compiled_box_matches_literal_semantics(t):
    box = DecisionList(_space, (Rule(t, 0),), Rule((), 1)).boxes[0]
    holds = {p for p in _space.points() if eval_term(t, p)}
    if box is None:
        assert not holds
    else:
        allowed = {p for p in _space.points()
                   if all(mask >> p[f] & 1 for f, mask in box.items())}
        assert allowed == holds
