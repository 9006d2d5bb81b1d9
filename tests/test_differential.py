"""Differential test of every SAT-based engine against exhaustive ground
truth, over decision lists of arbitrary shape.

The random generators only build consistent antecedents over uniform
domains; the strategy here also produces inconsistent antecedents, '!='
literals that together exclude a whole domain, features with a one-value
domain, multi-class models with any default class, and default-only
models.
"""

from hypothesis import given, settings, strategies as st

from dlxplain import (
    DecisionList,
    FeatureSpace,
    Instance,
    Literal,
    Rule,
    bf_all_axps,
    bf_all_cxps,
    encode_alternative,
    encode_explanation_query,
    enumerate_cxp_lbx,
    enumerate_marco,
    load_encoding,
    one_axp,
    one_cxp,
)
from dlxplain.core import AXP, CXP
from dlxplain.explain import NoCxpExists


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


def _check_engines(enc, axps, cxps):
    for target in (AXP, CXP):
        rep = enumerate_marco(enc, load_encoding(enc), target)
        assert rep.complete
        assert set(rep.axps) == axps, target
        assert set(rep.cxps) == cxps, target
    assert set(enumerate_cxp_lbx(enc, load_encoding(enc)).cxps) == cxps
    session = load_encoding(enc)
    assert one_axp(enc, session).features in axps
    try:
        assert one_cxp(enc, session).features in cxps
    except NoCxpExists:
        assert not cxps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_engines_match_bruteforce_on_arbitrary_shapes(data):
    dl = data.draw(decision_lists(), label="model")
    inst = Instance(tuple(
        data.draw(st.integers(0, dl.space.domain_size(j) - 1), label=f"x{j + 1}")
        for j in range(dl.space.num_features)))
    axps, cxps = bf_all_axps(dl, inst), bf_all_cxps(dl, inst)
    _check_engines(encode_explanation_query(dl, inst), axps, cxps)
    if len(dl.space.classes) == 2:
        _check_engines(encode_alternative(dl, inst), axps, cxps)
