import pytest
from hypothesis import given, settings, strategies as st

from dlxplain import (
    DecisionList,
    FeatureSpace,
    GeneratorParams,
    Instance,
    Literal,
    Rule,
    bf_all_axps,
    check_restricted,
    encode_explanation_query,
    generate_random_instances,
    generate_restricted_dl,
    horn_axp,
    horn_axp_detailed,
)
from dlxplain.core import classify
from dlxplain.explain import load_encoding
from dlxplain.horn import NotRestricted


def test_check_restricted_selfdet_model(selfdet_dl):
    # pairwise-inconsistent rules, but the default's class recurs in the
    # rule list, so only the relaxed reading accepts the model
    assert not check_restricted(selfdet_dl, strict=True)
    assert check_restricted(selfdet_dl, strict=False)


def test_check_restricted_overlap_model(overlap_dl):
    assert not check_restricted(overlap_dl, strict=False)
    assert not check_restricted(overlap_dl, strict=True)


def test_check_restricted_dl00(dl00):
    # tree-path rules are pairwise disjoint, but the default's class is
    # shared with R2/R5/R6, so the full check rejects the model
    assert not check_restricted(dl00, strict=True)
    assert check_restricted(dl00, strict=False)


def test_horn_axp_paper_example(selfdet_dl):
    inst = Instance((1, 0, 1, 1))
    cls, rule = classify(selfdet_dl, inst.point)
    assert selfdet_dl.space.classes[cls] == "pos" and rule == 5
    axp, query = horn_axp_detailed(selfdet_dl, inst)
    assert axp == frozenset({0, 2, 3})  # a, c, d
    assert query.checks_used == selfdet_dl.space.num_features


def test_horn_one_rule_literal_example():
    from dlxplain import parse_model
    dl = parse_model(
        "feature x1 : 0, 1\nclasses : neg, pos\n"
        "rule : x1=1 => pos\ndefault => neg\n"
    )
    assert check_restricted(dl, strict=True)
    axp = horn_axp(dl, Instance((1,)))
    assert axp == frozenset({0})


def test_horn_single_rule_model():
    text_dl = generate_restricted_dl(
        GeneratorParams(seed=1, num_features=3, domain_size=2, num_rules=1,
                        max_antecedent_len=3, num_classes=2)
    )
    inst_point = None
    for point in text_dl.space.points():
        cls, rule = classify(text_dl, point)
        if rule == 0:
            inst_point = point
            break
    axp = horn_axp(text_dl, Instance(inst_point))
    assert axp == text_dl.rules[0].features


def test_horn_rejects_unrestricted(overlap_dl):
    inst = Instance((0, 1, 1, 0))
    with pytest.raises(NotRestricted):
        horn_axp(overlap_dl, inst)


def test_horn_answers_are_minimal_on_dl00(dl00, dl00_instance):
    # dl00 passes only the relaxed check, and at half its points the
    # firing antecedent is larger than an AXp: the deletion loop drops
    # the firing rule's own features too
    assert horn_axp(dl00, dl00_instance) == frozenset({2, 3})
    for point in dl00.space.points():
        inst = Instance(point)
        assert horn_axp(dl00, inst) in bf_all_axps(dl00, inst)


def test_horn_default_firing_gives_minimal_axps(selfdet_dl):
    # every point of this model fires a non-default rule; craft a variant
    # whose default, predicting a class the rules share, can fire by
    # dropping the last two rules
    trimmed = type(selfdet_dl)(
        selfdet_dl.space, selfdet_dl.rules[:6], selfdet_dl.default
    )
    assert check_restricted(trimmed, strict=False)
    assert not check_restricted(trimmed, strict=True)
    fired = set()
    for point in trimmed.space.points():
        inst = Instance(point)
        fired.add(classify(trimmed, point)[1])
        assert horn_axp(trimmed, inst) in bf_all_axps(trimmed, inst)
    assert trimmed.default_index in fired


def test_horn_agreement_with_bruteforce_100_models():
    import random
    count = 0
    seed = 0
    while count < 100:
        seed += 1
        rng = random.Random(seed)
        m = rng.randint(3, 8)
        params = GeneratorParams(
            seed=seed, num_features=m, domain_size=rng.randint(2, 3),
            num_rules=rng.randint(1, 10),
            max_antecedent_len=min(rng.randint(2, 4), m),
            num_classes=rng.choice([2, 3]),
        )
        dl = generate_restricted_dl(params)
        assert check_restricted(dl, strict=True)
        for inst in generate_random_instances(dl, 3, seed + 7000):
            axp, query = horn_axp_detailed(dl, inst)
            assert axp in bf_all_axps(dl, inst)
            assert query.checks_used == m
        count += 1


def test_horn_output_passes_encoder_oracle_checks(selfdet_dl):
    for inst in generate_random_instances(selfdet_dl, 8, seed=77):
        try:
            axp = horn_axp(selfdet_dl, inst)
        except NotRestricted:
            continue
        enc = encode_explanation_query(selfdet_dl, inst)
        ses = load_encoding(enc)
        kept = [enc.soft[j] for j in sorted(axp)]
        assert not ses.solve(kept).sat
        for j in sorted(axp):
            rest = [enc.soft[i] for i in sorted(axp) if i != j]
            assert ses.solve(rest).sat


@st.composite
def disjoint_rule_lists(draw):
    """Consistent, pairwise-inconsistent rule lists the generator never
    makes: the leaves of a random splitting tree, some dropped so the
    default can fire, in any order.  A split takes one value v off a
    feature's remaining values, so siblings are one flip apart and carry
    `x=v` against `x!=v`; classes and the default's class are free."""
    m = draw(st.integers(1, 5))
    sizes = [draw(st.integers(2, 3)) for _ in range(m)]
    k = draw(st.integers(2, 4))
    leaves = []

    def grow(allowed, lits, depth):
        open_feats = [j for j in range(m) if len(allowed[j]) > 1]
        if depth == 3 or not open_feats or depth and draw(st.booleans()):
            leaves.append(lits)
            return
        j = draw(st.sampled_from(open_feats))
        v = draw(st.sampled_from(sorted(allowed[j])))
        grow({**allowed, j: {v}}, lits + [Literal(j, True, v)], depth + 1)
        grow({**allowed, j: allowed[j] - {v}}, lits + [Literal(j, False, v)],
             depth + 1)

    grow({j: set(range(n)) for j, n in enumerate(sizes)}, [], 0)
    kept = draw(st.lists(st.sampled_from(leaves), unique_by=id, min_size=1,
                         max_size=len(leaves)))
    space = FeatureSpace(
        tuple(f"x{j}" for j in range(m)),
        tuple(tuple(str(v) for v in range(n)) for n in sizes),
        tuple(f"c{c}" for c in range(k)),
    )
    rules = tuple(Rule(tuple(lits), draw(st.integers(0, k - 1)))
                  for lits in kept)
    return DecisionList(space, rules, Rule((), draw(st.integers(0, k - 1))))


@settings(max_examples=150, deadline=None)
@given(disjoint_rule_lists())
def test_horn_answers_are_axps_on_arbitrary_disjoint_lists(dl):
    assert check_restricted(dl, strict=False)
    for point in dl.space.points():
        inst = Instance(point)
        axp, query = horn_axp_detailed(dl, inst)
        assert axp in bf_all_axps(dl, inst), point
        assert query.checks_used == dl.space.num_features
