import pytest
from hypothesis import given, settings, strategies as st

from dlxplain import (
    GeneratorParams,
    Instance,
    ParseError,
    classify,
    generate_random_dl,
    generate_random_instances,
    generate_restricted_dl,
    parse_instances,
    parse_model,
    serialize_model,
)
from dlxplain.core import InputError, is_self_determining
from dlxplain.model_io import serialize_instances


def test_parse_mhs_model(mhs_dl):
    assert mhs_dl.num_rules == 2
    assert mhs_dl.space.classes == ("neg", "pos")
    assert mhs_dl.default.prediction == 0
    r1 = mhs_dl.rules[1]
    assert len(r1.antecedent) == 1
    assert not r1.antecedent[0].equal


def test_parse_single_default():
    dl = parse_model("feature x : a, b\nclasses : c\ndefault => c\n")
    assert dl.num_rules == 0
    assert classify(dl, (0,)) == (0, 0)


def test_parse_missing_default():
    text = "feature x : a, b\nclasses : c1, c2\nrule : x=a => c1\n"
    with pytest.raises(ParseError, match="missing default"):
        parse_model(text)


def test_parse_unknown_feature_value_and_class():
    base = "feature x : a, b\nclasses : c1, c2\n"
    with pytest.raises(ParseError, match="unknown feature"):
        parse_model(base + "rule : y=a => c1\ndefault => c2\n")
    with pytest.raises(ParseError, match="unknown value"):
        parse_model(base + "rule : x=z => c1\ndefault => c2\n")
    with pytest.raises(ParseError, match="unknown class"):
        parse_model(base + "rule : x=a => nope\ndefault => c2\n")


def test_parse_duplicate_feature():
    text = "feature x : a\nfeature x : a, b\nclasses : c1, c2\ndefault => c1\n"
    with pytest.raises(ParseError, match="duplicate feature"):
        parse_model(text)


def test_parse_rule_after_default():
    text = (
        "feature x : a, b\nclasses : c1, c2\n"
        "default => c1\nrule : x=a => c2\n"
    )
    with pytest.raises(ParseError, match="last"):
        parse_model(text)


def test_parse_errors_carry_line_numbers():
    text = "feature x : a, b\nclasses : c1, c2\nrule : x=z => c1\ndefault => c2\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_model(text)


def test_roundtrip_paper_models(mhs_dl, dl00, selfdet_dl, overlap_dl, constant_dl):
    for dl in (mhs_dl, dl00, selfdet_dl, overlap_dl, constant_dl):
        assert parse_model(serialize_model(dl)) == dl


def test_serialize_canonical(dl00):
    text = serialize_model(dl00)
    again = serialize_model(parse_model(text))
    assert text == again
    assert text.splitlines()[-1] == "default => f1"


def test_parse_instances_roundtrip(dl00):
    csv_text = "x1,x2,x3,x4\n1,0,1,1\n0,0,0,0\n"
    insts = parse_instances(csv_text, dl00.space)
    assert [i.point for i in insts] == [(1, 0, 1, 1), (0, 0, 0, 0)]
    assert all(i.label is None for i in insts)


def test_parse_instances_reordered_header_with_class(dl00):
    csv_text = "x4,x3,x2,x1,class\n1,1,0,1,f1\n"
    (inst,) = parse_instances(csv_text, dl00.space)
    assert inst.point == (1, 0, 1, 1)
    assert dl00.space.classes[inst.label] == "f1"


def test_parse_instances_empty(dl00):
    assert parse_instances("", dl00.space) == []
    assert parse_instances("x1,x2,x3,x4\n", dl00.space) == []


def test_parse_instances_bad_value_names_row(dl00):
    with pytest.raises(ParseError, match="line 2"):
        parse_instances("x1,x2,x3,x4\n1,0,7,1\n", dl00.space)


def test_parse_instances_missing_column(dl00):
    with pytest.raises(ParseError, match="missing feature"):
        parse_instances("x1,x2,x3\n1,0,1\n", dl00.space)


def test_parse_instances_ragged_row(dl00):
    with pytest.raises(ParseError, match="expected 4"):
        parse_instances("x1,x2,x3,x4\n1,0,1\n", dl00.space)


def test_serialize_instances_roundtrip(dl00):
    insts = [Instance((1, 0, 1, 1), 1), Instance((0, 0, 0, 0), 0)]
    text = serialize_instances(dl00.space, insts)
    assert parse_instances(text, dl00.space) == insts


@pytest.mark.parametrize("labels", [(None, None), (1, 0)],
                         ids=["unlabelled", "labelled"])
def test_serialize_instances_roundtrip_feature_named_class(labels):
    # a trailing `class` column is a feature here unless it occurs twice
    dl = parse_model("feature x : a, b\nfeature class : u, v\n"
                     "classes : c1, c2\nrule : class=u => c1\ndefault => c2\n")
    insts = [Instance((0, 1), labels[0]), Instance((1, 0), labels[1])]
    text = serialize_instances(dl.space, insts)
    assert text.splitlines()[0].count("class") == 1 + (labels[0] is not None)
    assert parse_instances(text, dl.space) == insts


def test_generator_deterministic():
    p = GeneratorParams(seed=1, num_features=4, domain_size=2, num_rules=6,
                        max_antecedent_len=3, num_classes=2)
    assert generate_random_dl(p) == generate_random_dl(p)


def test_generator_single_rule():
    p = GeneratorParams(seed=5, num_features=3, domain_size=2, num_rules=1,
                        max_antecedent_len=2, num_classes=2)
    dl = generate_random_dl(p)
    assert dl.num_rules == 1
    assert {dl.rules[0].prediction, dl.default.prediction} == {0, 1}


def test_generator_total_and_consistent():
    p = GeneratorParams(seed=2, num_features=8, domain_size=3, num_rules=50,
                        max_antecedent_len=4, num_classes=3)
    dl = generate_random_dl(p)
    assert all(dl.consistent)
    preds = {r.prediction for r in dl.rules} | {dl.default.prediction}
    assert preds == {0, 1, 2}
    for point in dl.space.points():
        classify(dl, point)  # total: never raises


def test_generator_roundtrip_seed7():
    p = GeneratorParams(seed=7, num_features=5, domain_size=3, num_rules=8,
                        max_antecedent_len=3, num_classes=2)
    dl = generate_random_dl(p)
    assert parse_model(serialize_model(dl)) == dl


def test_generator_param_validation():
    with pytest.raises(InputError):
        GeneratorParams(seed=0, num_features=2, domain_size=2, num_rules=1,
                        max_antecedent_len=3, num_classes=2)
    with pytest.raises(InputError):
        GeneratorParams(seed=0, num_features=2, domain_size=0, num_rules=1,
                        max_antecedent_len=1, num_classes=2)


def test_random_instances_deterministic(dl00):
    a = generate_random_instances(dl00, 5, 3)
    b = generate_random_instances(dl00, 5, 3)
    assert a == b
    for inst in a:
        dl00.space.validate_point(inst.point)


def test_restricted_generator_is_self_determining():
    p = GeneratorParams(seed=3, num_features=6, domain_size=2, num_rules=6,
                        max_antecedent_len=4, num_classes=2)
    dl = generate_restricted_dl(p)
    assert dl.num_rules >= 2
    assert all(dl.consistent)
    assert all(is_self_determining(dl, i) for i in range(dl.num_rules))
    assert dl.default.prediction not in {r.prediction for r in dl.rules}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_generator_roundtrip_random_seeds(seed):
    p = GeneratorParams(seed=seed, num_features=4, domain_size=3, num_rules=5,
                        max_antecedent_len=3, num_classes=2)
    dl = generate_random_dl(p)
    assert parse_model(serialize_model(dl)) == dl
