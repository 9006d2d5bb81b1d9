import pytest

from dlxplain import (
    InputError,
    Instance,
    Literal,
    bf_all_axps,
    bf_all_cxps,
    bf_dlim,
    bf_dlsat,
    check_duality,
    classify,
    cnf_to_dl,
    parse_model,
)
from dlxplain.bruteforce import BoundExceeded, class_table, rule_table
from dlxplain.reductions import CnfFormula

DL01_MODEL = """\
feature x1 : 0, 1
feature x2 : 0, 1
classes : neg, pos
rule : x1=1 => pos
rule : x2=1 => pos
default => neg
"""


def test_class_table_matches_classify(mhs_dl, dl00, overlap_dl):
    for dl in (mhs_dl, dl00, overlap_dl):
        table = class_table(dl)
        rules = rule_table(dl)
        for point in dl.space.points():
            cls, rule = classify(dl, point)
            assert table[point] == cls
            assert rules[point] == rule


def test_axps_mhs(mhs_dl, mhs_instance):
    assert bf_all_axps(mhs_dl, mhs_instance) == frozenset(
        {frozenset({0, 1}), frozenset({2})}
    )


def test_cxps_mhs(mhs_dl, mhs_instance):
    assert bf_all_cxps(mhs_dl, mhs_instance) == frozenset(
        {frozenset({0, 2}), frozenset({1, 2})}
    )


def test_two_feature_model_single_explanations():
    dl = parse_model(DL01_MODEL)
    inst = Instance((0, 1))
    assert bf_all_axps(dl, inst) == frozenset({frozenset({1})})
    assert bf_all_cxps(dl, inst) == frozenset({frozenset({1})})


def test_constant_model(constant_dl):
    inst = Instance((0, 1))
    assert bf_all_axps(constant_dl, inst) == frozenset({frozenset()})
    assert bf_all_cxps(constant_dl, inst) == frozenset()


def test_check_duality_cases():
    assert check_duality(
        frozenset({frozenset({0, 1}), frozenset({2})}),
        frozenset({frozenset({0, 2}), frozenset({1, 2})}),
    )
    assert not check_duality(
        frozenset({frozenset({0})}), frozenset({frozenset({1})})
    )
    assert check_duality(frozenset({frozenset()}), frozenset())


def test_duality_and_antichain_always_hold(mhs_dl, dl00, overlap_dl, selfdet_dl):
    for dl in (mhs_dl, dl00, overlap_dl, selfdet_dl):
        for point in list(dl.space.points())[::3]:
            axps = bf_all_axps(dl, Instance(point))
            cxps = bf_all_cxps(dl, Instance(point))
            assert check_duality(axps, cxps)
            for fam in (axps, cxps):
                for a in fam:
                    for b in fam:
                        assert a == b or not (a <= b)


def test_bf_dlsat():
    assert not bf_dlsat(cnf_to_dl(CnfFormula(1, ((1,), (-1,)))), 1)
    assert bf_dlsat(cnf_to_dl(CnfFormula(2, ((1, 2), (-1, -2)))), 1)


def test_bf_dlsat_single_default(constant_dl):
    assert bf_dlsat(constant_dl, 0)


def test_bf_dlim_dl00(dl00, dl00_instance):
    rho = (Literal(2, True, 1), Literal(3, True, 1))  # x3=1 and x4=1
    f1 = dl00.space.class_index("f1")
    assert bf_dlim(dl00, rho, f1)
    # any proper subset no longer entails the prediction
    assert not bf_dlim(dl00, rho[:1], f1)


def test_bf_dlim_full_instance_always_entails(mhs_dl, mhs_instance):
    term = [Literal(j, True, v) for j, v in enumerate(mhs_instance.point)]
    cls, _ = classify(mhs_dl, mhs_instance.point)
    assert bf_dlim(mhs_dl, term, cls)


def test_bf_dlim_inconsistent_premise(dl00):
    rho = (Literal(0, True, 0), Literal(0, False, 0))
    assert bf_dlim(dl00, rho, 0)
    assert bf_dlim(dl00, rho, 1)


def test_bf_dlim_rejects_unknown_feature(dl00):
    with pytest.raises(InputError):
        bf_dlim(dl00, (Literal(9, True, 0),), 0)


def test_bf_dlim_rejects_out_of_domain_value(dl00):
    with pytest.raises(InputError):
        bf_dlim(dl00, (Literal(0, True, 7),), 0)


def test_bf_dlim_rejects_unknown_class(dl00):
    with pytest.raises(InputError):
        bf_dlim(dl00, (), 5)


def test_bf_dlsat_rejects_unknown_class(dl00):
    with pytest.raises(InputError):
        bf_dlsat(dl00, 5)


def test_axps_are_minimal_implicants(dl00, dl00_instance):
    c, _ = classify(dl00, dl00_instance.point)
    for axp in bf_all_axps(dl00, dl00_instance):
        rho = tuple(
            Literal(j, True, dl00_instance.point[j]) for j in sorted(axp)
        )
        assert bf_dlim(dl00, rho, c)
        for j in sorted(axp):
            sub = tuple(l for l in rho if l.feature != j)
            assert not bf_dlim(dl00, sub, c)


def test_bounds_enforced(mhs_dl, mhs_instance):
    with pytest.raises(BoundExceeded):
        bf_all_axps(mhs_dl, mhs_instance, max_points=10)
    with pytest.raises(BoundExceeded):
        bf_all_cxps(mhs_dl, mhs_instance, max_features=3)
