from dataclasses import replace

import pytest

from dlxplain import (
    GeneratorParams,
    Instance,
    MultiClassUnsupported,
    classify,
    cnf_to_dl,
    dump_dimacs,
    dump_wcnf,
    encode_alternative,
    encode_dlsat,
    encode_explanation_query,
    generate_random_dl,
    generate_random_instances,
    parse_model,
)
from dlxplain.bruteforce import class_table, hard_model_points
from dlxplain.explain import load_encoding
from dlxplain.oracle import OracleSession
from dlxplain.reductions import CnfFormula


def misclassified_points(dl, pred):
    table = class_table(dl)
    return frozenset(p for p in dl.space.points() if table[p] != pred)


def _exactly_one_block(dl, enc):
    """The at-least-one and pairwise at-most-one clauses of every feature,
    in the order the encoding emits them."""
    b = enc.varmap.b
    out = []
    for j in range(dl.space.num_features):
        dom = range(dl.space.domain_size(j))
        out.append([b[(j, v)] for v in dom])
        out.extend([-b[(j, u)], -b[(j, w)]] for u in dom for w in dom if u < w)
    return out


def test_dl00_hard_group_structure(dl00, dl00_instance):
    enc = encode_explanation_query(dl00, dl00_instance)
    assert dl00.space.classes[enc.pred_class] == "f1"
    t = enc.varmap.t
    assert sorted(t) == [0, 1, 3, 4]  # the f0 rules; f1 rules get no variable

    def b(feature, value):
        return enc.varmap.b[(feature - 1, value)]

    eo = _exactly_one_block(dl00, enc)
    assert enc.hard[:len(eo)] == eo
    assert enc.hard[len(eo):] == [
        # f0 rules: t implies the antecedent, one binary clause per literal
        [-t[0], b(1, 0)], [-t[0], b(3, 0)],
        [-t[1], b(1, 0)], [-t[1], b(3, 1)], [-t[1], b(4, 0)],
        [-t[3], b(1, 1)], [-t[3], b(2, 0)], [-t[3], b(3, 0)],
        [-t[4], b(1, 1)], [-t[4], b(2, 0)], [-t[4], b(3, 1)], [-t[4], b(4, 0)],
        # f1 rules: antecedent fails, or an earlier f0 rule holds
        [-b(1, 0), -b(3, 1), -b(4, 1), t[0], t[1]],
        [-b(1, 1), -b(2, 0), -b(3, 1), -b(4, 1), t[0], t[1], t[3], t[4]],
        [-b(1, 1), -b(2, 1), t[0], t[1], t[3], t[4]],
        # the f1 default: some f0 rule holds
        [t[0], t[1], t[3], t[4]],
    ]
    assert enc.varmap.var_count == 8 + 4


def test_exactly_one_models_are_points(mhs_dl, mhs_instance):
    # models of the exactly-one block project 1:1 onto feature space
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    b = enc.varmap.b
    eo = _exactly_one_block(mhs_dl, enc)
    assert enc.hard[:len(eo)] == eo
    # the rest is the neg rule over feature variables alone (no earlier
    # pos rule), the pos rule's definition and the default's clause
    t1 = enc.varmap.t[1]
    assert enc.hard[len(eo):] == [
        [-t1, -b[(2, 1)]], [-b[(0, 1)], -b[(1, 1)]], [t1],
    ]
    ses = OracleSession(enc.varmap.var_count)
    for cl in eo:
        ses.add_clause(cl)
    seen = set()
    while True:
        res = ses.solve([])
        if not res.sat:
            break
        point = []
        for j in range(5):
            hits = [v for v in range(3) if res.model[b[(j, v)]]]
            assert len(hits) == 1
            point.append(hits[0])
        seen.add(tuple(point))
        ses.add_clause([
            -b[(j, v)] if res.model[b[(j, v)]] else b[(j, v)]
            for j in range(5) for v in range(3)
        ])
    assert seen == set(mhs_dl.space.points())


def test_mhs_hard_models_match_flipped_predictions(mhs_dl, mhs_instance):
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    # derived check: models of H are exactly the points predicted pos,
    # i.e. x3 != 1 and not (x1=1 and x2=1)
    expected = frozenset(
        p for p in mhs_dl.space.points()
        if p[2] != 1 and not (p[0] == 1 and p[1] == 1)
    )
    assert hard_model_points(mhs_dl, enc) == expected
    assert expected == misclassified_points(mhs_dl, enc.pred_class)


def test_hard_plus_soft_unsat_everywhere(dl00, mhs_dl, selfdet_dl, overlap_dl):
    for dl in (dl00, mhs_dl, selfdet_dl, overlap_dl):
        for inst in generate_random_instances(dl, 4, seed=5):
            enc = encode_explanation_query(dl, inst)
            ses = load_encoding(enc)
            assert not ses.solve(enc.soft).sat


def test_single_default_hard_is_unsat(constant_dl):
    enc = encode_explanation_query(constant_dl, Instance((0, 0)))
    assert [] in enc.hard  # the same-class disjunction is empty
    ses = load_encoding(enc)
    assert not ses.solve([]).sat
    assert hard_model_points(constant_dl, enc) == frozenset()


def test_inconsistent_rule_drops_out():
    text = """\
feature x1 : 0, 1
classes : a, b
rule : x1=1 & x1!=1 => b
rule : x1=0 & x1!=0 => a
rule : x1=1 => b
default => a
"""
    dl = parse_model(text)
    assert dl.consistent == (False, False, True)
    enc = encode_explanation_query(dl, Instance((0,)))
    b0, b1 = enc.varmap.b[(0, 0)], enc.varmap.b[(0, 1)]
    t2 = enc.varmap.t[2]
    # neither inconsistent rule gets a variable or a clause
    assert enc.varmap.t == {2: 3}
    assert enc.hard == [[b0, b1], [-b0, -b1], [-t2, b1], [t2]]
    assert hard_model_points(dl, enc) == {(1,)}


def test_alternative_matches_main_on_paper_models(
    mhs_dl, mhs_instance, dl00, dl00_instance, selfdet_dl
):
    cases = [
        (mhs_dl, mhs_instance),
        (dl00, dl00_instance),
        (selfdet_dl, Instance((1, 0, 1, 1))),
    ]
    for dl, inst in cases:
        main = encode_explanation_query(dl, inst)
        alt = encode_alternative(dl, inst)
        assert hard_model_points(dl, main) == hard_model_points(dl, alt)
        ses = load_encoding(alt)
        assert not ses.solve(alt.soft).sat


def test_alternative_plan_mhs(mhs_dl, mhs_instance):
    from dlxplain.encoding import _sequential_plan
    pred, _ = classify(mhs_dl, mhs_instance.point)
    chain, others = _sequential_plan(mhs_dl, pred)
    assert chain == [0, mhs_dl.default_index]
    assert others == [1]


def test_alternative_rejects_multiclass():
    p = GeneratorParams(seed=3, num_features=3, domain_size=2, num_rules=4,
                        max_antecedent_len=2, num_classes=3)
    dl = generate_random_dl(p)
    with pytest.raises(MultiClassUnsupported):
        encode_alternative(dl, Instance((0, 0, 0)))


def test_alternative_exhaustive_equivalence_random_binary():
    for seed in range(12):
        p = GeneratorParams(seed=seed, num_features=4, domain_size=2,
                            num_rules=6, max_antecedent_len=3, num_classes=2)
        dl = generate_random_dl(p)
        for inst in generate_random_instances(dl, 3, seed + 50):
            main = encode_explanation_query(dl, inst)
            alt = encode_alternative(dl, inst)
            assert hard_model_points(dl, main) == hard_model_points(dl, alt)


def test_dlsat_encoding_agreement():
    phi_sat = CnfFormula(2, ((1, 2), (-1, -2)))
    phi_unsat = CnfFormula(1, ((1,), (-1,)))
    for phi, expected in ((phi_sat, True), (phi_unsat, False)):
        dl = cnf_to_dl(phi)
        vm, clauses = encode_dlsat(dl, dl.space.class_index("pos"))
        ses = OracleSession(vm.var_count)
        for cl in clauses:
            ses.add_clause(cl)
        assert ses.solve([]).sat == expected


def test_dlsat_single_default(constant_dl):
    vm, clauses = encode_dlsat(constant_dl, 0)
    ses = OracleSession(vm.var_count)
    for cl in clauses:
        ses.add_clause(cl)
    assert ses.solve([]).sat


def test_wcnf_dump_structure(mhs_dl, mhs_instance):
    enc = encode_explanation_query(mhs_dl, mhs_instance)
    text = dump_wcnf(enc)
    lines = text.splitlines()
    head = lines[0].split()
    assert head[:2] == ["p", "wcnf"]
    nvars, nclauses, top = int(head[2]), int(head[3]), int(head[4])
    assert top == len(enc.soft) + 1 == 6
    assert nclauses == len(lines) - 1 == len(enc.hard) + len(enc.soft)
    assert nvars == enc.varmap.var_count
    soft_lines = [l for l in lines[1:] if l.startswith("1 ")]
    assert len(soft_lines) == 5
    assert all(l.endswith(" 0") for l in lines[1:])
    assert dump_wcnf(encode_explanation_query(mhs_dl, mhs_instance)) == text


def test_wcnf_constant_model_has_empty_hard_line(constant_dl):
    enc = encode_explanation_query(constant_dl, Instance((0, 0)))
    top = len(enc.soft) + 1
    assert f"{top}  0" in dump_wcnf(enc).splitlines() or \
        f"{top} 0" in dump_wcnf(enc).splitlines()


def test_dimacs_dump_counts_random_model():
    p = GeneratorParams(seed=3, num_features=4, domain_size=2, num_rules=5,
                        max_antecedent_len=3, num_classes=2)
    dl = generate_random_dl(p)
    vm, clauses = encode_dlsat(dl, 0)
    text = dump_dimacs(vm, clauses)
    lines = text.splitlines()
    _, _, nv, nc = lines[0].split()
    assert int(nc) == len(lines) - 1
    max_var = max(abs(l) for cl in clauses for l in cl if cl)
    assert int(nv) == vm.var_count >= max_var


def test_soft_clause_count_and_order(dl00, dl00_instance):
    enc = encode_explanation_query(dl00, dl00_instance)
    assert len(enc.soft) == dl00.space.num_features
    assert enc.soft == [enc.varmap.b[(j, v)]
                        for j, v in enumerate(dl00_instance.point)]
    # the softs follow the point they are derived from
    for encode in (encode_explanation_query, encode_alternative):
        enc = encode(dl00, dl00_instance)
        assert enc.point == dl00_instance.point
        for p in dl00.space.points():
            assert replace(enc, point=p).soft == \
                [enc.varmap.b[(j, v)] for j, v in enumerate(p)]
