import pytest
from hypothesis import given, settings, strategies as st

from dlxplain import (
    GeneratorParams,
    Instance,
    bf_all_axps,
    bf_all_cxps,
    encode_explanation_query,
    generate_random_dl,
    one_axp,
    one_cxp,
    reduce_dual,
)
from dlxplain.core import AXP, CXP
from dlxplain.explain import ContractError, NoCxpExists, load_encoding


def _session(dl, inst):
    enc = encode_explanation_query(dl, inst)
    return enc, load_encoding(enc)


def test_one_axp_dl00(dl00, dl00_instance):
    enc, ses = _session(dl00, dl00_instance)
    expl = one_axp(enc, ses)
    assert expl.kind == AXP
    assert expl.features == frozenset({2, 3})
    # unique AXp for this instance, per exhaustive enumeration
    assert bf_all_axps(dl00, dl00_instance) == frozenset({frozenset({2, 3})})


def test_one_axp_mhs_deletion_order(mhs_dl, mhs_instance):
    # ascending deletion drops features 1,2 first, then keeps only x3
    enc, ses = _session(mhs_dl, mhs_instance)
    assert one_axp(enc, ses).features == frozenset({2})


def test_one_axp_agrees_with_reduce_dual(mhs_dl, mhs_instance):
    # one deletion loop serves both: over every feature, no known CXps
    enc, ses = _session(mhs_dl, mhs_instance)
    assert one_axp(enc, ses).features == frozenset({2})
    assert reduce_dual(enc, ses, AXP, range(3)).features == frozenset({2})


def test_one_axp_single_default(constant_dl):
    enc, ses = _session(constant_dl, Instance((0, 0)))
    assert one_axp(enc, ses).features == frozenset()


def test_one_cxp_mhs(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    expl = one_cxp(enc, ses)
    assert expl.kind == CXP
    assert expl.features in bf_all_cxps(mhs_dl, mhs_instance)
    assert expl.features in {frozenset({0, 2}), frozenset({1, 2})}


def test_one_cxp_dl00(dl00, dl00_instance):
    enc, ses = _session(dl00, dl00_instance)
    assert one_cxp(enc, ses).features in {frozenset({2}), frozenset({3})}


def test_one_cxp_no_cxp_exists(constant_dl):
    enc, ses = _session(constant_dl, Instance((0, 1)))
    with pytest.raises(NoCxpExists):
        one_cxp(enc, ses)


def test_one_cxp_under_a_caller_selector_blocks_its_answer(mhs_dl, mhs_instance):
    # the last clause-D clause stays under the caller's selector, so the
    # next call under it finds another CXp; retiring it frees the session
    enc, ses = _session(mhs_dl, mhs_instance)
    valid = bf_all_cxps(mhs_dl, mhs_instance)
    sel = ses.new_selector()
    first = one_cxp(enc, ses, selector=sel).features
    second = one_cxp(enc, ses, selector=sel).features
    assert ses.selectors == [sel]
    assert {first, second} <= valid and first != second
    with pytest.raises(NoCxpExists):
        one_cxp(enc, ses, selector=sel)
    ses.retire_selector(sel)
    assert not ses.selectors
    assert one_cxp(enc, ses).features in valid


def test_one_cxp_session_reusable_after_call(mhs_dl, mhs_instance):
    # the throwaway clause-D group is retired, so later queries on the
    # session still see the original hard clauses only
    enc, ses = _session(mhs_dl, mhs_instance)
    valid = bf_all_cxps(mhs_dl, mhs_instance)
    assert one_cxp(enc, ses).features in valid
    assert not ses.selectors
    assert one_cxp(enc, ses).features in valid
    assert not ses.selectors
    assert one_axp(enc, ses).features == frozenset({2})


def test_reduce_dual_axp(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    got = reduce_dual(enc, ses, AXP, {0, 1, 2}).features
    assert got in {frozenset({2}), frozenset({0, 1})}


def test_reduce_dual_cxp_full_release(dl00, dl00_instance):
    enc, ses = _session(dl00, dl00_instance)
    got = reduce_dual(enc, ses, CXP, set(range(4))).features
    assert got in {frozenset({2}), frozenset({3})}


def test_reduce_dual_fixpoint(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    assert reduce_dual(enc, ses, AXP, {2}).features == frozenset({2})
    assert reduce_dual(enc, ses, CXP, {0, 2}).features == frozenset({0, 2})


def test_reduce_dual_contract_violation(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    with pytest.raises(ContractError):
        reduce_dual(enc, ses, AXP, {0})   # x1=1 alone is satisfiable
    with pytest.raises(ContractError):
        reduce_dual(enc, ses, CXP, {0})   # releasing x1 cannot flip
    with pytest.raises(ValueError):
        reduce_dual(enc, ses, "nope", {0})


def test_reduce_dual_known_family(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    cxps = bf_all_cxps(mhs_dl, mhs_instance)
    axps = bf_all_axps(mhs_dl, mhs_instance)
    calls = []
    for known in ((), cxps):
        before = ses.stats.calls
        got = reduce_dual(enc, ses, AXP, range(5), known=known).features
        assert got == frozenset({2})
        calls.append(ses.stats.calls - before)
    # the step that drops x3 tries the empty set, which misses both CXps
    assert calls == [3, 2]
    with pytest.raises(ContractError):
        reduce_dual(enc, ses, AXP, {0}, known=cxps)
    with pytest.raises(ContractError):
        reduce_dual(enc, ses, CXP, {0}, known=axps)


def _sorted_family(family):
    return sorted(family, key=sorted)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_reduce_dual_known_family_only_skips_calls(data):
    # random small models; K is any subfamily of the true dual family
    m = data.draw(st.integers(2, 6), label="features")
    dl = generate_random_dl(GeneratorParams(
        seed=data.draw(st.integers(0, 10**6), label="seed"),
        num_features=m,
        domain_size=data.draw(st.integers(2, 3), label="domain"),
        num_rules=data.draw(st.integers(1, 12), label="rules"),
        max_antecedent_len=data.draw(st.integers(1, m), label="length"),
        num_classes=data.draw(st.integers(2, 3), label="classes"),
    ))
    inst = Instance(tuple(
        data.draw(st.integers(0, dl.space.domain_size(j) - 1), label=f"x{j}")
        for j in range(m)))
    axps, cxps = bf_all_axps(dl, inst), bf_all_cxps(dl, inst)
    kind = data.draw(st.sampled_from((AXP, CXP)), label="kind")
    family, dual = (axps, cxps) if kind == AXP else (cxps, axps)
    if not family:
        return   # no CXp exists, so no valid CXp seed either
    seed = data.draw(st.sampled_from(_sorted_family(family)), label="member")
    candidate = seed | data.draw(st.frozensets(st.integers(0, m - 1)),
                                 label="extra")
    known = data.draw(st.lists(st.sampled_from(_sorted_family(dual)),
                               unique=True) if dual else st.just([]),
                      label="known")
    enc = encode_explanation_query(dl, inst)
    plain_ses, guided_ses = load_encoding(enc), load_encoding(enc)
    plain = reduce_dual(enc, plain_ses, kind, candidate).features
    guided = reduce_dual(enc, guided_ses, kind, candidate, known=known).features
    assert plain in family
    assert guided == plain
    assert guided_ses.stats.calls <= plain_ses.stats.calls


def test_axp_two_oracle_postconditions(dl00, mhs_dl):
    for dl, inst in ((dl00, Instance((0, 1, 1, 0))), (mhs_dl, Instance((2, 0, 1, 2, 0)))):
        enc, ses = _session(dl, inst)
        feats = sorted(one_axp(enc, ses).features)
        kept = [enc.soft[j] for j in feats]
        assert not ses.solve(kept).sat
        for j in feats:
            rest = [enc.soft[i] for i in feats if i != j]
            assert ses.solve(rest).sat

