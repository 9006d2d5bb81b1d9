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
from dlxplain.explain import load_encoding


def _session(dl, inst):
    enc = encode_explanation_query(dl, inst)
    return enc, load_encoding(enc)


def _answer(enc, ses, kind, feats):
    """The oracle's answer on whether `feats` is a (not necessarily
    minimal) explanation of `kind`: an AXp candidate's softs assumed, or
    every soft outside a CXp candidate."""
    if kind == CXP:
        feats = set(range(len(enc.soft))) - set(feats)
    return ses.solve([enc.soft[j] for j in sorted(feats)])


def test_one_axp_dl00(dl00, dl00_instance):
    enc, ses = _session(dl00, dl00_instance)
    assert one_axp(enc, ses) == frozenset({2, 3})
    # unique AXp for this instance, per exhaustive enumeration
    assert bf_all_axps(dl00, dl00_instance) == frozenset({frozenset({2, 3})})


def test_one_axp_mhs_deletion_order(mhs_dl, mhs_instance):
    # ascending deletion drops features 1,2 first, then keeps only x3
    enc, ses = _session(mhs_dl, mhs_instance)
    assert one_axp(enc, ses) == frozenset({2})


def test_one_axp_agrees_with_reduce_dual(mhs_dl, mhs_instance):
    # one deletion loop serves both: one_axp's first step finds every
    # feature but x1 sufficient and goes on from that answer's core, so
    # reducing the same answer gives the same AXp
    enc, ses = _session(mhs_dl, mhs_instance)
    assert one_axp(enc, ses) == frozenset({2})
    assert reduce_dual(enc, ses, _answer(enc, ses, AXP, range(1, 5))) \
        == frozenset({2})


def test_one_axp_single_default(constant_dl):
    enc, ses = _session(constant_dl, Instance((0, 0)))
    assert one_axp(enc, ses) == frozenset()


def test_one_cxp_mhs(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    cxp = one_cxp(enc, ses)
    assert cxp in bf_all_cxps(mhs_dl, mhs_instance)
    assert cxp in {frozenset({0, 2}), frozenset({1, 2})}


def test_one_cxp_dl00(dl00, dl00_instance):
    enc, ses = _session(dl00, dl00_instance)
    assert one_cxp(enc, ses) in {frozenset({2}), frozenset({3})}


def test_one_cxp_no_cxp_exists(constant_dl):
    enc, ses = _session(constant_dl, Instance((0, 1)))
    assert one_cxp(enc, ses) is None


def _clause_set(solver):
    return sorted(sorted(c) for c in solver.clauses)


def test_one_cxp_leaves_its_session_as_it_found_it(mhs_dl, mhs_instance,
                                                   dl00, dl00_instance):
    # deletion pins features through assumptions only: no clause, no
    # variable and no selector outlives the call
    for dl, inst in ((mhs_dl, mhs_instance), (dl00, dl00_instance)):
        enc, ses = _session(dl, inst)
        solver = ses.solver
        nvars, clauses = solver.nvars, _clause_set(solver)
        assert one_cxp(enc, ses) in bf_all_cxps(dl, inst)
        assert solver.nvars == nvars
        assert _clause_set(solver) == clauses
        assert ses.selectors == []


def test_deletion_skips_the_empty_cxp_trial(dl00, dl00_instance):
    # releasing no feature leaves the instance pinned, which can never
    # change the prediction, so that step needs no oracle call
    enc, ses = _session(dl00, dl00_instance)
    before = ses.stats.calls
    assert one_cxp(enc, ses) in {frozenset({2}), frozenset({3})}
    assert ses.stats.calls - before == 1


def test_reduce_dual_reduces_its_answer(dl00, dl00_instance):
    # the answer already proves its seed, so a single-feature CXp seed
    # costs no further oracle call; the answer's polarity picks the kind
    enc, ses = _session(dl00, dl00_instance)
    answer = _answer(enc, ses, CXP, {3})
    assert answer.sat
    before = ses.stats.calls
    assert reduce_dual(enc, ses, answer) == frozenset({3})
    assert ses.stats.calls == before
    assert frozenset({3}) in bf_all_cxps(dl00, dl00_instance)
    answer = _answer(enc, ses, AXP, range(4))
    assert not answer.sat
    assert reduce_dual(enc, ses, answer) in bf_all_axps(dl00, dl00_instance)


def test_one_cxp_session_reusable_after_call(mhs_dl, mhs_instance):
    # one_cxp adds nothing to the session, so later queries on it still
    # see the original hard clauses only
    enc, ses = _session(mhs_dl, mhs_instance)
    valid = bf_all_cxps(mhs_dl, mhs_instance)
    assert one_cxp(enc, ses) in valid
    assert not ses.selectors
    assert one_cxp(enc, ses) in valid
    assert not ses.selectors
    assert one_axp(enc, ses) == frozenset({2})


def test_reduce_dual_axp(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    got = reduce_dual(enc, ses, _answer(enc, ses, AXP, {0, 1, 2}))
    assert got in {frozenset({2}), frozenset({0, 1})}


def test_reduce_dual_cxp_full_release(dl00, dl00_instance):
    enc, ses = _session(dl00, dl00_instance)
    got = reduce_dual(enc, ses, _answer(enc, ses, CXP, range(4)))
    assert got in {frozenset({2}), frozenset({3})}


def test_reduce_dual_fixpoint(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    assert reduce_dual(enc, ses, _answer(enc, ses, AXP, {2})) \
        == frozenset({2})
    assert reduce_dual(enc, ses, _answer(enc, ses, CXP, {0, 2})) \
        == frozenset({0, 2})


def test_reduce_dual_known_family(mhs_dl, mhs_instance):
    enc, ses = _session(mhs_dl, mhs_instance)
    cxps = bf_all_cxps(mhs_dl, mhs_instance)
    calls = []
    for known in ((), cxps):
        # every feature assumed: the core is {x1, x2}
        answer = _answer(enc, ses, AXP, range(5))
        before = ses.stats.calls
        got = reduce_dual(enc, ses, answer, known=known)
        assert got == frozenset({0, 1})
        calls.append(ses.stats.calls - before)
    # dropping x1 leaves {x2}, which misses the CXp {x1, x3}, and dropping
    # x2 leaves {x1}, which misses {x2, x3}
    assert calls == [2, 0]


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
    plain = reduce_dual(enc, plain_ses,
                        _answer(enc, plain_ses, kind, candidate))
    guided = reduce_dual(enc, guided_ses,
                         _answer(enc, guided_ses, kind, candidate),
                         known=known)
    assert plain in family
    assert guided == plain
    assert guided_ses.stats.calls <= plain_ses.stats.calls


def test_axp_two_oracle_postconditions(dl00, mhs_dl):
    for dl, inst in ((dl00, Instance((0, 1, 1, 0))), (mhs_dl, Instance((2, 0, 1, 2, 0)))):
        enc, ses = _session(dl, inst)
        feats = sorted(one_axp(enc, ses))
        kept = [enc.soft[j] for j in feats]
        assert not ses.solve(kept).sat
        for j in feats:
            rest = [enc.soft[i] for i in feats if i != j]
            assert ses.solve(rest).sat

