import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from dlxplain import (
    GeneratorParams,
    Instance,
    bf_all_axps,
    bf_all_cxps,
    check_duality,
    classify,
    encode_explanation_query,
    enumerate_cxp_lbx,
    enumerate_marco,
    generate_random_dl,
    generate_random_instances,
)
from dlxplain.core import AXP, CXP
from dlxplain.enumeration import Explainer, HittingSetOracle
from dlxplain.explain import ContractError, load_encoding
from dlxplain.oracle import OracleSession, OracleTimeout


# ---------------------------------------------------------------------
# hitting-set oracle

def test_mhs_duality_trace():
    mhs = HittingSetOracle(range(5))
    mhs.add_set({0, 2})
    mhs.add_set({1, 2})
    assert mhs.next() == frozenset({2})
    mhs.block({2})
    assert mhs.next() == frozenset({0, 1})
    mhs.block({0, 1})
    assert mhs.next() is None


def test_mhs_empty_collection():
    mhs = HittingSetOracle(range(3))
    assert mhs.next() == frozenset()
    mhs.block(frozenset())
    assert mhs.next() is None


def test_mhs_forced_units():
    mhs = HittingSetOracle(range(4))
    mhs.add_set({0})
    mhs.add_set({1})
    assert mhs.next() == frozenset({0, 1})


def test_mhs_add_then_next():
    mhs = HittingSetOracle(range(4))
    mhs.add_set({3})
    assert mhs.next() == frozenset({3})


def test_mhs_rejects_empty_set():
    mhs = HittingSetOracle(range(3))
    with pytest.raises(ContractError):
        mhs.add_set(set())


def _minimal_transversals(universe, sets):
    """Brute force: the subset-minimal subsets of `universe` that meet
    every set."""
    hitting = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in itertools.combinations(universe, r)
        if all(s & set(c) for s in sets)
    ]
    return {h for h in hitting if not any(g < h for g in hitting)}


def _drain(mhs, sets):
    """Call next/block until exhaustion, checking each answer: it hits every
    set, is subset-minimal and contains no blocked (earlier) answer."""
    answers = []
    while True:
        h = mhs.next()
        if h is None:
            return answers
        assert all(h & s for s in sets)
        for e in h:
            assert not all((h - {e}) & s for s in sets), (h, e)
        assert not any(prev <= h for prev in answers)
        answers.append(h)
        mhs.block(h)


def test_mhs_answers_are_minimal_hitting_sets():
    sets = [frozenset({0, 1}), frozenset({2, 3})]
    mhs = HittingSetOracle(range(4))
    for s in sets:
        mhs.add_set(s)
    answers = _drain(mhs, sets)
    assert set(answers) == _minimal_transversals(range(4), sets)


def test_mhs_blocked_supersets_never_reappear():
    sets = [frozenset({0, 1, 2})]
    mhs = HittingSetOracle(range(3))
    mhs.add_set(sets[0])
    answers = _drain(mhs, sets)
    assert sorted(answers, key=sorted) == [
        frozenset({0}), frozenset({1}), frozenset({2})]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mhs_enumerates_exactly_the_minimal_transversals(data):
    n = data.draw(st.integers(1, 7), label="universe")
    sets = data.draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1), max_size=6),
        label="sets")
    mhs = HittingSetOracle(range(n))
    # sets arrive interleaved with answers, as in the enumerator
    split = data.draw(st.integers(0, len(sets)), label="split")
    for s in sets[:split]:
        mhs.add_set(s)
    early = mhs.next()
    assert early is not None
    assert all(early & s for s in sets[:split])
    for s in sets[split:]:
        mhs.add_set(s)
    answers = _drain(mhs, sets)
    assert set(answers) == _minimal_transversals(range(n), sets)


# ---------------------------------------------------------------------
# complete enumeration on the reference models

def _marco(dl, inst, target):
    enc = encode_explanation_query(dl, inst)
    return enumerate_marco(enc, load_encoding(enc), target)


def test_marco_mhs_model(mhs_dl, mhs_instance):
    rep = _marco(mhs_dl, mhs_instance, AXP)
    assert set(rep.axps) == {frozenset({0, 1}), frozenset({2})}
    assert set(rep.cxps) == {frozenset({0, 2}), frozenset({1, 2})}
    assert rep.complete


def test_marco_dl00(dl00, dl00_instance):
    rep = _marco(dl00, dl00_instance, AXP)
    assert set(rep.axps) == {frozenset({2, 3})}
    assert set(rep.cxps) == {frozenset({2}), frozenset({3})}


def test_marco_single_default(constant_dl):
    for target in (AXP, CXP):
        rep = _marco(constant_dl, Instance((0, 0)), target)
        assert rep.axps == [frozenset()]
        assert rep.cxps == []


def test_marco_mode_agreement(mhs_dl, mhs_instance, dl00, dl00_instance, overlap_dl):
    cases = [
        (mhs_dl, mhs_instance),
        (dl00, dl00_instance),
        (overlap_dl, Instance((0, 1, 1, 0))),
        (overlap_dl, Instance((1, 0, 0, 1))),
    ]
    for dl, inst in cases:
        a = _marco(dl, inst, AXP)
        b = _marco(dl, inst, CXP)
        assert set(a.axps) == set(b.axps)
        assert set(a.cxps) == set(b.cxps)


def test_lbx_matches_bruteforce(mhs_dl, mhs_instance, dl00, dl00_instance):
    for dl, inst in ((mhs_dl, mhs_instance), (dl00, dl00_instance)):
        enc = encode_explanation_query(dl, inst)
        rep = enumerate_cxp_lbx(enc, load_encoding(enc))
        assert set(rep.cxps) == set(bf_all_cxps(dl, inst))
        assert rep.axps == []


def test_lbx_constant_classifier(constant_dl):
    enc = encode_explanation_query(constant_dl, Instance((1, 1)))
    rep = enumerate_cxp_lbx(enc, load_encoding(enc))
    assert rep.cxps == []
    assert rep.complete


def test_antichain_and_duality_on_reports(overlap_dl):
    for inst in generate_random_instances(overlap_dl, 6, seed=1):
        rep = _marco(overlap_dl, inst, AXP)
        for group in (rep.axps, rep.cxps):
            for a in group:
                for b in group:
                    assert a == b or not (a <= b)
        assert check_duality(rep.axps, rep.cxps)


def test_report_statistics(mhs_dl, mhs_instance):
    # the CLI's counts and avg_size are read straight off these lists
    rep = _marco(mhs_dl, mhs_instance, AXP)
    assert [len(rep.axps), len(rep.cxps)] == [2, 2]
    assert sum(map(len, rep.axps)) / len(rep.axps) == 1.5
    assert sum(map(len, rep.cxps)) / len(rep.cxps) == 2.0
    assert rep.axps == [frozenset({0, 1}), frozenset({2})]
    assert rep.complete
    # finalize drops repeats and keeps the sorted order
    rep.axps.append(frozenset({2}))
    assert rep.finalize().axps == [frozenset({0, 1}), frozenset({2})]


def _run_on_class_sessions(dl, insts, mode, cut=None):
    """Enumerate `insts` in order through one `Explainer`, the way the CLI
    does.  With `cut`, the first instance's run is cut short: its
    main-oracle calls time out from the `cut`-th on (0: a deadline that has
    already expired)."""
    explainer = Explainer(dl)
    results = []
    for idx, inst in enumerate(insts):
        enc, session = explainer.query(inst)
        deadline = None
        if cut is not None and idx == 0:
            if cut == 0:
                deadline = time.monotonic()
            else:
                session.solve = _timeout_after(session.solve, cut)
        if mode == "lbx":
            rep = enumerate_cxp_lbx(enc, session, deadline=deadline)
        else:
            rep = enumerate_marco(enc, session, mode, deadline=deadline)
        session.__dict__.pop("solve", None)
        assert not session.selectors  # retired, however the run ended
        results.append((rep.complete, set(rep.axps), set(rep.cxps)))
    return results, len(explainer.sessions)


def _timeout_after(solve, calls):
    count = itertools.count()

    def limited(*args, **kwargs):
        if next(count) >= calls:
            raise OracleTimeout("cut short")
        return solve(*args, **kwargs)

    return limited


def test_session_reuse_across_instances(mhs_dl):
    # one session per predicted class serves its instances in either order
    insts = [Instance((1, 1, 1, 1, 1)), Instance((0, 0, 0, 0, 0))]
    insts += generate_random_instances(mhs_dl, 6, seed=3)
    for mode in ("lbx", AXP, CXP):
        forward, classes = _run_on_class_sessions(mhs_dl, insts, mode)
        backward, _ = _run_on_class_sessions(mhs_dl, insts[::-1], mode)
        assert classes == 2
        assert forward == backward[::-1]
        for inst, (complete, axps, cxps) in zip(insts, forward):
            assert complete
            assert cxps == set(bf_all_cxps(mhs_dl, inst))
            assert mode == "lbx" or axps == set(bf_all_axps(mhs_dl, inst))


@pytest.mark.parametrize("mode", ["lbx", AXP, CXP])
def test_cut_short_run_leaves_class_session_intact(mode):
    p = GeneratorParams(seed=4, num_features=5, domain_size=3, num_rules=12,
                        max_antecedent_len=3, num_classes=2)
    dl = generate_random_dl(p)
    insts = generate_random_instances(dl, 20, seed=9)
    cls = classify(dl, insts[0].point)[0]
    pair = [insts[0],
            next(i for i in insts[1:] if classify(dl, i.point)[0] == cls)]
    expected = (True,
                set() if mode == "lbx" else set(bf_all_axps(dl, pair[1])),
                set(bf_all_cxps(dl, pair[1])))
    # cut the first run after every number of calls, from an expired
    # deadline up to the complete run
    calls = 0
    while True:
        (done, _, _), second = _run_on_class_sessions(
            dl, pair, mode, cut=calls)[0]
        assert second == expected
        if done:
            break
        calls += 1
    assert calls > 2


def test_enumeration_respects_deadline():
    p = GeneratorParams(seed=4, num_features=10, domain_size=3, num_rules=40,
                        max_antecedent_len=4, num_classes=2)
    dl = generate_random_dl(p)
    inst = generate_random_instances(dl, 1, 9)[0]
    enc = encode_explanation_query(dl, inst)
    rep = enumerate_marco(enc, load_encoding(enc), AXP,
                          deadline=time.monotonic())  # already expired
    assert not rep.complete


def test_lbx_run_adds_one_variable_and_no_clauses_to_its_session():
    # the whole run blocks its CXps under one selector, and the
    # retirement sweeps every blocking clause out at once
    p = GeneratorParams(seed=4, num_features=6, domain_size=3, num_rules=20,
                        max_antecedent_len=3, num_classes=2)
    dl = generate_random_dl(p)
    inst = generate_random_instances(dl, 1, seed=2)[0]
    enc, session = Explainer(dl).query(inst)
    solver = session.solver
    nvars, loaded = solver.nvars, len(solver.clauses)
    rep = enumerate_cxp_lbx(enc, session)
    assert set(rep.cxps) == set(bf_all_cxps(dl, inst))
    assert len(rep.cxps) > 1
    assert solver.nvars == nvars + 1
    assert len(solver.clauses) <= loaded


def test_class_sessions_stay_small_over_a_long_stream():
    # every retired selector sweeps the clauses it guarded out at once,
    # so a class session serving a long stream stays near its loaded size
    # and keeps its answers exact
    p = GeneratorParams(seed=1, num_features=6, domain_size=3, num_rules=30,
                        max_antecedent_len=3, num_classes=2)
    dl = generate_random_dl(p)
    explainer = Explainer(dl)
    loaded = {}
    for inst in generate_random_instances(dl, 60, seed=1):
        enc, session = explainer.query(inst)
        solver = session.solver
        loaded.setdefault(enc.pred_class,
                          len(solver.clauses) + len(solver.learnts))
        axps, cxps = set(bf_all_axps(dl, inst)), set(bf_all_cxps(dl, inst))
        assert set(enumerate_cxp_lbx(enc, session).cxps) == cxps
        for target in (AXP, CXP):
            rep = enumerate_marco(enc, session, target)
            assert (set(rep.axps), set(rep.cxps)) == (axps, cxps)
        size = len(solver.clauses) + len(solver.learnts)
        assert size < 2 * loaded[enc.pred_class]
    assert len(explainer.sessions) == 2
