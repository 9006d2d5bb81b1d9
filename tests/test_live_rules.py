"""The live-rule check: which rules fire first on some point, computed
once per model and read by both encoders."""

import gc
import weakref

import pytest

import dlxplain.core as core
from dlxplain import (
    GeneratorParams,
    Instance,
    classify,
    encode_alternative,
    encode_dlsat,
    encode_explanation_query,
    generate_random_dl,
    generate_random_instances,
    parse_model,
)
from dlxplain.encoding import (
    VarMap,
    _alloc_feature_vars,
    _antecedent_lits,
    _exactly_one_clauses,
)
from dlxplain.oracle import OracleSession

from conftest import DL00_MODEL, MHS_MODEL, corpus_models

# the criterion-7 model and its instance stream
DESK_PARAMS = GeneratorParams(seed=11, num_features=50, domain_size=4,
                              num_rules=500, max_antecedent_len=5,
                              num_classes=2)


@pytest.fixture(scope="module")
def desk_dl():
    return generate_random_dl(DESK_PARAMS)


def plain_live_rules(dl):
    """The DL-SAT question once per rule on one session: rule k is live
    iff its antecedent holds on some point where no earlier antecedent
    holds.  After each rule, "its antecedent fails" is added for good."""
    vm = VarMap()
    _alloc_feature_vars(dl, vm)
    session = OracleSession(vm.var_count)
    for cl in _exactly_one_clauses(dl, vm):
        session.add_clause(cl)
    live = []
    for k, rule in enumerate(dl.rules):
        lits = _antecedent_lits(vm, rule)
        if session.solve(lits).sat:
            live.append(k)
        session.add_clause([-lit for lit in lits])
    return tuple(live)


def test_fast_check_equals_one_call_per_rule_on_desk_model(desk_dl):
    live = desk_dl.live_rules
    assert len(live) == 65 and live[-1] == 70
    assert live == plain_live_rules(desk_dl)


def test_fast_check_equals_one_call_per_rule_on_corpus(monkeypatch):
    # the box split decides every corpus rule; with no budget, every rule
    # that no single live box contains goes to the SAT session instead
    models = [dl for dl, _ in corpus_models()]
    expected = [plain_live_rules(dl) for dl in models]
    assert [dl.live_rules for dl in models] == expected
    monkeypatch.setattr(core, "ESCAPE_BUDGET", 0)
    assert [core._live_rules(dl) for dl in models] == expected


def test_paper_models_keep_every_rule():
    # the default of dl00 never fires, yet its clause stays in the query
    assert parse_model(DL00_MODEL).live_rules == tuple(range(7))
    assert parse_model(MHS_MODEL).live_rules == (0, 1)


def test_desk_queries_encode_only_live_rules(desk_dl):
    # per predicted class: hard clauses and t variables of the query; a
    # rule that never fires first must not come back into the encoding
    sizes = {}
    for inst in generate_random_instances(desk_dl, 20, 99):
        enc = encode_explanation_query(desk_dl, inst)
        sizes[enc.pred_class] = (len(enc.hard), len(enc.varmap.t))
    assert sizes == {0: (487, 33), 1: (466, 32)}


def test_live_check_runs_once_per_model(monkeypatch):
    runs = []

    def counting(dl, real=core._live_rules):
        runs.append(dl)
        return real(dl)

    monkeypatch.setattr(core, "_live_rules", counting)
    dl = generate_random_dl(GeneratorParams(
        seed=5, num_features=6, domain_size=3, num_rules=12,
        max_antecedent_len=3, num_classes=2))
    insts = generate_random_instances(dl, 30, 7)
    assert len({classify(dl, inst.point)[0] for inst in insts}) == 2
    for inst in insts:
        encode_explanation_query(dl, inst)
        encode_alternative(dl, inst)
    encode_dlsat(dl, 0)
    assert runs == [dl]


def test_cached_check_does_not_keep_the_model_alive():
    dl = parse_model(MHS_MODEL)
    encode_explanation_query(dl, Instance((0, 0, 0, 0, 0)))
    assert "live_rules" in vars(dl)
    ref = weakref.ref(dl)
    del dl
    gc.collect()
    assert ref() is None
