"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The shared corpus (208 generated models x 5 instances) is enumerated once
by a module fixture; the criteria then assert over its collected results.
Budgets are wall-clock and generous only where the criterion grants them.
"""

import itertools
import random
import sys
import time
from dataclasses import dataclass, field

import pytest

from dlxplain import (
    CnfFormula,
    DnfFormula,
    Explainer,
    GeneratorParams,
    Instance,
    bf_all_axps,
    bf_all_cxps,
    bf_dlsat,
    check_duality,
    check_restricted,
    cnf_to_dl,
    dnfim_to_dl,
    dump_wcnf,
    encode_alternative,
    encode_dlsat,
    encode_explanation_query,
    enumerate_cxp_lbx,
    enumerate_marco,
    generate_random_dl,
    generate_random_instances,
    generate_restricted_dl,
    horn_axp_detailed,
    one_axp,
    one_cxp,
    parse_model,
)
from dlxplain.bruteforce import hard_model_points
from dlxplain.core import AXP, CXP
from dlxplain.explain import load_encoding
from dlxplain.oracle import OracleSession

from conftest import DL00_MODEL, MHS_MODEL, SELFDET_MODEL


def _announce(num: int, name: str, ok: bool) -> None:
    # bypass capture so the verdict lands in the live test log
    sys.__stdout__.write(
        f"[acceptance] criterion {num} {name}: {'PASS' if ok else 'FAIL'}\n"
    )
    sys.__stdout__.flush()


@dataclass
class Case:
    dl: object
    inst: Instance
    restricted: bool
    bf_axps: frozenset = None
    bf_cxps: frozenset = None
    mode_axps: dict = field(default_factory=dict)
    mode_cxps: dict = field(default_factory=dict)
    emitted: list = field(default_factory=list)  # (kind, frozenset)


def _corpus_models():
    models = []
    for seed in range(160):
        m = 3 + seed % 6
        params = GeneratorParams(
            seed=seed,
            num_features=m,
            domain_size=2 + seed % 2,
            num_rules=1 + (seed * 7) % 12,
            max_antecedent_len=min(1 + seed % 4, m),
            num_classes=2 + seed % 2,
        )
        models.append((generate_random_dl(params), False))
    for seed in range(48):
        m = 3 + seed % 6
        params = GeneratorParams(
            seed=seed,
            num_features=m,
            domain_size=2 + seed % 2,
            num_rules=1 + seed % 8,
            max_antecedent_len=min(2 + seed % 3, m),
            num_classes=2 + seed % 2,
        )
        models.append((generate_restricted_dl(params), True))
    return models


@pytest.fixture(scope="module")
def corpus():
    start = time.monotonic()
    cases = []
    for idx, (dl, restricted) in enumerate(_corpus_models()):
        for inst in generate_random_instances(dl, 5, 9000 + idx):
            case = Case(dl, inst, restricted)
            case.bf_axps = bf_all_axps(dl, inst)
            case.bf_cxps = bf_all_cxps(dl, inst)

            enc = encode_explanation_query(dl, inst)
            for mode, run in (
                ("marco-axp", lambda e, s: enumerate_marco(e, s, AXP)),
                ("marco-cxp", lambda e, s: enumerate_marco(e, s, CXP)),
                ("lbx", enumerate_cxp_lbx),
            ):
                rep = run(enc, load_encoding(enc))
                case.mode_axps[mode] = frozenset(rep.axps)
                case.mode_cxps[mode] = frozenset(rep.cxps)
                case.emitted.extend((AXP, x) for x in rep.axps)
                case.emitted.extend((CXP, y) for y in rep.cxps)

            session = load_encoding(enc)
            case.emitted.append((AXP, one_axp(enc, session)))
            cxp = one_cxp(enc, session)
            if cxp is not None:
                case.emitted.append((CXP, cxp))
            cases.append(case)
    return cases, time.monotonic() - start


def test_criterion_1_paper_example_regression():
    ok = False
    try:
        started = time.monotonic()
        mhs = parse_model(MHS_MODEL)
        enc = encode_explanation_query(mhs, Instance((1, 1, 1, 1, 1)))
        rep = enumerate_marco(enc, load_encoding(enc), AXP)
        assert set(rep.axps) == {frozenset({0, 1}), frozenset({2})}
        assert set(rep.cxps) == {frozenset({0, 2}), frozenset({1, 2})}
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        dl00 = parse_model(DL00_MODEL)
        enc = encode_explanation_query(dl00, Instance((1, 0, 1, 1)))
        rep = enumerate_marco(enc, load_encoding(enc), AXP)
        assert set(rep.axps) == {frozenset({2, 3})}
        assert set(rep.cxps) == {frozenset({2}), frozenset({3})}
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        selfdet = parse_model(SELFDET_MODEL)
        axp, _ = horn_axp_detailed(selfdet, Instance((1, 0, 1, 1)))
        assert axp == frozenset({0, 2, 3})
        assert time.monotonic() - started < 1.0
        ok = True
    finally:
        _announce(1, "paper-example regression", ok)


def test_criterion_2_oracle_equivalence(corpus):
    cases, elapsed = corpus
    ok = False
    try:
        assert len({id(c.dl) for c in cases}) >= 200
        assert len(cases) >= 200 * 5
        for case in cases:
            for mode in ("marco-axp", "marco-cxp"):
                assert case.mode_axps[mode] == case.bf_axps, (mode, case.inst)
                assert case.mode_cxps[mode] == case.bf_cxps, (mode, case.inst)
            assert case.mode_cxps["lbx"] == case.bf_cxps, ("lbx", case.inst)
            assert check_duality(case.bf_axps, case.bf_cxps)
        assert elapsed <= 600, f"corpus enumeration took {elapsed:.0f}s"
        ok = True
    finally:
        _announce(2, "oracle equivalence on generated corpus", ok)


def test_criterion_3_minimality_sufficiency_audit(corpus):
    cases, _ = corpus
    ok = False
    try:
        audited = 0
        for case in cases:
            enc = encode_explanation_query(case.dl, case.inst)
            session = load_encoding(enc)
            softs = enc.soft
            m = len(softs)
            for kind, feats in set(case.emitted):
                if kind == AXP:
                    kept = [softs[j] for j in sorted(feats)]
                    assert not session.solve(kept).sat, (case.inst, feats)
                    for j in sorted(feats):
                        sub = [softs[i] for i in sorted(feats) if i != j]
                        assert session.solve(sub).sat, (case.inst, feats, j)
                else:
                    kept = [softs[j] for j in range(m) if j not in feats]
                    assert session.solve(kept).sat, (case.inst, feats)
                    for j in sorted(feats):
                        back = [softs[i] for i in range(m)
                                if i not in feats or i == j]
                        assert not session.solve(back).sat, (case.inst, feats, j)
                audited += 1
        assert audited > 0
        ok = True
    finally:
        _announce(3, "minimality/sufficiency audit", ok)


def test_criterion_4_encoding_equivalence(corpus):
    cases, _ = corpus
    ok = False
    try:
        compared = 0
        for case in cases:
            if len(case.dl.space.classes) != 2:
                continue
            main = encode_explanation_query(case.dl, case.inst)
            alt = encode_alternative(case.dl, case.inst)
            assert hard_model_points(case.dl, main) == \
                hard_model_points(case.dl, alt), case.inst
            compared += 1
        assert compared > 0
        ok = True
    finally:
        _announce(4, "main/alternative encoding equivalence", ok)


def _random_clauses(rng, num_vars, max_groups, width):
    count = rng.randint(1, max_groups)
    out = []
    for _ in range(count):
        size = rng.randint(1, min(width, num_vars))
        vs = rng.sample(range(1, num_vars + 1), size)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return tuple(out)


def _brute_sat(num_vars, clauses):
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
        for bits in itertools.product((False, True), repeat=num_vars)
    )


def _brute_implicant(num_vars, terms, p):
    def holds(term, bits):
        return all(bits[abs(l) - 1] == (l > 0) for l in term)

    return all(
        any(holds(t, bits) for t in terms)
        for bits in itertools.product((False, True), repeat=num_vars)
        if holds(p, bits)
    )


def _sat_encoded(dl, target):
    vm, clauses = encode_dlsat(dl, target)
    ses = OracleSession(vm.var_count)
    for cl in clauses:
        ses.add_clause(cl)
    return ses.solve([]).sat


def test_criterion_5_reduction_correctness():
    ok = False
    try:
        rng = random.Random(20240)
        for _ in range(500):
            n = rng.randint(1, 10)
            clauses = _random_clauses(rng, n, 20, 3)
            phi = CnfFormula(n, clauses)
            dl = cnf_to_dl(phi)
            expected = _brute_sat(n, clauses)
            pos = dl.space.class_index("pos")
            assert bf_dlsat(dl, pos) == expected, (n, clauses)
            assert _sat_encoded(dl, pos) == expected, (n, clauses)
        for _ in range(500):
            n = rng.randint(1, 10)
            terms = _random_clauses(rng, n, 8, 3)
            p = tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, n))
            )
            psi = DnfFormula(n, terms)
            dl = dnfim_to_dl(psi, p)
            expected = _brute_implicant(n, terms, p)
            pos = dl.space.class_index("pos")
            assert (not bf_dlsat(dl, pos)) == expected, (n, terms, p)
            assert (not _sat_encoded(dl, pos)) == expected, (n, terms, p)
        ok = True
    finally:
        _announce(5, "reduction correctness (500 CNFs + 500 DNF pairs)", ok)


def test_criterion_6_horn_fastpath_search_free(corpus):
    cases, _ = corpus
    ok = False
    try:
        restricted = [c for c in cases
                      if c.restricted and check_restricted(c.dl, strict=True)]
        assert restricted, "corpus must contain restricted models"
        originals = {name: getattr(OracleSession, name)
                     for name in ("solve", "solve_under_assumptions")}
        search_calls = []

        def spy(original):
            def call(self, *args, **kwargs):
                search_calls.append(1)
                return original(self, *args, **kwargs)
            return call

        for name, original in originals.items():
            setattr(OracleSession, name, spy(original))
        try:
            outputs = []
            for case in restricted:
                axp, query = horn_axp_detailed(case.dl, case.inst)
                m = case.dl.space.num_features
                assert query.checks_used <= m + 1, (case.inst, query.checks_used)
                outputs.append((case, axp))
        finally:
            for name, original in originals.items():
                setattr(OracleSession, name, original)
        assert not search_calls, "polynomial path must not invoke CDCL search"
        # the outputs also satisfy the criterion-3 style audit
        for case, axp in outputs:
            assert axp in case.bf_axps
        ok = True
    finally:
        _announce(6, "polynomial path is search-free", ok)


@pytest.mark.slow
def test_criterion_7_desk_scale_performance():
    ok = False
    timings = {}
    try:
        params = GeneratorParams(seed=11, num_features=50, domain_size=4,
                                 num_rules=500, max_antecedent_len=5,
                                 num_classes=2)
        dl = generate_random_dl(params)
        insts = generate_random_instances(dl, 20, 99)
        counts = {}
        for mode in ("enum-marco-axp", "enum-marco-cxp", "enum-lbx"):
            started = time.monotonic()
            axps = cxps = 0
            explainer = Explainer(dl)
            for inst in insts:
                enc, session = explainer.query(inst)
                if mode == "enum-lbx":
                    rep = enumerate_cxp_lbx(enc, session)
                else:
                    target = AXP if mode == "enum-marco-axp" else CXP
                    rep = enumerate_marco(enc, session, target)
                assert rep.complete
                axps += len(rep.axps)
                cxps += len(rep.cxps)
            timings[mode] = time.monotonic() - started
            counts[mode] = (axps, cxps)
            assert timings[mode] <= 300, f"{mode} took {timings[mode]:.0f}s"
        # observation only: where the hitting-set-driven AXp mode ranks
        ranking = sorted(timings, key=timings.get)
        sys.__stdout__.write(
            "[acceptance] criterion 7 timings: "
            + ", ".join(f"{m}={timings[m]:.1f}s" for m in ranking)
            + f"; marco-axp rank {ranking.index('enum-marco-axp') + 1}/3\n"
        )
        assert counts["enum-marco-axp"] == counts["enum-marco-cxp"]
        ok = True
    finally:
        _announce(7, "desk-scale enumeration within budget", ok)


def test_criterion_8_determinism(tmp_path):
    ok = False
    try:
        from dlxplain.cli import main

        params = GeneratorParams(seed=21, num_features=6, domain_size=3,
                                 num_rules=10, max_antecedent_len=4,
                                 num_classes=2)
        dl = generate_random_dl(params)
        from dlxplain.model_io import serialize_instances, serialize_model
        model = tmp_path / "model.dl"
        model.write_text(serialize_model(dl))
        insts = tmp_path / "insts.csv"
        insts.write_text(
            serialize_instances(dl.space,
                                generate_random_instances(dl, 6, 4))
        )
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        import contextlib

        for path in (out_a, out_b):
            with open(path, "w") as fh, contextlib.redirect_stdout(fh):
                code = main([
                    "explain", "--model", str(model), "--instances",
                    str(insts), "--mode", "enum-marco-axp",
                    "--format", "json-lines",
                ])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        enc_dir_a = tmp_path / "enc_a"
        enc_dir_b = tmp_path / "enc_b"
        for target in (enc_dir_a, enc_dir_b):
            with open(tmp_path / "enc.log", "w") as fh, \
                    contextlib.redirect_stdout(fh):
                code = main([
                    "encode", "--model", str(model), "--instances",
                    str(insts), "--out-dir", str(target),
                    "--format", "json-lines",
                ])
            assert code == 0
        for name in sorted(p.name for p in enc_dir_a.iterdir()):
            assert (enc_dir_a / name).read_bytes() == \
                (enc_dir_b / name).read_bytes()

        # library-level WCNF determinism on a fresh equal model
        dl2 = generate_random_dl(params)
        inst = generate_random_instances(dl2, 1, 4)[0]
        assert dump_wcnf(encode_explanation_query(dl, inst)) == \
            dump_wcnf(encode_explanation_query(dl2, inst))
        ok = True
    finally:
        _announce(8, "byte-identical outputs across runs", ok)
