import json

import pytest

from conftest import CONSTANT_MODEL, MHS_MODEL, SELFDET_MODEL
from dlxplain.cli import main


@pytest.fixture
def mhs_files(tmp_path):
    model = tmp_path / "model.dl"
    model.write_text(MHS_MODEL)
    inst = tmp_path / "insts.csv"
    inst.write_text("x1,x2,x3,x4,x5\n1,1,1,1,1\n0,0,1,2,2\n")
    return str(model), str(inst)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jlines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_classify_json(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "classify", "--model", model, "--instances", insts,
        "--format", "json-lines",
    )
    assert code == 0
    recs = jlines(out)
    assert recs[0]["class"] == "neg" and recs[0]["rule"] == "R0"
    assert recs[1]["class"] == "neg" and recs[1]["rule"] == "default"


def test_classify_reports_mismatches(tmp_path, capsys):
    model = tmp_path / "m.dl"
    model.write_text(MHS_MODEL)
    insts = tmp_path / "i.csv"
    insts.write_text("x1,x2,x3,x4,x5,class\n1,1,1,1,1,pos\n0,0,1,0,0,neg\n")
    code, out, _ = run(
        capsys, "classify", "--model", str(model), "--instances", str(insts),
        "--format", "json-lines",
    )
    assert code == 0
    recs = jlines(out)
    assert recs[0].get("mismatch") is True
    assert recs[-1] == {"summary": "mismatches", "count": 1, "of": 2}


def test_classify_empty_instances(tmp_path, capsys):
    model = tmp_path / "m.dl"
    model.write_text(MHS_MODEL)
    insts = tmp_path / "i.csv"
    insts.write_text("")
    code, out, _ = run(
        capsys, "classify", "--model", str(model), "--instances", str(insts))
    assert code == 0 and out == ""


def test_malformed_model_exit_2(tmp_path, capsys):
    model = tmp_path / "m.dl"
    model.write_text("feature x : a, b\nclasses : c1, c2\nrule : x=z => c1\n")
    insts = tmp_path / "i.csv"
    insts.write_text("x\na\n")
    code, _, err = run(
        capsys, "classify", "--model", str(model), "--instances", str(insts))
    assert code == 2
    assert "line 3" in err


def test_explain_enum_marco_axp(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "explain", "--model", model, "--instances", insts,
        "--mode", "enum-marco-axp", "--format", "json-lines",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["axps"] == [["x1", "x2"], ["x3"]]
    assert rec["cxps"] == [["x1", "x3"], ["x2", "x3"]]
    assert rec["complete"] is True
    assert rec["counts"] == {"axps": 2, "cxps": 2}


def test_explain_one_shot_modes(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "explain", "--model", model, "--instances", insts,
        "--mode", "one-axp", "--format", "json-lines",
    )
    assert code == 0
    assert jlines(out)[0]["features"] == ["x3"]
    code, out, _ = run(
        capsys, "explain", "--model", model, "--instances", insts,
        "--mode", "one-cxp", "--format", "json-lines",
    )
    assert code == 0
    assert jlines(out)[0]["features"] in (["x1", "x3"], ["x2", "x3"])


def test_explain_horn_mode(tmp_path, capsys):
    model = tmp_path / "m.dl"
    model.write_text(SELFDET_MODEL)
    insts = tmp_path / "i.csv"
    insts.write_text("a,b,c,d\n1,0,1,1\n")
    code, out, _ = run(
        capsys, "explain", "--model", str(model), "--instances", str(insts),
        "--mode", "horn", "--format", "json-lines",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["features"] == ["a", "c", "d"]


def test_explain_no_cxp_record(tmp_path, capsys):
    model = tmp_path / "m.dl"
    model.write_text(CONSTANT_MODEL)
    insts = tmp_path / "i.csv"
    insts.write_text("x1,x2\n0,0\n")
    code, out, _ = run(
        capsys, "explain", "--model", str(model), "--instances", str(insts),
        "--mode", "one-cxp", "--format", "json-lines",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["features"] is None
    assert "no contrastive" in rec["note"]


def test_explain_alternative_encoding(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "explain", "--model", model, "--instances", insts,
        "--mode", "enum-marco-cxp", "--encoding", "alternative",
        "--format", "json-lines",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["axps"] == [["x1", "x2"], ["x3"]]


def test_alternative_rejects_multiclass(tmp_path, capsys):
    model = tmp_path / "m.dl"
    model.write_text(
        "feature x : a, b\nclasses : c1, c2, c3\n"
        "rule : x=a => c1\ndefault => c2\n"
    )
    insts = tmp_path / "i.csv"
    insts.write_text("x\na\n")
    code, _, err = run(
        capsys, "explain", "--model", str(model), "--instances", str(insts),
        "--encoding", "alternative",
    )
    assert code == 2
    assert "binary" in err


def test_json_output_deterministic(mhs_files, capsys):
    model, insts = mhs_files
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "explain", "--model", model, "--instances", insts,
            "--mode", "enum-marco-axp", "--format", "json-lines",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_encode_wcnf_files(mhs_files, tmp_path, capsys):
    model, insts = mhs_files
    out_dir = tmp_path / "enc"
    code, out, _ = run(
        capsys, "encode", "--model", model, "--instances", insts,
        "--out-dir", str(out_dir), "--format", "json-lines",
    )
    assert code == 0
    recs = jlines(out)
    assert [r["file"] for r in recs] == ["inst0000.wcnf", "inst0001.wcnf"]
    assert all(r["soft"] == 5 for r in recs)
    text = (out_dir / "inst0000.wcnf").read_text()
    head = text.splitlines()[0].split()
    assert head[:2] == ["p", "wcnf"] and head[4] == "6"
    assert int(head[3]) == len(text.splitlines()) - 1
    # determinism across runs
    code, _, _ = run(
        capsys, "encode", "--model", model, "--instances", insts,
        "--out-dir", str(out_dir), "--format", "json-lines",
    )
    assert (out_dir / "inst0000.wcnf").read_text() == text


def test_encode_dlsat(tmp_path, mhs_files, capsys):
    model, _ = mhs_files
    out_dir = tmp_path / "enc2"
    code, out, _ = run(
        capsys, "encode", "--model", model, "--query", "dlsat",
        "--target-class", "pos", "--out-dir", str(out_dir),
        "--format", "json-lines",
    )
    assert code == 0
    rec = jlines(out)[0]
    path = out_dir / rec["file"]
    assert path.read_text().startswith("p cnf ")


def test_encode_dlsat_needs_target(tmp_path, mhs_files, capsys):
    model, _ = mhs_files
    code, _, err = run(
        capsys, "encode", "--model", model, "--query", "dlsat",
        "--out-dir", str(tmp_path),
    )
    assert code == 2 and "--target-class" in err


def test_verify_ok(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "verify", "--model", model, "--instances", insts,
        "--format", "json-lines",
    )
    assert code == 0
    assert all(r["status"] == "ok" for r in jlines(out))


def test_verify_bound_exceeded(mhs_files, capsys):
    model, insts = mhs_files
    code, _, err = run(
        capsys, "verify", "--model", model, "--instances", insts,
        "--bf-max-points", "5",
    )
    assert code == 2
    assert "exceed" in err


def test_classify_dl00_rule_name(tmp_path, capsys):
    from conftest import DL00_MODEL
    model = tmp_path / "m.dl"
    model.write_text(DL00_MODEL)
    insts = tmp_path / "i.csv"
    insts.write_text("x1,x2,x3,x4\n1,0,1,1\n")
    code, out, _ = run(
        capsys, "classify", "--model", str(model), "--instances", str(insts),
        "--format", "json-lines",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["class"] == "f1" and rec["rule"] == "R5"


def test_verify_detects_corrupted_enumerator(mhs_files, capsys, monkeypatch):
    # negative control: an enumerator that drops one explanation must trip
    # the cross-check
    import dlxplain.cli as cli_mod
    real = cli_mod.enumerate_marco

    def lossy(enc, session, target, deadline=None):
        rep = real(enc, session, target, deadline=deadline)
        if rep.axps:
            rep.axps = rep.axps[:-1]
        return rep

    monkeypatch.setattr(cli_mod, "enumerate_marco", lossy)
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "verify", "--model", model, "--instances", insts,
        "--format", "json-lines",
    )
    assert code == 1
    recs = jlines(out)
    assert any(r["status"] == "mismatch" for r in recs)
    assert any("expected_axps" in r for r in recs)


def test_verify_budget_exhaustion_is_incomplete(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "verify", "--model", model, "--instances", insts,
        "--budget-s", "0.000001", "--format", "json-lines",
    )
    assert code == 3
    recs = jlines(out)
    assert len(recs) == 2
    for r in recs:
        assert r["status"] == "incomplete" and "problems" not in r
        assert r["incomplete"] == ["marco-axp", "marco-cxp", "lbx"]


def test_verify_flags_wrong_answers_of_incomplete_runs(mhs_files, capsys,
                                                       monkeypatch):
    # a run cut short may miss explanations, but not report false ones
    import dlxplain.cli as cli_mod
    real = cli_mod.enumerate_marco

    def bogus(enc, session, target, deadline=None):
        rep = real(enc, session, target, deadline=deadline)
        rep.complete = False
        rep.axps = rep.axps + [frozenset(range(5))]
        return rep

    monkeypatch.setattr(cli_mod, "enumerate_marco", bogus)
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "verify", "--model", model, "--instances", insts,
        "--format", "json-lines",
    )
    assert code == 1
    recs = jlines(out)
    assert all(r["status"] == "mismatch" for r in recs)
    assert all("marco-axp axps diverge" in r["problems"] for r in recs)


def test_explain_budget_strict_exit_3(mhs_files, capsys):
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "explain", "--model", model, "--instances", insts,
        "--mode", "enum-marco-axp", "--budget-s", "0.000001",
        "--strict", "--format", "json-lines",
    )
    assert code == 3
    assert any(r["complete"] is False for r in jlines(out))


@pytest.mark.parametrize("budget", ["-1", "0", "nan"])
def test_budget_must_be_positive(mhs_files, capsys, budget):
    model, insts = mhs_files
    code, _, err = run(
        capsys, "explain", "--model", model, "--instances", insts,
        "--budget-s", budget,
    )
    assert code == 2 and "positive" in err


def test_human_format_no_color_env(mhs_files, capsys, monkeypatch):
    monkeypatch.setenv("DLX_NO_COLOR", "1")
    model, insts = mhs_files
    code, out, _ = run(
        capsys, "classify", "--model", model, "--instances", insts)
    assert code == 0
    assert "\033[" not in out
    assert "class=neg" in out


MIXED_ROWS = ["1,1,1,1,1", "0,0,0,0,0", "0,0,1,2,2", "2,1,0,1,0",
              "1,1,2,0,0", "2,2,1,0,1"]  # neg, pos, neg, pos, neg, neg


def _write_rows(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("x1,x2,x3,x4,x5\n" + "".join(r + "\n" for r in rows))
    return str(path)


@pytest.fixture
def load_counter(monkeypatch):
    import dlxplain.cli as cli_mod
    loads = []
    real = cli_mod.load_encoding

    def counting(enc):
        loads.append(enc.pred_class)
        return real(enc)

    monkeypatch.setattr(cli_mod, "load_encoding", counting)
    return loads


@pytest.mark.parametrize("argv,expected", [
    (["explain", "--mode", "enum-lbx"], 2),
    (["explain", "--mode", "enum-marco-axp"], 2),
    (["explain", "--mode", "enum-marco-cxp", "--encoding", "alternative"], 2),
    (["verify"], 2),
    (["explain", "--mode", "one-cxp"], len(MIXED_ROWS)),
    (["explain", "--mode", "one-axp"], len(MIXED_ROWS)),
])
def test_sessions_load_once_per_class_in_enum_modes(
        tmp_path, capsys, load_counter, argv, expected):
    # enumeration modes and verify share one session per predicted class;
    # one-shot modes load a fresh session per instance
    model = tmp_path / "model.dl"
    model.write_text(MHS_MODEL)
    insts = _write_rows(tmp_path, "insts.csv", MIXED_ROWS)
    code, _, _ = run(capsys, *argv, "--model", str(model),
                     "--instances", insts, "--format", "json-lines")
    assert code == 0
    assert len(load_counter) == expected
    assert len(set(load_counter)) == 2


@pytest.mark.parametrize("mode", ["enum-lbx", "enum-marco-axp",
                                  "enum-marco-cxp"])
@pytest.mark.parametrize("encoding", ["main", "alternative"])
def test_enum_records_do_not_depend_on_row_order(tmp_path, capsys, mode,
                                                 encoding):
    model = tmp_path / "model.dl"
    model.write_text(MHS_MODEL)

    def records(rows):
        insts = _write_rows(tmp_path, "insts.csv", rows)
        code, out, _ = run(capsys, "explain", "--model", str(model),
                           "--instances", insts, "--mode", mode,
                           "--encoding", encoding, "--format", "json-lines")
        assert code == 0
        # each record's bytes after its "instance" field, by point
        return {tuple(json.loads(line)["point"]): line.split(", ", 1)[1]
                for line in out.splitlines()}

    base = records(MIXED_ROWS)
    assert len(base) == len(MIXED_ROWS)
    for order in ([5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]):
        assert records([MIXED_ROWS[i] for i in order]) == base
