import argparse
import json
from pathlib import Path

import pytest

from conftest import CONSTANT_MODEL, MHS_MODEL, SELFDET_MODEL
from dlxplain import (
    GeneratorParams,
    generate_random_dl,
    generate_random_instances,
    serialize_model,
)
from dlxplain.cli import build_parser, main
from dlxplain.model_io import serialize_instances


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
    assert rec["avg_size"] == {"axps": 1.5, "cxps": 2.0}


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


def test_byte_order_marked_files_read_like_plain_ones(mhs_files, tmp_path,
                                                     capsys):
    # spreadsheet tools save CSVs with a UTF-8 byte-order mark
    model, insts = mhs_files
    marked = []
    for path in (model, insts):
        copy = tmp_path / f"bom-{Path(path).name}"
        copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        marked.append(str(copy))
    outputs = []
    for m, i in ((model, insts), marked):
        for command in (["classify"], ["explain", "--mode", "enum-lbx"]):
            code, out, err = run(capsys, *command, "--model", m,
                                 "--instances", i, "--format", "json-lines")
            assert code == 0, err
            outputs.append(out)
    assert outputs[:2] == outputs[2:]


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


def test_horn_mode_drops_firing_features_an_axp_does_not_need(tmp_path,
                                                              capsys):
    # the model passes even the strict check, yet at (0,0) and (0,1) the
    # firing antecedent a=0 & b=... is larger than the only AXp {a}
    model = tmp_path / "m.dl"
    model.write_text(
        "feature a : 0, 1\nfeature b : 0, 1\nclasses : neg, pos, other\n"
        "rule : a=0 & b=0 => neg\nrule : a=0 & b=1 => neg\n"
        "rule : a=1 => pos\ndefault => other\n"
    )
    insts = tmp_path / "i.csv"
    insts.write_text("a,b\n0,0\n0,1\n1,0\n")
    code, out, _ = run(
        capsys, "explain", "--model", str(model), "--instances", str(insts),
        "--mode", "horn", "--format", "json-lines",
    )
    assert code == 0
    assert [r["features"] for r in jlines(out)] == [["a"], ["a"], ["a"]]


@pytest.mark.parametrize("which", ["model", "instances"])
@pytest.mark.parametrize("command", ["explain", "verify"])
def test_undecodable_input_files_exit_2(mhs_files, tmp_path, capsys, which,
                                        command):
    paths = dict(zip(("model", "instances"), mhs_files))
    bad = tmp_path / f"bad-{which}"
    bad.write_bytes(Path(paths[which]).read_bytes() + b"\xff\n")
    paths[which] = str(bad)
    code, out, err = run(capsys, command, "--model", paths["model"],
                         "--instances", paths["instances"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "decode" in err


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


@pytest.mark.parametrize("argv", [
    ["explain", "--mode", "horn"],
    ["encode", "--query", "dlsat", "--target-class", "pos", "--out-dir", "enc"],
], ids=["horn", "dlsat"])
def test_horn_rejects_alternative_encoding(mhs_files, tmp_path, monkeypatch,
                                           capsys, argv):
    model, insts = mhs_files
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--model", model, "--instances", insts,
                         "--encoding", "alternative")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "drop --encoding alternative" in err
    assert not (tmp_path / "enc").exists()


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


def test_encode_dlsat_reads_no_instances(tmp_path, mhs_files, capsys):
    # DL-SAT never reads the instances, so a file that does not fit the
    # model cannot make the export fail
    model, _ = mhs_files
    insts = tmp_path / "partial.csv"
    insts.write_text("x1,x2\n0,0\n")
    out_dir = tmp_path / "enc"
    code, _, err = run(
        capsys, "encode", "--model", model, "--instances", str(insts),
        "--query", "dlsat", "--target-class", "pos", "--out-dir", str(out_dir),
    )
    assert code == 0, err
    assert (out_dir / "dlsat_pos.cnf").read_text().startswith("p cnf ")


def test_encode_dlsat_needs_target(tmp_path, mhs_files, capsys):
    # a missing or unknown target class is rejected before anything is
    # written
    model, _ = mhs_files
    out_dir = tmp_path / "enc"
    for target, message in (([], "--target-class is required"),
                            (["--target-class", "nope"], "unknown class 'nope'")):
        code, out, err = run(
            capsys, "encode", "--model", model, "--query", "dlsat", *target,
            "--out-dir", str(out_dir),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()


def test_encode_explain_needs_instances(tmp_path, mhs_files, capsys):
    # the explanation query is per instance, so without instances there is
    # nothing to export, and no empty directory is left behind
    model, _ = mhs_files
    out_dir = tmp_path / "enc"
    code, out, err = run(capsys, "encode", "--model", model,
                         "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert err == "error: --instances is required for --query explain\n"
    assert not out_dir.exists()


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
    """Predicted classes of the sessions loaded, by `cli` or by an
    `Explainer` in `enumeration`."""
    import dlxplain.cli as cli_mod
    import dlxplain.enumeration as enum_mod
    loads = []

    for module in (cli_mod, enum_mod):
        def counting(enc, real=module.load_encoding):
            loads.append(enc.pred_class)
            return real(enc)

        monkeypatch.setattr(module, "load_encoding", counting)
    return loads


@pytest.fixture
def live_counter(monkeypatch):
    """Models whose live rules were computed."""
    import dlxplain.core as core
    runs = []

    def counting(dl, real=core._live_rules):
        runs.append(dl)
        return real(dl)

    monkeypatch.setattr(core, "_live_rules", counting)
    return runs


@pytest.mark.parametrize("argv,expected", [
    (["explain", "--mode", "enum-lbx"], 2),
    (["explain", "--mode", "enum-marco-axp"], 2),
    (["explain", "--mode", "enum-marco-cxp", "--encoding", "alternative"], 2),
    (["verify"], 2),
    (["explain", "--mode", "one-cxp"], 2),
    (["explain", "--mode", "one-axp"], 2),
])
def test_sessions_load_once_per_class(
        tmp_path, capsys, load_counter, live_counter, argv, expected):
    # every explain mode and verify load one session per predicted class
    # and copy it per instance; every encoding of a command reads one
    # cached live-rule check
    model = tmp_path / "model.dl"
    model.write_text(MHS_MODEL)
    insts = _write_rows(tmp_path, "insts.csv", MIXED_ROWS)
    code, _, _ = run(capsys, *argv, "--model", str(model),
                     "--instances", insts, "--format", "json-lines")
    assert code == 0
    assert len(load_counter) == expected
    assert len(set(load_counter)) == 2
    assert len(live_counter) == 1


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


@pytest.mark.parametrize("mode", ["one-axp", "one-cxp"])
def test_one_shot_records_do_not_depend_on_row_order(tmp_path, capsys, mode):
    # a one-shot answer depends on its own instance alone; on a model this
    # size a solver session shared across rows would show the row order
    dl = generate_random_dl(GeneratorParams(
        seed=0, num_features=10, domain_size=3, num_rules=40,
        max_antecedent_len=4, num_classes=2))
    model = tmp_path / "model.dl"
    model.write_text(serialize_model(dl))
    rows = generate_random_instances(dl, 12, seed=7)

    def records(batch):
        insts = tmp_path / "insts.csv"
        insts.write_text(serialize_instances(dl.space, batch))
        code, out, _ = run(capsys, "explain", "--model", str(model),
                           "--instances", str(insts), "--mode", mode,
                           "--format", "json-lines")
        assert code == 0
        return {tuple(json.loads(line)["point"]): line.split(", ", 1)[1]
                for line in out.splitlines()}

    base = records(rows)
    assert len(base) == len(rows)
    assert records(rows[::-1]) == base


@pytest.mark.parametrize("argv", [
    ["--mode", "one-axp"],
    ["--mode", "one-cxp"],
    ["--mode", "horn"],
    ["--mode", "enum-lbx"],
    ["--mode", "enum-marco-axp"],
    ["--mode", "enum-marco-cxp"],
    ["--mode", "one-cxp", "--budget-s", "0.000001"],
    ["--mode", "enum-marco-cxp", "--budget-s", "0.000001"],
], ids=["one-axp", "one-cxp", "horn", "enum-lbx", "enum-marco-axp",
        "enum-marco-cxp", "one-cxp-budget", "enum-marco-cxp-budget"])
def test_timing_ends_every_record(mhs_files, tmp_path, capsys, argv):
    model, insts = mhs_files
    if "horn" in argv:
        model, insts = tmp_path / "selfdet.dl", tmp_path / "selfdet.csv"
        model.write_text(SELFDET_MODEL)
        insts.write_text("a,b,c,d\n1,0,1,1\n0,0,0,0\n")
    for timing in ([], ["--timing"]):
        code, out, err = run(capsys, "explain", "--model", str(model),
                             "--instances", str(insts), *argv, *timing,
                             "--format", "json-lines")
        recs = jlines(out)
        assert code == 0 and len(recs) == 2, err
        if "--budget-s" in argv:
            assert all(r.get("incomplete") or r.get("complete") is False
                       for r in recs)
        for r in recs:
            if timing:
                assert list(r)[-1] == "time" and r["time"] >= 0
            else:
                assert "time" not in r


@pytest.mark.parametrize("argv", [
    ["classify", "--timing"],
    ["encode", "--budget-s", "1"],
    ["encode", "--timing"],
    ["verify", "--timing"],
], ids=["classify-timing", "encode-budget", "encode-timing", "verify-timing"])
def test_options_exist_only_where_read(mhs_files, capsys, argv):
    model, insts = mhs_files
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", model, "--instances", insts])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# representative runs of each subcommand; --strict is read only after an
# incomplete run
OPTION_VARIANTS = {
    "classify": [["--format", "json-lines"]],
    "explain": [["--mode", "enum-lbx", "--timing"],
                ["--mode", "enum-marco-axp", "--encoding", "alternative",
                 "--budget-s", "0.000001", "--strict"]],
    "encode": [["--out-dir", "enc", "--format", "json-lines"],
               ["--query", "dlsat", "--target-class", "pos",
                "--out-dir", "enc"]],
    "verify": [["--budget-s", "1", "--bf-max-points", "1000",
                "--bf-max-features", "8"]],
}


@pytest.mark.parametrize("command", OPTION_VARIANTS)
def test_every_option_is_read(mhs_files, tmp_path, monkeypatch, capsys,
                              command):
    # a subcommand takes only options that some run of it reads
    model, insts = mhs_files
    monkeypatch.chdir(tmp_path)
    options, read = set(), set()
    for extra in OPTION_VARIANTS[command]:
        spy = ReadRecorder()
        args = build_parser().parse_args(
            [command, "--model", model, "--instances", insts, *extra],
            namespace=spy)
        options |= set(vars(args)) - {"command", "handler", "_reads"}
        spy._reads.clear()  # parsing reads every option; only the run counts
        args.handler(args)
        read |= spy._reads
    capsys.readouterr()
    assert options - read == set()
