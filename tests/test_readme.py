"""The README's examples run as printed: its model parses, its library
snippet runs on that model, and its sample CLI run prints its record."""

import json
import re
import shlex
from pathlib import Path

from dlxplain import parse_model
from dlxplain.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(after: str, fence: str = "```") -> str:
    """The first fenced block opened by `fence` after the line `after`."""
    rest = README[README.index(after):]
    match = re.search(rf"^{re.escape(fence)}\n(.*?)^```$", rest,
                      re.MULTILINE | re.DOTALL)
    return match.group(1)


def _write_model(tmp_path):
    text = _block("## Model format")
    (tmp_path / "model.dl").write_text(text, encoding="utf-8")
    return parse_model(text)


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    _write_model(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("## Library", "```python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_sample_run_prints_its_record(tmp_path, monkeypatch, capsys):
    dl = _write_model(tmp_path)
    sample = _block("Sample run on the model above")
    point = re.search(r"instance `\((.*?)\)`", README).group(1).split(",")
    (tmp_path / "insts.csv").write_text(
        ",".join(dl.space.feature_names) + "\n" + ",".join(point) + "\n",
        encoding="utf-8")
    command, printed = sample.split("\n{", 1)
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:2] == ["$", "dlxplain"]
    monkeypatch.chdir(tmp_path)
    assert main(argv[2:]) == 0
    got = json.loads(capsys.readouterr().out)
    # the printed record elides some fields with "..."
    shown = json.loads("{" + printed.replace("...,", ""))
    assert shown == {k: got[k] for k in shown}


def test_readme_contents_table_names_every_module():
    table = README[README.index("## Contents"):].split("\n## ", 1)[0]
    listed = set()
    for row in table.splitlines():
        if row.startswith("|"):
            listed.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    modules = {p.stem for p in (ROOT / "src" / "dlxplain").glob("*.py")}
    assert listed == modules - {"__init__"}
