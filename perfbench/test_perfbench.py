"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dlxplain.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from dlxplain import GeneratorParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Shrink every workload: a 6-feature desk model with 4 instances, and
    three random plus three restricted corpus models."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setattr(workloads, "DESK_INSTANCES", 4)
    monkeypatch.setattr(workloads, "desk_params", lambda seed: GeneratorParams(
        seed=seed, num_features=6, domain_size=3, num_rules=12,
        max_antecedent_len=3, num_classes=2))
    full = workloads.corpus_models

    def few_models(workload_seed):
        models, inst_seed = full(workload_seed)
        return models[:3] + models[160:163], inst_seed

    monkeypatch.setattr(workloads, "corpus_models", few_models)
    return tmp_path


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_named_metric_is_reported(tiny, capsys, name):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0"]
    assert run.main(argv + ["--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0

    assert run.main(argv + ["--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _desk(tiny, name="desk-marco-axp"):
    return workloads.setup(name, tiny / "work", 1, 11, tiny / "cache")


class MutatingCli:
    """Runs the real CLI, then rewrites its JSON lines: drops one
    explanation of row 0, marks row 1 incomplete and loses row 2."""

    def main(self, argv):
        real = run.StampedStream()
        out = sys.stdout
        sys.stdout = real
        try:
            status = cli.main(argv)
        finally:
            sys.stdout = out
        for line in real.lines:
            record = json.loads(line)
            if record["instance"] == 0:
                record["axps"] = record["axps"][1:]
            elif record["instance"] == 1:
                record["complete"] = False
            elif record["instance"] == 2:
                continue
            print(json.dumps(record))
        return status


def test_bad_records_count_as_failures(tiny):
    workload = _desk(tiny)
    assert not run.run_round(workload, cli).failures
    failures = run.run_round(workload, MutatingCli()).failures
    assert len(failures) == 3
    assert "row 0: axps differ" in failures[0]
    assert "row 1: incomplete" in failures[1]
    assert "row 2: record missing" in failures[2]


def test_traced_output_and_counts_repeat(tiny):
    workload = _desk(tiny, "desk-marco-cxp")
    untraced = run.run_round(workload, cli)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            traced = run.run_round(workload, cli, tracer)
        assert traced.outputs == untraced.outputs
        assert not traced.failures
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["oracle.mhs.calls"] > 0
    assert cli.load_encoding.__name__ == "load_encoding"  # uninstalled


def test_workload_seed_makes_a_fresh_batch(tiny):
    default = _desk(tiny)
    fresh = workloads.setup("desk-marco-axp", tiny / "fresh", 1, 12,
                            tiny / "cache")
    assert (tiny / "work" / "desk.dl").read_text() != \
        (tiny / "fresh" / "desk.dl").read_text()
    assert not run.run_round(fresh, cli).failures
    assert default.instances == fresh.instances


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-lbx",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
