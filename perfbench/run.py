#!/usr/bin/env python3
"""End-to-end benchmark of `dlxplain explain`.

    python3 perfbench/run.py --workload desk-lbx --seed 1 --seconds 15 --trace 0

Run from the repository root.  Set-up generates the workload's model and
instance files under `.perfbench/` and loads (or computes) the reference
explanation sets; it is repeated (see SETUP_MIN_REPEATS) and its median is
`setup_s`.  The measurement then calls `dlxplain.cli.main([...,
"--format", "json-lines"])` in-process, the path a user of the command
line takes, round after round over the whole workload until --seconds
have passed (at least one round), stamping each JSON line as it is
written.  Every record is checked against the reference; a missing,
failed, incomplete or wrong record counts as failed, and any failure
makes the exit status 1.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
round, then traced rounds with each layer's public functions wrapped (see
tracing.py), and reports the per-layer split of one round; it also checks
that the traced rounds emit exactly the untraced JSON lines.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
# set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPEATS), so a cheap set-up gets a steady median
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 15, 1.0
# stop starting rounds that would run a measurement past this
MAX_MEASURE_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def import_program():
    """Import dlxplain from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dlxplain
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dlxplain from {src}: {exc}")
    if Path(dlxplain.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: dlxplain was imported from "
                         f"{dlxplain.__file__}, not from {src}")


class StampedStream(io.TextIOBase):
    """Stand-in for stdout that stamps each line when it is completed."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._tail = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        parts = (self._tail + text).split("\n")
        self._tail = parts.pop()
        for line in parts:
            self.lines.append(line)
            self.stamps.append(now)
        return len(text)


@dataclass
class Round:
    wall: float = 0.0                 # time inside the CLI calls
    latencies: list[float] = field(default_factory=list)
    outputs: list[list[str]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def check_call(call, out: StampedStream, err: str, status) -> list[str]:
    """One problem string per instance of the call whose record is
    missing, reports an error or incompleteness, or fails its check."""
    records = {}
    problems = []
    for line in out.lines:
        try:
            record = json.loads(line)
        except ValueError:
            problems.append(f"unparseable output line {line[:80]!r}")
            continue
        records[record.get("instance")] = record
    for row, check in enumerate(call.checks):
        record = records.get(row)
        if status != 0 or err:
            problem = f"exit status {status}: {err.strip()[:300]}"
        elif record is None:
            problem = "record missing"
        elif "error" in record:
            problem = f"error: {record['error']}"
        elif record.get("incomplete") or record.get("complete") is False:
            problem = "incomplete"
        else:
            problem = check(record)
        if problem:
            problems.append(f"[{' '.join(call.argv)}] row {row}: {problem}")
    return problems


def run_round(workload, cli, tracer=None) -> Round:
    result = Round()
    for index, call in enumerate(workload.calls):
        out, err = StampedStream(), io.StringIO()
        if tracer is not None:
            tracer.begin_call(index, lambda: len(out.lines))
        argv = ["explain", *call.argv, "--format", "json-lines"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except Exception:  # a crash fails the call's instances
                status = "exception"
                err.write(traceback.format_exc())
        result.wall += time.perf_counter() - start
        prev = start
        for stamp in out.stamps:
            result.latencies.append(stamp - prev)
            prev = stamp
        result.outputs.append(out.lines)
        result.failures.extend(check_call(call, out, err.getvalue(), status))
    return result


def repeat_rounds(seconds: float, one_round) -> list:
    """Rounds until `seconds` have passed, stopping early rather than
    overrunning by more than half a round; at least one."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(one_round())
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(done)
        if elapsed + per_round / 2 >= seconds \
                or elapsed + per_round > MAX_MEASURE_S:
            return done


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of the values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(per_round: int) -> float:
    """Highest percentile with at least TAIL_MIN_BEYOND of a round's
    distinct instances beyond it; repeated rounds add no new tail cases."""
    for p in TAIL_PERCENTILES:
        if per_round * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]
    attempted: int
    failures: list[str]


def end_to_end(workload, rounds: list[Round], setup_times: list[float]) -> Report:
    samples = [x for r in rounds for x in r.latencies]
    wall = sum(r.wall for r in rounds)
    attempted = workload.instances * len(rounds)
    failures = [f for r in rounds for f in r.failures]
    tail_p = tail_percentile(workload.instances)
    n = len(samples)
    metrics = {
        "instances_per_s": (attempted / wall, "1/s"),
        "latency_p50_s": (percentile(samples, 50.0) if n else 0.0, "s"),
        "latency_tail_s": (percentile(samples, tail_p) if n else 0.0, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "instances_per_s": f"{attempted} instances in {len(rounds)} round(s) "
                           f"of {workload.instances}, {wall:.3f} s in the CLI",
        "latency_p50_s": f"n={n} records",
        "latency_tail_s": f"p{tail_p:g}, n={n} records "
                          f"({workload.instances} distinct per round)",
        "peak_rss_mb": "n=1 process (set-up included)",
        "setup_s": f"median of n={len(setup_times)} set-ups",
    }
    return Report(metrics, notes, attempted, failures)


def per_layer(workload, base: Round, traced: list) -> Report:
    from tracing import layer_metrics

    per_round = [layer_metrics(t, r.wall, base.wall) for t, r in traced]
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s" or name == "trace.overhead_ratio":
            value = statistics.median(m[name][0] for m in per_round)
        metrics[name] = (value, unit)
    failures = list(base.failures)
    for tracer, r in traced:
        failures.extend(r.failures)
        for i, (a, b) in enumerate(zip(base.outputs, r.outputs)):
            if a != b:
                failures.extend(
                    f"[{' '.join(workload.calls[i].argv)}] row {row}: traced "
                    f"output differs from untraced output"
                    for row in range(len(workload.calls[i].checks)))
    unsteady = [name for name, (_, unit) in metrics.items()
                if unit == "count"
                and any(m[name][0] != metrics[name][0] for m in per_round)]
    notes = {name: f"one round of {workload.instances} instances"
             + (f", median of {len(traced)} traced rounds" if unit == "s" else "")
             for name, (_, unit) in metrics.items()}
    for name in unsteady:
        notes[name] += " (DIFFERS between traced rounds)"
    attempted = workload.instances * (1 + len(traced))
    return Report(metrics, notes, attempted, failures)


def run_workload(name: str, args) -> bool:
    import dlxplain.cli as cli
    import workloads
    from tracing import Tracer

    work_dir = WORK / "work" / name
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_S
            and len(setup_times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        workload = workloads.setup(name, work_dir, args.seed,
                                   args.workload_seed, WORK / "cache")
        setup_times.append(time.perf_counter() - start)

    if args.trace:
        base = run_round(workload, cli)
        untraced = end_to_end(workload, [base], setup_times)

        def traced_round():
            tracer = Tracer()
            with tracer:
                r = run_round(workload, cli, tracer)
            return tracer, r

        traced = repeat_rounds(args.seconds, traced_round)
        report = per_layer(workload, base, traced)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for k, (tracer, _) in enumerate(traced):
            tracer.write(trace_dir / f"{name}-seed{args.seed}-round{k}.jsonl")
    else:
        rounds = repeat_rounds(args.seconds, lambda: run_round(workload, cli))
        report = untraced = end_to_end(workload, rounds, setup_times)

    failed = len(report.failures)
    print(f"# workload {name}: {workload.summary}")
    print(f"# run seed {args.seed}, workload seed {args.workload_seed}, "
          f"trace {args.trace}")
    if args.trace:
        print("# end to end, from the untraced round:")
    for metric, (value, unit) in untraced.metrics.items():
        print(f"{metric:32s} {value:14.6g} {unit:6s} {untraced.notes[metric]}")
    print(f"{'failed_ratio':32s} {failed / report.attempted:14.6g} {'ratio':6s} "
          f"{failed} of {report.attempted} instances")
    if args.trace:
        print("# per layer, one round:")
        for metric, (value, unit) in report.metrics.items():
            print(f"{metric:32s} {value:14.6g} {unit:6s} {report.notes[metric]}")
    for problem in report.failures[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in report.metrics.items()},
    }), flush=True)
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="desk-lbx, desk-marco-axp, desk-marco-cxp, "
                             "corpus-mixed or all")
    parser.add_argument("--seed", type=int, default=1,
                        help="run seed: permutes instance rows and calls")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=11,
                        help="generator seed of the instance population; "
                             "11 is the criterion-7 model and the "
                             "acceptance corpus")
    args = parser.parse_args(argv)
    if args.workload_seed < 0:
        parser.error("--workload-seed must be non-negative")
    import_program()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    ok = True
    for name in names:
        ok &= run_workload(name, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
