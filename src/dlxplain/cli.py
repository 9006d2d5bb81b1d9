"""Command-line front end: classify, explain, encode, verify.

The engines return plain feature sets and enumeration reports; this module
alone shapes them into records.  Machine output is JSON lines with a stable
field order and lexicographically sorted explanations, so identical
configurations produce byte-identical output; the human format renders the
same records.  Wall-clock figures are only added under `explain --timing`,
to keep the default output reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from .bruteforce import (
    DEFAULT_MAX_FEATURES,
    DEFAULT_MAX_POINTS,
    bf_all_axps,
    bf_all_cxps,
    check_duality,
)
from .core import AXP, CXP, DecisionList, Instance, InputError, classify
from .encoding import (
    dump_dimacs,
    dump_wcnf,
    encode_alternative,
    encode_dlsat,
    encode_explanation_query,
)
from .enumeration import Explainer, enumerate_cxp_lbx, enumerate_marco
from .explain import load_encoding, one_axp, one_cxp
from .horn import NotRestricted, horn_axp
from .model_io import ParseError, parse_instances, parse_model
from .oracle import OracleTimeout

ONE_SHOT_MODES = ("one-axp", "one-cxp", "horn")
ENUM_MODES = ("enum-lbx", "enum-marco-axp", "enum-marco-cxp")


def _use_color(stream) -> bool:
    try:
        istty = stream.isatty()
    except (AttributeError, ValueError):
        istty = False
    return istty and not os.environ.get("DLX_NO_COLOR")


def _bold(text: str, stream) -> str:
    return f"\033[1m{text}\033[0m" if _use_color(stream) else text


def _emit(record: dict, args: argparse.Namespace, out=None) -> None:
    out = out if out is not None else sys.stdout
    if args.format == "json-lines":
        out.write(json.dumps(record, separators=(", ", ": ")) + "\n")
    else:
        parts = []
        for key, value in record.items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value, separators=(",", ":"))
            if key in ("class", "status", "kind"):
                value = _bold(str(value), out)
            parts.append(f"{key}={value}")
        out.write("  ".join(parts) + "\n")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def _load(args: argparse.Namespace) -> tuple[DecisionList, list[Instance]]:
    dl = parse_model(_read(args.model))
    return dl, parse_instances(_read(args.instances), dl.space)


def _feature_names(dl: DecisionList, feats) -> list[str]:
    return [dl.space.feature_names[j] for j in sorted(feats)]


def _point(dl: DecisionList, inst: Instance) -> list[str]:
    return [dl.space.domains[j][v] for j, v in enumerate(inst.point)]


def _check_budget(args: argparse.Namespace) -> None:
    if args.budget_s is not None and not args.budget_s > 0:
        raise InputError("--budget-s must be positive")


def _deadline(args: argparse.Namespace) -> float | None:
    return time.monotonic() + args.budget_s if args.budget_s else None


def _encoder(args: argparse.Namespace):
    if args.encoding == "alternative":
        return encode_alternative
    return encode_explanation_query


def cmd_classify(args: argparse.Namespace) -> int:
    dl, instances = _load(args)
    mismatches = 0
    labelled = 0
    for idx, inst in enumerate(instances):
        cls, rule = classify(dl, inst.point)
        record = {
            "instance": idx,
            "point": _point(dl, inst),
            "class": dl.space.classes[cls],
            "rule": dl.rule_name(rule),
        }
        if inst.label is not None:
            labelled += 1
            record["expected"] = dl.space.classes[inst.label]
            if inst.label != cls:
                mismatches += 1
                record["mismatch"] = True
        _emit(record, args)
    if labelled:
        _emit({"summary": "mismatches", "count": mismatches, "of": labelled}, args)
    return 0


def _one_shot_record(args, dl, idx, inst):
    record = {"instance": idx, "point": _point(dl, inst)}
    deadline = _deadline(args)
    kind = CXP if args.mode == "one-cxp" else AXP
    try:
        if args.mode == "horn":
            cls, _ = classify(dl, inst.point)
            record["class"] = dl.space.classes[cls]
            feats = horn_axp(dl, inst)
        else:
            enc = _encoder(args)(dl, inst)
            record["class"] = dl.space.classes[enc.pred_class]
            # a fresh session per instance: which explanation a one-shot
            # engine finds depends on solver state, and must not depend on
            # other rows
            session = load_encoding(enc)
            engine = one_axp if kind == AXP else one_cxp
            feats = engine(enc, session, deadline=deadline)
    except NotRestricted as exc:
        record["error"] = f"not-restricted: {exc}"
    except OracleTimeout:
        record["incomplete"] = True
    else:
        record["kind"] = kind
        if feats is None:
            record["features"] = None
            record["note"] = "no contrastive explanation exists"
        else:
            record["features"] = _feature_names(dl, feats)
    return record


def _enumerate(mode, enc, session, deadline):
    if mode == "enum-lbx":
        return enumerate_cxp_lbx(enc, session, deadline=deadline)
    target = AXP if mode == "enum-marco-axp" else CXP
    return enumerate_marco(enc, session, target, deadline=deadline)


def _enum_record(args, dl, idx, inst, explainer):
    deadline = _deadline(args)
    enc, session = explainer.query(inst)
    report = _enumerate(args.mode, enc, session, deadline)
    families = {"axps": report.axps, "cxps": report.cxps}
    return {
        "instance": idx,
        "point": _point(dl, inst),
        "class": dl.space.classes[enc.pred_class],
        "axps": [_feature_names(dl, x) for x in report.axps],
        "cxps": [_feature_names(dl, y) for y in report.cxps],
        "counts": {k: len(fam) for k, fam in families.items()},
        "avg_size": {k: sum(map(len, fam)) / len(fam) if fam else None
                     for k, fam in families.items()},
        "complete": report.complete,
    }


def cmd_explain(args: argparse.Namespace) -> int:
    _check_budget(args)
    if args.mode == "horn" and args.encoding != "main":
        raise InputError(f"--mode horn uses no encoding; "
                         f"drop --encoding {args.encoding}")
    dl, instances = _load(args)
    all_complete = True
    explainer = Explainer(dl, _encoder(args))
    for idx, inst in enumerate(instances):
        started = time.monotonic()
        if args.mode in ONE_SHOT_MODES:
            record = _one_shot_record(args, dl, idx, inst)
        else:
            record = _enum_record(args, dl, idx, inst, explainer)
        if args.timing:
            record["time"] = round(time.monotonic() - started, 3)
        # an enumeration record says whether it is complete, a one-shot
        # record only when it is not
        all_complete &= record.get("complete", "incomplete" not in record)
        _emit(record, args)
    if not all_complete and args.strict:
        return 3
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    if args.query == "dlsat" and args.encoding != "main":
        raise InputError(f"--query dlsat has only the main encoding; "
                         f"drop --encoding {args.encoding}")
    dl = parse_model(_read(args.model))
    out_dir = Path(args.out_dir)
    if args.query == "dlsat":
        # DL-SAT reads no instance, and nothing is written before the
        # target class is known to be valid
        if args.target_class is None:
            raise InputError("--target-class is required for dlsat")
        target = dl.space.class_index(args.target_class)
        vm, clauses = encode_dlsat(dl, target)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"dlsat_{args.target_class}.cnf"
        path.write_text(dump_dimacs(vm, clauses), encoding="utf-8")
        _emit({"file": path.name, "vars": vm.var_count,
               "clauses": len(clauses)}, args)
        return 0
    if args.instances is None:
        raise InputError("--instances is required for --query explain")
    instances = parse_instances(_read(args.instances), dl.space)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, inst in enumerate(instances):
        enc = _encoder(args)(dl, inst)
        path = out_dir / f"inst{idx:04d}.wcnf"
        path.write_text(dump_wcnf(enc), encoding="utf-8")
        _emit({
            "file": path.name,
            "vars": enc.varmap.var_count,
            "hard": len(enc.hard),
            "soft": len(enc.soft),
        }, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_budget(args)
    dl, instances = _load(args)
    bounds = dict(max_points=args.bf_max_points,
                  max_features=args.bf_max_features)
    failures = budget_runs = 0
    explainer = Explainer(dl, encode_explanation_query)
    for idx, inst in enumerate(instances):
        expected_x = bf_all_axps(dl, inst, **bounds)
        expected_y = bf_all_cxps(dl, inst, **bounds)
        enc, session = explainer.query(inst)
        results = {}
        incomplete = []
        for run in ("marco-axp", "marco-cxp", "lbx"):
            report = _enumerate(f"enum-{run}", enc, session, _deadline(args))
            axps = None if run == "lbx" else set(report.axps)
            results[run] = (axps, set(report.cxps))
            if not report.complete:
                incomplete.append(run)

        ok = check_duality(expected_x, expected_y)
        problems = [] if ok else ["duality violated on brute-force sets"]
        for mode, (axps, cxps) in results.items():
            # a run cut short by the budget must still report only true
            # explanations, but may miss some
            agree = set.issubset if mode in incomplete else set.__eq__
            if axps is not None and not agree(axps, set(expected_x)):
                problems.append(f"{mode} axps diverge")
            if not agree(cxps, set(expected_y)):
                problems.append(f"{mode} cxps diverge")
        status = "mismatch" if problems else \
            "incomplete" if incomplete else "ok"
        record = {
            "instance": idx,
            "point": _point(dl, inst),
            "status": status,
        }
        if incomplete:
            record["incomplete"] = incomplete
            budget_runs += 1
        if problems:
            failures += 1
            record["problems"] = problems
            record["expected_axps"] = [sorted(x) for x in sorted(expected_x, key=sorted)]
            record["expected_cxps"] = [sorted(y) for y in sorted(expected_y, key=sorted)]
            record["got"] = {
                mode: {
                    "axps": None if axps is None else [sorted(x) for x in sorted(axps, key=sorted)],
                    "cxps": [sorted(y) for y in sorted(cxps, key=sorted)],
                }
                for mode, (axps, cxps) in results.items()
            }
        _emit(record, args)
    return 1 if failures else 3 if budget_runs else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: building it
    costs more than a whole parse."""
    parser = argparse.ArgumentParser(
        prog="dlxplain",
        description="Rigorous explanations for decision-list classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instances_required=True):
        p.add_argument("--model", required=True, help="decision-list model file")
        p.add_argument("--instances", required=instances_required,
                       help="instance CSV file")
        p.add_argument("--format", choices=("human", "json-lines"),
                       default="human")

    def budget(p):
        p.add_argument("--budget-s", type=float, default=None,
                       help="per-instance time budget in seconds")

    p = sub.add_parser("classify", help="classify instances")
    common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("explain", help="compute or enumerate explanations")
    common(p)
    budget(p)
    p.add_argument("--timing", action="store_true",
                   help="add each record's wall-clock seconds as its time")
    p.add_argument("--mode", choices=ONE_SHOT_MODES + ENUM_MODES,
                   default="enum-marco-axp")
    p.add_argument("--encoding", choices=("main", "alternative"), default="main")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any instance ran out of budget")
    p.set_defaults(handler=cmd_explain)

    p = sub.add_parser("encode", help="export CNF/WCNF encodings")
    common(p, instances_required=False)
    p.add_argument("--encoding", choices=("main", "alternative"), default="main")
    p.add_argument("--query", choices=("explain", "dlsat"), default="explain")
    p.add_argument("--target-class", default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("verify", help="cross-check enumeration against "
                                      "exhaustive ground truth")
    common(p)
    budget(p)
    p.add_argument("--bf-max-points", type=int, default=DEFAULT_MAX_POINTS)
    p.add_argument("--bf-max-features", type=int,
                   default=DEFAULT_MAX_FEATURES)
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
