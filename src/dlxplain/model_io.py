"""Parse and serialize decision lists, read instance CSVs, generate random
models.

Model text format (UTF-8, line oriented):

    # comment
    feature <name> : <v1>, <v2>, ...
    classes : <c1>, <c2>, ...
    rule : <name><op><value> [& <name><op><value>]* => <class>
    default => <class>

with <op> one of `=`, `!=`.  A keyword ends at whitespace, `:`, `=>` or
the end of its line.  Feature declaration order fixes the feature order;
the default line appears exactly once, last.
"""

from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass

from .core import (
    DecisionList,
    FeatureSpace,
    Instance,
    InputError,
    Literal,
    Rule,
)


class ParseError(ValueError):
    """Model or instance text that does not conform to the format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_LITERAL_RE = re.compile(r"^(?P<name>[^!=&]+?)\s*(?P<op>!?=)\s*(?P<value>.+)$")


def _split_decl(body: str, what: str, line: int) -> list[str]:
    items = [part.strip() for part in body.split(",")]
    if any(not part for part in items):
        raise ParseError(f"empty {what} name", line)
    return items


def parse_model(text: str) -> DecisionList:
    """Parse the decision-list text format into a validated DecisionList."""
    feature_names: list[str] = []
    domains: list[tuple[str, ...]] = []
    classes: list[str] | None = None
    rules: list[Rule] = []
    default: Rule | None = None
    space: FeatureSpace | None = None

    def build_space(line: int) -> FeatureSpace:
        nonlocal space
        if space is None:
            if classes is None:
                raise ParseError("missing 'classes' declaration", line)
            if not feature_names:
                raise ParseError("no feature declarations", line)
            space = FeatureSpace(tuple(feature_names), tuple(domains), tuple(classes))
        return space

    def parse_literal(token: str, line: int) -> Literal:
        sp = build_space(line)
        m = _LITERAL_RE.match(token.strip())
        if not m:
            raise ParseError(f"cannot parse literal {token.strip()!r}", line)
        j = sp.feature_index(m.group("name").strip())
        v = sp.value_index(j, m.group("value").strip())
        return Literal(j, m.group("op") == "=", v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if default is not None:
            raise ParseError("the default rule must be the last entry", lineno)
        # a keyword counts only as a whole word, ended by whitespace, ':',
        # '=>' or the line's end
        keyword = re.split(r"\s|:|=>", line, maxsplit=1)[0]
        try:
            if keyword == "feature":
                head, _, body = line.partition(":")
                name = head[len("feature"):].strip()
                if not name:
                    raise ParseError("feature declaration without a name", lineno)
                if name in feature_names:
                    raise ParseError(f"duplicate feature declaration {name!r}", lineno)
                if classes is not None or rules:
                    raise ParseError("feature declared after classes/rules", lineno)
                feature_names.append(name)
                domains.append(tuple(_split_decl(body, "value", lineno)))
            elif keyword == "classes":
                if classes is not None:
                    raise ParseError("duplicate classes declaration", lineno)
                _, _, body = line.partition(":")
                classes = _split_decl(body, "class", lineno)
            elif keyword == "rule":
                _, _, body = line.partition(":")
                lhs, sep, cls = body.partition("=>")
                if not sep:
                    raise ParseError("rule without '=>'", lineno)
                sp = build_space(lineno)
                lhs = lhs.strip()
                lits = [parse_literal(tok, lineno) for tok in lhs.split("&")] if lhs else []
                rules.append(Rule(tuple(lits), sp.class_index(cls.strip())))
            elif keyword == "default":
                _, sep, cls = line.partition("=>")
                if not sep:
                    raise ParseError("default without '=>'", lineno)
                sp = build_space(lineno)
                default = Rule((), sp.class_index(cls.strip()))
            else:
                raise ParseError(f"unrecognized line {line!r}", lineno)
        except InputError as exc:
            raise ParseError(str(exc), lineno) from exc

    if default is None:
        raise ParseError("missing default rule")
    return DecisionList(build_space(0), tuple(rules), default)


def _literal_text(space: FeatureSpace, lit: Literal) -> str:
    op = "=" if lit.equal else "!="
    return (
        f"{space.feature_names[lit.feature]}{op}"
        f"{space.domains[lit.feature][lit.value]}"
    )


def serialize_model(dl: DecisionList) -> str:
    """Canonical text form: rules in order, literals in feature order."""
    sp = dl.space
    out = io.StringIO()
    for name, dom in zip(sp.feature_names, sp.domains):
        out.write(f"feature {name} : {', '.join(dom)}\n")
    out.write(f"classes : {', '.join(sp.classes)}\n")
    for rule in dl.rules:
        lhs = " & ".join(_literal_text(sp, l) for l in rule.antecedent)
        out.write(f"rule : {lhs} => {sp.classes[rule.prediction]}\n")
    out.write(f"default => {sp.classes[dl.default.prediction]}\n")
    return out.getvalue()


def parse_instances(text: str, space: FeatureSpace) -> list[Instance]:
    """Read instances from CSV text.

    The header names every feature (any order) and may end with a `class`
    column carrying expected labels, where an empty cell means no label; a
    feature may itself be named `class`.  Values are matched as exact
    strings against the declared domain value names; no numeric coercion.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        return []
    header = [cell.strip() for cell in rows[0]]
    has_class = (header.count("class") > space.feature_names.count("class")
                 and header[-1] == "class")
    feat_cols = header[:-1] if has_class else header
    positions: dict[int, int] = {}
    for col, name in enumerate(feat_cols):
        j = space.feature_index(name)  # raises InputError on unknown names
        if j in positions:
            raise ParseError(f"feature column {name!r} repeated", 1)
        positions[j] = col
    missing = [
        space.feature_names[j]
        for j in range(space.num_features)
        if j not in positions
    ]
    if missing:
        raise ParseError(f"missing feature column(s): {', '.join(missing)}", 1)

    instances = []
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}", rownum
            )
        point = []
        for j in range(space.num_features):
            cell = row[positions[j]].strip()
            try:
                point.append(space.value_index(j, cell))
            except InputError as exc:
                raise ParseError(str(exc), rownum) from exc
        label = None
        if has_class and row[-1].strip():
            try:
                label = space.class_index(row[-1].strip())
            except InputError as exc:
                raise ParseError(str(exc), rownum) from exc
        instances.append(Instance(tuple(point), label))
    return instances


def serialize_instances(space: FeatureSpace, instances: list[Instance]) -> str:
    """CSV text for a batch of instances (inverse of parse_instances)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    with_class = any(inst.label is not None for inst in instances)
    header = list(space.feature_names) + (["class"] if with_class else [])
    writer.writerow(header)
    for inst in instances:
        row = [space.domains[j][v] for j, v in enumerate(inst.point)]
        if with_class:
            row.append(space.classes[inst.label] if inst.label is not None else "")
        writer.writerow(row)
    return out.getvalue()


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the random model generator."""

    seed: int
    num_features: int
    domain_size: int
    num_rules: int
    max_antecedent_len: int
    num_classes: int

    def __post_init__(self) -> None:
        for name in ("num_features", "domain_size", "num_rules",
                     "max_antecedent_len", "num_classes"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.max_antecedent_len > self.num_features:
            raise InputError("max_antecedent_len cannot exceed num_features")
        if self.seed < 0:
            raise InputError("seed must be non-negative")


def _generator_space(params: GeneratorParams) -> FeatureSpace:
    names = tuple(f"x{j + 1}" for j in range(params.num_features))
    dom = tuple(str(v) for v in range(params.domain_size))
    classes = tuple(f"c{k}" for k in range(params.num_classes))
    return FeatureSpace(names, (dom,) * params.num_features, classes)


def generate_random_dl(params: GeneratorParams) -> DecisionList:
    """Deterministically generate a random, always-consistent decision list.

    Each rule picks between 1 and max_antecedent_len distinct features; one
    literal per feature keeps the antecedent satisfiable.  Class labels
    cycle so every class appears.
    """
    rng = random.Random(params.seed)
    space = _generator_space(params)
    rules = []
    for i in range(params.num_rules):
        length = rng.randint(1, params.max_antecedent_len)
        feats = rng.sample(range(params.num_features), length)
        lits = []
        for j in feats:
            value = rng.randrange(params.domain_size)
            # '!=' needs a second domain value to stay satisfiable
            equal = params.domain_size < 2 or rng.random() < 0.7
            lits.append(Literal(j, equal, value))
        rules.append(Rule(tuple(lits), i % params.num_classes))
    default = Rule((), params.num_rules % params.num_classes)
    return DecisionList(space, tuple(rules), default)


def generate_random_instances(
    dl: DecisionList, count: int, seed: int
) -> list[Instance]:
    """Uniform random points of the model's feature space (deterministic)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        point = tuple(
            rng.randrange(dl.space.domain_size(j))
            for j in range(dl.space.num_features)
        )
        out.append(Instance(point))
    return out


def generate_restricted_dl(params: GeneratorParams) -> DecisionList:
    """Generate a decision list whose rules are pairwise inconsistent.

    Every rule pins the same backbone feature subset with '=' literals and
    any two rules of the same class differ on at least two backbone
    positions, so each rule's firing region is isolated from its
    same-class siblings.  The default predicts a class no rule uses when
    num_classes allows, making the whole list eligible for the polynomial
    explanation path.
    """
    if params.domain_size < 2:
        raise InputError("restricted generation needs domain_size >= 2")
    rng = random.Random(params.seed)
    space = _generator_space(params)
    backbone_len = min(params.max_antecedent_len, params.num_features)
    backbone = sorted(rng.sample(range(params.num_features), backbone_len))

    combos: list[tuple[int, ...]] = []
    classes_used = max(1, params.num_classes - 1)
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(combos) < params.num_rules and attempts < 50 * params.num_rules:
        attempts += 1
        combo = tuple(rng.randrange(params.domain_size) for _ in backbone)
        if combo in seen:
            continue
        cls = len(combos) % classes_used
        clash = any(
            sum(a != b for a, b in zip(combo, other)) < 2
            for k, other in enumerate(combos)
            if k % classes_used == cls
        )
        if clash:
            continue
        seen.add(combo)
        combos.append(combo)

    rules = tuple(
        Rule(
            tuple(Literal(j, True, v) for j, v in zip(backbone, combo)),
            i % classes_used,
        )
        for i, combo in enumerate(combos)
    )
    default_cls = params.num_classes - 1 if params.num_classes > 1 else 0
    return DecisionList(space, rules, Rule((), default_cls))
