"""Decision-list data model and execution semantics.

A decision list is an ordered sequence of "IF antecedent THEN class" rules
over categorical features, closed by a default rule with an empty
antecedent.  The first rule whose antecedent is satisfied fires.  All types
here are immutable after construction and all operations are pure; a
list's live rules are computed on first use, with the SAT oracle where
box comparisons do not decide them, and cached on the list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .oracle import OracleSession


class InputError(ValueError):
    """A point, literal or rule refers to values outside the feature space."""


AXP = "axp"
CXP = "cxp"


@dataclass(frozen=True, order=True)
class Literal:
    """A feature literal: `x_j = value` (equal=True) or `x_j != value`."""

    feature: int
    equal: bool
    value: int

    def holds(self, point: Sequence[int]) -> bool:
        if self.equal:
            return point[self.feature] == self.value
        return point[self.feature] != self.value

    def __str__(self) -> str:
        op = "=" if self.equal else "!="
        return f"x{self.feature + 1}{op}{self.value}"


@dataclass(frozen=True)
class FeatureSpace:
    """Feature names, per-feature categorical domains and class labels."""

    feature_names: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.feature_names) != len(self.domains):
            raise InputError("feature_names and domains must align")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise InputError("feature names must be unique")
        for name, dom in zip(self.feature_names, self.domains):
            if not dom:
                raise InputError(f"feature {name!r} has an empty domain")
            if len(set(dom)) != len(dom):
                raise InputError(f"feature {name!r} has duplicate values")
        if len(set(self.classes)) != len(self.classes):
            raise InputError("class names must be unique")
        if not self.classes:
            raise InputError("at least one class is required")

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    def domain_size(self, feature: int) -> int:
        return len(self.domains[feature])

    @property
    def num_points(self) -> int:
        n = 1
        for dom in self.domains:
            n *= len(dom)
        return n

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise InputError(f"unknown feature {name!r}") from None

    def value_index(self, feature: int, name: str) -> int:
        try:
            return self.domains[feature].index(name)
        except ValueError:
            raise InputError(
                f"unknown value {name!r} for feature "
                f"{self.feature_names[feature]!r}"
            ) from None

    def class_index(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise InputError(f"unknown class {name!r}") from None

    def points(self) -> Iterable[tuple[int, ...]]:
        """Enumerate the whole feature space in mixed-radix order."""
        return itertools.product(*(range(len(d)) for d in self.domains))

    def validate_point(self, point: Sequence[int]) -> None:
        if len(point) != self.num_features:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.num_features}"
            )
        for j, v in enumerate(point):
            if not 0 <= v < len(self.domains[j]):
                raise InputError(
                    f"value index {v} outside the domain of feature "
                    f"{self.feature_names[j]!r}"
                )


def _canonical_antecedent(literals: Iterable[Literal]) -> tuple[Literal, ...]:
    # canonical order: by feature, '=' before '!=', then value
    return tuple(sorted(literals, key=lambda l: (l.feature, not l.equal, l.value)))


@dataclass(frozen=True)
class Rule:
    """One rule; the antecedent is kept in canonical literal order."""

    antecedent: tuple[Literal, ...]
    prediction: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "antecedent", _canonical_antecedent(self.antecedent)
        )
        if len(set(self.antecedent)) != len(self.antecedent):
            raise InputError("duplicate literal in antecedent")
        eq_feats = [l.feature for l in self.antecedent if l.equal]
        if len(set(eq_feats)) != len(eq_feats):
            raise InputError("more than one '=' literal on the same feature")

    @property
    def features(self) -> frozenset[int]:
        return frozenset(l.feature for l in self.antecedent)


@dataclass(frozen=True)
class DecisionList:
    """An ordered rule list plus the trailing default rule.

    Rule order is positional: rule i is the (i+1)-th to be tried, and the
    default is assigned index len(rules).  Each rule is compiled once into
    its box: per feature its antecedent constrains, the bitmask of the
    values it allows.  Rules with an unsatisfiable antecedent are accepted
    but flagged (`boxes[i]` is None, `consistent[i]` is False); they can
    never fire.  `live_rules`, computed on first use, lists the rules that
    fire first on some point, and the encoders encode only those.  The
    boxes are the one place where literals become allowed values:
    `consistent`, `live_rules`, `is_self_determining` and the `horn` path
    all read them.
    """

    space: FeatureSpace
    rules: tuple[Rule, ...]
    default: Rule
    boxes: tuple[dict[int, int] | None, ...] = field(
        init=False, compare=False, repr=False)
    consistent: tuple[bool, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.default.antecedent:
            raise InputError("the default rule must have an empty antecedent")
        num_classes = len(self.space.classes)
        full = [(1 << len(dom)) - 1 for dom in self.space.domains]
        boxes = []
        for rule in self.rules:
            if not 0 <= rule.prediction < num_classes:
                raise InputError("rule predicts an unknown class")
            box: dict[int, int] = {}
            for lit in rule.antecedent:
                if not 0 <= lit.feature < len(full):
                    raise InputError(f"literal {lit} names an unknown feature")
                if not 0 <= lit.value < len(self.space.domains[lit.feature]):
                    raise InputError(f"literal {lit} names an out-of-domain value")
                bit = 1 << lit.value
                mask = box.get(lit.feature, full[lit.feature])
                box[lit.feature] = mask & bit if lit.equal else mask & ~bit
            boxes.append(box if all(box.values()) else None)
        if not 0 <= self.default.prediction < num_classes:
            raise InputError("rule predicts an unknown class")
        if self.rules and num_classes < 2:
            raise InputError("non-trivial decision lists need at least 2 classes")
        object.__setattr__(self, "boxes", tuple(boxes))
        object.__setattr__(
            self, "consistent", tuple(box is not None for box in boxes))

    @cached_property
    def live_rules(self) -> tuple[int, ...]:
        """Indices of the rules that fire first on some point, in list
        order.  The function the list computes is the same with every
        other rule deleted."""
        return _live_rules(self)

    @property
    def num_rules(self) -> int:
        """Number of non-default rules."""
        return len(self.rules)

    @property
    def default_index(self) -> int:
        return len(self.rules)

    def rule_name(self, index: int) -> str:
        return "default" if index == self.default_index else f"R{index}"


@dataclass(frozen=True)
class Instance:
    """A full point of the feature space, optionally with an expected label."""

    point: tuple[int, ...]
    label: int | None = None


def eval_term(term: Iterable[Literal], point: Sequence[int]) -> bool:
    """True iff every literal of the term holds; the empty term holds."""
    return all(lit.holds(point) for lit in term)


def classify(dl: DecisionList, point: Sequence[int]) -> tuple[int, int]:
    """Return (class, firing rule index); the default always matches."""
    dl.space.validate_point(point)
    for i, rule in enumerate(dl.rules):
        if eval_term(rule.antecedent, point):
            return rule.prediction, i
    return dl.default.prediction, dl.default_index


def is_self_determining(dl: DecisionList, i: int) -> bool:
    """True iff rule i clashes with every earlier rule's antecedent: its
    box is empty or meets no earlier box."""
    if not 0 <= i < len(dl.rules):
        raise InputError("self-determination is defined for non-default rules")
    me = dl.boxes[i]
    return me is None or not any(
        box is not None and _meets(me, box) for box in dl.boxes[:i])


# boxes a live-rule split may visit before a SAT call decides the rule;
# 64 decides every rule of the acceptance corpus without a session, and
# caps a split that grows exponentially on desk-scale lists
ESCAPE_BUDGET = 64


def _meets(a: dict[int, int], b: dict[int, int]) -> bool:
    """True iff two boxes share a point; a feature a box leaves out
    allows every value.  (Plain loops: these run on every CLI call.)"""
    for f, mask in a.items():
        if not mask & b.get(f, -1):
            return False
    return True


def _inside(a: dict[int, int], b: dict[int, int], full) -> bool:
    """True iff box a lies inside box b."""
    for f, mask in b.items():
        if a.get(f, full[f]) & ~mask:
            return False
    return True


def _escapes(box: dict[int, int], others, full, budget: int) -> bool | None:
    """Whether some point of `box` lies in none of `others`, by depth-first
    splitting: narrow `box` out of the first box of `others` that it still
    meets, on each feature where it can leave that box in turn, the first
    feature first.  None when `budget` boxes leave the question open."""
    stack = [(box, 0)]
    while stack:
        budget -= 1
        if budget < 0:
            return None
        box, i = stack.pop()
        while i < len(others) and not _meets(box, others[i]):
            i += 1
        if i == len(others):
            return True
        for f, mask in reversed(others[i].items()):
            rest = box.get(f, full[f]) & ~mask
            if rest:
                stack.append(({**box, f: rest}, i + 1))
    return False


def _live_rules(dl: DecisionList) -> tuple[int, ...]:
    """The rules that fire first on some point.  Each consistent rule's
    box is compared, in list order, with the boxes of the live rules
    before it that it meets: it is dead when it lies inside one of them,
    and otherwise a budgeted split looks for a point of it that lies in
    none.  Only a rule the split leaves open costs a SAT call, on one
    session built on first need, whose models are the points that no live
    rule so far holds on.  Once it has none, every later rule is dead."""
    domains = dl.space.domains
    full = [(1 << len(dom)) - 1 for dom in domains]
    # variable first[f] + v says that feature f takes value v
    first = list(itertools.accumulate(map(len, domains), initial=1))

    def outside(box):
        # one of these holds iff the point lies outside the box
        return [first[f] + v for f, mask in box.items()
                for v in range(len(domains[f])) if not mask >> v & 1]

    live: list[int] = []
    session = None
    for k, box in enumerate(dl.boxes):
        if box is None:
            continue
        met = [dl.boxes[j] for j in live if _meets(box, dl.boxes[j])]
        if any(_inside(box, other, full) for other in met):
            continue
        live_here = _escapes(box, met, full, ESCAPE_BUDGET)
        if live_here is None:
            if session is None:
                session = OracleSession(first[-1] - 1)
                for f in range(len(domains)):
                    values = range(first[f], first[f + 1])
                    session.add_clause(values)
                    for u, w in itertools.combinations(values, 2):
                        session.add_clause([-u, -w])
                for j in live:
                    session.add_clause(outside(dl.boxes[j]))
            live_here = session.solve([-var for var in outside(box)]).sat
            if not live_here and not session.solve().sat:
                break
        if not live_here:
            continue
        live.append(k)
        if session is not None:
            session.add_clause(outside(box))
    return tuple(live)

