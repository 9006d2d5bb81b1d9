"""Decision-list data model and execution semantics.

A decision list is an ordered sequence of "IF antecedent THEN class" rules
over categorical features, closed by a default rule with an empty
antecedent.  The first rule whose antecedent is satisfied fires.  All types
here are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence


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


def allowed_values(term: Iterable[Literal], space: FeatureSpace, feature: int) -> set[int]:
    """Values of `feature` compatible with every literal of `term` on it."""
    allowed = set(range(space.domain_size(feature)))
    for lit in term:
        if lit.feature != feature:
            continue
        if lit.equal:
            allowed &= {lit.value}
        else:
            allowed.discard(lit.value)
    return allowed


def term_is_consistent(term: Iterable[Literal], space: FeatureSpace) -> bool:
    """True iff the conjunction of literals is satisfiable on its own."""
    term = tuple(term)
    for j in {l.feature for l in term}:
        if not allowed_values(term, space, j):
            return False
    return True


@dataclass(frozen=True)
class DecisionList:
    """An ordered rule list plus the trailing default rule.

    Rule order is positional: rule i is the (i+1)-th to be tried, and the
    default is assigned index len(rules).  Rules with an unsatisfiable
    antecedent are accepted but flagged (`consistent[i]` is False); they can
    never fire and encoders skip them.
    """

    space: FeatureSpace
    rules: tuple[Rule, ...]
    default: Rule
    consistent: tuple[bool, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.default.antecedent:
            raise InputError("the default rule must have an empty antecedent")
        for rule in (*self.rules, self.default):
            if not 0 <= rule.prediction < len(self.space.classes):
                raise InputError("rule predicts an unknown class")
            for lit in rule.antecedent:
                if not 0 <= lit.feature < self.space.num_features:
                    raise InputError(f"literal {lit} names an unknown feature")
                if not 0 <= lit.value < self.space.domain_size(lit.feature):
                    raise InputError(f"literal {lit} names an out-of-domain value")
        if self.rules and len(self.space.classes) < 2:
            raise InputError("non-trivial decision lists need at least 2 classes")
        object.__setattr__(
            self,
            "consistent",
            tuple(term_is_consistent(r.antecedent, self.space) for r in self.rules),
        )

    @property
    def num_rules(self) -> int:
        """Number of non-default rules."""
        return len(self.rules)

    @property
    def default_index(self) -> int:
        return len(self.rules)

    def rule_name(self, index: int) -> str:
        return "default" if index == self.default_index else f"R{index}"

    def rules_predicting(self, cls: int) -> list[int]:
        return [i for i, r in enumerate(self.rules) if r.prediction == cls]


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


def terms_consistent(
    a: Iterable[Literal], b: Iterable[Literal], space: FeatureSpace
) -> bool:
    """True iff the conjunction of both terms is satisfiable.

    Decided per feature on allowed-value sets; with categorical '!='
    literals a clash may need the whole domain excluded, not a
    complementary literal pair.
    """
    return term_is_consistent((*a, *b), space)


def is_self_determining(dl: DecisionList, i: int) -> bool:
    """True iff rule i clashes with every earlier rule's antecedent."""
    if not 0 <= i < len(dl.rules):
        raise InputError("self-determination is defined for non-default rules")
    me = dl.rules[i].antecedent
    return all(
        not terms_consistent(dl.rules[j].antecedent, me, dl.space)
        for j in range(i)
    )


def instance_literals(space: FeatureSpace, point: Sequence[int]) -> list[Literal]:
    """The '=' literals pinning every feature to its value, in feature
    order: the instance as a term."""
    space.validate_point(point)
    return [Literal(j, True, v) for j, v in enumerate(point)]
