"""Definition-level ground truth by exhaustive feature-space enumeration.

Everything here exists to verify the SAT-based machinery on desk-size
models, not to perform: explanations are checked against their defining
quantifiers over the whole feature space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DecisionList, Instance, allowed_values


class BoundExceeded(ValueError):
    """The feature space is too large for exhaustive enumeration."""


DEFAULT_MAX_POINTS = 1_000_000
DEFAULT_MAX_FEATURES = 12


@dataclass(frozen=True)
class ExplanationSets:
    """All abductive and all contrastive explanations of one instance."""

    axps: frozenset[frozenset[int]]
    cxps: frozenset[frozenset[int]]


def _check_bounds(dl: DecisionList, max_points: int, max_features: int) -> None:
    if dl.space.num_features > max_features:
        raise BoundExceeded(
            f"{dl.space.num_features} features exceed the bound of {max_features}"
        )
    if dl.space.num_points > max_points:
        raise BoundExceeded(
            f"{dl.space.num_points} points exceed the bound of {max_points}"
        )


def _rule_mask(dl: DecisionList, rule, shape) -> np.ndarray:
    m = dl.space.num_features
    mask = np.ones(shape, dtype=bool)
    for lit in rule.antecedent:
        ax = np.arange(shape[lit.feature]).reshape(
            [1] * lit.feature + [shape[lit.feature]] + [1] * (m - lit.feature - 1)
        )
        cond = ax == lit.value if lit.equal else ax != lit.value
        mask = mask & cond
    return mask


def class_table(dl: DecisionList) -> np.ndarray:
    """tau as an ndarray over the whole feature space, one axis per
    feature.  Later rules are painted first so earlier rules override:
    first-match semantics."""
    space = dl.space
    shape = tuple(space.domain_size(j) for j in range(space.num_features))
    table = np.full(shape, dl.default.prediction, dtype=np.int16)
    for rule in reversed(dl.rules):
        table[_rule_mask(dl, rule, shape)] = rule.prediction
    return table


def rule_table(dl: DecisionList) -> np.ndarray:
    """Index of the firing rule per point (default = len(rules))."""
    space = dl.space
    shape = tuple(space.domain_size(j) for j in range(space.num_features))
    table = np.full(shape, dl.default_index, dtype=np.int32)
    for i in reversed(range(dl.num_rules)):
        table[_rule_mask(dl, dl.rules[i], shape)] = i
    return table


def _region(table: np.ndarray, point, pinned) -> np.ndarray:
    """Sub-table over points agreeing with `point` on the pinned features."""
    index = tuple(
        point[j] if j in pinned else slice(None) for j in range(table.ndim)
    )
    return table[index]


def _minimal_sets(m: int, predicate) -> frozenset[frozenset[int]]:
    """Subset-minimal feature sets satisfying a monotone predicate,
    enumerated by ascending cardinality with superset pruning."""
    found: list[frozenset[int]] = []
    for r in range(m + 1):
        for comb in itertools.combinations(range(m), r):
            cand = frozenset(comb)
            if any(prev <= cand for prev in found):
                continue
            if predicate(cand):
                found.append(cand)
    return frozenset(found)


def bf_all_axps(
    dl: DecisionList,
    inst: Instance,
    max_points: int = DEFAULT_MAX_POINTS,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> frozenset[frozenset[int]]:
    """All subset-minimal feature sets whose pinning forces the prediction."""
    _check_bounds(dl, max_points, max_features)
    table = class_table(dl)
    c = int(table[tuple(inst.point)])

    def sufficient(pinned: frozenset[int]) -> bool:
        return bool((_region(table, inst.point, pinned) == c).all())

    return _minimal_sets(dl.space.num_features, sufficient)


def bf_all_cxps(
    dl: DecisionList,
    inst: Instance,
    max_points: int = DEFAULT_MAX_POINTS,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> frozenset[frozenset[int]]:
    """All subset-minimal feature sets whose release can flip the
    prediction."""
    _check_bounds(dl, max_points, max_features)
    table = class_table(dl)
    c = int(table[tuple(inst.point)])
    m = dl.space.num_features

    def escapes(released: frozenset[int]) -> bool:
        pinned = frozenset(range(m)) - released
        return bool((_region(table, inst.point, pinned) != c).any())

    return _minimal_sets(m, escapes)


def _is_minimal_hitting_set(hs: frozenset[int], sets) -> bool:
    if any(not (hs & s) for s in sets):
        return False
    return all(any(not ((hs - {e}) & s) for s in sets) for e in hs)


def check_duality(sets: ExplanationSets) -> bool:
    """Every AXp a minimal hitting set of the CXps and vice versa; the
    empty-collection convention pairs {{}} with the empty family."""
    axps, cxps = sets.axps, sets.cxps
    if not axps and not cxps:
        return True
    return all(_is_minimal_hitting_set(x, cxps) for x in axps) and all(
        _is_minimal_hitting_set(y, axps) for y in cxps
    )


def bf_dlsat(
    dl: DecisionList,
    target: int,
    max_points: int = DEFAULT_MAX_POINTS,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> bool:
    """Does any point classify as `target`?"""
    _check_bounds(dl, max_points, max_features)
    return bool((class_table(dl) == target).any())


def bf_dlim(
    dl: DecisionList,
    term,
    target: int,
    max_points: int = DEFAULT_MAX_POINTS,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> bool:
    """Does the literal conjunction entail the target class everywhere?"""
    _check_bounds(dl, max_points, max_features)
    term = tuple(term)
    table = class_table(dl)
    lists = []
    for j in range(dl.space.num_features):
        allowed = sorted(allowed_values(term, dl.space, j))
        if not allowed:
            return True  # inconsistent premise: vacuously an implicant
        lists.append(allowed)
    region = table[np.ix_(*lists)]
    return bool((region == target).all())
