"""Definition-level ground truth by exhaustive feature-space enumeration.

Everything here exists to verify the SAT-based machinery on desk-size
models, not to perform: explanations are checked against their defining
quantifiers over the whole feature space, and encodings against the
points their hard clauses should admit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import DecisionList, Instance, InputError
from .encoding import Encoding


class BoundExceeded(InputError):
    """The feature space is too large for exhaustive enumeration."""


DEFAULT_MAX_POINTS = 1_000_000
DEFAULT_MAX_FEATURES = 12


def _check_bounds(dl: DecisionList, max_points: int, max_features: int) -> None:
    if dl.space.num_features > max_features:
        raise BoundExceeded(
            f"{dl.space.num_features} features exceed the bound of {max_features}"
        )
    if dl.space.num_points > max_points:
        raise BoundExceeded(
            f"{dl.space.num_points} points exceed the bound of {max_points}"
        )


def _check_class(dl: DecisionList, target: int) -> None:
    if not 0 <= target < len(dl.space.classes):
        raise InputError(f"unknown class index {target}")


def _term_mask(term, shape) -> np.ndarray:
    """The points of the space, one axis per feature, where every literal
    of `term` holds."""
    m = len(shape)
    mask = np.ones(shape, dtype=bool)
    for lit in term:
        if not (0 <= lit.feature < m and 0 <= lit.value < shape[lit.feature]):
            raise InputError(f"literal {lit} lies outside the feature space")
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
        table[_term_mask(rule.antecedent, shape)] = rule.prediction
    return table


def rule_table(dl: DecisionList) -> np.ndarray:
    """Index of the firing rule per point (default = len(rules))."""
    space = dl.space
    shape = tuple(space.domain_size(j) for j in range(space.num_features))
    table = np.full(shape, dl.default_index, dtype=np.int32)
    for i in reversed(range(dl.num_rules)):
        table[_term_mask(dl.rules[i].antecedent, shape)] = i
    return table


def hard_model_points(dl: DecisionList, enc: Encoding) -> frozenset[tuple[int, ...]]:
    """Points whose definitional extension satisfies every hard clause of
    `enc`: t[k] is rule k's antecedent, p[n] "rule n fires" and q[n] "a
    chain rule up to n fires"."""
    space = dl.space
    shape = tuple(space.domain_size(j) for j in range(space.num_features))
    coords = np.indices(shape)
    fires = rule_table(dl)
    vm = enc.varmap
    vals = {var: coords[j] == v for (j, v), var in vm.b.items()}
    vals.update((var, _term_mask(dl.rules[k].antecedent, shape))
                for k, var in vm.t.items())
    fired = np.zeros(shape, dtype=bool)
    for n, var in vm.q.items():  # chain order
        vals[vm.p[n]] = fires == n
        fired = fired | vals[vm.p[n]]
        vals[var] = fired
    ok = np.ones(shape, dtype=bool)
    for cl in enc.hard:
        sat = np.zeros(shape, dtype=bool)
        for lit in cl:
            sat |= vals[lit] if lit > 0 else ~vals[-lit]
        ok &= sat
    return frozenset(tuple(map(int, p)) for p in np.argwhere(ok))


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


def check_duality(axps, cxps) -> bool:
    """True iff every set of `axps` is a minimal hitting set of `cxps` and
    every set of `cxps` one of `axps`, as all AXps and all CXps of one
    instance must be; the empty-collection convention pairs {{}} with the
    empty family."""
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
    _check_class(dl, target)
    return bool((class_table(dl) == target).any())


def bf_dlim(
    dl: DecisionList,
    term,
    target: int,
    max_points: int = DEFAULT_MAX_POINTS,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> bool:
    """Does the literal conjunction entail the target class everywhere?
    An inconsistent premise vacuously does."""
    _check_bounds(dl, max_points, max_features)
    _check_class(dl, target)
    table = class_table(dl)
    return bool((table[_term_mask(term, table.shape)] == target).all())
