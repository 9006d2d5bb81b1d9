"""Polynomial abductive explanations for decision lists whose rules are
consistent and pairwise inconsistent (each rule clashes with every earlier
one).

In such a list every antecedent is a box, the rule's compiled
`DecisionList.boxes` entry (per constrained feature, a bitmask of the
values it allows), and the boxes are disjoint.  So whether pinning a
feature set to the instance's point keeps its class is a count: a rule
fires on as many points of the pinned box as the product of its
per-feature shares.  One deletion loop over the features then yields a
minimal AXp, with one such check per feature and no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .core import (
    DecisionList, Instance, _meets, classify, is_self_determining,
)


class NotRestricted(ValueError):
    """The model is outside the polynomial class."""


def check_restricted(dl: DecisionList, strict: bool = True) -> bool:
    """Eligibility for the polynomial path.

    Always requires every non-default rule to be self-consistent and
    inconsistent with all of its predecessors, which is all the path needs.
    Strict mode additionally requires the default to predict a class no
    other rule predicts.
    """
    if not all(dl.consistent):
        return False
    if not all(is_self_determining(dl, i) for i in range(dl.num_rules)):
        return False
    if strict:
        used = {r.prediction for r in dl.rules}
        if dl.default.prediction in used:
            return False
    return True


@dataclass
class HornQuery:
    """Exact sufficiency check for one instance by counting over boxes.

    `boxes` pairs each rule's box (`DecisionList.boxes`: per constrained
    feature, the bitmask of its allowed values) with whether the rule
    predicts the instance's class.  checks_used counts calls of
    `sufficient`.
    """

    point: tuple[int, ...]
    sizes: tuple[int, ...]
    boxes: list[tuple[bool, dict[int, int]]]
    default_agrees: bool
    checks_used: int = 0

    def _share(self, box: dict[int, int], pinned: set[int], free: int) -> int:
        # points of the pinned box, `free` of them, inside this rule's box
        for j, mask in box.items():
            if j not in pinned:
                free = free // self.sizes[j] * mask.bit_count()
            elif not mask >> self.point[j] & 1:
                return 0
        return free

    def sufficient(self, pinned: set[int]) -> bool:
        """True iff every point agreeing with the instance on `pinned`
        gets the instance's class."""
        self.checks_used += 1
        if self.default_agrees:
            # no rule of another class may meet the pinned box
            at = {j: 1 << self.point[j] for j in pinned}
            return not any(_meets(b, at) for same, b in self.boxes if not same)
        # the class's boxes are disjoint, so they cover the pinned box
        # exactly when their shares add up to its size
        free = prod(n for j, n in enumerate(self.sizes) if j not in pinned)
        return sum(self._share(b, pinned, free)
                   for same, b in self.boxes if same) == free


def horn_axp(dl: DecisionList, inst: Instance) -> frozenset[int]:
    """One minimal abductive explanation, found without search."""
    axp, _ = horn_axp_detailed(dl, inst)
    return axp


def horn_axp_detailed(
    dl: DecisionList, inst: Instance
) -> tuple[frozenset[int], HornQuery]:
    """Like horn_axp but also returns the query, whose checks_used field
    certifies the budget of one check per feature.

    Features outside the firing rule are offered for deletion first, then
    the firing rule's own, each largest index first: while the firing
    antecedent stays pinned the point stays in its box, so the answer is
    that antecedent whenever the antecedent is itself minimal.
    """
    if not check_restricted(dl, strict=False):
        raise NotRestricted(
            "a rule is inconsistent or overlaps an earlier rule"
        )
    c, k = classify(dl, inst.point)
    m = dl.space.num_features
    boxes = [(r.prediction == c, box) for r, box in zip(dl.rules, dl.boxes)]
    query = HornQuery(inst.point, tuple(map(len, dl.space.domains)),
                      boxes, dl.default.prediction == c)
    firing = (*dl.rules, dl.default)[k].features
    pinned = set(range(m))
    for j in sorted(range(m), key=lambda j: (j in firing, -j)):
        pinned.discard(j)
        if not query.sufficient(pinned):
            pinned.add(j)
    return frozenset(pinned), query
