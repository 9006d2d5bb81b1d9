"""Propositional encodings of decision-list queries.

The explanation query for an instance v with prediction c is an
unsatisfiable pair (hard, soft): the hard clauses say "no rule predicting c
fires first" (a misclassification, impossible while v is pinned), and the
soft clauses are the instance literals, one unit per feature.  AXps are
then MUSes and CXps are MCSes of the pair.

Both encoders encode only the live rules, those that fire first on some
point (`DecisionList.live_rules`, computed once per model).  An AXp or a
CXp depends only on the function the list computes (Ignatiev, Narodytska
& Marques-Silva, AAAI 2019), and deleting a rule that never fires first
leaves that function as it is; inconsistent rules are never live.

Feature values use one boolean per (feature, value) with an at-least-one
clause plus pairwise at-most-one clauses.  "No rule of a banned class fires
first" only needs "every banned rule that holds has an earlier rule of
another class that holds", so it is polarity-reduced (Plaisted &
Greenbaum, JSC 1986): other-class rules occur only positively and get the
one direction t -> antecedent, and banned rules get no variable at all.
The explanation query bans the predicted class, and DL-SAT is the same
query with every class but the target banned.  Only the sequential
encoding keeps biconditional definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import DecisionList, Instance, InputError, classify


class MultiClassUnsupported(InputError):
    """The sequential encoding only covers binary classification."""


@dataclass
class VarMap:
    """Roles of the propositional variables, allocated contiguously from 1.

    b[(j, v)]  feature j takes value v
    t[k]       antecedent of live rule k holds; the reduced queries
               give one only to rules of a class they do not ban, and
               there it only implies the antecedent
    p[k], q[k] "rule k fires the predicted class" / "fired at or before k"
               (sequential encoding)
    """

    b: dict[tuple[int, int], int] = field(default_factory=dict)
    t: dict[int, int] = field(default_factory=dict)
    p: dict[int, int] = field(default_factory=dict)
    q: dict[int, int] = field(default_factory=dict)
    var_count: int = 0

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count


@dataclass
class Encoding:
    """Hard clauses for a predicted class, the instance point they are
    asked about, and the point's soft unit literals, one per feature in
    feature order (derived from the point, never passed in).  `prefer`
    is the whole point as literals: the softs, then every other value's
    variable negated."""

    varmap: VarMap
    hard: list[list[int]]
    pred_class: int
    point: tuple[int, ...]
    soft: list[int] = field(init=False)
    prefer: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.soft = [self.varmap.b[(j, v)] for j, v in enumerate(self.point)]
        self.prefer = self.soft + [-var for (j, v), var in self.varmap.b.items()
                                   if v != self.point[j]]


def _alloc_feature_vars(dl: DecisionList, vm: VarMap) -> None:
    for j in range(dl.space.num_features):
        for v in range(dl.space.domain_size(j)):
            vm.b[(j, v)] = vm.new_var()


def _exactly_one_clauses(dl: DecisionList, vm: VarMap) -> list[list[int]]:
    out = []
    for j in range(dl.space.num_features):
        dom = range(dl.space.domain_size(j))
        out.append([vm.b[(j, v)] for v in dom])
        for u in dom:
            for w in dom:
                if u < w:
                    out.append([-vm.b[(j, u)], -vm.b[(j, w)]])
    return out


def _literal_var(vm: VarMap, feature: int, equal: bool, value: int) -> int:
    var = vm.b[(feature, value)]
    return var if equal else -var


def _antecedent_lits(vm: VarMap, rule) -> list[int]:
    return [_literal_var(vm, l.feature, l.equal, l.value) for l in rule.antecedent]


def _define(var: int, conj: list[int], hard: list[list[int]]) -> None:
    """Biconditional var <-> AND(conj); an empty conj yields a unit."""
    hard.extend([-var, lit] for lit in conj)
    hard.append([var] + [-lit for lit in conj])


def _forbid(dl: DecisionList, banned: set[int]) -> tuple[VarMap, list[list[int]]]:
    """Clauses whose models are the points where no rule predicting a
    class in `banned` fires first.

    t[k] exists only for live rules of the other classes and implies
    their antecedent.  A live banned rule becomes the one clause "its
    antecedent fails, or an earlier t holds"; a banned default becomes
    "some t holds", which is implied when the live rules cover the
    space."""
    vm = VarMap()
    _alloc_feature_vars(dl, vm)
    for k in dl.live_rules:
        if dl.rules[k].prediction not in banned:
            vm.t[k] = vm.new_var()

    hard = _exactly_one_clauses(dl, vm)
    for k, var in vm.t.items():
        hard.extend([-var, lit] for lit in _antecedent_lits(vm, dl.rules[k]))
    for k in dl.live_rules:
        rule = dl.rules[k]
        if rule.prediction in banned:
            hard.append([-lit for lit in _antecedent_lits(vm, rule)]
                        + [var for j, var in vm.t.items() if j < k])
    if dl.default.prediction in banned:
        hard.append(list(vm.t.values()))
    return vm, hard


def encode_explanation_query(dl: DecisionList, inst: Instance) -> Encoding:
    """Hard clauses forbidding every rule of the predicted class from
    firing first, soft units pinning the instance; hard AND soft is
    unsatisfiable."""
    c, _ = classify(dl, inst.point)
    vm, hard = _forbid(dl, {c})
    return Encoding(vm, hard, c, inst.point)


def _sequential_plan(dl: DecisionList, pred: int) -> tuple[list[int], list[int]]:
    """Rule indices for the sequential encoding: same-class live rules
    (the default joins them when it matches), other live rules."""
    same = [k for k in dl.live_rules if dl.rules[k].prediction == pred]
    others = [k for k in dl.live_rules if dl.rules[k].prediction != pred]
    if dl.default.prediction == pred:
        same.append(dl.default_index)
    return same, others


def encode_alternative(dl: DecisionList, inst: Instance) -> Encoding:
    """Sequential (chained) encoding of the same query, binary classes only.

    t[k] <-> antecedent for every live rule.  p[n_r] holds iff rule
    n_r is the first rule firing the predicted class: no earlier same-class
    rule fired, its own antecedent holds, and no preceding other-class rule
    holds.  The final hard unit forbids q of the last same-class rule,
    i.e. demands misclassification, mirroring the main encoding.
    """
    if len(dl.space.classes) != 2:
        raise MultiClassUnsupported(
            "the sequential encoding handles binary models only; "
            f"this one has {len(dl.space.classes)} classes"
        )
    c, _ = classify(dl, inst.point)
    chain, others = _sequential_plan(dl, c)

    vm = VarMap()
    _alloc_feature_vars(dl, vm)
    for k in dl.live_rules:
        vm.t[k] = vm.new_var()
    for n in chain:
        vm.p[n] = vm.new_var()
        vm.q[n] = vm.new_var()

    hard = _exactly_one_clauses(dl, vm)
    for k, var in vm.t.items():
        _define(var, _antecedent_lits(vm, dl.rules[k]), hard)

    prev_q: int | None = None
    for n in chain:
        conj = []
        if prev_q is not None:
            conj.append(-prev_q)
        if n != dl.default_index:
            conj.append(vm.t[n])
        # no other-class rule listed before n may hold
        conj.extend(-vm.t[k] for k in others if k < n)
        _define(vm.p[n], conj, hard)
        pv, qv = vm.p[n], vm.q[n]
        if prev_q is None:
            hard.append([-qv, pv])
            hard.append([qv, -pv])
        else:
            hard.append([-qv, prev_q, pv])
            hard.append([qv, -prev_q])
            hard.append([qv, -pv])
        prev_q = qv
    hard.append([-prev_q])

    return Encoding(vm, hard, c, inst.point)


def encode_dlsat(dl: DecisionList, target: int) -> tuple[VarMap, list[list[int]]]:
    """Clauses satisfiable iff some point classifies as `target`: the
    reduced query with every other class banned."""
    if not 0 <= target < len(dl.space.classes):
        raise ValueError(f"unknown class index {target}")
    return _forbid(dl, set(range(len(dl.space.classes))) - {target})


def dump_dimacs(varmap: VarMap, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {varmap.var_count} {len(clauses)}"]
    for cl in clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def dump_wcnf(enc: Encoding) -> str:
    top = len(enc.soft) + 1
    count = len(enc.hard) + len(enc.soft)
    lines = [f"p wcnf {enc.varmap.var_count} {count} {top}"]
    for cl in enc.hard:
        lines.append(f"{top} " + " ".join(map(str, cl)) + " 0")
    for lit in enc.soft:
        lines.append(f"1 {lit} 0")
    return "\n".join(lines) + "\n"
