"""Propositional encodings of decision-list queries.

The explanation query for an instance v with prediction c is an
unsatisfiable pair (hard, soft): the hard clauses say "no rule predicting c
fires first" (a misclassification, impossible while v is pinned), and the
soft clauses are the instance literals, one unit per feature.  AXps are
then MUSes and CXps are MCSes of the pair.

Feature values use one boolean per (feature, value) with an at-least-one
clause plus pairwise at-most-one clauses.  The explanation query only needs
"every rule of class c that holds has an earlier rule of another class
that holds", so it is polarity-reduced (Plaisted & Greenbaum, JSC 1986):
other-class rules occur only positively and get the one direction
t -> antecedent, same-class rules get no variable at all, and inconsistent
rules drop out.  The hard clauses depend only on the predicted class.  The
sequential and DL-SAT encodings keep full biconditional definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DecisionList, Instance, classify


class MultiClassUnsupported(ValueError):
    """The sequential encoding only covers binary classification."""


@dataclass
class VarMap:
    """Roles of the propositional variables, allocated contiguously from 1.

    b[(j, v)]  feature j takes value v
    t[k]       antecedent of rule k holds (dlsat encoding); in the main
               encoding only other-class consistent rules get one, and it
               only implies the antecedent
    s[k]       antecedent of rule k holds (sequential encoding)
    p[k], q[k] "rule k fires the predicted class" / "fired at or before k"
    fire[k]    rule k is the first to fire (dlsat encoding)
    """

    b: dict[tuple[int, int], int] = field(default_factory=dict)
    t: dict[int, int] = field(default_factory=dict)
    s: dict[int, int] = field(default_factory=dict)
    p: dict[int, int] = field(default_factory=dict)
    q: dict[int, int] = field(default_factory=dict)
    fire: dict[int, int] = field(default_factory=dict)
    var_count: int = 0

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count


@dataclass
class Encoding:
    """Hard clauses for a predicted class, the instance point they are
    asked about, and the point's soft unit literals, one per feature in
    feature order (derived from the point, never passed in)."""

    varmap: VarMap
    hard: list[list[int]]
    dl: DecisionList
    pred_class: int
    point: tuple[int, ...]
    soft: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.soft = [self.varmap.b[(j, v)] for j, v in enumerate(self.point)]


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


def _define_term(vm: VarMap, var: int, rule, hard: list[list[int]]) -> None:
    """Biconditional var <-> antecedent; an empty antecedent yields a unit."""
    lits = _antecedent_lits(vm, rule)
    for lit in lits:
        hard.append([-var, lit])
    hard.append([var] + [-lit for lit in lits])


def _rule_definitions(
    dl: DecisionList, vm: VarMap, which: dict[int, int], hard: list[list[int]]
) -> None:
    for k, var in which.items():
        if dl.consistent[k]:
            _define_term(vm, var, dl.rules[k], hard)
        else:
            hard.append([-var])  # unsatisfiable antecedent: rule never holds


def encode_explanation_query(dl: DecisionList, inst: Instance) -> Encoding:
    """Hard clauses forbidding every same-class rule from firing first,
    soft units pinning the instance; hard AND soft is unsatisfiable.

    t[k] exists only for consistent rules of another class and implies
    their antecedent.  A consistent same-class rule becomes the one clause
    "its antecedent fails, or an earlier other-class rule holds"."""
    c, _ = classify(dl, inst.point)
    vm = VarMap()
    _alloc_feature_vars(dl, vm)
    for k in range(dl.num_rules):
        if dl.consistent[k] and dl.rules[k].prediction != c:
            vm.t[k] = vm.new_var()

    hard = _exactly_one_clauses(dl, vm)
    for k, var in vm.t.items():
        hard.extend([-var, lit] for lit in _antecedent_lits(vm, dl.rules[k]))
    for k in dl.rules_predicting(c):
        if dl.consistent[k]:
            hard.append([-lit for lit in _antecedent_lits(vm, dl.rules[k])]
                        + [var for j, var in vm.t.items() if j < k])
    if dl.default.prediction == c:
        # the default must not fire: some other-class rule must hold
        hard.append(list(vm.t.values()))

    return Encoding(vm, hard, dl, c, inst.point)


def _sequential_plan(dl: DecisionList, pred: int):
    """Rule indices for the sequential encoding: same-class consistent rules
    (the default joins them when it matches), other consistent rules."""
    same = [k for k in dl.rules_predicting(pred) if dl.consistent[k]]
    others = [
        k for k in range(dl.num_rules)
        if dl.rules[k].prediction != pred and dl.consistent[k]
    ]
    default_included = dl.default.prediction == pred
    if default_included:
        same.append(dl.default_index)
    return same, others, default_included


def encode_alternative(dl: DecisionList, inst: Instance) -> Encoding:
    """Sequential (chained) encoding of the same query, binary classes only.

    p[n_r] holds iff rule n_r is the first rule firing the predicted class:
    no earlier same-class rule fired, its own antecedent holds, and no
    preceding other-class rule is consistent with the point.  The final
    hard unit forbids q of the last same-class rule, i.e. demands
    misclassification, mirroring the main encoding.
    """
    if len(dl.space.classes) != 2:
        raise MultiClassUnsupported(
            "the sequential encoding handles binary models only; "
            f"this one has {len(dl.space.classes)} classes"
        )
    c, _ = classify(dl, inst.point)
    chain, others, default_included = _sequential_plan(dl, c)

    vm = VarMap()
    _alloc_feature_vars(dl, vm)
    for k in sorted(set(chain + others) - {dl.default_index}):
        vm.s[k] = vm.new_var()
    for n in chain:
        vm.p[n] = vm.new_var()
        vm.q[n] = vm.new_var()

    hard = _exactly_one_clauses(dl, vm)
    _rule_definitions(dl, vm, vm.s, hard)

    prev_q: int | None = None
    for n in chain:
        conj = []
        if prev_q is not None:
            conj.append(-prev_q)
        if n != dl.default_index:
            conj.append(vm.s[n])
        # every other-class rule listed before n must stay inconsistent
        conj.extend(-vm.s[k] for k in others if k < n)
        pv = vm.p[n]
        for lit in conj:
            hard.append([-pv, lit])
        hard.append([pv] + [-lit for lit in conj])
        qv = vm.q[n]
        if prev_q is None:
            hard.append([-qv, pv])
            hard.append([qv, -pv])
        else:
            hard.append([-qv, prev_q, pv])
            hard.append([qv, -prev_q])
            hard.append([qv, -pv])
        prev_q = qv
    hard.append([-prev_q])

    return Encoding(vm, hard, dl, c, inst.point)


def encode_dlsat(dl: DecisionList, target: int) -> tuple[VarMap, list[list[int]]]:
    """Clauses satisfiable iff some point classifies as `target`."""
    if not 0 <= target < len(dl.space.classes):
        raise ValueError(f"unknown class index {target}")
    vm = VarMap()
    _alloc_feature_vars(dl, vm)
    for k in range(dl.num_rules):
        vm.t[k] = vm.new_var()
    for k in range(dl.num_rules + 1):
        vm.fire[k] = vm.new_var()

    clauses = _exactly_one_clauses(dl, vm)
    _rule_definitions(dl, vm, vm.t, clauses)
    for k in range(dl.num_rules + 1):
        # fire[k] <-> rule k holds and no earlier rule holds
        fv = vm.fire[k]
        conj = ([vm.t[k]] if k < dl.num_rules else [])
        conj.extend(-vm.t[j] for j in range(min(k, dl.num_rules)))
        for lit in conj:
            clauses.append([-fv, lit])
        clauses.append([fv] + [-lit for lit in conj])

    firing_target = [
        vm.fire[k] for k in range(dl.num_rules)
        if dl.rules[k].prediction == target
    ]
    if dl.default.prediction == target:
        firing_target.append(vm.fire[dl.default_index])
    clauses.append(firing_target)
    return vm, clauses


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


# ----------------------------------------------------------------------
# exhaustive evaluation support (testing and the verify command)

def _variable_tables(enc: Encoding) -> np.ndarray:
    """Truth table of every variable under the definitional extension of
    each feature-space point; shape (var_count + 1, num_points)."""
    dl = enc.dl
    space = dl.space
    shape = tuple(space.domain_size(j) for j in range(space.num_features))
    coords = np.indices(shape).reshape(space.num_features, -1)
    npoints = coords.shape[1]
    vals = np.zeros((enc.varmap.var_count + 1, npoints), dtype=bool)

    for (j, v), var in enc.varmap.b.items():
        vals[var] = coords[j] == v

    def term_holds(rule) -> np.ndarray:
        out = np.ones(npoints, dtype=bool)
        for lit in rule.antecedent:
            col = coords[lit.feature] == lit.value
            out &= col if lit.equal else ~col
        return out

    for k, var in enc.varmap.t.items():
        vals[var] = term_holds(dl.rules[k]) if dl.consistent[k] else False
    for k, var in enc.varmap.s.items():
        vals[var] = term_holds(dl.rules[k]) if dl.consistent[k] else False

    if enc.varmap.p:
        chain, others, _ = _sequential_plan(dl, enc.pred_class)
        prev_q = np.zeros(npoints, dtype=bool)
        for n in chain:
            pk = ~prev_q
            if n != dl.default_index:
                pk = pk & vals[enc.varmap.s[n]]
            for k in others:
                if k < n:
                    pk = pk & ~vals[enc.varmap.s[k]]
            vals[enc.varmap.p[n]] = pk
            prev_q = prev_q | pk
            vals[enc.varmap.q[n]] = prev_q
    return vals


def hard_model_points(enc: Encoding) -> frozenset[tuple[int, ...]]:
    """Feature-space points whose definitional extension satisfies every
    hard clause.  Exhaustive; intended for desk-size spaces."""
    space = enc.dl.space
    vals = _variable_tables(enc)
    npoints = vals.shape[1]
    ok = np.ones(npoints, dtype=bool)
    for cl in enc.hard:
        sat = np.zeros(npoints, dtype=bool)
        for lit in cl:
            sat |= vals[lit] if lit > 0 else ~vals[-lit]
        ok &= sat
    shape = tuple(space.domain_size(j) for j in range(space.num_features))
    coords = np.indices(shape).reshape(space.num_features, -1)
    return frozenset(
        tuple(int(coords[j, i]) for j in range(space.num_features))
        for i in np.flatnonzero(ok)
    )
