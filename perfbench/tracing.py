"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each dlxplain layer at the
name its caller looks up (for example `dlxplain.cli.load_encoding` and
`dlxplain.enumeration.reduce_dual`), records one span per call in memory
and reads `SessionStats` deltas around every oracle call.  Sessions built
inside `HittingSetOracle.__init__` are tagged as hitting-set sessions, so
main-query and hitting-set counters stay apart.  `uninstall()` restores the
original functions.  Nothing under `src/` is touched.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

import dlxplain.cli as cli
import dlxplain.enumeration as enumeration
import dlxplain.oracle as oracle

MAIN, MHS = "main", "mhs"

# (module or class, attribute, span name); each layer's public entry points
# at the name its caller looks up
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "parse_model", "model_io.parse"),
    (cli, "parse_instances", "model_io.parse"),
    (cli, "encode_explanation_query", "encoding.encode"),
    (cli, "encode_alternative", "encoding.encode"),
    (cli, "load_encoding", "oracle.load"),
    (cli, "one_axp", "explain.one_axp"),
    (cli, "one_cxp", "explain.one_cxp"),
    (cli, "horn_axp", "horn.horn_axp"),
    (cli, "enumerate_marco", "enumeration.enumerate"),
    (cli, "enumerate_cxp_lbx", "enumeration.enumerate"),
    (enumeration, "one_cxp", "explain.one_cxp"),
    (enumeration, "reduce_dual", "explain.reduce_dual"),
    (enumeration.HittingSetOracle, "__init__", "enumeration.mhs.init"),
    (enumeration.HittingSetOracle, "next", "enumeration.mhs.next"),
    (enumeration.HittingSetOracle, "add_set", "enumeration.mhs.add_set"),
    (enumeration.HittingSetOracle, "block", "enumeration.mhs.block"),
)

STAT_FIELDS = ("calls", "sat_answers", "unsat_answers", "propagations",
               "conflicts")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 at the root
    call: int        # CLI invocation within the run
    instance: int    # records that invocation had emitted at span start


class Tracer:
    """Spans and counters of one traced stretch of CLI calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.call = 0
        self.records = lambda: 0   # records emitted so far in this call
        self._stack: list[int] = []
        self._mhs_sessions: weakref.WeakSet = weakref.WeakSet()
        self._last_hs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.call, self.records()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].name == name

    def begin_call(self, call: int, records) -> None:
        """Attribute the following spans to CLI call `call`; `records()`
        gives the number of records it has emitted so far."""
        self.call = call
        self.records = records

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        session_cls = oracle.OracleSession
        for attr in ("__init__", "solve", "solve_under_assumptions"):
            self._patches.append((session_cls, attr, getattr(session_cls, attr)))
        session_cls.__init__ = self._wrap_session_init(session_cls.__init__)
        solve = self._wrap_solve(session_cls.solve_under_assumptions)
        session_cls.solve = session_cls.solve_under_assumptions = solve

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = self.counts
        after = {
            "encoding.encode": self._after_encode,
            "oracle.load": self._after_load,
            "enumeration.mhs.next": self._after_next,
            "enumeration.mhs.block": self._after_block,
        }.get(name)
        # reduce_dual(enc, session, ...) also counts its oracle calls
        per_call = name == "explain.reduce_dual"

        def wrapper(*args, **kwargs):
            session = None
            if per_call:
                session = args[1] if len(args) > 1 else kwargs["session"]
                calls0 = session.stats.calls
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                count[name] += 1
                if session is not None:
                    count[name + ".solve_calls"] += (
                        session.stats.calls - calls0)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_encode(self, args, enc) -> None:
        self.counts["encoding.hard_clauses"] += len(enc.hard)

    def _after_load(self, args, session) -> None:
        self.counts["cdcl.clauses_loaded"] += len(args[0].hard)

    def _after_next(self, args, hitting_set) -> None:
        if hitting_set is not None:
            self.counts["enumeration.mhs.hitting_sets"] += 1
        self._last_hs[args[0]] = hitting_set

    def _after_block(self, args, _result) -> None:
        # marco blocks a proposed hitting set exactly when it is confirmed
        # as a target explanation; other blocks are bootstrap seeds
        hs_oracle, blocked = args[0], frozenset(args[1])
        if self._last_hs.get(hs_oracle) == blocked:
            self.counts["enumeration.mhs.confirmed"] += 1

    def _wrap_session_init(self, fn):
        def __init__(session, *args, **kwargs):
            fn(session, *args, **kwargs)
            if self._inside("enumeration.mhs.init"):
                self._mhs_sessions.add(session)
            else:
                self.counts["oracle.sessions"] += 1

        return __init__

    def _wrap_solve(self, fn):
        count = self.counts
        mhs_sessions = self._mhs_sessions

        def solve(session, *args, **kwargs):
            role = MHS if session in mhs_sessions else MAIN
            stats = session.stats
            before = [getattr(stats, f) for f in STAT_FIELDS]
            index = self._open(f"oracle.solve.{role}")
            try:
                return fn(session, *args, **kwargs)
            finally:
                self._close(index)
                for f, b in zip(STAT_FIELDS, before):
                    count[f"oracle.{role}.{f}"] += getattr(stats, f) - b

        return solve

    # -- reduction ------------------------------------------------------

    def durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name; self time is a span's
        duration minus the part its child spans cover."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for span in self.spans:
            dur = span.end - span.start
            total[span.name] += dur
            if span.parent >= 0:
                child[span.parent] += dur
        own: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child):
            own[span.name] += span.end - span.start - covered
        return total, own

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, call, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent,
                                     s.call, s.instance]) + "\n")


# layers whose spans have children; the others' self time equals the
# total already reported (model_io.parse_s, encoding.encode_s,
# horn.horn_axp_s)
NESTING_LAYERS = ("oracle", "explain", "enumeration", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    total, own = tracer.durations()
    c = tracer.counts
    layer_self = defaultdict(float)
    for name, value in own.items():
        layer_self[name.split(".")[0]] += value
    hitting_sets = c["enumeration.mhs.hitting_sets"]
    m = {
        "encoding.encode_s": (total["encoding.encode"], "s"),
        "encoding.hard_clauses": (c["encoding.hard_clauses"], "count"),
        "oracle.load_s": (total["oracle.load"], "s"),
        "oracle.sessions": (c["oracle.sessions"], "count"),
        "cdcl.clauses_loaded": (c["cdcl.clauses_loaded"], "count"),
        "oracle.main.solve_s": (total["oracle.solve.main"], "s"),
        "oracle.main.calls": (c["oracle.main.calls"], "count"),
        "oracle.main.sat": (c["oracle.main.sat_answers"], "count"),
        "oracle.main.unsat": (c["oracle.main.unsat_answers"], "count"),
        "cdcl.main.propagations": (c["oracle.main.propagations"], "count"),
        "cdcl.main.conflicts": (c["oracle.main.conflicts"], "count"),
        "cdcl.main.props_per_call": (
            _ratio(c["oracle.main.propagations"], c["oracle.main.calls"]),
            "count"),
        "enumeration.mhs.next_s": (total["enumeration.mhs.next"], "s"),
        "enumeration.mhs.hitting_sets": (hitting_sets, "count"),
        "oracle.mhs.solve_s": (total["oracle.solve.mhs"], "s"),
        "oracle.mhs.calls": (c["oracle.mhs.calls"], "count"),
        "enumeration.mhs.calls_per_hs": (
            _ratio(c["oracle.mhs.calls"], hitting_sets), "count"),
        "cdcl.mhs.propagations": (c["oracle.mhs.propagations"], "count"),
        "cdcl.mhs.conflicts": (c["oracle.mhs.conflicts"], "count"),
        "enumeration.mhs.useful_ratio": (
            _ratio(c["enumeration.mhs.confirmed"], hitting_sets), "ratio"),
        "explain.reduce_dual_s": (total["explain.reduce_dual"], "s"),
        "explain.reductions": (c["explain.reduce_dual"], "count"),
        "explain.calls_per_reduction": (
            _ratio(c["explain.reduce_dual.solve_calls"],
                   c["explain.reduce_dual"]), "count"),
        "explain.one_cxp_s": (total["explain.one_cxp"], "s"),
        "explain.one_cxp_calls": (c["explain.one_cxp"], "count"),
        "explain.one_axp_s": (total["explain.one_axp"], "s"),
        "horn.horn_axp_s": (total["horn.horn_axp"], "s"),
        "horn.calls": (c["horn.horn_axp"], "count"),
        "model_io.parse_s": (total["model_io.parse"], "s"),
    }
    for layer in NESTING_LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.unaccounted_s"] = (traced_wall - tracer.root_time(), "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall), "ratio")
    return m
