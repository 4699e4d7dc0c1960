"""Spans at the boundaries between groundkit's modules, and the per-layer
metrics computed from them.

`Tracer.install` replaces each public function listed in `BOUNDARIES` by a
wrapper, in every groundkit module that holds it, so calls from one module
into another (and the benchmark's own calls) open a span.  While a recursive
function runs, its defining module holds the original again, so it gets one
span per outside call and no extra stack frames per level of recursion.
No code inside the program changes.  A span records its name, start, end,
parent span, operation id and one count taken at the same boundary: action
pairs for a closed normalisation, the verdict of an orthogonality test and
reduction steps for `terms.normalize`.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter_ns
from types import CodeType

YES, NO, UNKNOWN = 1, 0, 2


def _pairs(result) -> int:
    return sum(1 for rec in result.trace if rec[0] == "+")


def _verdict(v) -> int:
    return {"yes": YES, "no": NO}.get(v, UNKNOWN)


def _steps(outcome) -> int:
    return len(outcome.trace)


def _mentions(code: CodeType, name: str) -> bool:
    """Whether the code, or code nested in it, looks up a global `name`."""
    return name in code.co_names or any(
        _mentions(c, name) for c in code.co_consts if isinstance(c, CodeType))


#: module -> {public function: count taken from its result, or None}
BOUNDARIES = {
    "sexpr": {"load": None, "read_sexpr": None, "behaviour_from_sexpr": None,
              "write_sexpr": None, "term_to_sexpr": None},
    "terms": {"normalize": _steps, "reduce_step": None, "typecheck": None},
    "designs": {"build_fax": None},
    "interaction": {"make_cutnet": None, "normalize_closed": _pairs,
                    "orthogonal": _verdict},
    "behaviours": {"enumerate_universe": None, "orthogonal_set": None,
                   "behaviour": None, "member_verdict": None, "members": None,
                   "incarnation_of": None, "classify_candidate": None},
    "translate": {"translate": None, "normalize_open": None, "arrow": None,
                  "pair_orthogonal": _verdict, "free_incarnation": None,
                  "classify_arrow_candidate": None, "check_translation": None},
    "cli": {"main": None},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self.value = array("q")
        self.nested: set[int] = set()    # spans re-entering their function
        self.stack: list[int] = []
        self.op_starts = array("q", [0])  # first span of operation k
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.start)

    def begin_op(self) -> None:
        """Spans recorded from now on belong to the next operation."""
        self.op_starts.append(len(self.start))

    def op_of(self) -> array:
        """The operation id of every span; 0 is the traced set-up."""
        ops = array("i", bytes(4 * len(self.start)))
        bounds = list(self.op_starts) + [len(self.start)]
        for k in range(len(bounds) - 1):
            for i in range(bounds[k], bounds[k + 1]):
                ops[i] = k
        return ops

    # -- recording --------------------------------------------------------

    def _wrap(self, module, fname: str, orig, count):
        nid = len(self.names)
        self.names.append(f"{module.__name__.rsplit('.', 1)[-1]}.{fname}")
        start, end = self.start.append, self.end
        name, parent = self.name.append, self.parent.append
        value, stack, clock = self.value, self.stack, perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(end)
            name(nid)
            parent(stack[-1] if stack else -1)
            value.append(-1)
            end.append(0)
            stack.append(idx)
            start(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                value[idx] = count(result)
            return result

        if not _mentions(orig.__code__, fname):
            return wrapper
        # a recursive function: its module holds the original while it runs
        active = [0]
        nested = self.nested

        def recursive_wrapper(*args, **kwargs):
            if active[0]:
                nested.add(len(end))
                return wrapper(*args, **kwargs)
            active[0] = 1
            setattr(module, fname, orig)
            try:
                return wrapper(*args, **kwargs)
            finally:
                setattr(module, fname, recursive_wrapper)
                active[0] = 0

        return recursive_wrapper

    def install(self) -> None:
        """Wrap every boundary function that the loaded program defines."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "groundkit" or n.startswith("groundkit.")]
        for short, funcs in BOUNDARIES.items():
            home = sys.modules.get(f"groundkit.{short}")
            if home is None:
                continue
            for fname, count in funcs.items():
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                wrapper = self._wrap(home, fname, orig, count)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Gzipped JSON: span names, then one array per column."""
        columns = {"name": self.name, "start_ns": self.start,
                   "end_ns": self.end, "parent": self.parent,
                   "op": self.op_of(), "count": self.value}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(f'{{"names":{json.dumps(self.names)},'
                     f'"columns":{json.dumps(list(columns))},"spans":[')
            for k, col in enumerate(columns.values()):
                fh.write(("," if k else "") + "[" + ",".join(map(str, col)) + "]")
            fh.write("]}\n")

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, total and self time (ns), split by phase.

        Only spans with no enclosing span of the same name count towards the
        total, so time is not counted twice when a function re-enters.
        """
        n = len(self.start)
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        first_op_span = self.op_starts[1] if len(self.op_starts) > 1 else n
        out: dict = {}
        for i in range(n):
            phase = "setup" if i < first_op_span else "ops"
            rec = out.setdefault(phase, {}).setdefault(
                self.names[self.name[i]],
                {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0})
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_ns"] += dur - child_ns[i]
            if i not in self.nested:
                rec["total_ns"] += dur
            if self.value[i] >= 0:
                rec["count"] += self.value[i]
        return out

    def useful_tests(self) -> tuple[int, int]:
        """Orthogonality tests inside member_verdict: (useful, run).

        Useful tests are those up to and including the first "no", or all of
        them when the candidate is a member.
        """
        verdicts: dict[int, list[int]] = {}
        mv = self.names.index("behaviours.member_verdict") \
            if "behaviours.member_verdict" in self.names else -1
        orth = self.names.index("interaction.orthogonal") \
            if "interaction.orthogonal" in self.names else -1
        first_op_span = self.op_starts[1] if len(self.op_starts) > 1 else 0
        for i in range(first_op_span, len(self.start)):
            p = self.parent[i]
            if self.name[i] == orth and p >= 0 and self.name[p] == mv:
                verdicts.setdefault(p, []).append(self.value[i])
        useful = run = 0
        for vs in verdicts.values():
            run += len(vs)
            useful += vs.index(NO) + 1 if NO in vs else len(vs)
        return useful, run


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """The per-layer metrics, each per operation of the traced batch unless
    its unit says otherwise.  A layer the workload's operations never call
    reads 0, except the two behaviour-building layers: when they run only
    while setting up, they report their time in that one set-up."""
    s = tracer.summary()
    ops, setup = s.get("ops", {}), s.get("setup", {})

    def rec(name):
        return ops.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                              "count": 0})

    def per_op_ms(*names, key="total_ns"):
        return sum(rec(n)[key] for n in names) / 1e6 / n_ops

    def per_call_us(name):
        r = rec(name)
        return r["total_ns"] / 1e3 / r["calls"] if r["calls"] else 0.0

    def ops_or_setup_ms(name):
        if rec(name)["calls"]:
            return per_op_ms(name)
        return setup.get(name, {"total_ns": 0})["total_ns"] / 1e6

    norm = rec("terms.normalize")
    useful, run = tracer.useful_tests()
    values = {
        "sexpr.parse_ms": per_op_ms("sexpr.load", "sexpr.read_sexpr",
                                    "sexpr.behaviour_from_sexpr",
                                    key="self_ns"),
        "sexpr.print_ms": per_op_ms("sexpr.write_sexpr", "sexpr.term_to_sexpr"),
        "terms.normalize_ms": per_op_ms("terms.normalize"),
        "terms.us_per_step": (norm["total_ns"] / 1e3 / norm["count"]
                              if norm["count"] else 0.0),
        "terms.replay_ms": per_op_ms("terms.reduce_step"),
        "terms.typecheck_ms": per_op_ms("terms.typecheck"),
        "designs.build_fax_ms": per_op_ms("designs.build_fax"),
        "interaction.make_cutnet_us": per_call_us("interaction.make_cutnet"),
        "interaction.normalize_closed_us":
            per_call_us("interaction.normalize_closed"),
        "interaction.nets_per_op":
            rec("interaction.normalize_closed")["calls"] / n_ops,
        "behaviours.enumerate_universe_ms":
            ops_or_setup_ms("behaviours.enumerate_universe"),
        "behaviours.orthogonal_set_ms":
            ops_or_setup_ms("behaviours.orthogonal_set"),
        "behaviours.member_verdict_ms": per_op_ms("behaviours.member_verdict"),
        "behaviours.incarnation_ms": per_op_ms("behaviours.incarnation_of"),
        "behaviours.useful_test_ratio": useful / run if run else 0.0,
        "behaviours.members_ms": per_op_ms("behaviours.members"),
        "translate.translate_ms": per_op_ms("translate.translate"),
        "translate.normalize_open_ms": per_op_ms("translate.normalize_open"),
        "translate.arrow_ms": per_op_ms("translate.arrow"),
        "translate.pair_tests_per_op":
            rec("translate.pair_orthogonal")["calls"] / n_ops,
        "translate.classify_arrow_ms":
            per_op_ms("translate.classify_arrow_candidate"),
        "cli.self_ms": per_op_ms("cli.main", key="self_ns"),
    }
    return values


UNITS = {
    "sexpr.parse_ms": "ms", "sexpr.print_ms": "ms",
    "terms.normalize_ms": "ms", "terms.us_per_step": "us",
    "terms.replay_ms": "ms", "terms.typecheck_ms": "ms",
    "designs.build_fax_ms": "ms", "interaction.make_cutnet_us": "us",
    "interaction.normalize_closed_us": "us", "interaction.nets_per_op": "count",
    "behaviours.enumerate_universe_ms": "ms",
    "behaviours.orthogonal_set_ms": "ms",
    "behaviours.member_verdict_ms": "ms", "behaviours.incarnation_ms": "ms",
    "behaviours.useful_test_ratio": "ratio", "behaviours.members_ms": "ms",
    "translate.translate_ms": "ms", "translate.normalize_open_ms": "ms",
    "translate.arrow_ms": "ms", "translate.pair_tests_per_op": "count",
    "translate.classify_arrow_ms": "ms", "cli.self_ms": "ms",
}
