"""Command-line surface: parse, check, reduce, interact, classify,
translate, focus, and an interactive step-REPL.

Exit status: 0 for affirmative results (ok / yes / Ground / Converged),
1 for negative results, 2 for errors and unknowns.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import count

from . import focusing as fo
from . import sexpr as sx
from . import terms as tm
from .behaviours import (
    NotAMember, classify_candidate, incarnation_of, members,
)
from .designs import format_address, natural, validate_design
from .interaction import (
    CONVERGED, OMEGA, Converged, CutNet, CutNetError, DEFAULT_FUEL, Diverged,
    listeners, normalize_closed, orthogonal, render_design, render_state,
    snapshots, step,
)
from .translate import TranslationError, check_translation, translate


OK, NO, ERR = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, status=ERR):
        self.status = status
        super().__init__(message)


def _load(path, ext=None):
    """The value of the file at path, which must be a file of extension
    `ext` when one is given."""
    if ext is not None and os.path.splitext(path)[1] != ext:
        raise CliError(f"{path}: expected a {ext} file")
    try:
        return sx.load(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except sx.ParseError as e:
        raise CliError(f"{path}: {e}")


def _print_term(t, cache=None):
    print(sx.syntax_text(t, "term", cache))


def _print_design(d):
    print("\n".join(render_design(d)))


def _action(xi, ram) -> str:
    return format_address(xi) + " {" + ",".join(map(str, ram)) + "}"


# ---------------------------------------------------------------------------
# verbs


def cmd_check(args) -> int:
    value = _load(args.input)
    if args.input.endswith(".gt"):
        try:
            ty = tm.typecheck(value, tm.GroundEnv())
        except tm.GroundTypeError as e:
            print(f"type error: {e}")
            return NO
        ants = ", ".join(sx.syntax_text(a, "formula") for a in ty.antecedents)
        succ = sx.syntax_text(ty.succedent, "formula")
        print(f"ok: {ants} |- {succ}" if ants else f"ok: |- {succ}")
        return OK
    print("ok: parsed")
    return OK


def cmd_reduce(args) -> int:
    steps, cache = count(1), sx.TextCache()   # each step prints from the last

    def show(pos, name, term):
        where = ".".join(map(str, pos)) or "root"
        print(f"step {next(steps)}: {name} at {where}")
        if args.format == "pretty":
            _print_term(term, cache)

    match tm.normalize(_load(args.term, ".gt"), tm.GroundEnv(), args.fuel,
                       show):
        case tm.Canonical(term, _):
            print("canonical:")
            _print_term(term, cache)
            return OK
        case tm.Loop(cycle, _):
            print(f"loop: cycle of length {len(cycle) - 1}")
            return NO
        case tm.Stuck(term, _):
            print("stuck:")
            _print_term(term, cache)
            return NO
        case _:
            print("fuel exhausted")
            return ERR


def cmd_ground(args) -> int:
    t = _load(args.term, ".gt")
    v = tm.denotes_ground(t, tm.GroundEnv(), args.fuel)
    print(f"{v.tag}" + (f": {v.reason}" if v.reason else ""))
    return {"yes": OK, "no": NO}.get(v.tag, ERR)


def cmd_design_validate(args) -> int:
    d = _load(args.design, ".dsn")
    problems = validate_design(d)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return NO
    print("ok")
    return OK


def cmd_interact(args) -> int:
    net = _load(args.net, ".net")
    if args.render == "snapshots":
        out, text = snapshots(net, args.fuel)
        sys.stdout.write(text)
    else:
        out = normalize_closed(net, args.fuel)
        for pol, xi, ram in out.trace:
            print(f"{pol} {_action(xi, ram)}")
        match out:
            case Converged():
                print("converged")
            case Diverged(at, reason, _):
                print(f"diverged at {format_address(at)}: {reason}")
            case _:
                print("fuel exhausted")
    return {Converged: OK, Diverged: NO}.get(type(out), ERR)


def cmd_orth(args) -> int:
    d1, d2 = _load(args.designs[0], ".dsn"), _load(args.designs[1], ".dsn")
    v = orthogonal(d1, d2, args.fuel)
    print(v)
    return {"yes": OK, "no": NO}.get(v, ERR)


def cmd_behaviour(args) -> int:
    b = _load(args.behaviour, ".bhv")
    if args.show == "orthogonal":
        designs = sorted(b.cached_orthogonal, key=repr)
    else:
        designs = sorted(members(b, args.fuel), key=repr)
    print(f"{args.show}: {len(designs)} design(s)")
    for d in designs:
        _print_design(d)
        print()
    return OK


def cmd_incarnate(args) -> int:
    d, b = _load(args.design, ".dsn"), _load(args.behaviour, ".bhv")
    try:
        inc = incarnation_of(d, b, args.fuel)
    except NotAMember as e:
        print(f"not a member: {e}")
        return NO
    _print_design(inc)
    return OK


def cmd_classify(args) -> int:
    d, b = _load(args.design, ".dsn"), _load(args.behaviour, ".bhv")
    v = classify_candidate(d, b, args.fuel)
    print(v)
    if v.tag == "Ground":
        return OK
    if v.tag == "Unknown":
        return ERR
    return NO


def cmd_translate(args) -> int:
    t, env = _load(args.term, ".gt"), _load(args.env, ".tenv")
    d = translate(t, env, root=(0,))
    _print_design(d)
    if args.out:
        sx.dump(d, args.out)
    v = check_translation(t, d, env, root=(0,))
    print(f"classification: {v}")
    return OK if v.tag in ("Ground", "PseudoGround") else NO


def cmd_focus(args) -> int:
    seq = _load(args.sequent, ".seq")
    d = fo.focused_search(seq, daimon_mode=args.daimon)
    if d is None:
        print("no derivation")
        return NO
    _print_derivation(d)
    if args.to_strategy:
        s = fo.derivation_to_strategy(d)
        print("strategy:")
        games = sorted((len(game), " ; ".join(
            f"({fo.pretty(focus)} | "
            + ", ".join(sorted(fo.pretty(c) for c in choices)) + ")"
            for focus, choices in game)) for game in s)
        for _, moves in games:
            print(f"  {moves}")
    return OK


def _print_derivation(d: fo.ClusteredDerivation, indent=0):
    pad = "  " * indent
    seq = ", ".join(fo.pretty(f) for f in d.sequent)
    focus = f" on {fo.pretty(d.focus)}" if d.focus is not None else ""
    print(f"{pad}{d.rule}{focus}: |- {seq}")
    for c in d.children:
        _print_derivation(c, indent + 1)


# ---------------------------------------------------------------------------
# REPL


def cmd_repl(args) -> int:
    if args.term:
        return _repl_term(_load(args.term, ".gt"))
    if args.net:
        return _repl_net(_load(args.net, ".net"))
    raise CliError("repl needs --term or --net")


def _repl(state, text, trace, advance, inp=None, out=None) -> int:
    """The step REPL over a history of states: text(state) shows a state,
    trace(history) gives the lines of its trace, and advance(history) the
    lines a step prints and the next state (None if there is none)."""
    out, history = out or sys.stdout, [state]
    print(text(state), file=out)
    for line in inp or sys.stdin:
        cmd = line.strip()
        if cmd == "quit":
            break
        elif cmd == "show":
            print(text(history[-1]), file=out)
        elif cmd == "trace":
            for entry in trace(history):
                print(entry, file=out)
        elif cmd == "back" and len(history) == 1:
            print("already at step 0", file=out)
        elif cmd == "back":
            history.pop()
            print(text(history[-1]), file=out)
        elif cmd == "step":
            lines, nxt = advance(history)
            print(*lines, sep="\n", file=out)
            if nxt is not None:
                history.append(nxt)
                print(text(nxt), file=out)
        elif cmd:
            print(f"unknown command {cmd!r} "
                  "(step, back, show, trace, quit)", file=out)
    return OK


def _repl_term(t, inp=None, out=None, env=None) -> int:
    env, cache = env or tm.GroundEnv(), sx.TextCache()

    def text(term) -> str:
        return sx.syntax_text(term, "term", cache)

    def advance(history):
        if tm.is_primitive_head(history[-1]):
            return ["canonical (no further step)"], None
        if (hit := tm.reduce_step_at(history[-1], env)) is None:
            return ["stuck (no further step)"], None
        nxt, pos, name = hit
        lines = [f"applied {name} at {'.'.join(map(str, pos)) or 'root'}"]
        if nxt in history:
            lines.append("loop detected: cycle of length "
                         f"{len(history) - history.index(nxt)}")
        return lines, nxt

    return _repl(t, text, lambda history: (
        f"{i}: {text(term)}" for i, term in enumerate(history)), advance,
        inp, out)


def _repl_net(net: CutNet, inp=None, out=None) -> int:
    def advance(history):
        current, env, trace = history[-1]
        env = dict(env)
        nxt = step(current, env)
        if isinstance(nxt, str):
            return [{CONVERGED: "converged: † ⊢",
                     OMEGA: "diverged: Ω reached"}.get(nxt) or
                    f"diverged at {format_address(current.node.focus)}"], None
        focus, ram = current.node.focus, current.node.ramification
        return [f"consumed (+,-) at {_action(focus, ram)}"], \
            (nxt, env, trace + (("+", focus, ram), ("-", focus, ram)))

    # a state: the design in control, the listener map and the trace
    return _repl((net.principal, listeners(net.designs), ()),
                 lambda state: "\n".join(render_state(*state[:2])),
                 lambda history: (f"{pol} {_action(xi, ram)}"
                                  for pol, xi, ram in history[-1][2]),
                 advance, inp, out)


# ---------------------------------------------------------------------------
# argument parsing


@cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="groundkit",
        description="Ground-term reduction, design interaction, behaviours, "
                    "and focused proof search.")
    sub = p.add_subparsers(dest="verb", required=True)

    def fuel(sp):
        sp.add_argument("--fuel", type=natural, default=DEFAULT_FUEL)

    sp = sub.add_parser("check", help="parse a file; typecheck ground terms")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("reduce", help="normalize a ground term with a trace")
    sp.add_argument("--term", required=True)
    sp.add_argument("--format", choices=["pretty", "trace-lines"],
                    default="trace-lines")
    fuel(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("ground", help="does a closed term denote a ground?")
    sp.add_argument("--term", required=True)
    fuel(sp)
    sp.set_defaults(func=cmd_ground)

    sp = sub.add_parser("design-validate", help="check the design rules")
    sp.add_argument("--design", required=True)
    sp.set_defaults(func=cmd_design_validate)

    sp = sub.add_parser("interact", help="normalize a closed cut-net")
    sp.add_argument("--net", required=True)
    sp.add_argument("--render", choices=["snapshots", "trace-lines"],
                    default="trace-lines")
    fuel(sp)
    sp.set_defaults(func=cmd_interact)

    sp = sub.add_parser("orth", help="orthogonality of two designs")
    sp.add_argument("designs", nargs=2)
    fuel(sp)
    sp.set_defaults(func=cmd_orth)

    sp = sub.add_parser("behaviour",
                        help="show the members or orthogonal of a behaviour")
    sp.add_argument("--behaviour", required=True)
    sp.add_argument("--show", choices=["members", "orthogonal"],
                    default="members")
    fuel(sp)
    sp.set_defaults(func=cmd_behaviour)

    sp = sub.add_parser("incarnate", help="incarnation of a member design")
    sp.add_argument("--design", required=True)
    sp.add_argument("--behaviour", required=True)
    fuel(sp)
    sp.set_defaults(func=cmd_incarnate)

    sp = sub.add_parser("classify",
                        help="ground / pseudo-ground classification")
    sp.add_argument("--design", required=True)
    sp.add_argument("--behaviour", required=True)
    fuel(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("translate",
                        help="map a linear implicational term to a design")
    sp.add_argument("--term", required=True)
    sp.add_argument("--env", required=True)
    sp.add_argument("--out", help="write the design to this .dsn file")
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("focus", help="focused proof search on a sequent")
    sp.add_argument("--sequent", required=True)
    sp.add_argument("--daimon", action="store_true",
                    help="close failed branches with the daimon")
    sp.add_argument("--to-strategy", action="store_true",
                    help="also print the induced strategy")
    sp.set_defaults(func=cmd_focus)

    sp = sub.add_parser("repl", help="interactive step-through")
    sp.add_argument("--term")
    sp.add_argument("--net")
    sp.set_defaults(func=cmd_repl)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.status
    except (CutNetError, sx.ParseError, tm.GroundTypeError,
            TranslationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERR
    except RecursionError:
        print(f"error: {args.verb}: input nested too deeply",
              file=sys.stderr)
        return ERR


if __name__ == "__main__":
    sys.exit(main())
