"""Every closed term of at most five leaves built from copycats and one
constant c : P, translated through `groundkit translate` under each of
the twelve designs of ⊢9 as P's one generator.

For each (term, generator) the table pins the exit status, the
classification or the refusal's kind, and, for an application that
translates, whether its design and its incarnation in P at ⊢0.1, moved to
⊢0.0, are the design of c.
"""

import contextlib
import io

from test_translation import BOUNDS, HOME, P
from translate_oracle import behaviour_at

import groundkit.sexpr as sx
from groundkit import terms as tm
from groundkit.behaviours import NotAMember, enumerate_universe, incarnation_of
from groundkit.cli import main
from groundkit.designs import Pitchfork, daimon, delocate
from groundkit.formulas import Absurd, Impl

ALPHA, BETA = (0, 0), (0, 1)
GENERATORS = enumerate_universe(BOUNDS.at(Pitchfork(None, frozenset({HOME}))))


def copycat(ty):
    x = tm.Var("x", ty)
    return tm.ImplI(x, x)


def functions(n):
    """The terms of type P → P with n leaves: i, I(i), I(I(i)), …, where i
    is the copycat at P and I the copycat at P → P."""
    f = copycat(P)
    for _ in range(n - 1):
        f = tm.ImplE(copycat(Impl(P, P)), f)
    return f


def name(t):
    match t:
        case tm.ImplE(f, u):
            return f"{name(f)}({name(u)})"
        case tm.ImplI(x, _):
            return "i" if x.type == P else "I"
    return "c"


def terms(leaves=5):
    """name -> term, for every closed term of at most `leaves` leaves at
    types P and P → P built from c, i and I."""
    values = {1: [tm.Const("c", P)]}
    for n in range(2, leaves + 1):
        values[n] = [tm.ImplE(functions(k), u) for k in range(1, n)
                     for u in values[n - k]]
    found = [t for n in values for t in values[n]]
    found += [functions(n) for n in range(1, leaves + 1)]
    return {name(t): t for t in found}


def tenv_text(generator):
    bounds = sx.syntax_text(BOUNDS, "bounds")
    atoms = [(P, generator), (Absurd(), daimon(HOME))]
    return f"(tenv {bounds} (fax-arity 0) " + " ".join(
        f"(atom {sx.syntax_text(f, 'formula')} (behaviour {bounds} "
        f"(generators {sx.syntax_text(g, 'design')})))" for f, g in atoms) + ")"


def run_translate(term, env, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(["translate", "--term", str(term), "--env", str(env),
                       "--out", str(out)])
    if status == 2:       # the kind, from whichever stream has the error
        text = stdout.getvalue() + stderr.getvalue()
        return status, text.split("error: ")[1].split(": ")[0]
    return status, stdout.getvalue().rsplit("classification: ")[1].strip()


def sweep(tmp_path):
    """(term name, generator index) -> (status, verdict or kind, design is
    c's, incarnation is c's); the last two are None but for applications
    that translate, and the incarnation is None for a non-member."""
    table = {}
    named = terms()
    for k, g in enumerate(GENERATORS):
        env = tmp_path / f"env{k}.tenv"
        env.write_text(tenv_text(g))
        b = behaviour_at(sx.load(str(env)), P, BETA)
        const = None
        for n, t in named.items():
            path, out = tmp_path / f"{k}-{n}.gt", tmp_path / f"{k}-{n}.dsn"
            path.write_text(sx.syntax_text(t, "term"))
            status, verdict = run_translate(path, env, out)
            same = incarnate = None
            if n == "c" and status != 2:
                const = sx.load(str(out))
            elif isinstance(t, tm.ImplE) and status != 2:
                d = sx.load(str(out))
                same = delocate(d, BETA, ALPHA) == const
                try:
                    incarnate = delocate(incarnation_of(d, b), BETA,
                                         ALPHA) == const
                except NotAMember:
                    pass
            table[n, k] = (status, verdict, same, incarnate)
    return table


#: one letter per outcome of a (term, generator) case
OUTCOMES = {"u": (2, "unsupported-constructor", None, None),
            "d": (2, "diverged-application", None, None),
            "G": (0, "Ground", None, None),
            "p": (0, "PseudoGround(not-material)", None, None),
            "n": (1, "NotInBehaviour", None, None),
            "=": (0, "Ground", True, True),
            "~": (0, "PseudoGround(not-material)", False, True)}

#: term name -> its outcome under each generator, in universe order; every
#: other term is refused under all twelve, as it applies I or takes a
#: copycat as its argument.  Four generators leave c no †-free material
#: member.  A chain of i over c is c's design under one generator, and
#: elsewhere only up to incarnation: the fax's relay branches to Fid remain
#: where c has no branch.
CHAIN = "ud=~u~~~uu~~"
TABLE = {"c": "uGGGuGGGuuGG", "i": "pnpnpnnnppnn",
         **{chain: CHAIN for chain in ("i(c)", "i(i(c))", "i(i(i(c)))",
                                       "i(i(i(i(c))))")}}


def test_sweep(tmp_path):
    got = sweep(tmp_path)
    assert len(GENERATORS) == 12 and len(terms()) == 21
    assert got == {(n, k): OUTCOMES[TABLE.get(n, "u" * 12)[k]]
                   for n in terms() for k in range(12)}
