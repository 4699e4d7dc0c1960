"""The three workloads: seeded inputs, shared set-up, operations, checks.

A workload generates its inputs from the seed alone, as text (`.dsn` designs,
`.gt` terms, `.tenv` environments); the program sees only that text.  One
round is the fixed list of operations returned by `operations`; every round
repeats it.  `check` runs after the timed batch on the outputs of the first,
untimed round and returns a list of problems; it compares the program's
answers with facts known from how the inputs were built, with the paper's
worked facts and with the models in `reference`, never with a stored copy of
earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path

import reference as ref


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.files: dict[str, str] = {}

    def inputs_bytes(self) -> bytes:
        """Every generated input, serialised; equal seeds give equal bytes."""
        return json.dumps(self.inputs(), sort_keys=True).encode()

    def write_files(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.workdir / name).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# classify: behaviours.classify_candidate on a seeded candidate stream

POOL = ref.full_pool(1)
XI = (0,)
VERDICTS = ("Ground", "PseudoGround(not-material)",
            "PseudoGround(contains-daimon)", "NotInBehaviour")
#: behaviour family -> (members, non-members) per round.  The 120-test
#: "fires" family takes 36 of the 90 operations, so the median operation
#: falls inside its cost class and not on the edge between two classes.
QUOTA = {"one": (6, 6), "zero": (6, 6), "top": (6, 0), "fires": (9, 9),
         "silent": (6, 6)}


def _seeded_generator(rng, fires_empty: bool):
    """(+ 0 {i} N) with N on 0.i ⊢; N answers the empty ramification with †
    when `fires_empty`, otherwise not at all or with Ω.  The other branches
    of N are drawn freely; they never change the size of the orthogonal."""
    i = rng.choice((0, 1))
    at = XI + (i,)
    branches = {}
    for key in POOL:
        if key == ():
            choice = "†" if fires_empty else rng.choice(("-", "Ω"))
        else:
            choice = rng.choice(("-", "†", "Ω"))
        if choice != "-":
            leaf = ref.daimon if choice == "†" else ref.fid
            branches[key] = leaf(*ref.star(at, key))
    return ref.positive(XI, {i: ref.negative(at, branches)})


class Classify(Workload):
    name = "classify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        self.pos_universe = ref.universe(None, {XI}, 2, POOL)
        self.neg_universe = ref.universe(XI, frozenset(), 2, POOL)
        bomb, dai, skunk = ref.positive(XI, {}), ref.daimon(XI), ref.negative(XI, {})
        # name -> generators; the seeded ones come in two families whose
        # orthogonals have 120 and 60 designs whatever the seed draws
        self.gens = {"one": [bomb], "zero": [dai], "top": [skunk]}
        for k in (1, 2):
            for family, fires in (("fires", True), ("silent", False)):
                first, second = (_seeded_generator(rng, fires),
                                 _seeded_generator(rng, fires))
                keep = second[2][2] == first[2][2] and rng.random() < 0.5
                self.gens[f"{family}{k}"] = [first, second] if keep else [first]
        self.orth = {}
        for b, gens in self.gens.items():
            dual = self.neg_universe if gens[0][0] is None else self.pos_universe
            self.orth[b] = ref.orthogonal_set(gens, dual)
        self.candidates = []          # (behaviour, own design, expected)
        for b in self.gens:
            self.candidates += self._draw(rng, b)
        rng.shuffle(self.candidates)

    def _draw(self, rng, b):
        """Members spread over the verdict classes the behaviour has, plus
        uniformly drawn non-members."""
        positive = self.gens[b][0][0] is None
        universe = self.pos_universe if positive else self.neg_universe
        # members of these behaviours never use the ramification {0, 1}
        near = [d for d in universe
                if d[2][0] != "+" or d[2][2] != (0, 1)] if positive else universe
        by_class: dict[str, list] = {}
        for d in near:
            by_class.setdefault(ref.classify(d, self.orth[b]), []).append(d)
        classes = [v for v in VERDICTS[:3] if v in by_class]
        n_members, n_others = QUOTA[b.rstrip("0123456789")]
        out = [(b, rng.choice(by_class[classes[k % len(classes)]]),
                classes[k % len(classes)]) for k in range(n_members)]
        while len(out) < n_members + n_others:
            d = rng.choice(universe)
            if ref.classify(d, self.orth[b]) == "NotInBehaviour":
                out.append((b, d, "NotInBehaviour"))
        return out

    def inputs(self):
        return {"behaviours": {b: [ref.to_text(g) for g in gens]
                               for b, gens in self.gens.items()},
                "candidates": [(b, ref.to_text(d))
                               for b, d, _ in self.candidates]}

    def setup(self, gk):
        """The behaviours, built from their generators' text."""
        sx, beh = gk.sexpr, gk.behaviours
        out = {}
        for b, gens in self.gens.items():
            designs = [sx.design_from_sexpr(sx.read_sexpr(ref.to_text(g)))
                       for g in gens]
            out[b] = beh.behaviour(designs, beh.UniverseBounds(
                2, beh.full_pool(1), designs[0].base))
        return out

    def operations(self, gk, shared):
        sx, beh = gk.sexpr, gk.behaviours
        ops = []
        for b, d, _ in self.candidates:
            design = sx.design_from_sexpr(sx.read_sexpr(ref.to_text(d)))
            ops.append(lambda design=design, bh=shared[b]:
                       str(beh.classify_candidate(design, bh)))
        return ops

    def check(self, gk, shared, outputs) -> list[str]:
        sx, beh, designs = gk.sexpr, gk.behaviours, gk.designs
        text = lambda d: sx.write_sexpr(sx.design_to_sexpr(d))
        design = lambda d: sx.design_from_sexpr(sx.read_sexpr(ref.to_text(d)))
        problems = []
        for b, bh in shared.items():
            if {text(e) for e in bh.cached_orthogonal} != \
                    {ref.to_text(e) for e in self.orth[b]}:
                problems.append(f"{b}: orthogonal differs from the reference")
        for (b, d, expected), got in zip(self.candidates, outputs):
            if got != expected:
                problems.append(f"{b}: {ref.to_text(d)} classified {got}, "
                                f"reference says {expected}")
            elif got == "Ground":
                dd = design(d)
                if (designs.contains_daimon(dd)
                        or beh.incarnation_of(dd, shared[b]) != dd):
                    problems.append(f"{b}: Ground {ref.to_text(d)} is not "
                                    "†-free and its own incarnation")
        facts = [("one", ref.positive(XI, {}), "Ground"),
                 ("one", ref.daimon(XI), "PseudoGround(contains-daimon)"),
                 ("zero", ref.daimon(XI), "PseudoGround(contains-daimon)")]
        for b, d, want in facts:
            got = str(beh.classify_candidate(design(d), shared[b]))
            if got != want:
                problems.append(f"paper: {ref.to_text(d)} is {got} in {b}, "
                                f"not {want}")
        top = shared["top"]
        top_members = beh.members(top)
        if len(top_members) != len(self.neg_universe):
            problems.append("paper: ⊤ does not have every negative design "
                            "as a member")
        empty = text(designs.negative(XI))
        if any(text(beh.incarnation_of(d, top)) != empty for d in top_members):
            problems.append("paper: a member of ⊤ does not incarnate to the "
                            "empty negative node")
        for bh, own in ((shared["one"], self.pos_universe),
                        (shared["top"], self.neg_universe)):
            n_count = beh.count_universe(bh.bounds)
            n_enum = len(beh.enumerate_universe(bh.bounds))
            if not n_count == n_enum == len(own):
                problems.append(f"count_universe {n_count}, enumerate_universe "
                                f"{n_enum}, reference {len(own)}")
        return problems

    def make_up(self) -> dict:
        shares = {}
        for _, _, v in self.candidates:
            shares[v] = shares.get(v, 0) + 1
        return {"orthogonal sizes": {b: len(o) for b, o in self.orth.items()},
                "generators": {b: len(g) for b, g in self.gens.items()},
                "verdicts per round": shares,
                "universe sizes": [len(self.pos_universe), len(self.neg_universe)]}


# ---------------------------------------------------------------------------
# CLI workloads: in-process calls to groundkit's command-line entry point


def run_verb(gk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = gk.cli.main(argv)
    return rc, out.getvalue()


_CLASSIFICATION = re.compile(r"^classification: (.*)$", re.M)


class Translate(Workload):
    name = "translate"
    # (depth, pool, fax arity) of each .tenv.  Every copycat here costs
    # over 100 ms and every application under 50 ms, so the median call is
    # an application of the costliest env, far from the copycats' costs.
    ENVS = ((2, ((), (0,), (1,)), 0), (2, ((), (0,), (1,)), 1),
            (3, ((), (0,)), 0))
    CHAINS = (1, 2, 3)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        self.atom = ref.atom(rng.choice(("A", "B", "P", "Q")))
        self.const = f"c{rng.randrange(100)}"
        home = rng.randrange(2, 10)
        prefix = rng.choice(("x", "y", "u", "w"))
        self.terms = {"copycat-atom": ref.copycat(prefix, self.atom),
                      "copycat-absurd": ref.copycat(prefix, ref.ABSURD)}
        self.chains = {}
        for n in self.CHAINS:
            built = ref.identity_chain(n, self.const, self.atom, prefix)
            self.chains[f"apply-{n}"] = built
            self.terms[f"apply-{n}"] = built.term
        for name, term in self.terms.items():
            self.files[f"{name}.gt"] = term
        for k, (depth, pool, arity) in enumerate(self.ENVS):
            rams = " ".join(ref.ram_text(r) for r in pool)
            bounds = f"(bounds {depth} (pool {rams}) (pos-base {home}))"
            self.files[f"env{k}.tenv"] = (
                f"(tenv {bounds} (fax-arity {arity}) "
                f"(atom {self.atom} (behaviour {bounds} (generators "
                f"{ref.to_text(ref.positive((home,), {}))}))) "
                f"(atom {ref.ABSURD} (behaviour {bounds} (generators "
                f"{ref.to_text(ref.daimon((home,)))}))))")
        self.calls = [(k, t) for k in range(len(self.ENVS)) for t in self.terms]
        rng.shuffle(self.calls)

    def inputs(self):
        return {"files": self.files, "calls": self.calls}

    def setup(self, gk):
        return None

    def operations(self, gk, shared):
        d = self.workdir
        return [lambda argv=["translate", "--term", str(d / f"{t}.gt"),
                             "--env", str(d / f"env{k}.tenv")]:
                run_verb(gk, argv) for k, t in self.calls]

    def check(self, gk, shared, outputs) -> list[str]:
        sx, tm, ds, it, tr = (gk.sexpr, gk.terms, gk.designs, gk.interaction,
                              gk.translate)
        problems = []
        alpha, beta = (0, 0), (0, 1)
        render = lambda d: "\n".join(it.render_design(d))
        for (k, t), (rc, text) in zip(self.calls, outputs):
            where = f"{t} in env{k}"
            found = _CLASSIFICATION.findall(text)
            if rc != 0 or len(found) != 1:
                problems.append(f"{where}: exit {rc}, output {text[-200:]!r}")
                continue
            verdict = found[0]
            shown = text[:text.index("classification:")].rstrip("\n")
            depth, _, arity = self.ENVS[k]
            if t.startswith("copycat"):
                fax = ds.build_fax(alpha, beta, depth, arity)
                if shown != render(fax):
                    problems.append(f"{where}: the copycat is not the fax")
                if tr.normalize_open(it.make_cutnet((ds.daimon(alpha), fax))) \
                        != ds.daimon(beta):
                    problems.append(f"{where}: Fax∘† is not † at the codomain")
                if t == "copycat-absurd" and verdict != "PseudoGround(not-material)":
                    problems.append(f"{where}: copycat in 0→0 is {verdict}, "
                                    "not PseudoGround(not-material)")
                continue
            # an application translates, up to location, to the design of the
            # constant it reduces to, and is classified the same way
            built = self.chains[t]
            term = sx.term_from_sexpr(sx.read_sexpr(built.term))
            reduct = tm.normalize(term).term
            if reduct != sx.term_from_sexpr(sx.read_sexpr(built.normal)):
                problems.append(f"{where}: does not reduce to its constant")
                continue
            d_app = tr.translate(term, self._env(gk, k), root=(0,))
            env = self._env(gk, k)
            d_const = tr.translate(reduct, env, root=(0,))
            v_const = str(tr.check_translation(reduct, d_const, env, root=(0,)))
            if shown != render(d_app):
                problems.append(f"{where}: printed design is not its translation")
            if ds.delocate(d_app, beta, alpha) != d_const:
                problems.append(f"{where}: translation does not respect "
                                "reduction")
            if sx.write_sexpr(sx.design_to_sexpr(d_const)) != \
                    ref.to_text(ref.positive(alpha, {})):
                problems.append(f"{where}: the constant is not the bomb of 1")
            if verdict != v_const or verdict != "Ground":
                problems.append(f"{where}: classified {verdict}, its constant "
                                f"{v_const}; both should be Ground")
        return problems

    def _env(self, gk, k):
        """A fresh translation environment read from env<k>.tenv."""
        sx = gk.sexpr
        x = sx.read_sexpr(self.files[f"env{k}.tenv"])
        atoms = {sx.formula_from_sexpr(item[1]): sx.behaviour_from_sexpr(item[2])
                 for item in x[1:] if item[0] == "atom"}
        arity = self.ENVS[k][2]
        return gk.translate.TranslationEnv(atoms, sx.bounds_from_sexpr(x[1]),
                                           arity)

    def make_up(self) -> dict:
        return {"envs": self.ENVS, "calls per round": len(self.calls)}


class Reduce(Workload):
    name = "reduce"
    # (redexes, output format) of the identity chains in one round.  The
    # 25-redex chains in trace-lines format, twice per round, hold the median:
    # the 9 cheaper random terms and the 9 costlier calls balance around them.
    CHAINS = ((25, "trace-lines"), (25, "trace-lines"), (25, "pretty"),
              (25, "pretty"), (50, "trace-lines"), (50, "pretty"),
              (100, "trace-lines"), (100, "pretty"), (200, "trace-lines"),
              (300, "trace-lines"), (300, "pretty"))
    RANDOM_TERMS = 9
    RANDOM_REDEXES = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        self.built = {}
        self.calls = []
        for k, (n, fmt) in enumerate(self.CHAINS):
            ty = ref.atom(rng.choice(("A", "B", "P", "Q")))
            const = f"c{rng.randrange(100)}"
            prefix = rng.choice(("x", "y", "u", "w"))
            self.built[f"chain-{k}"] = ref.identity_chain(n, const, ty, prefix)
            self.calls.append((f"chain-{k}", fmt))
        maker = ref.TermMaker(rng)
        for j in range(self.RANDOM_TERMS):
            self.built[f"random-{j}"] = maker.redexes(self.RANDOM_REDEXES)
            self.calls.append((f"random-{j}",
                               ("trace-lines", "pretty")[j % 2]))
        for name, b in self.built.items():
            self.files[f"{name}.gt"] = b.term
        rng.shuffle(self.calls)

    def inputs(self):
        return {"files": self.files, "calls": self.calls}

    def setup(self, gk):
        return None

    def operations(self, gk, shared):
        d = self.workdir
        return [lambda argv=["reduce", "--term", str(d / f"{t}.gt"),
                             "--format", fmt]:
                run_verb(gk, argv) for t, fmt in self.calls]

    def check(self, gk, shared, outputs) -> list[str]:
        sx, tm = gk.sexpr, gk.terms
        parse = lambda s: sx.term_from_sexpr(sx.read_sexpr(s))
        problems = []
        for (t, fmt), (rc, text) in zip(self.calls, outputs):
            where = f"{t} ({fmt})"
            built = self.built[t]
            lines = text.splitlines()
            if rc != 0 or len(lines) < 2 or lines[-2] != "canonical:":
                problems.append(f"{where}: exit {rc}, output ends "
                                f"{text[-200:]!r}")
                continue
            steps = [ln for ln in lines if ln.startswith("step ")]
            want = [f"step {k}: {rule} at root"
                    for k, rule in enumerate(built.steps, start=1)]
            if steps != want:
                problems.append(f"{where}: {len(steps)} steps printed, "
                                f"{len(want)} expected, or not the rules built")
            result = parse(lines[-1])
            if result != parse(built.normal):
                problems.append(f"{where}: ends in {lines[-1][:80]}, not its "
                                "normal form")
            ty = tm.typecheck(result)
            if (not tm.is_primitive_head(result) or ty.antecedents
                    or sx.write_sexpr(sx.formula_to_sexpr(ty.succedent))
                    != built.ty):
                problems.append(f"{where}: result is not a primitive head of "
                                "the input's type")
            if fmt == "pretty":
                printed = [lines[i + 1] for i, ln in enumerate(lines)
                           if ln.startswith("step ")]
                if len(printed) != len(built.steps) or any(
                        p != s and parse(p) != parse(s)
                        for p, s in zip(printed, built.stages[1:])):
                    problems.append(f"{where}: a printed step does not parse "
                                    "back to the term after that step")
        return problems

    def make_up(self) -> dict:
        return {"chains": self.CHAINS,
                "random terms": self.RANDOM_TERMS,
                "redexes per random term": self.RANDOM_REDEXES,
                "random term sizes": sorted(
                    len(b.term) for n, b in self.built.items()
                    if n.startswith("random"))}


WORKLOADS = {w.name: w for w in (Classify, Translate, Reduce)}
