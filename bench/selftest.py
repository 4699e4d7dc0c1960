#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that a seed fixes the inputs byte for byte, that different seeds give
different inputs, and that every workload's checks pass on the program's
real answers but reject deliberately wrong ones (a flipped verdict, a wrong
step count, a wrong classification, a wrong design).  The slow operations of
`reduce` and `translate` are left out to keep it quick.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / ".out" / "selftest"


def expect(cond: bool, what: str) -> None:
    print(f"{'ok' if cond else 'FAIL'}: {what}")
    if not cond:
        sys.exit(1)


def rejects(w, gk, shared, outputs, i, wrong, what) -> None:
    tampered = list(outputs)
    tampered[i] = wrong
    expect(bool(w.check(gk, shared, tampered)), f"{w.name} check rejects {what}")


def main() -> int:
    for name, cls in workloads.WORKLOADS.items():
        a = cls(7, OUT / f"{name}-a").inputs_bytes()
        b = cls(7, OUT / f"{name}-b").inputs_bytes()
        c = cls(8, OUT / f"{name}-c").inputs_bytes()
        expect(a == b, f"{name}: seed 7 gives byte-identical inputs twice")
        expect(a != c, f"{name}: seeds 7 and 8 give different inputs")

    gk = run.import_groundkit()

    w = workloads.Classify(3, OUT / "classify")
    shared = w.setup(gk)
    outs = [op() for op in w.operations(gk, shared)]
    expect(w.check(gk, shared, outs) == [], "classify check passes real verdicts")
    first = {v: next(i for i, c in enumerate(w.candidates) if c[2] == v)
             for v in workloads.VERDICTS}
    ground = first["Ground"]
    rejects(w, gk, shared, outs, ground, "NotInBehaviour",
            "Ground flipped to NotInBehaviour")
    rejects(w, gk, shared, outs, first["NotInBehaviour"], "Ground",
            "NotInBehaviour flipped to Ground")
    rejects(w, gk, shared, outs, first["PseudoGround(contains-daimon)"],
            "Ground", "a member containing † reported Ground")
    rejects(w, gk, shared, outs, ground, "PseudoGround(not-material)",
            "a Ground member reported not material")

    w = workloads.Reduce(3, OUT / "reduce")
    w.calls = [c for c in w.calls
               if c[0].startswith("random") or len(w.built[c[0]].steps) <= 50]
    w.write_files()
    outs = [op() for op in w.operations(gk, None)]
    expect(w.check(gk, None, outs) == [], "reduce check passes real output")
    chain = next(i for i, c in enumerate(w.calls) if c[0].startswith("chain"))
    rc, text = outs[chain]
    lines = text.splitlines()
    step1 = next(k for k, ln in enumerate(lines) if ln.startswith("step"))
    rejects(w, gk, None, outs, chain,
            (rc, "\n".join(lines[:step1] + lines[step1 + 1:]) + "\n"),
            "a chain reduced in one step too few")
    rejects(w, gk, None, outs, chain,
            (rc, "\n".join(lines[:step1 + 1] + lines[step1:]) + "\n"),
            "a chain reduced in one step too many")
    rejects(w, gk, None, outs, chain, (1, text), "a negative exit code")
    rnd = next(i for i, c in enumerate(w.calls) if c[0].startswith("random"))
    other = next(i for i, c in enumerate(w.calls)
                 if c[0].startswith("random") and i != rnd)
    rc, text = outs[rnd]
    wrong_end = "\n".join(text.splitlines()[:-1]
                          + [outs[other][1].splitlines()[-1]]) + "\n"
    rejects(w, gk, None, outs, rnd, (rc, wrong_end), "a wrong normal form")

    w = workloads.Translate(3, OUT / "translate")
    w.calls = [c for c in w.calls if c[0] == 0]
    w.write_files()
    outs = [op() for op in w.operations(gk, None)]
    expect(w.check(gk, None, outs) == [], "translate check passes real output")
    cc = next(i for i, c in enumerate(w.calls) if c[1] == "copycat-absurd")
    rc, text = outs[cc]
    rejects(w, gk, None, outs, cc,
            (rc, text.replace("PseudoGround(not-material)", "Ground")),
            "the copycat in 0→0 classified Ground")
    app = next(i for i, c in enumerate(w.calls) if c[1] == "apply-2")
    rc, text = outs[app]
    rejects(w, gk, None, outs, app,
            (rc, text.replace("classification: Ground",
                              "classification: PseudoGround(not-material)")),
            "an application classified unlike its constant")
    rejects(w, gk, None, outs, app, (rc, text.replace("(+ ", "(- ", 1)),
            "an application printed with a wrong design")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
