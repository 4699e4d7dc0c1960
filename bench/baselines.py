#!/usr/bin/env python3
"""Reference figures for the benchmark's README.

    python3 bench/baselines.py

Prints, for this machine:
- the bounded membership sweep `members(1)` at depth 2 over the full
  two-index pool (6,726 candidates, each tested against the 80 designs of
  the orthogonal), timed with nothing attached;
- the share of that sweep's orthogonality time spent in `make_cutnet`, from
  cProfile and from the benchmark's own spans;
- `terms.normalize` on identity-application chains of 25 to 300 redexes.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    gk = run.import_groundkit()
    beh, ds, sx, tm = gk.behaviours, gk.designs, gk.sexpr, gk.terms
    xi = (0,)
    bounds = beh.UniverseBounds(2, beh.full_pool(1),
                                ds.Pitchfork(None, frozenset({xi})))
    one = beh.behaviour([ds.atomic_bomb(xi)], bounds)
    n = len(beh.enumerate_universe(bounds))
    t0 = time.perf_counter()
    found = beh.members(one)
    secs = time.perf_counter() - t0
    print(f"members(1): {len(found)} members of {n} candidates × "
          f"{len(one.cached_orthogonal)} tests in {secs:.2f} s")

    prof = cProfile.Profile()
    prof.runcall(beh.members, one)
    stats = pstats.Stats(prof).stats
    cum = {f[2]: v[3] for f, v in stats.items()
           if f[0].endswith(("interaction.py",))}
    print(f"cProfile: make_cutnet {cum['make_cutnet']:.2f} s of "
          f"orthogonal {cum['orthogonal']:.2f} s "
          f"({100 * cum['make_cutnet'] / cum['orthogonal']:.0f} %)")

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    gk.behaviours.members(one)
    tracer.uninstall()
    s = tracer.summary()["ops"]
    share = s["interaction.make_cutnet"]["total_ns"] / \
        s["interaction.orthogonal"]["total_ns"]
    print(f"spans: make_cutnet {100 * share:.0f} % of orthogonal time")

    for length in (25, 50, 100, 200, 300):
        built = ref.identity_chain(length, "c", "(atom A)", "x")
        term = sx.term_from_sexpr(sx.read_sexpr(built.term))
        t0 = time.perf_counter()
        out = tm.normalize(term)
        ms = 1000 * (time.perf_counter() - t0)
        print(f"normalize chain of {length}: {len(out.trace)} steps in "
              f"{ms:.1f} ms ({1000 * ms / length:.0f} µs/step)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
