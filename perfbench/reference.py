"""Reference timings of the heavy rungs kept out of the timed runs.

    python3 perfbench/reference.py [--limit 60] [--seed 1]

Each rung runs in a fresh interpreter that is stopped after ``--limit``
seconds; the table gives wall seconds, or ``>limit`` for a rung that did
not finish.  Run from the root of a foliatk checkout.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name, variables, degrees, terms per generator; for class_of: name,
# variables, pairs r, generator degree, terms per generator
FIBRATION_RUNGS = [
    ("fibration 4 vars (2,3), 5 terms", 4, (2, 3), (5, 5)),
    ("fibration 4 vars (2,3), 8 terms", 4, (2, 3), (8, 8)),
    ("fibration 5 vars (2,3,3), 6 terms", 5, (2, 3, 3), (6, 6, 6)),
    ("fibration 6 vars (2,2,3,3), 6 terms", 6, (2, 2, 3, 3), (6, 6, 6, 6)),
    ("fibration 6 vars (3,3,4), 6 terms", 6, (3, 3, 4), (6, 6, 6)),
]
CLASS_RUNGS = [("class_of r=3, 7 vars, degree 2, 3 terms", 7, 3, 2, 3)]

CHILD = """
import random, sys
sys.path[:0] = [{bench!r}, {src!r}]
from foliatk import distribution as dist, foliation as fol
from foliatk.polynomials import MultiPoly
from inputs import independent_generators
rng = random.Random({seed!r})
kind, nvars, a, b = {args!r}
if kind == "fibration":
    gens = independent_generators(rng, nvars, a, b)
    comp = fol.build_rational_component([MultiPoly(nvars, g) for g in gens], list(a))
    assert fol.component_first_integral_check(comp) is True
else:
    degree, terms = b
    gens = independent_generators(rng, nvars, [degree] * (2 * a), [terms] * (2 * a))
    contact = dist.build_contact_type([MultiPoly(nvars, g) for g in gens])
    assert dist.class_of(contact.omega) == a
"""


def time_rung(args, seed: str, limit: float) -> str:
    code = CHILD.format(bench=str(HERE), src=str(HERE.parent / "src"), seed=seed, args=args)
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", code], check=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return f">{limit:g}"
    return f"{time.perf_counter() - start:.2f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rows = [(name, ("fibration", n, d, t)) for name, n, d, t in FIBRATION_RUNGS]
    rows += [(name, ("class", n, r, (deg, terms))) for name, n, r, deg, terms in CLASS_RUNGS]
    for name, rung in rows:
        print(f"{name:42s} {time_rung(rung, f'reference:{args.seed}:{name}', args.limit)} s",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
