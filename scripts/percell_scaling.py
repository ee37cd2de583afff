"""Cost of the per-cell route of ``ito_integral`` as the grid doubles.

A functional without a state form is evaluated cell by cell on pre-step
paths.  This prints the CPU time of ``ito_integral`` over all levels for a
Python-API functional that reads only ``x.value(t)``, the growth factor per
doubling of N, the time per partition cell, and the final value's hex
digits so two trees can be compared bit for bit.  With ``--mixed E`` it
also times, at d = 2 and N = 2**E, a functional that reads the whole
history through ``.values``, and a product and a composition twice: over
bare twins of their parts (the same point methods without a state form, so
the per-cell route) and over the state parts themselves (one pass over the
grid).  The two routes must give the same final bits, else the script
exits 1.  Each time is the best of ``--repeat`` rounds; a round runs every
case once, so a busy spell on a shared host slows all cases alike instead
of one.

Run: python scripts/percell_scaling.py [--exponents 11 12 13 14] [--mixed 13]
"""

import argparse
import sys
import time

import numpy as np

from pathwise_ito import (
    AdmissibleIntegrand,
    Functional,
    GeneratorSpec,
    PartitionSequence,
    compose,
    coordinate,
    cylinder,
    generate,
    ito_integral,
    product,
)
from pathwise_ito.paths import default_num_levels


def value_only(d):
    return Functional(
        evaluate=lambda t, x, a: float(np.sum(x.value(t) ** 2)),
        d=d,
        vertical=lambda t, x, a: 2.0 * x.value(t),
        name="value-only",
    )


def last_row(d):
    return Functional(
        evaluate=lambda t, x, a: float(np.sum(x.values[-1] ** 2)),
        d=d,
        vertical=lambda t, x, a: 2.0 * x.values[-1],
        name="last-row",
    )


def bare(F):
    """F's point methods without its state form."""
    return Functional(d=F.d, m=F.m, x_domain=F.x_domain, name=F.name, **F._point)


def best_times(cases, repeat):
    """name -> (best CPU seconds, cells, final value) over ``repeat`` rounds."""
    best = {name: (float("inf"), 0, None) for name in cases}
    for _ in range(repeat):
        for name, (F, x) in cases.items():
            part = PartitionSequence(x.times, default_num_levels(x.n_points))
            start = time.process_time()
            res = ito_integral(AdmissibleIntegrand(F), x, part)
            secs = time.process_time() - start
            cells = sum(part.num_cells(n) for n in res.levels)
            best[name] = (min(best[name][0], secs), cells, float(res.final[-1]))
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exponents", type=int, nargs="+", default=[11, 12, 13, 14])
    ap.add_argument("--mixed", type=int, default=0, help="exponent of the d = 2 cases (0: skip)")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    cases = {}
    for e in args.exponents:
        x = generate(GeneratorSpec(kind="brownian", base_points=2**e, seed=42))
        cases[2**e] = (value_only(1), x)
    if args.mixed:
        x = generate(GeneratorSpec(kind="brownian", base_points=2**args.mixed, d=2, seed=42))
        cyl = cylinder(lambda t, xv, av: xv[0] * xv[1], d=2,
                       grad=lambda t, xv, av: np.array([xv[1], xv[0]]))
        sq = cylinder(lambda t, yv, av: yv[0] ** 2, d=1, grad=lambda t, yv, av: 2.0 * yv)
        x1 = coordinate(0, d=2)
        combinators = {
            "product(cylinder, coordinate)": lambda part: product(part(cyl), part(x1)),
            "compose(cylinder, [cylinder])": lambda part: compose(part(sq), [part(cyl)]),
        }
        for name, build in combinators.items():
            cases[f"{name}, bare twins"] = (build(bare), x)
            cases[f"{name}, state parts"] = (build(lambda F: F), x)
        cases["reads x.values[-1]"] = (last_row(2), x)
    best = best_times(cases, args.repeat)
    prev = None
    print(f"{'case':>43} {'seconds':>9} {'growth':>7} {'us/cell':>8}  final")
    for name, (secs, cells, final) in best.items():
        growth = f"{secs / prev:7.2f}" if isinstance(name, int) and prev else f"{'':>7}"
        prev = secs if isinstance(name, int) else None
        print(f"{str(name):>43} {secs:9.3f} {growth} {1e6 * secs / cells:8.2f}  {final.hex()}")
    if args.mixed:
        for name in combinators:
            twins, state = (best[f"{name}, {r}"][2].hex() for r in ("bare twins", "state parts"))
            if twins != state:
                print(f"{name}: per-cell final {twins} != state-route final {state}")
                sys.exit(1)


if __name__ == "__main__":
    main()
