#!/usr/bin/env python3
"""Measure how the three-term mixing defect shrinks across a group family.

For each group, draws seeded random indicator triples at a fixed density
and reports the median and maximum defect next to the proven ceiling.
The interesting picture is the monotone drop as the minimal nontrivial
representation degree grows.

    python3 scripts/decay_curve.py --specs sl2:5 sl2:7 sl2:11 sl2:13
"""

import argparse
import csv
import sys
from dataclasses import dataclass, field

import numpy as np

from qmix import (
    build_group,
    compute_character_table,
    conjugacy_classes,
    random_ensemble,
    theta_defects,
)


@dataclass
class DecayRow:
    spec: str
    n: int
    D: int
    median_theta: float
    max_theta: float
    bound: float
    samples: list = field(repr=False, default_factory=list)


def measure(args: argparse.Namespace) -> list[DecayRow]:
    rows = []
    for spec in args.specs:
        G = build_group(spec)
        C = conjugacy_classes(G)
        T = compute_character_table(C)
        kind = f"indicator:{args.density}"
        streams = [
            random_ensemble(G, kind, (args.seed, G.n, role), args.trials)
            for role in range(3)
        ]
        reports = theta_defects(*streams, T)
        thetas = [rep.theta for rep in reports]
        rows.append(
            DecayRow(
                spec=spec,
                n=G.n,
                D=T.D,
                median_theta=float(np.median(thetas)),
                max_theta=float(max(thetas)),
                bound=reports[0].bound,
                samples=thetas,
            )
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", nargs="+", default="sl2:5 sl2:7 sl2:11 sl2:13".split())
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--density", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    rows = measure(args)
    print(f"{'group':>10} {'n':>6} {'D':>3} {'median':>12} {'max':>12} {'bound':>10}")
    for row in rows:
        print(
            f"{row.spec:>10} {row.n:>6} {row.D:>3} {row.median_theta:>12.3e} "
            f"{row.max_theta:>12.3e} {row.bound:>10.4f}"
        )
    medians = [r.median_theta for r in rows]
    if len(medians) > 1:
        trend = "strictly decreasing" if all(
            a > b for a, b in zip(medians, medians[1:])
        ) else "NOT monotone"
        print(f"median trend across listed groups: {trend}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "n", "D", "trial", "theta", "bound"])
            for row in rows:
                for t, theta in enumerate(row.samples):
                    writer.writerow([row.spec, row.n, row.D, t, repr(theta), row.bound])
        print(f"wrote per-trial samples to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
