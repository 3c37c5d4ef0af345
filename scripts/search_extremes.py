#!/usr/bin/env python3
"""Hunt for set triples with the largest reachable mixing defect.

Runs the greedy toggle search on each requested group and prints the
best defect found against the proven ceiling, plus how much of the gap
random triples leave on the table.  Useful for convincing yourself the
bound is loose in practice at these group sizes.

    python3 scripts/search_extremes.py --specs psl2:7 sl2:7 --budget 20000
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from qmix import (
    adversarial_search,
    build_group,
    compute_character_table,
    conjugacy_classes,
    random_ensemble,
    theta_defects,
)


@dataclass
class SearchRow:
    spec: str
    n: int
    D: int
    best_theta: float
    baseline_max_theta: float
    bound: float
    improvement_over_random: float
    sizes: tuple[int, int, int]


def run_one(args: argparse.Namespace, spec: str) -> SearchRow:
    G = build_group(spec)
    C = conjugacy_classes(G)
    T = compute_character_table(G, C)
    A1, A2, A3, rep = adversarial_search(
        G, T, budget=args.budget, restarts=args.restarts, seed=args.seed
    )
    streams = [
        random_ensemble(G, "indicator:0.5", (args.seed, 77, role), args.baseline_trials)
        for role in range(3)
    ]
    baseline = max(rep.theta for rep in theta_defects(*streams, T))
    return SearchRow(
        spec=spec,
        n=G.n,
        D=T.D,
        best_theta=rep.theta,
        baseline_max_theta=baseline,
        bound=rep.bound,
        improvement_over_random=rep.theta / baseline if baseline > 0 else float("inf"),
        sizes=(len(A1), len(A2), len(A3)),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", nargs="+", default=["psl2:5", "psl2:7", "sl2:7"])
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline-trials", type=int, default=20)
    parser.add_argument("--out", default=None, help="optional JSON path")
    args = parser.parse_args(argv)

    rows = [run_one(args, spec) for spec in args.specs]
    print(
        f"{'group':>10} {'n':>6} {'D':>3} {'searched':>12} {'random max':>12} "
        f"{'bound':>10} {'gain':>7}"
    )
    for row in rows:
        print(
            f"{row.spec:>10} {row.n:>6} {row.D:>3} {row.best_theta:>12.3e} "
            f"{row.baseline_max_theta:>12.3e} {row.bound:>10.4f} "
            f"{row.improvement_over_random:>7.2f}x"
        )

    if args.out:
        with open(args.out, "w") as fh:
            json.dump([asdict(row) for row in rows], fh, indent=2)
        print(f"wrote rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
