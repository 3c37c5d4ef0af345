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


@dataclass(frozen=True)
class SearchConfig:
    specs: tuple[str, ...] = ("psl2:5", "psl2:7", "sl2:7")
    budget: int = 10_000
    restarts: int = 5
    seed: int = 1
    baseline_trials: int = 20
    out: str | None = None


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


def run_one(cfg: SearchConfig, spec: str) -> SearchRow:
    G = build_group(spec)
    C = conjugacy_classes(G)
    T = compute_character_table(G, C)
    A1, A2, A3, rep = adversarial_search(
        G, T, budget=cfg.budget, restarts=cfg.restarts, seed=cfg.seed
    )
    streams = [
        random_ensemble(G, "indicator:0.5", (cfg.seed, 77, role), cfg.baseline_trials)
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
    parser.add_argument("--specs", nargs="+", default=list(SearchConfig.specs))
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline-trials", type=int, default=20)
    parser.add_argument("--out", default=None, help="optional JSON path")
    args = parser.parse_args(argv)
    cfg = SearchConfig(
        specs=tuple(args.specs),
        budget=args.budget,
        restarts=args.restarts,
        seed=args.seed,
        baseline_trials=args.baseline_trials,
        out=args.out,
    )

    rows = [run_one(cfg, spec) for spec in cfg.specs]
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

    if cfg.out:
        with open(cfg.out, "w") as fh:
            json.dump([asdict(row) for row in rows], fh, indent=2)
        print(f"wrote rows to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
