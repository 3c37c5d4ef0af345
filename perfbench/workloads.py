"""The benchmark's four workloads and the oracles that check their output.

Each workload runs the real ``qmix`` CLI in a closed loop: one client, one
CLI process at a time, the next command only after the previous one exits.
The seed given to the benchmark is passed to every command as ``--seed``,
so the same seed gives the same inputs.

Every oracle is independent of the kernel the workload times: progression
counts are recounted exactly in integers by a row-by-row loop over the
dense table that composes ``(x*y)*y`` instead of using the square map, and
character tables are compared with closed forms for their family.

Layer -> end-to-end predictions.  Each ROADMAP item that plans to change a
layer has one workload that exercises it and one that bypasses it:

* class convolution (O(n^4) GEMM, ROADMAP item 2): exercised by
  ``certify``; ``mix``, ``search`` and ``chartab-lazy`` stay unchanged.
* progression gather (batching, ROADMAP item 2): exercised by ``mix`` and,
  differently, by ``search``; ``certify`` and ``chartab-lazy`` stay
  unchanged.  A ``mix`` gain that costs ``search`` shows there.
* lazy group access (table-free backend, ROADMAP item 3): exercised by
  ``chartab-lazy``; it must not worsen the dense-table workloads.
* incremental search (ROADMAP item 4): exercised by ``search`` only.

Coverage gaps found while sizing these workloads, left for later work:

* ``read_group``/``validate_group`` is on no CLI path.  ``read_group``
  took 9.1 s at n=2184 and 1.8 s at n=1092.
* Sampled gamma took 48 s for one trial on ``sl2:13`` and 7.7 s on
  ``psl2:13``: too slow for a workload today.
* ``verify <n > 512> --suite all`` exits 2 because of the chain's size cap
  (``CHAIN_CLI_MAX_ORDER``), so ``certify`` cannot use a larger group.

(Times from a shared 2-vCPU x86-64 VM, Python 3.11, numpy 2.4 with
OpenBLAS; the same command varies by about 25% there from minute to
minute.)

Sizes are chosen so that one run of each workload takes 1-4 s: a median
over many short runs in one measuring window is steadier on a noisy
machine than a median over two or three long ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

# Absolute slack between a reported theta and the exact rational value.
# Indicator sums below 2**53 are exact in float64, so the CLI's theta is
# off only by the final division and subtraction.
THETA_TOL = 1e-12
# mix trials whose theta is recounted per run; the rest are size-checked.
MIX_RECOUNTS = 3


@dataclass(frozen=True)
class Checked:
    """What an oracle found in one workload run's output."""

    rows: int
    failed: int
    search_theta: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    predictions: tuple[str, ...]
    # The group the oracle checks against; its order n scales
    # mixing.theta_defect.terms_per_s.
    group: str
    # CLI argv lists without --seed; run one after the other.
    commands: tuple[tuple[str, ...], ...]
    # Output rows one run should emit; a run that cannot be parsed counts
    # this many failures.
    rows: int
    # (stdout texts, seed, run index, built group) -> Checked
    check: Callable[..., Checked]


def _failed_rows(rows: list, ok: Callable[[int, dict], bool]) -> int:
    return sum(1 for i, row in enumerate(rows) if not ok(i, row))


def check_certify(outputs, seed, run, G, *, spec, trials) -> Checked:
    rows = json.loads(outputs[0])
    if len(rows) != 5 * trials + 1:
        return Checked(len(rows), 5 * trials + 1)
    failed = _failed_rows(
        rows,
        lambda i, r: r["passed"] is True and r["group"] == spec and r["seed"] == seed,
    )
    return Checked(len(rows), failed)


def progression_count(t: np.ndarray, a1, a2, a3) -> int:
    """#{(x, y): x in A1, xy in A2, xy^2 in A3} by a loop over rows x.

    Takes boolean membership vectors and the dense table ``t``; composes
    xy^2 as (xy)y, so it shares no code with qmix's square-map kernels.
    """
    ar = np.arange(t.shape[0])
    total = 0
    for x in np.flatnonzero(a1):
        xy = t[x]
        total += int(np.count_nonzero(a2[xy] & a3[t[xy, ar]]))
    return total


def exact_theta(t: np.ndarray, a1, a2, a3) -> float:
    n = t.shape[0]
    count = progression_count(t, a1, a2, a3)
    sizes = [int(np.count_nonzero(a)) for a in (a1, a2, a3)]
    return float(abs(Fraction(count, n * n) - Fraction(math.prod(sizes), n**3)))


def mix_sets(seed: int, n: int, density: float, trials: int) -> list[list[np.ndarray]]:
    """The random sets of ``qmix mix --random``: sets[role][trial].

    Replays the stream the CLI draws from (one
    ``default_rng((seed, 11 + role))`` per role, one ``random(n) < density``
    draw per trial) without calling qmix, so a change to that stream shows
    as a size mismatch.
    """
    sets = []
    for role in range(3):
        rng = np.random.default_rng((seed, 11 + role))
        sets.append([rng.random(n) < density for _ in range(trials)])
    return sets


def check_mix(outputs, seed, run, G, *, trials, density) -> Checked:
    rows = json.loads(outputs[0])
    if len(rows) != trials:
        return Checked(len(rows), trials)
    t = G.mul
    sets = mix_sets(seed, G.n, density, trials)
    # Recount theta for a few trials per run, a different few each run.
    picks = {(run * MIX_RECOUNTS + j) % trials for j in range(MIX_RECOUNTS)}

    def ok(i: int, r: dict) -> bool:
        a = [sets[role][i] for role in range(3)]
        if not (r["passed"] is True and r["trial"] == i):
            return False
        if r["sizes"] != [int(np.count_nonzero(v)) for v in a]:
            return False
        return i not in picks or abs(r["theta"] - exact_theta(t, *a)) <= THETA_TOL

    return Checked(len(rows), _failed_rows(rows, ok))


def check_search(outputs, seed, run, G) -> Checked:
    row = json.loads(outputs[0])
    members = []
    for key in ("A1", "A2", "A3"):
        a = np.zeros(G.n, dtype=bool)
        a[np.asarray(row["sets"][key], dtype=np.int64)] = True
        members.append(a)
    ok = (
        row["passed"] is True
        and row["sizes"] == [int(np.count_nonzero(a)) for a in members]
        and abs(row["theta"] - exact_theta(G.mul, *members)) <= THETA_TOL
    )
    return Checked(1, 0 if ok else 1, search_theta=float(row["theta"]))


def _partitions(m: int, largest: int | None = None):
    """Every partition of m into parts of at most ``largest``, as tuples."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _alt_classes(m: int) -> int:
    """Class count of Alt(m): even cycle types, doubled when the parts are
    distinct and odd."""
    k = 0
    for p in _partitions(m):
        if sum(1 for x in p if x % 2 == 0) % 2 == 0:
            k += 2 if len(set(p)) == len(p) and all(x % 2 for x in p) else 1
    return k


def closed_form(spec: str) -> tuple[int, int, int]:
    """(n, k, D) from known formulas for sl2:p (odd prime p), sym:m and
    alt:m (m >= 6)."""
    family, arg = spec.split(":")
    q = int(arg)
    if family == "sl2":
        return q * (q * q - 1), q + 4, (q - 1) // 2
    if family == "sym":
        return math.factorial(q), sum(1 for _ in _partitions(q)), 1
    if family == "alt" and q >= 6:
        return math.factorial(q) // 2, _alt_classes(q), q - 1
    raise ValueError(f"no closed form for {spec}")


def check_chartab(outputs, seed, run, G, *, specs) -> Checked:
    failed = 0
    for text, spec in zip(outputs, specs):
        rep = json.loads(text)
        n, k, D = closed_form(spec)
        d = rep["degrees"]
        ok = (
            rep["group"] == spec
            and (rep["n"], rep["k"], rep["D"]) == (n, k, D)
            and len(d) == k
            and d[0] == 1
            and d == sorted(d)
            and d[1] == D
            and sum(x * x for x in d) == n
        )
        failed += not ok
    return Checked(len(specs), failed)


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` swaps in small groups for the smoke test."""
    certify_group = "sl2:5" if tiny else "sl2:7"
    mix_group = "sl2:5" if tiny else "sl2:13"
    mix_trials = 3 if tiny else 10
    search_group = "psl2:5" if tiny else "psl2:13"
    search_budget = 2000 if tiny else 100000
    lazy_groups = ("sl2:5", "alt:6") if tiny else ("sl2:23", "alt:8")

    out = [
        Workload(
            name="certify",
            why=(
                "full lemma certification; the only workload dominated by the "
                "O(n^4) class-convolution GEMM and the chain's O(n^3) pass"
            ),
            predictions=(
                "fourier.spectral_profile/mu_translated_class/convolve -> wall_s",
                "mixing.gamma_functional, mixing.cs_chain_diagnostics -> wall_s",
                "mixing.verify_bnp, mixing.verify_derivative_bound -> wall_s (small)",
                "cli.main.self_s (rendering, hashing) -> wall_s",
                "progression-gather and lazy-group changes -> no change here",
            ),
            group=certify_group,
            commands=(
                (
                    "verify", certify_group, "--suite", "all",
                    "--trials", "1", "--format", "json",
                ),
            ),
            rows=6,
            check=partial(check_certify, spec=certify_group, trials=1),
        ),
        Workload(
            name="mix",
            why=(
                "the paper's headline theta measurement: O(n^2) progression "
                "gather over a cache-resident dense table; bypasses class convolution"
            ),
            predictions=(
                "mixing.theta_defect.s, .terms_per_s -> wall_s",
                "mixing.random_ensemble.s -> wall_s, peak_rss_mb",
                "groups.build_group.s (small) -> setup_s",
                "class-convolution and lazy-group changes -> no change here",
            ),
            group=mix_group,
            commands=(
                (
                    "mix", mix_group, "--random", "0.5",
                    "--trials", str(mix_trials), "--format", "json",
                ),
            ),
            rows=mix_trials,
            check=partial(check_mix, trials=mix_trials, density=0.5),
        ),
        Workload(
            name="search",
            why=(
                "greedy worst-case hunt: integer sensitivity tables and dependent "
                "steps use the gather layer unlike mix, so a mix-only gain that costs this shows"
            ),
            predictions=(
                "mixing.adversarial_search.self_s -> wall_s, search_theta",
                "mixing.count_progressions.s -> wall_s",
                "class-convolution and lazy-group changes -> no change here",
            ),
            group=search_group,
            commands=(
                (
                    "search", search_group, "--budget", str(search_budget),
                    "--restarts", "1", "--format", "json",
                ),
            ),
            rows=1,
            check=check_search,
        ),
        Workload(
            name="chartab-lazy",
            why=(
                "character tables of sl2:23 and alt:8 with no dense table; the only "
                "workload where groups and chartab do most of the work"
            ),
            predictions=(
                "groups.build_group.s, .calls -> setup_s",
                "chartab.conjugacy_classes.s -> setup_s",
                "chartab.class_mult_coefficients.s, .calls -> setup_s",
                "chartab.compute_character_table.self_s -> setup_s",
                "cli.import_s -> wall_s (largest share here)",
                "class-convolution and progression-gather changes -> no change here",
            ),
            group=lazy_groups[0],
            commands=tuple(
                ("chartab", spec, "--format", "json") for spec in lazy_groups
            ),
            rows=len(lazy_groups),
            check=partial(check_chartab, specs=lazy_groups),
        ),
    ]
    return {w.name: w for w in out}
