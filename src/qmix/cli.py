"""Command-line front end.

Exit code contract: 0 means every requested check passed; 1 means a
mathematical assertion failed (a bug certificate, with a replayable
witness printed to stderr); 2 means the input or usage was invalid.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .chartab import (
    character_table_csv,
    character_table_report,
    compute_character_table,
    conjugacy_classes,
)
from .errors import CertificationError, QmixError
from .fourier import GroupFunction, indicator_function
from .groups import CHUNK, build_group, is_abelian
from .mixing import (
    LemmaReport,
    cs_chain_diagnostics,
    adversarial_search,
    check_budget,
    gamma_functional,
    random_ensemble,
    theta_defects,
    verify_bnp,
    verify_derivative_bound,
    verify_fcmu,
    verify_parseval,
)

QUASIRANDOM_SUITES = {"bnp", "derivative", "gamma"}
DEFAULT_SEED = 42
DEFAULT_TRIALS = 100


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.6g}"
    return str(x)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _hash_functions(*fns: GroupFunction) -> str:
    # Imported here, the one place that hashes: hashlib loads OpenSSL, which
    # chartab and group do not need.
    import hashlib

    h = hashlib.sha256()
    for f in fns:
        # The complex128 conversion, so a digest does not depend on the kind.
        h.update(np.asarray(f.values, dtype=np.complex128).tobytes())
    return h.hexdigest()[:16]


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _json_row(row: dict) -> dict:
    """A copy of row with every infinite float as None, since JSON has no
    Infinity.  It marks nothing vacuous: mix and search rows carry
    ``vacuous`` from their report, and every verify rhs is finite."""
    return {
        key: None if isinstance(val, float) and math.isinf(val) else val
        for key, val in row.items()
    }


def _write_rows(rows, columns: list[str], fmt: str, out: str | None) -> list[dict]:
    """Write each row of the iterable as it comes and return the failed
    ones.  The bytes are those of the whole list rendered at once: JSON
    as json.dumps(rows, indent=2), CSV under a header line, text one row
    a line, each with a final newline.  Nothing is written, and --out is
    not opened, before the first row; a raise later leaves the rows
    already written.
    """
    failed, stream = [], None
    try:
        for row in rows:
            if not row["passed"]:
                failed.append(row)
            if fmt == "json":
                text = json.dumps(_json_row(row), indent=2, default=_json_default)
                text = "  " + text.replace("\n", "\n  ")
            elif fmt == "csv":
                text = ",".join(_fmt(row.get(c)) for c in columns)
            else:
                text = " ".join(f"{c}={_fmt(row.get(c))}" for c in columns)
            if stream is None:
                stream = open(out, "w") if out else sys.stdout
                head = {"json": "[\n", "csv": ",".join(columns) + "\n"}.get(fmt, "")
            else:
                head = ",\n" if fmt == "json" else "\n"
            stream.write(head + text)
        if stream is None:
            _emit({"json": "[]", "csv": ",".join(columns)}.get(fmt, ""), out)
        else:
            stream.write("\n]\n" if fmt == "json" else "\n")
    finally:
        if stream is not None and stream is not sys.stdout:
            stream.close()
    return failed


def cmd_group(args) -> int:
    G = build_group(args.spec)
    C = conjugacy_classes(G)
    info = {
        "group": args.spec,
        "n": G.n,
        "abelian": is_abelian(G),
        "classes": C.k,
    }
    if args.format == "json":
        _emit(json.dumps(info, indent=2), args.out)
    else:
        _emit(" ".join(f"{k}={_fmt(v)}" for k, v in info.items()), args.out)
    return 0


def cmd_chartab(args) -> int:
    T = compute_character_table(conjugacy_classes(build_group(args.spec)))
    if args.format == "csv":
        _emit(character_table_csv(T), args.out)
        return 0
    report = character_table_report(T)
    report["group"] = args.spec
    if args.format == "json":
        _emit(json.dumps(report, indent=2, default=_json_default), args.out)
        return 0
    lines = [
        f"group={args.spec} n={T.n} k={T.k}",
        f"degrees={report['degrees']}",
        f"D={T.D}" + (" (not quasirandom)" if T.D < 2 else ""),
        f"zeta1={_fmt(report['zeta1'])}",
        f"orthogonality_residual={_fmt(T.residual)}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def _lemma_row(rep: LemmaReport, trial: int, *fns: GroupFunction) -> dict:
    # Every lemma is computed exactly; "mode" and "stderr" keep the row's
    # shape as constants.
    return {
        "lemma_id": rep.lemma_id,
        "trial": trial,
        "mode": "exhaustive",
        "lhs": rep.lhs_value,
        "rhs": rep.rhs_bound,
        "margin": rep.margin,
        "stderr": None,
        "passed": rep.passed,
        "hash": _hash_functions(*fns) if fns else None,
    }


def _draws(G, kind: str, seed, count: int):
    """The functions of random_ensemble(G, kind, seed, count), drawn one
    at a time from one Generator as they are read, so a run holds only
    the functions its check reads."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_ensemble(G, kind, rng, 1)[0]


def _verify_bnp_rows(T, args):
    G = T.classes.group
    fns = _draws(G, "mean_zero_rademacher", (args.seed, 101), 2 * args.trials)
    for i, (f1, f2) in enumerate(zip(fns, fns)):
        yield _lemma_row(verify_bnp(f1, f2, T, tol=args.tol), i, f1, f2)


def _verify_derivative_rows(T, args):
    fns = _draws(T.classes.group, "mean_zero_rademacher", (args.seed, 102), args.trials)
    for i, f in enumerate(fns):
        yield _lemma_row(verify_derivative_bound(f, T, tol=args.tol), i, f)


def _verify_gamma_rows(T, args):
    fns = _draws(T.classes.group, "mean_zero_rademacher", (args.seed, 103), args.trials)
    for i, f in enumerate(fns):
        yield _lemma_row(gamma_functional(f, T, tol=args.tol), i, f)


def _verify_fcmu_rows(T, args):
    yield _lemma_row(verify_fcmu(T, args.tol), 0)


def _verify_parseval_rows(T, args):
    fns = _draws(T.classes.group, "unimodular", (args.seed, 105), args.trials)
    for i, f in enumerate(fns):
        yield _lemma_row(verify_parseval(f, T, args.tol), i, f)


def _verify_chain_rows(T, args):
    G = T.classes.group
    pair = _draws(G, "rademacher", (args.seed, 106), 2 * args.trials)
    thirds = _draws(G, "mean_zero_rademacher", (args.seed, 107), args.trials)
    for i, triple in enumerate(zip(pair, pair, thirds)):
        rep = cs_chain_diagnostics(*triple, T, tol=max(args.tol, 1e-9))
        yield {**_lemma_row(rep.lemma, i, *triple), "values": dict(rep.values)}


_SUITE_RUNNERS = {
    "bnp": _verify_bnp_rows,
    "derivative": _verify_derivative_rows,
    "gamma": _verify_gamma_rows,
    "fcmu": _verify_fcmu_rows,
    "parseval": _verify_parseval_rows,
    "chain": _verify_chain_rows,
}


def cmd_verify(args) -> int:
    suites = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    if suites == ["fcmu"] and args.trials is not None:
        raise QmixError("--trials does not apply to --suite fcmu, which runs once")
    if suites == ["fcmu"] and args.seed is not None:
        raise QmixError("--seed does not apply to --suite fcmu, which draws nothing")
    if args.trials is None:
        args.trials = DEFAULT_TRIALS
    if args.seed is None:
        args.seed = DEFAULT_SEED
    C = conjugacy_classes(build_group(args.spec))
    for s in suites:
        check_budget(s, C)
    T = compute_character_table(C)
    if any(s in QUASIRANDOM_SUITES for s in suites) and T.D < 2:
        raise QmixError(f"{args.spec} is not quasirandom (D={T.D}); suite requires D >= 2")

    def rows():
        for s in suites:
            for row in _SUITE_RUNNERS[s](T, args):
                row["group"] = args.spec
                row["n"] = T.n
                row["D"] = T.D
                row["seed"] = args.seed
                yield row

    columns = "group n D lemma_id trial mode lhs rhs margin stderr seed passed".split()
    failed = _write_rows(rows(), columns, args.format, args.out)
    for r in failed:
        replay = f"qmix verify {args.spec} --suite {r['lemma_id']}"
        if r["lemma_id"] != "fcmu":
            replay += f" --trials {args.trials} --seed {args.seed}"
        replay += f" --tol {args.tol!r}"
        print(
            f"FAIL lemma={r['lemma_id']} trial={r['trial']} seed={args.seed} "
            f"hash={r.get('hash')} -- replay: {replay}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _mixing_row(rep, trial: int, sizes: tuple[int, int, int]) -> dict:
    return {
        "trial": trial,
        "sizes": list(sizes),
        "theta": rep.theta,
        "raw_re": rep.raw_expectation.real,
        "raw_im": rep.raw_expectation.imag,
        "prod_re": rep.product_of_means.real,
        "prod_im": rep.product_of_means.imag,
        "bound": rep.bound,
        "margin": rep.margin,
        "vacuous": rep.vacuous,
        "passed": rep.theta <= rep.bound + 1e-9,
    }


def _parse_sets_arg(arg: str) -> list[list[int]]:
    text = Path(arg[1:]).read_text() if arg.startswith("@") else arg
    data = json.loads(text)
    if not (
        isinstance(data, list)
        and len(data) == 3
        and all(isinstance(s, list) for s in data)
    ):
        raise QmixError("sets must be a JSON array of three index arrays")
    return data


def cmd_mix(args) -> int:
    if args.sets is not None and args.random is not None:
        raise QmixError("--sets and --random are mutually exclusive")
    if args.sets is not None and (args.trials is not None or args.seed is not None):
        raise QmixError("--trials and --seed apply only to --random, not --sets")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.trials is None:
        args.trials = DEFAULT_TRIALS
    if args.sets is None and args.random is None:
        raise QmixError("mix needs either --sets or --random")
    G = build_group(args.spec)
    T = compute_character_table(conjugacy_classes(G))
    if args.sets is not None:
        blocks = [[[indicator_function(G, s)] for s in _parse_sets_arg(args.sets)]]
    else:
        # CHUNK triples at a time, each role drawn from its own stream, as
        # bool indicators: 3n bytes a triple.
        kind = f"indicator:{args.random}"
        roles = [_draws(G, kind, (args.seed, 11 + r), args.trials) for r in range(3)]
        blocks = (
            [list(itertools.islice(fns, CHUNK)) for fns in roles]
            for _ in range(0, args.trials, CHUNK)
        )
    def rows():
        trials = itertools.count()
        for streams in blocks:
            for rep, *triple in zip(theta_defects(*streams, T), *streams):
                sizes = tuple(int(np.count_nonzero(f.values)) for f in triple)
                row = _mixing_row(rep, next(trials), sizes)
                row["group"] = args.spec
                row["n"] = G.n
                row["D"] = T.D
                if args.format == "csv":
                    row["sizes"] = "|".join(str(s) for s in row["sizes"])
                yield row

    columns = (
        "group n D trial sizes theta raw_re raw_im prod_re prod_im "
        "bound margin vacuous passed"
    ).split()
    failed = _write_rows(rows(), columns, args.format, args.out)
    for r in failed:
        print(
            f"FAIL theta={_fmt(r['theta'])} exceeds bound={_fmt(r['bound'])} "
            f"trial={r['trial']} seed={args.seed}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_search(args) -> int:
    G = build_group(args.spec)
    T = compute_character_table(conjugacy_classes(G))
    if args.budget < 3 * G.n:
        print(
            f"note: --budget {args.budget} is below 3n = {3 * G.n}, the cost of one "
            "greedy step, so no step runs and the seeded start is reported",
            file=sys.stderr,
        )
    A1, A2, A3, rep = adversarial_search(
        T, budget=args.budget, restarts=args.restarts, seed=args.seed
    )
    row = _mixing_row(rep, 0, (len(A1), len(A2), len(A3)))
    row["group"] = args.spec
    row["n"] = G.n
    row["D"] = T.D
    sets = {"A1": A1.tolist(), "A2": A2.tolist(), "A3": A3.tolist()}
    if args.format == "json":
        row["sets"] = sets
        _emit(json.dumps(_json_row(row), indent=2, default=_json_default), args.out)
    else:
        lines = [
            f"group={args.spec} n={G.n} D={T.D}",
            f"best_theta={_fmt(rep.theta)} bound={_fmt(rep.bound)} "
            f"margin={_fmt(rep.margin)} vacuous={rep.vacuous}",
            f"A1={json.dumps(sets['A1'])}",
            f"A2={json.dumps(sets['A2'])}",
            f"A3={json.dumps(sets['A3'])}",
        ]
        _emit("\n".join(lines), args.out)
    if not row["passed"]:
        print(
            f"FAIL theta={_fmt(rep.theta)} exceeds bound={_fmt(rep.bound)} "
            f"seed={args.seed} budget={args.budget} restarts={args.restarts}",
            file=sys.stderr,
        )
        return 1
    return 0


def tolerance(text: str) -> float:
    """argparse type of verify --tol: a nan or inf tolerance would pass
    every check, and at 0 or below the float lemma checks fail on their
    rounding alone."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def density(text: str) -> float:
    """argparse type of mix --random: a set density in (0, 1), not nan."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def integer_at_least(low: int):
    """argparse type of an integer option that must be >= low: --seed
    (numpy's generators refuse a negative seed) and search --budget
    take low = 0, search --restarts and the --trials of verify and mix
    low = 1."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmix",
        description="Character tables and mixing certificates for finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser,
        *,
        formats: tuple[str, ...] = ("text", "json", "csv"),
        seed: bool = True,
        tol: bool = True,
    ) -> None:
        p.add_argument("spec", help="group spec, e.g. alt:5 or prod:sl2:5+cyclic:3")
        if seed:
            p.add_argument("--seed", type=integer_at_least(0), default=DEFAULT_SEED)
        if tol:
            p.add_argument("--tol", type=tolerance, default=1e-8)
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("group", help="build a group, print its shape")
    common(p, formats=("text", "json"), seed=False, tol=False)
    p.set_defaults(run=cmd_group)

    p = sub.add_parser("chartab", help="certified character table")
    common(p, seed=False, tol=False)
    p.set_defaults(run=cmd_chartab)
    # perfbench/run.py passes --seed to every command it times; the exact
    # table draws nothing, so chartab checks the value and reads nothing.
    p.add_argument("--seed", type=integer_at_least(0), default=None,
                   help="accepted and unused: the table is exact")

    p = sub.add_parser("verify", help="run inequality verification suites")
    common(p)
    p.set_defaults(run=cmd_verify)
    p.add_argument("--suite", choices=[*_SUITE_RUNNERS, "all"], default="all")
    # None marks an option left out: fcmu refuses --trials and --seed.
    p.add_argument("--trials", type=integer_at_least(1), default=None,
                   help=f"trials per suite (default {DEFAULT_TRIALS}); "
                   "fcmu runs once and refuses it")
    p.set_defaults(seed=None)

    p = sub.add_parser("mix", help="mixing defect of set triples")
    common(p, tol=False)
    p.set_defaults(run=cmd_mix)
    p.add_argument("--sets", default=None,
                   help="JSON [[...],[...],[...]] of element indices, or @file")
    p.add_argument("--random", type=density, default=None, metavar="P",
                   help="use random density-P sets instead of --sets")
    # None marks an option left out: --sets refuses --trials and --seed.
    p.add_argument("--trials", type=integer_at_least(1), default=None,
                   help=f"random triples (default {DEFAULT_TRIALS}); --random only")
    p.set_defaults(seed=None)

    p = sub.add_parser("search", help="adversarial search for large defect")
    common(p, formats=("text", "json"), tol=False)
    p.set_defaults(run=cmd_search)
    p.add_argument("--budget", type=integer_at_least(0), default=5000,
                   help="toggle evaluations; each greedy step spends 3n, so a "
                   "budget below 3n returns the seeded start")
    p.add_argument("--restarts", type=integer_at_least(1), default=5)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1
    except (QmixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
