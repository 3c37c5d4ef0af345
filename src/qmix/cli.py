"""Command-line front end.

Exit code contract: 0 means every requested check passed; 1 means a
mathematical assertion failed (a bug certificate, with a replayable
witness printed to stderr); 2 means the input or usage was invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chartab import (
    character_table_csv,
    character_table_report,
    compute_character_table,
    conjugacy_classes,
    witten_zeta,
)
from .errors import CertificationError, QmixError
from .fourier import (
    GroupFunction,
    indicator_function,
    mu_translated_class,
    spectral_profile,
)
from .groups import build_group, is_abelian, write_group
from .mixing import (
    cs_chain_diagnostics,
    adversarial_search,
    gamma_functional,
    random_ensemble,
    theta_defects,
    verify_bnp,
    verify_derivative_bound,
)

SUITES = ("bnp", "derivative", "gamma", "fcmu", "parseval", "chain", "all")
QUASIRANDOM_SUITES = {"bnp", "derivative", "gamma"}
CHAIN_CLI_MAX_ORDER = 512


@dataclass(frozen=True)
class RunConfig:
    command: str
    group_spec: str
    seed: int = 42
    trials: int = 100
    tol: float = 1e-8
    budget: int = 2000
    restarts: int = 5
    output_path: str | None = None
    format: str = "text"


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
    h = hashlib.sha256()
    for f in fns:
        h.update(np.ascontiguousarray(f.values).tobytes())
    return h.hexdigest()[:16]


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _render_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        cleaned = []
        for row in rows:
            r = dict(row)
            for key, val in r.items():
                if isinstance(val, float) and math.isinf(val):
                    r[key] = None
                    if key == "rhs" or key == "bound":
                        r["vacuous"] = True
            cleaned.append(r)
        return json.dumps(cleaned, indent=2, default=_json_default)
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        return "\n".join(lines)
    lines = []
    for row in rows:
        lines.append(" ".join(f"{c}={_fmt(row.get(c))}" for c in columns))
    return "\n".join(lines)


def cmd_group(cfg: RunConfig) -> int:
    G = build_group(cfg.group_spec)
    C = conjugacy_classes(G)
    info = {
        "group": cfg.group_spec,
        "n": G.n,
        "abelian": is_abelian(G),
        "classes": C.k,
    }
    if cfg.output_path:
        write_group(G, cfg.output_path)
        info["written"] = cfg.output_path
    if cfg.format == "json":
        _emit(json.dumps(info, indent=2), None)
    else:
        _emit(" ".join(f"{k}={_fmt(v)}" for k, v in info.items()), None)
    return 0


def cmd_chartab(cfg: RunConfig) -> int:
    G = build_group(cfg.group_spec)
    C = conjugacy_classes(G)
    T = compute_character_table(G, C, seed=cfg.seed, tol=cfg.tol)
    if cfg.format == "csv":
        _emit(character_table_csv(T, C), cfg.output_path)
        return 0
    report = character_table_report(T)
    report["group"] = cfg.group_spec
    if cfg.format == "json":
        _emit(json.dumps(report, indent=2, default=_json_default), cfg.output_path)
        return 0
    lines = [
        f"group={cfg.group_spec} n={T.n} k={T.k}",
        f"degrees={report['degrees']}",
        f"D={T.D}" + (" (not quasirandom)" if T.D < 2 else ""),
        f"zeta1={_fmt(report['zeta1'])}",
        f"orthogonality_residual={_fmt(T.residual)}",
    ]
    _emit("\n".join(lines), cfg.output_path)
    return 0


def _verify_bnp_rows(G, C, T, cfg: RunConfig) -> list[dict]:
    fns = random_ensemble(G, "mean_zero_rademacher", (cfg.seed, 101), 2 * cfg.trials)
    rows = []
    for i in range(cfg.trials):
        f1, f2 = fns[2 * i], fns[2 * i + 1]
        rep = verify_bnp(f1, f2, T, tol=cfg.tol)
        rows.append(_lemma_row(rep, i, cfg, _hash_functions(f1, f2)))
    return rows


def _verify_derivative_rows(G, C, T, cfg: RunConfig) -> list[dict]:
    fns = random_ensemble(G, "mean_zero_rademacher", (cfg.seed, 102), cfg.trials)
    rows = []
    for i, f in enumerate(fns):
        rep = verify_derivative_bound(f, T, tol=cfg.tol)
        rows.append(_lemma_row(rep, i, cfg, _hash_functions(f)))
    return rows


def _verify_gamma_rows(G, C, T, cfg: RunConfig) -> list[dict]:
    fns = random_ensemble(G, "mean_zero_rademacher", (cfg.seed, 103), cfg.trials)
    rows = []
    for i, f in enumerate(fns):
        rep = gamma_functional(
            f,
            T,
            C,
            budget=cfg.budget,
            seed=cfg.seed * 1_000_003 + i,
            tol=cfg.tol,
        )
        rows.append(_lemma_row(rep, i, cfg, _hash_functions(f)))
    return rows


def _verify_parseval_rows(G, C, T, cfg: RunConfig) -> list[dict]:
    fns = random_ensemble(G, "unimodular", (cfg.seed, 105), cfg.trials)
    rows = []
    for i, f in enumerate(fns):
        residual = spectral_profile(f, T, C, tol=math.inf).parseval_residual
        rows.append({
            "lemma_id": "parseval",
            "trial": i,
            "mode": "exhaustive",
            "lhs": residual,
            "rhs": cfg.tol,
            "margin": cfg.tol - residual,
            "stderr": None,
            "passed": residual <= cfg.tol,
            "hash": _hash_functions(f),
        })
    return rows


def _verify_fcmu_rows(G, C, T, cfg: RunConfig) -> list[dict]:
    worst = 0.0
    for g in range(G.n):
        mu = mu_translated_class(G, C, g)
        profile = spectral_profile(mu, T, C, tol=math.inf)
        cls = int(C.class_of[g])
        predicted = (np.abs(T.chi[:, cls]) ** 2) / T.degrees
        worst = max(worst, float(np.abs(profile.hs2 - predicted).max()))
    return [
        {
            "lemma_id": "fcmu",
            "trial": 0,
            "mode": "exhaustive",
            "lhs": worst,
            "rhs": cfg.tol,
            "margin": cfg.tol - worst,
            "stderr": None,
            "passed": worst <= cfg.tol,
            "hash": None,
        }
    ]


def _verify_chain_rows(G, C, T, cfg: RunConfig) -> list[dict]:
    pair = random_ensemble(G, "rademacher", (cfg.seed, 106), 2 * cfg.trials)
    thirds = random_ensemble(G, "mean_zero_rademacher", (cfg.seed, 107), cfg.trials)
    rows = []
    for i in range(cfg.trials):
        f1, f2, f3 = pair[2 * i], pair[2 * i + 1], thirds[i]
        rep = cs_chain_diagnostics(
            f1, f2, f3, T, C, max_order=CHAIN_CLI_MAX_ORDER, tol=max(cfg.tol, 1e-9)
        )
        vals = dict(rep.values)
        rows.append({
            "lemma_id": "chain",
            "trial": i,
            "mode": "exhaustive",
            "lhs": vals["split"],
            "rhs": vals["bound"],
            "margin": vals["bound"] - vals["split"],
            "stderr": None,
            "passed": rep.passed,
            "hash": _hash_functions(f1, f2, f3),
            "values": vals,
        })
    return rows


def _lemma_row(rep, trial: int, cfg: RunConfig, fn_hash: str) -> dict:
    return {
        "lemma_id": rep.lemma_id,
        "trial": trial,
        "mode": rep.mode,
        "lhs": rep.lhs_value,
        "rhs": rep.rhs_bound,
        "margin": rep.margin,
        "stderr": rep.stderr_estimate,
        "passed": rep.passed,
        "hash": fn_hash,
    }


_SUITE_RUNNERS = {
    "bnp": _verify_bnp_rows,
    "derivative": _verify_derivative_rows,
    "gamma": _verify_gamma_rows,
    "fcmu": _verify_fcmu_rows,
    "parseval": _verify_parseval_rows,
    "chain": _verify_chain_rows,
}


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    G = build_group(cfg.group_spec)
    C = conjugacy_classes(G)
    T = compute_character_table(G, C, seed=cfg.seed, tol=min(cfg.tol, 1e-8))
    suites = list(_SUITE_RUNNERS) if suite == "all" else [suite]
    if any(s in QUASIRANDOM_SUITES for s in suites) and T.D < 2:
        print(
            f"error: {cfg.group_spec} is not quasirandom (D={T.D}); "
            f"suite requires D >= 2",
            file=sys.stderr,
        )
        return 2

    rows: list[dict] = []
    for s in suites:
        for row in _SUITE_RUNNERS[s](G, C, T, cfg):
            row["group"] = cfg.group_spec
            row["n"] = G.n
            row["D"] = T.D
            row["seed"] = cfg.seed
            rows.append(row)

    columns = [
        "group", "n", "D", "lemma_id", "trial", "mode",
        "lhs", "rhs", "margin", "stderr", "seed", "passed",
    ]
    _emit(_render_rows(rows, columns, cfg.format), cfg.output_path)
    failed = [r for r in rows if not r["passed"]]
    for r in failed:
        replay = (
            f"qmix verify {cfg.group_spec} --suite {r['lemma_id']} "
            f"--trials {cfg.trials} --seed {cfg.seed} --tol {cfg.tol:g}"
        )
        print(
            f"FAIL lemma={r['lemma_id']} trial={r['trial']} seed={cfg.seed} "
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


def cmd_mix(cfg: RunConfig, sets_arg: str | None, density: float | None) -> int:
    G = build_group(cfg.group_spec)
    C = conjugacy_classes(G)
    T = compute_character_table(G, C, seed=42, tol=1e-8)
    if sets_arg is not None:
        streams = [[indicator_function(G, s)] for s in _parse_sets_arg(sets_arg)]
    else:
        if density is None:
            raise QmixError("mix needs either --sets or --random")
        if not 0.0 < density < 1.0:
            raise QmixError(f"density must be in (0, 1), got {density}")
        streams = [
            random_ensemble(G, f"indicator:{density}", (cfg.seed, 11 + role), cfg.trials)
            for role in range(3)
        ]
    rows = []
    for i, (rep, *triple) in enumerate(zip(theta_defects(*streams, T), *streams)):
        sizes = tuple(int(np.count_nonzero(f.values)) for f in triple)
        rows.append(_mixing_row(rep, i, sizes))

    columns = [
        "group", "n", "D", "trial", "sizes", "theta",
        "raw_re", "raw_im", "prod_re", "prod_im",
        "bound", "margin", "vacuous", "passed",
    ]
    for row in rows:
        row["group"] = cfg.group_spec
        row["n"] = G.n
        row["D"] = T.D
        if cfg.format == "csv":
            row["sizes"] = "|".join(str(s) for s in row["sizes"])
    _emit(_render_rows(rows, columns, cfg.format), cfg.output_path)
    failed = [r for r in rows if not r["passed"]]
    for r in failed:
        print(
            f"FAIL theta={_fmt(r['theta'])} exceeds bound={_fmt(r['bound'])} "
            f"trial={r['trial']} seed={cfg.seed}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_search(cfg: RunConfig) -> int:
    G = build_group(cfg.group_spec)
    C = conjugacy_classes(G)
    T = compute_character_table(G, C, seed=42, tol=1e-8)
    A1, A2, A3, rep = adversarial_search(
        G, T, budget=cfg.budget, restarts=cfg.restarts, seed=cfg.seed
    )
    row = _mixing_row(rep, 0, (len(A1), len(A2), len(A3)))
    row["group"] = cfg.group_spec
    row["n"] = G.n
    row["D"] = T.D
    sets = {"A1": A1.tolist(), "A2": A2.tolist(), "A3": A3.tolist()}
    if cfg.format == "json":
        row["sets"] = sets
        if math.isinf(row["bound"]):
            row["bound"] = None
        _emit(json.dumps(row, indent=2, default=_json_default), cfg.output_path)
    else:
        lines = [
            f"group={cfg.group_spec} n={G.n} D={T.D}",
            f"best_theta={_fmt(rep.theta)} bound={_fmt(rep.bound)} "
            f"margin={_fmt(rep.margin)} vacuous={rep.vacuous}",
            f"A1={json.dumps(sets['A1'])}",
            f"A2={json.dumps(sets['A2'])}",
            f"A3={json.dumps(sets['A3'])}",
        ]
        _emit("\n".join(lines), cfg.output_path)
    if not row["passed"]:
        print(
            f"FAIL theta={_fmt(rep.theta)} exceeds bound={_fmt(rep.bound)} "
            f"seed={cfg.seed} budget={cfg.budget} restarts={cfg.restarts}",
            file=sys.stderr,
        )
        return 1
    return 0


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
            p.add_argument("--seed", type=int, default=42)
        if tol:
            p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("group", help="build a group, print its shape")
    common(p, formats=("text", "json"), seed=False, tol=False)

    p = sub.add_parser("chartab", help="certified character table")
    common(p)

    p = sub.add_parser("verify", help="run inequality verification suites")
    common(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=int, default=2000,
                   help="sample budget for sampled-mode suites")

    p = sub.add_parser("mix", help="mixing defect of set triples")
    common(p, tol=False)
    p.add_argument("--sets", default=None,
                   help="JSON [[...],[...],[...]] of element indices, or @file")
    p.add_argument("--random", type=float, default=None, metavar="P",
                   help="use random density-P sets instead of --sets")
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("search", help="adversarial search for large defect")
    common(p, tol=False)
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=5)
    return parser


def _dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        group_spec=args.spec,
        seed=getattr(args, "seed", 42),
        trials=getattr(args, "trials", 100),
        tol=getattr(args, "tol", 1e-8),
        budget=getattr(args, "budget", 2000),
        restarts=getattr(args, "restarts", 5),
        output_path=getattr(args, "out", None),
        format=getattr(args, "format", "text"),
    )
    if cfg.trials < 1:
        raise QmixError("--trials must be >= 1")
    if args.command == "group":
        return cmd_group(cfg)
    if args.command == "chartab":
        return cmd_chartab(cfg)
    if args.command == "verify":
        return cmd_verify(cfg, args.suite)
    if args.command == "mix":
        if args.sets is not None and args.random is not None:
            raise QmixError("--sets and --random are mutually exclusive")
        return cmd_mix(cfg, args.sets, args.random)
    if args.command == "search":
        return cmd_search(cfg)
    raise QmixError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
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
