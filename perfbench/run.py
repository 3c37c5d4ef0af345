"""qmix benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a qmix checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/workloads.py for why each exists and which layer
should move which metric on it): certify, mix, search, chartab-lazy.

--trace 0 measures end to end with tracing off.  It runs the workload's
``qmix`` commands as subprocesses, one at a time, again and again for S
seconds, and checks every run with an oracle.  Each subprocess times only
its set-up boundaries (build_group -> conjugacy_classes ->
compute_character_table, see perfbench/traced.py).  Metrics, medians over
the runs: wall_s (spawn to exit), setup_s and peak_rss_mb.

--trace 1 alternates untraced runs with traced ones (perfbench/traced.py)
for S seconds and reports per-layer busy and self seconds and call counts,
medians over traced runs, plus trace.overhead_s: the median traced wall
minus the median untraced wall.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the environment and every
metric with its unit, including failed_ratio and search_theta, which the
final object leaves out (see BENCHMARK.json).  A full record goes to
.perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json.

Exit codes: 0 with a result (correct or not); 2 without one, when the
checkout has no qmix sources or the configured threads exceed nproc.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from traced import layer_stats
from workloads import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path("src")
OUT_DIR = Path(".perfbench_out")

THREAD_VARS = ("QMIX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, but not part of the final object: failed_ratio is 0
# on correct code and search_theta exists only on the search workload.
REPORTED = {"failed_ratio": "ratio", "search_theta": "1"}
PER_LAYER = {
    "groups.build_group.s": "s",
    "groups.build_group.calls": "count",
    "chartab.conjugacy_classes.s": "s",
    "chartab.class_mult_coefficients.s": "s",
    "chartab.class_mult_coefficients.calls": "count",
    "chartab.compute_character_table.self_s": "s",
    "fourier.spectral_profile.s": "s",
    "fourier.spectral_profile.calls": "count",
    "fourier.mu_translated_class.s": "s",
    "fourier.mu_translated_class.calls": "count",
    "fourier.convolve.s": "s",
    "fourier.convolve.calls": "count",
    "mixing.random_ensemble.s": "s",
    "mixing.theta_defect.s": "s",
    "mixing.theta_defect.calls": "count",
    "mixing.theta_defect.terms_per_s": "1/s",
    "mixing.verify_bnp.self_s": "s",
    "mixing.verify_derivative_bound.s": "s",
    "mixing.gamma_functional.s": "s",
    "mixing.gamma_functional.calls": "count",
    "mixing.cs_chain_diagnostics.s": "s",
    "mixing.cs_chain_diagnostics.calls": "count",
    "mixing.adversarial_search.self_s": "s",
    "mixing.count_progressions.s": "s",
    "mixing.count_progressions.calls": "count",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.rows": "count",
    "trace.overhead_s": "s",
}


class Refused(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if any; never looks above it."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the qmix sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info() -> tuple[str | None, int | None]:
    """BLAS library name and its thread count, for an OpenBLAS numpy."""
    import ctypes

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(seed: int) -> dict:
    """Environment block recorded with every result; refuses oversubscription."""
    cores = nproc()
    blas, blas_threads = blas_info()
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in threads.items():
        if value is None:
            continue
        try:
            count = int(value)
        except ValueError:
            raise Refused(f"{var}={value!r} is not an integer") from None
        if count > cores:
            raise Refused(f"{var}={count} exceeds nproc={cores}")
    if blas_threads is not None and blas_threads > cores:
        raise Refused(f"BLAS uses {blas_threads} threads, more than nproc={cores}")
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": threads,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], out_path: Path, env: dict) -> dict:
    """Run argv through perfbench/spawn.py: wall_s, maxrss_kb, rc."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "spawn.py"), str(out_path), *argv],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(done.stdout)


def run_workload(w, seed: int, run: int, G, env: dict, traced: bool) -> dict:
    """One workload run: each command once, then the oracle."""
    wall = 0.0
    setup = 0.0
    rss_kb = 0
    rcs = []
    outputs = []
    stats: dict[str, dict[str, float]] = {}
    import_s = 0.0
    misnested = 0
    for j, cmd in enumerate(w.commands):
        stem = OUT_DIR / f"{w.name}-{run}-{j}"
        spans_path = stem.with_suffix(".spans.json")
        child = [
            sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path),
            "all" if traced else "setup", *cmd, "--seed", str(seed),
        ]
        res = spawn(child, stem.with_suffix(".out"), env)
        wall += res["wall_s"]
        rss_kb = max(rss_kb, res["maxrss_kb"])
        rcs.append(res["rc"])
        outputs.append(stem.with_suffix(".out").read_text())
        record = json.loads(spans_path.read_text())
        import_s += record["import_s"]
        one, root_s, bad = layer_stats(record["spans"])
        setup += root_s
        misnested += bad
        for name, st in one.items():
            acc = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += st[key]

    try:
        checked = w.check(outputs, seed, run, G)
        rows, failed, theta = checked.rows, checked.failed, checked.search_theta
    except (ValueError, KeyError, TypeError, IndexError):
        rows, failed, theta = 0, w.rows, None
    if any(rc != 0 for rc in rcs):
        failed = max(failed, 1)
    stats["cli"] = {"import_s": import_s, "rows": rows}
    return {
        "traced": traced,
        "wall_s": wall,
        # In an untraced run the only spans are the set-up boundaries.
        "setup_s": None if traced else setup,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
        "rc": rcs,
        "attempted": w.rows,
        "failed": failed,
        "search_theta": theta,
        "stats": stats,
        "misnested": misnested,
    }


def layer_value(name: str, stats: dict, n: int) -> float:
    layer, _, field = name.rpartition(".")
    st = stats.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
    if field == "terms_per_s":
        return n * n * st["calls"] / st["s"] if st["s"] > 0 else 0.0
    return st[field]


def measure(w, seed: int, seconds: float, trace: bool, G, env: dict) -> tuple[dict, list]:
    """Run the workload for ``seconds``; return (metrics, samples).

    Untraced, every run is untraced.  Traced, rounds alternate which of an
    untraced and a traced run goes first, so neither always runs warm.
    """
    samples: list[dict] = []
    rounds: list[float] = []
    deadline = time.monotonic() + seconds
    # Start another round only if a typical round still fits.
    while not rounds or time.monotonic() + statistics.median(rounds) <= deadline:
        started = time.monotonic()
        if not trace:
            sides = (False,)
        elif len(rounds) % 2 == 0:
            sides = (False, True)
        else:
            sides = (True, False)
        for traced in sides:
            samples.append(run_workload(w, seed, len(samples), G, env, traced))
        rounds.append(time.monotonic() - started)

    plain = [s for s in samples if not s["traced"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    thetas = [s["search_theta"] for s in samples if s["search_theta"] is not None]
    metrics = {
        "failed_ratio": failed / attempted,
        "search_theta": statistics.median(thetas) if thetas else None,
    }
    if trace:
        traced = [s for s in samples if s["traced"]]
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                metrics[name] = statistics.median(
                    layer_value(name, s["stats"], G.n) for s in traced
                )
        metrics["trace.overhead_s"] = statistics.median(
            s["wall_s"] for s in traced
        ) - statistics.median(s["wall_s"] for s in plain)
    else:
        for name in END_TO_END:
            metrics[name] = statistics.median(s[name] for s in plain)
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small groups, for the smoke test"
    )
    args = parser.parse_args(argv)

    if not (SRC / "qmix" / "cli.py").is_file():
        print("error: run from the root of a qmix checkout (no src/qmix/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    import qmix

    catalog = workloads(tiny=args.tiny)
    if args.workload not in catalog:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(catalog)}", file=sys.stderr)
        return 2
    w = catalog[args.workload]
    try:
        env_block = environment(args.seed)
    except Refused as exc:
        print(f"error: refusing to run: {exc}", file=sys.stderr)
        return 2

    # Python's build step: compile the sources once so no timed run does it.
    compileall.compile_dir(str(SRC), quiet=1)
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    G = qmix.build_group(w.group)  # for the oracle, untimed
    metrics, samples = measure(w, args.seed, args.seconds, trace, G, child_env())

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    misnested = sum(s["misnested"] for s in samples)
    correct = failed == 0 and misnested == 0
    units = {**REPORTED, **(PER_LAYER if trace else END_TO_END)}
    record = {
        "workload": w.name,
        "why": w.why,
        "predictions": list(w.predictions),
        "commands": [[*c, "--seed", str(args.seed)] for c in w.commands],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_block,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "misnested_spans": misnested,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples,
    }
    (OUT_DIR / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )

    print("environment " + json.dumps(env_block))
    print(f"workload={w.name} runs={len(samples)} attempted={attempted} failed={failed}")
    for name, value in metrics.items():
        if value is not None:
            print(f"  {name:40s} {value:.6g} {units[name]}")
    if misnested:
        print(f"  {misnested} spans end outside their parent", file=sys.stderr)
    reported = PER_LAYER if trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
