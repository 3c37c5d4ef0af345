"""Run one qmix CLI command in-process with spans around its layers.

Usage (as a child of perfbench/spawn.py, with src on PYTHONPATH):
    python3 perfbench/traced.py SPANS_PATH setup|all CLI_ARG...

Imports ``qmix.cli``, wraps public functions wherever a caller looks them
up (``qmix.cli.theta_defect``, ``qmix.mixing.convolve`` and so on) and
calls ``qmix.cli.main(argv)`` in-process.  Each call records a span (name,
start, end, parent).  Spans stay in memory and are written to SPANS_PATH
as JSON when the command ends, together with ``import_s``: the time from
spawn to ``import qmix.cli`` done.  The exit code is the CLI's.

``setup`` is the untraced run: it wraps only the three set-up boundaries
(SETUP_LAYERS), whose spans give setup_s, and leaves every other call as a
user's run makes it.  ``all`` is the traced run: it wraps every function
in LAYERS and ``cli.main`` itself.

Spans are taken from this file, around calls into each layer; qmix itself
is not changed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

SETUP_LAYERS = (
    "groups.build_group",
    "chartab.conjugacy_classes",
    "chartab.compute_character_table",
)
LAYERS = SETUP_LAYERS + (
    "chartab.class_mult_coefficients",
    "fourier.spectral_profile",
    "fourier.mu_translated_class",
    "fourier.convolve",
    "mixing.random_ensemble",
    "mixing.theta_defect",
    "mixing.verify_bnp",
    "mixing.verify_derivative_bound",
    "mixing.gamma_functional",
    "mixing.cs_chain_diagnostics",
    "mixing.adversarial_search",
    "mixing.count_progressions",
)
MODULES = ("cli", "groups", "chartab", "fourier", "mixing")


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so it compares with the
    # spawn instant the launcher recorded in another process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = {
                "id": next(self._ids),
                "name": name,
                "start": now(),
                "end": None,
                "parent": stack[-1] if stack else None,
            }
            self.spans.append(span)
            stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = now()
                stack.pop()

        return traced

    def install(self, package, layers) -> None:
        """Replace each named function in every qmix module that imported it."""
        modules = [getattr(package, m) for m in MODULES]
        for layer in layers:
            home, fname = layer.split(".")
            original = getattr(getattr(package, home), fname)
            wrapper = self.wrap(layer, original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)


def layer_stats(spans: list[dict]) -> tuple[dict[str, dict[str, float]], float, int]:
    """Per-name {"s", "self_s", "calls"}, root busy time, misnested count.

    ``s`` is inclusive busy time, counting a span nested in a span of the
    same name once; ``self_s`` subtracts the time covered by direct
    children.  Root busy time sums the spans that have no parent.  A child
    that starts before or ends after its parent is misnested.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    root_s = 0.0
    misnested = 0
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            root_s += s["end"] - s["start"]
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            misnested += 1
        child_time[parent["id"]] = child_time.get(parent["id"], 0.0) + s["end"] - s["start"]

    stats: dict[str, dict[str, float]] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        st = stats.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        st["calls"] += 1
        st["self_s"] += dur - child_time.get(s["id"], 0.0)
        ancestor = by_id.get(s["parent"])
        while ancestor is not None and ancestor["name"] != s["name"]:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is None:
            st["s"] += dur
    return stats, root_s, misnested


def main() -> int:
    spans_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import qmix
    import qmix.cli

    import_s = now() - float(os.environ["PERFBENCH_SPAWNED_AT"])
    tracer = Tracer()
    main_fn = qmix.cli.main
    if mode == "all":
        tracer.install(qmix, LAYERS)
        main_fn = tracer.wrap("cli.main", main_fn)
    elif mode == "setup":
        tracer.install(qmix, SETUP_LAYERS)
    else:
        raise SystemExit(f"unknown mode {mode!r}; use setup or all")
    try:
        rc = main_fn(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as f:
            json.dump({"import_s": import_s, "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
