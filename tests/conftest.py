import numpy as np
import pytest

from qmix import (
    build_group,
    compute_character_table,
    conjugacy_classes,
    count_progressions,
)
from qmix.mixing import _raw_indicator_report, _toggle_gain_tables


@pytest.fixture(scope="session")
def bundle():
    """Memoized (group, classes, table) triples keyed by spec text.

    Character tables are deterministic for a fixed seed, so sharing them
    across tests is safe; nothing downstream mutates them.
    """
    cache: dict = {}

    def get(spec: str):
        if spec not in cache:
            G = build_group(spec)
            C = conjugacy_classes(G)
            T = compute_character_table(G, C)
            cache[spec] = (G, C, T)
        return cache[spec]

    return get


def _reference_adversarial_search(G, T, *, budget, restarts, seed):
    """adversarial_search as a plain loop that rebuilds every table per step.

    Each greedy step recounts S1-S3 from scratch with _toggle_gain_tables
    and the start count with count_progressions, so it shares no update
    rule with the incremental search and serves as its oracle.
    """
    n = G.n
    n2 = float(n) * float(n)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        ind = [rng.integers(0, 2, size=n).astype(np.int64) for _ in range(3)]
        N = count_progressions(*(np.flatnonzero(v) for v in ind), G)
        sizes = [int(v.sum()) for v in ind]
        theta = abs(N / n2 - sizes[0] * sizes[1] * sizes[2] / n2 / n)
        used = 0
        while used + 3 * n <= budget:
            gains = np.stack(_toggle_gain_tables(G, *ind))
            used += 3 * n
            signs = 1 - 2 * np.stack(ind)
            cand_N = N + signs * gains
            cand_sizes = np.array(sizes, dtype=np.int64)[:, None] + signs
            other = np.array(
                [sizes[1] * sizes[2], sizes[0] * sizes[2], sizes[0] * sizes[1]],
                dtype=np.int64,
            )
            cand_theta = np.abs(
                cand_N / n2 - cand_sizes * other[:, None] / (n2 * n)
            )
            flat = int(np.argmax(cand_theta))
            best_theta = float(cand_theta.ravel()[flat])
            if best_theta <= theta:
                break
            slot, e = divmod(flat, n)
            s = int(signs[slot, e])
            ind[slot][e] += s
            sizes[slot] += s
            N = int(cand_N[slot, e])
            theta = best_theta
        if best is None or theta > best[0]:
            best = (theta, tuple(np.flatnonzero(v) for v in ind))
    _, sets = best
    return (*sets, _raw_indicator_report(G, T, sets))


@pytest.fixture(scope="session")
def reference_search():
    """The recompute-every-step greedy search, called like adversarial_search."""
    return _reference_adversarial_search
