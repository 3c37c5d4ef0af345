import numpy as np
import pytest

from qmix import (
    GroupFunction,
    PreconditionError,
    build_group,
    compute_character_table,
    conjugacy_classes,
    count_progressions,
    indicator_function,
    theta_defect,
)
from qmix.mixing import _toggle_gain_tables


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
    fs = [GroupFunction(G, np.isin(np.arange(n), s)) for s in sets]
    return (*sets, theta_defect(*fs, T))


@pytest.fixture(scope="session")
def reference_search():
    """The recompute-every-step greedy search, called like adversarial_search."""
    return _reference_adversarial_search


def _mu_set(G, indices):
    """Scaled density: |G|/|S| on S, zero elsewhere; mean exactly 1.

    The set goes through indicator_function, so it is checked as a
    nonempty list of distinct, in-range integer indices.
    """
    ind = indicator_function(G, indices).values
    return GroupFunction(G, ind * (G.n / np.count_nonzero(ind)))


def _class_function_scalar(f, T, C, r):
    """Fourier scalar of a class function at irreducible r.

    f must be constant on conjugacy classes (checked to 1e-10); the
    scalar is E_x[f(x) chi_r(x)] / d_r.
    """
    rep_vals = f.values[C.representatives]
    dev = float(np.abs(f.values - rep_vals[C.class_of]).max())
    if dev > 1e-10:
        raise PreconditionError(
            f"not a class function (max within-class deviation {dev:.3e})"
        )
    total = np.sum(C.sizes * rep_vals * T.chi[r])
    return complex(total / (T.n * int(T.degrees[r])))


def _invert_class_function(scalars, T, C):
    """Rebuild the class function whose Fourier scalars are given.

    Exact left inverse of the class-function scalar: expanding f in the
    character basis and applying row orthogonality shows the value on
    class c must be sum_r d_r scalar_r conj(chi_r(c)).
    """
    s = np.asarray(scalars, dtype=np.complex128)
    cls_values = (T.degrees.astype(np.float64) * s) @ np.conj(T.chi)
    return GroupFunction(C.group, cls_values[C.class_of])


@pytest.fixture(scope="session")
def mu_set():
    """The scaled set density, an oracle input for the Fourier kernels."""
    return _mu_set


@pytest.fixture(scope="session")
def class_function_scalar():
    """Fourier scalar of a class function, an oracle for convolve and tables."""
    return _class_function_scalar


@pytest.fixture(scope="session")
def invert_class_function():
    """Class function from its Fourier scalars, the scalar's left inverse."""
    return _invert_class_function
