import numpy as np
import pytest

from qmix import (
    GroupFormatError,
    GroupFunction,
    PreconditionError,
    build_group,
    class_mult_coefficients,
    compute_character_table,
    conjugacy_classes,
    count_progressions,
    indicator_function,
    parse_spec,
    theta_defect,
)
from qmix.groups import CHUNK
from qmix.mixing import _toggle_gain_tables


@pytest.fixture(scope="session")
def bundle():
    """Memoized (group, classes, table) triples keyed by spec text.

    Character tables are exact and deterministic, so sharing them across
    tests is safe; nothing downstream mutates them.
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


def _float_character_table(G, C):
    """(chi, degrees) by the float class-sum eigensolve, rows unsorted.

    The eigenvectors of one seeded real combination of the class
    multiplication matrices (np.linalg.eig) are the central characters;
    omega_r(K_i) is each one's Rayleigh quotient on M_i, the degrees come
    from sum_K |omega_r(K)|^2 / |K| = n / d_r^2, rounded, and
    chi_r(K) = d_r omega_r(K) / |K|.  It shares no arithmetic with the
    exact table mod p, so it serves as its oracle.
    """
    n, k = G.n, C.k
    M = class_mult_coefficients(G, C).astype(np.float64)
    sizes = C.sizes.astype(np.float64)
    r = np.random.default_rng((42, 0)).uniform(1.0, 2.0, size=k)
    _, V = np.linalg.eig(np.tensordot(r, M, axes=1))
    T = (M.reshape(k * k, k) @ V).reshape(k, k, k)
    omega = np.einsum("jr,ijr->ir", V.conj(), T) / (V.conj() * V).sum(axis=0).real
    degrees_f = np.sqrt(n / (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0))
    degrees = np.rint(degrees_f).astype(np.int64)
    assert np.abs(degrees_f - degrees).max() < 1e-6
    return omega.T * degrees[:, None] / sizes, degrees


@pytest.fixture(scope="session")
def float_character_table():
    """The float eigensolve's table, an oracle for the exact one."""
    return _float_character_table


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
            gains = _toggle_gain_tables(G, *ind)
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


def _reference_value_pass(t, v1, v2, v3):
    """One triple's progression sum sum_x v1[x] sum_y v2[xy] v3[xy^2],
    laid out as a stack of one triple.

    The triple is an (n x 1) stack; each CHUNK-row block gathers an
    (h, n, 1) array of terms and sums it over axis 1 into the column S,
    and the total is the per-column dot V1 . S accumulated over
    CHUNK-row blocks from a zero of the result dtype.
    """
    V1, V2, V3 = (v[:, None] for v in (v1, v2, v3))
    n = len(v1)
    ysq = t.diagonal()
    S = np.empty((n, 1), dtype=V2.dtype)
    for lo in range(0, n, CHUNK):
        U = t[lo:lo + CHUNK]
        (V2[U] * V3[U[:, ysq]]).sum(axis=1, out=S[lo:lo + CHUNK])
    totals = np.zeros(1, dtype=np.result_type(V1, S))
    for lo in range(0, n, CHUNK):
        totals[0] += V1[lo:lo + CHUNK, 0] @ S[lo:lo + CHUNK, 0]
    return totals[0]


@pytest.fixture(scope="session")
def reference_value_pass():
    """One triple's progression sum through (n x 1) stacks, the oracle that
    pins the bits of mixing._value_pass."""
    return _reference_value_pass


def _reference_correlation(G, U, V):
    """corr[j] = sum_x U[x] V[xj], as the row correlation summed when it
    read the n x n table: U[rows] @ V[t[rows]] over CHUNK-point blocks of
    the support of U, in complex128 when either operand is complex and
    float64 otherwise.  The table comes from compose, so the oracle
    shares neither the row walk nor the column walks of the kernel."""
    ar = np.arange(G.n)
    t = G.compose(ar[:, None], ar)
    dtype = np.result_type(U, V, np.float64)
    U, V = U.astype(dtype), V.astype(dtype)
    xs = np.flatnonzero(U)
    corr = np.zeros(G.n, dtype=dtype)
    for lo in range(0, len(xs), CHUNK):
        rows = xs[lo:lo + CHUNK]
        corr += U[rows] @ V[t[rows]]
    return corr


@pytest.fixture(scope="session")
def reference_correlation():
    """The table-indexed row correlation, the oracle of both forms of
    fourier._correlation."""
    return _reference_correlation


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


def _constant_function(G, value=1.0):
    return GroupFunction(G, np.full(G.n, value, dtype=np.complex128))


def _character_function(T, C, r):
    """Irreducible character r as a function on the group of C."""
    return GroupFunction(C.group, T.chi[r][C.class_of])


def _delta_shift(f, b):
    """Multiplicative derivative f(x) * f(xb); deliberately unconjugated."""
    G = f.group
    col = G.compose(np.arange(G.n), b)
    return GroupFunction(G, f.values * f.values[col])


def _product(G, a, b):
    """The product a*b of two element indices, as an int."""
    return int(G.compose(a, b))


def _inverse(G, a):
    """The inverse of one element index, as an int."""
    return int(G.inv[G._check_indices(a)])


@pytest.fixture(scope="session")
def constant_function():
    """The constant function on a group (value 1 by default)."""
    return _constant_function


@pytest.fixture(scope="session")
def character_function():
    """An irreducible character as a GroupFunction, an oracle input."""
    return _character_function


@pytest.fixture(scope="session")
def delta_shift():
    """The multiplicative derivative, an oracle for the class convolution."""
    return _delta_shift


@pytest.fixture(scope="session")
def product():
    """One group product by index, for element-by-element oracles."""
    return _product


@pytest.fixture(scope="session")
def inverse():
    """One group inverse by index, for element-by-element oracles."""
    return _inverse


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


def _cycle(n, points):
    perm = list(range(n))
    for a, b in zip(points, points[1:]):
        perm[a] = b
    perm[points[-1]] = points[0]
    return tuple(perm)


def _perm_compose(sigma, tau):
    # (sigma . tau)(i) = sigma(tau(i)): tau acts first.
    return tuple(sigma[t] for t in tau)


def _model(spec):
    """Generators, scalar composition and identity for one family.

    Elements are hashable tuples (ints for cyclic groups) composed one
    pair at a time; the library's vectorized family laws share no code
    with these.
    """
    family = spec.family
    if family == "cyclic":
        n = spec.params[0]
        return [1], (lambda a, b: (a + b) % n), 0
    if family == "dihedral":
        n = spec.params[0]

        def compose(x, y):
            k1, f1 = x
            k2, f2 = y
            return ((k1 + (k2 if f1 == 0 else -k2)) % n, f1 ^ f2)

        return [(1, 0), (0, 1)], compose, (0, 0)
    if family in ("sym", "alt"):
        n = spec.params[0]
        identity = tuple(range(n))
        if family == "sym":
            gens = [_cycle(n, (0, 1)), _cycle(n, tuple(range(n)))]
        else:
            long_cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
            gens = [_cycle(n, (0, 1, 2)), _cycle(n, long_cycle)]
        return gens, _perm_compose, identity
    if family in ("sl2", "psl2"):
        p = spec.params[0]

        def matmul(x, y):
            a, b, c, d = x
            e, f, g, h = y
            return (
                (a * e + b * g) % p,
                (a * f + b * h) % p,
                (c * e + d * g) % p,
                (c * f + d * h) % p,
            )

        gens = [(1, 1, 0, 1), (0, 1, p - 1, 0)]
        identity = (1, 0, 0, 1)
        if family == "sl2":
            return gens, matmul, identity

        half = (p - 1) // 2

        def canon(m):
            # Unique coset representative of {m, -m}: first nonzero entry
            # in row-major order lies in 1..(p-1)/2.
            for v in m:
                if v:
                    if v > half:
                        return ((-m[0]) % p, (-m[1]) % p, (-m[2]) % p, (-m[3]) % p)
                    return m
            return m

        return [canon(g) for g in gens], (lambda x, y: canon(matmul(x, y))), identity
    raise ValueError(f"unknown family {family!r}")


def _enumerate(spec):
    """A family group by a plain BFS over its scalar law.

    Returns the elements in build order (identity first, then discovery
    order with the generators applied in listed order), their index, the
    law, and right[s][i], the index of element i times generator s.
    """
    gens, law, identity = _model(spec)
    elements, index = [identity], {identity: 0}
    right = [[] for _ in gens]
    for x in elements:
        for s, g in enumerate(gens):
            y = law(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            right[s].append(index[y])
    return elements, index, law, np.array(right)


class _LawOracle:
    """Products by the family law, one element pair at a time.

    The elements are enumerated again, factor by factor for a direct
    product, whose index is the mixed-radix number of its factor indices.
    """

    def __init__(self, text):
        spec = parse_spec(text)
        factors = spec.factors if spec.family == "prod" else (spec,)
        self.factors = [_enumerate(f) for f in factors]
        self.shape = tuple(len(elements) for elements, *_ in self.factors)
        self.n = int(np.prod(self.shape))

    def compose(self, a, b):
        a, b = np.broadcast_arrays(a, b)
        xs = np.unravel_index(a.ravel(), self.shape)
        ys = np.unravel_index(b.ravel(), self.shape)
        digits = [
            [index[law(elements[i], elements[j])] for i, j in zip(x.tolist(), y.tolist())]
            for (elements, index, law, _), x, y in zip(self.factors, xs, ys)
        ]
        return np.ravel_multi_index(digits, self.shape).reshape(a.shape)


@pytest.fixture(scope="session")
def law_oracle():
    """Group products by the family law, an oracle for GroupTable.compose."""
    return _LawOracle


@pytest.fixture(scope="session")
def scalar_closure():
    """The family group by a BFS over its scalar law: elements, index,
    law and right columns, an oracle for the array closure."""
    return lambda text: _enumerate(parse_spec(text))


def _flood_fill_classes(G):
    """Conjugacy classes by a flood fill over Python lists.

    Returns (representatives, class_of, sizes, members): the first three
    in the layout of ConjugacyData, classes ordered by smallest member,
    and the sorted member array of each class.
    """
    n = G.n
    class_of = np.full(n, -1, dtype=np.int32)
    reps, elems = [], []
    ar = np.arange(n)
    maps = [
        G.compose(G.compose(G.inv[g], ar), g).tolist()
        for g in G.generator_indices
        if g != 0
    ]
    for x0 in range(n):
        if class_of[x0] >= 0:
            continue
        c = len(reps)
        class_of[x0] = c
        members, stack = [x0], [x0]
        while stack:
            x = stack.pop()
            for m in maps:
                y = m[x]
                if class_of[y] < 0:
                    class_of[y] = c
                    members.append(y)
                    stack.append(y)
        reps.append(x0)
        elems.append(np.sort(np.asarray(members, dtype=np.int32)))
    sizes = np.array([len(e) for e in elems], dtype=np.int64)
    return np.array(reps, dtype=np.int32), class_of, sizes, tuple(elems)


@pytest.fixture(scope="session")
def flood_fill_classes():
    """Conjugacy classes by a flood fill, an oracle for conjugacy_classes."""
    return _flood_fill_classes


def _greedy_generators(table):
    """Generators for a table, each the smallest element not yet reached.

    The reached set starts at the identity and is closed under right
    multiplication by the generators so far.  In a group it is the
    subgroup they generate, so each new generator at least doubles it and
    at most log2(n) are needed; a table that needs more is not a group.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        if len(gens) > n.bit_length() - 1:
            raise GroupFormatError(
                f"table needs more than log2(n) = {n.bit_length() - 1} "
                "greedy generators, so it is not a group"
            )
        reached[g] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.unique(table[np.ix_(frontier, gens)])
            frontier = step[~reached[step]]
            reached[frontier] = True
    return tuple(gens)


def _validate_group(G):
    """Check the group laws on the table G.mul; raises GroupFormatError.

    Identity and inverses are checked in full.  Associativity is checked
    exhaustively by Light's test: (x*g)*y == x*(g*y) for every x, y and
    every g in a greedy generating set of at most log2(n) elements.  The
    elements g that pass are closed under products, and every element is
    a product of generators, so every triple associates.  Associativity,
    an identity and inverses make a group, and with it a Latin square.
    The test reads row blocks, never an n x n temporary.
    """
    table = G.mul
    n = G.n
    ar = np.arange(n, dtype=np.int32)
    if not (np.array_equal(table[0], ar) and np.array_equal(table[:, 0], ar)):
        raise GroupFormatError("identity law fails: row or column 0 is not the identity")
    if G.inv.shape != (n,) or G.inv.min() < 0 or G.inv.max() >= n:
        raise GroupFormatError("inverse table out of range")
    if not np.all(table[ar, G.inv] == 0):
        raise GroupFormatError("inverse law fails: a * inv[a] != identity")
    step = max(1, (1 << 20) // n)
    for g in _greedy_generators(table):
        gy = table[g]
        for lo in range(0, n, step):
            block = table[lo : lo + step]
            if not np.array_equal(table[block[:, g]], block[:, gy]):
                raise GroupFormatError(
                    f"associativity fails: (x*g)*y != x*(g*y) for generator g={g}"
                )


@pytest.fixture(scope="session")
def validate_group():
    """Light's associativity test on the table G.mul, the check that a
    built table is a group."""
    return _validate_group
