"""Finite groups over element indices, built from generator columns.

A group is described by a small text spec ("cyclic:6", "sl2:7",
"prod:cyclic:2+alt:5") and built from the columns x -> x*g of its
generators over its element indices, the identity at index 0.  A family
model gives its elements as the rows of an integer array and its law
vectorized over those rows; the closure labels each generator's products
in one array pass and indexes the rows in breadth-first discovery order.
A direct product indexes its elements in mixed radix over its factors'
indices, each factor's generators moving only that factor's digit.  A
built group keeps only the maps x -> x*s for repeated squares s of its
generators and a short word over those maps per element.  Every group
offers one product, the vectorized ``GroupTable.compose``: a read of the
n x n table, kept up to DENSE_CAP, or else a walk of the word of b from
a.  Only the O(n^2) and O(n^3) kernels need the table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GroupFormatError,
    PreconditionError,
    SizeGuardError,
    SpecError,
)

MAX_ORDER = 50000
DENSE_CAP = 8192

_FAMILIES = ("cyclic", "dihedral", "sym", "alt", "sl2", "psl2", "prod")


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group description: a family tag plus integer parameters,
    or a flat list of factor specs for direct products."""

    family: str
    params: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()

    def order(self) -> int:
        """Group order implied by the spec, without building anything."""
        if self.family == "cyclic":
            return self.params[0]
        if self.family == "dihedral":
            return 2 * self.params[0]
        if self.family == "sym":
            return math.factorial(self.params[0])
        if self.family == "alt":
            return math.factorial(self.params[0]) // 2
        if self.family == "sl2":
            p = self.params[0]
            return p * (p * p - 1)
        if self.family == "psl2":
            p = self.params[0]
            return p * (p * p - 1) // 2
        if self.family == "prod":
            out = 1
            for f in self.factors:
                out *= f.order()
            return out
        raise SpecError(f"unknown family {self.family!r}")

    def text(self) -> str:
        """Canonical spec string that parses back to this value."""
        if self.family == "prod":
            return "prod:" + "+".join(f.text() for f in self.factors)
        return f"{self.family}:{','.join(str(v) for v in self.params)}"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_param(family: str, value: int, position: int) -> None:
    if family in ("cyclic", "dihedral"):
        if value < 2:
            raise SpecError(f"{family} requires n >= 2, got {value}", position)
    elif family in ("sym", "alt"):
        if not 3 <= value <= 8:
            raise SpecError(f"{family} requires 3 <= n <= 8, got {value}", position)
    elif value == 2 or not _is_prime(value):  # sl2 and psl2
        raise SpecError(f"{family} requires an odd prime, got {value}", position)
    order = GroupSpec(family, (value,)).order()
    if order > MAX_ORDER:
        raise SpecError(
            f"{family}:{value} has order {order}, above the {MAX_ORDER} cap", position
        )


def validate_spec(spec: GroupSpec) -> None:
    """Re-check a spec built by hand rather than parsed.

    A valid spec is exactly what its canonical text parses to, so the
    parser's guards (and their messages) are the only ones.
    """
    if parse_spec(spec.text()) != spec:
        raise SpecError(f"{spec!r} is not what its text {spec.text()!r} parses to")


def _parse_one(s: str, base: int, allow_prod: bool) -> GroupSpec:
    colon = s.find(":")
    if colon < 0:
        raise SpecError("expected 'family:params'", base + len(s))
    if colon == 0:
        raise SpecError("missing family name", base)
    family = s[:colon]
    if family not in _FAMILIES:
        raise SpecError(f"unknown family {family!r}", base)
    body = s[colon + 1 :]
    body_base = base + colon + 1
    if family == "prod":
        if not allow_prod:
            raise SpecError("nested products are not supported", base)
        if not body:
            raise SpecError("product needs factors", body_base)
        factors: list[GroupSpec] = []
        off = 0
        for part in body.split("+"):
            if not part:
                raise SpecError("empty product factor", body_base + off)
            factors.append(_parse_one(part, body_base + off, allow_prod=False))
            off += len(part) + 1
        if len(factors) < 2:
            raise SpecError("product needs at least 2 factors", body_base)
        spec = GroupSpec("prod", (), tuple(factors))
        order = spec.order()
        if order > MAX_ORDER:
            raise SpecError(f"product order {order} exceeds the {MAX_ORDER} cap", base)
        return spec
    if not body:
        raise SpecError(f"{family} needs an integer parameter", body_base)
    if not (body.isascii() and body.isdigit()):
        raise SpecError(f"{family} takes one positive integer, got {body!r}", body_base)
    _check_param(family, int(body), body_base)
    return GroupSpec(family, (int(body),))


def parse_spec(text: str) -> GroupSpec:
    """Parse a group spec string.

    Grammar: ``family ":" int`` for the built-in families, and
    ``"prod:" spec "+" spec {"+" spec}`` for direct products (factors may
    not themselves be products).  Errors report the character position.
    """
    if not isinstance(text, str):
        raise SpecError("group spec must be a string")
    stripped = text.strip()
    if not stripped:
        raise SpecError("empty group spec", 0)
    return _parse_one(stripped, text.index(stripped[0]), allow_prod=True)


@dataclass(eq=False)
class GroupTable:
    """A finite group over element indices 0..n-1 with identity at 0.

    ``compose`` is the one product.  It reads ``mul``, the n x n table,
    where one is kept (up to DENSE_CAP).  Otherwise ``steps[j]`` maps x
    to x*s_j, s_j a repeated square of a generator, the last row being
    the identity map, and a*b is a pushed through the first
    ``lengths[b]`` rows listed in ``words[b]``, whose product is b (each
    word left-aligned, padded after its end with the last row).  An
    operation that needs the whole table calls ``require_table``, which
    raises SizeGuardError when there is none.
    ``generator_indices`` generate the group; conjugacy classes and the
    abelian test rely on it.
    """

    n: int
    mul: np.ndarray | None
    inv: np.ndarray
    spec: GroupSpec
    generator_indices: tuple[int, ...]
    steps: np.ndarray = field(repr=False)
    words: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.generator_indices:
            raise PreconditionError("a group needs a nonempty generating set")

    def require_table(self, operation: str = "this operation") -> np.ndarray:
        if self.mul is None:
            raise SizeGuardError(
                f"{operation} needs the dense multiplication table, "
                f"which is only kept for n <= {DENSE_CAP} (group has n={self.n})"
            )
        return self.mul

    def _check_indices(self, a) -> np.ndarray:
        a = np.asarray(a)
        if a.dtype.kind not in "iu":
            raise PreconditionError(f"element indices must be integers, got {a.dtype}")
        if a.size and (a.min() < 0 or a.max() >= self.n):
            bad = a[(a < 0) | (a >= self.n)].flat[0]
            raise PreconditionError(f"element index {bad} out of range 0..{self.n - 1}")
        return a

    def compose(self, a, b) -> np.ndarray:
        """Elementwise product a*b over broadcasting index arrays (int32).

        Without a table the walk takes as many steps as the longest word
        among the given b, not the padded width of ``words``.
        """
        a = self._check_indices(a)
        b = self._check_indices(b)
        if self.mul is not None:
            return self.mul[a, b]
        k = np.max(self.lengths[b], initial=0)
        x = np.broadcast_arrays(a, b)[0].astype(np.int32)
        for s in np.moveaxis(self.words[b, :k], -1, 0):
            x = self.steps[s, x]
        return x


def _steps_and_words(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps, words and word lengths from the columns x -> x*g.

    Each g is squared into x -> x*g^(2^k) until the power is the identity,
    repeats a step, or has been squared log2(n) times.  Exponents below
    the order of g are sums of distinct powers of two, so a level-by-level
    search over the steps finds words of a few steps per bit of n, where
    the generators alone may need n - 1.  The word of an element found at
    level d fills its first d columns, the rest being padding.  The word
    dtype fits the step count, which can exceed 127.
    """
    n = cols.shape[1]
    rows, seen = [], {0}
    for col in cols:
        for _ in range(n.bit_length()):
            if int(col[0]) in seen:
                break
            seen.add(int(col[0]))
            rows.append(col)
            col = col[col]
    pad = len(rows)
    steps = np.stack(rows + [np.arange(n, dtype=np.int32)])
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int32)
    levels = []
    while True:
        # Reached candidates are dropped before the sort; the survivors keep
        # their positions, so each new element keeps its first occurrence.
        candidates = steps[:pad, frontier].ravel()
        at = np.flatnonzero(~reached[candidates])
        if not at.size:
            break
        new, first = np.unique(candidates[at], return_index=True)
        via, at = np.divmod(at[first], frontier.size)
        levels.append((new, frontier[at], via))
        frontier = new
        reached[frontier] = True
    # Each word is written once: a parent's word is complete before its
    # children's level copies it.
    words = np.full((n, len(levels)), pad, dtype=np.min_scalar_type(pad))
    lengths = np.zeros(n, dtype=np.int32)
    for d, (level, parents, via) in enumerate(levels, start=1):
        words[level, : d - 1] = words[parents, : d - 1]
        words[level, d - 1] = via
        lengths[level] = d
    return steps, words, lengths


def _inverted(perms: np.ndarray) -> np.ndarray:
    """The inverse of each row of a stack of permutations."""
    back = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    back[rows, perms] = np.arange(perms.shape[1], dtype=np.int32)
    return back


def _inverses(steps: np.ndarray, words: np.ndarray) -> np.ndarray:
    """inv[b]: the identity pushed through the inverted steps of words[b],
    last first."""
    back = _inverted(steps)
    inv = np.zeros(steps.shape[1], dtype=np.int32)
    for s in words[:, ::-1].T:
        inv = back[s, inv]
    return inv


def _table_rows(cols: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The n x n table, filled one contiguous row at a time.

    Row x > 0 is row(p)[L_s] for the first pair (p, s) in p-major order
    with cols[s][p] = x, where L_s[y] = g_s*y = inv[back_s[inv[y]]] and
    back_s inverts the column y -> y*g_s.  Each x > 0 needs some such p
    below x, so that row p is already written.  In breadth-first order x
    was first seen as p*g_s; in a product's mixed radix over breadth-first
    factors, lowering a nonzero digit of x to its parent in that factor
    gives p.
    """
    k, n = cols.shape
    _, first = np.unique(cols.T, return_index=True)
    parents, via = np.divmod(first, k)
    left = inv[_inverted(cols)[:, inv]]
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)
    for x, p, s in zip(range(1, n), parents[1:].tolist(), via[1:].tolist()):
        # mode="clip" skips the bounds check; with "raise", out is buffered.
        table[p].take(left[s], out=table[x], mode="clip")
    return table


def _closure_columns(
    elements: np.ndarray, law: Callable, generators, identity, spec: GroupSpec
) -> tuple[np.ndarray, tuple[int, ...]]:
    """cols[s][i], the index of (element i)*g_s, and the generator
    indices (see build_closure).  A row's code is its mixed-radix number,
    digit j in base radix[j]; a product must equal the row its code finds.
    """
    E = np.asarray(elements)
    N, w = E.shape
    if N > MAX_ORDER:
        raise SizeGuardError(f"closure exceeded the {MAX_ORDER} element cap")
    radix = E.max(axis=0).astype(np.int64) + 1
    place = np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]
    code = E @ place
    order = np.argsort(code)
    sorted_codes = code[order]
    gens = np.asarray(generators).reshape(-1, w)
    labels = []
    # Each generator's products, then the identity and the generators.
    for X in [*(law(E, g) for g in gens), np.vstack([identity, gens])]:
        found = order[np.searchsorted(sorted_codes, X @ place).clip(max=N - 1)]
        if not np.array_equal(E[found], X):
            raise GroupFormatError("a product lies outside the element set")
        labels.append(found)
    right, fixed = np.stack(labels[:-1]), labels[-1]

    visit = [int(fixed[0])]
    seen = bytearray(N)
    seen[visit[0]] = 1
    columns = right.tolist()
    for x in visit:
        for col in columns:
            y = col[x]
            if not seen[y]:
                seen[y] = 1
                visit.append(y)
    n = len(visit)
    if n == 1:
        raise PreconditionError("trivial group rejected (n must exceed 1)")
    if n != spec.order():
        raise GroupFormatError(
            f"closure produced {n} elements, expected {spec.order()}; "
            "generator set does not match the family model"
        )
    if n != N:
        raise GroupFormatError(f"the generators reach {n} of the {N} elements")
    visit = np.array(visit)
    index = np.empty(N, dtype=np.int32)
    index[visit] = np.arange(n, dtype=np.int32)
    return index[right[:, visit]], tuple(int(i) for i in index[fixed[1:]])


def build_closure(
    elements: np.ndarray,
    law: Callable[[np.ndarray, np.ndarray], np.ndarray],
    generators: Sequence[Sequence[int]],
    identity: Sequence[int],
    *,
    spec: GroupSpec,
) -> GroupTable:
    """Index the group on the rows of ``elements`` generated by ``generators``.

    ``elements`` is an (N, w) array of nonnegative integers, one distinct
    element per row, and ``law(E, g)`` returns the rows x*g for every row
    x of E and one row g.  Each x*g_s is labelled by a binary search over
    the sorted mixed-radix codes of the rows, so the law runs once per
    generator over all rows.  Indexing is deterministic: identity first,
    then breadth-first discovery order with generators applied in listed
    order (right multiplication), found by one plain loop over the
    labelled columns, O(n k) steps whatever the Cayley diameter.  The
    group is then built from the columns cols[s][i] = index of
    (element i)*g_s alone, as every group is (see _from_columns).

    More than MAX_ORDER rows raise SizeGuardError and a closure of one
    element PreconditionError.  A product outside the rows, a closure
    whose order differs from ``spec.order()`` and a row the generators
    never reach raise GroupFormatError.
    """
    # The helper's temporaries are freed before the word search, which sets
    # the peak memory.
    return _from_columns(*_closure_columns(elements, law, generators, identity, spec), spec)


def _from_columns(
    cols: np.ndarray, generator_indices: tuple[int, ...], spec: GroupSpec
) -> GroupTable:
    """The group whose generators have the columns cols[s][x] = x*g_s:
    the steps and words that ``GroupTable.compose`` walks, the inverses
    those words give and, up to DENSE_CAP, the table they give last."""
    n = cols.shape[1]
    steps, words, lengths = _steps_and_words(cols)
    inv = _inverses(steps, words)
    table = _table_rows(cols, inv) if n <= DENSE_CAP else None
    return GroupTable(n, table, inv, spec, generator_indices, steps, words, lengths)


def _permutations(m: int) -> np.ndarray:
    """All m! permutations of range(m), one per row (int8)."""
    P = np.zeros((1, 1), dtype=np.int8)
    for j in range(1, m):
        # Insert j at each of the j + 1 places of every permutation of range(j).
        out = np.empty((j + 1, len(P), j + 1), dtype=np.int8)
        for i in range(j + 1):
            out[i, :, :i] = P[:, :i]
            out[i, :, i] = j
            out[i, :, i + 1 :] = P[:, i:]
        P = out.reshape(-1, j + 1)
    return P


def _sl2_elements(p: int) -> np.ndarray:
    """Rows (a, b, c, d) of SL(2, p): for each nonzero first column (a, c),
    the p points (b, d) with ad - bc = 1."""
    a, c = np.divmod(np.arange(1, p * p), p)
    a, c = np.repeat(a, p), np.repeat(c, p)
    t = np.tile(np.arange(p), p * p - 1)
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    # a != 0: b is free and d = (1 + bc) / a; a == 0: b = -1/c and d is free.
    b = np.where(a != 0, t, -inverse[c] % p)
    d = np.where(a != 0, (1 + t * c) * inverse[a] % p, t)
    return np.stack([a, b, c, d], axis=1)


def _family(spec: GroupSpec):
    """Elements, vectorized right law, generators and identity of a family.

    Permutations compose as (x*g)(i) = x(g(i)), g acting first; matrices
    (a, b, c, d) are row-major 2 x 2 over Z/p, and PSL(2, p) keeps from
    each pair {m, -m} the one whose first nonzero entry is at most
    (p - 1)/2.
    """
    family = spec.family
    if family == "cyclic":
        n = spec.params[0]
        return np.arange(n)[:, None], lambda E, g: (E + g) % n, [[1]], [0]
    if family == "dihedral":
        n = spec.params[0]
        k, f = np.divmod(np.arange(2 * n), 2)

        def rotate_reflect(E, g):
            k2 = np.where(E[:, 1] == 0, g[0], -g[0])
            return np.stack([(E[:, 0] + k2) % n, E[:, 1] ^ g[1]], axis=1)

        return np.stack([k, f], axis=1), rotate_reflect, [[1, 0], [0, 1]], [0, 0]
    if family in ("sym", "alt"):
        m = spec.params[0]
        E = _permutations(m)
        if family == "sym":
            gens = [_cycle(m, (0, 1)), _cycle(m, tuple(range(m)))]
        else:
            odd = np.zeros(len(E), dtype=bool)
            for i, j in itertools.combinations(range(m), 2):
                odd ^= E[:, i] > E[:, j]  # the parity of the inversion count
            E = E[~odd]
            long_cycle = tuple(range(m)) if m % 2 == 1 else tuple(range(1, m))
            gens = [_cycle(m, (0, 1, 2)), _cycle(m, long_cycle)]
        return E, lambda X, g: X[:, g], gens, list(range(m))
    if family in ("sl2", "psl2"):
        p = spec.params[0]
        half = (p - 1) // 2

        def matmul(E, g):
            a, b, c, d = E.T
            e, f, h, k = g
            return np.stack(
                [(a * e + b * h) % p, (a * f + b * k) % p,
                 (c * e + d * h) % p, (c * f + d * k) % p],
                axis=1,
            )

        gens, identity = [[1, 1, 0, 1], [0, 1, p - 1, 0]], [1, 0, 0, 1]
        E = _sl2_elements(p)
        if family == "sl2":
            return E, matmul, gens, identity

        def leads_high(X):
            # a = 0 forces b != 0, so the first nonzero entry is a or b.
            return np.where(X[:, 0] != 0, X[:, 0], X[:, 1]) > half

        def projective(E, g):
            X = matmul(E, g)
            flip = leads_high(X)
            X[flip] = -X[flip] % p
            return X

        return E[~leads_high(E)], projective, gens, identity
    raise SpecError(f"unknown family {family!r}")


def _cycle(n: int, points: tuple[int, ...]) -> list[int]:
    perm = list(range(n))
    for a, b in zip(points, points[1:]):
        perm[a] = b
    perm[points[-1]] = points[0]
    return perm


def construct_group(spec: GroupSpec) -> GroupTable:
    """Build the group a spec describes; deterministic per spec.

    Element x of a product has digit (x // place_i) % n_i in factor i,
    place_i being the order of the factors after i, so (a, b) is a*n2 + b.
    Its generators are its factors' in order, each moving only its own
    digit through that factor's columns.  A family is its one factor.
    """
    validate_spec(spec)
    parts = [_closure_columns(*_family(f), f) for f in spec.factors or (spec,)]
    sizes = [c.shape[1] for c, _ in parts]
    x = np.arange(math.prod(sizes), dtype=np.int32)
    cols, gens = [], []
    for i, (c, g) in enumerate(parts):
        place = math.prod(sizes[i + 1 :])
        digit = x // place % sizes[i]
        cols.append(x + (c[:, digit] - digit) * place)
        gens += [g_s * place for g_s in g]
    return _from_columns(np.concatenate(cols), tuple(gens), spec)


def build_group(text: str) -> GroupTable:
    """Parse a spec string and construct the group."""
    return construct_group(parse_spec(text))


def is_abelian(G: GroupTable) -> bool:
    """Generators commute iff the whole group does."""
    g = np.asarray(G.generator_indices)
    return bool(np.array_equal(G.compose(g[:, None], g), G.compose(g, g[:, None])))
