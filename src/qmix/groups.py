"""Finite groups over element indices, built from generator columns.

A group is described by a small text spec ("cyclic:6", "sl2:7",
"prod:cyclic:2+alt:5") and built from the columns x -> x*g of its
generators over its element indices, the identity at index 0.  A family
model gives its elements as the rows of an integer array and its law
vectorized over those rows; the closure labels each generator's products
in one array pass and indexes the rows in breadth-first discovery order,
found level by level in array passes wherever a level is wide.
A direct product indexes its elements in mixed radix over its factors'
indices, each factor's generators moving only that factor's digit.  A
built group keeps its generator columns, the maps x -> x*s for repeated
squares s of its generators and a short word over those maps per
element.  Every group offers one product, the vectorized
``GroupTable.compose``, a walk of the word of b from a, and one row
provider, _row_blocks, which derives each table row from its parent's
and serves the O(n^2) progression kernels.  Both run on every group.
The n x n table is built on first need, and only up to DENSE_CAP, for
the kernels that index it at random (``GroupTable.require_table``).
"""

from __future__ import annotations

import itertools
import math
import operator
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
# The block size of the streamed passes: _row_blocks holds about CHUNK^2
# row entries, and fourier and mixing go CHUNK points or rows at a time.
CHUNK = 256
# The closure search (_breadth_first) looks at its queue once every _WIDE
# rows, and goes level by level in array passes while _WIDE or more wait.
_WIDE = 64

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

    ``compose`` is the one product: ``steps[j]`` maps x to x*s_j, s_j a
    repeated square of a generator, the last row being the identity map,
    and a*b is a pushed through the first ``lengths[b]`` rows listed in
    ``words[b]``, whose product is b (each word left-aligned, padded after
    its end with the last row).  ``cols[s]`` is the column x -> x*g_s of
    generator s.  ``table``, the n x n table, is only for the kernels
    that index it at random, and only ``mul`` reads it: it is built on
    first need, from ``cols``, and kept.  Reading ``mul`` or calling
    ``require_table`` builds it when ``dense`` (n <= DENSE_CAP when the
    group was built), and otherwise ``mul`` is None and
    ``require_table`` raises SizeGuardError.
    ``generator_indices`` generate the group; conjugacy classes and the
    abelian test rely on it.
    """

    n: int
    inv: np.ndarray
    spec: GroupSpec
    generator_indices: tuple[int, ...]
    cols: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    words: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    dense: bool = False
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.generator_indices:
            raise PreconditionError("a group needs a nonempty generating set")

    @property
    def mul(self) -> np.ndarray | None:
        """The n x n table, built on first use when ``dense``, else None."""
        if self.table is None and self.dense:
            self.table = _table_rows(self.cols, self.inv)
        return self.table

    def require_table(self, operation: str = "this operation") -> np.ndarray:
        table = self.mul
        if table is None:
            raise SizeGuardError(
                f"{operation} needs the dense multiplication table, "
                f"which is only kept for n <= {DENSE_CAP} (group has n={self.n})"
            )
        return table

    def _check_indices(self, a) -> np.ndarray:
        a = np.asarray(a)
        if a.dtype.kind not in "iu":
            raise PreconditionError(f"element indices must be integers, got {a.dtype}")
        if a.size and (a.min() < 0 or a.max() >= self.n):
            bad = a[(a < 0) | (a >= self.n)].flat[0]
            raise PreconditionError(f"element index {bad} out of range 0..{self.n - 1}")
        return a

    def compose(self, a, b) -> np.ndarray:
        """Elementwise product a*b over broadcasting index arrays (int32):
        a walk of the word of b from a, on every group.  The walk takes as
        many steps as the longest word among the given b, not the padded
        width of ``words``.
        """
        a = self._check_indices(a)
        b = self._check_indices(b)
        if b.ndim == 0:
            # One word for every a: each step is a 1-D take of its row.
            x = a.astype(np.int32)
            for s in self.words[b, : self.lengths[b]]:
                x = self.steps[s].take(x)
            return x
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
    the generators alone may need n - 1.  Each level keeps the first
    occurrence of every new element among its candidates (_first_seen, an
    O(n) scan, no sort).  The word of an element found at level d fills
    its first d columns, the rest being padding.  The word dtype fits the
    step count, which can exceed 127.
    """
    n = cols.shape[1]
    rows, seen = [], {0}
    for col in cols:
        for _ in range(n.bit_length()):
            if int(col[0]) in seen:
                break
            seen.add(int(col[0]))
            rows.append(col)
            col = col.take(col)
    pad = len(rows)
    steps = np.stack(rows + [np.arange(n, dtype=np.int32)])
    unreached = np.ones(n, dtype=bool)
    unreached[0] = False
    frontier = np.zeros(1, dtype=np.int32)
    levels = []
    while True:
        # Reached candidates are dropped first; the survivors keep their
        # positions, so each new element keeps its first occurrence.
        candidates = steps[:pad].take(frontier, axis=1).ravel()
        at = np.flatnonzero(unreached.take(candidates))
        if not at.size:
            break
        new, first = _first_seen(candidates.take(at), n)
        via, at = np.divmod(at.take(first), frontier.size)
        levels.append((new, frontier.take(at), via))
        frontier = new
        unreached[frontier] = False
    # Each word is written once: a parent's row (its word, then padding) is
    # complete before its children's level copies it and sets step d.
    words = np.full((n, len(levels)), pad, dtype=np.min_scalar_type(pad))
    lengths = np.zeros(n, dtype=np.int32)
    for d, (level, parents, via) in enumerate(levels, start=1):
        rows = words.take(parents, axis=0)
        rows[:, d - 1] = via
        words[level] = rows
        lengths[level] = d
    return steps, words, lengths


def _first_seen(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_index=True) for entries in 0..n-1, without
    a sort: the distinct values in increasing order (values' dtype) and the
    position of each one's first occurrence (intp), from one running
    minimum of positions over an n-array."""
    m = len(values)
    first = np.full(n, m, dtype=np.intp)
    np.minimum.at(first, values, np.arange(m))
    new = np.flatnonzero(first < m)
    return new.astype(values.dtype), first[new]


def _inverted(perms: np.ndarray) -> np.ndarray:
    """The inverse of each row of a stack of permutations."""
    back = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    back[rows, perms] = np.arange(perms.shape[1], dtype=np.int32)
    return back


def _inverses(steps: np.ndarray, words: np.ndarray) -> np.ndarray:
    """inv[b]: the identity pushed through the inverted steps of words[b],
    last first.  Each word column is one flat take on the inverted steps,
    at s n + inv, which costs less than the 2-D gather back[s, inv]."""
    n = steps.shape[1]
    back = _inverted(steps).ravel()
    inv = np.zeros(n, dtype=np.int32)
    at = np.empty(n, dtype=np.intp)
    for s in words[:, ::-1].T:
        np.multiply(s, n, out=at, dtype=np.intp)
        at += inv
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(back, at, out=inv, mode="clip")
    return inv


def _row_tree(cols: np.ndarray, inv: np.ndarray):
    """The recurrence every table row comes from: row(x) = row(p)[left[s]]
    with p = parents[x] and s = via[x], for x > 0; row 0 is the identity.

    (p, s) is the first pair in p-major order with cols[s][p] = x (found
    by _first_seen over cols.T), and
    left[s][y] = g_s*y = inv[back_s[inv[y]]], back_s inverting the column
    y -> y*g_s, so that row(p)[left[s]][y] = p*g_s*y.  Each x > 0 has such
    a p below x.  In breadth-first order x was first seen as p*g_s; in a
    product's mixed radix over breadth-first factors, lowering a nonzero
    digit of x to its parent in that factor gives p.
    """
    k, n = cols.shape
    # Each column is a permutation, so every x occurs.
    _, first = _first_seen(cols.T.ravel(), n)
    parents, via = np.divmod(first, k)
    # intp, so that take does not convert the indices of every row.
    left = inv[_inverted(cols)[:, inv]].astype(np.intp)
    return parents, via, left


def _table_rows(cols: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The n x n table, filled one contiguous row at a time in index order
    by the recurrence of _row_tree, each parent's row already written."""
    n = cols.shape[1]
    parents, via, left = _row_tree(cols, inv)
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)
    rows, lefts = list(table), list(left)
    for x, p, s in zip(range(1, n), parents[1:].tolist(), via[1:].tolist()):
        # mode="clip" skips the bounds check; with "raise", out is buffered.
        rows[p].take(lefts[s], out=rows[x], mode="clip")
    return table


def _depth_first(parents: np.ndarray) -> list[int]:
    """The nodes of the tree parents[x] < x (root 0, parents[0] unread) in
    preorder, each node's children in increasing order of subtree size.

    A node's row is needed until its last child's is made.  That child is
    its largest, so every node still needed on the current path is one
    whose subtree at least doubles the one being walked: at most log2(n)
    + 1 of them.
    """
    n = len(parents)
    up = parents.tolist()
    size = [1] * n
    for x in range(n - 1, 0, -1):
        size[up[x]] += size[x]
    # Children grouped by parent, largest first: pushed so, the smallest
    # comes off the stack first and the largest last.
    up[0] = -1
    kids = np.lexsort((-np.array(size), up))[1:]
    first = np.searchsorted(np.array(up)[kids], np.arange(n + 1)).tolist()
    kids = kids.tolist()
    order, stack = [], [0]
    while stack:
        x = stack.pop()
        order.append(x)
        stack += kids[first[x]:first[x + 1]]
    return order


def _row_blocks(G: GroupTable):
    """Every row of the table, h at a time: yields (xs, R), R[i] being the
    row y -> xs[i]*y (intp) for the index array xs.

    h is min(n, CHUNK, CHUNK^2 // n), at least 1, so a block holds at
    most about CHUNK^2 entries (8 CHUNK^2 bytes) whatever n is.  The
    rows come from the recurrence of _row_tree, walked depth first
    (_depth_first) on every group, whether or not its table is built, so
    that besides the block only the rows of at most log2(n) + 1 parents
    are held.  R is a view of that block, which the next block
    overwrites.  Over all blocks, xs runs through every element once.
    The rows are intp, so that a kernel takes through them without
    converting its indices.
    """
    n = G.n
    step = min(n, CHUNK, max(1, CHUNK * CHUNK // n))
    parents, via, left = _row_tree(G.cols, G.inv)
    order = np.array(_depth_first(parents))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    # For the node at each position: its parent's position and its step,
    # and the position of its own last child (-1 for a leaf).
    up, via = pos[parents[order]].tolist(), via[order].tolist()
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, pos[parents[1:]], pos[1:])
    last = last.tolist()
    block = np.empty((step, n), dtype=np.intp)
    block[0] = np.arange(n)
    rows, lefts = list(block), list(left)
    held: dict[int, np.ndarray] = {}  # rows by position, for later blocks
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for k in range(max(lo, 1), hi):
            j = up[k]
            row = rows[j - lo] if j >= lo else held[j]
            # mode="clip" skips the bounds check; with "raise", out is buffered.
            row.take(lefts[via[k]], out=rows[k - lo], mode="clip")
        yield order[lo:hi], block[: hi - lo]
        held = {j: row for j, row in held.items() if last[j] >= hi}
        held.update((k, rows[k - lo].copy()) for k in range(lo, hi) if last[k] >= hi)


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
        found = order.take(np.searchsorted(sorted_codes, X @ place), mode="clip")
        if not np.array_equal(E.take(found, axis=0), X):
            raise GroupFormatError("a product lies outside the element set")
        labels.append(found)
    right, fixed = np.stack(labels[:-1]), labels[-1]

    visit = _breadth_first(right, int(fixed[0]))
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
    index = np.empty(N, dtype=np.int32)
    index[visit] = np.arange(n, dtype=np.int32)
    return index.take(right.take(visit, axis=1)), tuple(int(i) for i in index[fixed[1:]])


def _breadth_first(right: np.ndarray, start: int) -> np.ndarray:
    """The rows reached from ``start`` (intp), in the order of a plain
    queue loop in which each row x appends its unseen products right[s][x],
    s in listed order.

    Any tail of the queue can be run as one level: run in order, it
    appends the first occurrence of each unseen product among its (x, s)
    pairs, x-major, which one array pass finds (a running minimum of
    positions, as in _first_seen), and what it appends is the next tail.
    So the plain loop runs while fewer than _WIDE rows wait, looking at
    the queue once every _WIDE rows, and a long run of small levels (a
    cyclic group's are single rows) makes no array call per level.  A
    queue holding more goes level by level in array passes until a level
    is small again.
    """
    k, N = right.shape
    seen = bytearray(N)
    seen[start] = 1
    reached = np.frombuffer(seen, dtype=bool)  # shares seen's bytes
    columns = [memoryview(col) for col in right]  # read as ints, no copy
    pairs = np.ascontiguousarray(right.T)
    first = np.full(N, right.size, dtype=np.intp)
    parts, visit = [], [start]
    while True:
        queue = iter(visit)
        while True:
            for x in itertools.islice(queue, _WIDE):
                for col in columns:
                    y = col[x]
                    if not seen[y]:
                        seen[y] = 1
                        visit.append(y)
            left = operator.length_hint(queue)  # the rows still waiting
            if not left or left >= _WIDE:
                break
        parts.append(np.array(visit[: len(visit) - left], dtype=np.intp))
        frontier = np.array(visit[len(visit) - left :], dtype=np.intp)
        while frontier.size >= _WIDE:
            parts.append(frontier)
            candidates = pairs.take(frontier, axis=0).ravel()
            candidates = candidates[~reached.take(candidates)]
            at = np.arange(candidates.size)
            np.minimum.at(first, candidates, at)
            frontier = candidates[first.take(candidates) == at]
            first[frontier] = right.size  # unset again for the next level
            reached[frontier] = True
        if not frontier.size:
            return np.concatenate(parts)
        visit = frontier.tolist()


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
    order (right multiplication), the order of a plain queue loop over
    the labelled columns.  _breadth_first finds it in O(n k) steps: runs
    of small levels in that loop, each wide level in one array pass.  The
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
    the steps and words that ``GroupTable.compose`` walks and the inverses
    those words give.  Up to DENSE_CAP the group may build its table, on
    first need."""
    n = cols.shape[1]
    steps, words, lengths = _steps_and_words(cols)
    inv = _inverses(steps, words)
    return GroupTable(
        n, inv, spec, generator_indices, cols, steps, words, lengths, n <= DENSE_CAP
    )


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
