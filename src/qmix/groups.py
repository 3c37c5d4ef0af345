"""Finite groups over element indices, built by generator closure.

A group is described by a small text spec ("cyclic:6", "sl2:7",
"prod:cyclic:2+alt:5"), realized as an indexed element set with the
identity at index 0 and the remaining elements in breadth-first
discovery order from a fixed generator list.  Every group offers one
product, the vectorized ``GroupTable.compose``, and a generating set.
The n x n multiplication table is a cache kept up to DENSE_CAP; only the
O(n^2) and O(n^3) kernels, serialization and validation need it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Sequence

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

_MAGIC = b"QMG1"


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

    ``compose`` is the one product.  ``mul``, the n x n table, is a cache
    kept for n <= DENSE_CAP: compose gathers from it when it is there and
    otherwise calls ``_compose``, the vectorized law the constructor
    supplied.  An operation that needs the whole table calls
    ``require_table``, which raises SizeGuardError when there is none.
    ``generator_indices`` generate the group; conjugacy classes and the
    abelian test rely on it.
    """

    n: int
    mul: np.ndarray | None
    inv: np.ndarray
    spec: GroupSpec | None
    generator_indices: tuple[int, ...]
    _compose: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

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
        """Elementwise product a*b over broadcasting index arrays (int32)."""
        a = self._check_indices(a)
        b = self._check_indices(b)
        if self.mul is not None:
            return self.mul[a, b]
        return self._compose(a, b)

    def product(self, a: int, b: int) -> int:
        return int(self.compose(a, b))

    def inverse(self, a: int) -> int:
        return int(self.inv[self._check_indices(a)])


def build_closure(
    generators: Sequence[Hashable],
    compose: Callable,
    identity: Hashable,
    inv_elem: Callable | None = None,
    *,
    spec: GroupSpec | None = None,
    expected_order: int | None = None,
    max_order: int = MAX_ORDER,
    dense_cap: int = DENSE_CAP,
) -> GroupTable:
    """Enumerate the closure of ``generators`` under ``compose`` by BFS.

    Indexing is deterministic: identity first, then discovery order with
    generators applied in listed order (right multiplication).  The search
    records right[s][i], the index of element i times generator s, as it
    goes.  The dense table, when kept, is filled from those columns: each
    element b was first seen as parent*g, so column b is a re-index of
    column parent.  Above ``dense_cap`` the group composes pairs of
    elements through the index.
    """
    index: dict = {identity: 0}
    elements: list = [identity]
    parents: list[tuple[int, int]] = [(-1, -1)]
    gens = list(generators)
    right: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(elements):
        x = elements[i]
        for s, g in enumerate(gens):
            y = compose(x, g)
            j = index.get(y)
            if j is None:
                j = index[y] = len(elements)
                elements.append(y)
                parents.append((i, s))
                if len(elements) > max_order:
                    raise SizeGuardError(
                        f"closure exceeded the {max_order} element cap"
                    )
            right[s].append(j)
        i += 1
    n = len(elements)
    if n == 1:
        raise PreconditionError("trivial group rejected (n must exceed 1)")
    if expected_order is not None and n != expected_order:
        raise GroupFormatError(
            f"closure produced {n} elements, expected {expected_order}; "
            "generator set does not match the family model"
        )
    generator_indices = tuple(index[g] for g in gens if g in index)

    if n <= dense_cap:
        cols = np.array(right, dtype=np.int32)
        table = np.empty((n, n), dtype=np.int32)
        table[:, 0] = np.arange(n, dtype=np.int32)
        for b in range(1, n):
            p, s = parents[b]
            table[:, b] = cols[s][table[:, p]]
        inv = np.argmin(table, axis=1).astype(np.int32)
        return GroupTable(
            n=n, mul=table, inv=inv, spec=spec, generator_indices=generator_indices
        )

    if inv_elem is None:
        raise SizeGuardError(
            f"group of order {n} exceeds the dense cap {dense_cap} and no "
            "inverse callback was supplied"
        )
    inv = np.empty(n, dtype=np.int32)
    for j, x in enumerate(elements):
        inv[j] = index[inv_elem(x)]

    def compose_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.broadcast_arrays(a, b)
        pairs = zip(a.ravel().tolist(), b.ravel().tolist())
        out = np.fromiter(
            (index[compose(elements[x], elements[y])] for x, y in pairs), np.int32, a.size
        )
        return out.reshape(a.shape)

    return GroupTable(
        n=n,
        mul=None,
        inv=inv,
        spec=spec,
        generator_indices=generator_indices,
        _compose=compose_pairs,
    )


def _cycle(n: int, points: tuple[int, ...]) -> tuple[int, ...]:
    perm = list(range(n))
    for a, b in zip(points, points[1:]):
        perm[a] = b
    perm[points[-1]] = points[0]
    return tuple(perm)


def _perm_compose(sigma: tuple, tau: tuple) -> tuple:
    # (sigma . tau)(i) = sigma(tau(i)): tau acts first.
    return tuple(sigma[t] for t in tau)


def _perm_inverse(sigma: tuple) -> tuple:
    out = [0] * len(sigma)
    for i, s in enumerate(sigma):
        out[s] = i
    return tuple(out)


def _model(spec: GroupSpec):
    """Generators, composition, identity and inverse for one family."""
    family = spec.family
    if family == "cyclic":
        n = spec.params[0]
        return [1], (lambda a, b: (a + b) % n), 0, (lambda a: (-a) % n)
    if family == "dihedral":
        n = spec.params[0]

        def compose(x, y):
            k1, f1 = x
            k2, f2 = y
            return ((k1 + (k2 if f1 == 0 else -k2)) % n, f1 ^ f2)

        def inv_elem(x):
            k, f = x
            return ((-k) % n, 0) if f == 0 else x

        return [(1, 0), (0, 1)], compose, (0, 0), inv_elem
    if family in ("sym", "alt"):
        n = spec.params[0]
        identity = tuple(range(n))
        if family == "sym":
            gens = [_cycle(n, (0, 1)), _cycle(n, tuple(range(n)))]
        else:
            long_cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
            gens = [_cycle(n, (0, 1, 2)), _cycle(n, long_cycle)]
        return gens, _perm_compose, identity, _perm_inverse
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

        def matinv(x):
            a, b, c, d = x
            return (d, (-b) % p, (-c) % p, a)

        gens = [(1, 1, 0, 1), (0, 1, p - 1, 0)]
        identity = (1, 0, 0, 1)
        if family == "sl2":
            return gens, matmul, identity, matinv

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

        return (
            [canon(g) for g in gens],
            (lambda x, y: canon(matmul(x, y))),
            identity,
            (lambda x: canon(matinv(x))),
        )
    raise SpecError(f"unknown family {family!r}")


def construct_group(spec: GroupSpec) -> GroupTable:
    """Build the group a spec describes; deterministic per spec."""
    validate_spec(spec)
    if spec.family == "prod":
        out = construct_group(spec.factors[0])
        for f in spec.factors[1:]:
            out = direct_product(out, construct_group(f))
        return out
    gens, compose, identity, inv_elem = _model(spec)
    return build_closure(
        gens, compose, identity, inv_elem, spec=spec, expected_order=spec.order()
    )


def build_group(text: str) -> GroupTable:
    """Parse a spec string and construct the group."""
    return construct_group(parse_spec(text))


def direct_product(G1: GroupTable, G2: GroupTable) -> GroupTable:
    """Componentwise product; index of the pair (a, b) is a*n2 + b."""
    n1, n2 = G1.n, G2.n
    n = n1 * n2
    if n > MAX_ORDER:
        raise SizeGuardError(f"product order {n} exceeds the {MAX_ORDER} cap")

    def spec_factors(G: GroupTable) -> tuple[GroupSpec, ...]:
        if G.spec is None:
            raise PreconditionError("direct_product needs spec-built factors")
        return G.spec.factors if G.spec.family == "prod" else (G.spec,)

    spec = GroupSpec("prod", (), spec_factors(G1) + spec_factors(G2))
    inv = (np.add.outer(G1.inv.astype(np.int64) * n2, G2.inv)).ravel().astype(np.int32)
    gens = tuple(int(g) * n2 for g in G1.generator_indices) + tuple(
        int(g) for g in G2.generator_indices
    )

    def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return G1.compose(a // n2, b // n2) * n2 + G2.compose(a % n2, b % n2)

    mul = None
    if n <= DENSE_CAP:
        # Both factors are at most n, so both keep their tables.
        mul = (G1.mul[:, None, :, None] * n2 + G2.mul[None, :, None, :]).reshape(n, n)
    return GroupTable(
        n=n, mul=mul, inv=inv, spec=spec, generator_indices=gens, _compose=compose
    )


def is_abelian(G: GroupTable) -> bool:
    """Generators commute iff the whole group does."""
    g = np.asarray(G.generator_indices)
    return bool(np.array_equal(G.compose(g[:, None], g), G.compose(g, g[:, None])))


def _greedy_generators(table: np.ndarray) -> tuple[int, ...]:
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


def validate_group(G: GroupTable) -> None:
    """Check the group laws on the dense table; raises GroupFormatError.

    Identity and inverses are checked in full.  Associativity is checked
    exhaustively by Light's test: (x*g)*y == x*(g*y) for every x, y and
    every g in a greedy generating set of at most log2(n) elements.  The
    elements g that pass are closed under products, and every element is
    a product of generators, so every triple associates.  Associativity,
    an identity and inverses make a group, and with it a Latin square.
    The test reads row blocks, never an n x n temporary.
    """
    table = G.require_table("validation")
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


def write_group(G: GroupTable, path) -> None:
    """Serialize the dense table to the QMG1 binary format."""
    table = G.require_table("serialization")
    payload = (
        _MAGIC
        + struct.pack("<I", G.n)
        + np.ascontiguousarray(table, dtype="<u4").tobytes()
        + np.ascontiguousarray(G.inv, dtype="<u4").tobytes()
    )
    Path(path).write_bytes(payload)


def read_group(path) -> GroupTable:
    """Load and fully validate a QMG1 group file.

    The file holds no generators, so the group gets the greedy generating
    set that validation also uses.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != _MAGIC:
            raise GroupFormatError("not a QMG1 group file")
        n = struct.unpack_from("<I", head, 4)[0]
        if n < 2 or n > DENSE_CAP:
            raise GroupFormatError(
                f"group order {n} outside the supported range 2..{DENSE_CAP}"
            )
        size = path.stat().st_size
        expected = 8 + 4 * n * n + 4 * n
        if size != expected:
            raise GroupFormatError(
                f"file length {size} does not match order {n} (expected {expected})"
            )
        # Entries are stored unsigned; one above 2^31 - 1 reads negative here.
        raw = np.fromfile(fh, dtype="<i4", count=n * n + n)
    table, inv = raw[: n * n].reshape(n, n), raw[n * n :]
    for part, name in ((table, "multiplication"), (inv, "inverse")):
        if part.min() < 0 or part.max() >= n:
            raise GroupFormatError(f"{name} entry out of range")
    G = GroupTable(
        n=n, mul=table, inv=inv, spec=None, generator_indices=_greedy_generators(table)
    )
    validate_group(G)
    return G
