"""Conjugacy classes and complex character tables.

Classes come from label propagation: every element takes the least label
among its images under the conjugation maps of the generators, in whole
array passes, until no label falls.  Characters come from Dixon's method
modulo a prime p (Dixon, "High speed computation of group characters",
Numer. Math. 1967; Schneider, J. Symb. Comp. 1990), in exact arithmetic
on numpy arrays: int64, or float64 where every sum stays below 2^53.
The class-multiplication matrices M_i commute, and the central characters
omega_r(K_i) = h_i chi_r(g_i) / d_r are their common eigenvectors; mod a
prime p = 1 (mod e), e the exponent of the group, every eigenvalue lies in
F_p, so a combination A = sum_i r_i M_i with k distinct eigenvalues has
them as its only eigenvectors.  Each degree is exact because p > n, and
each value chi(g) = sum_a m_a exp(2 pi i a / o), g of order o, comes from
the multiplicities m_a of the eigenvalues of rho(g): integers in [0, d]
read exactly mod p off the values at the powers of g.  The table is
certified exactly (k distinct eigenvalues, squared degrees summing to n,
multiplicities in range, both orthogonality relations mod p) before it is
returned; a failed certificate is an error, never a silent answer.

Each level holds the one below it: a ConjugacyData holds the group it
partitions (``C.group``) and a CharacterTable the classes it was computed
from (``T.classes``).  So every function takes the one handle it needs,
and never two that would have to agree.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, PreconditionError, SizeGuardError
from .groups import CHUNK, GroupTable, _is_prime

MAX_CLASSES = 200
# Combinations A tried before the table is refused.  p > k^2, so one
# repeats an eigenvalue with probability at most k^2 / 2p < 1/2.
ATTEMPTS = 20


@dataclass(eq=False)
class ConjugacyData:
    """Partition of a group into conjugacy classes.

    Classes are ordered by smallest member index, so class 0 is the
    identity singleton; ``representatives[c]`` is that smallest member.
    ``class_of`` is the only record of the partition: the members of
    class c, in ascending order, are ``np.flatnonzero(class_of == c)``.
    """

    group: GroupTable
    k: int
    class_of: np.ndarray
    representatives: np.ndarray
    sizes: np.ndarray


@dataclass(eq=False)
class CharacterTable:
    """Certified character table of the classes it holds.

    ``classes`` is the ConjugacyData the table was computed from; column
    c of ``chi`` is its class c, and ``classes.group`` is the group.  The
    order ``n`` and the class count ``k`` are read from it, so they
    cannot disagree with it.  Row 0 is the trivial character; rows are
    sorted by degree, then by their exact eigenvalue multiplicities, so a
    group always gives the same table.  ``D`` is the quasirandom degree,
    the smallest degree among nontrivial irreducibles; 1 means the bound
    downstream is vacuous.  ``residual``, a diagnostic only, is the worst
    deviation of the float table from either orthogonality relation.
    ``prime`` is the p the table was computed modulo and ``attempts`` the
    number of combinations tried.
    """

    classes: ConjugacyData
    chi: np.ndarray
    degrees: np.ndarray
    D: int
    residual: float
    prime: int
    attempts: int

    @property
    def n(self) -> int:
        return self.classes.group.n

    @property
    def k(self) -> int:
        return self.classes.k


def _conjugation_maps(G: GroupTable) -> list[np.ndarray]:
    """The maps y -> g^{-1} y g (int32) for the generators g other than
    the identity.  g^{-1} y is read as inv[y^{-1} g], since g^{-1} y =
    (y^{-1} g)^{-1}, so both products are by the one element g: a walk of
    its word."""
    return [
        G.compose(G.inv[G.compose(G.inv, g)], g)
        for g in G.generator_indices
        if g != 0
    ]


def conjugacy_classes(G: GroupTable) -> ConjugacyData:
    """Partition G by conjugation orbits, by label propagation.

    The orbit of x under conjugation by the generators is its full class.
    Every element starts labelled by its own index; each round lowers
    every label to the least over one step of each conjugation map m,
    ``lab = minimum(lab, lab[m])``, then jumps ``lab = lab[lab]``, until
    a round changes nothing.  A label is always a member of its element's
    orbit, so it never falls below the orbit's minimum, and labels only
    fall, so the loop ends.  At the fixed point lab[x] <= lab[m(x)] for
    every x and every m; each m is a permutation, so following an m-cycle
    back to x forces equality, lab is constant on each orbit, and the
    orbit's minimum, labelled by itself, gives that constant.  The
    minima, the x with lab[x] == x, are the representatives, in
    increasing order, and class_of numbers each label by its rank among
    them through one index array, with no sort.  Every gather is a 1-D
    take.  Every GroupTable carries its generators, and _conjugation_maps
    gives their maps.
    """
    n = G.n
    maps = _conjugation_maps(G)
    lab = np.arange(n, dtype=np.int32)
    while True:
        before = lab
        for m in maps:
            lab = np.minimum(lab, lab.take(m))
        lab = lab.take(lab)
        if np.array_equal(lab, before):
            break
    reps = np.flatnonzero(lab == np.arange(n)).astype(np.int32)
    number = np.empty(n, dtype=np.int32)
    number[reps] = np.arange(len(reps), dtype=np.int32)
    class_of = number.take(lab)
    sizes = np.bincount(class_of).astype(np.int64)

    k = len(reps)
    if int(sizes.sum()) != n or sizes[0] != 1 or reps[0] != 0:
        raise CertificationError("conjugacy partition is inconsistent")
    if any(n % int(h) for h in sizes):
        raise CertificationError("a class size fails to divide the group order")
    return ConjugacyData(
        group=G,
        k=k,
        class_of=class_of,
        representatives=reps,
        sizes=sizes,
    )


def _short_members(C: ConjugacyData) -> np.ndarray:
    """For each class, its member with the shortest word, the least index
    among those: the element whose right translation compose walks in the
    fewest steps.  Any member gives the same class counts, since
    conjugating y by g carries the y counted for one member to those
    counted for its conjugate."""
    G = C.group
    key = G.lengths.astype(np.int64) * G.n + np.arange(G.n)
    best = np.full(C.k, np.iinfo(np.int64).max)
    np.minimum.at(best, C.class_of, key)
    return best % G.n


def class_mult_coefficients(C: ConjugacyData) -> np.ndarray:
    """The (k, k, k) int64 stack M with M[i][j][l] = #{(a,b) in C_i x C_j :
    ab = z_l}, M[i] being the class-multiplication matrix M_i and z_l any
    member of class l.

    Counted over y = a^{-1}: b is forced to y z_l, so M[i][j][l] counts
    the y with y^{-1} in C_i and y z_l in C_j.  Each l takes one
    right-translation column y -> y z_l (a walk of the one word of z_l,
    the member of class l with the shortest, _short_members) and one
    bincount of the class pairs.  The stack holds 8k^3 bytes, so more
    than MAX_CLASSES classes raise SizeGuardError.
    """
    G, k = C.group, C.k
    if k > MAX_CLASSES:
        raise SizeGuardError(f"{k} classes exceeds the {MAX_CLASSES} cap")
    ar = np.arange(G.n)
    row = C.class_of.take(G.inv).astype(np.int64) * k
    M = np.empty((k, k, k), dtype=np.int64)
    for l, z in enumerate(_short_members(C)):
        pairs = row + C.class_of.take(G.compose(ar, z))
        M[:, :, l] = np.bincount(pairs, minlength=k * k).reshape(k, k)
    return M


def _orthogonality_residual(
    chi: np.ndarray, sizes: np.ndarray, n: int
) -> float:
    k = chi.shape[0]
    row_gram = (chi * sizes[None, :]) @ chi.conj().T / n
    row_res = float(np.abs(row_gram - np.eye(k)).max())
    col_gram = chi.T @ chi.conj()
    col_res = float(np.abs(col_gram - np.diag(n / sizes.astype(np.float64))).max())
    return max(row_res, col_res)


def _power_maps(C: ConjugacyData) -> tuple[np.ndarray, np.ndarray]:
    """(P, orders): P[c, j] is the class of rep_c^j, for j up to the
    largest order at least, and orders[c] the order of rep_c.

    The powers double: g^(j + 2^t) = g^j g^(2^t) for every j < 2^t at
    once, then g^(2^(t+1)) = g^(2^t) g^(2^t), two composes over all the
    representatives per doubling, until every rep_c^j with j > 0 has
    reached the identity.
    """
    G = C.group
    powers = np.zeros((C.k, 1), dtype=np.int32)
    square = C.representatives[:, None]
    while not (powers[:, 1:] == 0).any(axis=1).all():
        powers = np.hstack([powers, G.compose(powers, square)])
        square = G.compose(square, square)
    orders = 1 + np.argmax(powers[:, 1:] == 0, axis=1)
    return C.class_of.take(powers), orders


def _least_prime(e: int, floor: int) -> int:
    """The least prime p = 1 (mod e) above floor."""
    p = floor // e * e + 1
    while p <= floor or not _is_prime(p):
        p += e
    return p


def _root_of_unity(e: int, p: int) -> int:
    """The first power x^((p-1)/e), x = 2, 3, ..., of order exactly e mod p:
    z^(e/q) != 1 for each prime q dividing e (by trial division)."""
    factors, m, q = [], e, 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    factors += [m] if m > 1 else []
    for x in range(2, p):
        z = pow(x, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in factors):
            return z
    raise CertificationError(f"no primitive {e}-th root of unity mod {p}")


def _inverse(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p elementwise: the inverse mod p of each nonzero a, and
    0 for a = 0."""
    out, base = np.ones_like(a), a % p
    for bit in bin(p - 2)[:1:-1]:
        if bit == "1":
            out = out * base % p
        base = base * base % p
    return out


def _combinations(k: int, p: int):
    """The weight vectors r of the combinations A = sum_i r_i M_i: one
    fixed sequence, uniform over [0, p)^k."""
    rng = random.Random(0)
    while True:
        yield [rng.randrange(p) for _ in range(k)]


def _combination(C: ConjugacyData, r, p: int) -> np.ndarray:
    """A = sum_i r_i M_i mod p (int64), without the stack of the M_i.

    As in class_mult_coefficients, M_i[j][l] counts the y with y^{-1} in
    C_i and y z_l in C_j, so column l of A sums the weight r_{class(y^-1)}
    of each y into the class of y z_l: one weighted bincount per class,
    through the walk of the shortest word in it (_short_members).  A cell
    sums at most n weights below p, exact in float64 while n (p - 1) <
    2^53, so any member of a class gives the same column bits.
    """
    G = C.group
    weights = np.asarray(r, dtype=np.float64).take(C.class_of.take(G.inv))
    ar = np.arange(G.n, dtype=np.int32)
    A = np.empty((C.k, C.k), dtype=np.int64)
    for l, z in enumerate(_short_members(C)):
        cells = np.bincount(C.class_of.take(G.compose(ar, z)), weights, minlength=C.k)
        A[:, l] = cells % p
    return A


def _solve(K: np.ndarray, y: np.ndarray, p: int) -> np.ndarray | None:
    """The x with K x = y (mod p), by Gauss-Jordan elimination, or None
    when K is singular mod p.  A row is reduced only when it is read, so
    an entry gathers at most k - 1 products below p^2 on its residue."""
    k = len(K)
    M = np.concatenate([K, y[:, None]], axis=1)
    for i in range(k):
        nonzero = np.flatnonzero(M[i:, i] % p)
        if not nonzero.size:
            return None
        j = i + nonzero[0]
        M[[i, j]] = M[[j, i]]
        M[i] = M[i] % p * pow(int(M[i, i] % p), -1, p) % p
        f = M[:, i] % p
        f[i] = 0
        M -= np.outer(f, M[i])
    return M[:, k] % p


def _eigenvectors(A: np.ndarray, p: int) -> np.ndarray | None:
    """The k eigenvectors of A mod p as columns, or None when A repeats
    an eigenvalue.

    The Krylov vectors A^j e_0 give the minimal polynomial f of e_0; e_0
    has a nonzero part along every eigenvector, so f has degree k exactly
    when the k eigenvalues differ.  Its roots lam come from Horner's rule
    at every point of F_p, a block at a time, and the eigenvector of lam
    is q(A) e_0 with q = f / (x - lam), by synthetic division.  A correct
    A has k distinct roots once f has degree k; fewer raise
    CertificationError.
    """
    k = len(A)
    V = np.zeros((k + 1, k), dtype=np.int64)
    V[0, 0] = 1
    for j in range(k):
        V[j + 1] = A @ V[j] % p
    K = V[:k].T
    a = _solve(K, V[k], p)
    if a is None:
        return None
    f = np.append(-a % p, 1)  # coefficients, lowest first
    roots = []
    for lo in range(0, p, CHUNK * CHUNK):
        x = np.arange(lo, min(p, lo + CHUNK * CHUNK), dtype=np.int64)
        value = np.ones_like(x)
        for c in f[-2::-1]:
            value *= x
            value += c
            value %= p
        roots.append(x[value == 0])
    lam = np.concatenate(roots)
    if len(lam) != k:
        raise CertificationError(
            f"the minimal polynomial has {len(lam)} roots mod {p}, not {k}"
        )
    Q = np.empty((k, k), dtype=np.int64)
    Q[k - 1] = 1
    for j in range(k - 1, 0, -1):
        Q[j - 1] = (f[j] + lam * Q[j]) % p
    return K @ Q % p


def _lift(
    X: np.ndarray, P: np.ndarray, orders: np.ndarray, degrees: np.ndarray, e: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """(chi, keys): the complex table from its residues X mod p, and the
    eigenvalue multiplicities it was read from, one row per character.

    Classes are taken largest order first, and each class g that is not
    yet a power of an earlier one gives the values at all its powers.
    With z_o = z^(e/o) of order o in F_p, z of order e, the multiplicity
    of exp(2 pi i a / o) as an eigenvalue of rho_r(g) is
    m_a = o^-1 sum_j chi_r(g^j) z_o^(-j a) mod p: one o x o product in
    float64, exact while o (p - 1)^2 < 2^53, and an integer in [0, d_r]
    summing to d_r, else CertificationError.  Then chi_r(g^j) =
    sum_a m_a exp(2 pi i a j / o).  A class met again as a later power
    keeps its first values.
    """
    k = len(X)
    z = _root_of_unity(e, p)
    chi = np.empty((k, k), dtype=np.complex128)
    filled = np.zeros(k, dtype=bool)
    keys = []
    for g in np.argsort(-orders, kind="stable"):
        if filled[g]:
            continue
        o = int(orders[g])
        cls = P[g, :o]
        ja = np.outer(np.arange(o), np.arange(o)) % o
        step = pow(z, -(e // o), p)  # 1 / z_o
        dft = np.array([pow(step, t, p) for t in range(o)], dtype=np.float64)[ja]
        m = np.remainder(X.take(cls, axis=1).astype(np.float64) @ dft, p)
        m = m.astype(np.int64) * pow(o, -1, p) % p
        if np.any(m > degrees[:, None]) or np.any(m.sum(axis=1) != degrees):
            raise CertificationError("an eigenvalue multiplicity is out of range")
        values = m @ np.exp(2j * np.pi * ja / o)
        _, first = np.unique(cls, return_index=True)
        first = first[~filled.take(cls.take(first))]
        chi[:, cls.take(first)] = values[:, first]
        filled[cls] = True
        keys.append(m)
    return chi, np.hstack(keys)


def compute_character_table(C: ConjugacyData) -> CharacterTable:
    """Compute and certify the full character table of the group of C by
    Dixon's method; the table holds C.

    p is the least prime p = 1 (mod e), e the lcm of the orders of the
    class representatives, above max(n, k^2).  The combinations of
    _combinations are tried in turn until one has k distinct eigenvalues;
    its eigenvectors, scaled to 1 at the identity class, are the central
    characters omega_r, and d_r^2 = n / sum_K omega_r(K) omega_r(K^-1)/|K|
    (mod p), exact since p > n.  Then chi_r(g) = d_r omega_r(K)/|K| mod p,
    and _lift reads the complex values off these residues through exact
    eigenvalue multiplicities.  Rows are sorted by degree, then by those
    multiplicities, largest first, so row 0 is the trivial character.

    Raises CertificationError unless: a combination among ATTEMPTS has k
    distinct eigenvalues, each squared degree is a square in [1, n] and
    they sum to n, each multiplicity vector lies in [0, d_r] and sums to
    d_r, row 0 is all ones, and both orthogonality relations hold mod p.
    The float orthogonality residual is kept as a diagnostic.  More than
    MAX_CLASSES classes raise SizeGuardError, and so does a p at which the
    int64 sums, k (p - 1)^2 < 2^63, or the float64 ones, o (p - 1)^2
    < 2^53 for the largest order o, would not be exact; the latter covers
    _combination's n (p - 1) < 2^53, since p > n and o >= 2.
    """
    n, k = C.group.n, C.k
    if k > MAX_CLASSES:
        raise SizeGuardError(f"{k} classes exceeds the {MAX_CLASSES} cap")
    P, orders = _power_maps(C)
    e = int(np.lcm.reduce(orders))
    p = _least_prime(e, max(n, k * k))
    if k * (p - 1) ** 2 >= 2**63:
        raise SizeGuardError(f"p = {p} with k = {k} overflows int64: k (p - 1)^2 >= 2^63")
    if int(orders.max()) * (p - 1) ** 2 >= 2**53:
        raise SizeGuardError(
            f"p = {p} with order {orders.max()} is inexact in float64: o (p - 1)^2 >= 2^53"
        )

    for attempts, r in enumerate(itertools.islice(_combinations(k, p), ATTEMPTS), 1):
        U = _eigenvectors(_combination(C, r, p), p)
        if U is not None:
            break
    else:
        raise CertificationError(f"each of {ATTEMPTS} combinations repeats an eigenvalue")
    if not U[0].all():
        raise CertificationError("an eigenvector vanishes at the identity class")
    omega = U * _inverse(U[0], p) % p
    inverse_class = P[np.arange(k), orders - 1]
    h_inv = _inverse(C.sizes, p)
    s = (omega * omega[inverse_class] % p * h_inv[:, None] % p).sum(axis=0) % p
    squares = n * _inverse(s, p) % p
    degrees = np.rint(np.sqrt(squares)).astype(np.int64)
    if np.any(degrees < 1) or np.any(degrees**2 != squares) or int(squares.sum()) != n:
        raise CertificationError("the squared degrees are not squares summing to the group order")
    X = omega.T * degrees[:, None] % p * h_inv % p  # chi mod p, one row per character

    chi, keys = _lift(X, P, orders, degrees, e, p)
    order = np.lexsort(np.vstack([-keys.T[::-1], degrees]))
    chi, degrees, X = chi[order], degrees[order], X[order]
    # A character whose residues equal its conjugate's is real-valued: two
    # irreducibles with the same residues are equal, their residues being
    # independent mod p.  Its values are then exactly real.
    real = np.all(X == X[:, inverse_class], axis=1)
    chi[real] = chi[real].real
    if np.any(X[0] != 1):
        raise CertificationError("row 0 is not the trivial character")
    rows = (X * C.sizes % p) @ X[:, inverse_class].T % p
    cols = X.T @ X[:, inverse_class] % p
    if not (
        np.array_equal(rows, n * np.eye(k, dtype=np.int64))
        and np.array_equal(cols, np.diag(n * h_inv % p))
    ):
        raise CertificationError(f"an orthogonality relation fails mod {p}")
    residual = _orthogonality_residual(chi, C.sizes.astype(np.float64), n)
    D = int(degrees[1]) if k > 1 else 1
    return CharacterTable(
        classes=C, chi=chi, degrees=degrees, D=D, residual=residual,
        prime=p, attempts=attempts,
    )


def witten_zeta(T: CharacterTable, s: float) -> float:
    """Sum of degrees^(-s) over nontrivial irreducibles."""
    if not s > 0:
        raise PreconditionError(f"exponent must be positive, got {s}")
    return float((T.degrees[1:].astype(np.float64) ** (-float(s))).sum())


def character_table_csv(T: CharacterTable) -> str:
    """Render the table as CSV.

    Two header rows give the representatives and sizes of its classes; each
    following row is one irreducible: its degree, then one complex cell
    per class with 17 significant digits.
    """
    C = T.classes
    lines = [
        "class_rep," + ",".join(str(int(r)) for r in C.representatives),
        "class_size," + ",".join(str(int(h)) for h in C.sizes),
    ]
    for r in range(T.k):
        cells = [
            f"{v.real:.16e}{v.imag:+.16e}j" for v in T.chi[r]
        ]
        lines.append(f"{int(T.degrees[r])}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def character_table_report(T: CharacterTable) -> dict:
    """JSON-ready summary of the certified table: its shape, degrees, D,
    zeta(1), the float residual, the prime p it was computed modulo and
    the number of combinations tried."""
    return {
        "n": T.n,
        "k": T.k,
        "degrees": [int(d) for d in T.degrees],
        "D": T.D,
        "zeta1": witten_zeta(T, 1.0),
        "orthogonality_residual": T.residual,
        "prime": T.prime,
        "attempts": T.attempts,
    }
