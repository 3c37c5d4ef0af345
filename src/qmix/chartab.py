"""Conjugacy classes and complex character tables.

Classes come from label propagation: every element takes the least label
among its images under the conjugation maps of the generators, in whole
array passes, until no label falls.  Characters are recovered by the
class-sum eigenvector method: the integer class-multiplication matrices
M_i, counted together from one right translation per class
representative, commute and are jointly diagonalized by the vectors
v_rho(j) = h_j chi_rho(j) / d_rho, so a random real combination of the
M_i has those vectors as its eigenvectors with probability 1.  The
result is certified against both orthogonality relations and the exact
degree identity before it is returned; a failed certificate is an error,
never a silent answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    GroupMismatchError,
    PreconditionError,
    SizeGuardError,
)
from .groups import GroupTable, is_abelian

MAX_CLASSES = 200
RETRIES = 5
DEGREE_TOL = 1e-6


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
    """Certified character table.

    Row 0 is the trivial character; rows are sorted by degree, then by
    rounded entry values, so equal inputs give identical tables across
    seeds.  ``D`` is the quasirandom degree, the smallest degree among
    nontrivial irreducibles; 1 means the bound downstream is vacuous.
    ``residual`` is the worst deviation found in either orthogonality
    relation at certification time.
    """

    n: int
    k: int
    chi: np.ndarray
    degrees: np.ndarray
    D: int
    residual: float


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


def _classes_of(G: GroupTable, C: ConjugacyData | None = None) -> ConjugacyData:
    """C, or the conjugacy classes of G when C is None; C must belong to G."""
    if C is None:
        return conjugacy_classes(G)
    if C.group is not G:
        raise GroupMismatchError("class data belongs to a different group")
    return C


def class_mult_coefficients(G: GroupTable, C: ConjugacyData) -> np.ndarray:
    """The (k, k, k) int64 stack M with M[i][j][l] = #{(a,b) in C_i x C_j :
    ab = rep_l}, M[i] being the class-multiplication matrix M_i.

    Counted over y = a^{-1}: b is forced to y rep_l, so M[i][j][l] counts
    the y with y^{-1} in C_i and y rep_l in C_j.  Each l takes one
    right-translation column y -> y rep_l (a walk of the one word of
    rep_l) and one bincount of the class pairs.
    C must belong to G.  The stack holds 8k^3 bytes, so more than
    MAX_CLASSES classes raise SizeGuardError.
    """
    C = _classes_of(G, C)
    k = C.k
    if k > MAX_CLASSES:
        raise SizeGuardError(f"{k} classes exceeds the {MAX_CLASSES} cap")
    ar = np.arange(G.n)
    row = C.class_of.take(G.inv).astype(np.int64) * k
    M = np.empty((k, k, k), dtype=np.int64)
    for l, rep in enumerate(C.representatives):
        pairs = row + C.class_of.take(G.compose(ar, rep))
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


def _canonical_order(chi: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    keys = []
    for r in range(chi.shape[0]):
        re = tuple(-round(float(v), 6) for v in chi[r].real)
        im = tuple(-round(float(v), 6) for v in chi[r].imag)
        keys.append((int(degrees[r]), re, im))
    return np.array(sorted(range(chi.shape[0]), key=lambda r: keys[r]), dtype=np.int64)


def compute_character_table(
    G: GroupTable,
    C: ConjugacyData | None = None,
    *,
    seed: int = 42,
    tol: float = 1e-8,
) -> CharacterTable:
    """Compute and certify the full character table of G.

    Raises CertificationError if none of RETRIES attempts yields a table
    passing all of: eigenvalue separation, integral degrees (pre-rounding
    deviation below DEGREE_TOL), sum of squared degrees equal to n
    exactly, both orthogonality relations within tol, trivial row all
    ones, and agreement of the all-degrees-one test with abelianness.
    A nan, infinite or negative tol raises PreconditionError, and more
    than MAX_CLASSES classes SizeGuardError (class_mult_coefficients).
    """
    if not 0 <= tol < np.inf:
        raise PreconditionError(f"tol must be finite and >= 0, got {tol}")
    C = _classes_of(G, C)
    n, k = G.n, C.k
    M_all = class_mult_coefficients(G, C).astype(np.float64)
    sizes_f = C.sizes.astype(np.float64)

    abelian = is_abelian(G)
    last_error = "no attempt made"
    for attempt in range(RETRIES):
        rng = np.random.default_rng((seed, attempt))
        r = rng.uniform(1.0, 2.0, size=k)
        M = np.tensordot(r, M_all, axes=1)
        w, V = np.linalg.eig(M)
        gap_scale = max(1.0, float(np.abs(w).max()))
        if k > 1:
            min_gap = float(np.abs(np.subtract.outer(w, w))[~np.eye(k, dtype=bool)].min())
            if min_gap < 10.0 * tol * gap_scale:
                last_error = f"eigenvalue collision (gap {min_gap:.3e})"
                continue

        # Per-class eigenvalues via Rayleigh quotients on each M_i.
        T = (M_all.reshape(k * k, k) @ V).reshape(k, k, k)
        num = np.einsum("jr,ijr->ir", V.conj(), T)
        norms = (V.conj() * V).sum(axis=0).real
        omega = num / norms[None, :]

        s = (np.abs(omega) ** 2 / sizes_f[:, None]).sum(axis=0)
        degrees_f = np.sqrt(n / s)
        degrees = np.rint(degrees_f).astype(np.int64)
        if np.any(degrees < 1) or float(np.abs(degrees_f - degrees).max()) > DEGREE_TOL:
            last_error = "non-integral degree before rounding"
            continue
        if int((degrees**2).sum()) != n:
            last_error = "squared degrees do not sum to the group order"
            continue

        chi = (omega.T * degrees[:, None].astype(np.float64)) / sizes_f[None, :]
        order = _canonical_order(chi, degrees)
        chi = chi[order]
        degrees = degrees[order]

        if float(np.abs(chi[0] - 1.0).max()) > tol:
            last_error = "canonical first row is not the trivial character"
            continue
        residual = _orthogonality_residual(chi, sizes_f, n)
        if residual > tol:
            last_error = f"orthogonality residual {residual:.3e} above tol"
            continue
        if bool(np.all(degrees == 1)) != abelian:
            last_error = "degree pattern contradicts abelianness"
            continue

        D = int(degrees[1]) if k > 1 else 1
        return CharacterTable(
            n=n, k=k, chi=chi, degrees=degrees, D=D, residual=residual
        )

    raise CertificationError(
        f"character table failed certification after {RETRIES} attempts: {last_error}"
    )


def witten_zeta(T: CharacterTable, s: float) -> float:
    """Sum of degrees^(-s) over nontrivial irreducibles."""
    if not s > 0:
        raise PreconditionError(f"exponent must be positive, got {s}")
    return float((T.degrees[1:].astype(np.float64) ** (-float(s))).sum())


def character_table_csv(T: CharacterTable, C: ConjugacyData) -> str:
    """Render the table as CSV.

    Two header rows give class representatives and class sizes; each
    following row is one irreducible: its degree, then one complex cell
    per class with 17 significant digits.
    """
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
    """JSON-ready summary of the certified table."""
    return {
        "n": T.n,
        "k": T.k,
        "degrees": [int(d) for d in T.degrees],
        "D": T.D,
        "zeta1": witten_zeta(T, 1.0),
        "orthogonality_residual": T.residual,
    }
