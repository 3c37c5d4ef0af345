"""Functions on a finite group and their character-side spectra.

A GroupFunction is a frozen length-n vector.  This module holds its
constructors (indicators and the translated-class densities mu_g),
means and p-norms, convolution, and the per-irreducible spectral
profile.  Everything spectral is computed through character kernels;
irreducible representation matrices are never materialized.  One table
kernel, the row correlation, serves convolution, spectral_profile and
the derivative average and class convolution in mixing.  It sums only
over the support of one factor: n gathers per support point, O(n^2) for
a dense function and O(n |S|) for a density on a set S.  It goes CHUNK
support points at a time, so peak memory stays near CHUNK * n entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartab import CharacterTable, ConjugacyData, _classes_of
from .errors import (
    CertificationError,
    GroupMismatchError,
    PreconditionError,
)
from .groups import CHUNK, GroupTable


class GroupFunction:
    """A complex-valued function on a group, stored as a length-n vector.

    Values of any numeric dtype, or a list, are copied into a new
    complex128 array in one conversion, checked finite, and frozen, so no
    caller can change a function another object holds.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: GroupTable, values):
        vals = np.array(values, dtype=np.complex128)
        if vals.shape != (group.n,):
            raise PreconditionError(
                f"function needs {group.n} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise PreconditionError("non-finite value in group function")
        vals.setflags(write=False)
        self.group = group
        self.values = vals

    def __repr__(self) -> str:
        return f"GroupFunction(n={self.group.n})"


def _same_group(*fs: GroupFunction) -> GroupTable:
    G = fs[0].group
    if any(f.group is not G for f in fs):
        raise GroupMismatchError("functions live on different groups")
    return G


def _check_index_set(G: GroupTable, indices) -> np.ndarray:
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise PreconditionError("element set must be a nonempty 1-d index list")
    G._check_indices(idx)
    if len(np.unique(idx)) != len(idx):
        raise PreconditionError("element set contains duplicates")
    return idx


def indicator_function(G: GroupTable, indices) -> GroupFunction:
    """The 0/1 function of a set of element indices, passed to
    GroupFunction as a bool array."""
    vals = np.zeros(G.n, dtype=bool)
    vals[_check_index_set(G, indices)] = True
    return GroupFunction(G, vals)


def mu_translated_class(G: GroupTable, C: ConjugacyData, g: int) -> GroupFunction:
    """Scaled density of the translated class {g*c : c in C(g)}.

    The set g^{-1} C(g^{-1}), on which the gamma functional in mixing
    puts its mu_g, is this function called at the inverse element.  The
    density is |G|/|C(g)| on that set, so its mean is exactly 1; the
    float64 values go to GroupFunction unconverted.
    """
    C = _classes_of(G, C)
    g = int(G._check_indices(g))
    members = np.flatnonzero(C.class_of == C.class_of[g])
    vals = np.zeros(G.n)
    vals[G.compose(g, members)] = G.n / len(members)
    return GroupFunction(G, vals)


def mean(f: GroupFunction) -> complex:
    return complex(f.values.mean())


def p_norm(f: GroupFunction, p: float) -> float:
    """Expectation-normalized p-norm; p may be inf."""
    if p == np.inf:
        return float(np.abs(f.values).max())
    p = float(p)
    if not p >= 1:
        raise PreconditionError(f"p must be >= 1 or inf, got {p}")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def convolve(f: GroupFunction, h: GroupFunction) -> GroupFunction:
    """(f*h)(x) = E_y[f(x y^{-1}) h(y)].

    With ft = f o inv, (f*h)(x) = (1/n) sum_y h(y) ft(y x^{-1}), the row
    correlation of h against ft read at x^{-1}.  That correlation sums
    only over the support of h, so the kernel costs n * |supp h| gathers:
    O(n^2) for a dense h, O(n |S|) for a density on a set S.
    """
    G = _same_group(f, h)
    corr = _correlation(G, h.values, f.values[G.inv])  # corr[x^{-1}] = n (f*h)(x)
    return GroupFunction(G, corr[G.inv] / G.n)


@dataclass(eq=False)
class SpectralProfile:
    """Squared HS norms of the Fourier coefficients of one function."""

    hs2: np.ndarray
    parseval_residual: float


def _correlation(G: GroupTable, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """corr[j] = sum_x U[x] V[xj], summed over the support of U.

    It fetches the table of G itself (require_table), so a group without
    one raises SizeGuardError, and its callers do not handle the table.
    Points x go CHUNK at a time, so the pass costs n gathers per support
    point and holds CHUNK * n entries.  A block of consecutive points, as
    every block of a dense U is, reads its table rows through a slice
    without copying them.
    """
    t = G.require_table(
        "the row correlation of convolve, spectral_profile and "
        "verify_derivative_bound"
    )
    xs = np.flatnonzero(U)
    corr = np.zeros(len(V), dtype=np.complex128)
    for lo in range(0, len(xs), CHUNK):
        rows = xs[lo:lo + CHUNK]
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        corr += U[rows] @ V[t[rows]]
    return corr


def spectral_profile(
    f: GroupFunction, T: CharacterTable, C: ConjugacyData, *, tol: float = 1e-8
) -> SpectralProfile:
    """Per-irreducible squared HS norms via the class-correlation kernel.

    One pass aggregates R[c] = sum over pairs with x^{-1} y in class c of
    conj(f(x)) f(y); then hs2[r] = (chi_r . R) / n^2 for all rows at
    O(k^2) total.  The outer sum runs only over the support of f, CHUNK
    points x at a time, so the pass costs n * |supp f| gathers: O(n^2)
    for a dense f, n |K| for a translated-class density.  An imaginary
    residue or a negative mass above 1e-8 raises, whatever ``tol``;
    ``tol`` bounds only the Parseval residual against the 2-norm (pass
    tol=inf to skip that raise when deliberately probing).
    """
    G = f.group
    C = _classes_of(G, C)
    if T.k != C.k or T.n != G.n:
        raise GroupMismatchError("character table does not match the class data")
    V = f.values
    corr = _correlation(G, np.conj(V), V)  # corr[j] = sum_x conj f(x) f(xj)
    R = np.bincount(C.class_of, weights=corr.real, minlength=C.k) + 1j * np.bincount(
        C.class_of, weights=corr.imag, minlength=C.k
    )
    hs2_c = (T.chi @ R) / (G.n * G.n)
    imag_residue = float(np.abs(hs2_c.imag).max())
    if imag_residue > 1e-8:
        raise CertificationError(
            f"imaginary residue {imag_residue:.3e} in spectral profile"
        )
    hs2 = hs2_c.real.copy()
    neg = float(hs2.min())
    if neg < -1e-8:
        raise CertificationError(f"negative HS mass {neg:.3e} in spectral profile")
    np.clip(hs2, 0.0, None, out=hs2)
    norm2_sq = float(np.mean(np.abs(V) ** 2))
    residual = abs(float(T.degrees @ hs2) - norm2_sq)
    if residual > tol:
        raise CertificationError(
            f"Parseval residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    return SpectralProfile(hs2=hs2, parseval_residual=residual)
