"""Functions on a finite group and their character-side spectra.

Everything spectral is computed through character kernels; irreducible
representation matrices are never materialized.  The two table kernels,
convolution and the class correlation inside spectral_profile, sum only
over the support of one factor: they cost n gathers per support point,
O(n^2) for a dense function and O(n |S|) for a density on a set S.  Both
go CHUNK support points or rows at a time, so peak memory stays near
CHUNK * n entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartab import CharacterTable, ConjugacyData
from .errors import (
    CertificationError,
    GroupMismatchError,
    PreconditionError,
)
from .groups import GroupTable

CHUNK = 256


class GroupFunction:
    """A complex-valued function on a group, stored as a length-n vector.

    Values are copied, checked finite, and frozen, so no caller can
    change a function another object holds.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: GroupTable, values):
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (group.n,):
            raise PreconditionError(
                f"function needs {group.n} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise PreconditionError("non-finite value in group function")
        vals = vals.copy()
        vals.setflags(write=False)
        self.group = group
        self.values = vals

    def __repr__(self) -> str:
        return f"GroupFunction(n={self.group.n})"


def _same_group(f: GroupFunction, h: GroupFunction) -> GroupTable:
    if f.group is not h.group:
        raise GroupMismatchError("functions live on different groups")
    return f.group


def constant_function(G: GroupTable, value: complex = 1.0) -> GroupFunction:
    return GroupFunction(G, np.full(G.n, value, dtype=np.complex128))


def _check_index_set(G: GroupTable, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise PreconditionError("element set must be a nonempty 1-d index list")
    if idx.min() < 0 or idx.max() >= G.n:
        raise PreconditionError("element index out of range")
    if len(np.unique(idx)) != len(idx):
        raise PreconditionError("element set contains duplicates")
    return idx


def indicator_function(G: GroupTable, indices) -> GroupFunction:
    vals = np.zeros(G.n, dtype=np.complex128)
    vals[_check_index_set(G, indices)] = 1.0
    return GroupFunction(G, vals)


def mu_set(G: GroupTable, indices) -> GroupFunction:
    """Scaled density: |G|/|S| on S, zero elsewhere; mean exactly 1."""
    idx = _check_index_set(G, indices)
    vals = np.zeros(G.n, dtype=np.complex128)
    vals[idx] = G.n / len(idx)
    return GroupFunction(G, vals)


def mu_translated_class(G: GroupTable, C: ConjugacyData, g: int) -> GroupFunction:
    """Scaled density of the translated class {g*c : c in C(g)}.

    The variant over inverses used by the derivative average, the set
    g^{-1} C(g^{-1}), is this function called at the inverse element.
    """
    if C.group is not G:
        raise GroupMismatchError("class data belongs to a different group")
    g = int(G._check_indices(g))
    members = C.class_elements[int(C.class_of[g])]
    support = G.compose(g, members)
    return mu_set(G, support)


def character_function(T: CharacterTable, C: ConjugacyData, r: int) -> GroupFunction:
    if not 0 <= r < T.k:
        raise PreconditionError(f"irreducible index {r} out of range 0..{T.k - 1}")
    return GroupFunction(C.group, T.chi[r][C.class_of])


def mean(f: GroupFunction) -> complex:
    return complex(f.values.mean())


def p_norm(f: GroupFunction, p: float) -> float:
    """Expectation-normalized p-norm; p may be inf."""
    if p == np.inf:
        return float(np.abs(f.values).max())
    p = float(p)
    if p < 1:
        raise PreconditionError(f"p must be >= 1 or inf, got {p}")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def convolve(f: GroupFunction, h: GroupFunction) -> GroupFunction:
    """(f*h)(x) = E_y[f(x y^{-1}) h(y)].

    The sum runs only over the support of h, so the kernel costs
    n * |supp h| gathers: O(n^2) for a dense h, O(n |S|) for a density on
    a set S.  Rows x go CHUNK at a time.
    """
    G = _same_group(f, h)
    t = G.require_table("convolution")
    ys = np.flatnonzero(h.values)
    hy = h.values[ys]
    iy = G.inv[ys]
    out = np.empty(G.n, dtype=np.complex128)
    for lo in range(0, G.n, CHUNK):
        rows = t[lo:lo + CHUNK][:, iy]  # rows[x, j] = x * ys_j^{-1}
        out[lo:lo + CHUNK] = f.values[rows] @ hy
    return GroupFunction(G, out / G.n)


def delta_shift(f: GroupFunction, b: int) -> GroupFunction:
    """Multiplicative derivative f(x) * f(xb); deliberately unconjugated."""
    G = f.group
    col = G.compose(np.arange(G.n), b)
    return GroupFunction(f.group, f.values * f.values[col])


@dataclass(eq=False)
class SpectralProfile:
    """Squared HS norms of the Fourier coefficients of one function."""

    hs2: np.ndarray
    table: CharacterTable
    parseval_residual: float


def spectral_profile(
    f: GroupFunction, T: CharacterTable, C: ConjugacyData, *, tol: float = 1e-8
) -> SpectralProfile:
    """Per-irreducible squared HS norms via the class-correlation kernel.

    One pass aggregates R[c] = sum over pairs with x^{-1} y in class c of
    conj(f(x)) f(y); then hs2[r] = (chi_r . R) / n^2 for all rows at
    O(k^2) total.  The outer sum runs only over the support of f, CHUNK
    points x at a time, so the pass costs n * |supp f| gathers: O(n^2)
    for a dense f, n |K| for a translated-class density.  Parseval is
    checked against the 2-norm and a violation raises (pass tol=inf to
    skip when deliberately probing).
    """
    G = f.group
    if C.group is not G:
        raise GroupMismatchError("class data belongs to a different group")
    if T.k != C.k or T.n != G.n:
        raise GroupMismatchError("character table does not match the class data")
    t = G.require_table("spectral profile")
    V = f.values
    xs = np.flatnonzero(V)
    corr = np.zeros(G.n, dtype=np.complex128)
    for lo in range(0, len(xs), CHUNK):
        rows = xs[lo:lo + CHUNK]
        if rows[-1] - rows[0] == len(rows) - 1:
            # A run of consecutive points, as in every block of a dense f:
            # a slice reads the table rows without copying them.
            rows = slice(rows[0], rows[-1] + 1)
        corr += np.conj(V[rows]) @ V[t[rows]]  # corr[j] += conj f(x) f(xj)
    R = np.bincount(C.class_of, weights=corr.real, minlength=C.k) + 1j * np.bincount(
        C.class_of, weights=corr.imag, minlength=C.k
    )
    hs2_c = (T.chi @ R) / (G.n * G.n)
    imag_residue = float(np.abs(hs2_c.imag).max())
    if imag_residue > max(tol, 1e-8):
        raise CertificationError(
            f"imaginary residue {imag_residue:.3e} in spectral profile"
        )
    hs2 = hs2_c.real.copy()
    neg = float(hs2.min())
    if neg < -max(tol, 1e-8):
        raise CertificationError(f"negative HS mass {neg:.3e} in spectral profile")
    np.clip(hs2, 0.0, None, out=hs2)
    norm2_sq = float(np.mean(np.abs(V) ** 2))
    residual = abs(float(T.degrees @ hs2) - norm2_sq)
    if residual > tol:
        raise CertificationError(
            f"Parseval residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    return SpectralProfile(hs2=hs2, table=T, parseval_residual=residual)


def class_function_scalar(
    f: GroupFunction, T: CharacterTable, C: ConjugacyData, r: int
) -> complex:
    """Fourier scalar of a class function at irreducible r.

    f must be constant on conjugacy classes (checked to 1e-10); the
    scalar is E_x[f(x) chi_r(x)] / d_r.
    """
    if C.group is not f.group:
        raise GroupMismatchError("class data belongs to a different group")
    if not 0 <= r < T.k:
        raise PreconditionError(f"irreducible index {r} out of range 0..{T.k - 1}")
    rep_vals = f.values[C.representatives]
    dev = float(np.abs(f.values - rep_vals[C.class_of]).max())
    if dev > 1e-10:
        raise PreconditionError(
            f"not a class function (max within-class deviation {dev:.3e})"
        )
    total = np.sum(C.sizes * rep_vals * T.chi[r])
    return complex(total / (T.n * int(T.degrees[r])))


def invert_class_function(
    scalars, T: CharacterTable, C: ConjugacyData
) -> GroupFunction:
    """Rebuild the class function whose Fourier scalars are given.

    Exact left inverse of class_function_scalar: expanding f in the
    character basis and applying row orthogonality shows the value on
    class c must be sum_r d_r scalar_r conj(chi_r(c)).
    """
    s = np.asarray(scalars, dtype=np.complex128)
    if s.shape != (T.k,):
        raise PreconditionError(f"need {T.k} scalars, got shape {s.shape}")
    cls_values = (T.degrees.astype(np.float64) * s) @ np.conj(T.chi)
    return GroupFunction(C.group, cls_values[C.class_of])
