"""Functions on a finite group and their character-side spectra.

Everything spectral is computed through character kernels; irreducible
representation matrices are never materialized.  The only O(n^2) passes
are convolution and the class-correlation aggregation inside
spectral_profile, both chunked so peak memory stays near CHUNK * n
complex entries.
"""

from __future__ import annotations

import json
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

    Values are copied, checked finite, and frozen; the instance is safe
    to share across workers.
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


def mean_zero_decompose(f: GroupFunction) -> tuple[complex, GroupFunction]:
    m = mean(f)
    return m, GroupFunction(f.group, f.values - m)


def convolve(f: GroupFunction, h: GroupFunction, *, sparse: bool | None = None) -> GroupFunction:
    """(f*h)(x) = E_y[f(x y^{-1}) h(y)].

    The dense kernel is O(n^2); when either factor has small support a
    translate-accumulate pass in O(n * support) is used instead (forced
    on or off via ``sparse``).
    """
    G = _same_group(f, h)
    n = G.n
    nnz_f = int(np.count_nonzero(f.values))
    nnz_h = int(np.count_nonzero(h.values))
    if sparse is None:
        sparse = min(nnz_f, nnz_h) <= max(1, n // 8)
    if sparse:
        out = np.zeros(n, dtype=np.complex128)
        ar = np.arange(n)
        if nnz_h <= nnz_f:
            for y in np.flatnonzero(h.values):
                col = G.compose(ar, G.inv[y])  # col[x] = x * y^{-1}
                out += h.values[y] * f.values[col]
        else:
            # Same sum seen from the left factor: z = x y^{-1}.
            for z in np.flatnonzero(f.values):
                row = G.compose(G.inv[z], ar)  # row[x] = z^{-1} * x
                out += f.values[z] * h.values[row]
        return GroupFunction(G, out / n)
    t = G.require_table("dense convolution")
    iv = G.inv
    out = np.empty(n, dtype=np.complex128)
    hv = h.values
    fv = f.values
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        rows = t[lo:hi][:, iv]  # rows[x, y] = x * y^{-1}
        out[lo:hi] = fv[rows] @ hv
    return GroupFunction(G, out / n)


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

    One O(n^2) pass aggregates R[c] = sum over pairs with x^{-1} y in
    class c of conj(f(x)) f(y); then hs2[r] = (chi_r . R) / n^2 for all
    rows at O(k^2) total.  Parseval is checked against the 2-norm and a
    violation raises (pass tol=inf to skip when deliberately probing).
    """
    G = f.group
    if C.group is not G:
        raise GroupMismatchError("class data belongs to a different group")
    if T.k != C.k or T.n != G.n:
        raise GroupMismatchError("character table does not match the class data")
    t = G.require_table("spectral profile")
    V = f.values
    corr = np.zeros(G.n, dtype=np.complex128)
    for lo in range(0, G.n, CHUNK):
        hi = min(lo + CHUNK, G.n)
        corr += np.conj(V[lo:hi]) @ V[t[lo:hi]]
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


def function_to_json(f: GroupFunction) -> str:
    return json.dumps([[v.real, v.imag] for v in f.values])


def function_from_json(G: GroupTable, text: str) -> GroupFunction:
    data = json.loads(text)
    if not isinstance(data, list) or len(data) != G.n:
        raise PreconditionError(f"function file must hold {G.n} [re, im] pairs")
    vals = np.empty(G.n, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise PreconditionError("function file entries must be [re, im] pairs")
        vals[i] = complex(float(pair[0]), float(pair[1]))
    return GroupFunction(G, vals)
