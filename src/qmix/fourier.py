"""Functions on a finite group and their character-side spectra.

A GroupFunction is a frozen length-n vector.  This module holds its
constructors (indicators and the translated-class densities mu_g),
means and p-norms, convolution, and the per-irreducible spectral
profile.  Everything spectral is computed through character kernels;
irreducible representation matrices are never materialized.  One
kernel, the row correlation, serves convolution, spectral_profile and
the derivative average and class convolution in mixing: it sums each
function row by row over the blocks of groups._row_blocks, n^2 gathers
with one block held, and reads no n x n table, so all of them run on
every group.  The step from a correlation's class sums to the squared
HS norms, _class_hs2, is shared with mixing.verify_fcmu, which reads
those sums off the class structure constants instead.

A character table carries its classes and, through them, its group, so
spectral_profile takes f and T alone.  _table_group is the one check
that a table belongs to the functions it is given: T.classes.group must
be their group itself, so a table of another group of the same order is
refused too.  Every check in mixing that takes functions with a table
goes through it before any pass.
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
from .groups import GroupTable, _row_blocks


# The kind a GroupFunction holds for each numpy dtype kind.
_KINDS = {"b": np.bool_, "i": np.int64, "u": np.int64, "f": np.float64, "c": np.complex128}


class GroupFunction:
    """A function on a group, stored as a length-n vector of its own kind.

    Values of any numeric dtype, or a list, are copied once into a new
    frozen array, so no caller can change a function another object
    holds.  bool stays bool (n bytes), any integer becomes int64, any
    float float64 (8n bytes), and complex complex128 (16n bytes), unless
    every imaginary part is zero: those values are held as float64.  Only
    float and complex values are checked finite.  This is the one place
    that decides a function's kind; the kernels read it from the dtype
    instead of scanning the values.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: GroupTable, values):
        src = np.asarray(values)
        kind = _KINDS.get(src.dtype.kind)
        if kind is None:
            raise PreconditionError(f"function values must be numeric, got {src.dtype}")
        if kind is np.complex128 and not np.any(src.imag):
            src, kind = src.real, np.float64
        if src.dtype.kind == "u" and src.size and src.max() > np.iinfo(np.int64).max:
            raise PreconditionError("function value above the int64 range")
        vals = np.array(src, dtype=kind)
        if vals.shape != (group.n,):
            raise PreconditionError(
                f"function needs {group.n} values, got shape {vals.shape}"
            )
        if vals.dtype.kind in "fc" and not np.all(np.isfinite(vals)):
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


def _table_group(T: CharacterTable, *fs: GroupFunction) -> GroupTable:
    """The one group G of fs (_same_group), which must be the group T was
    computed on: T.classes.group is G.  An identity check, so a table of
    another group of the same order is refused too."""
    G = _same_group(*fs)
    if T.classes.group is not G:
        raise GroupMismatchError("character table does not match the group")
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
    """The 0/1 function of a set of element indices, held as bool (n
    bytes); a triple of them is counted in packed words (theta_defects)."""
    vals = np.zeros(G.n, dtype=bool)
    vals[_check_index_set(G, indices)] = True
    return GroupFunction(G, vals)


def mu_translated_class(C: ConjugacyData, g: int) -> GroupFunction:
    """Scaled density of the translated class {g*c : c in C(g)}.

    The set g^{-1} C(g^{-1}), on which the gamma functional in mixing
    puts its mu_g, is this function called at the inverse element.  The
    density is |G|/|C(g)| on that set, so its mean is exactly 1; the
    float64 values go to GroupFunction unconverted.
    """
    G = C.group
    g = int(G._check_indices(g))
    members = np.flatnonzero(C.class_of == C.class_of[g])
    vals = np.zeros(G.n)
    vals[G.compose(g, members)] = G.n / len(members)
    return GroupFunction(G, vals)


def mean(f: GroupFunction) -> complex:
    # Accumulated in complex128 whatever the kind: numpy divides a complex
    # sum by n as k * (1/n), which a real k / n does not always match.
    return complex(np.mean(f.values, dtype=np.complex128))


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
    correlation of h against ft read at x^{-1}, in float64 for real f and
    h and complex128 otherwise: n^2 gathers (see _correlation).
    """
    G = _same_group(f, h)
    corr = _correlation(G, h.values, f.values[G.inv])  # corr[x^{-1}] = n (f*h)(x)
    return GroupFunction(G, corr[G.inv] / G.n)


@dataclass(eq=False)
class SpectralProfile:
    """Squared HS norms of the Fourier coefficients of one function."""

    hs2: np.ndarray
    parseval_residual: float


def _kernel_dtype(*vs: np.ndarray) -> type:
    """The one dtype the value kernels compute in: complex128 when any
    operand is complex, else float64.  Every operand is cast to it, since
    a kernel's buffers take one dtype: an int64 buffer beside float64
    values would truncate their products."""
    return np.complex128 if any(np.iscomplexobj(v) for v in vs) else np.float64


def _correlation(G: GroupTable, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """corr[j] = sum_x U[x] V[xj] for every j, in the operands' kernel
    dtype (_kernel_dtype), reading no table.

    With Ut = U o inv and Vt = V o inv, corr[j] = sum_y Ut[jy] Vt[y]: the
    blocks of groups._row_blocks give the rows y -> jy, n^2 gathers in
    all, and each row is multiplied in place and summed by .sum(axis=1) in
    y order, through one buffer of the first, tallest block's shape.  So
    each corr[j] is summed in an order fixed by j alone, and its bits
    depend neither on the order nor on the height of the blocks.  (A
    matrix-vector product in its place changes the bits with the block
    height.)
    """
    dtype = _kernel_dtype(U, V)
    Ut, Vt = (W.astype(dtype, copy=False)[G.inv] for W in (U, V))
    corr = np.empty(G.n, dtype=dtype)
    buf = None
    for js, R in _row_blocks(G):
        if buf is None:
            buf = np.empty(R.shape, dtype=dtype)
        B = buf[: len(js)]
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(Ut, R, out=B, mode="clip")
        B *= Vt
        corr[js] = B.sum(axis=1)
    return corr


def _class_hs2(T: CharacterTable, R: np.ndarray) -> np.ndarray:
    """hs2[r] = (chi_r . R) / n^2, the squared HS norms of a function f
    from the class sums R (complex128) of its autocorrelation, R[c] = sum
    over the pairs with x^{-1} y in class c of conj(f(x)) f(y), c a class
    of T.classes.

    An imaginary residue or a negative mass above 1e-8 raises
    CertificationError; masses in [-1e-8, 0) are clipped to 0.
    """
    hs2_c = (T.chi @ R) / (T.n * T.n)
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
    return hs2


def spectral_profile(
    f: GroupFunction, T: CharacterTable, *, tol: float = 1e-8
) -> SpectralProfile:
    """Per-irreducible squared HS norms via the class-correlation kernel.

    One row correlation (_correlation, n^2 gathers, in float64 for real
    f) gives corr[j] = sum_x conj(f(x)) f(xj); its class sums R[c] go
    through _class_hs2, hs2[r] = (chi_r . R) / n^2 for all rows at O(k^2)
    total.  An imaginary residue or a negative mass above 1e-8 raises,
    whatever ``tol``; ``tol`` bounds only the Parseval residual against
    the 2-norm (pass tol=inf to skip that raise when deliberately
    probing).  T must be the table of f's group (_table_group).
    """
    G = _table_group(T, f)
    C = T.classes
    V = f.values.astype(_kernel_dtype(f.values), copy=False)
    corr = _correlation(G, np.conj(V), V)  # corr[j] = sum_x conj f(x) f(xj)
    R = np.bincount(C.class_of, weights=corr.real, minlength=C.k) + 1j * np.bincount(
        C.class_of, weights=corr.imag, minlength=C.k
    )
    hs2 = _class_hs2(T, R)
    norm2_sq = float(np.mean(np.abs(V) ** 2))
    residual = abs(float(T.degrees @ hs2) - norm2_sq)
    if residual > tol:
        raise CertificationError(
            f"Parseval residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    return SpectralProfile(hs2=hs2, parseval_residual=residual)
