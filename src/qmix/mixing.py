"""Mixing defect of three-term progressions and inequality certificates.

theta_defect measures how far E[f1(x) f2(xy) f3(xy^2)] sits from the
product of means; the remaining entry points certify, instance by
instance, every inequality used to bound that defect on a quasirandom
group: the convolution bound, the derivative average, the conjugated
convolution functional, Parseval, the Fourier mass of the
translated-class densities, the full Cauchy-Schwarz chain, and the end
bound (2/sqrt(D))^{1/4} itself.

The progression sum behind theta has one kernel per kind of input:
_bit_pass counts blocks of up to 64 indicator triples exactly in packed
words, and _value_pass sums one real or complex triple, so a triple's
bits depend on that triple alone.  _value_pass, the chain's c2 and
count_progressions sum through one row-sum kernel, _row_sums.  These
kernels and the search's sensitivity tables read the table's rows from
one provider, groups._row_blocks, which derives each row from its
parent's and alone decides the blocks' shape.  So none of them reads or
builds the n x n table, each holds a few buffers of one block's shape,
and each result is the same whatever order and height the rows come
in.  Only the kernels that index the table at random read it, through
require_table: the row correlation of fourier, _class_conv_sums,
_central_involutions and the chain's c3.  check_budget prices a suite
before anything is built.  The class convolution behind gamma and the
chain's c4 has one body too, _class_conv_sums, which reads every operand
as a row of the value table.  It and the chain's c3 pass are the O(n^3)
work, and both integrands are invariant under multiplication by the
central involutions E = {z central : z^2 = 1}: each evaluates one
element per coset of E (_central_involutions), weighted |E|, a no-op
where E is trivial, as on groups of trivial centre.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .chartab import CharacterTable, ConjugacyData, _classes_of
from .errors import (
    GroupMismatchError,
    PreconditionError,
    SizeGuardError,
)
from .fourier import (
    GroupFunction,
    _check_index_set,
    _correlation,
    _same_group,
    convolve,
    mean,
    mu_translated_class,
    p_norm,
    spectral_profile,
)
from .groups import CHUNK, GroupTable, _row_blocks

# The one size limit of the O(n^3) checks, in table gathers per call (see
# gather_estimate): the chain and sampled gamma refuse a larger
# estimate, and gamma runs exhaustively whenever its full pass fits.
GATHER_BUDGET = 800_000_000

# Columns b that sampled gamma draws, read at call time (see
# gamma_functional).
GAMMA_COLUMNS = 32

SUP_SLACK = 1e-12
MEAN_ZERO_TOL = 1e-10


@dataclass(eq=False)
class MixingReport:
    """Outcome of one defect computation.

    ``bound`` is (2/sqrt(D))^{1/4} when D >= 2 and +inf when D = 1 (the
    theorem says nothing there); ``margin`` is bound minus theta.
    """

    theta: float
    raw_expectation: complex
    product_of_means: complex
    bound: float
    D: int
    margin: float

    @property
    def vacuous(self) -> bool:
        return not math.isfinite(self.bound) or self.bound >= 1.0


@dataclass(eq=False)
class LemmaReport:
    """One verified inequality instance.

    Exhaustive mode passes iff lhs <= rhs + tol; sampled mode allows an
    extra 3 * stderr_estimate of Monte Carlo slack.  A sampled mode reads
    sampled(m=<count>,seed=<seed>), where for gamma m counts the columns b
    drawn, each averaged over every g.
    """

    lemma_id: str
    lhs_value: float
    rhs_bound: float
    mode: str
    passed: bool
    margin: float
    stderr_estimate: float | None = None


@dataclass(eq=False)
class ChainCheck:
    label: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(eq=False)
class ChainReport:
    """Chain values and checks; ``lemma`` is the chain's verdict as a
    LemmaReport (lhs split, rhs 2/sqrt(D), passed iff every check does)."""

    values: tuple
    checks: tuple
    lemma: LemmaReport
    D: int

    @property
    def passed(self) -> bool:
        return self.lemma.passed


def _check_inputs(
    fs, T, C=None, *, classes=False, real=False, bounded=False, mean_zero=()
):
    """The shared preconditions of the checks below; returns (G, C).

    The functions fs must share one group G that T matches; ``classes``
    fills in C = conjugacy_classes(G) when it is None and checks that it
    belongs to G.  ``real`` and ``bounded`` ask each function to be real
    and to have sup norm at most 1, and one fs[i], i in ``mean_zero``, must
    be mean-zero.  Messages name the functions f1, f2, ... when fs has
    more than one.
    """
    G = _same_group(*fs)
    if T.n != G.n:
        raise GroupMismatchError("character table does not match the group")
    if classes:
        C = _classes_of(G, C)
    many = len(fs) > 1
    for i, f in enumerate(fs, start=1):
        if real and np.any(f.values.imag):
            raise PreconditionError(f"f{i} must be real-valued")
        if bounded and p_norm(f, np.inf) > 1.0 + SUP_SLACK:
            subject = f"f{i} must have sup norm" if many else "sup norm must be"
            raise PreconditionError(f"{subject} at most 1")
    if mean_zero and min(abs(mean(fs[i])) for i in mean_zero) > MEAN_ZERO_TOL:
        if len(mean_zero) > 1:
            raise PreconditionError("neither factor is mean-zero")
        name = f"f{mean_zero[0] + 1}" if many else "function"
        raise PreconditionError(f"{name} must be mean-zero")
    return G, C


def theorem_bound(D: int) -> float:
    """(2 / sqrt(D))^{1/4}; above 1 (hence vacuous) for D < 4."""
    if not isinstance(D, (int, np.integer)):
        raise PreconditionError(f"quasirandom degree must be an integer, got {D!r}")
    if D < 1:
        raise PreconditionError(f"quasirandom degree must be >= 1, got {D}")
    return float((2.0 / math.sqrt(D)) ** 0.25)


def _pack(V: np.ndarray) -> np.ndarray:
    """One word per row of an (n x m) 0/1 stack, m <= 64: bit j is column j.

    The word is the narrowest of uint8..uint64 that holds m bits.
    """
    n, m = V.shape
    size = 1 << max(0, (m - 1).bit_length() - 3)
    b = np.zeros((n, size), dtype=np.uint8)
    b[:, : (m + 7) // 8] = np.packbits(V != 0, axis=1, bitorder="little")
    return b.view(f"<u{size}")[:, 0]


def _squares(G: GroupTable) -> np.ndarray:
    """y -> y^2 for every y (intp, to take through)."""
    ar = np.arange(G.n)
    return G.compose(ar, ar).astype(np.intp)


def _bit_pass(G, V1, V2, V3):
    """Exact progression counts of stacked 0/1 triples.

    For (n x m) 0/1 stacks Vi of any dtype, returns the int64 totals[j]
    = sum_x V1[x, j] S[x, j], where S[x, j] = sum_y V2[xy, j] V3[xy^2, j].
    Triples go 64 to a word in stack order: word w's Pi packs the values
    of role i of triple 64w + j into bit j.  For each pair (x, y) and each
    word the pass gathers P2[xy] and P3[xy^2] (the latter as row x of
    P3[xy], re-read at y^2); their AND with P1[x]'s has bit j set iff
    triple j's term is 1, and bit j's count is a count_nonzero over the
    words masked to it.  Counts are exact and below 2^53, so a caller
    dividing them in float64 gets the bits a float sum of the same 0/1
    terms gives, in any row order.  One sweep of the row blocks of
    _row_blocks serves every word, through three word buffers of a
    block's shape.
    """
    m = V2.shape[1]
    words = []
    for lo in range(0, m, 64):
        P1, P2, P3 = (_pack(V[:, lo:lo + 64]) for V in (V1, V2, V3))
        bits = [P2.dtype.type(1 << j) for j in range(min(64, m - lo))]
        words.append((lo, P1, P2, P3, bits))
    ysq = _squares(G)
    size = max(P2.dtype.itemsize for _, _, P2, _, _ in words)
    raw = None
    totals = np.zeros(m, dtype=np.int64)
    for xs, R in _row_blocks(G):
        if raw is None:
            # Three buffers of the first, tallest block, for the widest
            # word, viewed at each word's dtype.
            raw = [np.empty(R.size * size, dtype=np.uint8) for _ in range(3)]
        for lo, P1, P2, P3, bits in words:
            W, W3, tmp = (b.view(P2.dtype)[: R.size].reshape(R.shape) for b in raw)
            # mode="clip" skips the bounds check; with "raise", take buffers out.
            np.take(P2, R, out=W, mode="clip")
            np.take(P3, R, out=tmp, mode="clip")
            np.take(tmp, ysq, axis=1, out=W3, mode="clip")
            np.bitwise_and(W, W3, out=W)
            np.bitwise_and(W, P1[xs, None], out=W)
            for j, bit in enumerate(bits, start=lo):
                masked = W if len(bits) == 1 else np.bitwise_and(W, bit, out=tmp)
                totals[j] += np.count_nonzero(masked)
    return totals


def _row_sums(G, a, b, cols):
    """S[x] = sum_y a[xy] b[x cols[y]] for every row x, for two contiguous
    vectors of one dtype (float64, complex128 or int64).

    Rows go a block at a time, in the order _row_blocks gives them, each
    summed in y order, so S has the same bits in any row order and any
    block height.  Three buffers of the first, tallest block's shape are
    allocated once: a fresh block per iteration is page-faulted anew
    unless the allocator keeps freed memory (on sl2:13 that doubled the
    pass time).
    """
    S = np.empty(len(a), dtype=a.dtype)
    bufs = None
    for xs, U in _row_blocks(G):
        if bufs is None:
            B = np.empty(U.shape, a.dtype)
            bufs = np.empty_like(U), B, np.empty_like(B)
        U2, B2, B3 = (buf[: len(xs)] for buf in bufs)
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(U, cols, axis=1, out=U2, mode="clip")
        np.take(a, U, out=B2, mode="clip")
        np.take(b, U2, out=B3, mode="clip")
        np.multiply(B2, B3, out=B2)
        S[xs] = B2.sum(axis=1)
    return S


def _value_pass(G, v1, v2, v3):
    """Progression sum sum_x v1[x] S[x], S[x] = sum_y v2[xy] v3[xy^2], of
    one triple of contiguous float64 or complex128 vectors (one dtype),
    accumulated as v1[block] @ S[block] over index-order CHUNK-row blocks
    of the complete S from _row_sums, so its bits depend on the triple
    alone."""
    S = _row_sums(G, v2, v3, _squares(G))
    return sum(v1[lo:lo + CHUNK] @ S[lo:lo + CHUNK] for lo in range(0, len(S), CHUNK))


def theta_defects(
    F1: list[GroupFunction],
    F2: list[GroupFunction],
    F3: list[GroupFunction],
    T: CharacterTable,
) -> list[MixingReport]:
    """theta_defect of every triple (F1[j], F2[j], F3[j]).

    Each triple goes by its own kind.  Indicator triples (every value 0
    or 1) are counted exactly in packed words, 64 to a word in input
    order, one gather pair per (x, y) for each word's triples, in one
    sweep of the table rows for all the words (_bit_pass).  Every other
    triple goes through _value_pass on its own, in float64 when it has
    no imaginary part and in complex128 otherwise.  Either way a
    triple's theta has the bits theta_defect gives it alone, whatever the
    triples beside it.
    """
    if not len(F1) == len(F2) == len(F3):
        raise PreconditionError("the three function lists must have equal length")
    if not F1:
        return []
    G, _ = _check_inputs([*F1, *F2, *F3], T)
    sup = max(p_norm(f, np.inf) for F in (F1, F2, F3) for f in F)
    if sup > 1.0 + SUP_SLACK:
        warnings.warn(
            f"sup norm {sup:.6g} exceeds 1; the theorem bound does not apply",
            stacklevel=2,
        )
    n2 = G.n * G.n
    bound = theorem_bound(T.D) if T.D >= 2 else math.inf
    triples = list(zip(F1, F2, F3))
    totals = [None] * len(triples)
    packed = []
    for j, fs in enumerate(triples):
        if all(np.all((f.values == 0) | (f.values == 1)) for f in fs):
            packed.append(j)
            continue
        vs = [f.values for f in fs]
        if not any(np.any(v.imag) for v in vs):
            vs = [np.ascontiguousarray(v.real) for v in vs]
        totals[j] = _value_pass(G, *vs)
    if packed:
        stacks = [
            np.stack([triples[j][i].values != 0 for j in packed], axis=1)
            for i in range(3)
        ]
        for j, total in zip(packed, _bit_pass(G, *stacks)):
            totals[j] = total
    reports = []
    for total, (f1, f2, f3) in zip(totals, triples):
        raw = complex(total) / n2
        prod = mean(f1) * mean(f2) * mean(f3)
        theta = abs(raw - prod)
        reports.append(
            MixingReport(
                theta=theta,
                raw_expectation=raw,
                product_of_means=prod,
                bound=bound,
                D=T.D,
                margin=bound - theta,
            )
        )
    return reports


def theta_defect(
    f1: GroupFunction, f2: GroupFunction, f3: GroupFunction, T: CharacterTable
) -> MixingReport:
    """Exact O(n^2) defect |E[f1(x) f2(xy) f3(xy^2)] - prod of means|."""
    return theta_defects([f1], [f2], [f3], T)[0]


def count_progressions(A1, A2, A3, G: GroupTable) -> int:
    """Exact count of pairs (x, y) with x in A1, xy in A2, xy^2 in A3,
    summed in int64 by _row_sums.  Each set is empty or a 1-d list of
    distinct element indices."""
    v1, v2, v3 = V = np.zeros((3, G.n), dtype=np.int64)
    for v, A in zip(V, (A1, A2, A3)):
        if np.shape(A) != (0,):
            v[_check_index_set(G, A)] = 1
    return int(v1 @ _row_sums(G, v2, v3, _squares(G)))


def _report(
    lemma_id: str,
    lhs: float,
    rhs: float,
    tol: float,
    *,
    stderr: float | None = None,
    mode: str = "exhaustive",
) -> LemmaReport:
    slack = 0.0 if stderr is None else 3.0 * stderr
    return LemmaReport(
        lemma_id=lemma_id,
        lhs_value=float(lhs),
        rhs_bound=float(rhs),
        mode=mode,
        passed=bool(lhs <= rhs + slack + tol),
        margin=float(rhs - lhs),
        stderr_estimate=stderr,
    )


def verify_bnp(
    f1: GroupFunction, f2: GroupFunction, T: CharacterTable, tol: float = 1e-9
) -> LemmaReport:
    """Convolution bound ||f1*f2||_2 <= ||f1||_2 ||f2||_2 / sqrt(D).

    Requires at least one factor to have zero mean.
    """
    _check_inputs([f1, f2], T, mean_zero=(0, 1))
    lhs = p_norm(convolve(f1, f2), 2)
    rhs = p_norm(f1, 2) * p_norm(f2, 2) / math.sqrt(T.D)
    return _report("bnp", lhs, rhs, tol)


def verify_parseval(
    f: GroupFunction, T: CharacterTable, C: ConjugacyData, tol: float
) -> LemmaReport:
    """Parseval residual |sum_r d_r ||f^(r)||_HS^2 - ||f||_2^2| <= tol."""
    residual = spectral_profile(f, T, C, tol=math.inf).parseval_residual
    return _report("parseval", residual, tol, 0.0)


def verify_fcmu(T: CharacterTable, C: ConjugacyData, tol: float) -> LemmaReport:
    """Fourier mass of every translated-class density mu_g matches the
    class formula |chi_r(g)|^2 / d_r, to within tol in the worst entry.

    One profile per class covers every g.  For g in the class K, mu_g is
    n/|K| on gK, and n/|K| is an integer (|K| divides n), so the profile's
    correlation corr[j] = (n/|K|)^2 #{a in K : aj in K} is a sum of
    integers, at most n^2 < 2^53: exact in any order, and free of g.
    Every g in K thus gets the same bits as the representative, and the
    k profiles cost sum_K n |K| = n^2 gathers.
    """
    G = C.group
    worst = 0.0
    for c, rep in enumerate(C.representatives):
        profile = spectral_profile(mu_translated_class(G, C, rep), T, C, tol=math.inf)
        predicted = np.abs(T.chi[:, c]) ** 2 / T.degrees
        worst = max(worst, float(np.abs(profile.hs2 - predicted).max()))
    return _report("fcmu", worst, tol, 0.0)


def gather_estimate(suite: str, C: ConjugacyData, columns: int | None = None) -> int:
    """Table gathers one call of a verify suite makes on the group of C.

    gamma at m columns b costs 2n^2 m: n^2 m for the class-averaged
    tables A_K and m rows of n per g; ``columns`` is m, or None for all
    n columns (2n^3).  The exhaustive pass evaluates only one column per
    pair {b, b^{-1}}, about half of them, and reads its rows from a held
    value table, so 2n^3 bounds it from above.
    The chain adds 2n^3 for its c3 pass; the other suites are O(n^2).
    Both O(n^3) passes evaluate one element per coset of the central
    involutions E, so the estimate is |E| times too high where |E| > 1.
    """
    n = C.group.n
    m = n if columns is None else columns
    cost = {"gamma": 2 * n * n * m, "chain": 4 * n**3}
    return cost.get(suite, n * n)


def check_budget(suite: str, C: ConjugacyData) -> None:
    """Raise SizeGuardError when the group keeps no dense table, which
    every suite reads (require_table's message), or when a suite's
    estimate exceeds GATHER_BUDGET, before anything is built.

    gamma counts only its GAMMA_COLUMNS sampled columns when its
    exhaustive pass does not fit.  A suite that passes builds the table
    in the first kernel that calls require_table.
    """
    if not C.group.dense:
        C.group.require_table(f"suite {suite}")
    cost = gather_estimate(suite, C)
    if suite == "gamma" and cost > GATHER_BUDGET:
        cost = gather_estimate(suite, C, GAMMA_COLUMNS)
    if cost > GATHER_BUDGET:
        raise SizeGuardError(
            f"{suite} on n={C.group.n} needs about {cost:.2g} table gathers, "
            f"above the budget of {GATHER_BUDGET:.2g}"
        )


def verify_derivative_bound(
    f: GroupFunction, T: CharacterTable, tol: float = 1e-9
) -> LemmaReport:
    """E_b |E_x f(x) f(xb)| <= 1/sqrt(D) for mean-zero f with sup <= 1.

    The derivative means E_x f(x) f(xb) for every b come from one row
    correlation over the support of f, O(n^2) for a dense f.
    """
    G, _ = _check_inputs([f], T, bounded=True, mean_zero=(0,))
    t = G.require_table("derivative average")
    lhs = float(np.abs(_correlation(t, f.values, f.values) / G.n).mean())
    rhs = 1.0 / math.sqrt(T.D)
    return _report("derivative", lhs, rhs, tol)


def _class_conv_sums(G: GroupTable, C: ConjugacyData, V: np.ndarray, cols, *, held=False):
    """Sums over g of the class-convolution integrands of f at the columns
    b in ``cols``: (sum |inner0|, sum inner0 + inner_mean, sum |inner_mean|),
    each a vector over the columns.

    With D_b(x) = f(x) f(xb), mu_b = E_x D_b, D0_c = D_c - mu_c and mu_g
    the scaled density on g^{-1} C(g^{-1}), the integrands at (g, b) are
      inner0     = E_x[ D_b(x) * (D0_{g^{-1}bg} * mu_g)(x) ],
      inner_mean = mu_{g^{-1}bg} * mu_b,
    and substituting x = u^{-1} c^{-1}, c in K = the class of g, gives
      inner0 + inner_mean = E_u[ f(u^{-1} g) f(u^{-1} b g) A_K[u, b] ],
      A_K[u, b] = mean_{c in K} D_b((cu)^{-1}).
    With ft = f o inv, f(u^{-1} h) = ft[t[h^{-1}, u]]: every operand is a
    row of the value table ft[t], row g^{-1} for the first factor and
    rows g^{-1} b^{-1} for the second.  A_K gathers the (n x m) table of
    D_b o inv through the table rows of K, |K| n m gathers and n^2 m over
    all classes; mu is one row correlation.  Each g then costs m + 1 rows
    and one matrix-vector product.  ``held`` reads the rows from the held
    table ft[t] (8n^2 bytes, 16n^2 for complex f); otherwise each g
    gathers its own, with the same bits.  The mode picks the fork, not a
    user: over the columns R of _inverse_pairs held rows ran 1.3-1.8
    times faster than gathered ones (in-process on a 2-vCPU VM: sl2:7 23
    vs 41 ms, alt:6 75 vs 135 ms, psl2:11 0.51 vs 0.67 s), while sampled
    gamma, which starts above n = 736, cannot afford the 8n^2 bytes
    (about 100 MB at its limit n = 3535).

    Both integrands are the same at g and g z for z in E = {z central :
    z^2 = 1}: (gz)^{-1} b (gz) = g^{-1} b g, and the density of gz sits
    on z^{-2} g^{-1} C(g^{-1}) = g^{-1} C(g^{-1}).  So only one g per
    coset gE is evaluated, its member of least (class, index)
    (_central_involutions), and the sums are scaled by |E|, a power of
    two, exactly.  A class with no such member builds no A_K, so both
    halves of the pass shrink by |E|.  Where E is trivial every g is
    evaluated, in class order, and the sums keep their bits.
    """
    t = G.require_table("class convolution")
    n, m = G.n, len(cols)
    W = V if np.any(V.imag) else V.real
    mu = _correlation(t, W, W) / n  # mu[c] = E_x f(x) f(xc) = mu_c
    mu = mu if np.iscomplexobj(W) else mu.real
    ft = W[G.inv]
    bi = G.inv[cols]
    deriv = np.ascontiguousarray((ft[t[bi]] * ft).T)  # [x, j]: D_{b_j}(x^{-1})
    VT = ft[t] if held else None

    def take_rows(h, out):
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        if held:
            return np.take(VT, h, axis=0, out=out, mode="clip")
        return np.take(ft, t[h], out=out, mode="clip")

    picked, e = _central_involutions(G, C)
    A = np.empty_like(deriv)
    X = np.empty((m, n), dtype=ft.dtype)
    Fg = np.empty(n, dtype=ft.dtype)
    abs0, full_sum, abs_mean = np.zeros(m), np.zeros(m, dtype=ft.dtype), np.zeros(m)
    for c in range(C.k):
        in_class = C.class_of == c
        gs = np.flatnonzero(in_class & picked)
        if not len(gs):
            continue
        members = np.flatnonzero(in_class)
        # Rows u go a block at a time, so the gathered rows of deriv stay
        # in cache.
        step = max(1, CHUNK * CHUNK // (len(members) * m))
        for lo in range(0, n, step):
            A[lo:lo + step] = deriv[t[members, lo:lo + step]].mean(axis=0)
        AT = np.ascontiguousarray(A.T)
        for g in gs:
            gi = G.inv[g]
            h = t[gi, bi]  # h[j] = g^{-1} b_j^{-1}
            take_rows(h, X)  # X[j, u] = f(u^{-1} b_j g)
            X *= AT
            full = X @ take_rows(gi, Fg) / n
            inner_mean = mu[t[h, g]] * mu[cols]  # mu_c = mu_{c^{-1}}
            abs0 += np.abs(full - inner_mean)
            full_sum += full
            abs_mean += np.abs(inner_mean)
    return e * abs0, e * full_sum, e * abs_mean


def _inverse_pairs(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """R = {a : a <= a^{-1}} (as indices), one element of each pair
    {a, a^{-1}}, and the weight of each: 2, or 1 when a = a^{-1}."""
    inv = G.inv
    R = np.flatnonzero(np.arange(G.n) <= inv)
    return R, np.where(inv[R] == R, 1.0, 2.0)


def _central_involutions(G: GroupTable, C: ConjugacyData) -> tuple[np.ndarray, int]:
    """One element of each coset gE of E = {z central : z^2 = 1}, as a
    mask over the elements, and |E|.

    E is read from the classes of size 1 and one table lookup z z each; it
    is an elementary abelian 2-group, so |E| is a power of two.  Each
    coset's pick is its member of least (class, index), so when E is
    trivial every element is picked.
    """
    t = G.require_table("central involutions")
    z = C.representatives[C.sizes == 1]
    E = z[t[z, z] == 0]
    key = C.class_of.astype(np.int64) * G.n + np.arange(G.n)
    return key == key[t[:, E]].min(axis=1), len(E)


def _class_conv_stats(
    G: GroupTable, C: ConjugacyData, V: np.ndarray
) -> tuple[float, float, float]:
    """Exhaustive (g, b) averages of the class-convolution integrands.

    Returns (gamma, c4, mean_term) for f with values V:
      gamma     = E_{g,b} |E_x[ D_b(x) * (D0_{g^{-1}bg} * mu_g)(x) ]|
      c4        = |E_{g,b,x}[ D_b(x) * (D_{g^{-1}bg} * mu_g)(x) ]|
      mean_term = E_{g,b} |E_x[D_b] * E_x[D_{g^{-1}bg}]|
    from the sums of ``_class_conv_sums`` over a held value table.  Both
    integrands are equal at b and b^{-1}, for complex f too: in the
    coordinates z = u^{-1}, A_K[z, b] = mean_{c in K} f(zc^{-1}) f(zc^{-1}b),
    and z = y b^{-1}, c' = b^{-1} c b, in K, give A_K[y b^{-1}, b] =
    A_K[y, b^{-1}], while mu_b = mu_{b^{-1}}.  So only the columns R of
    _inverse_pairs are evaluated, with its weights, and only one g per
    coset of the central involutions, weighted |E| (_class_conv_sums).
    """
    R, w = _inverse_pairs(G)
    gamma, c4, mean_term = (w @ s for s in _class_conv_sums(G, C, V, R, held=True))
    scale = float(G.n) * float(G.n)
    return float(gamma) / scale, float(abs(c4)) / scale, float(mean_term) / scale


def gamma_functional(
    f: GroupFunction,
    T: CharacterTable,
    C: ConjugacyData | None = None,
    *,
    seed: int = 0,
    tol: float = 1e-9,
) -> LemmaReport:
    """Average over (g, b) of |E_x[D_b f(x) (f0_{g^{-1}bg} * mu_g)(x)]|.

    D_b f is the multiplicative derivative, f0_c the mean-zero part of
    D_c f, and mu_g the scaled density on g^{-1} C(g^{-1}); the bound is
    1/sqrt(D).  Exhaustive over all n^2 pairs whenever that pass fits
    GATHER_BUDGET.  Otherwise m = GAMMA_COLUMNS distinct seeded columns b
    are drawn, m read at call time, each averaged over every g, and the
    report gives the mean of those m column means with stderr
    std(ddof=1)/sqrt(m) (conservative: no finite-population correction);
    sampled runs pass with 3 * stderr slack.  A sampled run whose 2n^2 m
    gathers exceed GATHER_BUDGET raises SizeGuardError before any work
    (check_budget).  Both modes run one body (_class_conv_sums) at O(n^2)
    gathers per column, every operand a row of the table of values of
    f: the exhaustive pass evaluates one column per pair {b, b^{-1}} and
    holds that n x n table, while the sampled one, which starts only
    where 2n^3 exceeds GATHER_BUDGET, gathers each g's rows and holds a
    few n x m tables.  Either evaluates one g per coset gE of the central
    involutions E, weighted |E|, so on SL_2(p) (E = {I, -I}) it does half
    the work of a pass over every g.
    """
    G, C = _check_inputs([f], T, C, classes=True, bounded=True, mean_zero=(0,))
    check_budget("gamma", C)
    rhs = 1.0 / math.sqrt(T.D)

    if gather_estimate("gamma", C) <= GATHER_BUDGET:
        gamma, _, _ = _class_conv_stats(G, C, f.values)
        return _report("gamma", gamma, rhs, tol)

    m = GAMMA_COLUMNS
    cols = np.random.default_rng(seed).choice(G.n, size=m, replace=False)
    values = _class_conv_sums(G, C, f.values, cols)[0] / G.n
    lhs = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(m))
    mode = f"sampled(m={m},seed={seed})"
    return _report("gamma", lhs, rhs, tol, stderr=stderr, mode=mode)


def cs_chain_diagnostics(
    f1: GroupFunction,
    f2: GroupFunction,
    f3: GroupFunction,
    T: CharacterTable,
    C: ConjugacyData | None = None,
    *,
    tol: float = 1e-9,
) -> ChainReport:
    """Every intermediate value of the fourth-power Cauchy-Schwarz chain.

    For real inputs with sup norm at most 1 and mean-zero f3, computes
      c1 = theta^4,
      c2 = (E_x[(E_z f1(x z^{-1}) f3(x z))^2])^2,
      c3 = E_{y,a}[(E_z D_{z^{-1} a^{-1} z} f3(y z^2))^2],
      c4 = |E_{g,b,x}[D_b f3(x) (D_{g^{-1}bg} f3 * mu_g)(x)]|,
      split = gamma term + mean term after centering D_{g^{-1}bg} f3,
    and checks c1 <= c2 <= c3, c3 = c4 (exact change of variables),
    c4 <= split, split <= 2/sqrt(D).  theta and c2 stream table rows.  c3
    and c4 sum over one z (for c4, one g) per coset of the central
    involutions E, weighted |E|.  c3 holds one n x n table and two
    (n/|E|) x n tables, (8 + 16/|E|) n^2 bytes, and frees them before the
    class convolution holds its value table (8n^2 bytes).  Both are
    O(n^3), so a group whose estimate exceeds GATHER_BUDGET raises
    SizeGuardError first.
    """
    G, C = _check_inputs(
        [f1, f2, f3], T, C, classes=True, real=True, bounded=True, mean_zero=(2,)
    )
    check_budget("chain", C)

    t = G.require_table("chain diagnostics")
    n = G.n
    v1, v2, v3 = (f.values.real.copy() for f in (f1, f2, f3))

    theta = abs(float(_value_pass(G, v1, v2, v3))) / (n * n)
    c1 = theta**4
    # Row x of the sum is sum_z f3(xz) f1(x z^{-1}), n times c2's inner(x).
    c2 = float(((_row_sums(G, v3, v1, G.inv) / n) ** 2).mean()) ** 2

    # The element y z^2 z^{-1} a^{-1} z is y q(z), q(z) = z a^{-1} z, so
    # every term reads a contiguous row of F3T[w, y] = f3(y w), and the sum
    # over z runs down axis 0, z in sequence.  The sum over y of inner(y,
    # a)^2 is the same at a and a^{-1}: inner(y, a^{-1}) = inner(y a^{-1},
    # a), the substitution w = a z trading the two factors.  So only a in
    # R, one per inverse pair, is evaluated, weighted as in
    # _class_conv_stats.  The z-summand is the same at z and z zeta for
    # zeta in E (z zeta squares to z^2, and q(z zeta) = q(z) zeta^2), so
    # z runs over one element of each coset zE, weighted |E|.
    F3T = np.take(v3, t.T)  # C-ordered, where v3[t.T] is not
    picked, e = _central_involutions(G, C)
    zs = np.flatnonzero(picked)
    v3U = F3T[t[zs, zs]]  # v3U[i, y] = f3(y z^2), z = zs[i]
    X = np.empty_like(v3U)
    acc = 0.0
    for a, weight in zip(*(r.tolist() for r in _inverse_pairs(G))):
        q = t[t[zs, G.inv[a]], zs]
        np.take(F3T, q, axis=0, out=X, mode="clip")
        np.multiply(v3U, X, out=X)
        inner = e * X.sum(axis=0) / n
        acc += weight * float((inner**2).sum())
    c3 = acc / (n * n)
    del F3T, v3U, X  # so that the class convolution's tables replace them

    gamma_term, c4, mean_term = _class_conv_stats(G, C, f3.values)
    split = gamma_term + mean_term
    bound = 2.0 / math.sqrt(T.D)

    checks = (
        ChainCheck("c1<=c2", c1, c2, c1 <= c2 + tol),
        ChainCheck("c2<=c3", c2, c3, c2 <= c3 + tol),
        ChainCheck("c3==c4", abs(c3 - c4), tol, abs(c3 - c4) < tol),
        ChainCheck("c4<=split", c4, split, c4 <= split + tol),
        ChainCheck("split<=2/sqrt(D)", split, bound, split <= bound + tol),
    )
    values = (
        ("c1", c1),
        ("c2", c2),
        ("c3", c3),
        ("c4", c4),
        ("gamma_term", gamma_term),
        ("mean_term", mean_term),
        ("split", split),
        ("bound", bound),
    )
    lemma = replace(
        _report("chain", split, bound, tol), passed=all(c.passed for c in checks)
    )
    return ChainReport(values=values, checks=checks, lemma=lemma, D=T.D)


def random_ensemble(G: GroupTable, kind: str, seed, count: int) -> list[GroupFunction]:
    """Deterministic stream of test functions.

    Kinds: "rademacher" (plus/minus 1), "unimodular" (random phases),
    "indicator:<p>" (density-p random set), "mean_zero_rademacher"
    (centered then rescaled by 1/(1+|mean|) so the sup norm is exactly
    1 and the mean is zero to machine precision).
    """
    if count < 0:
        raise PreconditionError("count must be nonnegative")
    base, _, density = kind.partition(":")
    if base == "indicator":
        if not density:
            raise PreconditionError("indicator kind needs a density, e.g. indicator:0.5")
        try:
            p = float(density)
        except ValueError:
            raise PreconditionError(f"bad indicator density {density!r}") from None
        if not 0.0 < p < 1.0:
            raise PreconditionError(f"indicator density must be in (0, 1), got {p}")
    elif base not in ("rademacher", "unimodular", "mean_zero_rademacher"):
        raise PreconditionError(f"unknown ensemble kind {kind!r}")
    rng = np.random.default_rng(seed)
    n = G.n
    out: list[GroupFunction] = []
    for _ in range(count):
        if base == "rademacher":
            vals = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.complex128)
        elif base == "unimodular":
            vals = np.exp(2j * np.pi * rng.random(n))
        elif base == "indicator":
            vals = (rng.random(n) < p).astype(np.complex128)
        else:
            v = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
            m = v.mean()
            vals = ((v - m) / (1.0 + abs(m))).astype(np.complex128)
        out.append(GroupFunction(G, vals))
    return out


def _toggle_gain_tables(
    G: GroupTable, v1: np.ndarray, v2: np.ndarray, v3: np.ndarray
) -> np.ndarray:
    """Per-element progression sensitivities for the three set slots.

    Returns the (3 x n) int64 rows S1, S2, S3: S1[e] counts pairs through
    x = e, S2[e] through xy = e and S3[e] through xy^2 = e.  Toggling
    membership of e in set i changes the exact progression count by
    (sign) * Si[e].  In terms of the 0/1 indicators,

        S1[e] = sum_y v2[ey] v3[ey^2]
        S2[e] = sum_y v1[ey^-1] v3[ey]
        S3[e] = sum_y v1[ey^-2] v2[ey^-1] = sum_y v1[ey^2] v2[ey],

    the last by the substitution y -> y^-1, a bijection of the group.

    One packed pass builds all three.  P packs the indicators into one
    byte per element, bit i for role i, and each block of rows e gathers
    W[e, y] = P[ey] once; its columns re-read at y^2 (Wq) and at y^-1
    (Wi) give P[ey^2] and P[ey^-1].  Each term is then the AND of two
    bits: S1 of bit 1 of W and bit 2 of Wq, S2 of bit 2 of W and bit 0
    of Wi, S3 of bit 1 of W and bit 0 of Wq.  The terms are shifted to
    0/1 bytes and summed per row in uint16, which is exact because every
    count is at most n <= MAX_ORDER < 2^16.  Rows come from _row_blocks,
    through four byte buffers of the first, tallest block's shape.
    """
    P = _pack(np.stack([v1, v2, v3], axis=1))
    ysq = _squares(G)
    iv = G.inv.astype(np.intp)
    S = np.empty((3, G.n), dtype=np.int64)
    bufs = None
    for xs, R in _row_blocks(G):
        if bufs is None:
            bufs = [np.empty(R.shape, dtype=np.uint8) for _ in range(4)]
        w, q, i, x = (b[: len(xs)] for b in bufs)
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(P, R, out=w, mode="clip")
        np.take(w, ysq, axis=1, out=q, mode="clip")
        np.take(w, iv, axis=1, out=i, mode="clip")
        # S2: bit 2 of W (alone after the shift) and bit 0 of Wi.
        np.right_shift(w, 2, out=x)
        np.bitwise_and(x, i, out=i)
        S[1, xs] = i.sum(axis=1, dtype=np.uint16)
        # S3: bit 1 of W, shifted to bit 0, and bit 0 of Wq.
        np.right_shift(w, 1, out=w)
        np.bitwise_and(w, q, out=x)
        np.bitwise_and(x, 1, out=x)
        S[2, xs] = x.sum(axis=1, dtype=np.uint16)
        # S1: the same shifted W and bit 2 of Wq (alone after the shift).
        np.right_shift(q, 2, out=q)
        np.bitwise_and(w, q, out=x)
        S[0, xs] = x.sum(axis=1, dtype=np.uint16)
    return S


def _apply_toggle(
    G: GroupTable, V: np.ndarray, S: np.ndarray, slot: int, u: int, ysq: np.ndarray
) -> None:
    """Toggle u in set ``slot`` and move the other two tables in O(n).

    V holds the three 0/1 indicators and S the three sensitivity tables of
    _toggle_gain_tables as (3 x n) int64 rows; both change in place, and
    ysq[y] = y^2.  Slot i's own table does not read V[i], so only the
    other two move, by one term per y: with ru[y] = uy the row of u, a
    toggle of x = u moves S2[uy] by v3[uy^2] and
    S3[uy^2] by v2[uy]; of xy = u, S1[uy^-1] by v3[uy] and S3[uy] by
    v1[uy^-1]; of xy^2 = u, S1[uy^-2] by v2[uy^-1] and S2[uy^-1] by
    v1[uy^-2].  y -> uy^2 and y -> uy^-2 are not injective, so those two
    go through a scatter-add.
    """
    iv = G.inv
    s = 1 - 2 * int(V[slot, u])
    # uy = (y^-1 u^-1)^-1: compose walks the one word of u^-1, where
    # compose(u, y) would walk the word of every y.
    ru = iv[G.compose(iv, iv[u])]
    if slot == 0:
        sq = ru[ysq]
        S[1, ru] += s * V[2, sq]
        np.add.at(S[2], sq, s * V[1, ru])
    elif slot == 1:
        ri = ru[iv]
        S[0, ri] += s * V[2, ru]
        S[2, ru] += s * V[0, ri]
    else:
        ri = ru[iv]
        isq = ru[iv[ysq]]
        np.add.at(S[0], isq, s * V[1, ri])
        S[1, ri] += s * V[0, isq]
    V[slot, u] += s


def adversarial_search(
    G: GroupTable,
    T: CharacterTable,
    *,
    budget: int = 5000,
    restarts: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, MixingReport]:
    """Greedy local search for a set triple with large mixing defect.

    Each step evaluates all 3n single-element toggles (costing 3n of the
    evaluation budget), applies the best strictly improving one, and
    repeats while budget remains; a budget below 3n returns the seeded
    start.  The sensitivity tables cost one packed O(n^2) pass per
    restart (_toggle_gain_tables) and are then kept up to date in O(n)
    per applied toggle (_apply_toggle), with y -> y^2 computed once.  No
    pass needs the n x n table built.  The defect is tracked through
    exact integer progression counts.  Deterministic in (seed, budget,
    restarts); best restart wins.
    """
    if budget < 0 or restarts < 1:
        raise PreconditionError("budget must be >= 0 and restarts >= 1")
    n = G.n
    n2 = float(n) * float(n)
    ysq = _squares(G)
    best: tuple[float, np.ndarray] | None = None

    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        V = np.stack([rng.integers(0, 2, size=n).astype(np.int64) for _ in range(3)])
        S = _toggle_gain_tables(G, *V)
        N = int(V[0] @ S[0])
        sizes = [int(v.sum()) for v in V]
        theta = abs(N / n2 - sizes[0] * sizes[1] * sizes[2] / n2 / n)
        used = 0
        while used + 3 * n <= budget:
            used += 3 * n
            signs = 1 - 2 * V  # +1 if adding e, -1 if removing
            cand_N = N + signs * S
            cand_sizes = np.array(sizes, dtype=np.int64)[:, None] + signs
            other = np.array(
                [
                    sizes[1] * sizes[2],
                    sizes[0] * sizes[2],
                    sizes[0] * sizes[1],
                ],
                dtype=np.int64,
            )
            cand_prod = cand_sizes * other[:, None]
            cand_theta = np.abs(cand_N / n2 - cand_prod / (n2 * n))
            flat = int(np.argmax(cand_theta))
            best_theta = float(cand_theta.ravel()[flat])
            if best_theta <= theta:
                break
            slot, e = divmod(flat, n)
            sizes[slot] += int(signs[slot, e])
            _apply_toggle(G, V, S, slot, e, ysq)
            N = int(cand_N[slot, e])
            theta = best_theta
        if best is None or theta > best[0]:
            best = (theta, V)

    V = best[1]
    report = theta_defect(*(GroupFunction(G, v) for v in V), T)
    return (*(np.flatnonzero(v) for v in V), report)
