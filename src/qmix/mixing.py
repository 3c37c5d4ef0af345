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
words, and _value_pass sums one real or complex triple.  A triple's
bits therefore depend on that triple alone.
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
    CHUNK,
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
from .groups import GroupTable

# The one size limit of the O(n^3) checks, in table gathers per call (see
# gather_estimate): the chain and sampled gamma refuse a larger
# estimate, and gamma runs exhaustively whenever its full pass fits.
GATHER_BUDGET = 800_000_000

# Columns b that sampled gamma draws by default (see gamma_functional).
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
    D = int(D)
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


def _bit_pass(t, V1, V2, V3):
    """Exact progression counts of at most 64 stacked 0/1 triples.

    For (n x m) 0/1 stacks Vi of any dtype, returns the int64 totals[j]
    = sum_x V1[x, j] S[x, j], where S[x, j] = sum_y V2[xy, j] V3[xy^2, j].
    Pi packs triple j's values of role i into bit j.  For each pair (x, y)
    the pass gathers the words P2[xy] and P3[xy^2] (the latter as row x
    of P3[xy], re-read at y^2) once for every triple; their AND with
    P1[x]'s has bit j set iff triple j's term is 1, and bit j's count is a
    count_nonzero over the words masked to it.  Counts are exact and below
    2^53, so a caller dividing them in float64 gets the bits a float sum
    of the same 0/1 terms gives.  Rows go CHUNK // 4 at a time, so the
    intp indices and the three word buffers take no more memory than
    _value_pass's block buffers.
    """
    n, m = V2.shape
    P1, P2, P3 = _pack(V1), _pack(V2), _pack(V3)
    ysq = t.diagonal().astype(np.intp)
    step = CHUNK // 4
    I = np.empty((step, n), dtype=np.intp)
    W = np.empty((step, n), dtype=P2.dtype)
    W3 = np.empty_like(W)
    tmp = np.empty_like(W)
    bits = [P2.dtype.type(1 << j) for j in range(m)]
    totals = np.zeros(m, dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        h = hi - lo
        np.copyto(I[:h], t[lo:hi])
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(P2, I[:h], out=W[:h], mode="clip")
        np.take(P3, I[:h], out=tmp[:h], mode="clip")
        np.take(tmp[:h], ysq, axis=1, out=W3[:h], mode="clip")
        np.bitwise_and(W[:h], W3[:h], out=W[:h])
        np.bitwise_and(W[:h], P1[lo:hi, None], out=W[:h])
        for j, bit in enumerate(bits):
            masked = W[:h] if m == 1 else np.bitwise_and(W[:h], bit, out=tmp[:h])
            totals[j] += np.count_nonzero(masked)
    return totals


def _value_pass(t, v1, v2, v3):
    """Progression sum sum_x v1[x] S[x], S[x] = sum_y v2[xy] v3[xy^2], of
    one triple of contiguous float64 or complex128 vectors (one dtype).

    Rows go CHUNK at a time: each block's S is summed along its rows, and
    the total accumulates v1[block] @ S[block] over the blocks, so its
    bits depend on the triple alone.  The gathered blocks go into buffers
    allocated once: a fresh multi-megabyte array per block is mapped and
    page-faulted anew on every block unless the allocator happens to keep
    freed memory (on sl2:13, at blocks of this size, that doubled the
    pass time).
    """
    n = len(v2)
    ysq = t.diagonal()
    U2 = np.empty((CHUNK, n), dtype=t.dtype)
    B2 = np.empty((CHUNK, n), dtype=v2.dtype)
    B3 = np.empty_like(B2)
    total = 0
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        h = hi - lo
        U = t[lo:hi]
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(U, ysq, axis=1, out=U2[:h], mode="clip")
        np.take(v2, U, out=B2[:h], mode="clip")
        np.take(v3, U2[:h], out=B3[:h], mode="clip")
        np.multiply(B2[:h], B3[:h], out=B2[:h])
        total += v1[lo:hi] @ B2[:h].sum(axis=1)
    return total


def theta_defects(
    F1: list[GroupFunction],
    F2: list[GroupFunction],
    F3: list[GroupFunction],
    T: CharacterTable,
) -> list[MixingReport]:
    """theta_defect of every triple (F1[j], F2[j], F3[j]).

    Each triple goes by its own kind.  Indicator triples (every value 0
    or 1) are counted exactly in packed words, 64 to a word in input
    order, one gather pair per (x, y) for each word's triples
    (_bit_pass).  Every other triple goes through _value_pass on its
    own, in float64 when it has no imaginary part and in complex128
    otherwise.  Either way a triple's theta has the bits theta_defect
    gives it alone, whatever the triples beside it.
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
    t = G.require_table("progression expectation")
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
        totals[j] = _value_pass(t, *vs)
    for lo in range(0, len(packed), 64):
        block = packed[lo:lo + 64]
        stacks = [
            np.stack([triples[j][i].values != 0 for j in block], axis=1)
            for i in range(3)
        ]
        for j, total in zip(block, _bit_pass(t, *stacks)):
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
    """Exact count of pairs (x, y) with x in A1, xy in A2, xy^2 in A3."""
    t = G.require_table("progression count")

    def indicator(A) -> np.ndarray:
        v = np.zeros((G.n, 1), dtype=np.int64)
        if len(np.asarray(A)) > 0:
            v[_check_index_set(G, A)] = 1
        return v

    totals = _bit_pass(t, indicator(A1), indicator(A2), indicator(A3))
    return int(totals[0])


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
    tables A_K and n m per g; ``columns`` is m, or None for all n
    columns (2n^3).  The exhaustive pass evaluates only one column per
    pair {b, b^{-1}}, about half of them, so 2n^3 bounds it from above.
    The chain adds 2n^3 for its c3 pass; the other suites are O(n^2).
    """
    n = C.group.n
    m = n if columns is None else columns
    cost = {"gamma": 2 * n * n * m, "chain": 4 * n**3}
    return cost.get(suite, n * n)


def check_budget(suite: str, C: ConjugacyData, budget: int = GAMMA_COLUMNS) -> None:
    """Raise SizeGuardError when a suite's estimate exceeds GATHER_BUDGET,
    or when the group keeps no dense table, which every suite reads.

    gamma needs a ``budget`` of at least 2 columns (PreconditionError
    otherwise), and counts only those columns when its exhaustive pass
    does not fit.
    """
    C.group.require_table(f"suite {suite}")
    cost = gather_estimate(suite, C)
    if suite == "gamma":
        if budget < 2:
            raise PreconditionError(
                f"gamma needs a budget of at least 2 columns, got {budget}"
            )
        if cost > GATHER_BUDGET:
            cost = gather_estimate(suite, C, budget)
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


def _class_averages(t, members, deriv, A):
    """Fill A[z, j] = mean_{c in K} deriv[zc, j] for the class K = members.

    Rows z go a block at a time, so that the gathered rows of the (n x m)
    table deriv stay in cache; A is an (n x m) buffer.
    """
    zK = t[:, members]
    step = max(1, CHUNK * CHUNK // (len(members) * deriv.shape[1]))
    for lo in range(0, len(t), step):
        A[lo:lo + step] = deriv[zK[lo:lo + step]].mean(axis=1)
    return A


def _class_conv_terms(G: GroupTable, C: ConjugacyData, V: np.ndarray, cols):
    """Class-convolution integrands of f at the columns b in ``cols``.

    With D_b(x) = f(x) f(xb), mu_b = E_x D_b and mu_g the scaled density
    on g^{-1} C(g^{-1}), the integrands at a pair (g, b) are
      inner0     = E_x[ D_b(x) * (D0_{g^{-1}bg} * mu_g)(x) ]
      inner_mean = mu_{g^{-1}bg} * mu_b
    where D0_c = D_c - mu_c.  Substituting z = x c^{-1} in the
    convolution gives, for K the class of g^{-1} and F_g(z) = f(zg),
      inner0 + inner_mean = E_z[ F_g(z) F_g(zb) A_K[z, b] ],
      A_K[z, b] = mean_{c in K} f(zc) f(zcb),
    and mu_{g^{-1}bg} = E_z[F_g(z) F_g(zb)].  A_K depends only on the
    class and costs |K| row gathers of the derivative table, so all
    classes together cost n^2 m gathers for m columns; each g then costs
    one gather of F_g and two matrix-vector products over the columns.

    ``cols`` is an index array of m columns b.  The generator yields
    (g, inner0, inner_mean) for every g, the last two as vectors over the
    columns, and holds a few n x m tables.  This is sampled gamma's body;
    the exhaustive pass (_class_conv_stats) reads rows of an n x n value
    table instead, whose 8n^2 bytes would reach 537 MB at the largest
    dense group that samples.
    """
    t = G.require_table("class convolution")
    n = G.n
    W = V if np.any(V.imag) else V.real
    # Gathers through intp indices run about twice as fast as through
    # the int32 table, which numpy would convert on every use.
    tB = t[:, cols].astype(np.intp)
    deriv = W[:, None] * W[tB]  # deriv[x, j] = f(x) f(x b_j)
    mu_b = deriv.mean(axis=0)
    A = np.empty_like(deriv)
    for members in C.class_elements:
        _class_averages(t, members, deriv, A)
        for g in G.inv[members]:
            Fg = W[t[:, g]]
            FgB = Fg[tB]  # FgB[z, j] = F_g(z b_j)
            inner_mean = (Fg @ FgB / n) * mu_b
            FgB *= A
            yield int(g), Fg @ FgB / n - inner_mean, inner_mean


def _class_conv_stats(
    G: GroupTable, C: ConjugacyData, V: np.ndarray
) -> tuple[float, float, float]:
    """Exhaustive (g, b) averages of the class-convolution integrands.

    Returns (gamma, c4, mean_term) for f with values V:
      gamma     = E_{g,b} |E_x[ D_b(x) * (D0_{g^{-1}bg} * mu_g)(x) ]|
      c4        = |E_{g,b,x}[ D_b(x) * (D_{g^{-1}bg} * mu_g)(x) ]|
      mean_term = E_{g,b} |E_x[D_b] * E_x[D_{g^{-1}bg}]|
    where D_b is the multiplicative derivative, D0 its mean-zero part
    and mu_g the scaled density on g^{-1} C(g^{-1}).  The integrands are
    those of ``_class_conv_terms``, evaluated in O(n^3) another way:
      - Both are equal at b and b^{-1}, for complex f too: z = y b^{-1}
        and c' = b^{-1} c b, in K, give A_K[y b^{-1}, b] = A_K[y, b^{-1}],
        and mu_b = mu_{b^{-1}}.  So only the columns R = {b : b <= b^{-1}}
        (as indices) are evaluated, each weighted 2, or 1 when b = b^{-1}.
      - Every operand is a row of the value table FT[c, z] = f(zc): the
        rows b g, b in R, hold F_g(zb), and row g holds F_g.  A g costs
        one contiguous row take instead of n element gathers.
      - inner_mean needs no sum over z: E_z F_g(z) F_g(zb) is
        mu_{g^{-1}bg} (substitute w = zg), read from mu = FT @ f / n.
    FT and its intp index table take 16n^2 bytes (24n^2 for complex f),
    at most 13 MB at the largest n whose 2n^3 fits GATHER_BUDGET.
    """
    t = G.require_table("class convolution")
    n = G.n
    W = V if np.any(V.imag) else V.real
    inv = G.inv
    R = np.flatnonzero(np.arange(n) <= inv)
    w = np.where(inv[R] == R, 1.0, 2.0)
    # The index table must be C-ordered: W[t.T] would keep t.T's strided
    # layout, and every row take below would then read strided memory.
    tT = np.ascontiguousarray(t.T, dtype=np.intp)  # tT[c, z] = zc
    FT = W[tT]  # FT[c, z] = f(zc)
    mu = FT @ W / n  # mu[c] = E_z f(z) f(zc)
    deriv = np.ascontiguousarray((FT[R] * W).T)  # deriv[x, j] = f(x) f(x b_j)
    A = np.empty_like(deriv)
    X = np.empty((len(R), n), dtype=FT.dtype)
    gamma_sum = 0.0
    c4_sum = 0.0 + 0.0j
    mean_sum = 0.0
    for members in C.class_elements:
        AT = np.ascontiguousarray(_class_averages(t, members, deriv, A).T)
        for g in inv[members]:
            bg = tT[g][R]
            # mode="clip" skips the bounds check; with "raise", take buffers out.
            np.take(FT, bg, axis=0, out=X, mode="clip")  # X[j, z] = F_g(z b_j)
            X *= AT
            full = X @ FT[g] / n
            inner_mean = mu[t[inv[g], bg]] * mu[R]
            gamma_sum += float(w @ np.abs(full - inner_mean))
            c4_sum += w @ full
            mean_sum += float(w @ np.abs(inner_mean))
    scale = float(n) * float(n)
    return gamma_sum / scale, abs(c4_sum) / scale, mean_sum / scale


def gamma_functional(
    f: GroupFunction,
    T: CharacterTable,
    C: ConjugacyData | None = None,
    *,
    budget: int = GAMMA_COLUMNS,
    seed: int = 0,
    tol: float = 1e-9,
) -> LemmaReport:
    """Average over (g, b) of |E_x[D_b f(x) (f0_{g^{-1}bg} * mu_g)(x)]|.

    D_b f is the multiplicative derivative, f0_c the mean-zero part of
    D_c f, and mu_g the scaled density on g^{-1} C(g^{-1}); the bound is
    1/sqrt(D).  Exhaustive over all n^2 pairs whenever that pass fits
    GATHER_BUDGET.  Otherwise ``budget`` distinct seeded columns b are
    drawn, each averaged over every g, and the report gives the mean of
    those m column means with stderr std(ddof=1)/sqrt(m) (conservative:
    no finite-population correction); sampled runs pass with 3 * stderr
    slack.  A budget below 2 raises PreconditionError, and a sampled run
    whose 2n^2 m gathers exceed GATHER_BUDGET raises SizeGuardError, both
    before any work.  Both modes cost O(n^2) gathers per column: the
    exhaustive pass (_class_conv_stats) evaluates one column per pair
    {b, b^{-1}} from rows of an n x n table of values of f, and the
    sampled one (_class_conv_terms) gathers each drawn column element by
    element.  Sampling starts only where 2n^3 exceeds GATHER_BUDGET, so
    m < n there and it holds a few n x m tables, not the n x n one.
    """
    G, C = _check_inputs([f], T, C, classes=True, bounded=True, mean_zero=(0,))
    check_budget("gamma", C, budget)
    rhs = 1.0 / math.sqrt(T.D)

    if gather_estimate("gamma", C) <= GATHER_BUDGET:
        gamma, _, _ = _class_conv_stats(G, C, f.values)
        return _report("gamma", gamma, rhs, tol)

    cols = np.random.default_rng(seed).choice(G.n, size=budget, replace=False)
    col_sums = np.zeros(budget)
    for _, inner0, _ in _class_conv_terms(G, C, f.values, cols):
        col_sums += np.abs(inner0)
    values = col_sums / G.n
    lhs = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(budget))
    mode = f"sampled(m={budget},seed={seed})"
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
    c4 <= split, split <= 2/sqrt(D).  The c3 pass and the class
    convolution are O(n^3) each, so a group whose estimate exceeds
    GATHER_BUDGET raises SizeGuardError before any work.
    """
    G, C = _check_inputs(
        [f1, f2, f3], T, C, classes=True, real=True, bounded=True, mean_zero=(2,)
    )
    check_budget("chain", C)

    t = G.require_table("chain diagnostics")
    n = G.n
    v1 = f1.values.real.copy()
    v2 = f2.values.real.copy()
    v3 = f3.values.real.copy()
    ar = np.arange(n)

    theta = abs(float(_value_pass(t, v1, v2, v3))) / (n * n)
    c1 = theta**4

    F1 = v1[t[:, G.inv]]  # F1[x, z] = f1(x z^{-1})
    F3 = v3[t]  # F3[x, z] = f3(x z)
    inner_xz = (F1 * F3).mean(axis=1)
    c2 = float((inner_xz**2).mean()) ** 2

    # The element y z^2 z^{-1} a^{-1} z is y q(z), q(z) = z a^{-1} z, so
    # every term reads a contiguous row of F3T[w, y] = f3(y w), and the sum
    # over z runs down axis 0, z in sequence.
    F3T = np.ascontiguousarray(F3.T)
    v3U = F3T[t.diagonal()]  # v3U[z, y] = f3(y z^2)
    X = np.empty_like(v3U)
    acc = 0.0
    for a in range(n):
        q = t[t[ar, G.inv[a]], ar]
        np.take(F3T, q, axis=0, out=X, mode="clip")
        np.multiply(v3U, X, out=X)
        inner = X.sum(axis=0) / n
        acc += float((inner**2).sum())
    c3 = acc / (n * n)

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
    0/1 bytes and summed per row in uint16, which is exact because a
    dense table has n^2 < 2^31, so every count is at most n < 2^16.
    Rows go CHUNK // 4 at a time, as in _bit_pass.
    """
    t = G.require_table("adversarial search")
    n = G.n
    P = _pack(np.stack([v1, v2, v3], axis=1))
    ysq = t.diagonal().astype(np.intp)
    iv = G.inv.astype(np.intp)
    step = CHUNK // 4
    I = np.empty((step, n), dtype=np.intp)
    W = np.empty((step, n), dtype=np.uint8)
    Wq = np.empty_like(W)
    Wi = np.empty_like(W)
    X = np.empty_like(W)
    S = np.empty((3, n), dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        h = hi - lo
        w, q, i, x = W[:h], Wq[:h], Wi[:h], X[:h]
        np.copyto(I[:h], t[lo:hi])
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(P, I[:h], out=w, mode="clip")
        np.take(w, ysq, axis=1, out=q, mode="clip")
        np.take(w, iv, axis=1, out=i, mode="clip")
        # S2: bit 2 of W (alone after the shift) and bit 0 of Wi.
        np.right_shift(w, 2, out=x)
        np.bitwise_and(x, i, out=i)
        S[1, lo:hi] = i.sum(axis=1, dtype=np.uint16)
        # S3: bit 1 of W, shifted to bit 0, and bit 0 of Wq.
        np.right_shift(w, 1, out=w)
        np.bitwise_and(w, q, out=x)
        np.bitwise_and(x, 1, out=x)
        S[2, lo:hi] = x.sum(axis=1, dtype=np.uint16)
        # S1: the same shifted W and bit 2 of Wq (alone after the shift).
        np.right_shift(q, 2, out=q)
        np.bitwise_and(w, q, out=x)
        S[0, lo:hi] = x.sum(axis=1, dtype=np.uint16)
    return S


def _apply_toggle(G: GroupTable, V: np.ndarray, S: np.ndarray, slot: int, u: int) -> None:
    """Toggle u in set ``slot`` and move the other two tables in O(n).

    V holds the three 0/1 indicators and S the three sensitivity tables of
    _toggle_gain_tables as (3 x n) int64 rows; both change in place.  Slot
    i's own table does not read V[i], so only the other two move, by one
    term per y: with ru = t[u] the row of u, a toggle of x = u moves
    S2[uy] by v3[uy^2] and S3[uy^2] by v2[uy]; of xy = u, S1[uy^-1] by
    v3[uy] and S3[uy] by v1[uy^-1]; of xy^2 = u, S1[uy^-2] by v2[uy^-1]
    and S2[uy^-1] by v1[uy^-2].  y -> uy^2 and y -> uy^-2 are not
    injective, so those two go through a scatter-add.
    """
    t = G.mul
    iv = G.inv
    ysq = t.diagonal()
    s = 1 - 2 * int(V[slot, u])
    ru = t[u]
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
    per applied toggle (_apply_toggle).  The defect is tracked through
    exact integer progression counts.  Deterministic in (seed, budget,
    restarts); best restart wins.
    """
    if budget < 0 or restarts < 1:
        raise PreconditionError("budget must be >= 0 and restarts >= 1")
    n = G.n
    n2 = float(n) * float(n)
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
            _apply_toggle(G, V, S, slot, e)
            N = int(cand_N[slot, e])
            theta = best_theta
        if best is None or theta > best[0]:
            best = (theta, V)

    V = best[1]
    report = theta_defect(*(GroupFunction(G, v) for v in V), T)
    return (*(np.flatnonzero(v) for v in V), report)
