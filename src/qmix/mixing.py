"""Mixing defect of three-term progressions and inequality certificates.

theta_defect measures how far E[f1(x) f2(xy) f3(xy^2)] sits from the
product of means; the remaining entry points certify, instance by
instance, every inequality used to bound that defect on a quasirandom
group: the convolution bound, the derivative average, the conjugated
convolution functional, Parseval, the Fourier mass of the
translated-class densities, the full Cauchy-Schwarz chain, and the end
bound (2/sqrt(D))^{1/4} itself.
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
# gather_estimate): the chain, fcmu and sampled gamma refuse a larger
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
    sampled(m=<sample_count>,seed=<sample_seed>), where for gamma m counts
    the columns b drawn, each averaged over every g.
    """

    lemma_id: str
    lhs_value: float
    rhs_bound: float
    mode: str
    passed: bool
    margin: float
    stderr_estimate: float | None = None
    sample_count: int | None = None
    sample_seed: int | None = None


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


def _progression_pass(
    t: np.ndarray, V1: np.ndarray, V2: np.ndarray, V3: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Progression sums of m stacked triples in one pass over the table t.

    V1, V2, V3 are (n x m) stacks of one dtype; the pass works in it.
    Returns S with S[x, j] = sum_y V2[xy, j] V3[xy^2, j] and totals with
    totals[j] = sum_x V1[x, j] S[x, j].  Rows go in blocks of
    max(1, CHUNK // m), so a gathered block holds at most CHUNK * n
    entries.  Each total is a per-column dot accumulated over CHUNK-row
    blocks, which keeps one-triple results (and the JSON that prints
    them) the same bits as an unbatched row loop; a single reduction over
    the (n x m) product of V1 and S sums in another order.  The gathered
    blocks go into buffers allocated once: a fresh multi-megabyte array
    per block is mapped and page-faulted anew on every block unless the
    allocator happens to keep freed memory (on sl2:13 with m = 10 that
    doubled the pass time).
    """
    n, m = V2.shape
    ysq = t.diagonal()
    S = np.empty((n, m), dtype=V2.dtype)
    step = max(1, CHUNK // m)
    U2 = np.empty((step, n), dtype=t.dtype)
    B2 = np.empty((step, n, m), dtype=V2.dtype)
    B3 = np.empty((step, n, m), dtype=V3.dtype)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        h = hi - lo
        U = t[lo:hi]
        # mode="clip" skips the bounds check; with "raise", take buffers out.
        np.take(U, ysq, axis=1, out=U2[:h], mode="clip")
        np.take(V2, U, axis=0, out=B2[:h], mode="clip")
        np.take(V3, U2[:h], axis=0, out=B3[:h], mode="clip")
        np.multiply(B2[:h], B3[:h], out=B2[:h])
        B2[:h].sum(axis=1, out=S[lo:hi])
    totals = np.zeros(m, dtype=np.result_type(V1, S))
    for j in range(m):
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            totals[j] += V1[lo:hi, j] @ S[lo:hi, j]
    return S, totals


def theta_defects(
    F1: list[GroupFunction],
    F2: list[GroupFunction],
    F3: list[GroupFunction],
    T: CharacterTable,
) -> list[MixingReport]:
    """theta_defect of every triple (F1[j], F2[j], F3[j]).

    Triples go through the progression pass CHUNK at a time, so memory
    stays near CHUNK * n entries per stack whatever the ensemble size.
    Real-valued blocks are summed in float64, others in complex128.
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
    reports = []
    for lo in range(0, len(F1), CHUNK):
        block = [F[lo:lo + CHUNK] for F in (F1, F2, F3)]
        stacks = [np.stack([f.values for f in fs], axis=1) for fs in block]
        if not any(np.any(V.imag) for V in stacks):
            stacks = [np.ascontiguousarray(V.real) for V in stacks]
        _, totals = _progression_pass(t, *stacks)
        for total, f1, f2, f3 in zip(totals, *block):
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

    _, totals = _progression_pass(t, indicator(A1), indicator(A2), indicator(A3))
    return int(totals[0])


def _report(
    lemma_id: str,
    lhs: float,
    rhs: float,
    tol: float,
    *,
    stderr: float | None = None,
    sample_count: int | None = None,
    sample_seed: int | None = None,
) -> LemmaReport:
    if stderr is None:
        mode = "exhaustive"
        passed = lhs <= rhs + tol
    else:
        mode = f"sampled(m={sample_count},seed={sample_seed})"
        passed = lhs <= rhs + 3.0 * stderr + tol
    return LemmaReport(
        lemma_id=lemma_id,
        lhs_value=float(lhs),
        rhs_bound=float(rhs),
        mode=mode,
        passed=bool(passed),
        margin=float(rhs - lhs),
        stderr_estimate=stderr,
        sample_count=sample_count,
        sample_seed=sample_seed,
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

    Each mu_g has |C(g)| support points, so its spectral profile costs
    n |C(g)| gathers and the check n * sum_K |K|^2 in all."""
    check_budget("fcmu", C)
    G = C.group
    worst = 0.0
    for g in range(G.n):
        profile = spectral_profile(mu_translated_class(G, C, g), T, C, tol=math.inf)
        predicted = np.abs(T.chi[:, C.class_of[g]]) ** 2 / T.degrees
        worst = max(worst, float(np.abs(profile.hs2 - predicted).max()))
    return _report("fcmu", worst, tol, 0.0)


def gather_estimate(suite: str, C: ConjugacyData, columns: int | None = None) -> int:
    """Table gathers one call of a verify suite makes on the group of C.

    gamma at m columns b costs 2n^2 m: n^2 m for the class-averaged
    tables A_K and n m per g; ``columns`` is m, or None for all n
    columns (2n^3).  The chain adds 2n^3 for its c3 pass, fcmu costs
    n |K| per element of K; the other suites are O(n^2).
    """
    n = C.group.n
    m = n if columns is None else columns
    cost = {
        "gamma": 2 * n * n * m,
        "chain": 4 * n**3,
        "fcmu": n * sum(int(k) ** 2 for k in C.sizes),
    }
    return cost.get(suite, n * n)


def check_budget(suite: str, C: ConjugacyData, budget: int = GAMMA_COLUMNS) -> None:
    """Raise SizeGuardError when a suite's estimate exceeds GATHER_BUDGET.

    gamma needs a ``budget`` of at least 2 columns (PreconditionError
    otherwise), and counts only those columns when its exhaustive pass
    does not fit.
    """
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


def _class_conv_terms(G: GroupTable, C: ConjugacyData, V: np.ndarray, cols=None):
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

    ``cols`` is an index array of m columns b, or None for all n.  The
    generator yields (g, inner0, inner_mean) for every g, the last two
    as vectors over the columns, and holds a few n x m tables.
    """
    t = G.require_table("class convolution")
    n = G.n
    W = V if np.any(V.imag) else V.real
    # Gathers through intp indices run about twice as fast as through
    # the int32 table, which numpy would convert on every use.
    tB = (t if cols is None else t[:, cols]).astype(np.intp)
    deriv = W[:, None] * W[tB]  # deriv[x, j] = f(x) f(x b_j)
    mu_b = deriv.mean(axis=0)
    A = np.empty_like(deriv)
    for members in C.class_elements:
        # A[z, j] = mean_{c in K} deriv[zc, j], gathered a block of rows z
        # at a time so that the gathered rows stay in cache.
        zK = t[:, members]
        step = max(1, CHUNK * CHUNK // (len(members) * deriv.shape[1]))
        for lo in range(0, n, step):
            A[lo:lo + step] = deriv[zK[lo:lo + step]].mean(axis=1)
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
    and mu_g the scaled density on g^{-1} C(g^{-1}).  Through the
    class-averaged derivative table of ``_class_conv_terms`` this costs
    O(n^3) gathers.
    """
    n = G.n
    gamma_sum = 0.0
    c4_sum = 0.0 + 0.0j
    mean_sum = 0.0
    for _, inner0, inner_mean in _class_conv_terms(G, C, V):
        gamma_sum += float(np.abs(inner0).sum())
        c4_sum += (inner0 + inner_mean).sum()
        mean_sum += float(np.abs(inner_mean).sum())
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
    before any work.  Both modes run ``_class_conv_terms`` at O(n^2)
    gathers per column; sampling starts only where 2n^3 exceeds
    GATHER_BUDGET, so m < n there and it holds a few n x m tables.
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
    return _report(
        "gamma", lhs, rhs, tol, stderr=stderr, sample_count=budget, sample_seed=seed
    )


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

    _, total = _progression_pass(t, v1[:, None], v2[:, None], v3[:, None])
    theta = abs(float(total[0])) / (n * n)
    c1 = theta**4

    F1 = v1[t[:, G.inv]]  # F1[x, z] = f1(x z^{-1})
    F3 = v3[t]  # F3[x, z] = f3(x z)
    inner_xz = (F1 * F3).mean(axis=1)
    c2 = float((inner_xz**2).mean()) ** 2

    U = t[:, t.diagonal()]  # U[y, z] = y z^2
    v3U = v3[U]
    U_rows = U * np.int32(n)  # flat offsets into t; n^2 < 2^31 for dense tables
    t_flat = t.ravel()
    acc = 0.0
    for a in range(n):
        arr_a = t[t[G.inv, G.inv[a]], ar]  # arr_a[z] = z^{-1} a^{-1} z
        Wm = t_flat[U_rows + arr_a]  # Wm[y, z] = y z^2 z^{-1} a^{-1} z
        inner = (v3U * v3[Wm]).mean(axis=1)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element progression sensitivities for the three set slots.

    S1[e] counts pairs through x = e; S2[e] through xy = e; S3[e]
    through xy^2 = e.  Toggling membership of e in set i changes the
    exact progression count by (sign) * Si[e].
    """
    t = G.require_table("adversarial search")
    n = G.n
    iv = G.inv
    iysq = iv[t.diagonal()]
    S, _ = _progression_pass(t, v1[:, None], v2[:, None], v3[:, None])
    S2 = np.empty(n, dtype=np.int64)
    S3 = np.empty(n, dtype=np.int64)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        U = t[lo:hi]
        S2[lo:hi] = (v1[U[:, iv]] * v3[U]).sum(axis=1)
        S3[lo:hi] = (v1[U[:, iysq]] * v2[U[:, iv]]).sum(axis=1)
    return S[:, 0], S2, S3


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
    start.  The sensitivity tables cost one O(n^2) progression pass per
    restart and are then kept up to date in O(n) per applied toggle
    (_apply_toggle).  The defect is tracked through exact integer
    progression counts.  Deterministic in (seed, budget, restarts); best
    restart wins.
    """
    if budget < 0 or restarts < 1:
        raise PreconditionError("budget must be >= 0 and restarts >= 1")
    n = G.n
    n2 = float(n) * float(n)
    best: tuple[float, np.ndarray] | None = None

    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        V = np.stack([rng.integers(0, 2, size=n).astype(np.int64) for _ in range(3)])
        S = np.stack(_toggle_gain_tables(G, *V))
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
