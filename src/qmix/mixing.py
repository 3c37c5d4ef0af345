"""Mixing defect of three-term progressions and inequality certificates.

theta_defect measures how far E[f1(x) f2(xy) f3(xy^2)] sits from the
product of means; the remaining entry points certify, instance by
instance, every inequality used to bound that defect on a quasirandom
group: the convolution bound, the derivative average, the conjugated
convolution functional, the full Cauchy-Schwarz chain, and the end
bound (2/sqrt(D))^{1/4} itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chartab import CharacterTable, ConjugacyData, conjugacy_classes
from .errors import (
    GroupMismatchError,
    PreconditionError,
    SizeGuardError,
)
from .fourier import (
    CHUNK,
    GroupFunction,
    _check_index_set,
    _translated_class_support,
    convolve,
    mean,
    p_norm,
)
from .groups import GroupTable

EXHAUSTIVE_LIMIT = 200

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
    extra 3 * stderr_estimate of Monte Carlo slack.
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
    values: tuple
    checks: tuple
    passed: bool
    D: int
    tol: float


def _same_group3(f1: GroupFunction, f2: GroupFunction, f3: GroupFunction) -> GroupTable:
    if f1.group is not f2.group or f1.group is not f3.group:
        raise GroupMismatchError("functions live on different groups")
    return f1.group


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

    V1, V2, V3 are (n x m) stacks; the pass works in their own dtype.
    Returns S with S[x, j] = sum_y V2[xy, j] V3[xy^2, j] and totals with
    totals[j] = sum_x V1[x, j] S[x, j].  Rows go in blocks of
    max(1, CHUNK // m), so a gathered block holds at most CHUNK * n
    entries.  Each total is a per-column dot accumulated over CHUNK-row
    blocks, which keeps one-triple results (and the JSON that prints
    them) the same bits as an unbatched row loop; a single reduction over
    the (n x m) product of V1 and S sums in another order.
    """
    n, m = V2.shape
    ysq = t.diagonal()
    S = np.empty((n, m), dtype=np.result_type(V2, V3))
    step = max(1, CHUNK // m)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        U = t[lo:hi]
        S[lo:hi] = (V2[U] * V3[U[:, ysq]]).sum(axis=1)
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
    G = F1[0].group
    for f1, f2, f3 in zip(F1, F2, F3):
        if _same_group3(f1, f2, f3) is not G:
            raise GroupMismatchError("functions live on different groups")
    if T.n != G.n:
        raise GroupMismatchError("character table does not match the group")
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
    if f1.group is not f2.group:
        raise GroupMismatchError("functions live on different groups")
    G = f1.group
    if T.n != G.n:
        raise GroupMismatchError("character table does not match the group")
    if min(abs(mean(f1)), abs(mean(f2))) > MEAN_ZERO_TOL:
        raise PreconditionError("neither factor is mean-zero")
    lhs = p_norm(convolve(f1, f2), 2)
    rhs = p_norm(f1, 2) * p_norm(f2, 2) / math.sqrt(T.D)
    return _report("bnp", lhs, rhs, tol)


def _derivative_means(G: GroupTable, V: np.ndarray) -> np.ndarray:
    """Vector over b of E_x[f(x) f(xb)], one O(n^2) pass."""
    t = G.require_table("derivative average")
    acc = np.zeros(G.n, dtype=np.complex128)
    for lo in range(0, G.n, CHUNK):
        hi = min(lo + CHUNK, G.n)
        acc += V[lo:hi] @ V[t[lo:hi]]
    return acc / G.n


def verify_derivative_bound(
    f: GroupFunction, T: CharacterTable, tol: float = 1e-9
) -> LemmaReport:
    """E_b |E_x f(x) f(xb)| <= 1/sqrt(D) for mean-zero f with sup <= 1."""
    G = f.group
    if T.n != G.n:
        raise GroupMismatchError("character table does not match the group")
    if abs(mean(f)) > MEAN_ZERO_TOL:
        raise PreconditionError("function must be mean-zero")
    if p_norm(f, np.inf) > 1.0 + SUP_SLACK:
        raise PreconditionError("sup norm must be at most 1")
    lhs = float(np.abs(_derivative_means(G, f.values)).mean())
    rhs = 1.0 / math.sqrt(T.D)
    return _report("derivative", lhs, rhs, tol)


def _scatter_matrix(G: GroupTable, support: np.ndarray) -> np.ndarray:
    """Matrix P with P[x, u] = (1/|S|) #{a in S : x a^{-1} = u}.

    Right-multiplying a stack of functions by P.T convolves each with
    the scaled density mu_S.
    """
    n = G.n
    t = G.require_table("class convolution")
    A = t[:, G.inv[support]]
    flat = (np.arange(n, dtype=np.int64)[:, None] * n + A).ravel()
    P = np.bincount(flat, minlength=n * n).astype(np.float64).reshape(n, n)
    P /= len(support)
    return P


def _conj_map(G: GroupTable, g: int) -> np.ndarray:
    """Index vector m with m[b] = g^{-1} b g."""
    t = G.mul
    ig = int(G.inv[g])
    return t[t[ig], g]


def _class_conv_terms(G: GroupTable, C: ConjugacyData, V: np.ndarray, selections):
    """Class-convolution integrands of f, one g at a time.

    For each (g, b) in ``selections``, b indexing a subset of the group,
    yields (inner0, inner_mean) over the selected b's:
      inner0     = E_x[ D_b(x) * (D0_{g^{-1}bg} * mu_g)(x) ]
      inner_mean = E_x[D_b] * E_x[D_{g^{-1}bg}]
    where D_b(x) = f(x) f(xb) is the multiplicative derivative, D0 its
    mean-zero part and mu_g the scaled density on g^{-1} C(g^{-1}).
    Real f stays float64, so each class convolution is one real GEMM.
    It is a generator so that one g's n x n temporaries are still alive
    when the next g's are allocated, as in an inline loop: freeing them
    all between g's lets the allocator return the pages to the system
    and fault them in again for every g, a quarter of the run time.
    """
    t = G.require_table("class convolution")
    W = V if np.any(V.imag) else V.real
    deriv = W[:, None] * W[t]  # deriv[x, b] = f(x) f(x b)
    D_rows = np.ascontiguousarray(deriv.T)  # D_rows[b, x] = D_b(x)
    mu_vec = deriv.mean(axis=0)  # mu_vec[b] = E_x D_b(x)
    for g, b in selections:
        P = _scatter_matrix(G, _translated_class_support(G, C, int(G.inv[g])))
        c_idx = _conj_map(G, g)[b]
        mu_c = mu_vec[c_idx]
        H0 = D_rows[c_idx] - mu_c[:, None]  # H0[b, x] = D0_{g^{-1}bg}(x)
        if np.isrealobj(H0):
            conv0 = H0 @ P.T
        else:
            conv0 = (H0.real @ P.T) + 1j * (H0.imag @ P.T)
        yield (D_rows[b] * conv0).mean(axis=1), mu_c * mu_vec[b]


def _class_conv_stats(
    G: GroupTable, C: ConjugacyData, V: np.ndarray
) -> tuple[float, float, float]:
    """Exhaustive (g, b) averages of the class-convolution integrands.

    Returns (gamma, c4, mean_term) for f with values V:
      gamma     = E_{g,b} |E_x[ D_b(x) * (D0_{g^{-1}bg} * mu_g)(x) ]|
      c4        = |E_{g,b,x}[ D_b(x) * (D_{g^{-1}bg} * mu_g)(x) ]|
      mean_term = E_{g,b} |E_x[D_b] * E_x[D_{g^{-1}bg}]|
    where D_b is the multiplicative derivative, D0 its mean-zero part
    and mu_g the scaled density on g^{-1} C(g^{-1}).
    """
    n = G.n
    gamma_sum = 0.0
    c4_sum = 0.0 + 0.0j
    mean_sum = 0.0
    all_b = ((g, slice(None)) for g in range(n))
    for inner0, inner_mean in _class_conv_terms(G, C, V, all_b):
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
    mode: str = "auto",
    budget: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> LemmaReport:
    """Average over (g, b) of |E_x[D_b f(x) (f0_{g^{-1}bg} * mu_g)(x)]|.

    D_b f is the multiplicative derivative, f0_c the mean-zero part of
    D_c f, and mu_g the scaled density on g^{-1} C(g^{-1}); the bound is
    1/sqrt(D).  Exhaustive over all n^2 pairs when n <= 200 (or forced),
    else estimated from ``budget`` seeded uniform pairs with a reported
    standard error; sampled runs pass with 3 * stderr slack.
    """
    G = f.group
    if T.n != G.n:
        raise GroupMismatchError("character table does not match the group")
    if abs(mean(f)) > MEAN_ZERO_TOL:
        raise PreconditionError("function must be mean-zero")
    if p_norm(f, np.inf) > 1.0 + SUP_SLACK:
        raise PreconditionError("sup norm must be at most 1")
    if C is None:
        C = conjugacy_classes(G)
    if C.group is not G:
        raise GroupMismatchError("class data belongs to a different group")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exhaustive" if G.n <= EXHAUSTIVE_LIMIT else "sampled"
    rhs = 1.0 / math.sqrt(T.D)

    if mode == "exhaustive":
        if G.n > EXHAUSTIVE_LIMIT:
            raise SizeGuardError(
                f"exhaustive mode is capped at n <= {EXHAUSTIVE_LIMIT}"
            )
        gamma, _, _ = _class_conv_stats(G, C, f.values)
        return _report("gamma", gamma, rhs, tol)

    if budget < 2:
        raise PreconditionError("sampled mode needs a budget of at least 2")
    rng = np.random.default_rng(seed)
    g_draw = rng.integers(0, G.n, size=budget)
    b_draw = rng.integers(0, G.n, size=budget)
    g_seen = np.unique(g_draw)
    sels = [np.flatnonzero(g_draw == g) for g in g_seen]
    drawn = ((int(g), b_draw[sel]) for g, sel in zip(g_seen, sels))
    values = np.empty(budget, dtype=np.float64)
    for sel, (inner0, _) in zip(sels, _class_conv_terms(G, C, f.values, drawn)):
        values[sel] = np.abs(inner0)
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
    max_order: int = 120,
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
    c4 <= split, split <= 2/sqrt(D).  The c3 pass is O(n^3), hence the
    ``max_order`` guard.
    """
    G = _same_group3(f1, f2, f3)
    if T.n != G.n:
        raise GroupMismatchError("character table does not match the group")
    if G.n > max_order:
        raise SizeGuardError(
            f"chain diagnostics are O(n^3) and capped at n <= {max_order}"
        )
    for i, f in enumerate((f1, f2, f3), start=1):
        if np.any(np.abs(f.values.imag) > 0.0):
            raise PreconditionError(f"f{i} must be real-valued")
        if p_norm(f, np.inf) > 1.0 + SUP_SLACK:
            raise PreconditionError(f"f{i} must have sup norm at most 1")
    if abs(mean(f3)) > MEAN_ZERO_TOL:
        raise PreconditionError("f3 must be mean-zero")
    if C is None:
        C = conjugacy_classes(G)
    if C.group is not G:
        raise GroupMismatchError("class data belongs to a different group")

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
    acc = 0.0
    for a in range(n):
        arr_a = t[t[G.inv, G.inv[a]], ar]  # arr_a[z] = z^{-1} a^{-1} z
        Wm = t[U, arr_a[None, :]]  # Wm[y, z] = y z^2 z^{-1} a^{-1} z
        inner = (v3[U] * v3[Wm]).mean(axis=1)
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
    return ChainReport(
        values=values,
        checks=checks,
        passed=all(c.passed for c in checks),
        D=T.D,
        tol=tol,
    )


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


def adversarial_search(
    G: GroupTable,
    T: CharacterTable,
    *,
    budget: int = 5000,
    restarts: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, MixingReport]:
    """Greedy local search for a set triple with large mixing defect.

    Each sweep evaluates all 3n single-element toggles (costing 3n of
    the evaluation budget, computed in O(n^2) total), applies the best
    strictly improving one, and repeats while budget remains.  The
    defect is tracked through exact integer progression counts.
    Deterministic in (seed, budget, restarts); best restart wins.
    """
    if budget < 0 or restarts < 1:
        raise PreconditionError("budget must be >= 0 and restarts >= 1")
    G.require_table("adversarial search")
    n = G.n
    n2 = float(n) * float(n)
    best: tuple[float, tuple] | None = None

    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        ind = [rng.integers(0, 2, size=n).astype(np.int64) for _ in range(3)]
        N = count_progressions(
            np.flatnonzero(ind[0]), np.flatnonzero(ind[1]), np.flatnonzero(ind[2]), G
        )
        sizes = [int(v.sum()) for v in ind]
        theta = abs(N / n2 - sizes[0] * sizes[1] * sizes[2] / n2 / n)
        used = 0
        while used + 3 * n <= budget:
            S1, S2, S3 = _toggle_gain_tables(G, ind[0], ind[1], ind[2])
            used += 3 * n
            gains = np.stack([S1, S2, S3])
            signs = 1 - 2 * np.stack(ind)  # +1 if adding e, -1 if removing
            cand_N = N + signs * gains
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
            s = int(signs[slot, e])
            ind[slot][e] += s
            sizes[slot] += s
            N = int(cand_N[slot, e])
            theta = best_theta
        if best is None or theta > best[0]:
            best = (theta, tuple(np.flatnonzero(v) for v in ind))

    _, sets_best = best
    report = _raw_indicator_report(G, T, sets_best)
    return sets_best[0], sets_best[1], sets_best[2], report


def _raw_indicator_report(
    G: GroupTable, T: CharacterTable, sets: tuple
) -> MixingReport:
    n = G.n
    fs = []
    for idx in sets:
        vals = np.zeros(n, dtype=np.complex128)
        vals[np.asarray(idx, dtype=np.int64)] = 1.0
        fs.append(GroupFunction(G, vals))
    return theta_defect(fs[0], fs[1], fs[2], T)
