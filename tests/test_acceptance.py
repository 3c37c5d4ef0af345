"""End-to-end acceptance battery.

Each criterion test prints one [criterion N] PASS/FAIL line to the live terminal
(bypassing capture) and then asserts, so a plain pytest run doubles as a
checklist.  Tolerances and time limits are stated inline next to each
check.
"""

import math
import time

import numpy as np
import pytest

from qmix import (
    GroupFunction,
    build_group,
    class_mult_coefficients,
    compute_character_table,
    conjugacy_classes,
    adversarial_search,
    cs_chain_diagnostics,
    gamma_functional,
    mu_translated_class,
    p_norm,
    random_ensemble,
    spectral_profile,
    theorem_bound,
    theta_defect,
    verify_bnp,
    verify_derivative_bound,
    verify_fcmu,
)
from qmix import chartab, fourier, groups, mixing
from qmix.cli import main as cli_main
from qmix.groups import _row_blocks

CHARTAB_GROUPS = (
    [f"cyclic:{n}" for n in range(2, 13)]
    + [f"dihedral:{n}" for n in range(3, 9)]
    + ["sym:3", "sym:4", "alt:4", "alt:5"]
    + [f"sl2:{p}" for p in (5, 7, 11, 13)]
    + [f"psl2:{p}" for p in (5, 7, 11, 13)]
)

DEGREE_MULTISETS = {
    "alt:5": [1, 3, 3, 4, 5],
    "psl2:7": [1, 3, 3, 6, 7, 8],
    "sl2:5": [1, 2, 2, 3, 3, 4, 4, 5, 6],
}


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_character_table_certification(bundle, capsys):
    worst_residual = 0.0
    slowest = 0.0
    ok = True
    problems = []
    for spec in CHARTAB_GROUPS:
        start = time.perf_counter()
        G, C, T = bundle(spec)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        worst_residual = max(worst_residual, T.residual)
        if T.residual >= 1e-8:
            ok, _ = False, problems.append(f"{spec} residual {T.residual:.3g}")
        if int((T.degrees.astype(np.int64) ** 2).sum()) != G.n:
            ok, _ = False, problems.append(f"{spec} degree square sum")
        if not np.issubdtype(T.degrees.dtype, np.integer) or T.degrees.min() < 1:
            ok, _ = False, problems.append(f"{spec} non-integral degrees")
        if elapsed >= 10.0:
            ok, _ = False, problems.append(f"{spec} took {elapsed:.1f}s")
    for spec, expected in DEGREE_MULTISETS.items():
        if bundle(spec)[2].degrees.tolist() != expected:
            ok, _ = False, problems.append(f"{spec} degree multiset")
    announce(
        capsys, 1, ok,
        f"{len(CHARTAB_GROUPS)} tables certified, max residual "
        f"{worst_residual:.2e}, slowest {slowest:.2f}s"
        + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_02_translated_class_profile_exhaustive(bundle, capsys):
    start = time.perf_counter()
    worst = 0.0
    for spec in ("alt:5", "psl2:7"):
        G, C, T = bundle(spec)
        for g in range(G.n):
            profile = spectral_profile(mu_translated_class(G, C, g), T, C)
            predicted = (np.abs(T.chi[:, C.class_of[g]]) ** 2) / T.degrees
            worst = max(worst, float(np.abs(profile.hs2 - predicted).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    announce(
        capsys, 2, ok,
        f"hs2 of translated class densities matches |chi(g)|^2/d for all g "
        f"on alt:5 and psl2:7, max deviation {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("spec", [*CHARTAB_GROUPS, "prod:sl2:5+cyclic:3"])
def test_row_blocks_give_the_table_rows(spec, monkeypatch):
    """The row provider's depth-first walk yields every element's table
    row once, in intp blocks of at most min(n, CHUNK, CHUNK^2 // n) rows
    (at least one), and builds no table.  The table is filled by the same
    walk, so compose, which walks words and not the row tree, is the
    oracle independent of it: it gives the table's entries, and the walk
    yields the table's rows again in the same order.  A CHUNK of 7 gives
    blocks of at most 7 rows, which makes most parents' rows outlive
    their block."""
    G = build_group(spec)

    def walk():
        height = min(G.n, groups.CHUNK, max(1, groups.CHUNK**2 // G.n))
        for xs, R in _row_blocks(G):
            assert R.dtype == np.intp
            assert len(xs) == len(R) <= height
            yield xs, R

    monkeypatch.setattr(groups, "CHUNK", 7)
    seen = np.zeros(G.n, dtype=np.int64)
    walked = np.empty((G.n, G.n), dtype=np.int32)
    order = []
    for xs, R in walk():
        seen[xs] += 1
        walked[xs] = R
        order.append(xs.copy())
    monkeypatch.undo()
    assert G.table is None
    assert np.all(seen == 1)
    assert np.array_equal(walked, G.mul)
    order = np.concatenate(order)
    lo = 0
    for xs, R in walk():
        assert np.array_equal(xs, order[lo:lo + len(xs)])
        assert np.array_equal(R, G.mul[xs])
        lo += len(xs)
    assert lo == G.n
    ar = np.arange(G.n)
    assert np.array_equal(G.compose(ar[:, None], ar), G.mul)


@pytest.mark.parametrize("spec", [*CHARTAB_GROUPS, "prod:sl2:5+cyclic:3"])
def test_fcmu_per_class_matches_per_element_sweep(bundle, spec, reference_correlation):
    """verify_fcmu's class sums, one row per class from the structure
    constants, are the bits of every element's own.

    The reference correlates every element's mu_g through one
    compose-built table per group (CHARTAB_GROUPS holds psl2:11; the
    product adds a group with a center) and takes its class sums.  Each
    must equal the row of g's class bit for bit, and the worst deviation
    of their profiles over all g must equal verify_fcmu's lhs exactly.
    """
    G, C, T = bundle(spec)
    R = mixing._translate_class_sums(C).astype(np.float64)
    ar = np.arange(G.n)
    t = G.compose(ar[:, None], ar)
    worst = 0.0
    for g in range(G.n):
        c = int(C.class_of[g])
        mu = mu_translated_class(G, C, g).values
        corr = reference_correlation(G, mu, mu, t)
        Rg = np.bincount(C.class_of, weights=corr, minlength=C.k)
        assert Rg.tobytes() == R[c].tobytes(), (spec, g)
        predicted = np.abs(T.chi[:, c]) ** 2 / T.degrees
        hs2 = fourier._class_hs2(T, C, Rg.astype(np.complex128))
        worst = max(worst, float(np.abs(hs2 - predicted).max()))
    assert verify_fcmu(T, C, 1e-8).lhs_value == worst


@pytest.mark.parametrize("spec", CHARTAB_GROUPS)
def test_correlation_forms_agree_bit_for_bit_on_integer_terms(bundle, spec, reference_correlation):
    """The row correlation and the table oracle sum in different orders,
    but every term of a class density's correlation and of +-1 data is
    an integer, so both must give the same bits."""
    G, C, _ = bundle(spec)
    rng = np.random.default_rng(17)
    signs = [rng.integers(0, 2, G.n) * 2 - 1 for _ in range(2)]
    pairs = [(signs[0], signs[1])]
    for rep in C.representatives:
        mu = mu_translated_class(G, C, int(rep)).values
        pairs.append((mu, mu))
    ar = np.arange(G.n)
    t = G.compose(ar[:, None], ar)
    for U, V in pairs:
        U, V = U.astype(np.float64), V.astype(np.float64)
        want = reference_correlation(G, U, V, t)
        assert fourier._correlation(G, U, V).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [*CHARTAB_GROUPS, "sl2:23", "alt:8"])
def test_array_closure_matches_the_scalar_bfs(spec, scalar_closure):
    """Each generator's column x -> x*g equals the one a BFS over the
    scalar family law records, so both index the elements alike."""
    G = build_group(spec)
    elements, _, _, right = scalar_closure(spec)
    assert G.n == len(elements)
    ar = np.arange(G.n)
    assert G.generator_indices == tuple(int(col[0]) for col in right)
    for g, col in zip(G.generator_indices, right):
        assert np.array_equal(G.compose(ar, g), col)


@pytest.mark.parametrize("spec", [*CHARTAB_GROUPS, "sl2:23", "alt:8"])
def test_label_propagation_matches_the_flood_fill(spec, flood_fill_classes):
    G = build_group(spec)
    C = conjugacy_classes(G)
    reps, class_of, sizes, elements = flood_fill_classes(G)
    assert C.k == len(reps)
    for got, want in (
        (C.representatives, reps), (C.class_of, class_of), (C.sizes, sizes)
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert C.k == len(elements)
    for c, want in enumerate(elements):
        assert np.array_equal(np.flatnonzero(C.class_of == c), want)


def _per_class_coefficients(G, C, i):
    """M_i as it was counted one class at a time: for a in C_i, b is forced
    to a^{-1} rep_l, a walk of the word of each rep_l from every a^{-1}."""
    k = C.k
    a = np.flatnonzero(C.class_of == i)
    cls = C.class_of[G.compose(G.inv[a][:, None], C.representatives)].astype(np.int64)
    flat = cls * k + np.arange(k, dtype=np.int64)[None, :]
    return np.bincount(flat.ravel(), minlength=k * k).reshape(k, k)


@pytest.mark.parametrize("spec", [*CHARTAB_GROUPS, "sl2:23", "alt:8"])
def test_class_mult_stack_matches_the_per_class_count(spec):
    G = build_group(spec)
    C = conjugacy_classes(G)
    M = class_mult_coefficients(G, C)
    assert M.dtype == np.int64 and M.shape == (C.k, C.k, C.k)
    for i in range(C.k):
        assert np.array_equal(M[i], _per_class_coefficients(G, C, i)), i


@pytest.mark.parametrize("spec", [*CHARTAB_GROUPS, "sl2:23", "alt:8"])
def test_combination_is_the_weighted_stack(spec):
    """A = sum_i r_i M_i mod p from one weighted bincount per
    representative equals the combination of the counted stack."""
    G = build_group(spec)
    C = conjugacy_classes(G)
    p = 1_000_003
    r = np.random.default_rng(7).integers(0, p, size=C.k)
    want = np.tensordot(r, class_mult_coefficients(G, C), axes=1) % p
    got = chartab._combination(G, C, r.tolist(), p)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("spec", CHARTAB_GROUPS)
def test_exact_table_matches_the_float_eigensolve(spec, bundle, float_character_table):
    """Each exact row is within 1e-12 of one row of the float eigensolve,
    of the same degree, a different row for each, so the degrees and D
    agree too."""
    G, C, T = bundle(spec)
    chi, degrees = float_character_table(G, C)
    gap = np.abs(T.chi[:, None, :] - chi[None, :, :]).max(axis=2)
    match = gap.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(T.k))
    assert np.array_equal(degrees[match], T.degrees)
    assert gap[np.arange(T.k), match].max() < 1e-12
    assert T.D == (int(np.sort(degrees)[1]) if T.k > 1 else 1)


def test_criterion_03_parseval_sweep(bundle, capsys):
    G, C, T = bundle("psl2:7")
    worst = 0.0
    for f in random_ensemble(G, "unimodular", (42, 105), 100):
        profile = spectral_profile(f, T, C)
        residual = abs(float(T.degrees @ profile.hs2) - p_norm(f, 2) ** 2)
        worst = max(worst, residual, profile.parseval_residual)
    ok = worst < 1e-8
    announce(
        capsys, 3, ok,
        f"100 random complex functions on psl2:7, max Parseval residual {worst:.2e}",
    )


def test_criterion_04_convolution_norm_bound(bundle, capsys, character_function):
    G, C, T = bundle("psl2:7")
    fns = random_ensemble(G, "mean_zero_rademacher", (42, 101), 2000)
    min_margin = math.inf
    all_passed = True
    for f1, f2 in zip(fns[0::2], fns[1::2]):
        rep = verify_bnp(f1, f2, T, tol=1e-9)
        all_passed &= rep.passed
        min_margin = min(min_margin, rep.margin)
    Ga, Ca, Ta = bundle("alt:5")
    chi = character_function(Ta, Ca, 1)
    witness = verify_bnp(chi, chi, Ta, tol=1e-9)
    witness_ok = abs(witness.lhs_value - 1 / 3) < 1e-9 and witness.passed
    ok = all_passed and witness_ok
    announce(
        capsys, 4, ok,
        f"1000 mean-zero pairs on psl2:7 all under the 1/sqrt(3) convolution "
        f"bound (min margin {min_margin:.4f}); alt:5 character witness "
        f"|chi*chi|_2 = 1/3 within 1e-9",
    )


def test_criterion_05_derivative_average_bound(bundle, capsys):
    worst_ratio = 0.0
    ok = True
    for spec, stream in (("alt:5", (42, 102)), ("sl2:11", (43, 102))):
        G, C, T = bundle(spec)
        rhs = 1 / math.sqrt(T.D)
        for f in random_ensemble(G, "mean_zero_rademacher", stream, 200):
            rep = verify_derivative_bound(f, T, tol=1e-9)
            ok &= rep.passed and rep.lhs_value <= rhs + 1e-9
            worst_ratio = max(worst_ratio, rep.lhs_value / rhs)
    announce(
        capsys, 5, ok,
        f"200 derivative averages each on alt:5 (D=3) and sl2:11 (D=5) all "
        f"under 1/sqrt(D)+1e-9, worst lhs/rhs ratio {worst_ratio:.3f}",
    )


def test_criterion_06_class_convolution_functional(bundle, capsys):
    rhs = 1 / math.sqrt(3)
    ok = True
    worst = {}
    # Both groups have D = 3; gamma is exact on each, over all n^2 pairs.
    for spec, stream in (("alt:5", (42, 103)), ("sl2:7", (44, 103))):
        G, C, T = bundle(spec)
        assert T.D == 3
        worst[spec] = 0.0
        for f in random_ensemble(G, "mean_zero_rademacher", stream, 50):
            rep = gamma_functional(f, T, C, tol=1e-9)
            ok &= rep.passed and rep.lhs_value <= rhs + 1e-9
            worst[spec] = max(worst[spec], rep.lhs_value)
    announce(
        capsys, 6, ok,
        f"functional under 1/sqrt(3), exact over every (g, b), for 50 seeds "
        f"each on alt:5 (max {worst['alt:5']:.4f}) and sl2:7 "
        f"(max {worst['sl2:7']:.4f})",
    )


def test_criterion_07_cauchy_schwarz_chain(bundle, capsys):
    G, C, T = bundle("alt:5")
    pair = random_ensemble(G, "rademacher", (42, 106), 100)
    thirds = random_ensemble(G, "mean_zero_rademacher", (42, 107), 50)
    start = time.perf_counter()
    ok = True
    worst_gap = 0.0
    for i in range(50):
        rep = cs_chain_diagnostics(pair[2 * i], pair[2 * i + 1], thirds[i], T, C, tol=1e-9)
        v = dict(rep.values)
        worst_gap = max(worst_gap, abs(v["c3"] - v["c4"]))
        ok &= rep.passed
        ok &= v["c1"] <= v["c2"] + 1e-9 and v["c2"] <= v["c3"] + 1e-9
        ok &= v["c4"] <= v["split"] + 1e-9
        ok &= v["split"] <= 2 / math.sqrt(3) + 1e-9
    elapsed = time.perf_counter() - start
    ok &= worst_gap < 1e-9 and elapsed < 300.0
    announce(
        capsys, 7, ok,
        f"50 real triples on alt:5: c1<=c2<=c3=c4<=split<=2/sqrt(3), max "
        f"|c3-c4| = {worst_gap:.2e}, {elapsed:.1f}s",
    )

    # alt:6 (D = 5) is the one admitted group where 2/sqrt(D) < 1.
    G, C, T = bundle("alt:6")
    pair = random_ensemble(G, "rademacher", (42, 206), 6)
    thirds = random_ensemble(G, "mean_zero_rademacher", (42, 207), 3)
    start = time.perf_counter()
    ok = T.D == 5
    worst_gap, worst_split = 0.0, 0.0
    for i in range(3):
        rep = cs_chain_diagnostics(pair[2 * i], pair[2 * i + 1], thirds[i], T, C, tol=1e-9)
        v = dict(rep.values)
        worst_gap = max(worst_gap, abs(v["c3"] - v["c4"]))
        worst_split = max(worst_split, v["split"])
        ok &= rep.passed
        ok &= v["c1"] <= v["c2"] + 1e-9 and v["c2"] <= v["c3"] + 1e-9
        ok &= v["c4"] <= v["split"] + 1e-9
        ok &= v["split"] <= v["bound"] + 1e-9 and v["bound"] < 1.0
    elapsed = time.perf_counter() - start
    ok &= worst_gap < 1e-9 and elapsed < 60.0
    announce(
        capsys, 7, ok,
        f"3 real triples on alt:6: c1<=c2<=c3=c4<=split<=2/sqrt(5) < 1, max "
        f"split = {worst_split:.2e}, max |c3-c4| = {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_theorem_end_to_end(bundle, capsys):
    ok = True
    details = []
    for spec in ("sl2:5", "sl2:7", "sl2:11", "sl2:13", "psl2:7", "psl2:13"):
        G, C, T = bundle(spec)
        bound = theorem_bound(T.D)
        streams = [
            random_ensemble(G, "indicator:0.5", (42, 11 + role), 100)
            for role in range(3)
        ]
        max_theta = 0.0
        for i in range(100):
            rep = theta_defect(streams[0][i], streams[1][i], streams[2][i], T)
            max_theta = max(max_theta, rep.theta)
            ok &= rep.theta <= bound + 1e-9
        *_, search_rep = adversarial_search(G, T, budget=5000, restarts=5, seed=42)
        ok &= search_rep.theta <= bound + 1e-9
        details.append(f"{spec} max {max(max_theta, search_rep.theta):.2e}<={bound:.3f}")
    Gc, _, Tc = bundle("cyclic:5")
    omega = np.exp(2j * np.pi / 5)
    x = np.arange(5)
    control = theta_defect(
        GroupFunction(Gc, omega**x),
        GroupFunction(Gc, omega ** (-2 * x % 5)),
        GroupFunction(Gc, omega**x),
        Tc,
    )
    control_ok = abs(control.theta - 1.0) < 1e-12
    ok &= control_ok
    announce(
        capsys, 8, ok,
        "100 indicator triples + best-of-5x5000 search within the bound on "
        + ", ".join(details)
        + f"; abelian control theta = {control.theta:.6f} (needs quasirandomness)",
    )


def test_criterion_09_decay_across_sl2(bundle, capsys):
    medians = []
    for p in (5, 7, 11, 13):
        G, C, T = bundle(f"sl2:{p}")
        streams = [
            random_ensemble(G, "indicator:0.5", (7, p, role), 50) for role in range(3)
        ]
        thetas = [
            theta_defect(streams[0][i], streams[1][i], streams[2][i], T).theta
            for i in range(50)
        ]
        medians.append(float(np.median(thetas)))
    ok = all(a > b for a, b in zip(medians, medians[1:]))
    announce(
        capsys, 9, ok,
        "median defect over 50 half-density triples strictly decreasing on "
        "sl2:5..13: " + " > ".join(f"{m:.2e}" for m in medians),
    )


def test_criterion_10_performance(bundle, capsys, tmp_path):
    G, C, T = bundle("sl2:13")
    streams = [random_ensemble(G, "indicator:0.5", (3, role), 1) for role in range(3)]
    start = time.perf_counter()
    theta_defect(streams[0][0], streams[1][0], streams[2][0], T)
    theta_elapsed = time.perf_counter() - start

    out = tmp_path / "suite.json"
    start = time.perf_counter()
    code = cli_main(
        ["verify", "psl2:7", "--suite", "all", "--trials", "100",
         "--format", "json", "--out", str(out)]
    )
    suite_elapsed = time.perf_counter() - start
    ok = theta_elapsed < 2.0 and code == 0 and suite_elapsed < 600.0
    announce(
        capsys, 10, ok,
        f"exact defect on sl2:13 (n=2184) in {theta_elapsed:.2f}s < 2s; "
        f"full verify suite on psl2:7 exit {code} in {suite_elapsed:.0f}s < 600s",
    )
