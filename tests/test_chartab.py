import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    CertificationError,
    SizeGuardError,
    build_group,
    character_table_csv,
    character_table_report,
    class_mult_coefficients,
    compute_character_table,
    conjugacy_classes,
    is_abelian,
    witten_zeta,
)
from qmix import chartab
from qmix.chartab import _conjugation_maps

BATTERY = [
    "cyclic:2",
    "cyclic:6",
    "cyclic:12",
    "dihedral:3",
    "dihedral:4",
    "dihedral:8",
    "sym:3",
    "sym:4",
    "alt:4",
    "alt:5",
    "sl2:5",
    "psl2:7",
    "prod:cyclic:2+cyclic:3",
    "prod:sym:3+cyclic:2",
]

DEGREE_ORACLES = {
    "cyclic:4": [1, 1, 1, 1],
    "sym:3": [1, 1, 2],
    "sym:4": [1, 1, 2, 3, 3],
    "alt:4": [1, 1, 1, 3],
    "alt:5": [1, 3, 3, 4, 5],
    "dihedral:4": [1, 1, 1, 1, 2],
    "dihedral:5": [1, 1, 2, 2],
    "sl2:5": [1, 2, 2, 3, 3, 4, 4, 5, 6],
    "psl2:7": [1, 3, 3, 6, 7, 8],
}


class TestConjugacy:
    def test_cyclic_classes_are_singletons(self, bundle):
        G, C, _ = bundle("cyclic:7")
        assert C.k == 7
        assert all(s == 1 for s in C.sizes)

    def test_sym3_class_sizes(self, bundle):
        _, C, _ = bundle("sym:3")
        assert sorted(C.sizes.tolist()) == [1, 2, 3]

    def test_alt5_class_sizes(self, bundle):
        _, C, _ = bundle("alt:5")
        assert sorted(C.sizes.tolist()) == [1, 12, 12, 15, 20]

    @pytest.mark.parametrize("spec", BATTERY)
    def test_partition_invariants(self, spec, bundle):
        G, C, _ = bundle(spec)
        assert C.representatives[0] == 0
        assert C.sizes[0] == 1
        assert int(C.sizes.sum()) == G.n
        assert all(G.n % int(h) == 0 for h in C.sizes)
        for c in range(C.k):
            members = np.flatnonzero(C.class_of == c)
            assert len(members) == C.sizes[c]
            assert np.all(C.class_of[members] == c)
            assert C.class_of[C.representatives[c]] == c

    def test_abelian_partition_holds_no_member_arrays(self):
        # n classes: class_of, representatives and sizes take 16n bytes
        # (0.8 MB); one member array per class would take several times that.
        G = build_group("cyclic:50000")
        tracemalloc.start()
        try:
            C = conjugacy_classes(G)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert C.k == G.n
        assert held < 2_000_000

    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(0, 23), x=st.integers(0, 23))
    def test_conjugation_preserves_class(self, g, x, product, inverse):
        G = build_group("sym:4")
        C = conjugacy_classes(G)
        y = product(G, product(G, inverse(G, g), x), g)
        assert C.class_of[x] == C.class_of[y]

    @pytest.mark.parametrize("spec", ["alt:5", "sl2:23"])
    def test_conjugation_maps_are_the_two_sided_products(self, spec):
        # Both walk words and build no table; alt:5 is checked against
        # its table as well.
        G = build_group(spec)
        ar = np.arange(G.n)
        gens = [g for g in G.generator_indices if g != 0]
        maps = _conjugation_maps(G)
        assert G.table is None
        assert len(maps) == len(gens)
        for g, m in zip(gens, maps):
            assert m.dtype == np.int32
            assert np.array_equal(m, G.compose(G.compose(G.inv[g], ar), g))
            if spec == "alt:5":
                assert np.array_equal(m, G.mul[G.mul[G.inv[g], ar], g])


class TestClassMultCoefficients:
    def test_identity_class_gives_identity_matrix(self, bundle):
        for spec in ("sym:3", "alt:4"):
            G, C, _ = bundle(spec)
            M0 = class_mult_coefficients(C)[0]
            assert np.array_equal(M0, np.eye(C.k, dtype=M0.dtype))

    @pytest.mark.parametrize("spec", ["sym:3", "alt:4", "dihedral:5"])
    def test_double_counting_identity(self, spec, bundle):
        G, C, _ = bundle(spec)
        h = C.sizes.astype(np.int64)
        for i, Mi in enumerate(class_mult_coefficients(C)):
            assert np.issubdtype(Mi.dtype, np.integer)
            assert np.all(Mi >= 0)
            # sum over l of M_i[j][l] h_l counts all of class_i x class_j
            assert np.array_equal(Mi @ h, h[i] * h)

    def test_sym3_brute_force(self, bundle, product):
        G, C, _ = bundle("sym:3")
        for i in range(C.k):
            expected = np.zeros((C.k, C.k), dtype=np.int64)
            for j in range(C.k):
                for a in np.flatnonzero(C.class_of == i):
                    for b in np.flatnonzero(C.class_of == j):
                        ab = product(G, int(a), int(b))
                        for l in range(C.k):
                            if ab == C.representatives[l]:
                                expected[j][l] += 1
            assert np.array_equal(class_mult_coefficients(C)[i], expected)

    @pytest.mark.parametrize("spec", ["sym:3", "alt:4", "psl2:7"])
    def test_stack_is_the_pair_count(self, spec, bundle):
        # Every pair (a, b) of the table: its product counts once toward
        # M[class(a)][class(b)][l] when it is rep_l.
        G, C, _ = bundle(spec)
        k = C.k
        ab = G.mul
        slot = np.full(G.n, -1)
        slot[C.representatives] = np.arange(k)
        a, b = np.nonzero(slot[ab] >= 0)
        expected = np.zeros((k, k, k), dtype=np.int64)
        np.add.at(expected, (C.class_of[a], C.class_of[b], slot[ab[a, b]]), 1)
        M = class_mult_coefficients(C)
        assert M.dtype == np.int64 and M.shape == (k, k, k)
        assert np.array_equal(M, expected)

    @pytest.mark.parametrize("spec", ["sym:4", "psl2:7", "alt:6", "sl2:13", "sl2:23"])
    def test_walks_take_the_shortest_word_in_each_class(self, spec):
        # The member walked for class l has the shortest word in it, the
        # least index among those.  Any member gives the same counts, so
        # the stack equals the count through the representatives' walks.
        G = build_group(spec)
        C = conjugacy_classes(G)
        z = chartab._short_members(C)
        assert np.array_equal(C.class_of[z], np.arange(C.k))
        for l in range(C.k):
            members = np.flatnonzero(C.class_of == l)
            lengths = G.lengths[members]
            assert z[l] == members[lengths == lengths.min()][0]
        ar = np.arange(G.n)
        row = C.class_of[G.inv].astype(np.int64) * C.k
        M = class_mult_coefficients(C)
        for l, rep in enumerate(C.representatives):
            pairs = row + C.class_of[G.compose(ar, rep)]
            counts = np.bincount(pairs, minlength=C.k * C.k).reshape(C.k, C.k)
            assert np.array_equal(M[:, :, l], counts)

    def test_stack_refuses_more_than_max_classes(self):
        G = build_group("cyclic:250")
        with pytest.raises(SizeGuardError, match="250 classes exceeds the 200 cap"):
            class_mult_coefficients(conjugacy_classes(G))


class TestCharacterTable:
    @pytest.mark.parametrize("spec,degrees", sorted(DEGREE_ORACLES.items()))
    def test_degree_oracles(self, spec, degrees, bundle):
        _, _, T = bundle(spec)
        assert T.degrees.tolist() == degrees

    def test_degrees_match_the_closed_form(self, closed_form_spec, closed_form_degrees):
        # Every family group with at most 36 classes and every product of
        # two with at most 4 each (conftest._closed_form_specs): the exact
        # table's degrees, k and D against formulas that build no group, so
        # a wrong group of the right order fails here.
        degrees = closed_form_degrees(closed_form_spec)
        G = build_group(closed_form_spec)
        T = compute_character_table(conjugacy_classes(G))
        assert T.degrees.tolist() == degrees
        assert T.k == len(degrees) and G.n == sum(d * d for d in degrees)
        assert T.D == min(degrees[1:], default=1)

    @pytest.mark.parametrize("spec", BATTERY)
    def test_certification_invariants(self, spec, bundle):
        G, C, T = bundle(spec)
        # The table holds the classes it was computed from; n and k are
        # read from them.
        assert T.classes is C and C.group is G
        assert (T.n, T.k) == (G.n, C.k)
        assert int((T.degrees.astype(np.int64) ** 2).sum()) == G.n
        assert np.allclose(T.chi[0], 1.0, atol=1e-12)
        assert T.residual < 1e-8
        assert list(T.degrees) == sorted(T.degrees)

    @pytest.mark.parametrize("spec", BATTERY)
    def test_orthogonality_recomputed(self, spec, bundle):
        G, C, T = bundle(spec)
        h = C.sizes.astype(np.float64)
        gram = (T.chi * h) @ T.chi.conj().T / G.n
        assert np.abs(gram - np.eye(T.k)).max() < 1e-8
        col = T.chi.T @ T.chi.conj()
        assert np.abs(col - np.diag(G.n / h)).max() < 1e-8

    @pytest.mark.parametrize("spec", BATTERY)
    def test_identity_column_kills_nontrivial_classes(self, spec, bundle):
        _, _, T = bundle(spec)
        sums = T.degrees.astype(np.float64) @ T.chi
        assert np.abs(sums[1:]).max() < 1e-8

    @pytest.mark.parametrize("spec", BATTERY)
    def test_abelian_iff_all_degrees_one(self, spec, bundle):
        G, _, T = bundle(spec)
        assert is_abelian(G) == bool(np.all(T.degrees == 1))

    def test_cyclic_entries_are_roots_of_unity(self, bundle):
        G, _, T = bundle("cyclic:12")
        assert np.allclose(np.abs(T.chi), 1.0, atol=1e-9)
        assert np.allclose(T.chi**12, 1.0, atol=1e-8)

    def test_alt5_golden_ratio_entries(self, bundle):
        _, _, T = bundle("alt:5")
        golden = (1 + math.sqrt(5)) / 2
        entries = T.chi[T.degrees == 3].ravel()
        assert np.abs(entries - golden).min() < 1e-9
        assert np.abs(entries - (1 - golden)).min() < 1e-9

    def test_table_is_reproducible_and_takes_no_seed(self):
        # The table is exact: the same group gives the same bits, from a
        # fresh build too, and there is no seed to choose.
        for spec in ("alt:5", "psl2:7", "sl2:5"):
            G = build_group(spec)
            C = conjugacy_classes(G)
            A = compute_character_table(C)
            B = compute_character_table(conjugacy_classes(build_group(spec)))
            assert np.array_equal(A.chi, B.chi)
            assert np.array_equal(A.degrees, B.degrees)
            assert (A.prime, A.attempts) == (B.prime, B.attempts)
            with pytest.raises(TypeError, match="seed"):
                compute_character_table(C, seed=42)

    def test_class_count_guard(self):
        G = build_group("cyclic:250")
        C = conjugacy_classes(G)
        with pytest.raises(SizeGuardError):
            compute_character_table(C)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_a_tolerance_nothing_is_checked_against(self, tol):
        # Every relation is checked mod p, so there is no tolerance to pass.
        G = build_group("psl2:7")
        with pytest.raises(TypeError, match="tol"):
            compute_character_table(conjugacy_classes(G), tol=tol)

    def test_certificate_prime_is_least_admissible(self, product):
        # p is the least prime above max(n, k^2) that is 1 mod the exponent,
        # the lcm of the element orders (84 on psl2:7).
        G = build_group("psl2:7")
        T = compute_character_table(conjugacy_classes(G))

        def order(x):
            y, o = x, 1
            while y != 0:
                y, o = product(G, y, x), o + 1
            return o

        e = math.lcm(*(order(x) for x in range(G.n)))
        assert e == 84
        primes = [
            q for q in range(max(G.n, T.k**2) + 1, T.prime + 1)
            if q % e == 1 and all(q % d for d in range(2, math.isqrt(q) + 1))
        ]
        assert primes == [T.prime]

    def test_lazy_group_supported(self):
        G = build_group("psl2:29")
        C = conjugacy_classes(G)
        T = compute_character_table(C)
        assert T.k == 17
        assert T.D == 15
        assert T.residual < 1e-8


class TestExactMethod:
    @pytest.mark.parametrize("spec", ["sym:4", "psl2:7"])
    def test_every_raised_class_count_is_refused(self, spec, monkeypatch):
        # M_i[j][l] + 1 adds r_i to A[j][l]; whichever count is raised,
        # the exact certificate refuses the table.
        G = build_group(spec)
        C = conjugacy_classes(G)
        combination = chartab._combination
        for i, j, l in itertools.product(range(C.k), repeat=3):

            def raised(C, r, p):
                A = combination(C, r, p)
                A[j, l] = (A[j, l] + r[i]) % p
                return A

            monkeypatch.setattr(chartab, "_combination", raised)
            with pytest.raises(CertificationError):
                compute_character_table(C)

    def test_a_repeated_eigenvalue_moves_on_to_the_next_combination(self, monkeypatch):
        # r = e_0 gives A = M_0, the identity, whose one eigenvalue repeats
        # k times; the table comes from the next combination, unchanged.
        G = build_group("psl2:7")
        C = conjugacy_classes(G)
        T = compute_character_table(C)
        combinations = chartab._combinations

        def first_repeats(k, p):
            yield [1] + [0] * (k - 1)
            yield from combinations(k, p)

        monkeypatch.setattr(chartab, "_combinations", first_repeats)
        U = compute_character_table(C)
        assert U.attempts == T.attempts + 1
        assert np.array_equal(U.chi, T.chi) and np.array_equal(U.degrees, T.degrees)

    def test_only_repeated_eigenvalues_are_refused(self, monkeypatch):
        # r = (1, ..., 1): the eigenvalue of A at a character is its sum over
        # G over its degree, 0 for every nontrivial one, in every attempt.
        monkeypatch.setattr(chartab, "_combinations", lambda k, p: itertools.repeat([1] * k))
        with pytest.raises(CertificationError, match="repeats an eigenvalue"):
            compute_character_table(conjugacy_classes(build_group("sym:4")))

    @pytest.mark.parametrize("p,bound", [(2**31 - 1, "2\\^63"), (10**8 + 7, "2\\^53")])
    def test_a_prime_with_inexact_products_is_refused(self, p, bound, monkeypatch):
        # sym:3 has k = 3 and largest order 3: 3 (p - 1)^2 passes 2^63 at
        # p = 2^31 - 1 and 2^53, but not 2^63, at p = 10^8 + 7.
        monkeypatch.setattr(chartab, "_least_prime", lambda e, floor: p)
        with pytest.raises(SizeGuardError, match=bound):
            compute_character_table(conjugacy_classes(build_group("sym:3")))

    def test_two_hundred_classes_hold_no_cube(self):
        # One (k, k, k) stack of class counts is 64 MB at k = 200; the exact
        # method holds k x k matrices and one block of the F_p scan.
        G = build_group("cyclic:200")
        C = conjugacy_classes(G)
        tracemalloc.start()
        try:
            T = compute_character_table(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.k == 200 and T.D == 1
        assert peak < 50_000_000


class TestQuasirandomDegree:
    def test_oracles(self, bundle):
        for spec, expected in [
            ("alt:5", 3),
            ("psl2:7", 3),
            ("sym:3", 1),
            ("cyclic:6", 1),
        ]:
            _, _, T = bundle(spec)
            assert T.D == expected

    def test_product_of_quasirandom_factors(self, bundle):
        _, _, T = bundle("prod:alt:5+alt:5")
        assert T.n == 3600
        assert T.D == 3

    def test_product_with_abelian_factor_loses_quasirandomness(self, bundle):
        _, _, T = bundle("prod:alt:5+cyclic:2")
        assert T.D == 1


class TestWittenZeta:
    def test_alt5_values(self, bundle):
        _, _, T = bundle("alt:5")
        assert witten_zeta(T, 1) == pytest.approx(1 / 3 + 1 / 3 + 1 / 4 + 1 / 5, abs=1e-12)
        assert witten_zeta(T, 2) == pytest.approx(1 / 9 + 1 / 9 + 1 / 16 + 1 / 25, abs=1e-12)

    def test_cyclic5_value(self, bundle):
        _, _, T = bundle("cyclic:5")
        assert witten_zeta(T, 1) == pytest.approx(4.0, abs=1e-12)

    def test_psl27_value(self, bundle):
        _, _, T = bundle("psl2:7")
        expected = 1 / 3 + 1 / 3 + 1 / 6 + 1 / 7 + 1 / 8
        assert witten_zeta(T, 1) == pytest.approx(expected, abs=1e-12)


class TestExports:
    def test_csv_layout_and_precision(self, bundle):
        G, C, T = bundle("sym:3")
        lines = character_table_csv(T).strip().splitlines()
        assert lines[0].startswith("class_rep,")
        assert lines[1].startswith("class_size,")
        assert len(lines) == 2 + T.k
        reps = [int(v) for v in lines[0].split(",")[1:]]
        sizes = [int(v) for v in lines[1].split(",")[1:]]
        assert reps == C.representatives.tolist()
        assert sizes == C.sizes.tolist()
        for r, line in enumerate(lines[2:]):
            cells = line.split(",")
            assert int(cells[0]) == T.degrees[r]
            values = np.array([complex(c) for c in cells[1:]])
            assert np.abs(values - T.chi[r]).max() < 1e-12

    def test_report_is_json_serializable(self, bundle):
        _, _, T = bundle("psl2:7")
        report = character_table_report(T)
        assert set(report) == {
            "n", "k", "degrees", "D", "zeta1", "orthogonality_residual", "prime", "attempts",
        }
        parsed = json.loads(json.dumps(report))
        assert parsed["degrees"] == [1, 3, 3, 6, 7, 8]
        assert parsed["D"] == 3
        assert (parsed["prime"], parsed["attempts"]) == (T.prime, T.attempts) == (337, 1)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=2, max_value=24))
def test_cyclic_table_properties(n):
    G = build_group(f"cyclic:{n}")
    C = conjugacy_classes(G)
    T = compute_character_table(C)
    assert T.k == n
    assert np.all(T.degrees == 1)
    assert T.D == 1
    assert np.allclose(np.abs(T.chi), 1.0, atol=1e-9)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=3, max_value=10))
def test_dihedral_table_properties(n):
    G = build_group(f"dihedral:{n}")
    C = conjugacy_classes(G)
    T = compute_character_table(C)
    assert T.D == 1
    assert int(T.degrees.max()) == 2
    one_dim = int((T.degrees == 1).sum())
    assert one_dim == (2 if n % 2 else 4)
