import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    CertificationError,
    GroupFunction,
    GroupMismatchError,
    PreconditionError,
    SizeGuardError,
    adversarial_search,
    build_group,
    convolve,
    count_progressions,
    compute_character_table,
    conjugacy_classes,
    cs_chain_diagnostics,
    gamma_functional,
    indicator_function,
    mean,
    mu_translated_class,
    random_ensemble,
    spectral_profile,
    theorem_bound,
    theta_defect,
    theta_defects,
    verify_bnp,
    verify_derivative_bound,
    verify_fcmu,
    verify_parseval,
)
from qmix import chartab, fourier, mixing
from qmix.fourier import _correlation
from qmix.groups import CHUNK
from qmix.mixing import _class_conv_stats, _class_conv_sums, _toggle_gain_tables


def count_calls(monkeypatch, *names):
    """Count the calls of the named mixing functions, which still run."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(mixing, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mixing, name, counted)
    return calls


def cyclic5_phase_triple(G):
    omega = np.exp(2j * np.pi / 5)
    x = np.arange(5)
    f1 = GroupFunction(G, omega**x)
    f2 = GroupFunction(G, omega ** (-2 * x % 5))
    f3 = GroupFunction(G, omega**x)
    return f1, f2, f3


class TestTheoremBound:
    def test_oracles(self):
        assert theorem_bound(4) == pytest.approx(1.0, abs=1e-15)
        assert theorem_bound(64) == pytest.approx(2 ** -0.5, abs=1e-12)
        assert theorem_bound(3) == pytest.approx(1.0366146496280775, abs=1e-12)
        assert theorem_bound(1) == pytest.approx(2 ** 0.25, abs=1e-15)

    def test_monotone_to_zero(self):
        values = [theorem_bound(D) for D in (1, 2, 4, 16, 256, 10_000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_non_positive(self):
        for bad in (0, -3):
            with pytest.raises(PreconditionError):
                theorem_bound(bad)

    def test_rejects_a_degree_that_is_not_an_integer(self):
        assert theorem_bound(np.int64(16)) == theorem_bound(16)
        for bad in (2.9, 4.0, math.nan):
            with pytest.raises(PreconditionError, match="integer"):
                theorem_bound(bad)


class TestThetaDefect:
    def test_constants_have_zero_defect(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        rep = theta_defect(c, c, c, T)
        assert rep.theta < 1e-15
        assert rep.raw_expectation == pytest.approx(1.0)
        assert rep.product_of_means == pytest.approx(1.0)

    def test_cyclic5_character_triple_defeats_mixing(self, bundle):
        G, _, T = bundle("cyclic:5")
        f1, f2, f3 = cyclic5_phase_triple(G)
        rep = theta_defect(f1, f2, f3, T)
        assert rep.theta == pytest.approx(1.0, abs=1e-12)
        assert rep.D == 1
        assert math.isinf(rep.bound)
        assert rep.vacuous

    def test_cyclic5_point_sets(self, bundle):
        G, _, T = bundle("cyclic:5")
        one = indicator_function(G, [0])
        rep = theta_defect(one, one, one, T)
        assert rep.theta == pytest.approx(1 / 25 - 1 / 125, abs=1e-15)

    def test_sup_norm_warning(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        big = constant_function(G, 3.0)
        with pytest.warns(UserWarning, match="sup norm"):
            theta_defect(big, big, big, T)

    def test_group_mismatch(self, bundle, constant_function):
        G1, _, T1 = bundle("sym:3")
        G2, _, _ = bundle("cyclic:6")
        c1, c2 = constant_function(G1), constant_function(G2)
        with pytest.raises(GroupMismatchError):
            theta_defect(c1, c1, c2, T1)

    @pytest.mark.parametrize("m", [1, 2, 7, 63, 64, 65, 300])
    def test_batch_matches_single_triples_bit_for_bit(self, bundle, m):
        G, _, T = bundle("psl2:7")
        streams = [
            random_ensemble(G, "indicator:0.5", (m, role), m) for role in range(3)
        ]
        batch = theta_defects(*streams, T)
        single = [theta_defect(f1, f2, f3, T) for f1, f2, f3 in zip(*streams)]
        assert len(batch) == m
        for b, s in zip(batch, single):
            assert (b.theta, b.raw_expectation, b.product_of_means, b.margin) == (
                s.theta, s.raw_expectation, s.product_of_means, s.margin
            )

    @pytest.mark.parametrize("odd", ["half", "rademacher"])
    def test_block_with_one_non_indicator_matches_single_triples(self, bundle, odd):
        # One function that is not 0/1 sends the block through the value
        # pass; each triple keeps the bits it gets alone.
        G, _, T = bundle("psl2:7")
        streams = [random_ensemble(G, "indicator:0.5", (5, role), 6) for role in range(3)]
        if odd == "half":
            v = streams[1][2].values.copy()
            v[3] = 0.5
            streams[1][2] = GroupFunction(G, v)
        else:
            streams[0][4] = random_ensemble(G, "rademacher", 8, 1)[0]
        batch = theta_defects(*streams, T)
        for b, f1, f2, f3 in zip(batch, *streams):
            s = theta_defect(f1, f2, f3, T)
            assert (b.theta, b.raw_expectation, b.product_of_means, b.margin) == (
                s.theta, s.raw_expectation, s.product_of_means, s.margin
            )

    @pytest.mark.parametrize("m", [1, 2, 8, 9, 63, 64, 65, 130])
    def test_packed_pass_matches_the_float_sums(self, bundle, m):
        # Word widths 8/16/64 bits, and stacks wider than one word split at
        # 64 triples within one pass.  The per-row sums are checked on
        # _toggle_gain_tables (TestAdversarialSearch).
        G, _, _ = bundle("psl2:7")
        t = G.mul
        rng = np.random.default_rng(m)
        V1, V2, V3 = (rng.integers(0, 2, size=(G.n, m)).astype(np.int64) for _ in range(3))
        S = (V2[t] * V3[t[:, t.diagonal()]]).sum(axis=1)

        def packed(*Vs):
            # _bit_pass takes each role as a list of its m vectors.
            return mixing._bit_pass(G, *(list(V.T) for V in Vs))

        totals = packed(V1, V2, V3)
        assert totals.dtype == np.int64
        assert np.array_equal(totals, (V1 * S).sum(axis=0))
        again = packed(V1 > 0, V2 > 0, V3.astype(float))
        assert np.array_equal(again, totals)
        assert np.array_equal(packed(*(V.astype(complex) for V in (V1, V2, V3))), totals)

    @pytest.mark.parametrize("spec", ["psl2:7", "sl2:7", "alt:5", "prod:sl2:5+cyclic:3"])
    @pytest.mark.parametrize(
        "kind", ["rademacher", "mean_zero_rademacher", "unimodular", "complex"]
    )
    def test_value_pass_bits_match_the_reference(self, bundle, reference_value_pass, spec, kind):
        G, _, _ = bundle(spec)
        if kind == "complex":
            rng = np.random.default_rng(53)
            vs = [rng.standard_normal(G.n) + 1j * rng.standard_normal(G.n) for _ in range(3)]
        else:
            vs = [f.values for f in random_ensemble(G, kind, 51, 3)]
            if kind != "unimodular":
                vs = [np.ascontiguousarray(v.real) for v in vs]
        got = mixing._value_pass(G, *vs)
        want = reference_value_pass(G.mul, *vs)
        assert got.dtype == want.dtype
        assert got == want

    def test_batch_matches_single_triples_on_unimodular(self, bundle):
        G, _, T = bundle("psl2:7")
        streams = [random_ensemble(G, "unimodular", (9, role), 7) for role in range(3)]
        batch = theta_defects(*streams, T)
        for b, f1, f2, f3 in zip(batch, *streams):
            s = theta_defect(f1, f2, f3, T)
            assert (b.theta, b.raw_expectation, b.product_of_means, b.margin) == (
                s.theta, s.raw_expectation, s.product_of_means, s.margin
            )

    @pytest.mark.parametrize("spec", ["psl2:7", "sl2:7"])
    @pytest.mark.parametrize(
        "kind,exact",
        [
            ("indicator:0.5", True),
            ("rademacher", True),
            ("dyadic", True),
            ("unimodular", False),
            ("mean_zero_rademacher", False),
        ],
    )
    def test_batch_bits_follow_the_value_pass_contract(self, bundle, spec, kind, exact):
        # A batch of six triples gives each the bits it gets alone, for
        # every kind.  0/1, +-1 and dyadic (k/8) terms (``exact``) sum
        # exactly in any order, so those also equal a whole-table sum.
        G, _, T = bundle(spec)
        if kind == "dyadic":
            rng = np.random.default_rng(17)
            streams = [
                [GroupFunction(G, rng.integers(-8, 9, size=G.n) / 8) for _ in range(6)]
                for _ in range(3)
            ]
        else:
            streams = [random_ensemble(G, kind, (3, role), 6) for role in range(3)]
        t = G.mul
        batch = theta_defects(*streams, T)
        for b, f1, f2, f3 in zip(batch, *streams):
            s = theta_defect(f1, f2, f3, T)
            assert (b.theta, b.raw_expectation) == (s.theta, s.raw_expectation)
            if exact:
                terms = f1.values[:, None] * f2.values[t] * f3.values[t[:, t.diagonal()]]
                assert b.raw_expectation == complex(terms.sum()) / G.n**2

    def test_ensemble_across_64_triple_blocks_matches_single_triples(
        self, bundle, monkeypatch
    ):
        # Each triple goes by its own kind: the 127 0/1 triples take one
        # packed pass over two words (64 + 63), and the triple with a +-1
        # function and the two unimodular ones take the value pass.
        G, _, T = bundle("psl2:7")
        streams = [random_ensemble(G, "indicator:0.5", (61, role), 128) for role in range(3)]
        streams[1][100] = random_ensemble(G, "rademacher", 62, 1)[0]
        for role in range(3):
            streams[role] += random_ensemble(G, "unimodular", (63, role), 2)
        calls = count_calls(monkeypatch, "_bit_pass", "_value_pass")
        batch = theta_defects(*streams, T)
        assert calls == {"_bit_pass": 1, "_value_pass": 3}
        assert len(batch) == 130
        for b, f1, f2, f3 in zip(batch, *streams):
            s = theta_defect(f1, f2, f3, T)
            assert (b.theta, b.raw_expectation, b.product_of_means, b.margin) == (
                s.theta, s.raw_expectation, s.product_of_means, s.margin
            )

    def test_real_triple_beside_a_complex_one_keeps_its_bits(self, bundle):
        # A real triple is summed in float64 even in a block with a complex
        # one; summed in complex128 its bits would differ by rounding.
        G, _, T = bundle("psl2:7")
        rng = np.random.default_rng(71)
        real = [GroupFunction(G, rng.uniform(-1, 1, G.n)) for _ in range(3)]
        phase = random_ensemble(G, "unimodular", 72, 3)
        batch = theta_defects(*([r, p] for r, p in zip(real, phase)), T)
        for b, triple in zip(batch, (real, phase)):
            s = theta_defect(*triple, T)
            assert (b.theta, b.raw_expectation) == (s.theta, s.raw_expectation)

    @pytest.mark.parametrize("spec", ["psl2:7", "sl2:7"])
    def test_int_and_float_01_triples_give_the_bool_bits(self, bundle, monkeypatch, spec):
        # Bool triples take the packed pass; the same 0/1 values as int64 or
        # float64 take the value pass, whose float sums of 0/1 terms are
        # the same integers, so every field keeps its bits.
        G, _, T = bundle(spec)
        bools = [random_ensemble(G, "indicator:0.4", (91, role), 4) for role in range(3)]
        calls = count_calls(monkeypatch, "_bit_pass", "_value_pass")
        want = theta_defects(*bools, T)
        for dtype in (np.int64, np.float64):
            streams = [[GroupFunction(G, f.values.astype(dtype)) for f in F] for F in bools]
            assert {f.values.dtype for F in streams for f in F} == {np.dtype(dtype)}
            for g, w in zip(theta_defects(*streams, T), want):
                assert (g.theta, g.raw_expectation, g.product_of_means, g.margin) == (
                    w.theta, w.raw_expectation, w.product_of_means, w.margin
                )
        assert calls == {"_bit_pass": 1, "_value_pass": 8}

    def test_mixed_kinds_are_cast_to_one_dtype(self, bundle, reference_value_pass):
        # (int64 +-1, int64 +-1, float64): every member is cast to float64,
        # the values the same triple had when stored as complex128 and read
        # through .real.  Left as int64 beside the float64 f3, the row sums
        # would land in an int64 buffer and truncate each product.
        G, _, T = bundle("psl2:7")
        triple = [
            *random_ensemble(G, "rademacher", 81, 2),
            *random_ensemble(G, "mean_zero_rademacher", 82, 1),
        ]
        assert [f.values.dtype for f in triple] == [np.int64, np.int64, np.float64]
        as_complex = [f.values.astype(np.complex128) for f in triple]
        vs = [np.ascontiguousarray(v.real) for v in as_complex]
        raw = complex(reference_value_pass(G.mul, *vs)) / G.n**2
        prod = math.prod(complex(v.mean()) for v in as_complex)
        rep = theta_defect(*triple, T)
        assert (rep.raw_expectation, rep.product_of_means) == (raw, prod)
        assert rep.theta == abs(raw - prod)

    def test_batch_rejects_unequal_lists(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        assert theta_defects([], [], [], T) == []
        with pytest.raises(PreconditionError):
            theta_defects([c, c], [c, c], [c], T)

    def test_vacuous_flag_tracks_bound(self, bundle, constant_function):
        _, _, T5 = bundle("sl2:11")
        assert theorem_bound(T5.D) < 1
        G, _, T = bundle("sl2:11")
        c = constant_function(G, 1.0)
        assert not theta_defect(c, c, c, T).vacuous


class TestCountProgressions:
    def test_full_sets(self, bundle):
        G, _, _ = bundle("sym:3")
        assert count_progressions(range(G.n), range(G.n), range(G.n), G) == G.n**2

    def test_empty_middle_set(self, bundle):
        G, _, _ = bundle("sym:3")
        assert count_progressions(range(G.n), [], range(G.n), G) == 0

    def test_cyclic5_point(self, bundle):
        G, _, _ = bundle("cyclic:5")
        assert count_progressions([0], [0], [0], G) == 1

    def test_rejects_what_indicator_function_rejects(self, bundle):
        # An empty list is the empty set; any other set is checked as
        # indicator_function checks it.
        G, _, _ = bundle("cyclic:5")
        for bad in (5, [5], [-1], [0, 0], [[0]], [[]], [0.5]):
            with pytest.raises(PreconditionError):
                indicator_function(G, bad)
            with pytest.raises(PreconditionError):
                count_progressions(bad, [0], [0], G)
            with pytest.raises(PreconditionError):
                count_progressions([0], [0], bad, G)

    def test_matches_a_recount_through_compose(self):
        # (x*y)*y by two compose calls: no square map, no progression pass.
        G = build_group("sl2:13")
        n = G.n
        ar = np.arange(n)
        rng = np.random.default_rng(29)
        triples = [[rng.random(n) < 0.5 for _ in range(3)] for _ in range(3)]
        triples += [[np.zeros(n, dtype=bool)] * 3, [np.ones(n, dtype=bool)] * 3]
        for a1, a2, a3 in triples:
            want = 0
            for x in np.flatnonzero(a1):
                xy = G.compose(x, ar)
                want += int(np.count_nonzero(a2[xy] & a3[G.compose(xy, ar)]))
            assert count_progressions(*(np.flatnonzero(a) for a in (a1, a2, a3)), G) == want
        assert want == n * n

    def test_lazy_pass_holds_blocks_of_about_chunk_squared(self):
        # Rows are streamed; the block height shrinks as n grows, so the
        # row-sum buffers stay near 20 CHUNK^2 bytes where CHUNK-row blocks
        # took 20 CHUNK n (42 MB here).  With A1 and A3 the whole group,
        # the count is n |A2|.
        G = build_group("cyclic:8200")
        n = G.n
        A2 = np.flatnonzero(np.random.default_rng(31).random(n) < 0.5)
        tracemalloc.start()
        try:
            count = count_progressions(range(n), A2, range(n), G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.table is None
        assert count == n * len(A2)
        assert peak < 64 * CHUNK**2 + 256 * n

    @pytest.mark.parametrize("kernel", ["_bit_pass", "_toggle_gain_tables"])
    def test_packed_passes_hold_blocks_of_about_chunk_squared(self, kernel):
        # The packed passes read the same row blocks, so their buffers
        # stay near 32 CHUNK^2 bytes whatever n is; blocks of CHUNK // 4
        # rows would take 8 CHUNK n (about 10 MB here).  The n term holds
        # the packed inputs (three 8-byte words per element at 64
        # triples), their packing and the walk's per-element lists.  The
        # bit pass runs on cyclic:4096 to stay quick.  A first all-ones
        # triple counts n^2, and all-ones sets give tables of n.
        n = 4096 if kernel == "_bit_pass" else 8200
        G = build_group(f"cyclic:{n}")
        rng = np.random.default_rng(37)
        if kernel == "_bit_pass":
            V = [rng.random((n, 64)) < 0.5 for _ in range(3)]
            for v in V:
                v[:, 0] = True
        else:
            V = [np.ones(n, dtype=np.int64)] * 3
        if kernel == "_bit_pass":
            V = [list(v.T) for v in V]  # each role as a list of its 64 vectors
        tracemalloc.start()
        try:
            out = getattr(mixing, kernel)(G, *V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.table is None
        if kernel == "_bit_pass":
            assert out[0] == n * n
        else:
            assert np.all(out == n)
        assert peak < 64 * CHUNK**2 + 256 * n

    def test_brute_force_oracle(self, bundle, product):
        G, _, _ = bundle("sym:3")
        rng = np.random.default_rng(5)
        for _ in range(5):
            sets = [
                np.nonzero(rng.random(G.n) < 0.5)[0].tolist() for _ in range(3)
            ]
            expected = sum(
                1
                for x in range(G.n)
                for y in range(G.n)
                if x in sets[0]
                and product(G, x, y) in sets[1]
                and product(G, product(G, x, y), y) in sets[2]
            )
            assert count_progressions(*sets, G) == expected

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_raw_indicator_defect(self, data):
        G = build_group("sym:4")
        from qmix import compute_character_table, conjugacy_classes

        T = compute_character_table(conjugacy_classes(G))
        sets = [
            sorted(
                data.draw(
                    st.sets(st.integers(0, G.n - 1), min_size=0, max_size=G.n)
                )
            )
            for _ in range(3)
        ]
        count = count_progressions(*sets, G)
        sizes = np.array([len(s) for s in sets])
        density_product = float(sizes.prod()) / G.n**3
        lhs = abs(count / G.n**2 - density_product)
        if all(sets[i] for i in range(3)):
            fs = [indicator_function(G, s) for s in sets]
            rep = theta_defect(fs[0], fs[1], fs[2], T)
            assert lhs == pytest.approx(rep.theta, abs=1e-12)


class TestBnp:
    def test_zero_function_passes(self, bundle, constant_function):
        G, _, T = bundle("alt:5")
        zero = constant_function(G, 0.0)
        rep = verify_bnp(zero, zero, T)
        assert rep.passed and rep.lhs_value == 0.0

    def test_character_witness(self, bundle, character_function):
        G, C, T = bundle("alt:5")
        chi = character_function(T, C, 1)
        rep = verify_bnp(chi, chi, T)
        assert rep.lhs_value == pytest.approx(1 / 3, abs=1e-9)
        assert rep.rhs_bound == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert rep.passed

    def test_random_pairs_pass(self, bundle):
        G, _, T = bundle("psl2:5")
        fns = random_ensemble(G, "mean_zero_rademacher", 99, 20)
        for f1, f2 in zip(fns[0::2], fns[1::2]):
            rep = verify_bnp(f1, f2, T)
            assert rep.passed and rep.margin > 0

    def test_requires_a_mean_zero_factor(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        with pytest.raises(PreconditionError):
            verify_bnp(c, c, T)

    def test_one_mean_zero_factor_suffices(self, bundle, constant_function):
        G, _, T = bundle("alt:5")
        c = constant_function(G, 1.0)
        f = random_ensemble(G, "rademacher", 3, 1)[0]
        f0 = GroupFunction(G, f.values - mean(f))
        assert verify_bnp(c, f0, T).passed
        assert verify_bnp(f0, c, T).passed


class TestParsevalAndFcmu:
    def test_parseval_passes_and_fails_below_zero_tol(self, bundle):
        G, C, T = bundle("alt:5")
        for f in random_ensemble(G, "unimodular", 5, 3):
            rep = verify_parseval(f, T, 1e-8)
            assert rep.lemma_id == "parseval"
            assert rep.passed and 0.0 <= rep.lhs_value <= 1e-8
            assert rep.margin == rep.rhs_bound - rep.lhs_value
            assert not verify_parseval(f, T, -1e-3).passed

    def test_fcmu_passes_and_fails_below_zero_tol(self, bundle):
        G, C, T = bundle("alt:5")
        rep = verify_fcmu(T, 1e-8)
        assert rep.lemma_id == "fcmu"
        assert rep.passed and 0.0 <= rep.lhs_value <= 1e-8
        assert not verify_fcmu(T, -1e-3).passed

    def test_fcmu_raises_on_a_phase_turned_row(self, bundle):
        # Turning a non-real row of chi by e^{i phi} keeps every |chi|^2, so
        # the class formula still matches to 1.4e-9; only the imaginary
        # residue of the profiles shows it, and it is checked at 1e-8
        # whatever tol the Parseval check gets.
        _, C, T = bundle("psl2:7")
        r = int(np.flatnonzero(np.any(T.chi.imag, axis=1))[0])
        chi = T.chi.copy()
        chi[r] *= np.exp(3e-5j)
        bad = dataclasses.replace(T, chi=chi)
        with pytest.raises(CertificationError, match="imaginary residue 9.000e-05"):
            verify_fcmu(bad, 1e-8)

    def test_fcmu_and_bnp_build_no_table(self):
        # Neither reads the table: bnp's peak is one walk block and its
        # value buffer (about CHUNK^2 entries, 8 bytes each), fcmu's a few
        # n-vectors of its one walk, plus the walk's lists, where the table
        # alone takes 4n^2 bytes.
        G = build_group("sl2:13")
        C = conjugacy_classes(G)
        T = compute_character_table(C)
        f1, f2 = random_ensemble(G, "mean_zero_rademacher", 71, 2)
        tracemalloc.start()
        try:
            reports = [verify_fcmu(T, 1e-8), verify_bnp(f1, f2, T)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert G.table is None
        assert peak < 64 * CHUNK**2 + 256 * G.n

    def test_fcmu_size_guard(self, bundle, monkeypatch):
        # The estimate charges fcmu its one walk: n times the longest word
        # among the classes' shortest members (2 steps on alt:5);
        # verify_fcmu keeps no guard of its own, even below that.
        G, C, T = bundle("alt:5")
        longest = max(int(G.lengths[z]) for z in chartab._short_members(C))
        assert mixing.gather_estimate("fcmu", C) == G.n * longest < G.n**2
        per_element = G.n * sum(int(k) ** 2 for k in C.sizes)
        for budget in (per_element - 1, 0):
            monkeypatch.setattr(mixing, "GATHER_BUDGET", budget)
            assert verify_fcmu(T, 1e-8).passed


class TestPreconditions:
    """Each check keeps its own exception and message from the shared helper."""

    def test_messages(self, bundle, constant_function):
        G, C, T = bundle("sym:3")
        one = constant_function(G, 1.0)
        zero = constant_function(G, 0.0)
        big = GroupFunction(G, [2.0, -2.0, 0, 0, 0, 0])
        cases = [
            (lambda: verify_bnp(one, one, T), "neither factor is mean-zero"),
            (lambda: verify_derivative_bound(one, T), "function must be mean-zero"),
            (lambda: verify_derivative_bound(big, T), "sup norm must be at most 1"),
            (lambda: gamma_functional(one, T), "function must be mean-zero"),
            (lambda: gamma_functional(big, T), "sup norm must be at most 1"),
            (lambda: cs_chain_diagnostics(one, one, one, T), "f3 must be mean-zero"),
            (
                lambda: cs_chain_diagnostics(one, big, zero, T),
                "f2 must have sup norm at most 1",
            ),
            (
                lambda: cs_chain_diagnostics(GroupFunction(G, [0.5j] * 6), one, zero, T),
                "f1 must be real-valued",
            ),
        ]
        for call, message in cases:
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                call()

    def test_group_and_class_mismatch(self, bundle, constant_function, monkeypatch):
        # sym:3 and cyclic:6 both have order 6, so only the identity of the
        # table's group tells cyclic:6's table from sym:3's.  Every check
        # that takes functions with a table refuses it before any O(n^2)
        # pass: a walk of the rows fails this test.
        G, _, _ = bundle("sym:3")
        H, _, TH = bundle("cyclic:6")
        zero, other = constant_function(G, 0.0), constant_function(H, 0.0)

        def no_pass(G):
            raise AssertionError("a row pass ran before the table check")

        monkeypatch.setattr(fourier, "_row_blocks", no_pass)
        monkeypatch.setattr(mixing, "_row_blocks", no_pass)
        table = "character table does not match"
        cases = [
            (lambda: verify_bnp(zero, other, TH), "functions live on different groups"),
            (lambda: theta_defects([zero], [zero], [other], TH), "different groups"),
            (lambda: theta_defect(zero, zero, zero, TH), table),
            (lambda: theta_defects([zero], [zero], [zero], TH), table),
            (lambda: verify_bnp(zero, zero, TH), table),
            (lambda: verify_derivative_bound(zero, TH), table),
            (lambda: gamma_functional(zero, TH), table),
            (lambda: cs_chain_diagnostics(zero, zero, zero, TH), table),
            (lambda: spectral_profile(zero, TH), table),
            (lambda: verify_parseval(zero, TH, 1e-8), table),
        ]
        for call, message in cases:
            with pytest.raises(GroupMismatchError, match=message):
                call()


class TestDerivativeBound:
    def test_support_restricted_pass_matches_brute_force(self, bundle, product):
        # Zeros split the support into runs, so the kernel gathers both
        # through slices and through scattered index blocks.
        G, _, T = bundle("sl2:3")
        v = np.zeros(G.n)
        v[[1, 2, 3, 7, 11, 12, 20]] = [0.5, -1.0, 0.25, 0.75, -0.5, -0.25, 0.0]
        v[5] = -v.sum()
        assert v[5] != 0
        f = GroupFunction(G, v)
        means = [
            sum(v[x] * v[product(G, x, b)] for x in range(G.n)) / G.n for b in range(G.n)
        ]
        expected = np.mean(np.abs(means))
        rep = verify_derivative_bound(f, T)
        assert rep.lhs_value == pytest.approx(expected, abs=1e-15)

    def test_zero_function(self, bundle, constant_function):
        G, _, T = bundle("alt:5")
        rep = verify_derivative_bound(constant_function(G, 0.0), T)
        assert rep.passed and rep.lhs_value == 0.0

    def test_cyclic5_phase_vanishes(self, bundle):
        G, _, T = bundle("cyclic:5")
        omega = np.exp(2j * np.pi / 5)
        f = GroupFunction(G, omega ** np.arange(5))
        rep = verify_derivative_bound(f, T)
        assert rep.lhs_value < 1e-14
        assert rep.rhs_bound == pytest.approx(1.0)

    def test_random_functions_pass(self, bundle):
        G, _, T = bundle("alt:5")
        for f in random_ensemble(G, "mean_zero_rademacher", 101, 25):
            rep = verify_derivative_bound(f, T)
            assert rep.passed
            assert rep.lhs_value <= 1 / math.sqrt(3) + 1e-9

    def test_preconditions(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        with pytest.raises(PreconditionError):
            verify_derivative_bound(constant_function(G, 1.0), T)
        v = np.zeros(G.n)
        v[0], v[1] = 2.0, -2.0
        with pytest.raises(PreconditionError):
            verify_derivative_bound(GroupFunction(G, v), T)


def class_conv_integrands(f, C, g, b, delta_shift):
    """(inner0, inner_full, inner_mean) at (g, b), composed from fourier.

    inner_full uses the derivative at g^{-1}bg itself and inner0 its
    mean-zero part; inner_mean is the product of the two derivative means.
    """
    G = f.group
    gi = G.inv[g]
    mu = mu_translated_class(C, gi)
    gbg = G.compose(G.compose(gi, b), g)
    d_b = delta_shift(f, b)
    d_c = delta_shift(f, gbg)
    m_c = mean(d_c)
    f0 = GroupFunction(G, d_c.values - m_c)
    inner0 = mean(GroupFunction(G, d_b.values * convolve(f0, mu).values))
    inner_full = mean(GroupFunction(G, d_b.values * convolve(d_c, mu).values))
    return inner0, inner_full, mean(d_b) * m_c


def class_conv_brute_force(f, C, delta_shift):
    """(gamma, c4, mean_term) by direct composition over every (g, b)."""
    n = f.group.n
    gamma = c4 = mean_term = 0.0
    for g in range(n):
        for b in range(n):
            inner0, inner_full, inner_mean = class_conv_integrands(f, C, g, b, delta_shift)
            gamma += abs(inner0)
            c4 += inner_full
            mean_term += abs(inner_mean)
    return gamma / n**2, abs(c4) / n**2, mean_term / n**2


def bounded_mean_zero(G, seed, complex_values):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, G.n)
    if complex_values:
        v = v * np.exp(2j * np.pi * rng.random(G.n))
    v = v - v.mean()
    return GroupFunction(G, v / (np.abs(v).max() + 1e-9))


class TestGammaFunctional:
    def test_zero_function(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        rep = gamma_functional(constant_function(G, 0.0), T)
        assert rep.lhs_value == 0.0 and rep.passed

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_brute_force_oracle(self, complex_values, bundle, delta_shift):
        G, C, T = bundle("sym:3")
        f = bounded_mean_zero(G, 7, complex_values)
        rep = gamma_functional(f, T)
        want = class_conv_brute_force(f, C, delta_shift)
        assert rep.lhs_value == pytest.approx(want[0], abs=1e-12)
        assert _class_conv_stats(C, f.values) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("complex_values", [False, True])
    # cyclic:6 has only singleton classes; sl2:3 has a center of order 2.
    @pytest.mark.parametrize("spec", ["cyclic:6", "sl2:3"])
    def test_class_conv_stats_brute_force(
        self, spec, complex_values, bundle, delta_shift, monkeypatch
    ):
        G, C, _ = bundle(spec)
        f = bounded_mean_zero(G, 41, complex_values)
        want = class_conv_brute_force(f, C, delta_shift)
        assert _class_conv_stats(C, f.values) == pytest.approx(want, abs=1e-12)
        # A block size of 3 splits every class average into several blocks of rows.
        monkeypatch.setattr(mixing, "CHUNK", 3)
        assert _class_conv_stats(C, f.values) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("spec", ["sl2:3", "sym:4"])
    def test_integrands_equal_at_b_and_its_inverse(
        self, spec, complex_values, bundle, delta_shift
    ):
        # The exhaustive pass evaluates one column per inverse pair.
        G, C, _ = bundle(spec)
        f = bounded_mean_zero(G, 47, complex_values)
        for g in range(G.n):
            for b in range(G.n):
                if b < G.inv[b]:
                    at_b = class_conv_integrands(f, C, g, b, delta_shift)
                    at_inv = class_conv_integrands(f, C, g, int(G.inv[b]), delta_shift)
                    assert at_b == pytest.approx(at_inv, abs=1e-12)

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize(
        "spec", ["alt:5", "sl2:5", "psl2:7", "sl2:7", "prod:sl2:5+cyclic:3"]
    )
    def test_class_conv_stats_match_the_column_body(self, spec, complex_values, bundle):
        # The weighted pair pass against unweighted sums of the one body
        # over all n columns, which catches a wrong pair weight.
        G, C, _ = bundle(spec)
        f = bounded_mean_zero(G, 53, complex_values)
        gamma, c4, mean_term = (s.sum() for s in _class_conv_sums(C, f.values, np.arange(G.n)))
        want = np.array([gamma, abs(c4), mean_term]) / G.n**2
        got = np.array(_class_conv_stats(C, f.values))
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_pass_holds_one_transposed_class_average(self, bundle):
        # With the table built first, gamma holds the value table ft[t]
        # (8n^2 bytes) and three (m x n) float tables of about 4n^2 each,
        # m = |R| being about n/2: the derivative table, A_K^T, written
        # straight into one buffer that every class reuses, and the
        # gathered rows.  An A_K transposed by a copy per class held two
        # of them at once (29.8n^2 on psl2:11).
        G, _, T = bundle("psl2:11")
        f = random_ensemble(G, "mean_zero_rademacher", 23, 1)[0]
        assert G.mul is not None
        tracemalloc.start()
        try:
            rep = gamma_functional(f, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 26 * G.n**2

    def test_exhaustive_on_alt5(self, bundle):
        G, C, T = bundle("alt:5")
        for f in random_ensemble(G, "mean_zero_rademacher", 11, 5):
            rep = gamma_functional(f, T)
            assert rep.lhs_value <= 1 / math.sqrt(3) + 1e-9
            assert rep.passed

    def test_exhaustive_size_guard(self, bundle, monkeypatch):
        G, C, T = bundle("sl2:7")
        f = random_ensemble(G, "mean_zero_rademacher", 19, 1)[0]
        assert mixing.gather_estimate("gamma", C) == 2 * G.n**3 <= mixing.GATHER_BUDGET
        monkeypatch.setattr(mixing, "GATHER_BUDGET", 2 * G.n**3)
        assert gamma_functional(f, T).passed
        # One gather short of the exhaustive pass, gamma is refused before
        # its pass starts: it has no other mode.

        def never(*args):
            raise AssertionError("the class convolution ran")

        monkeypatch.setattr(mixing, "GATHER_BUDGET", 2 * G.n**3 - 1)
        monkeypatch.setattr(mixing, "_class_conv_stats", never)
        with pytest.raises(SizeGuardError, match=f"^gamma on n={G.n} needs about"):
            gamma_functional(f, T)

    # psl2:11's chain costs 4n^3 = 1.2e9 gathers and sl2:17's gamma
    # 2n^3 = 2.3e11, both above the budget.
    @pytest.mark.parametrize("suite, spec", [("chain", "psl2:11"), ("gamma", "sl2:17")])
    def test_refused_suite_builds_no_table(self, suite, spec):
        G = build_group(spec)
        C = conjugacy_classes(G)
        with pytest.raises(SizeGuardError, match=f"^{suite} on n={G.n} needs about"):
            mixing.check_budget(suite, C)
        assert G.table is None

    def test_preconditions(self, bundle, constant_function):
        G, C, T = bundle("sym:3")
        with pytest.raises(PreconditionError):
            gamma_functional(constant_function(G, 0.5), T)


class TestChain:
    def test_zero_third_function(self, bundle, constant_function):
        G, _, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        zero = constant_function(G, 0.0)
        rep = cs_chain_diagnostics(c, c, zero, T)
        assert rep.passed
        values = dict(rep.values)
        for label in ("c1", "c2", "c3", "c4", "split"):
            assert values[label] == pytest.approx(0.0, abs=1e-15)

    def test_chain_on_random_real_triples(self, bundle):
        G, C, T = bundle("alt:4")
        pair = random_ensemble(G, "rademacher", 29, 10)
        thirds = random_ensemble(G, "mean_zero_rademacher", 31, 5)
        for i in range(5):
            rep = cs_chain_diagnostics(pair[2 * i], pair[2 * i + 1], thirds[i], T)
            assert rep.passed
            v = dict(rep.values)
            assert v["c1"] <= v["c2"] + 1e-9
            assert v["c2"] <= v["c3"] + 1e-9
            assert abs(v["c3"] - v["c4"]) < 1e-9
            assert v["c4"] <= v["split"] + 1e-9
            assert v["split"] <= v["bound"] + 1e-9

    def test_chain_where_the_bound_is_below_one(self, bundle):
        # alt:6 (n = 360, D = 5) is the one group the chain admits where
        # 2/sqrt(D) < 1, so only there does the chain's end bound say more
        # than theta <= 1.
        G, C, T = bundle("alt:6")
        assert T.D == 5
        pair = random_ensemble(G, "rademacher", 29, 6)
        thirds = random_ensemble(G, "mean_zero_rademacher", 31, 3)
        for i in range(3):
            rep = cs_chain_diagnostics(pair[2 * i], pair[2 * i + 1], thirds[i], T)
            assert rep.passed
            v = dict(rep.values)
            assert v["bound"] < 1
            assert v["c1"] <= v["c2"] + 1e-9
            assert v["c2"] <= v["c3"] + 1e-9
            assert abs(v["c3"] - v["c4"]) < 1e-9
            assert v["c4"] <= v["split"] + 1e-9
            assert v["split"] <= v["bound"] + 1e-9

    def test_chain_holds_no_full_table_copies(self, bundle):
        # theta and c2 stream table rows, and the c3 pass frees its one
        # n x n table and two (n/|E|) x n tables ((8 + 16/|E|) n^2 bytes)
        # before the class convolution holds its value table, so the peak
        # is the larger pass, not their sum.
        G, C, T = bundle("sl2:7")
        f1, f2 = random_ensemble(G, "rademacher", 41, 2)
        f3 = random_ensemble(G, "mean_zero_rademacher", 43, 1)[0]
        assert G.mul is not None  # the group's own table, as in the other tests
        tracemalloc.start()
        try:
            rep = cs_chain_diagnostics(f1, f2, f3, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 40 * G.n**2

    def test_c2_c3_brute_force(self, bundle, product, inverse):
        G, C, T = bundle("sym:3")
        n = G.n
        rng = np.random.default_rng(33)
        fs = [GroupFunction(G, rng.uniform(-1, 1, n)) for _ in range(2)]
        v3 = rng.uniform(-1, 1, n)
        v3 -= v3.mean()
        v3 /= np.abs(v3).max()
        f3 = GroupFunction(G, v3)
        rep = cs_chain_diagnostics(fs[0], fs[1], f3, T)
        v = dict(rep.values)
        v1 = fs[0].values.real

        inner = [
            np.mean([v1[product(G, x, inverse(G, z))] * v3[product(G, x, z)] for z in range(n)])
            for x in range(n)
        ]
        c2 = float(np.mean(np.array(inner) ** 2)) ** 2
        assert v["c2"] == pytest.approx(c2, abs=1e-12)

        total = 0.0
        for y in range(n):
            for a in range(n):
                acc = 0.0
                for z in range(n):
                    zsq = product(G, z, z)
                    shift = product(G, product(G, inverse(G, z), inverse(G, a)), z)
                    x = product(G, y, zsq)
                    acc += v3[x] * v3[product(G, x, shift)]
                total += (acc / n) ** 2
        c3 = total / n**2
        assert v["c3"] == pytest.approx(c3, abs=1e-12)

    @pytest.mark.parametrize("spec", ["alt:5", "psl2:7", "prod:sl2:5+cyclic:3"])
    def test_c3_bits_match_the_strided_loop(self, spec, bundle):
        # The reference gathers y z^2 z^{-1} a^{-1} z from the flat table
        # and sums over z along axis 1 of an F-ordered array; the chain's
        # row-gather pass must give the same bits.  It sums one a per
        # inverse pair, a <= a^{-1}, weighted 2 (1 when a = a^{-1}), in
        # index order, and one z per coset zE of the central involutions
        # E, weighted |E| (E = {1, -1} here on prod:sl2:5+cyclic:3), so it
        # moves only in the last bits from the sum over every a and z.
        G, C, T = bundle(spec)
        f1, f2 = random_ensemble(G, "rademacher", 41, 2)
        f3 = random_ensemble(G, "mean_zero_rademacher", 43, 1)[0]
        c3 = dict(cs_chain_diagnostics(f1, f2, f3, T).values)["c3"]

        t, n = G.mul, G.n
        v3 = f3.values.real.copy()
        picked, e = mixing._central_involutions(C)
        t_flat = t.ravel()

        def sums_over(zs, weight):
            # (the sum over one a per inverse pair, the sum over every a)
            U = t[:, t[zs, zs]]
            v3U = v3[U]
            U_rows = U * np.int32(n)
            acc = every = 0.0
            for a in range(n):
                arr_a = t[t[G.inv[zs], G.inv[a]], zs]
                Wm = t_flat[U_rows + arr_a]
                inner = weight * (v3U * v3[Wm]).sum(axis=1) / n
                term = float((inner**2).sum())
                every += term
                if a <= G.inv[a]:
                    acc += (1.0 if a == G.inv[a] else 2.0) * term
            return acc, every

        assert e == (2 if spec.startswith("prod") else 1)
        assert c3 == sums_over(np.flatnonzero(picked), e)[0] / (n * n)
        every = sums_over(np.arange(n), 1)[1]
        assert c3 == pytest.approx(every / (n * n), rel=1e-14, abs=0)

    @pytest.mark.parametrize("spec", ["sym:3", "alt:4"])
    def test_c3_terms_equal_at_a_and_its_inverse(self, spec, bundle, product, inverse):
        # sum_y inner(y, a)^2, inner(y, a) = E_z f3(y z^2) f3(y z^2 z^{-1}
        # a^{-1} z), element by element: equal at a and a^{-1}, which is
        # why the chain evaluates one a per inverse pair.  Its c3 must be
        # the mean over every a.
        G, C, T = bundle(spec)
        n = G.n
        rng = np.random.default_rng(37)
        v3 = rng.uniform(-1, 1, n)
        v3 -= v3.mean()
        v3 /= np.abs(v3).max()
        fs = [GroupFunction(G, rng.uniform(-1, 1, n)) for _ in range(2)]
        c3 = dict(cs_chain_diagnostics(*fs, GroupFunction(G, v3), T).values)["c3"]
        per_a = np.zeros(n)
        for a in range(n):
            for y in range(n):
                acc = 0.0
                for z in range(n):
                    x = product(G, y, product(G, z, z))
                    shift = product(G, product(G, inverse(G, z), inverse(G, a)), z)
                    acc += v3[x] * v3[product(G, x, shift)]
                per_a[a] += (acc / n) ** 2
        assert any(a != inverse(G, a) and per_a[a] > 1e-3 for a in range(n))
        for a in range(n):
            assert per_a[a] == pytest.approx(per_a[inverse(G, a)], rel=1e-12, abs=1e-15)
        assert c3 == pytest.approx(per_a.sum() / n**2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", ["alt:5", "psl2:7", "prod:sl2:5+cyclic:3"])
    def test_c2_bits_match_the_full_table_form(self, spec, bundle):
        # The reference holds the n x n tables F1[x, z] = f1(x z^{-1}) and
        # F3[x, z] = f3(xz) and averages along their rows; the chain's row
        # pass must give the same bits.  Uniform values make the rounding
        # depend on the order of the sum over z.
        G, C, T = bundle(spec)
        rng = np.random.default_rng(47)
        v1, v2, v3 = rng.uniform(-1, 1, (3, G.n))
        v3 = (v3 - v3.mean()) / np.abs(v3 - v3.mean()).max()
        fs = [GroupFunction(G, v) for v in (v1, v2, v3)]
        c2 = dict(cs_chain_diagnostics(*fs, T).values)["c2"]

        t = G.mul
        v1, v3 = fs[0].values.real.copy(), fs[2].values.real.copy()
        F1, F3 = v1[t[:, G.inv]], v3[t]
        assert c2 == float(((F1 * F3).mean(axis=1) ** 2).mean()) ** 2

    def test_theta_fourth_power_is_c1(self, bundle):
        G, C, T = bundle("alt:4")
        pair = random_ensemble(G, "rademacher", 35, 2)
        f3 = random_ensemble(G, "mean_zero_rademacher", 36, 1)[0]
        rep = cs_chain_diagnostics(pair[0], pair[1], f3, T)
        theta = theta_defect(pair[0], pair[1], f3, T).theta
        assert dict(rep.values)["c1"] == pytest.approx(theta**4, abs=1e-12)

    def test_vacuous_group_still_bounded(self, bundle):
        G, C, T = bundle("cyclic:5")
        f1, f2, f3 = cyclic5_phase_triple(G)
        real_triple = (
            GroupFunction(G, f1.values.real),
            GroupFunction(G, f2.values.real),
            GroupFunction(G, f3.values.imag - f3.values.imag.mean()),
        )
        rep = cs_chain_diagnostics(*real_triple, T)
        assert dict(rep.values)["bound"] == pytest.approx(2.0)
        assert rep.passed

    def test_rejects_complex_input(self, bundle, constant_function):
        G, C, T = bundle("sym:3")
        f = GroupFunction(G, np.full(G.n, 0.5j))
        c = constant_function(G, 1.0)
        zero = constant_function(G, 0.0)
        with pytest.raises(PreconditionError):
            cs_chain_diagnostics(f, c, zero, T)

    def test_rejects_nonzero_mean_f3(self, bundle, constant_function):
        G, C, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        with pytest.raises(PreconditionError):
            cs_chain_diagnostics(c, c, c, T)

    def test_size_guard(self, bundle, constant_function):
        G, C, T = bundle("psl2:7")
        zero = constant_function(G, 0.0)
        c = constant_function(G, 1.0)
        assert cs_chain_diagnostics(c, c, zero, T).passed
        G, C, T = bundle("psl2:11")
        assert G.n == 660
        assert mixing.gather_estimate("chain", C) == 4 * 660**3 > mixing.GATHER_BUDGET
        # gamma's exhaustive pass fits here.
        assert mixing.gather_estimate("gamma", C) == 2 * 660**3
        mixing.check_budget("gamma", C)
        zero = constant_function(G, 0.0)
        c = constant_function(G, 1.0)
        with pytest.raises(SizeGuardError):
            cs_chain_diagnostics(c, c, zero, T)

    def test_lemma_verdict(self, bundle):
        G, C, T = bundle("alt:4")
        pair = random_ensemble(G, "rademacher", 29, 2)
        f3 = random_ensemble(G, "mean_zero_rademacher", 31, 1)[0]
        rep = cs_chain_diagnostics(pair[0], pair[1], f3, T)
        v = dict(rep.values)
        lemma = rep.lemma
        assert lemma.lemma_id == "chain"
        assert (lemma.lhs_value, lemma.rhs_bound) == (v["split"], v["bound"])
        assert lemma.margin == v["bound"] - v["split"]
        assert rep.passed is lemma.passed is True


def class_conv_sums_every_g(G, C, V, cols):
    """The class-convolution sums with every g evaluated, weight 1: a copy
    of the loop before the sums were quotiented by the central involutions."""
    t = G.mul
    n, m = G.n, len(cols)
    W = V if np.any(V.imag) else V.real
    mu = _correlation(G, W, W) / n
    mu = mu if np.iscomplexobj(W) else mu.real
    ft = W[G.inv]
    bi = G.inv[cols]
    deriv = np.ascontiguousarray((ft[t[bi]] * ft).T)
    VT = ft[t]
    A = np.empty_like(deriv)
    X = np.empty((m, n), dtype=ft.dtype)
    Fg = np.empty(n, dtype=ft.dtype)
    abs0, full_sum, abs_mean = np.zeros(m), np.zeros(m, dtype=ft.dtype), np.zeros(m)
    for c in range(C.k):
        members = np.flatnonzero(C.class_of == c)
        step = max(1, CHUNK * CHUNK // (len(members) * m))
        for lo in range(0, n, step):
            A[lo:lo + step] = deriv[t[members, lo:lo + step]].mean(axis=0)
        AT = np.ascontiguousarray(A.T)
        for g in members:
            gi = G.inv[g]
            h = t[gi, bi]
            np.take(VT, h, axis=0, out=X, mode="clip")
            X *= AT
            full = X @ np.take(VT, gi, axis=0, out=Fg, mode="clip") / n
            inner_mean = mu[t[h, g]] * mu[cols]
            abs0 += np.abs(full - inner_mean)
            full_sum += full
            abs_mean += np.abs(inner_mean)
    return abs0, full_sum, abs_mean


def c3_every_z(G, v3):
    """The chain's c3 with every z summed: a copy of the loop before it was
    quotiented by the central involutions."""
    t, n = G.mul, G.n
    ar = np.arange(n)
    F3T = np.take(v3, t.T)
    v3U = F3T[t.diagonal()]
    X = np.empty_like(v3U)
    acc = 0.0
    for a, weight in zip(*(r.tolist() for r in mixing._inverse_pairs(G))):
        q = t[t[ar, G.inv[a]], ar]
        np.take(F3T, q, axis=0, out=X, mode="clip")
        np.multiply(v3U, X, out=X)
        inner = X.sum(axis=0) / n
        acc += weight * float((inner**2).sum())
    return acc / (n * n)


class TestCentralQuotient:
    """gamma, c3 and c4 evaluate one element per coset of the central
    involutions E = {z central : z^2 = 1}, weighted |E|."""

    @pytest.mark.parametrize(
        "spec, order",
        [
            ("sl2:5", 2),
            ("psl2:7", 1),
            ("alt:5", 1),
            ("cyclic:6", 2),
            ("prod:sl2:3+dihedral:4", 4),
            # Centre of order 6, of which only {1, -1} squares to 1.
            ("prod:sl2:5+cyclic:3", 2),
        ],
    )
    def test_helper_is_a_transversal_of_the_brute_force_e(self, spec, order, bundle):
        G, C, _ = bundle(spec)
        t = G.mul
        E = [z for z in range(G.n) if np.array_equal(t[z], t[:, z]) and t[z, z] == 0]
        picked, e = mixing._central_involutions(C)
        assert e == len(E) == order
        assert picked.dtype == bool and picked.sum() * e == G.n
        # The pick of each coset gE is its member of least (class, index).
        for g in range(G.n):
            coset = t[g, E]
            least = min(coset.tolist(), key=lambda x: (C.class_of[x], x))
            assert picked[coset].tolist() == [x == least for x in coset]

    @staticmethod
    def _values(G, complex_values):
        if complex_values:
            return random_ensemble(G, "unimodular", 71, 1)[0].values
        return bounded_mean_zero(G, 73, False).values

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("spec", ["alt:5", "psl2:7", "alt:6"])
    def test_class_conv_bits_unchanged_where_e_is_trivial(self, spec, complex_values, bundle):
        G, C, _ = bundle(spec)
        assert mixing._central_involutions(C)[1] == 1
        V = self._values(G, complex_values)
        cols, _ = mixing._inverse_pairs(G)
        got = _class_conv_sums(C, V, cols)
        want = class_conv_sums_every_g(G, C, V, cols)
        assert [s.dtype for s in got] == [s.dtype for s in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("spec", ["sl2:5", "sl2:7", "prod:sl2:3+dihedral:4"])
    def test_class_conv_within_last_bits_where_e_is_not(self, spec, complex_values, bundle):
        G, C, _ = bundle(spec)
        assert mixing._central_involutions(C)[1] > 1
        V = self._values(G, complex_values)
        cols, _ = mixing._inverse_pairs(G)
        got = _class_conv_sums(C, V, cols)
        want = class_conv_sums_every_g(G, C, V, cols)
        assert [s.dtype for s in got] == [s.dtype for s in want]
        # Relative to each vector's largest entry: a column sum over g can
        # cancel far below the size of its terms, and its rounding with it.
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize(
        "spec", ["alt:5", "psl2:7", "alt:6", "sl2:5", "sl2:7", "prod:sl2:3+dihedral:4"]
    )
    def test_c3_against_the_sum_over_every_z(self, spec, bundle):
        # Equal bits where E is trivial, the last bits otherwise.
        G, C, T = bundle(spec)
        f1, f2 = random_ensemble(G, "rademacher", 79, 2)
        f3 = random_ensemble(G, "mean_zero_rademacher", 83, 1)[0]
        c3 = dict(cs_chain_diagnostics(f1, f2, f3, T).values)["c3"]
        want = c3_every_z(G, f3.values.real.copy())
        if mixing._central_involutions(C)[1] == 1:
            assert c3 == want
        else:
            assert c3 == pytest.approx(want, rel=1e-14, abs=0)


class TestRandomEnsemble:
    def test_rademacher(self, bundle):
        G, _, _ = bundle("sym:4")
        fns = random_ensemble(G, "rademacher", 1, 3)
        assert len(fns) == 3
        for f in fns:
            assert set(np.unique(f.values.real)) <= {-1.0, 1.0}

    def test_unimodular(self, bundle):
        G, _, _ = bundle("sym:4")
        (f,) = random_ensemble(G, "unimodular", 2, 1)
        assert np.abs(np.abs(f.values) - 1.0).max() < 1e-12

    def test_indicator_density(self, bundle):
        G, _, _ = bundle("sl2:5")
        (f,) = random_ensemble(G, "indicator:0.25", 3, 1)
        assert set(np.unique(f.values.real)) <= {0.0, 1.0}
        assert 0.05 < f.values.real.mean() < 0.45

    def test_mean_zero_rademacher(self, bundle):
        G, _, _ = bundle("sym:4")
        for f in random_ensemble(G, "mean_zero_rademacher", 4, 5):
            assert abs(mean(f)) < 1e-15
            assert np.abs(f.values).max() <= 1.0 + 1e-15

    def test_determinism_and_stream_splitting(self, bundle):
        G, _, _ = bundle("sym:4")
        a = random_ensemble(G, "rademacher", 55, 4)
        b = random_ensemble(G, "rademacher", 55, 4)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
        assert not np.array_equal(a[0].values, a[1].values)

    @staticmethod
    def cast_before_the_copy(G, kind, seed, count):
        """The draws of random_ensemble as a test-local copy of its
        generator makes them, each cast to the kind GroupFunction keeps
        for it: int64, complex128, bool and float64."""
        rng = np.random.default_rng(seed)
        base, _, density = kind.partition(":")
        out = []
        for _ in range(count):
            if base == "rademacher":
                vals = (rng.integers(0, 2, size=G.n) * 2 - 1).astype(np.int64)
            elif base == "unimodular":
                vals = np.exp(2j * np.pi * rng.random(G.n)).astype(np.complex128)
            elif base == "indicator":
                vals = (rng.random(G.n) < float(density)).astype(np.bool_)
            else:
                v = (rng.integers(0, 2, size=G.n) * 2 - 1).astype(np.float64)
                m = v.mean()
                vals = ((v - m) / (1.0 + abs(m))).astype(np.float64)
            out.append(vals)
        return out

    @pytest.mark.parametrize(
        "kind", ["rademacher", "unimodular", "indicator:0.3", "mean_zero_rademacher"]
    )
    @pytest.mark.parametrize("spec", ["sym:4", "psl2:7"])
    def test_values_equal_a_cast_before_the_copy(self, bundle, spec, kind):
        # Each draw keeps its own kind; tobytes() with the dtype compares
        # every bit, the sign of each zero included.
        G, _, _ = bundle(spec)
        for seed in (0, 7, (42, 105)):
            fns = random_ensemble(G, kind, seed, 3)
            got = [(f.values.dtype, f.values.tobytes()) for f in fns]
            draws = self.cast_before_the_copy(G, kind, seed, 3)
            assert got == [(v.dtype, v.tobytes()) for v in draws]

    def test_invalid_kinds(self, bundle):
        G, _, _ = bundle("sym:3")
        for bad in ("nope", "indicator:0", "indicator:1", "indicator:x", "indicator:1.5"):
            for count in (0, 1):
                with pytest.raises(PreconditionError):
                    random_ensemble(G, bad, 0, count)


class TestAdversarialSearch:
    def test_zero_budget_returns_seeded_start(self, bundle):
        G, _, T = bundle("sym:4")
        A1, A2, A3, rep = adversarial_search(T, budget=0, restarts=2, seed=8)
        recount = count_progressions(A1, A2, A3, G)
        sizes = np.array([len(A1), len(A2), len(A3)], dtype=float)
        expected = abs(recount / G.n**2 - sizes.prod() / G.n**3)
        assert rep.theta == pytest.approx(expected, abs=1e-12)

    def test_determinism(self, bundle):
        G, _, T = bundle("psl2:5")
        first = adversarial_search(T, budget=800, restarts=2, seed=21)
        second = adversarial_search(T, budget=800, restarts=2, seed=21)
        for a, b in zip(first[:3], second[:3]):
            assert np.array_equal(a, b)
        assert first[3].theta == second[3].theta

    def test_search_only_improves(self, bundle):
        G, _, T = bundle("psl2:5")
        base = adversarial_search(T, budget=0, restarts=3, seed=13)[3].theta
        better = adversarial_search(T, budget=2000, restarts=3, seed=13)[3].theta
        assert better >= base

    def test_report_matches_exact_recount(self, bundle):
        G, _, T = bundle("psl2:5")
        A1, A2, A3, rep = adversarial_search(T, budget=1500, restarts=2, seed=34)
        recount = count_progressions(A1, A2, A3, G)
        sizes = np.array([len(A1), len(A2), len(A3)], dtype=float)
        expected = abs(recount / G.n**2 - sizes.prod() / G.n**3)
        assert rep.theta == pytest.approx(expected, abs=1e-12)

    def test_stays_under_theorem_bound(self, bundle):
        G, _, T = bundle("psl2:7")
        *_, rep = adversarial_search(T, budget=5000, restarts=5, seed=1)
        assert rep.theta <= theorem_bound(T.D) + 1e-9

    def test_toggle_tables_match_recounts(self, bundle):
        for spec in ("sym:4", "psl2:5"):
            G, _, _ = bundle(spec)
            rng = np.random.default_rng(2)
            ind = [rng.integers(0, 2, size=G.n).astype(np.int64) for _ in range(3)]
            tables = _toggle_gain_tables(G, *ind)
            base = count_progressions(*(np.flatnonzero(v) for v in ind), G)
            for slot in range(3):
                for e in range(G.n):
                    toggled = [v.copy() for v in ind]
                    toggled[slot][e] ^= 1
                    sets = (np.flatnonzero(v) for v in toggled)
                    recount = count_progressions(*sets, G)
                    assert abs(recount - base) == tables[slot][e], (spec, slot, e)

    # sym:4 squares many y to one y^2; psl2:7, sl2:5 and the product run
    # over more rows than one block of the packed pass.
    @pytest.mark.parametrize(
        "spec",
        ["sym:4", "psl2:7", "sl2:5", "dihedral:6", "cyclic:7", "prod:sl2:5+cyclic:3"],
    )
    @pytest.mark.parametrize("sets", ["random", "empty", "full"])
    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_toggle_tables_match_dense_formulas(self, bundle, spec, sets, dtype):
        G, _, _ = bundle(spec)
        n = G.n
        if sets == "random":
            rng = np.random.default_rng(n)
            v1, v2, v3 = (rng.random(n) < p for p in (0.3, 0.5, 0.8))
        else:
            v1 = v2 = v3 = np.full(n, sets == "full")
        v1, v2, v3 = (v.astype(dtype) for v in (v1, v2, v3))
        t = G.mul
        ey = t  # ey[e, y] = e y
        ey2 = t[:, t.diagonal()]  # e y^2
        ey_inv = t[:, G.inv]  # e y^-1
        ey_inv2 = t[:, G.inv[t.diagonal()]]  # e y^-2
        w1, w2, w3 = (v.astype(np.int64) for v in (v1, v2, v3))
        want = np.stack(
            [
                (w2[ey] * w3[ey2]).sum(axis=1),
                (w1[ey_inv] * w3[ey]).sum(axis=1),
                (w1[ey_inv2] * w2[ey_inv]).sum(axis=1),
            ]
        )
        got = _toggle_gain_tables(G, v1, v2, v3)
        assert got.dtype == np.int64 and got.shape == (3, n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", ["sym:4", "psl2:5"])
    def test_incremental_tables_replay_recompute(self, bundle, spec):
        G, _, _ = bundle(spec)
        ysq = G.mul.diagonal()
        # Repeated squares send several y to one uy^2, so the scatter-adds
        # of slots 1 and 3 meet colliding indices.
        assert len(np.unique(ysq)) < G.n
        rng = np.random.default_rng(5)
        V = np.stack([rng.integers(0, 2, size=G.n).astype(np.int64) for _ in range(3)])
        S = _toggle_gain_tables(G, *V)
        # Steps 0-2 add in slots 1, 2, 3, steps 3-5 remove, and so on.
        for step in range(12):
            slot = step % 3
            member = (step // 3) % 2
            u = int(rng.choice(np.flatnonzero(V[slot] == member)))
            mixing._apply_toggle(G, V, S, slot, u, ysq)
            assert V[slot, u] == 1 - member
            assert np.array_equal(S, _toggle_gain_tables(G, *V)), step
        sets = [np.flatnonzero(v) for v in V]
        assert int(V[0] @ S[0]) == count_progressions(*sets, G)

    @pytest.mark.parametrize(
        "spec, seed, budget, restarts",
        [
            ("sym:4", 0, 3000, 3),
            ("psl2:5", 21, 2000, 2),
            ("sl2:5", 42, 4000, 2),
            ("psl2:7", 1, 5000, 2),
            # n = 336: the rows come in two blocks of at most 195.
            ("sl2:7", 7, 20000, 2),
        ],
    )
    def test_matches_recompute_every_step(
        self, bundle, reference_search, spec, seed, budget, restarts
    ):
        G, _, T = bundle(spec)
        args = dict(budget=budget, restarts=restarts, seed=seed)
        got = adversarial_search(T, **args)
        want = reference_search(T, **args)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        # The kept count's report against the oracle's recount, field by field.
        for name in ("raw_expectation", "product_of_means", "theta", "bound", "margin"):
            assert getattr(got[3], name) == getattr(want[3], name), name

    @pytest.mark.parametrize("budget", [0, 300, 5000])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_one_progression_pass_per_restart(self, bundle, monkeypatch, budget, restarts):
        # One O(n^2) pass builds each restart's tables; the greedy steps add
        # none, whatever the budget, and the report reads the kept count.
        G, _, T = bundle("psl2:5")
        calls = count_calls(monkeypatch, "_toggle_gain_tables", "_bit_pass")
        adversarial_search(T, budget=budget, restarts=restarts, seed=3)
        assert calls == {"_toggle_gain_tables": restarts, "_bit_pass": 0}

    def test_negative_budget_rejected(self, bundle):
        G, _, T = bundle("sym:4")
        with pytest.raises(PreconditionError):
            adversarial_search(T, budget=-1, restarts=1, seed=0)


@pytest.mark.parametrize("spec", ["sl2:7", "psl2:13"])
def test_no_o_n2_path_builds_the_table(spec):
    # Only the O(n^3) kernels read GroupTable.mul.  Every other path reads
    # rows from the walk or columns through compose, so on a fresh group
    # the table stays None after each call, on small groups as on large.
    G = build_group(spec)
    C = conjugacy_classes(G)
    assert G.table is None
    T = compute_character_table(C)
    assert G.table is None
    B = random_ensemble(G, "indicator:0.5", 3, 3)
    F = random_ensemble(G, "mean_zero_rademacher", 5, 3)
    calls = {
        "theta_defects bool": lambda: theta_defects([B[0]], [B[1]], [B[2]], T),
        "theta_defects float": lambda: theta_defects([F[0]], [F[1]], [F[2]], T),
        "count_progressions": lambda: count_progressions(
            *(np.flatnonzero(b.values) for b in B), G
        ),
        "adversarial_search": lambda: adversarial_search(
            T, budget=3 * G.n, restarts=1, seed=1
        ),
        "convolve": lambda: convolve(F[0], F[1]),
        "verify_derivative_bound": lambda: verify_derivative_bound(F[0], T),
        "verify_parseval": lambda: verify_parseval(F[0], T, 1e-8),
        "verify_fcmu": lambda: verify_fcmu(T, 1e-8),
    }
    for name, call in calls.items():
        call()
        assert G.table is None, name


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_theorem_holds_on_random_bounded_functions(seed):
    G = build_group("psl2:5")
    from qmix import compute_character_table, conjugacy_classes

    T = compute_character_table(conjugacy_classes(G))
    rng = np.random.default_rng(seed)
    fs = [GroupFunction(G, rng.uniform(-1, 1, G.n)) for _ in range(3)]
    rep = theta_defect(fs[0], fs[1], fs[2], T)
    assert rep.theta <= rep.bound + 1e-9
