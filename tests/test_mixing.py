import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    GroupFunction,
    GroupMismatchError,
    PreconditionError,
    SizeGuardError,
    adversarial_search,
    build_group,
    character_function,
    constant_function,
    convolve,
    count_progressions,
    cs_chain_diagnostics,
    delta_shift,
    gamma_functional,
    indicator_function,
    inverse,
    mean,
    mean_zero_decompose,
    mu_translated_class,
    mul,
    random_ensemble,
    theorem_bound,
    theta_defect,
    theta_defects,
    verify_bnp,
    verify_derivative_bound,
)
from qmix.mixing import _toggle_gain_tables


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


class TestThetaDefect:
    def test_constants_have_zero_defect(self, bundle):
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

    def test_sup_norm_warning(self, bundle):
        G, _, T = bundle("sym:3")
        big = constant_function(G, 3.0)
        with pytest.warns(UserWarning, match="sup norm"):
            theta_defect(big, big, big, T)

    def test_group_mismatch(self, bundle):
        G1, _, T1 = bundle("sym:3")
        G2, _, _ = bundle("cyclic:6")
        c1, c2 = constant_function(G1), constant_function(G2)
        with pytest.raises(GroupMismatchError):
            theta_defect(c1, c1, c2, T1)

    @pytest.mark.parametrize("m", [1, 7, 300])
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

    def test_batch_matches_single_triples_on_unimodular(self, bundle):
        G, _, T = bundle("psl2:7")
        streams = [random_ensemble(G, "unimodular", (9, role), 7) for role in range(3)]
        batch = theta_defects(*streams, T)
        for b, f1, f2, f3 in zip(batch, *streams):
            s = theta_defect(f1, f2, f3, T)
            assert abs(b.raw_expectation - s.raw_expectation) < 1e-12
            assert abs(b.theta - s.theta) < 1e-12

    def test_batch_rejects_unequal_lists(self, bundle):
        G, _, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        assert theta_defects([], [], [], T) == []
        with pytest.raises(PreconditionError):
            theta_defects([c, c], [c, c], [c], T)

    def test_vacuous_flag_tracks_bound(self, bundle):
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

    def test_brute_force_oracle(self, bundle):
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
                and mul(G, x, y) in sets[1]
                and mul(G, mul(G, x, y), y) in sets[2]
            )
            assert count_progressions(*sets, G) == expected

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_raw_indicator_defect(self, data):
        G = build_group("sym:4")
        from qmix import compute_character_table, conjugacy_classes

        T = compute_character_table(G, conjugacy_classes(G))
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
    def test_zero_function_passes(self, bundle):
        G, _, T = bundle("alt:5")
        zero = constant_function(G, 0.0)
        rep = verify_bnp(zero, zero, T)
        assert rep.passed and rep.lhs_value == 0.0

    def test_character_witness(self, bundle):
        G, C, T = bundle("alt:5")
        chi = character_function(T, C, 1)
        rep = verify_bnp(chi, chi, T)
        assert rep.lhs_value == pytest.approx(1 / 3, abs=1e-9)
        assert rep.rhs_bound == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert rep.passed
        assert rep.mode == "exhaustive"

    def test_random_pairs_pass(self, bundle):
        G, _, T = bundle("psl2:5")
        fns = random_ensemble(G, "mean_zero_rademacher", 99, 20)
        for f1, f2 in zip(fns[0::2], fns[1::2]):
            rep = verify_bnp(f1, f2, T)
            assert rep.passed and rep.margin > 0

    def test_requires_a_mean_zero_factor(self, bundle):
        G, _, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        with pytest.raises(PreconditionError):
            verify_bnp(c, c, T)

    def test_one_mean_zero_factor_suffices(self, bundle):
        G, _, T = bundle("alt:5")
        c = constant_function(G, 1.0)
        f0 = mean_zero_decompose(random_ensemble(G, "rademacher", 3, 1)[0])[1]
        assert verify_bnp(c, f0, T).passed
        assert verify_bnp(f0, c, T).passed


class TestDerivativeBound:
    def test_zero_function(self, bundle):
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

    def test_preconditions(self, bundle):
        G, _, T = bundle("sym:3")
        with pytest.raises(PreconditionError):
            verify_derivative_bound(constant_function(G, 1.0), T)
        v = np.zeros(G.n)
        v[0], v[1] = 2.0, -2.0
        with pytest.raises(PreconditionError):
            verify_derivative_bound(GroupFunction(G, v), T)


def gamma_brute_force(f, T, C):
    """Direct composition of the averaged class-convolution functional."""
    G = f.group
    total = 0.0
    for g in range(G.n):
        mu = mu_translated_class(G, C, inverse(G, g))
        g_inv = inverse(G, g)
        for b in range(G.n):
            gbg = mul(G, mul(G, g_inv, b), g)
            _, f0 = mean_zero_decompose(delta_shift(f, gbg))
            conv = convolve(f0, mu)
            inner = mean(GroupFunction(G, delta_shift(f, b).values * conv.values))
            total += abs(inner)
    return total / G.n**2


class TestGammaFunctional:
    def test_zero_function(self, bundle):
        G, _, T = bundle("sym:3")
        rep = gamma_functional(constant_function(G, 0.0), T)
        assert rep.lhs_value == 0.0 and rep.passed

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_brute_force_oracle(self, complex_values, bundle):
        G, C, T = bundle("sym:3")
        rng = np.random.default_rng(7)
        v = rng.uniform(-1, 1, G.n)
        if complex_values:
            v = v * np.exp(2j * np.pi * rng.random(G.n))
        v = v - v.mean()
        v = v / (np.abs(v).max() + 1e-9)
        f = GroupFunction(G, v)
        rep = gamma_functional(f, T, C, mode="exhaustive")
        assert rep.lhs_value == pytest.approx(gamma_brute_force(f, T, C), abs=1e-12)

    def test_exhaustive_on_alt5(self, bundle):
        G, C, T = bundle("alt:5")
        for f in random_ensemble(G, "mean_zero_rademacher", 11, 5):
            rep = gamma_functional(f, T, C)
            assert rep.mode == "exhaustive"
            assert rep.lhs_value <= 1 / math.sqrt(3) + 1e-9
            assert rep.passed

    def test_sampled_mode_consistent_with_exhaustive(self, bundle):
        G, C, T = bundle("alt:5")
        f = random_ensemble(G, "mean_zero_rademacher", 13, 1)[0]
        exact = gamma_functional(f, T, C, mode="exhaustive").lhs_value
        sampled = gamma_functional(f, T, C, mode="sampled", budget=1500, seed=5)
        assert sampled.mode.startswith("sampled(")
        assert sampled.stderr_estimate is not None
        assert sampled.sample_count == 1500
        assert abs(sampled.lhs_value - exact) < 5 * sampled.stderr_estimate + 1e-3

    def test_sampled_determinism(self, bundle):
        G, C, T = bundle("sl2:5")
        f = random_ensemble(G, "mean_zero_rademacher", 17, 1)[0]
        a = gamma_functional(f, T, C, budget=300, seed=9)
        b = gamma_functional(f, T, C, budget=300, seed=9)
        assert a.lhs_value == b.lhs_value
        assert a.stderr_estimate == b.stderr_estimate

    def test_exhaustive_size_guard(self, bundle):
        G, C, T = bundle("sl2:7")
        f = random_ensemble(G, "mean_zero_rademacher", 19, 1)[0]
        with pytest.raises(SizeGuardError):
            gamma_functional(f, T, C, mode="exhaustive")

    def test_tiny_budget_rejected(self, bundle):
        G, C, T = bundle("sl2:5")
        f = random_ensemble(G, "mean_zero_rademacher", 23, 1)[0]
        with pytest.raises(PreconditionError):
            gamma_functional(f, T, C, mode="sampled", budget=1)

    def test_preconditions(self, bundle):
        G, C, T = bundle("sym:3")
        with pytest.raises(PreconditionError):
            gamma_functional(constant_function(G, 0.5), T, C)


class TestChain:
    def test_zero_third_function(self, bundle):
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
            rep = cs_chain_diagnostics(pair[2 * i], pair[2 * i + 1], thirds[i], T, C)
            assert rep.passed
            v = dict(rep.values)
            assert v["c1"] <= v["c2"] + 1e-9
            assert v["c2"] <= v["c3"] + 1e-9
            assert abs(v["c3"] - v["c4"]) < 1e-9
            assert v["c4"] <= v["split"] + 1e-9
            assert v["split"] <= v["bound"] + 1e-9

    def test_c2_c3_brute_force(self, bundle):
        G, C, T = bundle("sym:3")
        n = G.n
        rng = np.random.default_rng(33)
        fs = [GroupFunction(G, rng.uniform(-1, 1, n)) for _ in range(2)]
        v3 = rng.uniform(-1, 1, n)
        v3 -= v3.mean()
        v3 /= np.abs(v3).max()
        f3 = GroupFunction(G, v3)
        rep = cs_chain_diagnostics(fs[0], fs[1], f3, T, C)
        v = dict(rep.values)
        v1 = fs[0].values.real

        inner = [
            np.mean([v1[mul(G, x, inverse(G, z))] * v3[mul(G, x, z)] for z in range(n)])
            for x in range(n)
        ]
        c2 = float(np.mean(np.array(inner) ** 2)) ** 2
        assert v["c2"] == pytest.approx(c2, abs=1e-12)

        total = 0.0
        for y in range(n):
            for a in range(n):
                acc = 0.0
                for z in range(n):
                    zsq = mul(G, z, z)
                    shift = mul(G, mul(G, inverse(G, z), inverse(G, a)), z)
                    x = mul(G, y, zsq)
                    acc += v3[x] * v3[mul(G, x, shift)]
                total += (acc / n) ** 2
        c3 = total / n**2
        assert v["c3"] == pytest.approx(c3, abs=1e-12)

    def test_theta_fourth_power_is_c1(self, bundle):
        G, C, T = bundle("alt:4")
        pair = random_ensemble(G, "rademacher", 35, 2)
        f3 = random_ensemble(G, "mean_zero_rademacher", 36, 1)[0]
        rep = cs_chain_diagnostics(pair[0], pair[1], f3, T, C)
        theta = theta_defect(pair[0], pair[1], f3, T).theta
        assert dict(rep.values)["c1"] == pytest.approx(theta**4, abs=1e-12)

    def test_vacuous_group_still_bounded(self, bundle):
        G, C, T = bundle("cyclic:5")
        f1, f2, f3 = cyclic5_phase_triple(G)
        real_triple = (
            GroupFunction(G, f1.values.real),
            GroupFunction(G, f2.values.real),
            mean_zero_decompose(GroupFunction(G, f3.values.imag))[1],
        )
        rep = cs_chain_diagnostics(*real_triple, T, C)
        assert dict(rep.values)["bound"] == pytest.approx(2.0)
        assert rep.passed

    def test_rejects_complex_input(self, bundle):
        G, C, T = bundle("sym:3")
        f = GroupFunction(G, np.full(G.n, 0.5j))
        c = constant_function(G, 1.0)
        zero = constant_function(G, 0.0)
        with pytest.raises(PreconditionError):
            cs_chain_diagnostics(f, c, zero, T, C)

    def test_rejects_nonzero_mean_f3(self, bundle):
        G, C, T = bundle("sym:3")
        c = constant_function(G, 1.0)
        with pytest.raises(PreconditionError):
            cs_chain_diagnostics(c, c, c, T, C)

    def test_size_guard(self, bundle):
        G, C, T = bundle("psl2:7")
        zero = constant_function(G, 0.0)
        c = constant_function(G, 1.0)
        with pytest.raises(SizeGuardError):
            cs_chain_diagnostics(c, c, zero, T, C, max_order=120)
        assert cs_chain_diagnostics(c, c, zero, T, C, max_order=200).passed


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

    def test_invalid_kinds(self, bundle):
        G, _, _ = bundle("sym:3")
        for bad in ("nope", "indicator:0", "indicator:1", "indicator:x", "indicator:1.5"):
            for count in (0, 1):
                with pytest.raises(PreconditionError):
                    random_ensemble(G, bad, 0, count)


class TestAdversarialSearch:
    def test_zero_budget_returns_seeded_start(self, bundle):
        G, _, T = bundle("sym:4")
        A1, A2, A3, rep = adversarial_search(G, T, budget=0, restarts=2, seed=8)
        recount = count_progressions(A1, A2, A3, G)
        sizes = np.array([len(A1), len(A2), len(A3)], dtype=float)
        expected = abs(recount / G.n**2 - sizes.prod() / G.n**3)
        assert rep.theta == pytest.approx(expected, abs=1e-12)

    def test_determinism(self, bundle):
        G, _, T = bundle("psl2:5")
        first = adversarial_search(G, T, budget=800, restarts=2, seed=21)
        second = adversarial_search(G, T, budget=800, restarts=2, seed=21)
        for a, b in zip(first[:3], second[:3]):
            assert np.array_equal(a, b)
        assert first[3].theta == second[3].theta

    def test_search_only_improves(self, bundle):
        G, _, T = bundle("psl2:5")
        base = adversarial_search(G, T, budget=0, restarts=3, seed=13)[3].theta
        better = adversarial_search(G, T, budget=2000, restarts=3, seed=13)[3].theta
        assert better >= base

    def test_report_matches_exact_recount(self, bundle):
        G, _, T = bundle("psl2:5")
        A1, A2, A3, rep = adversarial_search(G, T, budget=1500, restarts=2, seed=34)
        recount = count_progressions(A1, A2, A3, G)
        sizes = np.array([len(A1), len(A2), len(A3)], dtype=float)
        expected = abs(recount / G.n**2 - sizes.prod() / G.n**3)
        assert rep.theta == pytest.approx(expected, abs=1e-12)

    def test_stays_under_theorem_bound(self, bundle):
        G, _, T = bundle("psl2:7")
        *_, rep = adversarial_search(G, T, budget=5000, restarts=5, seed=1)
        assert rep.theta <= theorem_bound(T.D) + 1e-9

    def test_toggle_tables_match_recounts(self, bundle):
        G, _, _ = bundle("sym:4")
        rng = np.random.default_rng(2)
        ind = [rng.integers(0, 2, size=G.n).astype(np.int64) for _ in range(3)]
        tables = _toggle_gain_tables(G, *ind)
        base = count_progressions(*(np.flatnonzero(v) for v in ind), G)
        for slot in range(3):
            for e in range(G.n):
                toggled = [v.copy() for v in ind]
                toggled[slot][e] ^= 1
                recount = count_progressions(*(np.flatnonzero(v) for v in toggled), G)
                assert abs(recount - base) == tables[slot][e]

    def test_negative_budget_rejected(self, bundle):
        G, _, T = bundle("sym:4")
        with pytest.raises(PreconditionError):
            adversarial_search(G, T, budget=-1, restarts=1, seed=0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_theorem_holds_on_random_bounded_functions(seed):
    G = build_group("psl2:5")
    from qmix import compute_character_table, conjugacy_classes

    T = compute_character_table(G, conjugacy_classes(G))
    rng = np.random.default_rng(seed)
    fs = [GroupFunction(G, rng.uniform(-1, 1, G.n)) for _ in range(3)]
    rep = theta_defect(fs[0], fs[1], fs[2], T)
    assert rep.theta <= rep.bound + 1e-9
